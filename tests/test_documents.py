"""Each JSON document has one strict reader, on the type that writes it:
a malformed document raises ConfigParse naming its key, and a document
written by ``to_json`` (``to_dict`` for a Ramsey config) reads back with
every bit of its arrays, the sign of a zero included.  The names the
package exports are pinned here too, and each of them, and each public
method of an exported class, has a caller outside the unit tests."""
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lindkit
from conftest import SM, SX
from lindkit import Kernel, LindbladModel, RamseyConfig, build_superoperator, kernel_from_generator
from lindkit.errors import ConfigParse

_MODEL = LindbladModel(2, np.diag([0.5, -0.5]).astype(complex), [0.3 * SX, 0.2 * SM])
_GEN = build_superoperator(_MODEL)
_RAMSEY = RamseyConfig(0.0, 100.0, 0.25, 100.0, np.pi, 50.0, 50.0, 5.0, 0.02 + 0.05j)

# reader name -> (reader of a parsed document, a well-formed document)
_READERS = {
    "model": (LindbladModel.from_dict, json.loads(_MODEL.to_json())),
    "kernel": (Kernel.from_dict, json.loads(kernel_from_generator(_GEN, 0.8).to_json())),
    "ramsey": (RamseyConfig.from_dict, _RAMSEY.to_dict()),
}


def _set(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def _one_dimensional_with_dim_true(doc):
    doc.update(dim=True, h_re=[0.7], h_im=[0.0], lindblads=[])


_NAN = float("nan")
# (reader, mutation, the field the ConfigParse names)
_MALFORMED = [
    ("kernel", _set("dim", 2.5), "dim"),
    ("kernel", _set("tau", "inf"), "tau"),
    ("kernel", _set("tau", _NAN), "tau"),
    ("kernel", _set("junk", 1.0), "junk"),
    ("kernel", _set("re", 0, _NAN), "re"),
    ("kernel", _set("im", [0.0] * 15), "im"),
    ("kernel", _set("vec_order", "col-major"), "vec_order"),
    ("kernel", _set("tau", -1.0), "tau"),
    ("kernel", _set("dim", 0), "dim"),
    ("kernel", _set("schema", "lindkit.kernel/2"), "schema"),
    ("kernel", _set("choi_convention", "sum |i><j| x Phi(|i><j|)"), "choi_convention"),
    ("kernel", _set("re", [0.0] * 15), "re"),
    ("model", _set("dim", 2.5), "model"),
    ("model", _set("dim", "2"), "model"),
    ("model", _set("lindblads", 0, "junk", 1.0), "model"),
    ("model", _set("lindblads", {}), "model"),
    ("model", _set("h_re", 0, _NAN), "model"),
    ("model", _set("h_im", 0.0), "model"),
    ("model", _set("schema", "lindkit.model/2"), "model"),
    ("model", _set("junk", 1.0), "junk"),
    ("ramsey", _set("tau", "inf"), "ramsey"),
    ("ramsey", _set("sigma", _NAN), "ramsey"),
    ("ramsey", _set("e_g", "0.5"), "ramsey"),
    ("ramsey", _set("junk", 1.0), "junk"),
    # a bool is not a number
    ("model", _one_dimensional_with_dim_true, "model"),
    ("ramsey", _set("tau", True), "ramsey"),
    ("kernel", _set("tau", True), "tau"),
]


@pytest.mark.parametrize("reader, mutate, key", _MALFORMED,
                         ids=[f"{r}-{k}-{i}" for i, (r, _, k) in enumerate(_MALFORMED)])
def test_malformed_document_raises_naming_its_key(reader, mutate, key):
    read, doc = _READERS[reader]
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    with pytest.raises(ConfigParse) as info:
        read(doc)
    assert info.value.field == key


def _bits(*arrays):
    return [np.asarray(a, dtype=complex).view(np.int64).tolist() for a in arrays]


def _with_signed_zeros(rng, m):
    """``m`` with about a third of its real and imaginary parts set to 0.0 or
    -0.0 at random."""
    parts = [m.real.copy(), m.imag.copy()]
    for part in parts:
        zero = rng.random(part.shape) < 1 / 3
        part[zero] = np.where(rng.random(part.shape) < 0.5, 0.0, -0.0)[zero]
    out = parts[0].astype(complex)
    out.imag = parts[1]
    return out


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 5), n_ops=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       tau=st.floats(0.0, 2.0))
def test_documents_round_trip_every_bit(d, n_ops, seed, tau):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = a + a.conj().T
    h.imag[np.diag_indices(d)] = np.where(rng.random(d) < 0.5, 0.0, -0.0)
    ops = [_with_signed_zeros(rng, rng.standard_normal((d, d))
                              + 1j * rng.standard_normal((d, d))) for _ in range(n_ops)]
    model = LindbladModel(d, h, ops)
    back = LindbladModel.from_dict(json.loads(model.to_json()))
    assert back.dim == d
    assert _bits(back.hamiltonian, *back.lindblads) == _bits(h, *ops)

    gen = build_superoperator(model)
    kernel = kernel_from_generator(gen / max(1.0, np.abs(gen).sum(axis=0).max()), tau)
    back = Kernel.from_dict(json.loads(kernel.to_json()))
    assert (back.dim, back.tau) == (d, tau)
    assert _bits(back.matrix) == _bits(kernel.matrix)


_SIGNED = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])
_NONNEGATIVE = st.floats(0.0, 1e3) | st.sampled_from([0.0, -0.0])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(e_g=_SIGNED, gap=st.floats(1e-3, 1e3), u=st.tuples(_SIGNED, _SIGNED),
       omega=_SIGNED, times=st.tuples(*[_NONNEGATIVE] * 4),
       lam=st.tuples(_NONNEGATIVE, _SIGNED))
def test_ramsey_config_round_trips_every_bit(e_g, gap, u, omega, times, lam):
    cfg = RamseyConfig(e_g, e_g + gap, complex(*u), omega, *times, complex(*lam))
    doc = cfg.to_dict()
    back = RamseyConfig.from_dict(json.loads(json.dumps(doc))).to_dict()
    assert back.keys() == doc.keys()
    assert _bits(list(back.values())) == _bits(list(doc.values()))


# the names ``import lindkit`` binds: its submodules, and the types and
# functions the package exports
PUBLIC_NAMES = [
    "ChainSpectrum", "ChoiSpectrum", "DecayMatrix", "DensityMatrix",
    "GKSForm", "Kernel", "LindbladModel", "MeasurementModel", "PerturbationResult",
    "ProjectorBasis", "RamseyConfig", "ScanResult", "SuperopSpectrum",
    "bfr_derivative_check", "born_collapse", "born_limit_check", "build_superoperator",
    "channels", "choi_cp_test", "decay_matrix", "diagonal_solution",
    "entropy_rate", "entropy_rates", "errors", "evolve", "evolve_many", "evolve_stencil",
    "expm", "extract_generator", "first_order", "gaussian_fraction", "gellmann",
    "general_eig", "gks_build", "gks_project", "herm_eig", "kernel_from_generator",
    "lindblad", "matcore", "measurement_model", "perturb", "protocol", "pulse_closed_form",
    "quantum", "ramsey", "records", "scan", "spectrum", "vn_entropies", "vn_entropy",
]


def test_public_names_are_pinned():
    # a fresh interpreter, since importing ``lindkit.cli`` here binds ``cli``
    # too; a name added for tests alone shows up as a difference
    src = os.path.dirname(os.path.dirname(lindkit.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import lindkit; print('\\n'.join(sorted(n for n in dir(lindkit) if n[0] != '_')))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 50


def _names_used(path):
    """The names a Python file reads (variables, attributes, imported names
    and modules), each top-level function or class not counted as reading
    its own name."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rsplit(".", 1)[-1])
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def _program_files():
    """The package, the benchmark, the tools and the acceptance suite."""
    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "lindkit").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((root / "perfbench").glob("*.py")) + sorted((root / "tools").glob("*.py"))
    return files + [root / "tests" / "test_acceptance.py"]


def test_public_names_have_callers():
    # a name the package exports is used by the package itself, the
    # benchmark, a tool or the acceptance suite; one that only unit tests
    # call belongs in tests/oracles.py
    used = set().union(*map(_names_used, _program_files()))
    assert [name for name in PUBLIC_NAMES if name not in used] == []


def _attributes_read(path):
    """The attribute names a Python file reads, a read inside a function of
    the same name not counted."""
    reads = set()

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr not in inside):
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)
    visit(ast.parse(path.read_text()), frozenset())
    return reads


def test_public_methods_have_callers():
    """Every public method, property and classmethod defined in the body of
    a class that ``import lindkit`` binds is read as an attribute, by name, in
    a program file.  The test matches names, not types: a name that another
    class shares, such as ``dim`` or ``to_json``, passes on a read of either,
    so such a name wants a look of its own at who calls it."""
    read = set().union(*map(_attributes_read, _program_files()))
    unread = []
    for name in PUBLIC_NAMES:
        cls = getattr(lindkit, name)
        if not isinstance(cls, type):
            continue
        body = ast.parse(inspect.getsource(cls)).body[0].body
        unread += [f"{name}.{node.name}" for node in body
                   if isinstance(node, ast.FunctionDef) and node.name[0] != "_"
                   and node.name not in read]
    assert unread == []
