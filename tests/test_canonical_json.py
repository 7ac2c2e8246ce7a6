"""canonical_json writes what json.dumps(sort_keys=True, indent=2,
allow_nan=False) writes, byte for byte, for the values records hold (dicts
with str keys, lists, tuples, scalars and Rows tables), fails where it fails
on those, and refuses every other value: json's ValueError for a NaN or
infinity, TypeError otherwise; every record the CLI emits is that form of
its own content; and a table of state matrices has the texts, and so the
bits, of their own entries, which the shortest-repr kernel writes as
float.__repr__ does."""
import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_density, random_lindblad_model
from lindkit import cli, lindblad, records
from oracles import canonical_json_dumps

_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
             0.1, 1e16, 1e-7, 123456789.123]
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EXTREMES))
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-(10**40), 10**40), st.sampled_from([2**63, -(2**63) - 1, 10**300]),
    _FLOATS, _FLOATS.map(np.float64),
    st.text(st.characters(exclude_categories=())),  # non-ASCII, controls, lone surrogates
    st.lists(_FLOATS), st.lists(_FLOATS.map(np.float64)).map(tuple),
)


def _dicts(values):
    return st.dictionaries(st.text(max_size=3), values, max_size=4)


_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               _dicts(children)),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(doc=_TREES)
def test_writes_what_json_dumps_writes(doc):
    assert cli.canonical_json(doc) == canonical_json_dumps(doc)


# keys whose texts a row table writes once: "%" (a format template's own
# escape), braces, quotes, non-ASCII, a lone surrogate and the empty key
_TABLE_KEYS = st.one_of(
    st.sampled_from(["", "%", "%%", "G%", "%s", "%(k)s", "{", "{}", '"', "\\", "\xe9",
                     "\ud800", "k"]),
    st.text(st.sampled_from(['%', '{', '}', '"', "\xe9", "\ud800", "s", "G"]), max_size=4),
    st.text(st.characters(exclude_categories=()), max_size=3),
)
_SCALAR_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**300]),
    _FLOATS, _FLOATS.map(np.float64),
    st.text(st.characters(exclude_categories=()), max_size=4),
)


@st.composite
def _row_tables(draw):
    """(a Rows, the list of dicts it stands for): 1-6 rows under 1-4 keys,
    each column of floats only or of any scalars, held as a list or a tuple;
    sometimes a column is added, removed or renamed, a row is repeated, one
    column object is held under two keys, or the table sits in a dict."""
    keys = draw(st.lists(_TABLE_KEYS, min_size=1, max_size=4, unique=True))
    columns = {key: draw(st.sampled_from([_FLOATS, _FLOATS.map(np.float64), _SCALAR_LEAVES]))
               for key in keys}
    rows = [{key: draw(values) for key, values in columns.items()}
            for _ in range(draw(st.integers(1, 6)))]
    row = draw(st.integers(0, len(rows) - 1))
    twist = draw(st.sampled_from(["none", "none", "none", "key added", "key removed",
                                  "key renamed", "repeated row", "shared column",
                                  "in a dict"]))
    if twist == "key added":
        added = draw(_TABLE_KEYS)
        for r in rows:
            r[added] = draw(_SCALAR_LEAVES)
    elif twist == "key removed":
        removed = draw(st.sampled_from(keys))
        for r in rows:
            del r[removed]
    elif twist == "key renamed":
        old, new = draw(st.sampled_from(keys)), draw(_TABLE_KEYS)
        for r in rows:
            r[new] = r.pop(old)
    elif twist == "repeated row":
        rows.insert(row, rows[-1])
    kind = tuple if draw(st.booleans()) else list
    columns = {key: kind(r[key] for r in rows) for key in rows[0]}
    if twist == "shared column":
        columns[draw(_TABLE_KEYS)] = columns[draw(st.sampled_from(list(columns)))]
    table = records.Rows(**columns)
    dicts = [dict(zip(columns, values)) for values in zip(*columns.values())]
    if twist == "in a dict":
        return {"rows": table, "n": len(dicts)}, {"rows": dicts, "n": len(dicts)}
    return table, dicts


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(pair=_row_tables())
def test_writes_row_tables_as_json_dumps_does(pair):
    doc, dicts = pair
    assert records.canonical_json(doc) == canonical_json_dumps(dicts)


@pytest.mark.parametrize("columns", [{}, {"a": [], "b": ()}, {"m": np.zeros((0, 2, 2)), "t": []}],
                         ids=["no columns", "no rows", "no rows with a matrix column"])
def test_an_empty_table_is_an_empty_list(columns):
    doc = {"modes": records.Rows(**columns)}
    assert records.canonical_json(doc) == canonical_json_dumps({"modes": []})


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="unequal"):
        records.Rows(t=[0.0, 1.0], rate=[0.5])


def test_a_column_held_twice_is_written_as_two_copies_formatted_once(monkeypatch):
    grid = [0.25 * k for k in range(-4, 5)]
    doc = {"standard": records.Rows(delta_omega=grid, pb_e=[x * x for x in grid]),
           "modified": records.Rows(delta_omega=grid, label=["x"] * len(grid)),
           "both": records.Rows(a=grid, b=grid)}
    copies = {"standard": [{"delta_omega": x, "pb_e": x * x} for x in grid],
              "modified": [{"delta_omega": x, "label": "x"} for x in grid],
              "both": [{"a": x, "b": x} for x in grid]}
    formatted, float_texts = [], records._float_texts

    def counting(items):
        formatted.append(id(items))
        return float_texts(items)

    monkeypatch.setattr(records, "_float_texts", counting)
    for _ in range(2):  # once in each call: nothing is kept from call to call
        formatted.clear()
        assert records.canonical_json(doc) == canonical_json_dumps(copies)
        assert formatted.count(id(grid)) == 1


_NAN, _INF = float("nan"), float("inf")
_FAILING = {
    "nan": _NAN,
    "inf in a float list": [1.0, 2.0, _INF],
    "-inf value": {"a": -_INF},
    "nan before a string": [_NAN, "x"],
    "numpy nan": [np.float64(_NAN)],
    "numpy int": [np.int64(3)],
    "numpy bool": {"a": np.bool_(True)},
    "set": {"a": {1, 2}},
    "set before nan": [{1}, _NAN],
    "complex": [1j],
    "mixed-type keys": {1: 0, "a": 0},
    "table nan in the third row": [{"t": 0.0}, {"t": 1.0}, {"t": _NAN}],
    "table inf after a string column": [{"class": "x", "mu": 1.0}, {"class": "y", "mu": _INF}],
    "table set value": [{"a": 1.0}, {"a": {1, 2}}],
    "table inf before a set in a column sorted first": [{"a": 1.0, "b": _INF},
                                                         {"a": {1}, "b": 1.0}],
}


@pytest.mark.parametrize("doc", _FAILING.values(), ids=_FAILING.keys())
def test_fails_where_json_dumps_fails(doc):
    with pytest.raises((TypeError, ValueError)) as expected:
        canonical_json_dumps(doc)
    with pytest.raises(expected.type) as got:
        cli.canonical_json(doc)
    assert str(got.value) == str(expected.value)


# the columns of a Rows, each with one fault, that canonical_json must
# refuse as json refuses its rows
_FAILING_ROWS = {
    "nan in the third row": {"t": [0.0, 1.0, _NAN]},
    "inf after a string column": {"class": ["x", "y"], "mu": [1.0, _INF]},
    "numpy nan": {"a": [np.float64(_NAN)]},
    "numpy int": {"a": [np.int64(3)]},
    "object": {"a": ["x", object()]},
    "set value": {"a": [1.0, {1, 2}]},
}


def _dict_rows(columns):
    # a matrix column's rows hold the row-major lists of its matrices
    columns = {key: [m.reshape(-1).tolist() for m in c]
               if isinstance(c, np.ndarray) and c.ndim == 3 else c
               for key, c in columns.items()}
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


_SHARED_GRID = [-0.5, -0.0, 0.0, 0.1, 1e16]
_SHARED_STACK = np.arange(20.0).reshape(5, 2, 2) - 7.5
# records of row tables at the row writer's edges, each one or two tables
_EDGE_TABLES = {
    "no columns": [{}],
    "columns of length 0": [{"a": [], "b": (), "m": np.zeros((0, 3, 3))}],
    "a single row": [{"t": [2.5], "re": np.eye(2)[None], "label": ["x"], "ok": [True]}],
    "a d = 1 matrix column": [{"im": np.array([[[0.0]], [[-0.0]], [[-3.5]], [[1e-300]]]),
                               "t": [0.0, 1.0, 2.0, 3.0]}],
    "a column shared by two tables": [
        {"delta_omega": _SHARED_GRID, "m": _SHARED_STACK, "pb_e": [0.25] * 5},
        {"m": _SHARED_STACK, "x": _SHARED_GRID, "y": _SHARED_GRID, "z": [None] * 5}],
}


@pytest.mark.parametrize("tables", _EDGE_TABLES.values(), ids=_EDGE_TABLES.keys())
def test_writes_edge_tables_as_json_dumps_does(tables):
    doc = {f"t{k}": records.Rows(**columns) for k, columns in enumerate(tables)}
    dicts = {f"t{k}": _dict_rows(columns) for k, columns in enumerate(tables)}
    for record, expected in ((doc, dicts), ([doc, 1], [dicts, 1])):
        assert records.canonical_json(record) == canonical_json_dumps(expected)


@pytest.mark.parametrize("columns", _FAILING_ROWS.values(), ids=_FAILING_ROWS.keys())
def test_a_table_fails_where_json_dumps_fails_on_its_rows(columns):
    with pytest.raises((TypeError, ValueError)) as expected:
        canonical_json_dumps({"rows": _dict_rows(columns)})
    with pytest.raises(expected.type) as got:
        records.canonical_json({"rows": records.Rows(**columns)})
    assert str(got.value) == str(expected.value)


# values that no record holds, each refused: a NaN or infinity with json's
# ValueError, a key that is not a str and any other value with TypeError.  A
# table formats its columns in key order, so where a table holds both, its
# first column at fault decides
_REFUSED = {
    "nan key": ({_NAN: 1}, TypeError),
    "tuple key": ({(1, 2): 0}, TypeError),
    "table inf before a set in a column sorted first": (
        {"rows": records.Rows(a=[1.0, {1}], b=[_INF, 1.0])}, TypeError),
    "table set before a nan in a column sorted first": (
        {"rows": records.Rows(a=[1.0, _NAN], b=[{1}, 1.0])}, ValueError),
    "nan in a matrix": ({"rows": records.Rows(
        m=np.array([[[1.0, 0.0], [0.0, 1.0]], [[1.0, _NAN], [_NAN, 1.0]]]))}, ValueError),
    "inf in a matrix after a string column": (
        {"rows": records.Rows(**{"class": ["x"], "m": np.full((1, 2, 2), _INF)})}, ValueError),
    "nan in a matrix before a set in a column sorted first": (
        {"rows": records.Rows(a=[1.0, {1}], m=np.array([[[_NAN]], [[1.0]]]))}, TypeError),
    "complex matrix": ({"rows": records.Rows(m=np.ones((1, 2, 2), dtype=complex))}, TypeError),
    "int matrix": ({"rows": records.Rows(m=np.arange(8).reshape(2, 2, 2))}, TypeError),
    "float32 matrix": (
        {"rows": records.Rows(m=np.full((2, 2, 2), 0.1, dtype=np.float32))}, TypeError),
    "matrix not square": (
        {"rows": records.Rows(m=np.arange(12.0).reshape(2, 2, 3), t=[0.0, 1.0])}, TypeError),
    "matrix of no entries": (
        {"rows": records.Rows(m=np.zeros((2, 0, 0)), t=[0.0, 1.0])}, TypeError),
}


@pytest.mark.parametrize("doc, error", _REFUSED.values(), ids=_REFUSED.keys())
def test_values_no_record_holds_are_refused(doc, error):
    with pytest.raises(error) as got:
        records.canonical_json(doc)
    if error is ValueError:
        assert str(got.value) in [f"Out of range float values are not JSON compliant: {x!r}"
                                  for x in (_NAN, _INF, -_INF)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv_from_record(command, record):
    """The CSV the command writes, rebuilt from the floats of its record."""
    result = record["result"]
    if command == "lindblad-spectrum":
        lines = ["re_mu,im_mu,class"] + [
            f"{m['re_mu']!r},{m['im_mu']!r},{m['class']}" for m in result["modes"]]
    elif command == "entropy-check":
        lines = ["t,rate,central_difference"] + [
            f"{r['t']!r},{r['rate']!r},{r['central_difference']!r}" for r in result["rows"]]
    else:  # the default ramsey-scan: both figure curves side by side
        std, mod = result["standard"]["rows"], result["modified"]["rows"]
        lines = ["delta_omega,pb_e_standard,pb_e_avg_standard,"
                 "pb_e_modified,pb_e_avg_modified"] + [
            f"{s['delta_omega']!r},{s['pb_e']!r},{s['pb_e_avg']!r},"
            f"{m['pb_e']!r},{m['pb_e_avg']!r}" for s, m in zip(std, mod)]
    return "\n".join(lines) + "\n"


def _generated_config(tmp_path, d):
    rng = np.random.default_rng(8)
    model = random_lindblad_model(rng, d)
    rho0 = random_density(rng, d, strictly_positive=True).matrix
    path = tmp_path / f"model-d{d}.json"
    path.write_text(json.dumps({
        "model": json.loads(model.to_json()),
        "rho0": {"re": rho0.real.reshape(-1).tolist(), "im": rho0.imag.reshape(-1).tolist()},
        "times": np.linspace(0.05, 2.0, 50).tolist(),
    }))
    return str(path)


def test_every_record_is_the_json_dumps_form_of_its_content(tmp_path):
    runs = [[command] for command in cli._COMMANDS]
    runs += [["lindblad-evolve", "--config", _generated_config(tmp_path, 8)],
             ["entropy-check", "--config", _generated_config(tmp_path, 8)],
             ["born-check", "--config", "fig1"]]  # an error record on stderr
    for argv in runs:
        code, out, err = _run(argv)
        record = out or err
        assert code in (0, 2, 3) and record, argv
        assert record == canonical_json_dumps(json.loads(record)), argv
        if argv[0] in ("ramsey-scan", "lindblad-spectrum", "entropy-check") and out:
            code_csv, csv, _ = _run(argv + ["--format", "csv"])
            assert code_csv == code
            assert csv == _csv_from_record(argv[0], json.loads(out)), argv


@st.composite
def _part_stacks(draw):
    """(re, im) of an (n, d, d) stack, with fewer or more entries than the
    kernel takes: exactly Hermitian, real (im all +0.0), Hermitian but for
    one entry off by one unit in the last place or by the sign of a zero (as
    a repaired state can be), or unstructured; its entries drawn from
    _FLOATS, or seeded normal draws scaled by powers of ten."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        re, im = (draw(arrays(np.float64, (n, d, d), elements=_FLOATS)) for _ in range(2))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        re, im = rng.standard_normal((2, n, d, d)) * 10.0 ** rng.integers(-30, 30, (2, n, d, d))
    kind = draw(st.sampled_from(["hermitian", "real", "nudged", "general"]))
    if kind != "general":
        rows, cols = np.triu_indices(d, 1)
        re[:, cols, rows] = re[:, rows, cols]
        im[:, cols, rows] = -im[:, rows, cols]
    if kind == "real":
        im[:] = 0.0
    if kind == "nudged" and d > 1:
        part = draw(st.sampled_from([re, im]))
        k, i = draw(st.integers(0, n - 1)), draw(st.integers(1, d - 1))
        j = draw(st.integers(0, i - 1))
        x = part[k, i, j]
        part[k, i, j] = np.nextafter(x, 0.0) if x != 0.0 else -x
    return re, im


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stack=_part_stacks())
def test_state_arrays_write_every_entry_as_its_repr(stack):
    # a table of matrix columns is written as the row dicts of their
    # row-major lists, on either side of the kernel's crossover
    re, im = stack
    columns = {"re": re, "im": im}
    rows = [{key: part[k].reshape(-1).tolist() for key, part in columns.items()}
            for k in range(len(re))]
    assert records.canonical_json({"states": records.Rows(**columns)}) == canonical_json_dumps(
        {"states": rows})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(keys=st.lists(_TABLE_KEYS, min_size=3, max_size=3, unique=True), stack=_part_stacks(),
       values=st.lists(_SCALAR_LEAVES, min_size=4, max_size=4))
def test_writes_matrix_columns_among_scalar_columns_as_json_dumps_does(keys, stack, values):
    # keys that the row writer must escape, sorted before, between and after
    # the matrix columns, written by the kernel or by float.__repr__
    re, im = stack
    column = [values[k % len(values)] for k in range(len(re))]
    columns = dict(zip(keys, (re, column, im)))
    assert records.canonical_json([records.Rows(**columns)]) == canonical_json_dumps(
        [_dict_rows(columns)])


def _kernel_texts(x):
    """The kernel's texts of the float vector x, and the mask of its
    entries that float.__repr__ wrote."""
    x = np.asarray(x, dtype=float)
    [text], slow = records._repr_texts(x, np.full(x.size, ord(";"), np.uint8), [0, x.size])
    return text.decode().split(";")[:-1], slow


def _assert_reprs(x):
    texts, _ = _kernel_texts(x)
    assert texts == [float.__repr__(v) for v in np.asarray(x, dtype=float).tolist()]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bits=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
def test_kernel_writes_any_finite_double_as_its_repr(bits):
    x = np.array(bits, dtype=np.int64).view(np.float64)
    _assert_reprs(x[np.isfinite(x)])


def _neighbours(values):
    """values and the finite doubles next to each."""
    x = np.array(values)
    with np.errstate(over="ignore"):
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return x[np.isfinite(x)]


_KERNEL_SETS = {
    "zeros and subnormals": [0.0, -0.0, 5e-324, -5e-324, 1e-310,
                             *_neighbours([2.2250738585072014e-308])],
    "the largest double": _neighbours([1.7976931348623157e308, -1.7976931348623157e308]),
    "powers of 2": _neighbours([2.0**k for k in range(-1074, 1024)]),
    "powers of 10": _neighbours([10.0**k for k in range(-323, 309)]),
    "integers": np.concatenate([np.arange(-2000.0, 2000.0),
                                np.random.default_rng(0).integers(0, 2**53, 4000).astype(float),
                                _neighbours([2.0**53])]),
    "thousandths": np.arange(-4000, 4000) / 1000,
    "layout edges": _neighbours([1e16, 9999999999999998.0, 0.0001, 1e-05, 1e-04 - 1e-20]),
    # y = 10000000000000002.5: a tie, read by float.__repr__
    "ties": [1000000000000000.25, 1000000000000000.75, -9007199254740994.0],
}


@pytest.mark.parametrize("values", _KERNEL_SETS.values(), ids=_KERNEL_SETS.keys())
def test_kernel_writes_edge_values_as_their_reprs(values):
    _assert_reprs(values)


def test_power_table_is_ten_to_the_k_correctly_rounded():
    # hi is 10^k rounded to nearest and lo the rest rounded, as a table built
    # with exact fractions has them; big + small split hi exactly
    (hi, lo, big, small), *_ = records._repr_tables()
    for k, h, l in zip(range(records._KMIN, records._KMAX + 1), hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** k
        assert (h, l) == (float(exact), float(exact - Fraction(h)))
    assert np.array_equal(big + small, hi)


def test_kernel_writes_nearly_every_normal_draw_itself():
    # the property above cannot pass on float.__repr__ alone
    x = np.random.default_rng(1).standard_normal(10**4)
    texts, slow = _kernel_texts(x)
    assert texts == [float.__repr__(v) for v in x.tolist()]
    assert slow.mean() <= 0.01


def _real_model_config(tmp_path, d):
    rng = np.random.default_rng(5)
    h, l1, l2, w = (rng.standard_normal((d, d)) for _ in range(4))
    rho0 = w @ w.T + 0.2 * np.eye(d)
    rho0 /= np.trace(rho0)
    path = tmp_path / f"real-d{d}.json"
    path.write_text(json.dumps({
        "model": json.loads(lindblad.LindbladModel(d, h + h.T, [l1, l2]).to_json()),
        "rho0": {"re": rho0.reshape(-1).tolist(), "im": [0.0] * (d * d)},
        "times": [0.0, 0.05, 0.4, 2.0, 1e4],
    }))
    return str(path)


@pytest.mark.parametrize("config", [_real_model_config, _generated_config],
                         ids=["real-model", "complex-model"])
def test_evolve_record_holds_the_bits_of_the_states(tmp_path, config):
    path = config(tmp_path, 5)
    code, out, _ = _run(["lindblad-evolve", "--config", path])
    assert code == 0
    model, rho0, times, _, _ = cli._parse_model(json.loads(open(path).read()))
    states = json.loads(out)["result"]["states"]
    rhos = lindblad.evolve_many(model, rho0, times)
    assert len(states) == len(rhos)
    for state, rho in zip(states, rhos):
        for key, part in (("re", rho.matrix.real), ("im", rho.matrix.imag)):
            np.testing.assert_array_equal(np.array(state[key]).view(np.int64),
                                          part.reshape(-1).view(np.int64))
