"""canonical_json writes what json.dumps(sort_keys=True, indent=2,
allow_nan=False) writes, byte for byte, and fails where it fails; and every
record the CLI emits is that form of its own content."""
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_lindblad_model
from lindkit import cli
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
    # json sorts the items, so the keys of one dict share one type
    return st.one_of(st.dictionaries(key, values, max_size=4) for key in (
        st.text(max_size=3), st.integers(), _FLOATS, st.booleans(), st.none()))


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


def _circular_list():
    a = [1.0, "x"]
    a.append(a)
    return a


def _circular_dict():
    a = {"k": [1]}
    a["k"].append(a)
    return a


_NAN, _INF = float("nan"), float("inf")
_FAILING = {
    "nan": _NAN,
    "inf in a float list": [1.0, 2.0, _INF],
    "-inf value": {"a": -_INF},
    "nan before a string": [_NAN, "x"],
    "numpy nan": [np.float64(_NAN)],
    "nan key": {_NAN: 1},
    "numpy int": [np.int64(3)],
    "numpy bool": {"a": np.bool_(True)},
    "set": {"a": {1, 2}},
    "set before nan": [{1}, _NAN],
    "complex": [1j],
    "circular list": _circular_list(),
    "circular dict": _circular_dict(),
    "mixed-type keys": {1: 0, "a": 0},
    "tuple key": {(1, 2): 0},
}


@pytest.mark.parametrize("doc", _FAILING.values(), ids=_FAILING.keys())
def test_fails_where_json_dumps_fails(doc):
    with pytest.raises((TypeError, ValueError)) as expected:
        canonical_json_dumps(doc)
    with pytest.raises(expected.type) as got:
        cli.canonical_json(doc)
    assert str(got.value) == str(expected.value)


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
