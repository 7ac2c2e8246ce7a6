"""Tests of the benchmark's own machinery: seeded generation, the percentile
helper, the output checker and the tracer's self-time arithmetic."""
import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _fingerprint(tasks):
    """Bytes of everything a batch hands to the program."""
    parts = []
    for t in tasks:
        parts.append(repr((t.label, t.argv and [os.path.basename(a) for a in t.argv],
                           t.expected_code, t.tau)).encode())
        if t.model is not None:
            parts.append(t.model.hamiltonian.tobytes())
            parts += [op.tobytes() for op in t.model.lindblads]
            parts.append(t.perturbation.tobytes())
    return b"".join(parts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = workloads.build_batch(workload, 7, str(tmp_path / "a"))
    b = workloads.build_batch(workload, 7, str(tmp_path / "b"))
    c = workloads.build_batch(workload, 8, str(tmp_path / "c"))
    assert _fingerprint(a) == _fingerprint(b)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _fingerprint(a) != _fingerprint(c) or _files(tmp_path / "a") != _files(tmp_path / "c")


def test_bundled_rounds_draw_their_own_truncated_scans(tmp_path):
    a = workloads.build_batch("bundled", 7, str(tmp_path / "a"), round_index=0)
    b = workloads.build_batch("bundled", 7, str(tmp_path / "b"), round_index=1)
    assert [t.argv for t in a[:8]] == [t.argv for t in b[:8]]
    for ta, tb in zip(a[8:], b[8:]):
        assert ta.doc["grid"]["start"] != tb.doc["grid"]["start"]
    # every bundled command names its config itself
    assert all(t.argv[1] == "--config" for t in a)


def test_dynamics_long_horizon_share_is_fixed(tmp_path):
    tasks = workloads.build_batch("dynamics", 3, str(tmp_path))
    long = [t for t in tasks if t.long_horizon]
    assert len(long) == sum(1 for c, _ in workloads.DYNAMICS_MIX if c == "born-check")
    assert all(t.doc["horizon_over_gamma"] == workloads.LONG_HORIZON for t in long)


@pytest.mark.parametrize("n,q", [(11, 9), (20, 50), (40, 75), (44, 77), (48, 79), (56, 82),
                                 (100, 90), (200, 95), (1000, 99)])
def test_tail_percentile_has_ten_samples_beyond(n, q):
    values = list(np.random.default_rng(n).permutation(n) * 1.0)
    got_q, value, count = stats.tail_percentile(values)
    assert (got_q, count) == (q, n)
    assert sum(v > value for v in values) >= 10
    # one percentile higher would leave fewer than ten beyond
    _, idx = stats.nearest_rank(values, got_q + 1)
    assert n - 1 - idx < 10


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile([1.0] * 10)


def test_nearest_rank():
    assert stats.nearest_rank([3, 1, 2, 4], 50) == (2, 1)
    assert stats.nearest_rank([3, 1, 2, 4], 100) == (4, 3)


def _run_small(tmp_path, command):
    tasks = workloads.build_batch("dynamics", 1, str(tmp_path), warmup=True)
    task = next(t for t in tasks if t.argv[0] == command)
    out = workloads.run_task(task)
    assert workloads.failure(task, out) is None
    return task, out


def test_checker_flags_corrupted_evolve_output(tmp_path):
    task, out = _run_small(tmp_path, "lindblad-evolve")
    rec = checks.parse_strict(out.stdout)
    rec["result"]["states"][3]["re"][1] += 1e-6
    cat, why = checks.check_cli(task, json.dumps(rec))
    assert cat == "check" and "expm" in why


def test_checker_rejects_non_standard_json(tmp_path):
    task, out = _run_small(tmp_path, "born-check")
    bad = out.stdout.replace('"residual": ', '"residual": NaN, "x": ', 1)
    assert checks.check_cli(task, bad)[0] == "json"


def test_checker_flags_wrong_exit_code(tmp_path):
    task, out = _run_small(tmp_path, "born-check")
    out.code = 3
    assert workloads.failure(task, out)[0] == "exit"


def test_checker_flags_corrupted_entropy_rate(tmp_path):
    task, out = _run_small(tmp_path, "entropy-check")
    rec = checks.parse_strict(out.stdout)
    row = rec["result"]["rows"][7]
    row["rate"] += 1e-5
    row["central_difference"] += 1e-5  # consistent with itself, not with the flow
    cat, why = checks.check_cli(task, json.dumps(rec))
    assert cat == "check" and "rate" in why


def test_only_the_long_horizon_overflow_is_a_known_defect(tmp_path):
    tasks = workloads.build_batch("dynamics", 1, str(tmp_path))
    task = next(t for t in tasks if t.long_horizon)
    overflow = json.dumps({"error": {"type": "Overflow", "exit_code": 3}})
    out = workloads.Outcome(0.1, code=3, stderr=overflow)
    assert workloads.failure(task, out)[0] == "known"
    other = workloads.Outcome(0.1, code=3, stderr=overflow.replace("Overflow", "Singular"))
    assert workloads.failure(task, other)[0] == "exit"
    raised = workloads.Outcome(0.1, raised="RuntimeError: boom")
    assert workloads.failure(task, raised)[0] == "raised"
    normal = next(t for t in tasks if t.argv[0] == "born-check" and not t.long_horizon)
    assert workloads.failure(normal, out)[0] == "exit"


def test_checker_flags_corrupted_spectrum(tmp_path):
    task = workloads.build_batch("spectral", 1, str(tmp_path), warmup=True)[0]
    out = workloads.run_task(task)
    assert workloads.failure(task, out) is None
    out.output["spectrum"].mus[0] += 1e-3
    assert workloads.failure(task, out)[0] == "check"


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False, 0]


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("outer", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 4.0, 0),     # overlaps a: together they cover [1, 4]
        _span("c", 6.0, 7.0, 0),
        _span("leaf", 6.5, 6.75, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.75, 0.25])


def test_tracer_attributes_nested_calls_and_reports_absent_names():
    mod = types.ModuleType("perfbench_fake")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def broken():\n    raise ValueError('boom')\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    table = (
        ("fake", "outer", mod.__name__, "outer", False, False),
        ("fake", "inner", mod.__name__, "inner", False, False),
        ("fake", "broken", mod.__name__, "broken", True, False),
        ("fake", "gone", mod.__name__, "no_such_function", False, False),
    )
    tr = tracing.Tracer()
    try:
        tr.install(table, alias_modules=(mod.__name__,))
        assert mod.outer(1) == 4          # not recording outside a task
        tr.task = 0
        assert mod.outer(1) == 4
        with pytest.raises(ValueError):
            mod.broken()
        tr.task = None
    finally:
        tr.uninstall()
        del sys.modules[mod.__name__]
    assert tr.absent == ["fake.gone"]
    assert [s[tracing.NAME] for s in tr.spans] == ["fake.outer", "fake.inner", "fake.broken"]
    assert tr.spans[1][tracing.PARENT] == 0
    values = tracing.layer_metrics(tr.spans, table)
    assert values["fake.outer.calls"] == 1 and values["fake.inner.calls"] == 1
    assert values["fake.broken.failed"] == 1 and values["fake.gone.calls"] == 0
    assert mod.inner(1) == 2 and not hasattr(mod.inner, "__wrapped__")
