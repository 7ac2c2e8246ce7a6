"""What a fresh process loads, and the harness that times fresh CLI calls.
scipy's import is most of a CLI call's start-up, so it is imported only
where it is used: a command loads scipy.linalg only when it exponentiates a
matrix with a nonzero off-diagonal entry, and no command loads
scipy.special."""
import json
import os
import subprocess
import sys
from pathlib import Path

import lindkit
from lindkit import cli

SRC = Path(lindkit.__file__).resolve().parent.parent

# the modules ``import lindkit`` adds to those ``import numpy`` loads, as
# taken with Python 3.11.7 and numpy 2.4.6
IMPORTED = {
    "__future__", "_json", "copy", "dataclasses", "json", "json.decoder", "json.encoder",
    "json.scanner", "lindkit", "lindkit.channels", "lindkit.errors", "lindkit.gellmann",
    "lindkit.lindblad", "lindkit.matcore", "lindkit.perturb", "lindkit.quantum",
    "lindkit.ramsey", "lindkit.records",
}

# runs each command line among its arguments in turn, in-process, and
# reports the scipy and numpy.fft modules loaded after the import and after
# each command
CHILD = """
import contextlib, io, json, sys
from lindkit import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)

def optional_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy" or name.startswith("numpy.fft"))

report = {"import": optional_modules(), "runs": []}
for line in sys.argv[1:]:
    report["runs"].append([line, run(line.split()), optional_modules()])
print(json.dumps(report))
"""


def _child(*command_lines):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD, *command_lines], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_new_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; before = set(sys.modules); import lindkit; "
         "print('\\n'.join(sorted(set(sys.modules) - before)))"],
        env=env, capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert added <= IMPORTED, sorted(added - IMPORTED)
    assert "numpy.fft" not in added and not any(name.startswith("scipy") for name in added)


def test_only_exponentials_load_scipy_and_none_loads_scipy_special():
    # cp-check's bundled kernel, the transpose map, is not CP: exit 3
    numpy_only = _child("ramsey-scan", "ramsey-point", "lindblad-spectrum", "born-check",
                        "cp-check", "ramsey-scan --truncate-gaussian",
                        "ramsey-point --truncate-gaussian")
    assert numpy_only["import"] == []
    assert [(line, code) for line, code, _ in numpy_only["runs"]] == [
        ("ramsey-scan", 0), ("ramsey-point", 0), ("lindblad-spectrum", 0), ("born-check", 0),
        ("cp-check", 3), ("ramsey-scan --truncate-gaussian", 0),
        ("ramsey-point --truncate-gaussian", 0)]
    assert all(loaded == [] for _, _, loaded in numpy_only["runs"])
    for command in ("lindblad-evolve", "entropy-check", "extract-generator"):
        [(line, code, loaded)] = _child(command)["runs"]
        assert code == 0
        # scipy.linalg loads numpy.fft itself
        assert "scipy.linalg" in loaded and "scipy.special" not in loaded


def test_diagonal_exponentials_load_no_scipy(tmp_path):
    # the pure-dephasing qubit (H = 0, L = sqrt(0.3) sigma_z) and a measurement
    # model in the computational basis: every exponential their commands take
    # is of a diagonal matrix, which matcore.expm takes entrywise
    dephasing = json.loads(cli.bundled_config_path("model-qubit").read_text())
    root = 0.3**0.5
    dephasing["model"] = {"schema": "lindkit.model/1", "dim": 2, "h_re": [0.0] * 4,
                          "h_im": [0.0] * 4,
                          "lindblads": [{"re": [root, 0.0, 0.0, -root], "im": [0.0] * 4}]}
    measurement = {"model": {"schema": "lindkit.model/1", "dim": 3,
                             "h_re": [0.3, 0, 0, 0, -0.2, 0, 0, 0, 0.5], "h_im": [0.0] * 9,
                             "lindblads": [{"re": [1.0, 0, 0, 0, 0, 0, 0, 0, -0.7],
                                            "im": [0, 0, 0, 0, 0.5, 0, 0, 0, 0]}]},
                   "h": 1e-3, "scheme": "central"}
    lines = []
    for command, doc in (("lindblad-evolve", dephasing), ("entropy-check", dephasing),
                         ("extract-generator", measurement)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        lines.append(f"{command} --config {path}")
    report = _child(*lines)
    assert report["import"] == []
    assert [(code, loaded) for _, code, loaded in report["runs"]] == [(0, [])] * 3


def test_cli_wall_times_fresh_calls_of_each_checkout():
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_wall.py"
    commands = ["ramsey-point", "ramsey-point  --truncate-gaussian"]
    proc = subprocess.run(
        [sys.executable, str(tool), "--src", str(SRC), "--src", str(SRC), "--rounds", "1",
         *(arg for command in commands for arg in ("--command", command))],
        capture_output=True, text=True, check=True)
    settings, *rows = (json.loads(line) for line in proc.stdout.splitlines())
    assert settings["srcs"] == [str(SRC)] * 2 and settings["rounds"] == 1
    assert settings["commands"] == ["ramsey-point", "ramsey-point --truncate-gaussian"]
    assert isinstance(settings["PYTHONDONTWRITEBYTECODE"], bool)
    assert settings["bytecode_cached"] in ([True, True], [False, False])  # one tree twice
    assert [row["command"] for row in rows] == settings["commands"]
    for row in rows:
        assert row["exit"] == 0
        for key in ("wall_median_s", "rss_median_mib"):
            assert len(row[key]) == 2 and all(x > 0 for x in row[key])
        for key in ("wall_quartiles_s", "rss_quartiles_mib"):
            assert all(lo <= hi for lo, hi in row[key])
        assert row["faster_than_first"] in ([0], [1])
        assert row["smaller_than_first"] in ([0], [1])


def test_cli_wall_takes_only_subcommands_with_their_flags():
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_wall.py"
    for bad in ("--truncate-gaussian", "ramsey", ""):
        proc = subprocess.run([sys.executable, str(tool), "--src", str(SRC), f"--command={bad}"],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and "does not start with one of" in proc.stderr
