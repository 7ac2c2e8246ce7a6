"""What a fresh process loads, and the harness that times fresh CLI calls.
scipy's import is most of a CLI call's start-up, so it is imported only
where it is used: the commands that neither exponentiate a dense matrix nor
take a truncated transit-time average load none of it."""
import json
import os
import subprocess
import sys
from pathlib import Path

import lindkit

SRC = Path(lindkit.__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
from lindkit import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

report = {"import": scipy_modules(), "codes": {}}
for command in ("ramsey-scan", "ramsey-point", "lindblad-spectrum", "born-check", "cp-check"):
    report["codes"][command] = run([command])
report["numpy-only"] = scipy_modules()
report["codes"]["truncated"] = run(["ramsey-scan", "--truncate-gaussian"])
report["codes"]["lindblad-evolve"] = run(["lindblad-evolve"])
report["after"] = scipy_modules()
print(json.dumps(report))
"""


def test_only_exponentials_and_truncated_averages_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, check=True)
    report = json.loads(proc.stdout)
    # cp-check's bundled kernel, the transpose map, is not CP: exit 3
    assert report["codes"] == {"ramsey-scan": 0, "ramsey-point": 0, "lindblad-spectrum": 0,
                               "born-check": 0, "cp-check": 3, "truncated": 0,
                               "lindblad-evolve": 0}
    assert report["import"] == [] and report["numpy-only"] == []
    assert {"scipy.special", "scipy.linalg"} <= set(report["after"])


def test_cli_wall_times_fresh_calls_of_each_checkout():
    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_wall.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--src", str(SRC), "--src", str(SRC), "--rounds", "1",
         "--command", "ramsey-point"], capture_output=True, text=True, check=True)
    settings, row = (json.loads(line) for line in proc.stdout.splitlines())
    assert settings["srcs"] == [str(SRC)] * 2 and settings["rounds"] == 1
    assert isinstance(settings["PYTHONDONTWRITEBYTECODE"], bool)
    assert row["command"] == "ramsey-point" and row["exit"] == 0
    for key in ("wall_median_s", "rss_median_mib"):
        assert len(row[key]) == 2 and all(x > 0 for x in row[key])
    for key in ("wall_quartiles_s", "rss_quartiles_mib"):
        assert all(lo <= hi for lo, hi in row[key])
    assert row["faster_than_first"] in ([0], [1])
    assert row["smaller_than_first"] in ([0], [1])
