"""Time fresh command-line calls of lindkit checkouts, and take their peak
memory, subcommand by subcommand.

    python3 tools/cli_wall.py --src ../parent/src --src src [--rounds 11]
                              [--command ramsey-scan ...]
                              [--command "ramsey-scan --truncate-gaussian" ...]

Each ``--src`` directory holds a lindkit package.  Each call is a new
process, ``python -m lindkit.cli <command> [flags]`` on the command's bundled
default config, with PYTHONPATH set to one ``--src`` directory, BLAS pinned
to one thread and stdout and stderr sent to /dev/null: what a user pays per
shell call, interpreter start-up and imports included.  The wall time runs
from the spawn to the reaping of the child (``os.wait4``), and the peak
memory is the child's own maximum resident set size, from the same call.

Every (command, checkout) pair first runs once untimed, which also fills
the file cache, and must exit as it does in the first checkout.  Then each
round runs every command once per checkout; the checkouts take turns going
first from round to round, so rounds share the host's drift.  The tool
prints one JSON line with the run's settings, among them whether
PYTHONDONTWRITEBYTECODE is set and, per checkout after the untimed calls,
whether every lindkit module has its bytecode cached beside it: Python reads
cached bytecode even under that flag, and a checkout without it compiles
lindkit from source on every call, so two checkouts compare only when both
read the same.  Then it prints one JSON line per command: its exit code,
and as lists
in ``--src`` order each checkout's median and quartiles of the wall time
(s) and of the peak RSS (MiB), and, from the second checkout on, in how many
rounds it was faster, and smaller, than the first.
"""
import argparse
import glob
import importlib.util
import json
import os
import platform
import statistics
import sys
import time

COMMANDS = ("ramsey-scan", "ramsey-point", "lindblad-evolve", "lindblad-spectrum",
            "born-check", "cp-check", "entropy-check", "extract-generator")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def call(src: str, command: str):
    """(exit code, wall time in s, peak RSS in MiB) of one fresh
    ``python -m lindkit.cli command`` with lindkit taken from ``src``;
    ``command`` is a subcommand and its flags, split at whitespace."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
           **{var: "1" for var in BLAS_THREAD_VARS}}
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "lindkit.cli", *command.split()],
                         env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def _compiled(src: str) -> bool:
    """Whether every module of the lindkit package in ``src`` has bytecode
    cached for this interpreter, no older than its source."""
    sources = glob.glob(os.path.join(src, "lindkit", "*.py"))
    cached = [importlib.util.cache_from_source(path) for path in sources]
    return all(os.path.exists(pyc) and os.path.getmtime(pyc) >= os.path.getmtime(path)
               for path, pyc in zip(sources, cached))


def _command(text: str) -> str:
    """A ``--command`` value: a subcommand, then any flags it takes."""
    words = text.split()
    if not words or words[0] not in COMMANDS:
        raise argparse.ArgumentTypeError(
            f"{text!r} does not start with one of {', '.join(COMMANDS)}")
    return " ".join(words)


def _quartiles(xs):
    return statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else [xs[0], xs[0]]


def _wins(xs, first):
    """The rounds in which ``xs`` was below the first checkout's ``first``."""
    return sum(x < y for x, y in zip(xs, first))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True,
                    help="directory holding a lindkit package (repeat for each checkout)")
    ap.add_argument("--rounds", type=int, default=11, help="timed rounds (default 11)")
    ap.add_argument("--command", action="append", type=_command,
                    help="subcommand to time, with any flags in the same argument, "
                         "e.g. 'ramsey-scan --truncate-gaussian' (repeatable; "
                         "default the 8 subcommands without flags)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    commands = args.command or list(COMMANDS)
    srcs = args.src
    codes = {}
    for command in commands:
        for i, src in enumerate(srcs):
            codes[command, i] = call(src, command)[0]
            if codes[command, i] != codes[command, 0]:
                sys.exit(f"{command} exits {codes[command, i]} with {src}, "
                         f"{codes[command, 0]} with {srcs[0]}")
    print(json.dumps({
        "srcs": srcs, "rounds": args.rounds, "commands": commands,
        "python": platform.python_version(), "cpus": os.cpu_count(), "blas_threads": 1,
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "bytecode_cached": [_compiled(src) for src in srcs],
    }), flush=True)
    walls = {key: [] for key in codes}
    rss = {key: [] for key in codes}
    for r in range(args.rounds):
        turn = [(r + i) % len(srcs) for i in range(len(srcs))]
        for command in commands:
            for i in turn:
                code, wall, peak = call(srcs[i], command)
                if code != codes[command, i]:
                    sys.exit(f"{command} exited {code} with {srcs[i]}, "
                             f"{codes[command, i]} before")
                walls[command, i].append(wall)
                rss[command, i].append(peak)

    for command in commands:
        wall = [walls[command, i] for i in range(len(srcs))]
        peak = [rss[command, i] for i in range(len(srcs))]
        print(json.dumps({
            "command": command, "rounds": args.rounds, "exit": codes[command, 0],
            "wall_median_s": [statistics.median(xs) for xs in wall],
            "wall_quartiles_s": [_quartiles(xs) for xs in wall],
            "rss_median_mib": [statistics.median(xs) for xs in peak],
            "rss_quartiles_mib": [_quartiles(xs) for xs in peak],
            "faster_than_first": [_wins(xs, wall[0]) for xs in wall[1:]],
            "smaller_than_first": [_wins(xs, peak[0]) for xs in peak[1:]],
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
