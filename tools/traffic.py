"""Print the statement lines of lindkit that perfbench's workloads never run.

    python3 tools/traffic.py [--src src] [--seed 1] [--rounds 2]
                             [--workload spectral ...]

For each workload (all three unless ``--workload`` names some), the tool
builds ``--rounds`` of perfbench's seeded batches (``workloads.build_batch``,
config files in a temporary directory) and runs every task
(``workloads.run_task``) under ``sys.settrace``, noting each line of the
``--src`` lindkit package that runs.  The package is imported before the
trace starts, so its module-level statements are not counted.

Then, for each function of the package, methods and nested functions
included, it prints the statement lines of that function that no task ran:
one line per function, its qualified name, how many of its statements were
unrun, and their line numbers, with a function that never ran marked "never
called".  A statement counts as run when any of its own lines ran: a simple
statement's lines, or a compound statement's header, up to its first body
statement.  A ``try:`` line, which runs no code, and a docstring are not
counted.  The output names the code that the benchmark cannot see, such as a
path kept only for inputs that no command builds.
"""
import argparse
import ast
import collections
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spectral", "dynamics", "bundled")
_BODIES = ("body", "orelse", "finalbody")


def _own_lines(node) -> range:
    """The lines of ``node`` that are not its body's: its decorators and
    header for a compound statement, every line for a simple one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    inner = [b.lineno for f in (*_BODIES, "handlers") for b in getattr(node, f, [])]
    last = min(inner) - 1 if inner else node.end_lineno
    return range(first, max(first, last) + 1)


def statements(path: str) -> dict:
    """{qualified function name: {statement line: its own lines}} for the
    functions of the module at ``path``; a class's methods are named
    ``Class.method`` and a nested function ``outer.inner``."""
    found = {}

    def visit(body, function, prefix):
        for k, node in enumerate(body):
            docstring = (k == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if function is not None and not docstring and not isinstance(node, ast.Try):
                found[function][node.lineno] = _own_lines(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + node.name
                found[name] = {}
                visit(node.body, name, name + ".")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, function, prefix + node.name + ".")
            else:
                for field in _BODIES:
                    visit(getattr(node, field, []), function, prefix)
                for handler in getattr(node, "handlers", []):
                    if function is not None:
                        found[function][handler.lineno] = _own_lines(handler)
                    visit(handler.body, function, prefix)

    with open(path) as fh:
        visit(ast.parse(fh.read(), path).body, None, "")
    return found


def trace_workloads(names, seed: int, rounds: int, package: str) -> set:
    """The (file, line) pairs of ``package`` that the tasks of ``rounds``
    batches of each workload in ``names`` ran."""
    import workloads

    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def scope(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            for r in range(rounds):
                batch = workloads.build_batch(name, seed, os.path.join(workdir, f"{name}-{r}"),
                                              round_index=r)
                sys.settrace(scope)
                try:
                    for task in batch:
                        workloads.run_task(task)
                finally:
                    sys.settrace(None)
    return ran


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the lindkit package (default: this checkout's)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=2)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)

    package = os.path.join(os.path.realpath(args.src), "lindkit") + os.sep
    sys.path[:0] = [os.path.realpath(args.src), os.path.join(ROOT, "perfbench")]
    import lindkit
    if not os.path.realpath(lindkit.__file__).startswith(package):
        sys.exit(f"lindkit imported from {lindkit.__file__}, not from {package}")
    # every module a task may reach, imported before the trace starts
    from lindkit import channels, cli, lindblad, perturb  # noqa: F401

    names = args.workload or WORKLOADS
    ran = trace_workloads(names, args.seed, args.rounds, package)
    lines_by_file = collections.defaultdict(set)
    for path, line in ran:
        lines_by_file[path].add(line)
    print(f"workloads {', '.join(names)}; seed {args.seed}; {args.rounds} round(s) each")
    for module in sorted(os.listdir(package)):
        if not module.endswith(".py"):
            continue
        path = os.path.join(package, module)
        hit = lines_by_file[path]
        for function, stmts in statements(path).items():
            unrun = sorted(line for line, own in stmts.items() if hit.isdisjoint(own))
            if not unrun:
                continue
            called = len(unrun) < len(stmts)
            print(f"{module[:-3]}.{function}: {len(unrun)} of {len(stmts)} statements unrun"
                  f"{'' if called else ' (never called)'}: {' '.join(map(str, unrun))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
