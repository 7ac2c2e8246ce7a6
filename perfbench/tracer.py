"""Per-layer tracing from the benchmark's side of each layer boundary.

The traced run replaces public functions of lindkit's submodules and the
numpy/scipy kernels beneath them with wrappers that record a span per call:
name, start, end, parent span and task id.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its span's duration
minus the part of that interval its child spans cover.

Every name is looked up when tracing starts; a name that no longer exists
(say after a refactor moves it) is reported as absent and the run goes on.
A wrapped function is also installed under every other name that binds the
same object in the scanned modules (``from .quantum import born_collapse``
in ``lindblad``, or ``svd`` inside numpy's own linalg module), so calls made
through those names are attributed too.  The ``lindkit`` package namespace
is not scanned: the benchmark calls through the submodules.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import time

# (layer, function, module, attribute, can fail, record sum of n^3)
TRACED = (
    ("kernel", "svd", "numpy.linalg", "svd", False, True),
    ("kernel", "eigvals", "numpy.linalg", "eigvals", False, True),
    ("kernel", "eigh", "numpy.linalg", "eigh", False, False),
    ("kernel", "expm", "scipy.linalg", "expm", False, False),
    ("kernel", "quad", "lindkit.ramsey", "quad", False, False),
    ("matcore", "general_eig", "lindkit.matcore", "general_eig", False, False),
    ("matcore", "expm", "lindkit.matcore", "expm", True, False),
    ("matcore", "herm_eig", "lindkit.matcore", "herm_eig", False, False),
    ("lindblad", "spectrum", "lindkit.lindblad", "spectrum", False, False),
    ("lindblad", "build_superoperator", "lindkit.lindblad", "build_superoperator", False, False),
    ("lindblad", "evolve", "lindkit.lindblad", "evolve", True, False),
    ("lindblad", "born_limit_check", "lindkit.lindblad", "born_limit_check", True, False),
    ("lindblad", "decay_matrix", "lindkit.lindblad", "decay_matrix", False, False),
    ("channels", "gks_project", "lindkit.channels", "gks_project", False, False),
    ("channels", "gks_build", "lindkit.channels", "gks_build", False, False),
    ("channels", "choi_cp_test", "lindkit.channels", "choi_cp_test", False, False),
    ("channels", "kernel_from_generator", "lindkit.channels", "kernel_from_generator", False, False),
    ("channels", "extract_generator", "lindkit.channels", "extract_generator", False, False),
    ("quantum", "vn_entropy", "lindkit.quantum", "vn_entropy", False, False),
    ("quantum", "entropy_rate", "lindkit.quantum", "entropy_rate", False, False),
    ("quantum", "born_collapse", "lindkit.quantum", "born_collapse", False, False),
    ("perturb", "first_order", "lindkit.perturb", "first_order", False, False),
    ("ramsey", "scan", "lindkit.ramsey", "scan", False, False),
    ("ramsey", "protocol", "lindkit.ramsey", "protocol", False, False),
    ("ramsey", "gaussian_fraction", "lindkit.ramsey", "gaussian_fraction", False, False),
    ("cli", "main", "lindkit.cli", "main", True, False),
    ("cli", "validate_config", "lindkit.cli", "validate_config", False, False),
)

ALIAS_MODULES = (
    "lindkit.matcore", "lindkit.perturb", "lindkit.quantum", "lindkit.channels",
    "lindkit.lindblad", "lindkit.ramsey", "lindkit.cli",
    "numpy.linalg", "numpy.linalg._linalg", "scipy.linalg",
)

# Span record layout: [name, start, end, parent index or -1, task id, failed, n^3]
NAME, START, END, PARENT, TASK, FAILED, N3 = range(7)


def metric_names(table=TRACED):
    """Per-layer metric names in a fixed order, with their units."""
    out = []
    for layer, func, _, _, can_fail, n3 in table:
        base = f"{layer}.{func}"
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
        if can_fail:
            out.append((f"{base}.failed", "count"))
        if n3:
            out.append((f"{base}.n3_sum", "count"))
    return out


def _n3(args, kwargs):
    """m * n * min(m, n) per matrix (n^3 when square), summed over a stack."""
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    return math.prod(shape[:-2]) * m * n * min(m, n)


class Tracer:
    """Records spans while ``task`` is set; wrappers pass straight through
    otherwise, so set-up and correctness checks are never attributed."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name, fn, n3=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.task is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.task, False, _n3(args, kwargs) if n3 else 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self, table=TRACED, alias_modules=ALIAS_MODULES):
        modules = []
        for mod_name in alias_modules:
            try:
                modules.append(importlib.import_module(mod_name))
            except ImportError:
                continue
        for layer, func, mod_name, attr, _, n3 in table:
            name = f"{layer}.{func}"
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, n3)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    @contextlib.contextmanager
    def installed(self, table=TRACED):
        self.install(table)
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "task": s[TASK],
                                     "failed": s[FAILED]}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s[END] - s[START]) - covered)
    return out


def layer_metrics(spans, table=TRACED) -> dict[str, float]:
    """calls, self_s, failed and n3_sum per traced name; zero when not called."""
    values = {name: 0.0 if unit == "s" else 0 for name, unit in metric_names(table)}
    for s, own in zip(spans, self_times(spans)):
        base = s[NAME]
        values[f"{base}.calls"] += 1
        values[f"{base}.self_s"] += own
        if s[FAILED] and f"{base}.failed" in values:
            values[f"{base}.failed"] += 1
        if f"{base}.n3_sum" in values:
            values[f"{base}.n3_sum"] += s[N3]
    return values
