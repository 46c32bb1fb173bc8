"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions at the module boundaries
where they are looked up (``randmat.sample``, ``learner.solve_min_norm_ineq``,
...) and the thread pools of the modules that run trials in parallel.  Each
wrapped call becomes a span (name, start, end, parent, thread id) kept in
memory until the run ends; work counters are computed in the wrappers from
call arguments and return values only, so the package needs no hooks.

A span's layer is its name up to the first dot.  A layer's self time is the
duration of its spans minus the part covered by their children on the same
thread, so busy time summed over threads can exceed wall time.  A pool task
span takes the span that created the pool as its parent; any other span that
opens on a thread with no open span takes the workload's current top-level
call as its parent.  Time the creating thread spends waiting on its pool is a
``*.pool_wait`` span, which counts as waiting, not as busy time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Unit-ball feasibility threshold the package's callers apply to min-norm solves.
UNIT_BALL_TOL = 1e-8


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def waiting(self) -> bool:
        return self.name.endswith(".pool_wait")


class Recorder:
    """Keeps spans and counters in memory; safe to use from pool threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.top: int | None = None  # the workload's current top-level call
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else self.top

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counters[name] += n

    def add(self, name: str, start: float, end: float, parent, thread: int,
            sid: int | None = None) -> None:
        with self._lock:
            if sid is None:
                sid = next(self._ids)
            self.spans.append(Span(sid, name, start, end, parent, thread))

    def run(self, name: str, fn, args=(), kwargs=None, parent=None, top=False):
        """Call fn inside a span; top-level calls become the parent of orphan spans."""
        kwargs = kwargs or {}
        stack = self._stack()
        if parent is None:
            parent = self.current()
        with self._lock:
            sid = next(self._ids)
        if top:
            self.top = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, parent, threading.get_ident(), sid)
            if top:
                self.top = None

    def new_iteration(self) -> tuple[list, Counter]:
        """Start fresh span and counter stores; the old ones stay with the caller."""
        with self._lock:
            old = self.spans, self.counters
            self.spans, self.counters = [], Counter()
        return old


# ---------------------------------------------------------------- counters

def _count_sample(rec, a, result):
    rec.count("dist.points", int(a["m"]))
    rec.count("dist.coords", int(a["m"]) * int(a["spec"].d))


def _count_trials(rec, a, result):
    rec.count("randmat.trials", int(a["trials"]))


def _count_solve(rec, a, result):
    rec.count("optim.solves")
    if result.status == "optimal" and result.objective <= 1.0 + UNIT_BALL_TOL:
        rec.count("optim.feasible")


def _count_pattern_solve(rec, a, result):
    _count_solve(rec, a, result)
    rec.count("learner.patterns_tried")


def _count_erm(rec, a, result):
    if a["mode"] == "heuristic":
        rec.count("learner.heuristic_fits")


def _count_lstar(rec, a, result):
    if result is not None:
        rec.count("learner.lstar_draws", int(a["draws"]))


def _count_shatter(rec, a, result):
    if result.worst_labeling is not None:  # the call enumerated sign vectors
        rec.count("shatter.labelings", 1 << (len(result.worst_labeling) - 1))


def _count_limit_cert(rec, a, result):
    rec.count("spectral.calls")


def _erm_name(a) -> str:
    return "learner.heuristic" if a["mode"] == "heuristic" else "learner.exact"


# Span name (or a function of the bound arguments giving it) and counter for
# each public function, keyed by the function's name in its defining module.
FUNCTIONS = {
    "sample": ("dist.sample", _count_sample),
    "edge_mc_compare": ("randmat.edge_mc_compare", _count_trials),
    "m_underline": ("randmat.m_underline", _count_trials),
    "estimate_shatter_prob": ("randmat.estimate_shatter_prob", _count_trials),
    "solve_min_norm_ineq": ("optim.solve_min_norm_ineq", _count_solve),
    "margin_error_minimize": (_erm_name, _count_erm),
    "estimate_lstar": ("learner.estimate_lstar", _count_lstar),
    "learning_curve": ("learner.learning_curve", None),
    "shatter_at_origin": ("shatter.shatter_at_origin", _count_shatter),
    "fat_shattering_search": ("shatter.fat_shattering_search", None),
    "fat_shattering_upper_bound": ("shatter.fat_shattering_upper_bound", None),
    "set_limit_certificate": ("spectral.set_limit_certificate", _count_limit_cert),
    "run": ("cli.run", None),
}

# (module, attribute) import sites wrapped in the traced run.  A module's own
# namespace is listed where the module calls its public function internally.
SITES = [
    ("randmat", "sample"),
    ("learner", "sample"),
    ("cli", "edge_mc_compare"),
    ("cli", "m_underline"),
    ("cli", "estimate_shatter_prob"),
    ("learner", "solve_min_norm_ineq"),
    ("shatter", "solve_min_norm_ineq"),
    ("learner", "margin_error_minimize"),
    ("learner", "estimate_lstar"),
    ("cli", "learning_curve"),
    ("learner", "shatter_at_origin"),
    ("cli", "shatter_at_origin"),
    ("shatter", "shatter_at_origin"),
    ("cli", "fat_shattering_search"),
    ("shatter", "fat_shattering_upper_bound"),
    ("shatter", "set_limit_certificate"),
    ("cli", "set_limit_certificate"),
]

# Modules whose trial pools are wrapped so pool-thread work has a parent span.
POOLS = ["randmat", "learner"]

# Counters a site feeds beyond the function's own (the learner's min-norm
# solves are the exact ERM's tried patterns).
SITE_COUNTERS = {("learner", "solve_min_norm_ineq"): _count_pattern_solve}

PACKAGE = "margin_spectra"


def _original(fn):
    return getattr(fn, "_perfbench_original", fn)


class Tracer:
    """Installs and removes the wrappers; the benchmark's own top-level calls
    go through `call` so they are spans too."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved: list = []
        self.missing: list[str] = []

    def _wrap(self, fn, counter, top=False):
        name, _ = FUNCTIONS[fn.__name__]
        rec = self.rec
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = None
            if counter is not None or callable(name):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
            result = rec.run(name(a) if callable(name) else name, fn, args, kwargs,
                             top=top)
            if counter is not None:
                counter(rec, a, result)
            return result

        wrapper._perfbench_original = fn
        return wrapper

    def _target(self, mod_name: str, attr: str):
        """(module, original object) of a wrap target, or None if not found."""
        try:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            mod = None
        obj = _original(getattr(mod, attr, None))
        if obj is None or (attr != "ThreadPoolExecutor"
                           and getattr(obj, "__name__", None) not in FUNCTIONS):
            self.missing.append(f"{mod_name}.{attr}")
            return None
        return mod, obj

    def install(self) -> None:
        self.missing = []
        for mod_name, attr in SITES:
            found = self._target(mod_name, attr)
            if found is None:
                continue
            mod, fn = found
            counter = SITE_COUNTERS.get((mod_name, attr), FUNCTIONS[fn.__name__][1])
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, counter))
        for mod_name in POOLS:
            found = self._target(mod_name, "ThreadPoolExecutor")
            if found is None:
                continue
            mod, base = found
            self._saved.append((mod, "ThreadPoolExecutor", base))
            setattr(mod, "ThreadPoolExecutor", self._pool(base, mod_name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def _pool(self, base, layer: str):
        rec = self.rec

        class TracedPool(base):
            _perfbench_original = base

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._parent = rec.current()
                self._creator = threading.get_ident()
                self._t0 = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(rec.run, f"{layer}.task", fn, args, kwargs,
                                      parent=self._parent)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait=wait, **kwargs)
                if wait:
                    rec.add(f"{layer}.pool_wait", self._t0, time.perf_counter(),
                            self._parent, self._creator)

        return TracedPool

    def call(self, fn, *args, **kwargs):
        """One top-level call of the workload, as a span with counters."""
        fn = _original(fn)
        wrapper = self._wrap(fn, FUNCTIONS[fn.__name__][1], top=True)
        return wrapper(*args, **kwargs)


# ------------------------------------------------------------ per-layer view

_SAMPLE = ["randmat.sample", "learner.sample"]
_SOLVE = ["learner.solve_min_norm_ineq", "shatter.solve_min_norm_ineq"]

# Per-layer metrics: name -> (unit, wrap targets without which it is wrong).
LAYER_METRICS = {
    "dist.busy_s": ("s", _SAMPLE),
    "dist.points": ("count", _SAMPLE),
    "dist.coords": ("count", _SAMPLE),
    "dist.ns_per_coord": ("ns", _SAMPLE),
    "randmat.self_s": ("s", ["randmat.sample", "randmat.ThreadPoolExecutor"]),
    "randmat.trials": ("count", []),
    "learner.heuristic_s": ("s", ["learner.margin_error_minimize"]),
    "learner.heuristic_fits": ("count", ["learner.margin_error_minimize"]),
    "learner.lstar_s": ("s", ["learner.estimate_lstar"]),
    "learner.lstar_draws": ("count", ["learner.estimate_lstar"]),
    "learner.exact_self_s": ("s", ["learner.solve_min_norm_ineq"]),
    "learner.patterns_tried": ("count", ["learner.solve_min_norm_ineq"]),
    "optim.busy_s": ("s", _SOLVE),
    "optim.solves": ("count", _SOLVE),
    "optim.feasible_frac": ("fraction", _SOLVE),
    "shatter.busy_s": ("s", ["shatter.shatter_at_origin", "shatter.set_limit_certificate"]),
    "shatter.labelings": ("count", ["shatter.shatter_at_origin"]),
    "spectral.busy_s": ("s", ["shatter.set_limit_certificate"]),
    "spectral.calls": ("count", ["shatter.set_limit_certificate"]),
    "cli.self_s": ("s", ["cli.learning_curve"]),
    "trace.overhead_s": ("s", []),
}

COUNT_METRICS = [k for k, (unit, _) in LAYER_METRICS.items() if unit == "count"]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the children that ran on the same thread."""
    own = {s.id: s.end - s.start for s in spans}
    by_id = {s.id: s for s in spans}
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            own[p.id] -= s.end - s.start
    return own


def layer_values(spans: list[Span], c: Counter) -> dict:
    """Per-layer times and counts of one traced iteration."""
    own = self_times(spans)
    busy = defaultdict(float)
    for s in spans:
        if not s.waiting:
            busy[s.layer] += own[s.id]

    def total(name):
        return sum((s.end - s.start for s in spans if s.name == name), 0.0)

    coords = c["dist.coords"]
    solves = c["optim.solves"]
    values = {
        "dist.busy_s": busy["dist"],
        "randmat.self_s": busy["randmat"],
        "learner.heuristic_s": total("learner.heuristic"),
        "learner.lstar_s": total("learner.estimate_lstar"),
        "learner.exact_self_s": sum((own[s.id] for s in spans if s.name == "learner.exact"),
                                    0.0),
        "optim.busy_s": busy["optim"],
        "shatter.busy_s": busy["shatter"],
        "spectral.busy_s": busy["spectral"],
        "cli.self_s": busy["cli"],
        "dist.ns_per_coord": 1e9 * busy["dist"] / coords if coords else 0.0,
        "optim.feasible_frac": c["optim.feasible"] / solves if solves else 0.0,
    }
    for name in COUNT_METRICS:
        values[name] = int(c[name])
    return values


def unmeasured(missing: list[str]) -> dict[str, str]:
    """Per-layer metrics that a missing wrap target makes wrong, with the reason."""
    out = {}
    for name, (_, sites) in LAYER_METRICS.items():
        lost = [s for s in sites if s in missing]
        if lost:
            out[name] = "wrap targets not found: " + ", ".join(lost)
    return out
