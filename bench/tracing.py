"""Span tracing installed around the qsdbounds layers at run time.

No file of the package changes: `Installation` replaces each public function of
the eight layer modules, in every ``qsdbounds`` module namespace that binds
it, with a wrapper that records a span (name, start, end, parent, request id,
thread).  The modules import each other with ``from .x import y``, so patching
only the defining module would miss cross-layer calls such as
``exact_oracles.positive_part_trace`` or ``cli.beta_eps_exact``.

Spans live in memory until `write_spans` writes them once at the end of a
run.  Each thread keeps its own span stack, because the CLI runs n-sweeps on
a ``ThreadPoolExecutor``; a span opened on a worker thread with an empty stack
takes as parent the innermost open span of the thread that started the
request.  Self time is a span's duration minus the union of its children's
intervals, so children overlapping on two threads are not subtracted twice.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "qsdbounds"
LAYERS = (
    "cli",
    "linalg",
    "divergences",
    "_search",
    "ns_mapping",
    "exact_oracles",
    "finite_bounds",
    "classical_binary",
)

# Counted, not spanned: several hundred thousand calls per run, and only their
# counts are reported.  Their time stays in the caller's self time.
COUNT_ONLY = {"divergences.psi", "divergences.psi_prime"}

# Left unwrapped: kron's only caller is tensor_power, whose self time should
# hold the product it builds; a generator function returns before any work.
UNWRAPPED = {"linalg.kron"}

# trace_norm and positive_part_trace are one layer metric, tagged by dimension.
SPECTRUM = {"linalg.trace_norm", "linalg.positive_part_trace"}

SEARCHES = {"_search.golden_max", "_search.grid_golden_max", "_search.bisect_decreasing"}
SEARCH_MAX_ITER = 400  # _search._MAX_ITER at the time the benchmark was defined

TYPE_ENUMERATORS = {"ns_mapping.classical_exact_errors_log", "exact_oracles.classical_beta_eps_exact"}


class Span:
    __slots__ = ("id", "name", "parent", "request", "thread", "start", "end", "attrs", "tally")

    def __init__(self, id, name, parent, request, thread, attrs=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.attrs = attrs
        self.tally = None


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.loose_tally: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request_stack: list[Span] = []
        self.request_id = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs=None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            outer = self._request_stack
            parent = outer[-1].id if outer else None
        span = Span(next(self._ids), name, parent, self.request_id, threading.get_ident(), attrs)
        stack.append(span)
        self.spans.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def count(self, name: str) -> None:
        stack = self._stack()
        if stack:
            holder = stack[-1]
            if holder.tally is None:
                holder.tally = {}
            holder.tally[name] = holder.tally.get(name, 0) + 1
        else:
            with self._lock:
                self.loose_tally[name] += 1

    def begin_request(self, request_id) -> Span:
        """Open the root span of one request on the calling thread."""
        self.request_id = request_id
        root = self.open("request")
        self._request_stack = self._stack()
        return root

    def end_request(self, root: Span) -> None:
        self.close(root)
        self._request_stack = []
        self.request_id = None


# ---------------------------------------------------------------- wrappers


def _span_wrapper(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(args, kwargs) if before else None
        span = tracer.open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after:
            after(span, result)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _objective_span_name(f):
    """'<layer>.objective' for a callback defined in a layer module, else None."""
    module = getattr(f, "__module__", None) or ""
    layer = module.rsplit(".", 1)[-1]
    return f"{layer}.objective" if module.startswith("qsdbounds.") and layer in LAYERS else None


def _search_wrapper(tracer: Tracer, name: str, fn):
    """Span plus evaluation count; each objective evaluation is a span of the
    layer that defined the objective, so its cost is not charged to _search.
    An objective already wrapped by an enclosing search (grid_golden_max
    refining with golden_max) is counted again but not spanned twice."""

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        evals = [0]
        label = None if getattr(f, "_bench_objective", False) else _objective_span_name(f)

        def counted(x):
            evals[0] += 1
            if label is None:
                return f(x)
            span = tracer.open(label)
            try:
                return f(x)
            finally:
                tracer.close(span)

        counted._bench_objective = True
        span = tracer.open(name)
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close(span)
            span.attrs = {"evals": evals[0]}

    return wrapper


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _spectrum_dim(args, kwargs):
    h = _arg(args, kwargs, 0, "h")
    arr = getattr(h, "array", h)
    return {"dim": int(arr.shape[0])}


def _tensor_bytes(args, kwargs):
    a = _arg(args, kwargs, 0, "a")
    n = int(_arg(args, kwargs, 1, "n"))
    d = int(getattr(a, "array", a).shape[0])
    # computed: each kron in the chain writes a complex128 (d^k x d^k) matrix
    return {"bytes": sum(16 * d ** (2 * k) for k in range(2, n + 1))}


def _types_classical_log(args, kwargs):
    p = _arg(args, kwargs, 0, "p")
    n = int(_arg(args, kwargs, 2, "n"))
    k = len(p)
    return {"types": math.comb(n + k - 1, k - 1)}


def _report_tally(span: Span, result) -> None:
    reports = result if isinstance(result, tuple) else (result,)
    span.attrs = {
        "reports": len(reports),
        "valid": sum(1 for r in reports if getattr(r, "valid", False)),
    }


def _make_wrapper(tracer: Tracer, name: str, fn):
    if name in COUNT_ONLY:
        return _count_wrapper(tracer, name, fn)
    if name in SEARCHES:
        return _search_wrapper(tracer, name, fn)
    if name in SPECTRUM:
        return _span_wrapper(tracer, "linalg.spectrum", fn, before=_spectrum_dim)
    if name == "linalg.tensor_power":
        return _span_wrapper(tracer, name, fn, before=_tensor_bytes)
    if name in TYPE_ENUMERATORS:
        return _span_wrapper(tracer, name, fn, before=_types_classical_log)
    if name.startswith("finite_bounds."):
        return _span_wrapper(tracer, name, fn, after=_report_tally)
    return _span_wrapper(tracer, name, fn)


def layer_functions() -> dict[str, object]:
    """Public plain functions defined in each layer module, keyed '<module>.<name>'."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
                continue
            name = f"{layer}.{attr}"
            if name not in UNWRAPPED:
                found[name] = obj
    return found


class Installation:
    """Wrappers bound into every qsdbounds namespace; `remove` restores the originals."""

    def __init__(self, tracer: Tracer):
        originals = layer_functions()
        by_id = {id(fn): _make_wrapper(tracer, name, fn) for name, fn in originals.items()}
        self._patched: list[tuple[object, str, object]] = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


# ------------------------------------------------------------- aggregation


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def _ancestor_names(span: Span, by_id: dict[int, Span]):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent.name
        parent = by_id.get(parent.parent)


FB_REPORTED = (
    "stein_lower",
    "stein_upper",
    "second_order_reference",
    "hoeffding_upper",
    "mixed_upper",
    "quantum_chernoff_lower",
    "quantum_mixed_lower",
    "classical_lower",
)
SEARCH_UNDER_FB = {
    "divergences.solve_t_r",
    "divergences.hoeffding_distance",
    "divergences.phi",
    "_search.bisect_decreasing",
}


def layer_metrics(spans: list[Span], loose_tally=None, passes: int = 1) -> dict[str, float]:
    """Per-layer metrics per pass of the request list.

    Counts are totals divided by `passes` (every pass does the same work, so
    they stay whole); times are per-pass means.  Names follow
    '<module>.<function>.<stat>'.
    """
    by_id = {s.id: s for s in spans}
    self_t = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += self_t[s.id]

    tally: dict[str, int] = defaultdict(int, loose_tally or {})
    psi_under_phi = 0
    spectra_under_beta = 0
    searches_under_fb = 0
    reports = valid = 0
    spec_calls: dict[int, int] = defaultdict(int)
    spec_self: dict[int, float] = defaultdict(float)
    ops = tensor_bytes = types = 0
    types_time = 0.0
    search_evals: dict[str, int] = defaultdict(int)
    search_worst: dict[str, int] = defaultdict(int)
    for s in spans:
        if s.tally:
            for key, value in s.tally.items():
                tally[key] += value
            if s.tally.get("divergences.psi") and (
                s.name == "divergences.phi" or "divergences.phi" in _ancestor_names(s, by_id)
            ):
                psi_under_phi += s.tally["divergences.psi"]
        if s.name == "linalg.spectrum":
            dim = s.attrs["dim"]
            spec_calls[dim] += 1
            spec_self[dim] += self_t[s.id]
            ops += dim**3
            if "exact_oracles.beta_eps_exact" in _ancestor_names(s, by_id):
                spectra_under_beta += 1
        elif s.name == "linalg.tensor_power":
            tensor_bytes += s.attrs["bytes"]
        elif s.name in TYPE_ENUMERATORS:
            types += s.attrs["types"]
            types_time += s.end - s.start
        elif s.name in SEARCHES:
            search_evals[s.name] += s.attrs["evals"]
            search_worst[s.name] = max(search_worst[s.name], s.attrs["evals"])
        if s.name in SEARCH_UNDER_FB and any(
            a.startswith("finite_bounds.") for a in _ancestor_names(s, by_id)
        ):
            searches_under_fb += 1
        if s.name.startswith("finite_bounds.") and s.attrs and not any(
            a.startswith("finite_bounds.") for a in _ancestor_names(s, by_id)
        ):
            reports += s.attrs["reports"]
            valid += s.attrs["valid"]

    p = float(passes)
    out: dict[str, float] = {}

    def put_calls_self(name: str, with_self: bool = True) -> None:
        out[f"{name}.calls"] = calls.get(name, 0) / p
        if with_self:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) / p

    put_calls_self("cli.parse_state_file")
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0) / p
    out["cli.main.calls"] = calls.get("cli.main", 0) / p

    put_calls_self("linalg.eigh")
    put_calls_self("linalg.tensor_power")
    out["linalg.tensor_power.bytes_computed"] = tensor_bytes / p
    put_calls_self("linalg.spectrum")
    out["linalg.spectrum.ops_computed"] = ops / p
    for dim in sorted(spec_calls):
        out[f"linalg.spectrum.calls.d{dim}"] = spec_calls[dim] / p
        out[f"linalg.spectrum.self_s.d{dim}"] = spec_self[dim] / p

    for fn in ("beta_eps_exact", "quantum_mixed_error_exact", "np_test_errors", "classical_beta_eps_exact"):
        put_calls_self(f"exact_oracles.{fn}")
    beta_calls = calls.get("exact_oracles.beta_eps_exact", 0)
    out["exact_oracles.beta_eps_exact.spectra_per_call"] = (
        spectra_under_beta / beta_calls if beta_calls else 0.0
    )

    for name in ("_search.golden_max", "_search.bisect_decreasing", "_search.grid_golden_max"):
        out[f"{name}.calls"] = calls.get(name, 0) / p
        out[f"{name}.evals"] = search_evals.get(name, 0) / p
        if name != "_search.grid_golden_max":
            out[f"{name}.budget_frac"] = search_worst.get(name, 0) / SEARCH_MAX_ITER

    for fn in ("build_psi", "phi", "chernoff_distance", "hoeffding_distance", "solve_t_r"):
        put_calls_self(f"divergences.{fn}")
    for name in COUNT_ONLY:
        out[f"{name}.calls"] = tally.get(name, 0) / p
    phi_calls = calls.get("divergences.phi", 0)
    out["divergences.psi_per_phi"] = psi_under_phi / phi_calls if phi_calls else 0.0

    for fn in FB_REPORTED:
        put_calls_self(f"finite_bounds.{fn}")
    out["finite_bounds.searches_per_report"] = searches_under_fb / reports if reports else 0.0
    out["finite_bounds.valid_frac"] = valid / reports if reports else 0.0
    out["finite_bounds.reports"] = reports / p

    for fn in ("build_classical_pair", "classical_exact_errors"):
        put_calls_self(f"ns_mapping.{fn}")
    out["ns_mapping.types_enumerated"] = types / p
    out["ns_mapping.types_per_s"] = types / types_time if types_time > 0 else 0.0

    for fn in ("rate_curve", "en_exact_log", "en_bounds", "inc_beta_reg"):
        put_calls_self(f"classical_binary.{fn}")

    layer_self: dict[str, float] = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / p
    return out


def write_spans(spans: list[Span], path: str, t0: float) -> None:
    """Write all spans once, as CSV with times in seconds from t0."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,request,thread\n")
        threads: dict[int, int] = {}
        for s in spans:
            tid = threads.setdefault(s.thread, len(threads))
            fh.write(
                f"{s.id},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                f"{'' if s.parent is None else s.parent},{s.request},{tid}\n"
            )
