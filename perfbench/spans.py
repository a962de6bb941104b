"""Span recording from outside the program, and per-layer aggregation.

`Tracer.install()` replaces every public function of the nlsqlab modules,
and the `QuantumState` and `TemporalMode` constructors, with a recorder.
The replacement is made under every name that refers to the function in any
nlsqlab module namespace, so calls between modules (nlsq calling
fock.make_superposition, say) are recorded too.  `uninstall()` restores the
originals.  Spans stay in memory until `write()`.

A span is (pass_id, span_id, parent_id, name, start, end, failed, info).
Everything runs on one thread, so the parent is the innermost open span.
"""

from __future__ import annotations

import functools
import inspect
import json
import types
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("fock", "nlsq", "genmodel", "temporal", "tomo", "gate", "cli")

#: Span names of the two traced constructors.
CONSTRUCTORS = {("fock", "QuantumState"): "fock.state_new",
                ("temporal", "TemporalMode"): "temporal.mode_new"}

#: Public functions left unwrapped.  The lambda search calls the first two
#: about a hundred times per state, so recording them would multiply the span
#: count and mostly measure the recorder; their time stays in the caller's
#: self time.  In cli only `main` is an entry point; the cmd_* handlers and
#: the parser builder count as cli.main self time.
UNTRACED = {"nlsq.variance_from_moments", "nlsq.golden_section_minimize"}
ENTRY_ONLY = {"cli": {"main"}}

#: Trace-file header of the program: {n_events u32, n_bins u32, dt_ns f64}.
TRACE_HEADER_BYTES = 16


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.pass_id = None
        self.names: set[str] = set()
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._inspectors = {
            "nlsq.optimal_nonlinear_variance": self._inspect_lambda,
            "tomo.mle_reconstruct": _inspect_mle,
            "temporal.simulate_traces": _inspect_simulated,
            "temporal.save_traces": _inspect_trace_file,
            "temporal.load_traces": _inspect_trace_file,
            "temporal.pca_mode_estimate": _inspect_pca,
        }

    # -- recording ---------------------------------------------------------

    def _begin(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _end(self, sid, parent, name, start, failed, info=None):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((self.pass_id, sid, parent, name, start, end, failed, info))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._begin()
        start = perf_counter()
        try:
            yield
        except BaseException:
            self._end(sid, parent, name, start, True)
            raise
        self._end(sid, parent, name, start, False)

    def wrap(self, name: str, fn):
        inspector = self._inspectors.get(name)
        signature = inspect.signature(fn) if inspector else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._begin()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._end(sid, parent, name, start, True)
                raise
            failed = name == "cli.main" and result != 0
            tracer._end(sid, parent, name, start, failed)
            if inspector is not None and not failed:
                # An inspector that no longer fits the program's signature or
                # result raises here and fails the pass: a counter that read
                # 0 instead would look like a gain.
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[-1] = tracer.spans[-1][:7] + (inspector(bound.arguments, result),)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        targets = {}  # id(original) -> (original, span name)
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and name not in UNTRACED
                        and attr in ENTRY_ONLY.get(layer, {attr})):
                    targets[id(obj)] = (obj, name)
        self.names = {name for _, name in targets.values()} | set(CONSTRUCTORS.values())
        wrappers = {key: self.wrap(name, fn) for key, (fn, name) in targets.items()}
        for mod in [self.package] + [getattr(self.package, l) for l in LAYERS]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is targets[id(obj)][0]:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for (layer, cls_name), span_name in CONSTRUCTORS.items():
            cls = getattr(getattr(self.package, layer), cls_name)
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap(span_name, cls.__init__)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        keys = ("pass", "id", "parent", "name", "start", "end", "failed", "info")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")

    # -- counters read at the boundary ---------------------------------------

    def _inspect_lambda(self, args, result):
        bounds = self.package.nlsq.LAMBDA_BOUNDS
        lam = float(result.lambda_opt)
        return {"at_bound": int(lam <= bounds[0] * (1 + 1e-6)
                                or lam >= bounds[1] * (1 - 1e-6))}


def _inspect_mle(args, result):
    # Active (phase, bin) projectors: at most bins x phases, each dim x dim
    # complex.  One iteration evaluates pr_j = Tr(Pi_j rho) (8 flops per
    # complex multiply-add), accumulates R = sum_j (f_j / pr_j) Pi_j (4 flops
    # per element) and forms R rho R (two complex dim^3 products); it streams
    # the projector stack twice.
    dim = int(args["dim"])
    n_proj = int(args["n_bins"]) * len(args["data"].unique_phases())
    return {"iters": int(result.iters), "converged": int(bool(result.converged)),
            "ops_per_iter": 12 * n_proj * dim * dim + 16 * dim ** 3,
            "bytes_per_iter": 2 * 16 * n_proj * dim * dim}


def _inspect_simulated(args, result):
    return {"bytes": 8 * result.n_events * result.n_bins}  # float64 in memory


def _inspect_trace_file(args, result):
    ts = result if result is not None else args["traces"]
    return {"bytes": TRACE_HEADER_BYTES + 4 * ts.n_events * ts.n_bins + 8 * ts.n_events}


def _inspect_pca(args, result):
    ts, window = args["traces"], args["window"]
    n = ts.n_bins
    if window is not None:
        n = int(((ts.t >= float(window[0])) & (ts.t <= float(window[1]))).sum())
    return {"cov_bytes": 8 * n * n}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the durations of its children.  Spans
    nest (one thread, the parent is the innermost open span), so children
    never overlap each other or outrun their parent."""
    child_s = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_s[s[2]] += s[5] - s[4]
    return {s[1]: (s[5] - s[4]) - child_s[s[1]] for s in spans}


def layer_metrics(spans, n_passes: int) -> dict[str, float]:
    """Per-pass counts and self times of every traced name, and the derived
    solver, kernel and error figures."""
    selfs = self_times(spans)
    names = {s[1]: s[3] for s in spans}
    parents = {s[1]: s[2] for s in spans}
    count = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    info = defaultdict(float)
    evals = 0
    for pid, sid, parent, name, start, end, failed, extra in spans:
        count[name] += 1
        self_s[name] += selfs[sid]
        errors[name.split(".")[0]] += failed
        for key, value in (extra or {}).items():
            info[f"{name}.{key}"] += value
        if name == "nlsq.optimal_nonlinear_variance":
            p = parent
            while p is not None and names[p] != "nlsq.optimize_coefficients":
                p = parents[p]
            evals += p is not None

    per = 1.0 / max(n_passes, 1)
    out = {}
    for name in count:
        out[f"{name}.count"] = count[name] * per
        out[f"{name}.self_s"] = self_s[name] * per
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer] * per
    n_opt = count["nlsq.optimize_coefficients"]
    out["nlsq.evals_per_opt"] = evals / n_opt if n_opt else 0.0
    out["nlsq.lambda_at_bound.count"] = info["nlsq.optimal_nonlinear_variance.at_bound"] * per
    n_mle = count["tomo.mle_reconstruct"]
    iters = info["tomo.mle_reconstruct.iters"]
    out["tomo.mle.iters"] = iters / n_mle if n_mle else 0.0
    out["tomo.mle.s_per_iter"] = self_s["tomo.mle_reconstruct"] / iters if iters else 0.0
    out["tomo.mle.converged_ratio"] = (info["tomo.mle_reconstruct.converged"] / n_mle
                                       if n_mle else 0.0)
    # Weighted by iterations, so a call that iterates longer weighs more.
    for key in ("ops_per_iter", "bytes_per_iter"):
        out[f"tomo.mle.{key}_computed"] = _iteration_weighted(spans, key)
    for fn in ("simulate_traces", "save_traces", "load_traces"):
        out[f"temporal.{fn}.bytes_computed"] = info[f"temporal.{fn}.bytes"] * per
    out["temporal.pca.cov_bytes_computed"] = info["temporal.pca_mode_estimate.cov_bytes"] * per
    out["tomo.dataset_csv.write_s"] = self_s["tomo.write_dataset_csv"] * per
    out["tomo.dataset_csv.read_s"] = self_s["tomo.read_dataset_csv"] * per
    return out


def _iteration_weighted(spans, key: str) -> float:
    num = den = 0.0
    for s in spans:
        if s[3] == "tomo.mle_reconstruct" and s[7]:
            num += s[7][key] * s[7]["iters"]
            den += s[7]["iters"]
    return num / den if den else 0.0


def worst_layer_share(spans, pass_name: str) -> float:
    """Largest share of a pass's duration taken by one layer's self time; at
    most 1 when the spans nest properly."""
    selfs = self_times(spans)
    duration = {s[0]: s[5] - s[4] for s in spans if s[3] == pass_name}
    per_layer = defaultdict(float)
    for s in spans:
        if s[3] != pass_name:
            per_layer[(s[0], s[3].split(".")[0])] += selfs[s[1]]
    return max((t / duration[pid] for (pid, _), t in per_layer.items()
                if duration.get(pid)), default=0.0)
