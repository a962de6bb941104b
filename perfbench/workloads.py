"""The three workloads: one pass of each, at full or tiny size, and its check.

A pass drives the program the way a user does: through `nlsqlab.cli.main`
with the arguments of a real run, plus the library calls that have no
subcommand (bootstrap, Wigner function, required ancilla quality).  The
harness times `run` only, and `ctx.mark()` between its steps splits the
timed pass into segments for speed normalisation (see speed.py).  `check`
runs afterwards on the outputs and compares them with `oracle`, and
`run_check` gates what only a whole run of passes can show.

Which layer each workload stresses, and which end-to-end metric each layer
metric should move there:

* pipeline: `nlsqlab pipeline` at CLI defaults (6 x 21000 quadratures, dim
  5, 6 x 1000 traces), the headline user run.  About 70-80 % of it is temporal
  filter design (temporal.design_matched_filter, composite_mode,
  mode_overlap, mode_new); the rest is tomo.sample and mle_reconstruct,
  simulate_traces, realtime_vs_postprocess, genmodel and nlsq -> throughput,
  latency_p50_s.
* optimize: two Nelder-Mead ancilla optimisations (M = 1, without and with
  25 % loss), gate-noise on the found ancilla and required_ancilla_db.  Time
  goes to nlsq lambda searches (nlsq.optimal_nonlinear_variance,
  noise_moments, evals_per_opt), fock state construction and apply_loss ->
  throughput; the seeded optimisation hidden in the first
  required_ancilla_db call -> setup_s.  Bypasses temporal and tomo.
* characterize: the data path.  Trace simulation, trace-file save/load, PCA,
  dataset CSV write/read, MLE at dim 10, bootstrap and the Wigner function,
  which run nowhere else -> throughput, latency_p50_s.  Bypasses filter
  design and the coefficient search.

A fourth user run, a theta sweep of independent lambda searches, is not a
workload: the runs a benchmark is given must fit a fixed time budget, and on
a two-core machine whose speed drifts by tens of percent within a minute,
three workloads are as many as leave runs long enough for their medians to
hold the bounds.  Its layers (nlsq lambda search, genmodel, cli) run in
pipeline and optimize.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Context:
    """What a pass needs: the imported package, a scratch directory and the
    speed meter whose segments `mark` ends (none in the set-up pass)."""

    pkg: object
    work: str
    meter: object = None

    def mark(self) -> None:
        """End a timed segment between two steps of a pass."""
        if self.meter is not None:
            self.meter.mark()

    def cli(self, argv: list[str]) -> str:
        """Run one subcommand in-process and return its stdout; a nonzero exit
        code fails the pass."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.pkg.cli.main(argv)
        require(rc == 0, f"nlsqlab {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                   # what throughput counts
    units: Callable[[bool], int]  # units per pass, given tiny
    run: Callable               # (ctx, seeds, tiny) -> outputs
    check: Callable             # (outputs, tiny) -> figures {"err_db": ..., ...}
    run_check: Callable = lambda figures, tiny: None  # (figures of every pass, tiny)


def _seeded_rng(seeds) -> np.random.Generator:
    return np.random.default_rng(seeds[-1])


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

#: The MLE of 6 x 21000 samples misses the model dB by +0.03 +- 0.054 dB
#: (60 seeds); 0.30 dB is five standard deviations past the bias.  One pass
#: cannot see a shift of 0.1 dB, so the median over a run's passes (standard
#: error about 0.015 dB at 20 passes) must stay within 0.1 dB of the model.
PIPELINE_DB_TOL = 0.30
PIPELINE_MEDIAN_DB_TOL = 0.1


def pipeline_run(ctx, seeds, tiny):
    argv = ["pipeline", "--seed", str(seeds[0])]
    if tiny:
        # Filter design has a fixed size; leaving it out keeps set-up short.
        argv += ["--n-per-phase", "300", "--no-traces"]
    return ctx.cli(argv)


def pipeline_check(out, tiny):
    rep = json.loads(out)
    model_db = float(oracle.two_level_db([oracle.POINT[0]], *oracle.POINT[1:])[0])
    require(abs(rep["model"]["db"] - model_db) < 1e-6,
            f"model dB {rep['model']['db']} != reference {model_db}")
    require(abs(rep["model"]["db"] - oracle.POINT_DB) <= 0.02, "model dB off criterion 4")
    rec = rep["reconstruction"]
    figures = {"err_db": abs(rec["nlsq"]["db"] - model_db),
               "db_minus_model": rec["db_minus_model"]}
    if tiny:
        return figures
    rt = rep["realtime"]
    require(rec["fidelity_to_model"] >= 0.99, f"fidelity {rec['fidelity_to_model']}")
    require(abs(rec["db_minus_model"]) <= PIPELINE_DB_TOL,
            f"reconstructed dB off by {rec['db_minus_model']}")
    require(rt["filter_overlap"] >= 0.97, f"filter overlap {rt['filter_overlap']}")
    corr = rt["correlations_by_phase_deg"]
    require(len(corr) == 6 and min(corr.values()) >= 0.98, f"correlations {corr}")
    figures["err_db"] = max(figures["err_db"], abs(rt["nlsq"]["db"] - model_db))
    return figures


def pipeline_run_check(figures, tiny):
    if tiny:
        return
    med = statistics.median(f["db_minus_model"] for f in figures)
    require(abs(med) <= PIPELINE_MEDIAN_DB_TOL,
            f"median reconstructed dB over {len(figures)} passes off by {med}")


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

#: (arguments, starts, reference ratio, gate tolerance).  One Nelder-Mead
#: start misses the global optimum with probability 0.26 for M = 1 (80
#: seeds), so 10 starts keep a miss near 1e-6 per optimisation.  M = 2 is
#: left out: its single start misses with probability 0.66, so it needs the
#: CLI default of 32 starts (6 s), and with it a 30-s run held only three
#: passes and its figures spread past the bounds.
OPTIMISATIONS = (
    (("--max-photon", "1"), 10, oracle.RATIO_M1_PAPER, 0.005),
    (("--max-photon", "1", "--loss", "0.25"), 10, oracle.RATIO_M1_LOSS25, 1e-4),
)
PRECISE_RATIOS = (oracle.RATIO_M1, oracle.RATIO_M1_LOSS25)


def optimize_run(ctx, seeds, tiny):
    results = []
    for i, (args, starts, _, _) in enumerate(OPTIMISATIONS):
        if i:
            ctx.mark()
        out = ctx.cli(["optimize", *args, "--seed", str(seeds[i]),
                       "--starts", str(1 if tiny else starts)])
        results.append(json.loads(out))
    coeffs = [complex(re, im) for re, im in results[0]["coefficients"]]
    rng = _seeded_rng(seeds)
    sqz_var = float(rng.uniform(0.01, 0.1))
    ctx.mark()
    spec = "coeffs:" + ",".join(f"{c.real!r}{c.imag:+.17g}j" for c in coeffs)
    noise = json.loads(ctx.cli(["gate-noise", "--input", "vacuum", "--ancilla", spec,
                                "--sqz-var", repr(sqz_var)]))
    targets = [float(t) for t in rng.uniform(0.5, 12.0, 4)]
    required = [ctx.pkg.gate.required_ancilla_db(t) for t in targets]
    return results, coeffs, sqz_var, noise, targets, required


def optimize_check(outputs, tiny):
    results, coeffs, sqz_var, noise, targets, required = outputs
    err = 0.0
    for res, (args, _, ref, tol), precise in zip(results, OPTIMISATIONS, PRECISE_RATIOS):
        ratio = res["result"]["ratio"]
        if not tiny:
            require(abs(ratio - ref) <= tol, f"optimize {' '.join(args)}: ratio {ratio}")
        err = max(err, abs(10.0 * math.log10(ratio / precise)))
    c = np.array(coeffs)
    require(abs(oracle.nlsq_ratio(np.outer(c, c.conj())) - results[0]["result"]["ratio"]) < 1e-9,
            "M = 1 coefficients do not give the reported ratio")
    require(abs(noise["ancilla_excess"] - oracle.ancilla_excess(c)) < 1e-9,
            f"gate-noise ancilla excess {noise['ancilla_excess']}")
    require(abs(noise["sqz_excess"] - 9.0 * (0.5 * sqz_var + sqz_var ** 2 / 2.0)) < 1e-12,
            f"gate-noise squeezed excess {noise['sqz_excess']}")
    floor_db = 10.0 * math.log10(oracle.RATIO_M1)
    v_vac = oracle.vacuum_variance()
    for t, got in zip(targets, required):
        want = max(10.0 * math.log10(t / v_vac), floor_db)
        require(abs(got - want) < 1e-4, f"required_ancilla_db({t}) = {got}, want {want}")
    return {"err_db": err}


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------

#: (trace events, extra trace-grid flags, samples per phase, MLE dim,
#: bootstrap resamples, Wigner grid points per axis)
CHARACTERIZE_SIZES = {
    False: (10000, [], 21000, 10, 5, 101),
    True: (1000, ["--frame-ns", "40", "--dt-ns", "0.4"], 300, 4, 2, 41),
}
WINDOW_NS = (-30.0, 0.0)


def characterize_run(ctx, seeds, tiny):
    events, grid_flags, n_per_phase, dim, resamples, points = CHARACTERIZE_SIZES[tiny]
    traces, dataset, rho = ctx.path("traces.bin"), ctx.path("data.csv"), ctx.path("rho.json")
    ctx.cli(["traces", "--fock", "1", "--events", str(events), "--seed", str(seeds[0]),
             *grid_flags, "--out", traces])
    ctx.mark()
    full = ctx.cli(["pca", "--in", traces])
    ctx.mark()
    window = ctx.cli(["pca", "--in", traces, f"--window-ns={WINDOW_NS[0]:g},{WINDOW_NS[1]:g}"])
    ctx.mark()
    theta, phi, loss = oracle.POINT
    ctx.cli(["sample", "--theta", repr(theta), "--phi", repr(phi), "--loss", repr(loss),
             "--n-per-phase", str(n_per_phase), "--seed", str(seeds[1]), "--out", dataset])
    ctx.mark()
    report = json.loads(ctx.cli(["reconstruct", "--in", dataset, "--dim", str(dim),
                                 "--out", rho]))
    ctx.mark()
    with open(dataset) as fh:
        data = ctx.pkg.tomo.read_dataset_csv(fh)
    boot = ctx.pkg.tomo.bootstrap_error(data, dim=dim, n_resamples=resamples, seed=seeds[2])
    ctx.mark()
    with open(rho) as fh:
        state = ctx.pkg.fock.state_from_json(json.load(fh))
    xs = np.linspace(-4.0, 4.0, points)
    wig = ctx.pkg.fock.wigner(state, xs, xs)
    return {"trace_bytes": os.path.getsize(traces), "events": events, "full": full,
            "window": window, "n_data": len(data), "report": report,
            "rho": np.array(state.matrix), "boot_db": boot.db,
            "wigner_norm": float(wig.sum() * (xs[1] - xs[0]) ** 2)}


def _mode_csv(text):
    lines = text.splitlines()
    require(lines[0] == "t_ns,amplitude", "mode CSV header")
    t, a = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]]).T
    return t * 1e-9, a


def characterize_check(out, tiny):
    events = out["events"]
    t, _ = _mode_csv(out["full"])
    _, window = _mode_csv(out["window"])
    require(out["trace_bytes"] == 16 + 4 * events * t.size + 8 * events,
            f"trace file has {out['trace_bytes']} bytes")
    require(out["n_data"] == 6 * CHARACTERIZE_SIZES[tiny][2], "dataset CSV row count")
    gammas = [4.0 * math.pi * h for h in oracle.CAVITY_HWHM_HZ]
    truth = oracle.cavity_mode(t, gammas)
    dim = out["rho"].shape[0]
    theta, phi, loss = oracle.POINT
    fid = oracle.fidelity(out["rho"], oracle.two_level_rho(theta, phi, loss, dim))
    require(math.isfinite(out["boot_db"]) and out["boot_db"] > 0, "bootstrap dB error")
    require(abs(out["wigner_norm"] - 1.0) < 1e-3, f"Wigner norm {out['wigner_norm']}")
    require(np.all(window[t > WINDOW_NS[1] * 1e-9] == 0), "windowed estimate leaks past 0 ns")
    if not tiny:
        overlap = oracle.mode_overlap(window, truth)
        require(overlap >= 0.98, f"windowed PCA overlap {overlap}")
        require(fid >= 0.99, f"reconstruction fidelity {fid}")
    model_db = float(oracle.two_level_db([theta], phi, loss)[0])
    return {"err_db": abs(out["report"]["nlsq_db"] - model_db)}


WORKLOADS = {
    "pipeline": Workload("pipeline", "pipelines", lambda tiny: 1,
                         pipeline_run, pipeline_check, pipeline_run_check),
    "optimize": Workload("optimize", "optimisations", lambda tiny: len(OPTIMISATIONS),
                         optimize_run, optimize_check),
    "characterize": Workload("characterize", "trace sets", lambda tiny: 1,
                             characterize_run, characterize_check),
}
