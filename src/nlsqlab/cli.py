"""Command-line front end: state specs in, JSON/CSV artifacts out.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O failure.
stdout carries data; stderr carries diagnostics (including the effective
seed of every stochastic command).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import fock, gate, genmodel, nlsq, temporal, tomo
from .errors import InvalidInputError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _floats(csv_text: str) -> list[float]:
    return [float(tok) for tok in csv_text.split(",") if tok.strip() != ""]


def _angle(value: float, deg: bool) -> float:
    return math.radians(value) if deg else float(value)


# ---------------------------------------------------------------------------
# state specification
# ---------------------------------------------------------------------------


def _add_state_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--vacuum", action="store_true", default=None,
                    help="use the vacuum state")
    sp.add_argument("--fock", type=int, metavar="N", help="number state |N>")
    sp.add_argument("--coeffs", nargs="+", metavar="C",
                    help="superposition amplitudes c0 c1 ... as python complex "
                         "literals; lead negatives with 0, e.g. 0.79 0-0.61j")
    sp.add_argument("--theta", type=float, help="superposition angle")
    sp.add_argument("--phi", type=float, help="superposition phase")
    sp.add_argument("--loss", type=float, help="optical loss fraction")
    sp.add_argument("--dim", type=int, help="photon-number cutoff")


def _state_from_options(ns: dict, deg: bool) -> fock.QuantumState:
    dim = ns.get("dim") or fock.MIN_TWO_LEVEL_DIM
    if ns.get("coeffs") is not None:
        coeffs = [complex(c) for c in ns["coeffs"]]
        state = fock.make_superposition(coeffs, max(dim, len(coeffs)))
    elif ns.get("fock") is not None:
        n = int(ns["fock"])
        state = fock.fock_state(n, max(dim, n + 1))
    elif ns.get("theta") is not None:
        params = genmodel.GenerationParams(
            theta=_angle(ns["theta"], deg),
            phi=_angle(ns.get("phi") or 0.0, deg),
            loss=ns.get("loss") or 0.0,
        )
        return genmodel.rho_theta_phi_L(params, dim)
    elif ns.get("vacuum"):
        state = fock.vacuum(dim)
    else:
        raise InvalidInputError(
            "no state given: use --vacuum, --fock, --coeffs or --theta/--phi/--loss"
        )
    if ns.get("loss") and ns.get("theta") is None:
        state = fock.apply_loss(state, ns["loss"])
    return state


def _parse_state_spec(spec: str, deg: bool, dim: int | None) -> fock.QuantumState:
    """Compact one-token state spec: `vacuum`, `fock:N`, `coeffs:c0,c1,...`,
    or `rho:theta,phi,loss`."""
    kind, _, rest = spec.partition(":")
    ns: dict = {"dim": dim}
    if kind == "vacuum":
        ns["vacuum"] = True
    elif kind == "fock":
        ns["fock"] = int(rest)
    elif kind == "coeffs":
        ns["coeffs"] = rest.split(",")
    elif kind == "rho":
        theta, phi, loss = _floats(rest)
        ns.update(theta=theta, phi=phi, loss=loss)
    else:
        raise InvalidInputError(f"unknown state spec {spec!r}")
    return _state_from_options(ns, deg)


# ---------------------------------------------------------------------------
# shared option helpers
# ---------------------------------------------------------------------------


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Builtin defaults, overridden by --config values, overridden by flags."""
    config = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = json.load(fh)
    out = dict(defaults)
    out.update({k: v for k, v in config.items() if k in defaults})
    out.update({k: v for k, v in vars(args).items()
                if k in defaults and v is not None})
    return out


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _mode_from_options(ns: dict):
    t = temporal.default_grid(frame=ns["frame_ns"] * 1e-9, dt=ns["dt_ns"] * 1e-9,
                              center=ns["t0_ns"] * 1e-9)
    t0 = ns["t0_ns"] * 1e-9
    if ns.get("gamma") is not None:
        return temporal.single_pole_mode(ns["gamma"], t0, t)
    if ns.get("gammas") is not None:
        return temporal.composite_mode(_floats(ns["gammas"]), t0, t)
    hwhm = _floats(ns["hwhm_mhz"])
    gammas = [temporal.gamma_from_hwhm(h * 1e6) for h in hwhm]
    if len(gammas) == 1:
        return temporal.single_pole_mode(gammas[0], t0, t)
    return temporal.composite_mode(gammas, t0, t)


_MODE_DEFAULTS = {
    "hwhm_mhz": ",".join(str(h / 1e6) for h in temporal.DEFAULT_CAVITY_HWHM_HZ),
    "gammas": None,
    "gamma": None,
    "t0_ns": 0.0,
    "frame_ns": temporal.DEFAULT_FRAME * 1e9,
    "dt_ns": temporal.DEFAULT_DT * 1e9,
}


def _add_mode_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--hwhm-mhz", dest="hwhm_mhz",
                    help="cavity HWHM linewidths in MHz, comma separated")
    sp.add_argument("--gammas", help="field decay rates in rad/s, comma separated")
    sp.add_argument("--gamma", type=float, help="single decay rate in rad/s")
    sp.add_argument("--t0-ns", dest="t0_ns", type=float, help="herald time (ns)")
    sp.add_argument("--frame-ns", dest="frame_ns", type=float, help="frame length (ns)")
    sp.add_argument("--dt-ns", dest="dt_ns", type=float, help="sample spacing (ns)")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_nlsq(args) -> int:
    ns = _merged(args, {"vacuum": None, "fock": None, "coeffs": None,
                        "theta": None, "phi": None, "loss": None, "dim": None,
                        "kappa": 1.0, "order": 3})
    state = _state_from_options(ns, args.deg)
    result = nlsq.optimal_nonlinear_variance(state, ns["kappa"], int(ns["order"]))
    _log(f"ratio={result.ratio:.6f} db={result.db:+.4f} lambda={result.lambda_opt:.6f}")
    _print_json(result.to_dict())
    return EXIT_OK


def cmd_optimize(args) -> int:
    ns = _merged(args, {"max_photon": 1, "kappa": 1.0, "order": 3, "loss": None})
    coeffs, result = nlsq.optimize_coefficients(
        int(ns["max_photon"]), ns["kappa"], int(ns["order"]), loss=ns["loss"])
    _print_json({
        "coefficients": [[float(c.real), float(c.imag)] for c in coeffs],
        "result": result.to_dict(),
    })
    return EXIT_OK


def cmd_sweep(args) -> int:
    ns = _merged(args, {"theta_min": 0.0, "theta_max": math.pi, "theta_steps": 33,
                        "phi": 3.0 * math.pi / 2.0, "losses": "0,0.25,0.5",
                        "kappa": 1.0, "order": 3, "out": "-"})
    thetas = np.linspace(_angle(ns["theta_min"], args.deg),
                         _angle(ns["theta_max"], args.deg), int(ns["theta_steps"]))
    rows = nlsq.sweep_rows(thetas, _angle(ns["phi"], args.deg), _floats(str(ns["losses"])),
                           ns["kappa"], int(ns["order"]))
    fh, close = _open_out(ns["out"])
    try:
        nlsq.write_sweep_csv(rows, fh)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def cmd_herald(args) -> int:
    ns = _merged(args, {"q": None, "alpha": None, "dim": fock.MIN_TWO_LEVEL_DIM})
    if ns["q"] is None or ns["alpha"] is None:
        raise InvalidInputError(
            "herald needs --q and --alpha (complex literals; use --q=-0.1j form)")
    state = genmodel.herald(complex(ns["q"]), complex(ns["alpha"]), int(ns["dim"]))
    _print_json(fock.state_to_json(state))
    return EXIT_OK


def cmd_mode(args) -> int:
    ns = _merged(args, dict(_MODE_DEFAULTS, out="-"))
    mode = _mode_from_options(ns)
    fh, close = _open_out(ns["out"])
    try:
        temporal.mode_to_csv(mode, fh)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def cmd_filter_design(args) -> int:
    ns = _merged(args, dict(_MODE_DEFAULTS, seed=0, starts=8, response_out=None))
    _log(f"effective seed: {ns['seed']}")
    target = _mode_from_options(ns)
    filt = temporal.design_matched_filter(target, seed=int(ns["seed"]),
                                          starts=int(ns["starts"]))
    if ns["response_out"]:
        with open(ns["response_out"], "w") as fh:
            temporal.mode_to_csv(filt.response, fh)
    _print_json({
        "poles_rad_s": [float(p) for p in filt.poles],
        "overlap": float(filt.overlap),
    })
    return EXIT_OK


def cmd_traces(args) -> int:
    ns = _merged(args, dict(
        _MODE_DEFAULTS, vacuum=None, fock=None, coeffs=None, theta=None,
        phi=None, loss=None, dim=None, events=6000,
        phases_deg="0,30,60,90,120,150", seed=0, out=None))
    if not ns["out"]:
        raise InvalidInputError("traces needs --out FILE (binary trace set)")
    _log(f"effective seed: {ns['seed']}")
    state = _state_from_options(ns, args.deg)
    mode = _mode_from_options(ns)
    phases = [math.radians(p) for p in _floats(str(ns["phases_deg"]))]
    ts = temporal.simulate_traces(state, mode, int(ns["events"]), phases,
                                  seed=int(ns["seed"]))
    with open(ns["out"], "wb") as fh:
        temporal.save_traces(ts, fh)
    _log(f"wrote {ts.n_events} traces x {ts.n_bins} bins to {ns['out']}")
    return EXIT_OK


def cmd_pca(args) -> int:
    ns = _merged(args, dict(_MODE_DEFAULTS, **{"in": None}, window_ns=None, out="-",
                            compare=False))
    if not ns["in"]:
        raise InvalidInputError("pca needs --in FILE (binary trace set)")
    with open(ns["in"], "rb") as fh:
        ts = temporal.load_traces(fh)
    window = None
    if ns["window_ns"]:
        lo, hi = _floats(str(ns["window_ns"]))
        window = (lo * 1e-9, hi * 1e-9)
    est = temporal.pca_mode_estimate(ts, window=window)
    if ns["compare"]:
        truth = _mode_from_options(ns)
        _log(f"overlap with analytic mode: {temporal.mode_overlap(est, truth):.6f}")
    fh, close = _open_out(ns["out"])
    try:
        temporal.mode_to_csv(est, fh)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def cmd_sample(args) -> int:
    ns = _merged(args, {"vacuum": None, "fock": None, "coeffs": None, "theta": None,
                        "phi": None, "loss": None, "dim": None,
                        "phases_deg": "0,30,60,90,120,150",
                        "n_per_phase": tomo.DEFAULT_EVENTS_PER_PHASE,
                        "seed": 0, "out": "-"})
    _log(f"effective seed: {ns['seed']}")
    state = _state_from_options(ns, args.deg)
    phases = [math.radians(p) for p in _floats(str(ns["phases_deg"]))]
    ds = tomo.sample(state, phases, int(ns["n_per_phase"]), seed=int(ns["seed"]))
    fh, close = _open_out(ns["out"])
    try:
        tomo.write_dataset_csv(ds, fh)
    finally:
        if close:
            fh.close()
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    ns = _merged(args, {"in": None, "dim": 5, "max_iters": tomo.MLE_MAX_ITERS,
                        "tol": tomo.MLE_TOL, "out": None})
    if not ns["in"]:
        raise InvalidInputError("reconstruct needs --in FILE (dataset CSV)")
    with open(ns["in"]) as fh:
        ds = tomo.read_dataset_csv(fh)
    result = tomo.mle_reconstruct(ds, dim=int(ns["dim"]),
                                  max_iters=int(ns["max_iters"]), tol=ns["tol"])
    if ns["out"]:
        with open(ns["out"], "w") as fh:
            json.dump(fock.state_to_json(result.state), fh, sort_keys=True)
            fh.write("\n")
    report = result.report()
    report["nlsq_db"] = nlsq.nlsq_db(result.state)
    _print_json(report)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    ns = _merged(args, {
        "theta": 1.09, "phi": 3.0 * math.pi / 2.0, "loss": 0.25,
        "n_per_phase": tomo.DEFAULT_EVENTS_PER_PHASE, "seed": 0, "dim": 5,
        "with_traces": True, "trace_events": 1000, "out": "-",
        "kappa": 1.0, "order": 3,
    })
    if int(ns["n_per_phase"]) < 1:
        raise InvalidInputError("n_per_phase must be at least 1")
    _log(f"effective seed: {ns['seed']}")
    theta = _angle(ns["theta"], args.deg)
    phi = _angle(ns["phi"], args.deg)
    params = genmodel.GenerationParams(theta=theta, phi=phi, loss=ns["loss"])
    dim = int(ns["dim"])
    truth = genmodel.rho_theta_phi_L(params, dim)
    model_result = nlsq.optimal_nonlinear_variance(truth, ns["kappa"], int(ns["order"]))

    ds = tomo.sample(truth, n_per_phase=int(ns["n_per_phase"]), seed=int(ns["seed"]))
    mle = tomo.mle_reconstruct(ds, dim=dim)
    rec_result = nlsq.optimal_nonlinear_variance(mle.state, ns["kappa"], int(ns["order"]))
    fit = genmodel.fit_phi_L(mle.state, theta)

    report = {
        "params": {"theta": theta, "phi": phi, "loss": float(ns["loss"]),
                   "n_per_phase": int(ns["n_per_phase"]), "dim": dim,
                   "seed": int(ns["seed"]), "kappa": float(ns["kappa"]),
                   "order": int(ns["order"])},
        "model": model_result.to_dict(),
        "reconstruction": {
            **mle.report(),
            "fidelity_to_model": fock.fidelity(mle.state, truth),
            "nlsq": rec_result.to_dict(),
            "db_minus_model": rec_result.db - model_result.db,
        },
        "fit": fit.to_dict(),
    }

    if ns["with_traces"]:
        grid = temporal.default_grid()
        mode = temporal.composite_mode(temporal.default_gammas(), 0.0, grid)
        filt = temporal.design_matched_filter(mode, seed=0)
        phases = [math.radians(d) for d in (0, 30, 60, 90, 120, 150)]
        n_events = int(ns["trace_events"]) * len(phases)
        ts = temporal.simulate_traces(truth, mode, n_events,
                                      np.repeat(phases, int(ns["trace_events"])),
                                      seed=int(ns["seed"]) + 1)
        corr = temporal.realtime_vs_postprocess(ts, filt, mode)
        q_rt = ts.traces @ filt.response.samples * ts.dt
        rt_ds = tomo.TomographyDataset(phases=ts.phases, values=q_rt,
                                       source="real-time filter output")
        rt_mle = tomo.mle_reconstruct(rt_ds, dim=dim)
        rt_result = nlsq.optimal_nonlinear_variance(rt_mle.state, ns["kappa"],
                                                    int(ns["order"]))
        report["realtime"] = {
            "filter_overlap": float(filt.overlap),
            "correlations_by_phase_deg": {
                f"{math.degrees(p):g}": r for p, r in sorted(corr.items())
            },
            "nlsq": rt_result.to_dict(),
            "trace_events_per_phase": int(ns["trace_events"]),
        }

    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if ns["out"] == "-":
        sys.stdout.write(text)
    else:
        with open(ns["out"], "w") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_gate_noise(args) -> int:
    ns = _merged(args, {"input": "vacuum", "ancilla": "vacuum", "sqz_var": 0.0,
                        "kappa": 1.0, "dim": None})
    inp = gate.ModeMoments.from_state(_parse_state_spec(ns["input"], args.deg, ns["dim"]))
    anc = gate.ModeMoments.from_state(_parse_state_spec(ns["ancilla"], args.deg, ns["dim"]))
    report = gate.propagate(inp, anc, ns["sqz_var"], ns["kappa"])
    _print_json(report.to_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlsqlab",
        description="Nonlinear-squeezing toolkit: state models, temporal modes, "
                    "tomography, and gate noise budgets.",
    )
    parser.add_argument("--config", help="JSON file of option defaults "
                                         "(flags override file values)")
    parser.add_argument("--deg", action="store_true",
                        help="interpret angle arguments as degrees")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("nlsq", help="nonlinear squeezing of one state")
    _add_state_options(sp)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--order", type=int)
    sp.set_defaults(func=cmd_nlsq)

    sp = sub.add_parser("optimize", help="optimize superposition coefficients")
    sp.add_argument("--max-photon", dest="max_photon", type=int)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--order", type=int)
    sp.add_argument("--loss", type=float)
    sp.add_argument("--seed", type=int, help="accepted; the search is deterministic")
    sp.add_argument("--starts", type=int, help="accepted; the search is deterministic")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("sweep", help="NLSQ versus theta for several losses")
    sp.add_argument("--theta-min", dest="theta_min", type=float)
    sp.add_argument("--theta-max", dest="theta_max", type=float)
    sp.add_argument("--theta-steps", dest="theta_steps", type=int)
    sp.add_argument("--phi", type=float)
    sp.add_argument("--losses")
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--order", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("herald", help="heralded superposition density matrix")
    sp.add_argument("--q")
    sp.add_argument("--alpha")
    sp.add_argument("--dim", type=int)
    sp.set_defaults(func=cmd_herald)

    sp = sub.add_parser("mode", help="temporal wave packet as CSV")
    _add_mode_options(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_mode)

    sp = sub.add_parser("filter-design", help="third-order matched filter")
    _add_mode_options(sp)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--starts", type=int)
    sp.add_argument("--response-out", dest="response_out")
    sp.set_defaults(func=cmd_filter_design)

    sp = sub.add_parser("traces", help="simulate continuous homodyne traces")
    _add_state_options(sp)
    _add_mode_options(sp)
    sp.add_argument("--events", type=int)
    sp.add_argument("--phases-deg", dest="phases_deg")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_traces)

    sp = sub.add_parser("pca", help="principal-component temporal mode estimate")
    sp.add_argument("--in", dest="in")
    sp.add_argument("--window-ns", dest="window_ns")
    sp.add_argument("--compare", action="store_true", default=None,
                    help="log the overlap with the analytic mode options")
    _add_mode_options(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_pca)

    sp = sub.add_parser("sample", help="phase-tagged quadrature dataset")
    _add_state_options(sp)
    sp.add_argument("--phases-deg", dest="phases_deg")
    sp.add_argument("--n-per-phase", dest="n_per_phase", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("reconstruct", help="maximum-likelihood reconstruction")
    sp.add_argument("--in", dest="in")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--max-iters", dest="max_iters", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("pipeline", help="generate, measure, reconstruct, report")
    sp.add_argument("--theta", type=float)
    sp.add_argument("--phi", type=float)
    sp.add_argument("--loss", type=float)
    sp.add_argument("--n-per-phase", dest="n_per_phase", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--order", type=int)
    sp.add_argument("--with-traces", dest="with_traces", action="store_true",
                    default=None)
    sp.add_argument("--no-traces", dest="with_traces", action="store_false")
    sp.add_argument("--trace-events", dest="trace_events", type=int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("gate-noise", help="cubic-gate moment-level noise budget")
    sp.add_argument("--input", help="state spec, e.g. vacuum | fock:1 | "
                                    "coeffs:0.79,-0.61j | rho:1.09,4.712,0.25")
    sp.add_argument("--ancilla", help="state spec for the ancilla mode")
    sp.add_argument("--sqz-var", dest="sqz_var", type=float)
    sp.add_argument("--kappa", type=float)
    sp.add_argument("--dim", type=int)
    sp.set_defaults(func=cmd_gate_noise)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # InvalidInputError and malformed literals
        _log(f"error: {exc}")
        return EXIT_USAGE
    except NumericalError as exc:
        _log(f"numerical error: {exc}")
        return EXIT_NUMERICAL
    except OSError as exc:
        _log(f"i/o error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
