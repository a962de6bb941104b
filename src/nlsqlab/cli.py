"""Command-line front end: state specs in, JSON/CSV artifacts out.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 I/O failure.
stdout carries data; stderr carries diagnostics (including the effective
seed of every stochastic command).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import shutil
import stat
import sys

import numpy as np

from . import fock, gate, genmodel, nlsq, temporal, tomo
from .errors import InvalidInputError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

PHASES_DEG = ",".join(f"{math.degrees(p):g}" for p in tomo.DEFAULT_PHASES)
#: `sweep` and `pipeline` apply their default angles after the `--deg`
#: conversion, so a default is the same angle in either unit.
_DEFAULT_PHI = 3.0 * math.pi / 2.0


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _floats(csv_text: str) -> list[float]:
    return [float(tok) for tok in csv_text.split(",") if tok.strip() != ""]


def _angle(value: float, deg: bool) -> float:
    return math.radians(value) if deg else float(value)


def _create(path: str, mode: str = "w"):
    """Open the artifact `path` for writing as a new file.

    An existing regular file with one link that this process may write is
    unlinked and created again with its permissions, not truncated: on ext4
    a truncate waits for the write-back of the data it discards.  Symlinks,
    hard-linked files and devices are written through, and a failed unlink
    falls back to truncation.
    """
    perms = 0o666
    with contextlib.suppress(OSError):
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and os.access(path, os.W_OK):
            os.unlink(path)
            perms = stat.S_IMODE(st.st_mode)
    return open(path, mode, opener=lambda name, flags: os.open(name, flags, perms))


@contextlib.contextmanager
def _output(path: str):
    """Text stream for an artifact: stdout for `-`, otherwise the named file."""
    if path == "-":
        yield sys.stdout
    else:
        with _create(path) as fh:
            yield fh


# ---------------------------------------------------------------------------
# state specification
# ---------------------------------------------------------------------------


def _add_state_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--vacuum", action="store_true", help="use the vacuum state")
    sp.add_argument("--fock", type=int, metavar="N", help="number state |N>")
    sp.add_argument("--coeffs", nargs="+", metavar="C",
                    help="superposition amplitudes c0 c1 ... as python complex "
                         "literals; lead negatives with 0, e.g. 0.79 0-0.61j")
    sp.add_argument("--theta", type=float, help="superposition angle")
    sp.add_argument("--phi", type=float, help="superposition phase")
    sp.add_argument("--loss", type=float, help="optical loss fraction")
    sp.add_argument("--dim", type=int, help="photon-number cutoff")


def _state_from_options(ns: dict, deg: bool) -> fock.QuantumState:
    def cutoff(levels: int) -> int:
        # An explicit --dim is kept as given, so the state constructors
        # reject one below the state's number of levels.
        return max(fock.MIN_TWO_LEVEL_DIM, levels) if ns.get("dim") is None else ns["dim"]

    # `--fock 0` selects a state too, so no truthiness test
    given = [f"--{key}" for key in ("coeffs", "fock", "theta", "vacuum")
             if ns.get(key) is not None and ns.get(key) is not False]
    if len(given) > 1:
        raise InvalidInputError(f"conflicting state selectors {' '.join(given)}: give one")
    if ns.get("phi") is not None and ns.get("theta") is None:
        raise InvalidInputError("--phi needs --theta")
    if ns.get("coeffs") is not None:
        coeffs = [complex(c) for c in ns["coeffs"]]
        state = fock.make_superposition(coeffs, cutoff(len(coeffs)))
    elif ns.get("fock") is not None:
        n = ns["fock"]
        state = fock.fock_state(n, cutoff(n + 1))
    elif ns.get("theta") is not None:
        params = genmodel.GenerationParams(
            theta=_angle(ns["theta"], deg),
            phi=_angle(ns.get("phi") or 0.0, deg),
            loss=ns.get("loss") or 0.0,
        )
        return genmodel.rho_theta_phi_L(params, cutoff(2))
    elif ns.get("vacuum"):
        state = fock.vacuum(cutoff(1))
    else:
        raise InvalidInputError(
            "no state given: use --vacuum, --fock, --coeffs or --theta/--phi/--loss"
        )
    if ns.get("loss"):
        state = fock.apply_loss(state, ns["loss"])
    return state


def _parse_state_spec(flag: str, spec: str, deg: bool, dim: int | None) -> fock.QuantumState:
    """Compact one-token state spec given to `flag`: `vacuum`, `fock:N`,
    `coeffs:c0,c1,...`, or `rho:theta,phi,loss`."""
    kind, colon, rest = spec.partition(":")
    ns: dict = {"dim": dim}
    try:
        if kind == "vacuum" and not colon:
            ns["vacuum"] = True
        elif kind == "fock":
            ns["fock"] = int(rest)
        elif kind == "coeffs":
            ns["coeffs"] = [complex(c) for c in rest.split(",")]
        elif kind == "rho":
            ns["theta"], ns["phi"], ns["loss"] = _floats(rest)
        else:
            raise ValueError
    except ValueError:
        raise InvalidInputError(
            f"{flag} {spec!r}: expected vacuum, fock:N, coeffs:c0,c1,... "
            "or rho:theta,phi,loss") from None
    return _state_from_options(ns, deg)


# ---------------------------------------------------------------------------
# shared option groups
# ---------------------------------------------------------------------------


def _add_gate_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--kappa", type=float, default=1.0)
    sp.add_argument("--order", type=int, default=3)


def _add_mode_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--hwhm-mhz",
                    default=",".join(str(h / 1e6) for h in temporal.DEFAULT_CAVITY_HWHM_HZ),
                    help="cavity HWHM linewidths in MHz, comma separated")
    sp.add_argument("--gammas", help="field decay rates in rad/s, comma separated")
    sp.add_argument("--gamma", type=float, help="single decay rate in rad/s")
    sp.add_argument("--t0-ns", type=float, default=0.0, help="herald time (ns)")
    sp.add_argument("--frame-ns", type=float, default=temporal.DEFAULT_FRAME * 1e9,
                    help="frame length (ns)")
    sp.add_argument("--dt-ns", type=float, default=temporal.DEFAULT_DT * 1e9,
                    help="sample spacing (ns)")


def _mode_from_options(args):
    t0 = args.t0_ns * 1e-9
    t = temporal.default_grid(frame=args.frame_ns * 1e-9, dt=args.dt_ns * 1e-9, center=t0)
    if args.gamma is not None:
        gammas = (args.gamma,)
    elif args.gammas is not None:
        gammas = _floats(args.gammas)
    else:
        gammas = [temporal.gamma_from_hwhm(h * 1e6) for h in _floats(args.hwhm_mhz)]
    return temporal.composite_mode(gammas, t0, t)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_nlsq(args) -> int:
    state = _state_from_options(vars(args), args.deg)
    result = nlsq.optimal_nonlinear_variance(state, args.kappa, args.order)
    _log(f"ratio={result.ratio:.6f} db={result.db:+.4f} lambda={result.lambda_opt:.6f}")
    _print_json(result.to_dict())
    return EXIT_OK


def cmd_optimize(args) -> int:
    coeffs, result = nlsq.optimize_coefficients(
        args.max_photon, args.kappa, args.order, loss=args.loss)
    _print_json({
        "coefficients": [[float(c.real), float(c.imag)] for c in coeffs],
        "result": result.to_dict(),
    })
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.theta_steps < 1:
        raise InvalidInputError(f"--theta-steps must be at least 1, got {args.theta_steps}")
    losses = _floats(args.losses)
    if not losses:
        raise InvalidInputError(f"--losses {args.losses!r} names no loss")
    bounds = []
    for flag, value in (("--theta-min", args.theta_min), ("--theta-max", args.theta_max)):
        bounds.append(math.pi if value is None else _angle(value, args.deg))
        if not 0.0 <= bounds[-1] <= math.pi:
            unit = "180 deg" if args.deg else "pi rad"
            raise InvalidInputError(f"{flag} must lie in [0, {unit}], got {value}")
    thetas = np.linspace(*bounds, args.theta_steps)
    phi = _DEFAULT_PHI if args.phi is None else _angle(args.phi, args.deg)
    rows = nlsq.sweep_rows(thetas, phi, losses, args.kappa, args.order)
    with _output(args.out) as fh:
        nlsq.write_sweep_csv(rows, fh)
    return EXIT_OK


def cmd_herald(args) -> int:
    if args.q is None or args.alpha is None:
        raise InvalidInputError(
            "herald needs --q and --alpha (complex literals; use --q=-0.1j form)")
    state = genmodel.herald(complex(args.q), complex(args.alpha), args.dim)
    _print_json(fock.state_to_json(state))
    return EXIT_OK


def cmd_mode(args) -> int:
    mode = _mode_from_options(args)
    with _output(args.out) as fh:
        temporal.mode_to_csv(mode, fh)
    return EXIT_OK


def cmd_filter_design(args) -> int:
    target = _mode_from_options(args)
    filt = temporal.design_matched_filter(target)
    if args.response_out:
        with _create(args.response_out) as fh:
            temporal.mode_to_csv(filt.response, fh)
    _print_json({
        "poles_rad_s": [float(p) for p in filt.poles],
        "overlap": float(filt.overlap),
    })
    return EXIT_OK


def cmd_traces(args) -> int:
    if not args.out:
        raise InvalidInputError("traces needs --out FILE (binary trace set)")
    _log(f"effective seed: {args.seed}")
    state = _state_from_options(vars(args), args.deg)
    mode = _mode_from_options(args)
    phases = [math.radians(p) for p in _floats(args.phases_deg)]
    ts = temporal.SimulatedTraces(state, mode, args.events, phases, seed=args.seed)
    with _create(args.out, "wb") as fh:
        temporal.save_traces(ts, fh)
    _log(f"wrote {ts.n_events} traces x {ts.n_bins} bins to {args.out}")
    return EXIT_OK


def cmd_pca(args) -> int:
    path = getattr(args, "in")
    if not path:
        raise InvalidInputError("pca needs --in FILE (binary trace set)")
    with open(path, "rb") as fh:
        traces = temporal.TraceFile(fh)
        window = None
        if args.window_ns:
            try:
                lo, hi = _floats(args.window_ns)
            except ValueError:
                raise InvalidInputError(
                    f"--window-ns {args.window_ns!r}: expected two numbers LO,HI") from None
            window = (lo * 1e-9, hi * 1e-9)
        est = temporal.pca_mode_estimate(traces, window=window)
    if args.compare:
        truth = _mode_from_options(args)
        _log(f"overlap with analytic mode: {temporal.mode_overlap(est, truth):.6f}")
    with _output(args.out) as fh:
        temporal.mode_to_csv(est, fh)
    return EXIT_OK


def cmd_sample(args) -> int:
    _log(f"effective seed: {args.seed}")
    state = _state_from_options(vars(args), args.deg)
    phases = [math.radians(p) for p in _floats(args.phases_deg)]
    ds = tomo.sample(state, phases, args.n_per_phase, seed=args.seed)
    with _output(args.out) as fh:
        tomo.write_dataset_csv(ds, fh)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    path = getattr(args, "in")
    if not path:
        raise InvalidInputError("reconstruct needs --in FILE (dataset CSV)")
    with open(path) as fh:
        ds = tomo.read_dataset_csv(fh)
    result = tomo.mle_reconstruct(ds, dim=args.dim, max_iters=args.max_iters, tol=args.tol)
    if args.out:
        with _create(args.out) as fh:
            json.dump(fock.state_to_json(result.state), fh, sort_keys=True)
            fh.write("\n")
    report = result.report()
    report["nlsq_db"] = nlsq.nlsq_db(result.state)
    _print_json(report)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if args.trace_events < 2:
        raise InvalidInputError(f"--trace-events must be at least 2, got {args.trace_events}")
    _log(f"effective seed: {args.seed}")
    theta = 1.09 if args.theta is None else _angle(args.theta, args.deg)
    phi = _DEFAULT_PHI if args.phi is None else _angle(args.phi, args.deg)
    params = genmodel.GenerationParams(theta=theta, phi=phi, loss=args.loss)
    dim, kappa, order = args.dim, args.kappa, args.order
    truth = genmodel.rho_theta_phi_L(params, dim)
    model_result = nlsq.optimal_nonlinear_variance(truth, kappa, order)

    ds = tomo.sample(truth, n_per_phase=args.n_per_phase, seed=args.seed)
    mle = tomo.mle_reconstruct(ds, dim=dim)
    rec_result = nlsq.optimal_nonlinear_variance(mle.state, kappa, order)
    fit = genmodel.fit_phi_L(mle.state, theta)

    report = {
        "params": {"theta": theta, "phi": phi, "loss": args.loss,
                   "n_per_phase": args.n_per_phase, "dim": dim,
                   "seed": args.seed, "kappa": kappa, "order": order},
        "model": model_result.to_dict(),
        "reconstruction": {
            **mle.report(),
            "fidelity_to_model": fock.fidelity(mle.state, truth),
            "nlsq": rec_result.to_dict(),
            "db_minus_model": rec_result.db - model_result.db,
        },
        "fit": fit.to_dict(),
    }

    if args.with_traces:
        mode = temporal.composite_mode(temporal.default_gammas(), 0.0, temporal.default_grid())
        filt = temporal.design_matched_filter(mode)
        phases, q_pp, q_rt = temporal.simulate_readout(
            truth, mode, filt, np.repeat(tomo.DEFAULT_PHASES, args.trace_events),
            seed=args.seed + 1)
        corr = temporal.correlations_by_phase(phases, q_pp, q_rt)
        rt_ds = tomo.TomographyDataset(phases=phases, values=q_rt)
        rt_mle = tomo.mle_reconstruct(rt_ds, dim=dim)
        rt_result = nlsq.optimal_nonlinear_variance(rt_mle.state, kappa, order)
        report["realtime"] = {
            "filter_overlap": float(filt.overlap),
            "correlations_by_phase_deg": {
                f"{math.degrees(p):g}": r for p, r in sorted(corr.items())
            },
            "nlsq": rt_result.to_dict(),
            "trace_events_per_phase": args.trace_events,
        }

    with _output(args.out) as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_gate_noise(args) -> int:
    inp = _parse_state_spec("--input", args.input, args.deg, args.dim)
    anc = _parse_state_spec("--ancilla", args.ancilla, args.deg, args.dim)
    report = gate.propagate(inp, anc, args.sqz_var, args.kappa)
    _print_json(report.to_dict())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _nlsq_options(sp: argparse.ArgumentParser) -> None:
    _add_state_options(sp)
    _add_gate_options(sp)


def _optimize_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--max-photon", type=int, default=1)
    _add_gate_options(sp)
    sp.add_argument("--loss", type=float)
    sp.add_argument("--seed", type=int, help="accepted; the search is deterministic")
    sp.add_argument("--starts", type=int, help="accepted; the search is deterministic")


def _sweep_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--theta-min", type=float, default=0.0)
    sp.add_argument("--theta-max", type=float, help="default pi rad")
    sp.add_argument("--theta-steps", type=int, default=33)
    sp.add_argument("--phi", type=float, help="default 3 pi/2 rad")
    sp.add_argument("--losses", default="0,0.25,0.5")
    _add_gate_options(sp)
    sp.add_argument("--out", default="-")


def _herald_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--q")
    sp.add_argument("--alpha")
    sp.add_argument("--dim", type=int, default=fock.MIN_TWO_LEVEL_DIM)


def _mode_command_options(sp: argparse.ArgumentParser) -> None:
    _add_mode_options(sp)
    sp.add_argument("--out", default="-")


def _filter_design_options(sp: argparse.ArgumentParser) -> None:
    _add_mode_options(sp)
    sp.add_argument("--response-out")


def _traces_options(sp: argparse.ArgumentParser) -> None:
    _add_state_options(sp)
    _add_mode_options(sp)
    sp.add_argument("--events", type=int, default=6000)
    sp.add_argument("--phases-deg", default=PHASES_DEG)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")


def _pca_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--in")
    sp.add_argument("--window-ns")
    sp.add_argument("--compare", action="store_true",
                    help="log the overlap with the analytic mode options")
    _add_mode_options(sp)
    sp.add_argument("--out", default="-")


def _sample_options(sp: argparse.ArgumentParser) -> None:
    _add_state_options(sp)
    sp.add_argument("--phases-deg", default=PHASES_DEG)
    sp.add_argument("--n-per-phase", type=int, default=tomo.DEFAULT_EVENTS_PER_PHASE)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="-")


def _reconstruct_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--in")
    sp.add_argument("--dim", type=int, default=5)
    sp.add_argument("--max-iters", type=int, default=tomo.MLE_MAX_ITERS)
    sp.add_argument("--tol", type=float, default=tomo.MLE_TOL)
    sp.add_argument("--out")


def _pipeline_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--theta", type=float, help="default 1.09 rad")
    sp.add_argument("--phi", type=float, help="default 3 pi/2 rad")
    sp.add_argument("--loss", type=float, default=0.25)
    sp.add_argument("--n-per-phase", type=int, default=tomo.DEFAULT_EVENTS_PER_PHASE)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dim", type=int, default=5)
    _add_gate_options(sp)
    sp.add_argument("--with-traces", action="store_true")
    sp.add_argument("--no-traces", dest="with_traces", action="store_false")
    sp.add_argument("--trace-events", type=int, default=1000)
    sp.add_argument("--out", default="-")
    sp.set_defaults(with_traces=True)


def _gate_noise_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", default="vacuum",
                    help="state spec, e.g. vacuum | fock:1 | "
                         "coeffs:0.79,-0.61j | rho:1.09,4.712,0.25")
    sp.add_argument("--ancilla", default="vacuum", help="state spec for the ancilla mode")
    sp.add_argument("--sqz-var", type=float, default=0.0)
    sp.add_argument("--kappa", type=float, default=1.0)
    sp.add_argument("--dim", type=int)


#: (name, help, function that adds the options, command) of each
#: subcommand, in the order `--help` lists them.
_SUBCOMMANDS = (
    ("nlsq", "nonlinear squeezing of one state", _nlsq_options, cmd_nlsq),
    ("optimize", "optimize superposition coefficients", _optimize_options, cmd_optimize),
    ("sweep", "NLSQ versus theta for several losses", _sweep_options, cmd_sweep),
    ("herald", "heralded superposition density matrix", _herald_options, cmd_herald),
    ("mode", "temporal wave packet as CSV", _mode_command_options, cmd_mode),
    ("filter-design", "third-order matched filter", _filter_design_options,
     cmd_filter_design),
    ("traces", "simulate continuous homodyne traces", _traces_options, cmd_traces),
    ("pca", "principal-component temporal mode estimate", _pca_options, cmd_pca),
    ("sample", "phase-tagged quadrature dataset", _sample_options, cmd_sample),
    ("reconstruct", "maximum-likelihood reconstruction", _reconstruct_options,
     cmd_reconstruct),
    ("pipeline", "generate, measure, reconstruct, report", _pipeline_options, cmd_pipeline),
    ("gate-noise", "cubic-gate moment-level noise budget", _gate_noise_options,
     cmd_gate_noise),
)


def build_parser(argv) -> argparse.ArgumentParser:
    """The `nlsqlab` parser for the arguments `argv`.

    When `argv[0]` names a subcommand, argparse chooses it (the command is
    the first positional and no name starts with `-`), so only that
    subparser is built, and the usage line still lists every name.  Any
    other argv (help, a top-level option first, no or an unknown
    subcommand) builds all twelve, so help and usage errors name them all,
    but adds the options of only those named in `argv`: the chosen
    subcommand is always one of its tokens, and argparse does not
    abbreviate subcommand names."""
    # argparse builds a HelpFormatter for every add_argument, and each one
    # asks for the terminal width unless it is given; ask once per parser.
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="nlsqlab",
        description="Nonlinear-squeezing toolkit: state models, temporal modes, "
                    "tomography, and gate noise budgets.",
        formatter_class=formatter,
    )
    parser.add_argument("--config", help="JSON file of option defaults "
                                         "(flags override file values)")
    parser.add_argument("--deg", action="store_true",
                        help="interpret angle arguments as degrees")
    names = [name for name, *_ in _SUBCOMMANDS]
    chosen = argv[0] if argv and argv[0] in names else None
    # argparse names the action by its metavar in "invalid choice" and
    # "required" errors, so set it only where those cannot occur
    metavar = {} if chosen is None else {"metavar": "{" + ",".join(names) + "}"}
    sub = parser.add_subparsers(
        dest="command", required=True, **metavar,
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=formatter))
    for name, help_text, add_options, func in _SUBCOMMANDS:
        if chosen not in (None, name):
            continue
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        if name in argv:
            add_options(sp)
    return parser


def _parse_with_config(parser: argparse.ArgumentParser, argv, args):
    """Parse again with the --config file layered between the flags and the
    built-in defaults.

    Each key that names an option of the chosen subcommand becomes that
    option's default; other keys and null values are ignored.  A value is
    converted from its string form with the option's own type, exactly as a
    flag would be, and a value that fails names the file and the key.
    Switches take a JSON boolean and list options a JSON list.
    """
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        parser.error(f"--config {args.config}: expected a JSON object")
    sub = next(a for a in parser._actions if a.dest == "command")
    sp = sub.choices[args.command]  # named in argv, so its options are built
    defaults = {}
    for action in sp._actions:
        key, value = action.dest, config.get(action.dest)
        if value is None or action.default is argparse.SUPPRESS:
            continue
        where = f"--config {args.config}: {key}"
        if action.nargs == 0:
            if not isinstance(value, bool):
                sp.error(f"{where} must be true or false")
            defaults[key] = value
            continue
        if action.nargs is not None and not isinstance(value, list):
            sp.error(f"{where} must be a list")
        convert = action.type or str
        try:
            defaults[key] = (convert(str(value)) if action.nargs is None
                             else [convert(str(v)) for v in value])
        except ValueError:
            sp.error(f"{where}: invalid {convert.__name__} value: {value!r}")
    sp.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            args = _parse_with_config(parser, argv, args)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:  # InvalidInputError and malformed literals
        _log(f"error: {exc}")
        return EXIT_USAGE
    except NumericalError as exc:
        _log(f"numerical error: {exc}")
        return EXIT_NUMERICAL
    except MemoryError as exc:  # say, a --dim too large to allocate
        _log(f"error: out of memory: {str(exc) or 'allocation failed'}")
        return EXIT_NUMERICAL
    except OSError as exc:
        _log(f"i/o error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
