"""nlsqlab benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The run measures set-up (import plus one tiny pass that fills the
lazy caches) in fresh interpreters, then runs passes of the workload until
`--seconds` have gone by, checking every pass's outputs.  Each pass uses
seeds derived from `--seed` and the pass index.

Times are normalised for the host's speed (see speed.py): every timed
segment lies between two runs of a fixed reference kernel, and its time is
scaled to the speed at which the kernel takes speed.REFERENCE_S.  The report
keeps the raw times beside the normalised ones.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics from
the traced ones, plus the tracing overhead (traced minus untraced median pass
time).  The last line of stdout is the result; the line before it is a report
with the environment, the raw (not normalised) times, the kernel times, the
seeds, every pass time, the latency tail with its percentile, the error
figures and the failures.  Spans of a traced run go to
.perfbench/spans-<workload>.jsonl.

--tiny runs every workload at a small size (used by the smoke test and for
the set-up pass); statistical gates that need the full sample sizes are off.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: BLAS threads, fixed before numpy loads.  The client is one thread, and on
#: a two-core machine a second BLAS thread made no pass faster when the other
#: core was idle and made characterize passes about 20 % slower when it was
#: busy.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-up is timed in this many fresh interpreters (this process included)
#: and reported as the median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

#: Same names as workloads.WORKLOADS, repeated here so that argument parsing
#: imports nothing before set-up is timed.
WORKLOAD_NAMES = ("pipeline", "optimize", "characterize")


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=_positive, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    """Import nlsqlab from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nlsqlab", "__init__.py")):
        raise SystemExit(f"error: no program source at {src}/nlsqlab")
    sys.path.insert(0, src)
    import nlsqlab
    import nlsqlab.cli  # noqa: F401  (the entry point every pass uses)

    if not os.path.abspath(nlsqlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: nlsqlab imported from {nlsqlab.__file__}, not {src}")
    return nlsqlab


def pass_seeds(seed: int, index: int) -> list[int]:
    import numpy as np

    return [int(v) for v in np.random.SeedSequence([seed, index]).generate_state(4)]


def _set_up(workload_name: str, seed: int, work: str):
    """Import the program and run one tiny pass; returns (pkg, workload, seconds)."""
    start = time.perf_counter()
    pkg = _import_program()
    os.makedirs(work, exist_ok=True)
    from workloads import WORKLOADS, Context

    wl = WORKLOADS[workload_name]
    # Seeds of the set-up pass use an index no measured pass uses.
    wl.run(Context(pkg, work), pass_seeds(seed, 2 ** 31), True)
    return pkg, wl, time.perf_counter() - start


def _setup_child(args, meter) -> tuple[float, float]:
    """Set up in a fresh interpreter; returns (raw, normalised) seconds, the
    child's own set-up time scaled by the kernel runs around it."""
    before = meter.sample()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"error: set-up child failed:\n{done.stderr}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    return raw, meter.normalise(raw, before, meter.sample())


def _environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "git_commit": commit or None}


def _tail(latencies: list[float]) -> dict:
    """Highest percentile with at least ten passes beyond it.  With fewer
    than 11 passes no percentile qualifies and the fastest pass is reported.
    The 11 to 30 passes of a run put this at or below p65, not in the tail,
    so it goes to the report with its percentile and is not a bounded
    metric."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, 0)
    return {"value": xs[k], "unit": "s", "percentile": 100.0 * k / (n - 1) if n > 1 else 0.0,
            "passes": n, "beyond": n - 1 - k}


def _declared(key: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def _measure(args, pkg, wl, work, meter, setups) -> int:
    from spans import Tracer, layer_metrics, worst_layer_share
    from speed import REFERENCE_S
    from workloads import CheckFailed, Context

    # Traced passes are marked like untraced ones, so the two time the same
    # work; the kernel runs at marks count as self time of bench.pass only.
    ctx = Context(pkg, work, meter)
    tracer = Tracer(pkg) if args.trace else None
    passes = []  # dicts: index, traced, seeds, seconds, normalised_s, ok, figures, error
    start = time.perf_counter()
    while len(passes) < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
        index = len(passes)
        traced = bool(args.trace and index % 2)
        rec = {"index": index, "traced": traced, "seeds": pass_seeds(args.seed, index),
               "seconds": None, "normalised_s": None, "ok": False, "figures": None,
               "error": None}
        if traced:
            tracer.install()
            tracer.pass_id = index
        meter.start()
        try:
            if traced:
                with tracer.span("bench.pass"):
                    out = wl.run(ctx, rec["seeds"], args.tiny)
            else:
                out = wl.run(ctx, rec["seeds"], args.tiny)
            rec["seconds"], rec["normalised_s"] = meter.stop()
            if traced:
                tracer.uninstall()
            rec["figures"] = wl.check(out, args.tiny)
            rec["ok"] = True
        except Exception as exc:  # the pass failed: count it, keep running
            if rec["seconds"] is None:
                rec["seconds"], rec["normalised_s"] = meter.stop()
                if traced:
                    tracer.uninstall()
            rec["error"] = "".join(traceback.format_exception_only(exc)).strip()
        passes.append(rec)

    failed = sum(not p["ok"] for p in passes)
    good = [p for p in passes if p["ok"]] or passes
    plain = [p for p in passes if not p["traced"]]
    latencies = [p["normalised_s"] for p in good if not p["traced"]]
    raw = [p["seconds"] for p in good if not p["traced"]]
    errs = [p["figures"]["err_db"] for p in good if p["figures"]]
    run_error = None
    if not failed:
        try:
            wl.run_check([p["figures"] for p in passes], args.tiny)
        except CheckFailed as exc:
            run_error = str(exc)
    units = wl.units(args.tiny) * sum(p["ok"] for p in plain)
    computed = {
        "setup_s": statistics.median(n for _, n in setups),
        "throughput": units / sum(p["normalised_s"] for p in plain),
        "latency_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
        "trace": args.trace, "environment": _environment(),
        "setup_samples_s": [{"raw": r, "normalised": n} for r, n in setups],
        "throughput_unit": f"{wl.unit}/s",
        "latency_tail": _tail(latencies), "fail_ratio": failed / len(passes),
        "raw": {"setup_s": statistics.median(r for r, _ in setups),
                "throughput": units / sum(p["seconds"] for p in plain),
                "latency_p50_s": statistics.median(raw)},
        "kernel_s": {"reference": REFERENCE_S, "samples": len(meter.samples),
                     "min": min(meter.samples), "median": statistics.median(meter.samples),
                     "max": max(meter.samples)},
        "err_db": {"unit": "dB", "median": statistics.median(errs) if errs else None,
                   "max": max(errs) if errs else None},
        "passes": passes, "run_check_failure": run_error,
    }
    correct = failed == 0 and run_error is None
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        traced = [q for q in traced if q["ok"]] or traced
        traced_s = statistics.median(p["normalised_s"] for p in traced)
        report["raw"]["trace.pass_p50_s"] = statistics.median(p["seconds"] for p in traced)
        computed.update(layer_metrics(tracer.spans, sum(p["traced"] for p in passes)))
        computed["trace.pass_p50_s"] = traced_s
        computed["trace.overhead_s"] = traced_s - computed["latency_p50_s"]
        share = worst_layer_share(tracer.spans, "bench.pass")
        report["worst_layer_share_of_pass"] = share
        correct = correct and share <= 1.0 + 1e-9
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}.jsonl"))
        known = set(computed) | {f"{n}.{k}" for n in tracer.names for k in ("count", "self_s")}
        declared = _declared("per_layer")
    else:
        known = set(computed)
        declared = _declared("end_to_end")
    unknown = sorted(set(declared) - known)
    if unknown:
        raise SystemExit(f"error: BENCHMARK.json names metrics this run cannot give: {unknown}")
    metrics = {name: {"value": float(computed.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}
    report["failures"] = [p["error"] for p in passes if p["error"]]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # One core for this process and its set-up children, so the kernel that
    # normalises a segment runs on the core that ran the segment.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        pkg, wl, own_setup = _set_up(args.workload, args.seed, work)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        from speed import Meter

        # This process's set-up has no kernel run before it (numpy is not
        # loaded yet), so two runs right after it stand in.
        meter = Meter()
        setups = [(own_setup, meter.normalise(own_setup, meter.sample(), meter.sample()))]
        setups += [_setup_child(args, meter) for _ in range(SETUP_SAMPLES - 1)]
        return _measure(args, pkg, wl, work, meter, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
