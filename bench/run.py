"""splitstep benchmark: one workload, end-to-end metrics or traced per-layer ones.

Run from the repository root:

    python3 bench/run.py --workload march_n2000 --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it (``report {...}``) carries the run
environment, the sample counts and tail percentiles, the above-threshold
probe and any failures. See ``bench/README.md`` for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# One BLAS thread; the stability sweep gets the remaining cores as workers,
# so sweep workers times BLAS threads never exceeds nproc.
BLAS_THREADS = 1
# set-up repeats per run (this process plus fresh interpreters), for a median
SETUP_SAMPLES = {"march_n2000": 3, "certified_p4": 5, "cli_configs": 5}
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_threads() -> dict:
    """Fix BLAS and sweep threads before numpy is imported."""
    workers = max(1, _nproc() // BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["SPLITSTEP_THREADS"] = str(workers)
    return {"blas_threads": BLAS_THREADS, "sweep_workers": workers, "nproc": _nproc()}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and print it as JSON")
    parser.add_argument("--grid-m", type=int, default=None, help="shrink the grid workloads' m (self-test)")
    return parser.parse_args(argv)


def _median_stats(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for q in (99, 95, 90, 75, 50):
        rank = -(-q * n // 100)  # nearest-rank percentile
        if n - rank >= 10:
            out[f"p{q}"] = ordered[rank - 1]
            break
    return out


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def _timed_setup(args, configs, out_dir):
    """Import the package, then build and certify every problem; returns (ops, seconds)."""
    from inputs import amplitudes

    amps = amplitudes(args.seed, 4)
    start = time.perf_counter()
    import workloads

    ops = workloads.setup(args.workload, amps, configs, out_dir, m=args.grid_m)
    return ops, time.perf_counter() - start


def _child_setup(args) -> float:
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    if args.grid_m:
        cmd += ["--grid-m", str(args.grid_m)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, metric: str, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{metric}: {reason}")


def _issue(op, counts: Counts, tracer=None):
    """Issue one operation; returns (seconds, outcome output or None)."""
    try:
        if tracer is None:
            start = time.perf_counter()
            result = op.call()
            elapsed = time.perf_counter() - start
        else:
            with tracer.op(f"op.{op.metric}") as span:
                result = op.call()
            elapsed = span.end - span.start
        outcome = op.check(result)
    except Exception as err:  # an operation that raises is a failed operation
        counts.record(op.metric, False, f"{type(err).__name__}: {err}")
        return None, None
    counts.record(op.metric, outcome.ok, outcome.reason)
    return (elapsed if outcome.ok else None), outcome.output


def _pass(ops, counts: Counts, samples: dict, tracer=None) -> tuple[float, dict]:
    """One pass over the workload's operations; returns its wall time and outputs."""
    outputs = {}
    start = time.perf_counter()
    for op in ops:
        elapsed, output = _issue(op, counts, tracer)
        outputs.setdefault(op.metric, []).append(output)
        if elapsed is not None and samples is not None:
            samples.setdefault(op.metric, []).append(elapsed)
            if op.steps:
                samples.setdefault("_steps", []).append(op.steps)
                samples.setdefault("_run_time", []).append(elapsed)
    return time.perf_counter() - start, outputs


# ---------------------------------------------------------------------------
# Environment.
# ---------------------------------------------------------------------------


def _environment(args, threads: dict) -> dict:
    import platform

    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError):
            return "unknown"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **threads,
    }


# ---------------------------------------------------------------------------
# The two modes.
# ---------------------------------------------------------------------------


def _untraced(args, configs, out_dir, counts: Counts, report: dict) -> dict:
    import resource

    ops, first = _timed_setup(args, configs, out_dir)
    setup_times = [first] + [_child_setup(args) for _ in range(SETUP_SAMPLES[args.workload] - 1)]
    _probe(args, report)

    # the warm-up pass is checked but not sampled: its one-time costs (lazy
    # imports, first LAPACK calls, first touch of the factors) would be a
    # large share of the few samples a march_n2000 run makes
    start = time.perf_counter()
    wall, _ = _pass(ops, counts, None)
    samples: dict[str, list[float]] = {}
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start + wall <= args.seconds:
        wall, _ = _pass(ops, counts, samples)
        passes += 1

    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    report["stats"] = {"setup_s": _median_stats(setup_times)}
    for op in ops:
        values = samples.get(op.metric)
        if not values:
            raise RuntimeError(f"{op.metric}: no successful sample")
        metrics[op.metric] = (statistics.median(values), "s")
        report["stats"][op.metric] = _median_stats(values)
    metrics["steps_per_s"] = (sum(samples["_steps"]) / sum(samples["_run_time"]), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    report["passes"] = passes
    return metrics


def _probe(args, report: dict) -> None:
    """Above-threshold probe: attempted once per march_n2000 run, never timed."""
    if args.workload != "march_n2000":
        return
    from workloads import probe_above_threshold

    ok, reason = probe_above_threshold()
    report["probe"] = {"operation": "build_coupled_diffusion(example_coupled_spec(2, 1023))", "N": 2046,
                       "ok": ok, "reason": reason}


def _traced(args, configs, out_dir, counts: Counts, report: dict, threads: dict) -> tuple[dict, bool]:
    import splitstep
    import workloads

    import layers
    from spans import Tracer, check_nesting
    from inputs import amplitudes

    tracer = Tracer()
    with tracer.installed(splitstep), tracer.op("op.setup") as setup_span:
        ops = workloads.setup(args.workload, amplitudes(args.seed, 4), configs, out_dir, m=args.grid_m)
    _probe(args, report)

    _pass(ops, counts, None)  # warm-up, untraced
    untraced_walls, traced_walls = [], []
    reference, mismatches = None, set()
    start = time.perf_counter()
    while len(traced_walls) < MIN_TRACED_PASSES or time.perf_counter() - start < args.seconds:
        wall, outputs = _pass(ops, counts, None)
        untraced_walls.append(wall)
        if reference is None:
            reference = outputs
        with tracer.installed(splitstep):
            wall, traced_outputs = _pass(ops, counts, None, tracer)
        traced_walls.append(wall)
        mismatches |= {m for m, out in traced_outputs.items() if out != reference[m] or None in out}
        mismatches |= {m for m, out in outputs.items() if out != reference[m] or None in out}

    correct = True
    problems = check_nesting(tracer.spans)
    accounting = layers.accounting(tracer.spans)
    if problems:
        correct = False
        report["span_problems"] = problems[:20]
    if accounting["unbalanced"]:
        correct = False
        report["unbalanced_ops"] = accounting["unbalanced"][:20]
    if mismatches:
        correct = False
        report["traced_output_mismatch"] = sorted(mismatches)
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls)
    metrics = layers.per_layer(tracer.spans, setup_span.id, len(traced_walls), threads["sweep_workers"], overhead)
    report["passes"] = {"untraced": len(untraced_walls), "traced": len(traced_walls)}
    report["spans"] = len(tracer.spans)
    report["parallel_excess_s"] = accounting["parallel_excess_s"]
    return metrics, correct


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "splitstep" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no splitstep sources under {src}; run from a repository checkout", file=sys.stderr)
        return 2
    from inputs import WORKLOADS, write_seeded_configs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.path.insert(0, str(src))

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        configs = write_seeded_configs(ROOT / "configs", work / "configs", args.seed)
        out_dir = work / "out"
        if args.setup_only:
            _, seconds = _timed_setup(args, configs, out_dir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        counts = Counts()
        report: dict = {}
        if args.trace:
            metrics, correct = _traced(args, configs, out_dir, counts, report, threads)
        else:
            metrics = _untraced(args, configs, out_dir, counts, report)
            correct = True
        correct = correct and counts.failed == 0
        probe = report.get("probe")
        probes, probe_failed = (1, int(not probe["ok"])) if probe else (0, 0)
        report["failed_share_with_probe"] = (counts.failed + probe_failed) / (counts.attempted + probes)
        report["failures"] = counts.failures
        report["env"] = _environment(args, threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        stats = report.get("stats", {}).get(name)
        extra = ""
        if stats:
            tail = next((f", {k}={v:.6g}" for k, v in stats.items() if k.startswith("p")), "")
            extra = f"  (median of n={stats['n']}{tail})"
        print(f"{name:<36} {value:>14.6g} {unit}{extra}")
    print(f"{'failed_share':<36} {counts.failed / max(counts.attempted, 1):>14.6g} 1  "
          f"({counts.failed} of {counts.attempted} operations)")
    if probe is not None:
        print(f"{'failed_share_with_probe':<36} {report['failed_share_with_probe']:>14.6g} 1  "
              f"(probe N=2046: {'ok' if probe['ok'] else probe['reason'][:80]})")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
