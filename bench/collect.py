"""Run the benchmark over several seeds and summarise the spread per metric.

Run from the repository root:

    python3 bench/collect.py --seeds 1-10 --traced-seed 1 --out bench/results/baseline.json
    python3 bench/collect.py --seeds 11-20 --against bench/results/baseline.json \
        --out bench/results/baseline_repeat.json

It makes one untraced run per seed of every workload in ``BENCHMARK.json``,
round-robin (all workloads for one seed, then the next seed), so that each
workload's samples span the whole collection window rather than one short
stretch of host load. Per end-to-end metric it reports the median and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound. With
``--against`` it also reports how far each median moved from an earlier
set's (``between``, a share of the earlier median, positive = worse). With
``--traced-seed`` it adds one traced run per workload for the per-layer
numbers. With ``--out`` it writes everything, raw values included, as one
JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def _run(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()[-800:]}")
    report = next((json.loads(line[len("report "):]) for line in lines if line.startswith("report ")), {})
    return json.loads(lines[-1]), report


def _spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else float("inf")}


def _between(now: float, before: float, better: str) -> float:
    """How much worse ``now`` is than ``before``, as a share of ``before``."""
    return (now - before) / before if better == "lower" else (before - now) / before


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--against", default=None, help="an earlier --out file to compare medians with")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else None
    runs: dict[str, list] = {w: [] for w in names}
    for seed in _seeds(args.seeds):
        for workload in names:
            final, report = _run(bench, workload, seed, 0)
            runs[workload].append({"seed": seed, **final, "report": report})
            print(f"{workload} seed={seed} correct={final['correct']} "
                  f"failed={final['failed']}/{final['attempted']}", flush=True)

    result = {"run_seconds": bench["run_seconds"], "order": "round-robin", "workloads": {}}
    worst, worst_between = 0.0, 0.0
    for workload in names:
        entry = {"runs": runs[workload], "end_to_end": {}}
        print(f"\n{workload}: {'metric':<22} {'median':>12} {'spread':>8} {'between':>8} {'bound':>6}")
        for name, spec in metrics.items():
            bound = spec["bound"]
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            stats = {**_spread(values), "bound": bound, "unit": spec["unit"], "values": values}
            between = ""
            if earlier is not None:
                stats["between"] = _between(stats["median"], earlier[workload]["end_to_end"][name]["median"],
                                            spec["better"])
                worst_between = max(worst_between, stats["between"] / bound)
                between = f"{stats['between']:+8.4f}"
            entry["end_to_end"][name] = stats
            if name != "setup_s":
                worst = max(worst, stats["spread"] / bound)
            flag = "" if stats["spread"] < bound / 3 else ("  > bound/3" if stats["spread"] <= bound else "  > BOUND")
            if earlier is not None and stats["between"] > bound:
                flag += "  worse than earlier set by > BOUND"
            print(f"{workload}: {name:<22} {stats['median']:>12.6g} {stats['spread']:>8.4f} {between:>8} "
                  f"{bound:>6}{flag}")
        if args.traced_seed is not None:
            final, report = _run(bench, workload, args.traced_seed, 1)
            entry["traced"] = {"seed": args.traced_seed, **final, "report": report}
            print(f"{workload}: traced run correct={final['correct']} "
                  f"overhead={final['metrics']['trace.overhead_ratio']['value']:.3f}")
        result["workloads"][workload] = entry
        print(flush=True)
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if earlier is not None:
        print(f"worst change from the earlier set / bound: {worst_between:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
