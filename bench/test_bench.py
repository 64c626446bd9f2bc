"""Self-test of the benchmark at a tiny size.

Run from the repository root (about a minute):

    python3 -m pytest -q bench/test_bench.py

It checks that every metric BENCHMARK.json names is emitted, that traced
spans nest (no negative self time, every child inside its parent, self
times adding up to each operation's wall time) and that the traced run's
outputs are bit-identical to the untraced run's, so the wrappers cannot
change results.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

TINY_M = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--grid-m", str(TINY_M)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    return json.loads(lines[-1]), report


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    result, report = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    key = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True, report
    assert result["failed"] == 0 and result["attempted"] >= 1
    env = report["env"]
    for field in ("commit", "seed", "python", "numpy", "scipy", "numpy_blas", "blas_threads", "sweep_workers", "nproc"):
        assert field in env
    assert env["blas_threads"] * env["sweep_workers"] <= env["nproc"]
    if workload == "march_n2000":
        assert report["probe"]["N"] == 2046 and "ok" in report["probe"]


def test_benchmark_lists_its_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    setup_s = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup_s["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.fixture(scope="module")
def traced_and_untraced():
    """One untraced and one traced pass of every workload at the tiny size."""
    import splitstep

    import run
    import workloads

    out = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        configs = inputs.write_seeded_configs(ROOT / "configs", Path(tmp) / "configs", 5)
        for name in inputs.WORKLOADS:
            ops = workloads.setup(name, inputs.amplitudes(5, 4), configs, Path(tmp) / "out", m=TINY_M)
            counts = run.Counts()
            _, plain = run._pass(ops, counts, None)
            tracer = spans.Tracer()
            originals = {attr: getattr(splitstep.schemes, attr) for attr in ("run", "weighted_step")}
            with tracer.installed(splitstep):
                assert splitstep.schemes.run is not originals["run"]
                _, traced = run._pass(ops, counts, None, tracer)
            assert all(getattr(splitstep.schemes, a) is fn for a, fn in originals.items())
            out[name] = (plain, traced, tracer.spans, counts)
    return out


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_outputs_are_bit_identical(traced_and_untraced, workload):
    plain, traced, _, counts = traced_and_untraced[workload]
    assert counts.failed == 0, counts.failures
    assert plain.keys() == traced.keys()
    for metric in plain:
        assert None not in plain[metric] and plain[metric] == traced[metric], metric


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_spans_nest_and_account_for_wall_time(traced_and_untraced, workload):
    _, _, recorded, _ = traced_and_untraced[workload]
    assert recorded
    assert spans.check_nesting(recorded) == []
    assert all(t >= -1e-9 for t in spans.self_times(recorded).values())
    assert layers.accounting(recorded)["unbalanced"] == []
    layers_seen = {s.layer for s in recorded}
    assert set(spans.LAYERS) <= layers_seen


def test_self_time_subtracts_the_union_of_children():
    root = spans.Span(0, "op", "bench", 0.0, None, 0, 1, end=10.0)
    kids = [
        spans.Span(1, "a", "x", 1.0, 0, 0, 2, end=4.0),
        spans.Span(2, "b", "x", 3.0, 0, 0, 3, end=5.0),  # overlaps a (another thread)
        spans.Span(3, "c", "x", 7.0, 0, 0, 1, end=8.0),
    ]
    selfs = spans.self_times([root, *kids])
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert spans.check_nesting([root, *kids]) == []
    outside = spans.Span(4, "d", "x", 9.0, 0, 0, 1, end=11.0)
    assert spans.check_nesting([root, outside])
