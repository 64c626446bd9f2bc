"""Per-layer metrics from the spans of one traced run.

A cycle is one set-up plus one pass over the workload's operations. The
traced run sets up once and makes k traced passes, so set-up spans count
once and pass spans count 1/k. ``_s`` metrics are seconds per cycle and
``_calls`` are calls per cycle, over every operation. ``_us`` metrics are
microseconds per call inside the workload's three ``run()`` operations
only, so they describe the workload's own problem size rather than a mix
with the CLI's N = 62 calls. Each line of ``PER_LAYER`` names the end-to-end
metric and workload the layer metric should move; ``README.md`` says the
same at more length.
"""

from __future__ import annotations

from spans import Span, Totals, self_times, totals

SCHEME_STEPS = {
    "weighted": "schemes.weighted_step",
    "factorized": "schemes.factorized_step",
    "three_level": "schemes.three_level_step",
}

# name -> (unit, better)
PER_LAYER = {
    "problems.build_s": ("s", "lower"),  # -> setup_s, mainly march_n2000
    "blockops.certify_s": ("s", "lower"),  # -> setup_s on march_n2000, certified_p4
    "blockops.certify_calls": ("count", "lower"),
    "blockops.apply_us": ("us", "lower"),  # -> cli_s.*, run_s.three_level
    "blockops.apply_calls": ("count", "lower"),
    "blockops.weighted_norm_us": ("us", "lower"),  # -> cli_s.run, cli_s.converge
    "blockops.weighted_norm_calls": ("count", "lower"),
    "blockops.split_s": ("s", "lower"),  # -> run_s.* on cli_configs
    "linsolve.factor_s": ("s", "lower"),  # -> run_s.* on march_n2000, cli_s.stability
    "linsolve.factor_calls": ("count", "lower"),
    "linsolve.lower_sweep_us": ("us", "lower"),  # -> run_s.factorized, run_s.three_level
    "linsolve.upper_sweep_us": ("us", "lower"),
    "linsolve.sweep_calls": ("count", "lower"),
    "linsolve.full_solve_us": ("us", "lower"),  # -> run_s.weighted on march_n2000
    "linsolve.full_solve_calls": ("count", "lower"),
    "schemes.prepare_s": ("s", "lower"),  # -> run_s.* on march_n2000
    **{f"schemes.step_us.{k}": ("us", "lower") for k in SCHEME_STEPS},  # -> steps_per_s, cli_s.*
    **{f"schemes.step_self_us.{k}": ("us", "lower") for k in SCHEME_STEPS},
    "schemes.forcing_us": ("us", "lower"),  # -> cli_s.* on cli_configs
    "schemes.run_self_s": ("s", "lower"),
    "verify.observer_setup_s": ("s", "lower"),  # -> run_s.* on certified_p4
    "verify.observer_transition_us": ("us", "lower"),
    "verify.observer_calls": ("count", "lower"),
    "verify.reference_s": ("s", "lower"),  # -> cli_s.converge, cli_s.compare
    "verify.study_self_s": ("s", "lower"),
    "cli.build_problem_s": ("s", "lower"),  # -> cli_s.*
    "cli.self_s": ("s", "lower"),
    "cli.sweep_busy_ratio": ("ratio", "higher"),  # -> cli_s.stability
    "trace.overhead_ratio": ("ratio", "lower"),
}


def accounting(spans: list[Span], tol: float = 1e-9) -> dict:
    """Check that self times add up to each top-level operation's wall time.

    Spans from the stability sweep's worker threads overlap one another, so
    for an operation that has them the self times add up to its wall time
    plus the time the workers ran in parallel; that excess is returned.
    """
    selfs = self_times(spans)
    roots = {s.id: s for s in spans if s.parent is None}
    summed = {rid: 0.0 for rid in roots}
    threaded = set()
    for span in spans:
        summed[span.root] += selfs[span.id]
        if span.thread != roots[span.root].thread:
            threaded.add(span.root)
    unbalanced, excess = [], 0.0
    for rid, root in roots.items():
        wall = root.end - root.start
        diff = summed[rid] - wall
        if rid in threaded:
            if diff < -tol * max(wall, 1.0):
                unbalanced.append(f"{root.name}: self times {summed[rid]:.6f} s < wall {wall:.6f} s")
            excess += diff
        elif abs(diff) > tol * max(wall, 1.0):
            unbalanced.append(f"{root.name}: self times {summed[rid]:.9f} s != wall {wall:.9f} s")
    return {"unbalanced": unbalanced, "parallel_excess_s": excess}


def _per_cycle(spans: list[Span], setup_root: int, passes: int) -> Totals:
    setup = [s for s in spans if s.root == setup_root]
    rest = [s for s in spans if s.root != setup_root]
    cycle = Totals()
    cycle.add(totals(setup), 1.0)
    cycle.add(totals(rest), 1.0 / passes)
    return cycle


def _sweep_busy_ratio(spans: list[Span], workers: int) -> float:
    """Summed cell run() time over (sweep wall time x workers)."""
    sweeps = {s.id: s for s in spans if s.name == "cli.cmd_stability"}
    busy = 0.0
    serial = {sid: 0.0 for sid in sweeps}
    for span in spans:
        if span.parent in sweeps:
            if span.name == "schemes.run":
                busy += span.end - span.start
            elif span.name == "cli.build_problem":
                serial[span.parent] += span.end - span.start
    wall = sum((s.end - s.start) - serial[sid] for sid, s in sweeps.items())
    return busy / (wall * workers) if wall > 0 else 0.0


def per_layer(spans: list[Span], setup_root: int, passes: int, workers: int, overhead: float) -> dict:
    """Every metric in PER_LAYER, as {name: (value, unit)}."""
    c = _per_cycle(spans, setup_root, passes)
    op_names = {s.id: s.name for s in spans if s.parent is None}
    r = totals([s for s in spans if op_names.get(s.root, "").startswith("op.run_s.")])

    def incl(*names):
        return sum(c.incl.get(n, 0.0) for n in names)

    def calls(*names):
        return sum(c.calls.get(n, 0.0) for n in names)

    def per_call_us(*names, field="incl"):
        n = sum(r.calls.get(name, 0.0) for name in names)
        total = sum(getattr(r, field).get(name, 0.0) for name in names)
        return 1e6 * total / n if n else 0.0

    transitions = ("verify.EstimateObserver.transition", "verify.EnergyObserver.transition")
    values = {
        "problems.build_s": c.layer_outer.get("problems", 0.0),
        "blockops.certify_s": incl("blockops.certify"),
        "blockops.certify_calls": calls("blockops.certify"),
        "blockops.apply_us": per_call_us("blockops.BlockOperator.apply"),
        "blockops.apply_calls": calls("blockops.BlockOperator.apply"),
        "blockops.weighted_norm_us": per_call_us("blockops.weighted_norm"),
        "blockops.weighted_norm_calls": calls("blockops.weighted_norm"),
        "blockops.split_s": incl("blockops.triangular_split", "blockops.lincomb"),
        "linsolve.factor_s": incl("linsolve.factor_spd"),
        "linsolve.factor_calls": calls("linsolve.factor_spd"),
        "linsolve.lower_sweep_us": per_call_us("linsolve.solve_block_lower"),
        "linsolve.upper_sweep_us": per_call_us("linsolve.solve_block_upper"),
        "linsolve.sweep_calls": calls("linsolve.solve_block_lower", "linsolve.solve_block_upper"),
        "linsolve.full_solve_us": per_call_us("linsolve.solve_spd_full"),
        "linsolve.full_solve_calls": calls("linsolve.solve_spd_full"),
        "schemes.prepare_s": incl("schemes.prepare"),
        "schemes.forcing_us": per_call_us("schemes.forcing_sample"),
        "schemes.run_self_s": c.self_.get("schemes.run", 0.0),
        "verify.observer_setup_s": incl("verify.EstimateObserver.initial", "verify.EnergyObserver.initial"),
        "verify.observer_transition_us": per_call_us(*transitions),
        "verify.observer_calls": calls(*transitions),
        "verify.reference_s": incl("verify.reference_solution", "verify.tiny_step_reference"),
        "verify.study_self_s": c.self_.get("verify.convergence_study", 0.0)
        + c.self_.get("verify.compare_schemes", 0.0),
        "cli.build_problem_s": incl("cli.build_problem"),
        "cli.self_s": c.layer_self.get("cli", 0.0),
        "cli.sweep_busy_ratio": _sweep_busy_ratio(spans, workers),
        "trace.overhead_ratio": overhead,
    }
    for kind, name in SCHEME_STEPS.items():
        values[f"schemes.step_us.{kind}"] = per_call_us(name)
        values[f"schemes.step_self_us.{kind}"] = per_call_us(name, field="self_")
    return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}
