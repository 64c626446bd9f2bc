"""Workloads: the problems each one sets up and the operations one pass issues.

Every workload issues the same kinds of operation per pass, one at a time
from one thread (a closed loop): one ``run()`` call per scheme on the
workload's own problems, then ``cli.main`` once per subcommand on the four
shipped configs (twice on the grid workloads, for more samples). The
workloads differ in the problems the three runs march:

* ``march_n2000``: p = 2, m = 1000 (N = 2000, the largest size ``certify``
  accepts), no estimate observer. Dense Cholesky solves and the triangular
  sweeps dominate.
* ``certified_p4``: p = 4, m = 255 (N = 1020), with the estimate or energy
  observer that ``splitstep run`` attaches under ``checks = auto``. The dense
  observers dominate.
* ``cli_configs``: the N = 62 problems of the shipped configs, with the
  CLI's observers, so per-call and per-step Python overhead dominates.

Every operation's output is checked after its timer stops; a failed check
or an exception counts the operation as failed and the pass goes on.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from splitstep import blockops, cli, problems, schemes, verify

from inputs import CSV_HEADERS, SUBCOMMANDS, expected_rows, read_config, scheme_settings

SCHEMES = ("weighted", "factorized", "three_level")

# Large-N workloads: components, grid points, whether observers run, and how
# often each CLI call is issued per pass. A grid pass takes seconds and a
# CLI call tens of milliseconds, so one call per pass leaves the cli_s.*
# medians too few samples to be steady.
GRID_WORKLOADS = {
    "march_n2000": {"p": 2, "m": 1000, "observers": False, "cli_repeats": 2},
    "certified_p4": {"p": 4, "m": 255, "observers": True, "cli_repeats": 2},
}

# The three grid schemes run at tau = 1/128 over T = 1.
GRID_TAU = 1.0 / 128.0
GRID_SIGMA = {"weighted": 0.5, "factorized": 0.5, "three_level": 1.0}

# Bound on the relative final-time A-norm error against exp(-T) * profile.
# Measured: 8e-6 to 6e-5 for the two-level schemes at sigma = 1/2 (the
# factorized one carries its O(tau^2) enlargement), 3e-4 for the
# three-level scheme at tau = 1/128 and 1.5e-3 for the factorized scheme at
# sigma = 1, tau = 1/64. The bounds leave about a factor of ten.
REL_ERROR_BOUND = {"second_order": 5e-4, "first_order": 2e-2}


@dataclass
class Outcome:
    ok: bool
    reason: str
    output: bytes  # exact bytes of the result, for traced-vs-untraced checks


@dataclass
class Op:
    metric: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    steps: int = 0


class FinalState(schemes.RunObserver):
    """Keeps a reference to the newest level; computes nothing."""

    def __init__(self):
        self.y = None

    def initial(self, problem, cfg, state):
        self.y = state.y
        return {}

    def transition(self, problem, cfg, prev, new, phi):
        self.y = new.y
        return {}


def _observer_for(cfg) -> type:
    if cfg.kind is schemes.SchemeKind.THREE_LEVEL:
        return verify.EnergyObserver
    return verify.EstimateObserver


def _slack_scale(problem, observer) -> float:
    # the CLI's scale: initial energy for the three-level scheme, else (A v0, v0)
    if isinstance(observer, verify.EnergyObserver):
        return max(observer.initial_energy or 0.0, 1e-300)
    return max(blockops.weighted_inner(problem.A, problem.v0, problem.v0), 1e-300)


def run_op(metric: str, problem, cfg, with_observer: bool, exact) -> Op:
    """One ``schemes.run`` call; ``exact`` is u(T) when it is known."""
    observer_cls = _observer_for(cfg) if with_observer else None
    order = "second_order" if cfg.kind is not schemes.SchemeKind.THREE_LEVEL and cfg.sigma == 0.5 else "first_order"
    bound = REL_ERROR_BOUND[order]

    def call():
        final = FinalState()
        observer = observer_cls() if observer_cls else None
        observers = (final, observer) if observer else (final,)
        log = schemes.run(problem, cfg, observers=observers, keep_states=False)
        return log, final, observer

    def check(result) -> Outcome:
        log, final, observer = result
        norms = np.array([rec.norm_a for rec in log.records])
        y = final.y.to_flat()
        output = y.tobytes() + norms.tobytes()
        if len(log.records) != cfg.n_steps + 1:
            return Outcome(False, f"{len(log.records)} levels, expected {cfg.n_steps + 1}", output)
        if not (np.all(np.isfinite(norms)) and np.all(np.isfinite(y))):
            return Outcome(False, "non-finite level", output)
        if exact is not None:
            err = blockops.weighted_norm(problem.A, final.y - exact)
            rel = err / blockops.weighted_norm(problem.A, exact)
            if not rel <= bound:
                return Outcome(False, f"relative A-norm error {rel:.3e} > {bound:g}", output)
        if observer is not None:
            limit = -cli.SLACK_REL_TOL * _slack_scale(problem, observer)
            if not observer.min_slack >= limit:
                return Outcome(False, f"min slack {observer.min_slack:.3e} < {limit:.3e}", output)
        return Outcome(True, "", output)

    return Op(metric, call, check, steps=cfg.n_steps)


def cli_op(sub: str, config: Path, out_dir: Path) -> Op:
    """One in-process ``cli.main`` call on a config; stdout is captured."""
    settings = scheme_settings(config)
    csv_path = out_dir / (settings["csv"] or f"{sub}.csv")
    rows = expected_rows(sub, settings)
    argv = [sub, "--config", str(config), "--out", str(out_dir)]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code

    def check(code) -> Outcome:
        try:
            text = csv_path.read_text(encoding="utf-8")
        except OSError as err:
            return Outcome(False, f"{csv_path.name}: {err}", b"")
        output = text.encode()
        csv_path.unlink()
        lines = text.splitlines()
        if code != 0:
            return Outcome(False, f"exit code {code}", output)
        if not lines or lines[0] != CSV_HEADERS[sub]:
            return Outcome(False, f"{csv_path.name}: header {lines[:1]}", output)
        if len(lines) - 1 != rows:
            return Outcome(False, f"{csv_path.name}: {len(lines) - 1} rows, expected {rows}", output)
        return Outcome(True, "", output)

    return Op(f"cli_s.{sub}", call, check)


def _grid_problems(p: int, m: int, amps: list[float]):
    """Manufactured problems on diagonal b (two-level) and coupled b (three-level)."""
    c = np.asarray(amps)
    diag = problems.manufactured_problem(problems.example_coupled_spec(p, m), amplitudes=c)
    coupled = problems.manufactured_problem(problems.example_porosity_spec(p, m), amplitudes=c)
    return diag, coupled


def setup(workload: str, amps: list[float], configs: dict[str, Path], out_dir: Path, m: Optional[int] = None) -> list[Op]:
    """Build and certify every problem the workload runs and return one pass's
    operations; ``m`` shrinks the grid workloads (self-test)."""
    if workload in GRID_WORKLOADS:
        spec = GRID_WORKLOADS[workload]
        diag, coupled = _grid_problems(spec["p"], m or spec["m"], amps[: spec["p"]])
        n_steps = round(1.0 / GRID_TAU)
        ops = []
        for kind in SCHEMES:
            sol = coupled if kind == "three_level" else diag
            cfg = schemes.SchemeConfig(kind, sigma=GRID_SIGMA[kind], tau=GRID_TAU, n_steps=n_steps)
            exact = sol.exact(sol.problem.T)
            ops.append(run_op(f"run_s.{kind}", sol.problem, cfg, spec["observers"], exact))
        repeats = spec["cli_repeats"]
    else:
        ops = _config_run_ops(configs)
        repeats = 1
    ops.extend(cli_op(sub, configs[sub], out_dir) for _ in range(repeats) for sub in SUBCOMMANDS)
    return ops


def _config_run_ops(configs: dict[str, Path]) -> list[Op]:
    """The runs the shipped configs imply, at their own N = 62 and steps.

    weighted: the ``run`` config; factorized: the ``compare`` config at its
    finest tau; three_level: the ``stability`` config's cell at its largest
    sigma and smallest tau. Each carries the observer ``checks = auto`` adds.
    """
    built = {sub: cli.build_problem(read_config(path), str(path.parent)) for sub, path in configs.items()}
    ops = []
    for kind, sub in (("weighted", "run"), ("factorized", "compare"), ("three_level", "stability")):
        problem = built[sub]
        s = scheme_settings(configs[sub])
        if kind == "weighted":
            tau, sigma, n = s["tau"][0], s["sigma"], None
        elif kind == "factorized":
            tau, sigma, n = min(s["taus"]), s["sigma"], None
        else:
            tau, sigma, n = min(s["taus"]), max(s["sigmas"]), s["n_steps"]
        n = n or round(problem.T / tau)
        cfg = schemes.SchemeConfig(kind, sigma=sigma, tau=tau, n_steps=n, epsilon=s["epsilon"])
        # manufactured configs start from the profile, and u(T) = exp(-T) v0
        exact = math.exp(-problem.T) * problem.v0 if s["problem"] == "manufactured" else None
        ops.append(run_op(f"run_s.{kind}", problem, cfg, True, exact))
    return ops


def probe_above_threshold() -> tuple[bool, str]:
    """Build the coupled example at m = 1023 (N = 2046), past certify's
    dense threshold. Returns (succeeded, reason)."""
    try:
        problems.build_coupled_diffusion(problems.example_coupled_spec(2, 1023))
    except Exception as err:  # the probe records any failure, by type
        return False, f"{type(err).__name__}: {err}"
    return True, ""

