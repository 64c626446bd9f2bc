"""Command line front end.

Four subcommands, each driven by an INI config file:

* ``run``: march one scheme over the horizon, write per-level records.
* ``converge``: step-size ladder, final-time errors and observed orders.
* ``stability``: sigma-by-tau sweep of the level-wise estimate slack.
* ``compare``: weighted versus factorized trajectory gap per step size.

Exit code 0 means every asserted check passed, 1 means a check failed or a
run broke down, 2 means the configuration or problem data were invalid.
A run that breaks down (``RunStepError``, ``SolveFailureError``, or a
``NotPositiveDefiniteError`` from factoring an operator that is positive
definite in exact arithmetic) ends the command with one ``error:`` line,
except in ``stability``, which marks the cell ``fail`` and goes on.  The
sweep runs its cells one after another.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import logging
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .blockops import (
    BlockVector,
    CertificateError,
    certify,
    read_block_operator,
    read_block_vector,
)
from .linsolve import NotPositiveDefiniteError, SolveFailureError
from .problems import (
    DiffusionSpec,
    build_coupled_diffusion,
    example_coupled_spec,
    example_porosity_spec,
    manufactured_problem,
)
from .schemes import (
    EvolutionProblem,
    RunStepError,
    SchemeConfig,
    SchemeInapplicableError,
    SchemeKind,
    constant_forcing,
    run,
    zero_forcing,
)
from .verify import (
    EnergyObserver,
    EstimateObserver,
    compare_schemes,
    convergence_study,
    steps_for,
)

logger = logging.getLogger(__name__)

SLACK_REL_TOL = 1e-10
SECOND_ORDER_WINDOW = (1.8, 2.2)
FIRST_ORDER_WINDOW = (0.8, 1.2)
DIFF_RATIO_WINDOW = (3.5, 4.5)
IDENTICAL_TRAJ_TOL = 1e-13


class ConfigError(ValueError):
    """Configuration file is missing keys or holds unusable values."""


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}"


def _parse_number(token: str, context: str) -> float:
    """A finite number, written as a decimal or as a fraction ``num/den``."""
    token = token.strip()
    num, _, den = token.partition("/")
    try:
        value = float(num) / float(den) if den else float(token)
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"{context}: cannot parse number {token!r}") from err
    if not np.isfinite(value):
        raise ConfigError(f"{context}: {token!r} is not a finite number")
    return value


def _parse_int(token: str, context: str) -> int:
    token = token.strip()
    try:
        return int(token)
    except ValueError as err:
        raise ConfigError(f"{context}: cannot parse integer {token!r}") from err


def _parse_numbers(text: str, context: str) -> list[float]:
    values = [_parse_number(tok, context) for tok in text.replace(",", " ").split()]
    if not values:
        raise ConfigError(f"{context}: expected at least one number")
    return values


def _parse_table(text: str, context: str) -> np.ndarray:
    rows = [r for r in (row.strip() for row in text.split(";")) if r]
    table = [_parse_numbers(row, context) for row in rows]
    width = {len(row) for row in table}
    if len(width) != 1:
        raise ConfigError(f"{context}: rows have differing lengths")
    return np.asarray(table, dtype=float)


def _load_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in ("problem", "scheme"):
        if section not in cp:
            raise ConfigError(f"{path}: missing [{section}] section")
    return cp


def _get(cp, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
    if cp.has_option(section, key):
        return cp.get(section, key)
    return default


def _require(cp, section: str, key: str) -> str:
    value = _get(cp, section, key)
    if value is None:
        raise ConfigError(f"[{section}] {key} is required")
    return value


def _diffusion_spec(cp, kind: str) -> DiffusionSpec:
    p = _parse_int(_get(cp, "problem", "p", "2"), "[problem] p")
    m = _parse_int(_get(cp, "problem", "m", "31"), "[problem] m")
    tables = {}
    for key in ("k", "r", "b"):
        text = _get(cp, "problem", key)
        if text:
            tables[key] = _parse_table(text, f"[problem] {key}")
    try:
        base = example_porosity_spec(p, m) if kind == "double_porosity" else example_coupled_spec(p, m)
        return replace(base, **tables)
    except ValueError as err:
        raise ConfigError(f"[problem]: {err}") from err


def build_problem(cp, config_dir: str) -> EvolutionProblem:
    """Assemble the evolution problem described by the [problem] section.

    The horizon T lives in [scheme] next to the step parameters.
    """
    kind = _require(cp, "problem", "kind").strip()
    T = _parse_number(_get(cp, "scheme", "t", "1.0"), "[scheme] T")
    if T <= 0.0:
        raise ConfigError(f"[scheme] T={T} must be positive")
    if kind in ("coupled_diffusion", "double_porosity"):
        spec = _diffusion_spec(cp, kind)
        if kind == "coupled_diffusion" and not spec.b_is_diagonal():
            raise ConfigError("[problem] kind=coupled_diffusion requires a diagonal b table")
        if kind == "double_porosity" and spec.b_is_diagonal():
            raise ConfigError("[problem] kind=double_porosity requires off-diagonal b entries")
        try:
            return build_coupled_diffusion(spec, T=T)
        except ValueError as err:
            raise ConfigError(f"[problem]: {err}") from err
    if kind == "manufactured":
        spec = _diffusion_spec(cp, kind)
        amplitudes = None
        if _get(cp, "problem", "c") is not None:
            amplitudes = np.asarray(_parse_numbers(_get(cp, "problem", "c"), "[problem] c"))
        return manufactured_problem(spec, amplitudes=amplitudes, T=T).problem
    if kind == "matrix_files":
        return _matrix_files_problem(cp, config_dir, T)
    raise ConfigError(
        f"[problem] kind={kind!r} unknown; expected coupled_diffusion, double_porosity, "
        "manufactured, or matrix_files"
    )


def _resolve(config_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(config_dir, path)


def _read_data(read, path: str, *args):
    """One problem data file; an unreadable or malformed file is a config error."""
    try:
        return read(path, *args)
    except (OSError, ValueError) as err:
        raise ConfigError(f"[problem]: {err}") from err


def _matrix_files_problem(cp, config_dir: str, T: float) -> EvolutionProblem:
    A = _read_data(read_block_operator, _resolve(config_dir, _require(cp, "problem", "a_manifest")))
    B = _read_data(read_block_operator, _resolve(config_dir, _require(cp, "problem", "b_manifest")))
    certify(A, context="[problem] operator A from manifest")
    certify(B, context="[problem] operator B from manifest")
    v0_file = _get(cp, "problem", "v0_file")
    if v0_file is not None:
        v0 = _read_data(read_block_vector, _resolve(config_dir, v0_file), A.dims)
    else:
        v0 = BlockVector(A.dims, np.ones(A.dims.total))
    forcing_kind = (_get(cp, "problem", "forcing", "zero") or "zero").strip()
    if forcing_kind == "zero":
        forcing = zero_forcing(A.dims)
    elif forcing_kind == "constant":
        f_path = _resolve(config_dir, _require(cp, "problem", "f_file"))
        forcing = constant_forcing(_read_data(read_block_vector, f_path, A.dims))
    else:
        raise ConfigError(f"[problem] forcing={forcing_kind!r} unknown; expected zero or constant")
    return EvolutionProblem(A=A, B=B, forcing=forcing, v0=v0, T=T)


def _scheme_kind(cp) -> SchemeKind:
    raw = _require(cp, "scheme", "kind").strip()
    try:
        return SchemeKind(raw)
    except ValueError as err:
        raise ConfigError(
            f"[scheme] kind={raw!r} unknown; expected weighted, factorized, or three_level"
        ) from err


def _scheme_scalars(cp) -> tuple[float, float]:
    sigma = _parse_number(_get(cp, "scheme", "sigma", "0.5"), "[scheme] sigma")
    epsilon = _parse_number(_get(cp, "scheme", "epsilon", "1.0"), "[scheme] epsilon")
    return sigma, epsilon


def _steps_for_horizon(T: float, tau: float) -> tuple[int, float]:
    """Integer step count; tau is shrunk to the nearest divisor of T if needed."""
    if tau <= 0.0:
        raise ConfigError(f"[scheme] tau={tau} must be positive")
    n = max(1, int(np.ceil(T / tau - 1e-9)))
    adjusted = T / n
    if abs(adjusted - tau) > 1e-12 * tau:
        logger.warning(
            "tau=%.17g does not divide T=%.17g; using tau=%.17g (%d steps)", tau, T, adjusted, n
        )
    return n, adjusted


def _make_config(kind: SchemeKind, sigma: float, tau: float, n_steps: int, epsilon: float) -> SchemeConfig:
    try:
        cfg = SchemeConfig(kind=kind, sigma=sigma, tau=tau, n_steps=n_steps, epsilon=epsilon)
    except ValueError as err:
        raise ConfigError(f"[scheme]: {err}") from err
    if not cfg.in_hypothesis:
        logger.warning(
            "sigma=%g is below the stability threshold %g of the %s scheme; "
            "no stability estimate is asserted",
            sigma,
            cfg.stability_threshold,
            kind.value,
        )
    return cfg


def _out_path(args, cp, default_name: str) -> str:
    name = _get(cp, "output", "csv", default_name) if cp.has_section("output") else default_name
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _checks_enabled(cp) -> bool:
    if not cp.has_section("output"):
        return True
    mode = (_get(cp, "output", "checks", "auto") or "auto").strip()
    if mode not in ("auto", "none"):
        raise ConfigError(f"[output] checks={mode!r} unknown; expected auto or none")
    return mode == "auto"


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row) + "\n")


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_run(args, cp, config_dir: str) -> int:
    problem = build_problem(cp, config_dir)
    kind = _scheme_kind(cp)
    sigma, epsilon = _scheme_scalars(cp)
    tau_req = _parse_number(_require(cp, "scheme", "tau"), "[scheme] tau")
    n_steps, tau = _steps_for_horizon(problem.T, tau_req)
    cfg = _make_config(kind, sigma, tau, n_steps, epsilon)

    observer = None
    if _checks_enabled(cp):
        if kind is SchemeKind.THREE_LEVEL:
            observer = EnergyObserver()
        elif cfg.in_hypothesis:
            observer = EstimateObserver()
    log = run(problem, cfg, observers=(observer,) if observer else (), keep_states=False)

    rows = [
        [rec.n, rec.t, rec.norm_a, rec.extras.get("energy"), rec.extras.get("slack")]
        for rec in log.records
    ]
    path = _out_path(args, cp, "run.csv")
    _write_csv(path, ["step", "t", "norm_A", "energy_E", "thm_slack"], rows)

    final = log.records[-1]
    _say(args, f"scheme={kind.value} sigma={sigma:g} tau={tau:.17g} steps={n_steps}")
    _say(args, f"final: t={final.t:.17g} norm_a={final.norm_a:.17g}")
    status = 0
    # a three-level run of one step certifies no transition: its min slack stays inf
    if observer is not None and cfg.in_hypothesis and observer.min_slack < np.inf:
        ok = observer.min_slack >= -SLACK_REL_TOL * max(observer.initial_energy, 1e-300)
        _say(args, f"min slack={observer.min_slack:.6e} ({'ok' if ok else 'VIOLATED'})")
        if not ok:
            status = 1
    else:
        _say(args, "min slack=n/a")
    _say(args, f"wrote {path}")
    return status


def _ladder_taus(cp, T: float) -> list[float]:
    """The ``[scheme] taus`` ladder: two or more distinct steps, each dividing T.

    Checked before the study starts, so that only a bad ladder is a config
    error; a factorization that fails inside the study is a run error.
    """
    taus = _parse_numbers(_require(cp, "scheme", "taus"), "[scheme] taus")
    if len(taus) < 2:
        raise ConfigError("[scheme] taus needs at least two step sizes")
    if len(set(taus)) < len(taus):
        raise ConfigError("[scheme] taus: a step size is repeated")
    for tau in taus:
        try:
            steps_for(T, tau)
        except ValueError as err:
            raise ConfigError(f"[scheme] taus: {err}") from err
    return taus


def cmd_converge(args, cp, config_dir: str) -> int:
    problem = build_problem(cp, config_dir)
    kind = _scheme_kind(cp)
    sigma, epsilon = _scheme_scalars(cp)
    taus = _ladder_taus(cp, problem.T)
    base = _make_config(kind, sigma, max(taus), 1, epsilon)
    try:
        report = convergence_study(problem, base, taus)
    except SchemeInapplicableError as err:
        raise ConfigError(f"[problem]: {err}") from err

    rows = [[row.tau, row.error_a, row.order] for row in report.rows]
    path = _out_path(args, cp, "converge.csv")
    _write_csv(path, ["tau", "error_A", "observed_order"], rows)

    window = _expected_window(kind, sigma)
    for row in report.rows:
        order = "" if row.order is None else f" order={row.order:.3f}"
        _say(args, f"tau={row.tau:.17g} error_a={row.error_a:.6e}{order}")
    order = report.finest_order
    ok = window[0] <= order <= window[1]
    _say(
        args,
        f"finest order {order:.3f} {'within' if ok else 'OUTSIDE'} [{window[0]}, {window[1]}]",
    )
    _say(args, f"wrote {path}")
    return 0 if ok else 1


def _expected_window(kind: SchemeKind, sigma: float) -> tuple[float, float]:
    if kind in (SchemeKind.WEIGHTED, SchemeKind.FACTORIZED) and abs(sigma - 0.5) <= 1e-12:
        return SECOND_ORDER_WINDOW
    return FIRST_ORDER_WINDOW


def _stability_cell(problem, cfg: SchemeConfig):
    """One sweep cell: (min_slack, r_min_eig or ``unresolved``, status)."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        observer = EnergyObserver() if cfg.kind is SchemeKind.THREE_LEVEL else EstimateObserver()
        min_slack, scale = None, 1.0
        try:
            run(problem, cfg, observers=(observer,), keep_states=False)
            min_slack, scale = observer.min_slack, max(observer.initial_energy, 1e-300)
        except (NotPositiveDefiniteError, RunStepError, SolveFailureError):
            pass  # a breakdown, or a weight indefinite out of hypothesis: nothing to measure
        r_eig = None
        if cfg.kind is SchemeKind.THREE_LEVEL:
            # R comes from the run's workspace, kept even past a broken startup step
            r_eig = observer.diff_weight_min_eig()
            r_eig = "unresolved" if r_eig is None else r_eig
    if not cfg.in_hypothesis:
        status = "n/a(hypothesis)"
    elif min_slack is not None and np.isfinite(min_slack) and min_slack >= -SLACK_REL_TOL * scale:
        status = "ok"
    else:
        status = "fail"
    return min_slack, r_eig, status


def cmd_stability(args, cp, config_dir: str) -> int:
    problem = build_problem(cp, config_dir)
    kind = _scheme_kind(cp)
    _, epsilon = _scheme_scalars(cp)
    sigmas = _parse_numbers(_require(cp, "scheme", "sigmas"), "[scheme] sigmas")
    taus = _parse_numbers(_require(cp, "scheme", "taus"), "[scheme] taus")
    n_steps = _parse_int(_get(cp, "scheme", "n_steps", "100"), "[scheme] n_steps")
    if kind is SchemeKind.THREE_LEVEL and n_steps < 2:
        raise ConfigError(f"[scheme] n_steps={n_steps}: a three-level cell certifies no transition below 2 steps")
    cells = []
    for s, t in itertools.product(sigmas, taus):
        # not through _make_config: the sweep probes out-of-hypothesis cells
        # on purpose and marks them in its table rather than warning
        try:
            cells.append(SchemeConfig(kind=kind, sigma=s, tau=t, n_steps=n_steps, epsilon=epsilon))
        except ValueError as err:
            raise ConfigError(f"[scheme]: {err}") from err

    rows = []
    any_fail = False
    for cfg in cells:
        min_slack, r_eig, status = _stability_cell(problem, cfg)
        # out-of-hypothesis cells are marked, not judged
        slack_cell = "n/a(hypothesis)" if status == "n/a(hypothesis)" else min_slack
        rows.append([cfg.sigma, cfg.tau, kind.value, slack_cell, r_eig])
        any_fail = any_fail or status == "fail"
        shown = _fmt(min_slack) or "n/a"
        _say(args, f"sigma={cfg.sigma:g} tau={cfg.tau:g} min_slack={shown} status={status}")
    path = _out_path(args, cp, "stability.csv")
    _write_csv(path, ["sigma", "tau", "scheme", "min_slack", "r_min_eig"], rows)
    _say(args, f"wrote {path}")
    return 1 if any_fail else 0


def cmd_compare(args, cp, config_dir: str) -> int:
    problem = build_problem(cp, config_dir)
    sigma, epsilon = _scheme_scalars(cp)
    taus = _ladder_taus(cp, problem.T)
    base = _make_config(SchemeKind.WEIGHTED, sigma, max(taus), 1, epsilon)
    try:
        report = compare_schemes(problem, base, taus)
    except SchemeInapplicableError as err:
        raise ConfigError(f"[problem]: {err}") from err

    ratios = (None,) + report.max_diff_ratios
    rows = [
        [row.tau, row.n_steps, row.max_diff_a, row.final_diff_a, ratio]
        for row, ratio in zip(report.rows, ratios)
    ]
    path = _out_path(args, cp, "compare.csv")
    _write_csv(path, ["tau", "n_steps", "max_diff_a", "final_diff_a", "ratio"], rows)

    for row, ratio in zip(report.rows, ratios):
        extra = "" if ratio is None else f" ratio={ratio:.3f}"
        _say(args, f"tau={row.tau:.17g} max_diff_a={row.max_diff_a:.6e}{extra}")
    if sigma == 0.0:
        worst = max(row.max_diff_a for row in report.rows)
        ok = worst <= IDENTICAL_TRAJ_TOL
        _say(
            args,
            f"sigma=0: schemes coincide, max gap {worst:.3e} "
            f"{'within' if ok else 'OUTSIDE'} {IDENTICAL_TRAJ_TOL:g}",
        )
    else:
        finest = ratios[-1]
        ok = finest is not None and DIFF_RATIO_WINDOW[0] <= finest <= DIFF_RATIO_WINDOW[1]
        shown = "n/a" if finest is None else f"{finest:.3f}"
        _say(
            args,
            f"finest gap ratio {shown} {'within' if ok else 'OUTSIDE'} "
            f"[{DIFF_RATIO_WINDOW[0]}, {DIFF_RATIO_WINDOW[1]}]",
        )
    _say(args, f"wrote {path}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


_COMMANDS = {
    "run": cmd_run,
    "converge": cmd_converge,
    "stability": cmd_stability,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitstep",
        description="Operator-difference schemes for coupled first-order evolutionary systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "march one scheme and record per-level diagnostics"),
        ("converge", "step-size ladder with final-time errors and orders"),
        ("stability", "sigma/tau sweep of the stability estimate slack"),
        ("compare", "weighted vs factorized trajectory gap per step size"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output directory (default: current)")
        p.add_argument("--quiet", action="store_true", help="suppress stdout reporting")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.ERROR if args.quiet else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cp = _load_ini(args.config)
        config_dir = os.path.dirname(os.path.abspath(args.config))
        return _COMMANDS[args.command](args, cp, config_dir)
    except (RunStepError, SolveFailureError, NotPositiveDefiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (
        ConfigError,
        configparser.Error,
        CertificateError,
        SchemeInapplicableError,
        OSError,
    ) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
