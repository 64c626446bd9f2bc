"""Time stepping schemes for coupled first-order systems B du/dt + A u = f(t).

Three schemes share one state/transition interface:

* ``weighted``: implicit scheme with weight sigma; every transition solves one
  coupled SPD system with the full operator B + sigma*tau*A.
* ``factorized``: alternating triangular scheme for block-diagonal B.  The
  transition operator is (B + sigma*tau*A1) B^{-1} (B + sigma*tau*A2) with
  A = A1 + A2 the mutually adjoint triangular split, so each step costs two
  substitution sweeps that only invert diagonal blocks.
* ``three_level``: factorized three-level scheme for non-diagonal B, built
  from triangular splits of both A and B with a regularization weight
  epsilon on the diagonal.  Again only diagonal blocks are inverted.

All transitions sample the forcing at t = (n + sigma) * tau, and do their
arithmetic on flat arrays through the products and solves ``prepare`` binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .blockops import (
    BlockDims,
    BlockOperator,
    BlockVector,
    DimensionMismatchError,
    lincomb,
    triangular_split,
    weighted_norm,
)
from .linsolve import (
    DiagFactorization,
    SpdFactor,
    factor_spd,
    solve_block_lower,
    solve_block_upper,
    solve_spd_full,
)


class SchemeKind(str, Enum):
    WEIGHTED = "weighted"
    FACTORIZED = "factorized"
    THREE_LEVEL = "three_level"


class SchemeInapplicableError(ValueError):
    """The chosen scheme's structural preconditions do not hold."""


_STABILITY_THRESHOLD = {
    SchemeKind.WEIGHTED: 0.5,
    SchemeKind.FACTORIZED: 0.5,
    SchemeKind.THREE_LEVEL: 1.0,
}


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection plus step parameters.

    ``epsilon`` is the diagonal regularization weight of the three-level
    scheme and is ignored by the two-level schemes.
    """

    kind: SchemeKind
    sigma: float
    tau: float
    n_steps: int
    epsilon: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kind", SchemeKind(self.kind))
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma={self.sigma} outside the admitted range [0, 1]")
        for name, value in (("tau", self.tau), ("epsilon", self.epsilon), ("n_steps", self.n_steps)):
            if not value > 0.0:
                raise ValueError(f"{name}={value} must be positive")
            if not np.isfinite(value):
                raise ValueError(f"{name}={value} must be finite")
        if int(self.n_steps) != self.n_steps:
            raise ValueError(f"n_steps={self.n_steps} must be a positive integer")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def stability_threshold(self) -> float:
        return _STABILITY_THRESHOLD[self.kind]

    @property
    def in_hypothesis(self) -> bool:
        """Whether sigma meets the sufficient stability condition of the kind."""
        return self.sigma >= self.stability_threshold


@dataclass(frozen=True)
class ExponentialSumForcing:
    """Forcing of the form f(t) = sum_k exp(rate_k * t) * vec_k.

    This family is closed under the exact solution flow, which is what the
    closed-form reference solver exploits.
    """

    dims: BlockDims
    terms: tuple[tuple[float, BlockVector], ...]

    def __post_init__(self):
        terms = tuple((float(rate), vec) for rate, vec in self.terms)
        for _, vec in terms:
            if vec.dims.sizes != self.dims.sizes:
                raise DimensionMismatchError(f"forcing term dims {vec.dims.sizes} != {self.dims.sizes}")
        object.__setattr__(self, "terms", terms)

    def __call__(self, t: float) -> BlockVector:
        out = np.zeros(self.dims.total)
        for rate, vec in self.terms:
            out += float(np.exp(rate * t)) * vec.to_flat()
        return BlockVector._own(self.dims, out)


def zero_forcing(dims: BlockDims) -> ExponentialSumForcing:
    return ExponentialSumForcing(dims, ())


def constant_forcing(vec: BlockVector) -> ExponentialSumForcing:
    return ExponentialSumForcing(vec.dims, ((0.0, vec),))


@dataclass(frozen=True)
class EvolutionProblem:
    """Cauchy problem B du/dt + A u = f(t), u(0) = v0, on [0, T].

    Only dimensional consistency is validated here; builders that assemble
    concrete operators are responsible for certifying symmetry and positive
    definiteness before handing them over.
    """

    A: BlockOperator
    B: BlockOperator
    forcing: Callable[[float], BlockVector]
    v0: BlockVector
    T: float

    def __post_init__(self):
        # an opaque callable forcing carries no dims to check
        forcing = self.forcing if isinstance(self.forcing, ExponentialSumForcing) else self.A
        for name, part in (("B", self.B), ("v0", self.v0), ("forcing", forcing)):
            if part.dims.sizes != self.A.dims.sizes:
                raise DimensionMismatchError(f"{name} dims {part.dims.sizes} != A dims {self.A.dims.sizes}")
        if not self.T > 0.0:
            raise ValueError(f"T={self.T} must be positive")
        if not np.isfinite(self.T):
            raise ValueError(f"T={self.T} must be finite")

    @property
    def dims(self) -> BlockDims:
        return self.A.dims


@dataclass(frozen=True)
class SchemeState:
    """Discrete state after n transitions: y approximates u(n * tau).

    ``y_prev`` is carried only by the three-level scheme from level 1 on.
    ``norm_a`` is ||y||_A and ``a_y`` the product A y where ``run`` has
    measured them: a step function's result carries neither until ``run``
    attaches both, before its observers or the next step see it.  A step
    reuses ``a_y`` for its residual instead of applying A again; given a
    state without it (the level 0 of ``three_level_init``, the levels of
    ``verify.tiny_step_reference``), it applies A itself.
    """

    n: int
    t: float
    y: BlockVector
    y_prev: Optional[BlockVector] = None
    norm_a: Optional[float] = None
    a_y: Optional[BlockVector] = None


def forcing_sample(problem: EvolutionProblem, cfg: SchemeConfig, n: int) -> BlockVector:
    """Forcing evaluated at the weighted time (n + sigma) * tau of transition n."""
    return problem.forcing((n + cfg.sigma) * cfg.tau)


# ---------------------------------------------------------------------------
# Per-configuration workspaces: factorizations shared by all transitions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedWorkspace:
    shifted: BlockOperator
    factor: SpdFactor


@dataclass(frozen=True)
class FactorizedWorkspace:
    lower: BlockOperator
    upper: BlockOperator
    diag: DiagFactorization


@dataclass(frozen=True)
class ThreeLevelWorkspace:
    """C1 + eps E, C2 + eps E and their diagonal factors; ``startup`` has C = B + sigma*tau*A."""

    c1_plus: BlockOperator
    c2_plus: BlockOperator
    diag: DiagFactorization
    startup: WeightedWorkspace


def _shifted_operator(problem: EvolutionProblem, cfg: SchemeConfig) -> BlockOperator:
    return lincomb(1.0, problem.B, cfg.sigma * cfg.tau, problem.A)


def _prepare_weighted(problem: EvolutionProblem, cfg: SchemeConfig) -> WeightedWorkspace:
    shifted = _shifted_operator(problem, cfg)
    return WeightedWorkspace(shifted, factor_spd(shifted, context="B + sigma*tau*A"))


def _prepare_factorized(problem: EvolutionProblem, cfg: SchemeConfig) -> FactorizedWorkspace:
    if not problem.B.is_block_diagonal():
        raise SchemeInapplicableError(
            "factorized scheme needs a block-diagonal B; "
            "use the three-level scheme for coupled time derivatives"
        )
    split = triangular_split(problem.A)
    st = cfg.sigma * cfg.tau
    lower = lincomb(1.0, problem.B, st, split.lower)
    upper = lincomb(1.0, problem.B, st, split.upper)
    # lower and upper share identical diagonal blocks B_a + (sigma*tau/2) A_aa
    diag = DiagFactorization.from_operator(lower)
    diag.sweep(lower, False)  # both sweeps bound, and checked, here
    diag.sweep(upper, True)
    return FactorizedWorkspace(lower, upper, diag)


def _prepare_three_level(problem: EvolutionProblem, cfg: SchemeConfig) -> ThreeLevelWorkspace:
    a_split = triangular_split(problem.A)
    b_split = triangular_split(problem.B)
    st = cfg.sigma * cfg.tau
    c1_plus = lincomb(1.0, b_split.lower, st, a_split.lower, shift=cfg.epsilon)
    c2_plus = lincomb(1.0, b_split.upper, st, a_split.upper, shift=cfg.epsilon)
    diag = DiagFactorization.from_operator(c1_plus)
    diag.sweep(c1_plus, False)  # both sweeps bound, and checked, here
    diag.sweep(c2_plus, True)
    return ThreeLevelWorkspace(c1_plus, c2_plus, diag, _prepare_weighted(problem, cfg))


def prepare(problem: EvolutionProblem, cfg: SchemeConfig):
    """Build the reusable per-configuration workspace for the chosen scheme."""
    if cfg.kind is SchemeKind.WEIGHTED:
        return _prepare_weighted(problem, cfg)
    if cfg.kind is SchemeKind.FACTORIZED:
        return _prepare_factorized(problem, cfg)
    return _prepare_three_level(problem, cfg)


# The steps do their vector arithmetic on the flat arrays of their states and
# make a BlockVector only for a solve, which takes one, and for the new level.


def _residual_rhs(problem: EvolutionProblem, cfg: SchemeConfig, state: SchemeState, phi) -> np.ndarray:
    """tau (phi - A y) as a flat array."""
    a_y = problem.A.apply(state.y) if state.a_y is None else state.a_y
    return cfg.tau * (phi.to_flat() - a_y.to_flat())


def _advanced(cfg: SchemeConfig, state: SchemeState, y_new: np.ndarray, y_prev=None) -> SchemeState:
    return SchemeState(state.n + 1, state.t + cfg.tau, BlockVector._own(state.y.dims, y_new), y_prev=y_prev)


def weighted_step(
    problem: EvolutionProblem,
    cfg: SchemeConfig,
    state: SchemeState,
    workspace: WeightedWorkspace,
    phi: BlockVector,
) -> SchemeState:
    """One transition of the weighted scheme: (B + sigma*tau*A) dy = tau (phi - A y)."""
    g = BlockVector._own(problem.dims, _residual_rhs(problem, cfg, state, phi))
    dy = solve_spd_full(workspace.shifted, g, workspace.factor)
    return _advanced(cfg, state, state.y.to_flat() + dy.to_flat())


def _factorized_solve(B: BlockOperator, workspace: FactorizedWorkspace, rhs: BlockVector) -> BlockVector:
    """P^{-1} rhs for P = (B + sigma*tau*A1) B^{-1} (B + sigma*tau*A2): two sweeps around a multiply by B."""
    w = solve_block_lower(workspace.lower, rhs, workspace.diag)
    return solve_block_upper(workspace.upper, B.apply(w), workspace.diag)


def factorized_step(
    problem: EvolutionProblem,
    cfg: SchemeConfig,
    state: SchemeState,
    workspace: FactorizedWorkspace,
    phi: BlockVector,
) -> SchemeState:
    """One transition of the alternating triangular scheme: dy = P^{-1} tau (phi - A y)."""
    g = BlockVector._own(problem.dims, _residual_rhs(problem, cfg, state, phi))
    dy = _factorized_solve(problem.B, workspace, g)
    return _advanced(cfg, state, state.y.to_flat() + dy.to_flat())


def three_level_init(
    problem: EvolutionProblem,
    cfg: SchemeConfig,
    workspace: ThreeLevelWorkspace,
) -> SchemeState:
    """Startup transition for the three-level scheme.

    The first level is produced by one weighted step with the same sigma and
    tau, which keeps the overall first-order accuracy and supplies the pair
    (y^1, y^0) the three-level transitions consume.
    """
    state0 = SchemeState(0, 0.0, problem.v0)
    stepped = weighted_step(problem, cfg, state0, workspace.startup, forcing_sample(problem, cfg, 0))
    return SchemeState(stepped.n, stepped.t, stepped.y, y_prev=problem.v0)


def three_level_step(
    problem: EvolutionProblem,
    cfg: SchemeConfig,
    state: SchemeState,
    workspace: ThreeLevelWorkspace,
    phi: BlockVector,
) -> SchemeState:
    """One transition of the three-level factorized scheme.

    (C1 + eps E)(C2 + eps E) y^{n+1} = 2 eps tau (phi - A y^n)
        + (C1 + eps E)(C2 + eps E) y^n + (C1 - eps E)(C2 - eps E)(y^n - y^{n-1})
    with C1 = B1 + sigma*tau*A1 block lower, C2 = B2 + sigma*tau*A2 block upper.
    As C1 + C2 = C = B + sigma*tau*A, the last product is the first minus 2 eps C:
        (C1 + eps E)(C2 + eps E) dy = 2 eps [tau (phi - A y^n) - C (y^n - y^{n-1})]
    and y^{n+1} = y^n + (y^n - y^{n-1}) + dy, after two substitution sweeps.
    """
    if state.y_prev is None:
        raise ValueError("three_level_step needs the previous level; run three_level_init first")
    c = workspace.startup.shifted
    y = state.y.to_flat()
    diff = y - state.y_prev.to_flat()
    g = (2.0 * cfg.epsilon) * (_residual_rhs(problem, cfg, state, phi) - c.product(diff))
    half = solve_block_lower(workspace.c1_plus, BlockVector._own(c.dims, g), workspace.diag)
    dy = solve_block_upper(workspace.c2_plus, half, workspace.diag)
    return _advanced(cfg, state, y + diff + dy.to_flat(), y_prev=state.y)


class RunObserver:
    """Hook points for per-level diagnostics during a run.

    ``prepared`` sees the run's workspace, the result of ``prepare``, before
    any level exists, so an observer can reuse its operators and factors; it
    does nothing by default.  ``initial`` and ``transition`` return a mapping
    of extra column values merged into the produced records.  ``initial``
    sees the first state that the scheme's recurrences start from (level 0
    for two-level schemes, level 1 for the three-level scheme).
    """

    def prepared(self, problem: EvolutionProblem, cfg: SchemeConfig, workspace) -> None:
        pass

    def initial(self, problem: EvolutionProblem, cfg: SchemeConfig, state: SchemeState) -> dict:
        return {}

    def transition(
        self,
        problem: EvolutionProblem,
        cfg: SchemeConfig,
        prev: SchemeState,
        new: SchemeState,
        phi: BlockVector,
    ) -> dict:
        return {}


@dataclass(frozen=True)
class RunRecord:
    n: int
    t: float
    norm_a: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunLog:
    """``states`` is None under ``keep_states=False``; ``final_state`` is kept either way."""
    config: SchemeConfig
    records: tuple[RunRecord, ...]
    states: Optional[tuple[BlockVector, ...]]
    final_state: BlockVector


class RunStepError(RuntimeError):
    """A transition failed; carries the index of the failing step."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


def _step_function(kind: SchemeKind):
    if kind is SchemeKind.WEIGHTED:
        return weighted_step
    if kind is SchemeKind.FACTORIZED:
        return factorized_step
    return three_level_step


def run(
    problem: EvolutionProblem,
    cfg: SchemeConfig,
    observers: Sequence[RunObserver] = (),
    keep_states: bool = True,
) -> RunLog:
    """March cfg.n_steps transitions from u(0) and record every level 0..n_steps."""
    workspace = prepare(problem, cfg)
    for obs in observers:
        obs.prepared(problem, cfg, workspace)
    records: list[RunRecord] = []
    states: list[BlockVector] = []

    def measured(state: SchemeState) -> SchemeState:
        """The level with A y and its A-norm attached to its state, run's own; the divergence guard.

        The one product with A per level, on the flat level: the next
        transition's residual reuses it.  The solves do not scan their
        inputs.  A has a positive diagonal, so a non-finite entry gives a
        non-finite norm, and so does a finite level too large for (Ay, y) to be
        represented: either way the run stops at the level, the initial one
        included, before any observer or transition sees it, with no warning.
        """
        a_y = BlockVector._own(state.y.dims, problem.A.product(state.y.to_flat()))
        norm_a = weighted_norm(problem.A, state.y, a_y)
        if not math.isfinite(norm_a):
            if state.n == 0:
                raise RunStepError(f"initial level v0 is not finite (A-norm {norm_a})", step=0)
            raise RunStepError(
                f"transition {state.n - 1} -> {state.n} produced a non-finite level (A-norm {norm_a})",
                step=state.n - 1,
            )
        object.__setattr__(state, "norm_a", norm_a)
        object.__setattr__(state, "a_y", a_y)
        return state

    def record(state: SchemeState, extras: dict):
        records.append(RunRecord(state.n, state.t, state.norm_a, extras))
        if keep_states:
            states.append(state.y)

    state = measured(SchemeState(0, 0.0, problem.v0))
    remaining = cfg.n_steps
    if cfg.kind is SchemeKind.THREE_LEVEL:
        record(state, {})
        try:
            state = three_level_init(problem, cfg, workspace)
        except Exception as err:
            raise RunStepError(f"startup transition 0 -> 1 failed: {err}", step=0) from err
        state = measured(state)
        remaining -= 1
    extras: dict = {}
    for obs in observers:
        extras.update(obs.initial(problem, cfg, state))
    record(state, extras)

    step = _step_function(cfg.kind)
    for _ in range(remaining):
        phi = forcing_sample(problem, cfg, state.n)
        try:
            new = step(problem, cfg, state, workspace, phi=phi)
        except Exception as err:
            raise RunStepError(f"transition {state.n} -> {state.n + 1} failed: {err}", step=state.n) from err
        new = measured(new)
        extras = {}
        for obs in observers:
            extras.update(obs.transition(problem, cfg, state, new, phi))
        record(new, extras)
        state = new
    return RunLog(cfg, tuple(records), tuple(states) if keep_states else None, state.y)
