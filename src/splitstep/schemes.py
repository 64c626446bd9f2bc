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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

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
            if name != "n_steps" and not np.isfinite(value):
                raise ValueError(f"{name}={value} must be finite")
        # compared before it is converted: an int past float range has no finiteness to test
        if not self.n_steps < 2**63 or int(self.n_steps) != self.n_steps:
            raise ValueError(f"n_steps={self.n_steps} must be finite, an integer and at most 2**63 - 1")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def stability_threshold(self) -> float:
        return 1.0 if self.kind is SchemeKind.THREE_LEVEL else 0.5

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

    @cached_property
    def _zero(self) -> BlockVector:
        flat = np.zeros(self.dims.total)
        flat.flags.writeable = False
        return BlockVector._own(self.dims, flat)

    def __call__(self, t: float) -> BlockVector:
        if not self.terms:
            return self._zero
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


@dataclass
class SchemeState:
    """Discrete state after n transitions: y approximates u(n * tau).

    ``y_prev`` is carried only by the three-level scheme from level 1 on.
    ``norm_a`` is ||y||_A and ``a_y`` the product A y where ``march`` has
    measured them: a step function's result carries neither until ``march``
    sets both, before its caller or the next step sees it.  A step reuses
    ``a_y`` for its residual instead of applying A again; given a state
    without it (a bare step call), it applies A itself.
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
    """C = B + sigma*tau*A and its factor."""

    shifted: BlockOperator
    factor: SpdFactor


@dataclass(frozen=True)
class FactorizedWorkspace:
    """A block-lower operator, its block-upper mirror and the factors of their shared diagonal blocks."""

    lower: BlockOperator
    upper: BlockOperator
    diag: DiagFactorization


@dataclass(frozen=True)
class ThreeLevelWorkspace:
    """``split`` holds the sweeps of C1 + eps E and C2 + eps E, ``startup`` C = B + sigma*tau*A."""

    split: FactorizedWorkspace
    startup: WeightedWorkspace


def _split_pair(lower: BlockOperator, upper: BlockOperator) -> FactorizedWorkspace:
    """Factor the diagonal blocks ``lower`` shares with its mirror ``upper`` and bind both sweeps."""
    diag = DiagFactorization.from_operator(lower)
    diag.sweep(lower, False)  # both sweeps bound, and checked, here
    diag.sweep(upper, True)
    return FactorizedWorkspace(lower, upper, diag)


def prepare(problem: EvolutionProblem, cfg: SchemeConfig):
    """Build the reusable per-configuration workspace for the chosen scheme."""
    st = cfg.sigma * cfg.tau
    split = None
    if cfg.kind is SchemeKind.FACTORIZED:
        if not problem.B.is_block_diagonal():
            raise SchemeInapplicableError(
                "factorized scheme needs a block-diagonal B; use the three-level scheme for coupled time derivatives"
            )
        a_split = triangular_split(problem.A)
        return _split_pair(lincomb(1.0, problem.B, st, a_split.lower), lincomb(1.0, problem.B, st, a_split.upper))
    if cfg.kind is SchemeKind.THREE_LEVEL:
        a_split, b_split = triangular_split(problem.A), triangular_split(problem.B)
        # factored before C, so where both would fail the pair's failure is reported
        split = _split_pair(
            lincomb(1.0, b_split.lower, st, a_split.lower, shift=cfg.epsilon),
            lincomb(1.0, b_split.upper, st, a_split.upper, shift=cfg.epsilon),
        )
    shifted = lincomb(1.0, problem.B, st, problem.A)
    weighted = WeightedWorkspace(shifted, factor_spd(shifted, context="B + sigma*tau*A"))
    return weighted if split is None else ThreeLevelWorkspace(split, weighted)


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
    state: SchemeState,
) -> SchemeState:
    """Startup transition for the three-level scheme, from the level-0 ``state``.

    The first level is produced by one weighted step with the same sigma and
    tau, which keeps the overall first-order accuracy and supplies the pair
    (y^1, y^0) the three-level transitions consume.  The step reuses the
    level's ``a_y`` where ``march`` has measured it.
    """
    stepped = weighted_step(problem, cfg, state, workspace.startup, forcing_sample(problem, cfg, 0))
    stepped.y_prev = state.y
    return stepped


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
    half = solve_block_lower(workspace.split.lower, BlockVector._own(c.dims, g), workspace.split.diag)
    dy = solve_block_upper(workspace.split.upper, half, workspace.split.diag)
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


@dataclass(slots=True)
class RunRecord:
    n: int
    t: float
    norm_a: float
    extras: dict


@dataclass(frozen=True)
class RunLog:
    """``states`` is None under ``keep_states=False``; ``final_state`` is kept either way."""
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


def march(
    problem: EvolutionProblem, cfg: SchemeConfig, workspace=None
) -> Iterator[tuple[Optional[BlockVector], SchemeState]]:
    """Yield ``(phi, state)`` for every level 0..cfg.n_steps, holding only the newest level.

    ``phi`` is the forcing sample of the transition that made the level, None
    for level 0 and for the three-level startup level; ``workspace`` is that of
    ``prepare``, made here when not given.  Each level is measured: A y and its
    A-norm are attached to its state, the one product with A per level, which
    the next transition's residual reuses.  That is also the divergence guard.
    The solves do not scan their inputs, but A has a positive diagonal, so a
    non-finite entry gives a non-finite norm, and so does a finite level too
    large for (Ay, y) to be represented: either way ``RunStepError`` stops the
    march at the level, the initial one included, before any caller or
    transition sees it, with no warning.  A failed transition raises it too.
    """
    if workspace is None:
        workspace = prepare(problem, cfg)
    state, phi = SchemeState(0, 0.0, problem.v0), None
    step = _step_function(cfg.kind)
    while True:
        a_y = BlockVector._own(state.y.dims, problem.A.product(state.y.to_flat()))
        norm_a = weighted_norm(problem.A, state.y, a_y)
        if not math.isfinite(norm_a):
            if state.n == 0:
                raise RunStepError(f"initial level v0 is not finite (A-norm {norm_a})", step=0)
            raise RunStepError(
                f"transition {state.n - 1} -> {state.n} produced a non-finite level (A-norm {norm_a})",
                step=state.n - 1,
            )
        state.norm_a, state.a_y = norm_a, a_y
        yield phi, state
        if state.n == cfg.n_steps:
            return
        startup = cfg.kind is SchemeKind.THREE_LEVEL and state.n == 0
        phi = None if startup else forcing_sample(problem, cfg, state.n)
        try:
            if startup:
                state = three_level_init(problem, cfg, workspace, state)
            else:
                state = step(problem, cfg, state, workspace, phi=phi)
        except Exception as err:
            name = "startup transition" if startup else "transition"
            raise RunStepError(f"{name} {state.n} -> {state.n + 1} failed: {err}", step=state.n) from err


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
    first, prev = (1 if cfg.kind is SchemeKind.THREE_LEVEL else 0), None
    for phi, state in march(problem, cfg, workspace):
        extras: dict = {}
        for obs in observers:
            if phi is not None:
                extras.update(obs.transition(problem, cfg, prev, state, phi))
            elif state.n == first:
                extras.update(obs.initial(problem, cfg, state))
        records.append(RunRecord(state.n, state.t, state.norm_a, extras))
        if keep_states:
            states.append(state.y)
        prev = state
    return RunLog(tuple(records), tuple(states) if keep_states else None, prev.y)
