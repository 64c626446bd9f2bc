import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
import scipy.sparse._base as sp_base
from hypothesis import given, strategies as st

from splitstep import (
    BlockDims,
    BlockOperator,
    BlockVector,
    CertificateError,
    EnergyObserver,
    EstimateObserver,
    EvolutionProblem,
    ExponentialSumForcing,
    NotPositiveDefiniteError,
    RunObserver,
    RunStepError,
    SchemeConfig,
    SchemeState,
    SolveFailureError,
    SpdFactor,
    UnsupportedForcingError,
    build_coupled_diffusion,
    compare_schemes,
    constant_forcing,
    convergence_study,
    example_coupled_spec,
    example_porosity_spec,
    forcing_sample,
    manufactured_problem,
    prepare,
    reference_solution,
    run,
    run_slacks,
    tiny_step_reference,
    weighted_norm,
    weighted_step,
    zero_forcing,
)
from splitstep import linsolve, schemes, verify
from splitstep.verify import CompareReport, CompareRow

from helpers import (
    dense_diff_weight,
    dense_forcing_solve,
    dense_run_slacks,
    dense_three_level_energy,
    factorized_operator_dense,
    factorized_operator_identity_error,
    factorized_operator_psd_margin,
    longdouble_three_level_energy,
    modal_diff_weight_margin,
    modal_forcing_term,
    modal_three_level_energy,
    random_problem,
    random_smooth_forcing,
    scalar_problem,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def observed(observer, prob, cfg, state=None):
    """``observer`` after ``prepared`` and ``initial`` on ``state``, by default
    level 0, as ``run`` calls them."""
    observer.prepared(prob, cfg, prepare(prob, cfg))
    observer.initial(prob, cfg, state or SchemeState(0, 0.0, prob.v0))
    return observer


def observed_margin(prob, cfg):
    """``diff_weight_margin`` of an observer prepared with a fresh workspace, as ``run`` prepares it."""
    obs = EnergyObserver()
    obs.prepared(prob, cfg, prepare(prob, cfg))
    return obs.diff_weight_margin()


def scalar(value):
    return BlockVector.from_parts(BlockDims((1,)), ([value],))


class TestTwoLevelEstimate:
    """The weighted and factorized schemes' estimate, as ``EstimateObserver`` checks it."""

    def test_rejects_wrong_kind(self):
        prob = scalar_problem()
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=1)
        with pytest.raises(ValueError, match="does not apply"):
            observed(EstimateObserver(), prob, cfg)

    def test_scalar_slack_without_forcing(self):
        # sigma = 1/2 makes W = B, phi = 0, y0 = 1 -> y1 = 9/11:
        # slack = 2*1 - 2*(9/11)^2 = 80/121
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=1)
        s0 = SchemeState(0, 0.0, prob.v0)
        s1 = weighted_step(prob, cfg, s0, prepare(prob, cfg), forcing_sample(prob, cfg, 0))
        phi = BlockVector.zeros(prob.dims)
        obs = observed(EstimateObserver(), prob, cfg)
        assert obs.initial_energy == pytest.approx(2.0, abs=1e-15)
        slack = obs.transition(prob, cfg, s0, s1, phi)["slack"]
        assert slack == pytest.approx(80.0 / 121.0, abs=1e-14)
        assert obs.min_slack == slack

    def test_scalar_forcing_term_at_half_weight(self):
        # W collapses to B at sigma = 1/2: (tau/2) phi^2 / b
        prob = scalar_problem(a=2.0, b=2.0, v0=1.0, forcing=constant_forcing(scalar(3.0)))
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=1)
        obs = observed(EstimateObserver(), prob, cfg)
        assert obs.forcing_term(0) == pytest.approx(0.225, abs=1e-15)

    def test_factorized_weight_matches_expanded_operator(self):
        rng = np.random.default_rng(13)
        prob = random_problem(rng, diag_b=True)
        cfg = SchemeConfig("factorized", sigma=0.75, tau=0.2, n_steps=1)
        obs = observed(EstimateObserver(), prob, cfg)
        _, expanded = factorized_operator_dense(prob, cfg)
        w = expanded - 0.5 * cfg.tau * prob.A.to_dense()
        for n in range(3):
            f = forcing_sample(prob, cfg, n).to_flat()
            want = 0.5 * cfg.tau * float(f @ np.linalg.solve(w, f))
            assert obs.forcing_term(n) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("kind", ["weighted", "factorized"])
    def test_indefinite_weight_raises(self, kind):
        # sigma = 0 and a large step push W = B - tau/2 A below zero: W = -1
        # for both kinds; the factorized W meets it as CG curvature
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0, forcing=constant_forcing(scalar(1.0)))
        cfg = SchemeConfig(kind, sigma=0.0, tau=2.0, n_steps=1)
        with pytest.raises(NotPositiveDefiniteError):
            observed(EstimateObserver(), prob, cfg)

    def test_zero_forcing_skips_the_solve(self, monkeypatch):
        # the default forcing of build_coupled_diffusion: the bound is the last
        # energy itself, with no solve and not even a rounding-level term
        prob = build_coupled_diffusion(example_coupled_spec(p=2, m=9))
        cfg = SchemeConfig("factorized", sigma=0.75, tau=0.1, n_steps=4)
        log = run(prob, cfg, observers=(EstimateObserver(),))
        norms = [rec.norm_a for rec in log.records]
        for n, rec in enumerate(log.records[1:]):
            assert rec.extras["slack"] == norms[n] ** 2 - norms[n + 1] ** 2

        def no_solve(self, rhs):
            raise AssertionError("solved with a zero right-hand side")

        # a term whose vector is zero is skipped: no solve, no CG iteration
        monkeypatch.setattr(SpdFactor, "solve", no_solve)
        zero_term = ExponentialSumForcing(prob.dims, ((-1.0, BlockVector.zeros(prob.dims)),))
        obs = observed(EstimateObserver(), replace(prob, forcing=zero_term), cfg)
        assert obs.forcing_term(0) == 0.0

    def test_cg_out_of_budget_is_a_solve_failure(self, monkeypatch):
        # one CG iteration cannot solve with the factorized weight W = P - (tau/2) A
        monkeypatch.setattr(verify, "_CG_BUDGET", 1)
        prob = random_problem(np.random.default_rng(16), diag_b=True)
        cfg = SchemeConfig("factorized", sigma=1.0, tau=0.2, n_steps=1)
        with pytest.raises(SolveFailureError, match="estimate weight: CG did not converge in 1 iterations"):
            EstimateObserver().assemble(prob, cfg, prepare(prob, cfg))

    def test_class_and_function_agree(self):
        # the observer's streaming slack and the recomputation from a run's states
        rng = np.random.default_rng(14)
        prob = random_problem(rng)
        cfg = SchemeConfig("weighted", sigma=0.8, tau=0.05, n_steps=1)
        s0 = SchemeState(0, 0.0, prob.v0)
        s1 = weighted_step(prob, cfg, s0, prepare(prob, cfg), forcing_sample(prob, cfg, 0))
        phi = prob.forcing(cfg.sigma * cfg.tau)
        streamed = observed(EstimateObserver(), prob, cfg).transition(prob, cfg, s0, s1, phi)["slack"]
        (recomputed,) = run_slacks(prob, cfg, run(prob, cfg))
        assert streamed == pytest.approx(recomputed, rel=1e-14)


class TestThreeLevelEstimate:
    """The three-level scheme's energy estimate, as ``EnergyObserver`` checks it."""

    scalar_cfg = dict(sigma=1.0, tau=0.1, n_steps=2, epsilon=1.0)

    def test_rejects_wrong_kind(self):
        prob = scalar_problem()
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=1)
        with pytest.raises(ValueError, match="does not apply"):
            EnergyObserver().assemble(prob, cfg, prepare(prob, cfg))

    def test_scalar_difference_weight(self):
        # C1 = C2 = 0.5 + 0.1 = 0.6, D = 0.05 * (0.36 + 1) = 0.068,
        # R = 0.068 - 0.0025 * 2 = 0.063; G = C1 + eps = 1.6, so mu = R / G^2
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("three_level", **self.scalar_cfg)
        obs = EnergyObserver()
        obs.assemble(prob, cfg, prepare(prob, cfg))
        assert dense_diff_weight(prob, cfg)[0, 0] == pytest.approx(0.063, abs=1e-15)
        assert obs.diff_weight_margin() == pytest.approx(0.063 / 1.6**2, abs=1e-15)

    def test_diff_weight_margin_matches_modal_at_m31(self):
        # below SPARSE_MIN_ORDER, in and out of hypothesis
        spec = example_porosity_spec(p=2, m=31)
        prob = build_coupled_diffusion(spec)
        for sigma in (0.25, 0.5, 1.0):
            for tau in (0.01, 0.1, 1.0):
                cfg = SchemeConfig("three_level", sigma=sigma, tau=tau, n_steps=2)
                mu = observed_margin(prob, cfg)
                assert mu == pytest.approx(modal_diff_weight_margin(spec, cfg), rel=1e-12)

    def test_scalar_energy_ladder(self):
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("three_level", **self.scalar_cfg)
        one = prob.v0
        state = SchemeState(1, 0.1, one, y_prev=one)
        obs = observed(EnergyObserver(), prob, cfg, state)
        assert obs.initial_energy == pytest.approx(2.0, abs=1e-14)

        from splitstep import three_level_step

        out = three_level_step(prob, cfg, state, prepare(prob, cfg), forcing_sample(prob, cfg, 1))
        # y2 = 27/32: E2 = 2 (59/64)^2 + 0.063 (25/16)^2
        extras = obs.transition(prob, cfg, state, out, BlockVector.zeros(prob.dims))
        assert extras["energy"] == pytest.approx(1.853515625, abs=1e-13)
        assert extras["slack"] == pytest.approx(0.146484375, abs=1e-13)

    def test_energy_special_shapes(self):
        rng = np.random.default_rng(15)
        prob = random_problem(rng, diag_b=False, forced=False)
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.2, n_steps=2)
        obs = EnergyObserver()
        obs.assemble(prob, cfg, prepare(prob, cfg))
        v = prob.v0
        # flat history: only the mean term survives
        assert obs.energy(SchemeState(1, cfg.tau, v, y_prev=v)) == pytest.approx(
            weighted_norm(prob.A, v) ** 2, rel=1e-12
        )
        # antisymmetric history: only the difference term survives
        r = dense_diff_weight(prob, cfg)
        rate = (2.0 / cfg.tau) * v.to_flat()
        assert obs.energy(SchemeState(1, cfg.tau, v, y_prev=-1.0 * v)) == pytest.approx(
            float(rate @ r @ rate), rel=1e-12
        )

    def test_slack_needs_history(self):
        prob = scalar_problem()
        cfg = SchemeConfig("three_level", **self.scalar_cfg)
        with pytest.raises(ValueError, match="previous level"):
            observed(EnergyObserver(), prob, cfg, SchemeState(1, 0.1, prob.v0))

    def test_non_finite_energy_stops_the_run_at_its_level(self):
        # eps^2 overflows at eps = 1e200: the energy of level 1 is inf, which
        # would leave min_slack at inf (min(inf, nan) is inf) and pass silently
        prob = build_coupled_diffusion(example_porosity_spec(p=2, m=9))
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=3, epsilon=1e200)
        with pytest.raises(RunStepError, match=r"^the estimate energy of level 1 is not finite \(inf\)$") as exc_info:
            run(prob, cfg, observers=(EnergyObserver(),))
        assert exc_info.value.step == 0

    @pytest.mark.parametrize("m", [9, 127])
    def test_non_finite_diff_weight_is_unresolved_before_any_solve(self, monkeypatch, m):
        # tau^2 overflows at tau = 1e200, so M = (tau/2) C + (tau^2/4) A is not finite;
        # m = 9 takes the dense branch, m = 127 the Lanczos one
        prob = build_coupled_diffusion(example_porosity_spec(p=2, m=m))
        cfg = SchemeConfig("three_level", sigma=1.0, tau=1e200, n_steps=2)
        obs = EnergyObserver()
        obs.prepared(prob, cfg, prepare(prob, cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("solved with or eigen-solved a non-finite M")

        monkeypatch.setattr(np.linalg, "inv", no_solve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_solve)
        with np.errstate(over="ignore", invalid="ignore"):
            assert obs.diff_weight_margin() is None


class TestFactorizedOperatorChecks:
    def test_scalar_psd_margin_is_exact_square(self):
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("factorized", sigma=1.0, tau=0.1, n_steps=1)
        # gap = (sigma tau)^2 A1 B^{-1} A2 = 0.01 * 1 * 1 * 1
        assert factorized_operator_psd_margin(prob, cfg) == pytest.approx(0.01, abs=1e-15)

    @given(seeds)
    def test_identity_and_margin_random(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, diag_b=True)
        sigma = float(rng.uniform(0.1, 1.0))
        tau = float(rng.choice([0.01, 0.1, 1.0]))
        cfg = SchemeConfig("factorized", sigma=sigma, tau=tau, n_steps=1)
        assert factorized_operator_identity_error(prob, cfg) <= 1e-13
        _, expanded = factorized_operator_dense(prob, cfg)
        scale = float(np.abs(expanded).max())
        assert factorized_operator_psd_margin(prob, cfg) >= -1e-12 * scale


class TestObserversAgainstReplay:
    def test_weighted_observer_matches_replay(self):
        rng = np.random.default_rng(16)
        prob = random_problem(rng)
        cfg = SchemeConfig("weighted", sigma=0.75, tau=0.05, n_steps=8)
        obs = EstimateObserver()
        log = run(prob, cfg, observers=(obs,))
        streamed = [rec.extras["slack"] for rec in log.records[1:]]
        replayed = run_slacks(prob, cfg, log)
        assert len(streamed) == 8
        np.testing.assert_allclose(streamed, replayed, rtol=1e-10, atol=1e-12)
        assert obs.min_slack == pytest.approx(min(replayed), rel=1e-10)
        assert all("energy" not in rec.extras for rec in log.records)

    def test_factorized_observer_matches_replay(self):
        rng = np.random.default_rng(17)
        prob = random_problem(rng, diag_b=True)
        cfg = SchemeConfig("factorized", sigma=0.5, tau=0.05, n_steps=6)
        obs = EstimateObserver()
        log = run(prob, cfg, observers=(obs,))
        replayed = run_slacks(prob, cfg, log)
        np.testing.assert_allclose([rec.extras["slack"] for rec in log.records[1:]], replayed,
                                   rtol=1e-10, atol=1e-12)

    def test_three_level_observer_matches_replay(self):
        rng = np.random.default_rng(18)
        prob = random_problem(rng, diag_b=False)
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.05, n_steps=7)
        obs = EnergyObserver()
        log = run(prob, cfg, observers=(obs,))
        streamed = [rec.extras["slack"] for rec in log.records[2:]]
        replayed = run_slacks(prob, cfg, log)
        assert len(streamed) == 6
        np.testing.assert_allclose(streamed, replayed, rtol=1e-10, atol=1e-12)
        level_one = SchemeState(1, cfg.tau, log.states[1], y_prev=log.states[0])
        assert obs.initial_energy == pytest.approx(obs.energy(level_one), rel=1e-12)
        assert log.records[1].extras == {"energy": obs.initial_energy}
        assert all("energy" in rec.extras for rec in log.records[1:])

    def test_replay_needs_states(self):
        prob = scalar_problem()
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=2)
        log = run(prob, cfg, keep_states=False)
        with pytest.raises(ValueError, match="keep_states"):
            run_slacks(prob, cfg, log)
        cfg3 = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=2)
        log3 = run(prob, cfg3, keep_states=False)
        with pytest.raises(ValueError, match="keep_states"):
            run_slacks(prob, cfg3, log3)


@pytest.mark.parametrize(
    "kind, sigma, diag_b", [("weighted", 0.75, False), ("factorized", 0.5, True), ("three_level", 1.0, False)]
)
def test_one_energy_evaluation_per_level(monkeypatch, kind, sigma, diag_b):
    # the observer carries the last level's energy into the next transition
    evaluated = []
    for cls in (EstimateObserver, EnergyObserver):
        real_energy = cls.energy

        def counting_energy(self, state, real_energy=real_energy):
            evaluated.append(state.n)
            return real_energy(self, state)

        monkeypatch.setattr(cls, "energy", counting_energy)
    prob = random_problem(np.random.default_rng(19), diag_b=diag_b)
    cfg = SchemeConfig(kind, sigma=sigma, tau=0.05, n_steps=6)
    obs = EnergyObserver() if kind == "three_level" else EstimateObserver()
    run(prob, cfg, observers=(obs,), keep_states=False)
    first = 1 if kind == "three_level" else 0
    assert evaluated == list(range(first, cfg.n_steps + 1))


@pytest.mark.parametrize(
    "kind, sigma, diag_b", [("weighted", 0.75, False), ("factorized", 0.5, True), ("three_level", 1.0, False)]
)
def test_transitions_make_no_solve(monkeypatch, kind, sigma, diag_b):
    # every forcing term is solved for once, in initial; a transition only
    # sums the K-by-K terms
    prob = random_problem(np.random.default_rng(24), diag_b=diag_b)
    cfg = SchemeConfig(kind, sigma=sigma, tau=0.05, n_steps=6)
    states = run(prob, cfg).states
    first = 1 if kind == "three_level" else 0
    levels = [
        SchemeState(n, n * cfg.tau, states[n], states[n - 1] if first else None)
        for n in range(first, cfg.n_steps + 1)
    ]
    obs = observed(EnergyObserver() if first else EstimateObserver(), prob, cfg, levels[0])
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    # a factor solves into a new array when called, in place inside a sweep
    monkeypatch.setattr(SpdFactor, "__call__", counted("solve", SpdFactor.__call__))
    monkeypatch.setattr(SpdFactor, "_solve_in_place", counted("solve", SpdFactor._solve_in_place))
    for module in (linsolve, schemes, verify):
        for name in ("solve_block_lower", "solve_block_upper"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for prev, new in zip(levels, levels[1:]):
        obs.transition(prob, cfg, prev, new, forcing_sample(prob, cfg, prev.n))
    assert calls == []
    run(prob, cfg, keep_states=False)  # the counters do see the scheme's solves
    assert "solve" in calls


CERTIFIED_RUNS = [("weighted", 0.5), ("factorized", 0.5), ("three_level", 1.0)]


def _certified_problem(kind: str, m: int) -> EvolutionProblem:
    spec = (example_porosity_spec if kind == "three_level" else example_coupled_spec)(p=2, m=m)
    return manufactured_problem(spec).problem


class _AfterInitial(RunObserver):
    """Sets ``flag[0]`` once ``initial`` has run, for an observer placed last."""

    def __init__(self, flag):
        self.flag = flag

    def initial(self, problem, cfg, state):
        self.flag[0] = True
        return {}


@pytest.mark.parametrize("m", [31, 64])
@pytest.mark.parametrize("kind, sigma", CERTIFIED_RUNS)
def test_transitions_make_no_scipy_matmul(monkeypatch, kind, sigma, m):
    # every per-step product, the observers' energies included, goes through
    # blockops.Product; N = 62 factors the observer weights dense, N = 128 banded
    prob = _certified_problem(kind, m)
    first = 1 if kind == "three_level" else 0
    cfg = SchemeConfig(kind, sigma=sigma, tau=1 / 64, n_steps=first + 6)
    counting, calls = [False], []
    for name in ("__matmul__", "__rmatmul__"):
        real = getattr(sp_base._spbase, name)

        def counted(self, other, real=real, name=name):
            if counting[0]:
                calls.append(name)
            return real(self, other)

        monkeypatch.setattr(sp_base._spbase, name, counted)
    obs = EnergyObserver() if first else EstimateObserver()
    log = run(prob, cfg, observers=(obs, _AfterInitial(counting)), keep_states=False)
    assert counting[0] and len(log.records) == cfg.n_steps + 1
    assert all("slack" in rec.extras for rec in log.records[first + 1 :])
    assert calls == []


def test_certified_three_level_run_makes_no_scipy_matmul(monkeypatch):
    # the energy is read off the workspace's operators and R is never
    # assembled: no sparse product at N = 128 (CSR), initial included
    prob = _certified_problem("three_level", 64)
    cfg = SchemeConfig("three_level", sigma=1.0, tau=1 / 64, n_steps=7)
    calls = []
    for name in ("__matmul__", "__rmatmul__"):
        real = getattr(sp_base._spbase, name)

        def counted(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(sp_base._spbase, name, counted)
    obs = EnergyObserver()
    log = run(prob, cfg, observers=(obs,), keep_states=False)
    assert len(log.records) == cfg.n_steps + 1 and math.isfinite(obs.min_slack)
    assert calls == []


@pytest.mark.parametrize("kind, sigma", CERTIFIED_RUNS)
def test_certified_run_prepares_once(monkeypatch, kind, sigma):
    # the observers take their operators and factors from the run's workspace
    prepared, contexts = [], []

    def counted_prepare(problem, cfg, real=schemes.prepare):
        prepared.append(cfg.kind)
        return real(problem, cfg)

    def counted_factor(matrix, context="matrix", real=linsolve.factor_spd):
        contexts.append(context)
        return real(matrix, context=context)

    for module in (schemes, verify):
        monkeypatch.setattr(module, "prepare", counted_prepare)
        monkeypatch.setattr(module, "factor_spd", counted_factor)
    prob = _certified_problem(kind, 31)
    cfg = SchemeConfig(kind, sigma=sigma, tau=1 / 64, n_steps=4)
    obs = EnergyObserver() if kind == "three_level" else EstimateObserver()
    run(prob, cfg, observers=(obs,), keep_states=False)
    assert math.isfinite(obs.min_slack) and len(prepared) == 1
    assert contexts.count("B + sigma*tau*A") == (0 if kind == "factorized" else 1)


@pytest.mark.parametrize(
    "observer, kind",
    [(EstimateObserver, "weighted"), (EstimateObserver, "factorized"), (EnergyObserver, "three_level")],
)
def test_opaque_forcing_is_unsupported(observer, kind):
    # the forcing term is summed from the terms of an exponential-sum forcing
    prob = scalar_problem()
    opaque = replace(prob, forcing=lambda t: prob.forcing(t))
    cfg = SchemeConfig(kind, sigma=1.0, tau=0.1, n_steps=2)
    state = SchemeState(1, 0.1, prob.v0, y_prev=prob.v0)
    with pytest.raises(UnsupportedForcingError, match="exponential-sum"):
        observed(observer(), opaque, cfg, state)


@pytest.mark.parametrize("observer, kind", [(EstimateObserver, "weighted"), (EnergyObserver, "three_level")])
def test_initial_before_prepared_is_rejected(observer, kind):
    prob = scalar_problem()
    cfg = SchemeConfig(kind, sigma=1.0, tau=0.1, n_steps=2)
    state = SchemeState(1, 0.1, prob.v0, y_prev=prob.v0)
    with pytest.raises(ValueError, match="prepared must come before initial"):
        observer().initial(prob, cfg, state)


def test_diff_weight_before_prepared_is_rejected():
    with pytest.raises(ValueError, match="prepared must come first"):
        EnergyObserver().diff_weight_margin()


SPARSE_ORACLE_GRIDS = [(2, 31), (4, 255)]


@pytest.mark.parametrize("p, m", SPARSE_ORACLE_GRIDS)
@pytest.mark.parametrize("sigma", [0.5, 1.0])
@pytest.mark.parametrize("kind", ["weighted", "factorized", "three_level"])
def test_slacks_match_dense_oracle(kind, sigma, p, m):
    # the streaming slacks and run_slacks against the dense weights, on the
    # dense storage (N = 62) and the sparse one (N = 1020); relative to the
    # initial energy, the scale of the -1e-10 slack bar
    spec = (example_porosity_spec if kind == "three_level" else example_coupled_spec)(p=p, m=m)
    rng = np.random.default_rng(23)
    prob = build_coupled_diffusion(spec, forcing=random_smooth_forcing(rng, spec.dims))
    cfg = SchemeConfig(kind, sigma=sigma, tau=1.0 / 32, n_steps=8)
    obs = EnergyObserver() if kind == "three_level" else EstimateObserver()
    log = run(prob, cfg, observers=(obs,))
    first = 2 if kind == "three_level" else 1
    streamed = [rec.extras["slack"] for rec in log.records[first:]]
    dense = dense_run_slacks(prob, cfg, log)
    assert len(streamed) == len(dense) == cfg.n_steps + 1 - first
    atol = 1e-10 * obs.initial_energy
    np.testing.assert_allclose(streamed, dense, rtol=0, atol=atol)
    np.testing.assert_allclose(run_slacks(prob, cfg, log), dense, rtol=0, atol=atol)


class TestSparseObservers:
    """Above ``SPARSE_MIN_ORDER`` the observers hold sparse weights."""

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0])
    def test_diff_weight_margin_at_m4095_matches_modal(self, sigma):
        # the Lanczos branch; sigma = 1/4 gives an indefinite R, and so a negative
        # margin, directly; the margin is within 3e-10 of the per-mode value
        spec = example_porosity_spec(p=2, m=4095)
        prob = build_coupled_diffusion(spec)
        for tau in (0.01, 1.0):
            cfg = SchemeConfig("three_level", sigma=sigma, tau=tau, n_steps=2)
            mu = observed_margin(prob, cfg)
            assert mu == pytest.approx(modal_diff_weight_margin(spec, cfg), rel=1e-9)
            assert (mu < 0.0) == (sigma < 0.5)

    @pytest.mark.parametrize("tau", [0.01, 1.0])
    def test_diff_weight_margin_at_m65535_matches_modal(self, tau):
        # R's entries reach about 2e19 at tau = 1; the margin is within 3e-8 of the per-mode value
        spec = example_porosity_spec(p=2, m=65_535)
        cfg = SchemeConfig("three_level", sigma=1.0, tau=tau, n_steps=2)
        mu = observed_margin(build_coupled_diffusion(spec), cfg)
        assert mu == pytest.approx(modal_diff_weight_margin(spec, cfg), rel=1e-7)

    @pytest.mark.parametrize(
        "kind, sigma, spec, tau",
        [
            ("weighted", 0.5, example_coupled_spec, 1 / 128),
            ("factorized", 0.5, example_coupled_spec, 1 / 128),
            ("three_level", 1.0, example_porosity_spec, 1 / 128),
            # an assembled factorized W did not factor here: cond(W) is past 1/eps
            ("factorized", 0.5, example_coupled_spec, 1 / 8),
        ],
        ids=[
            "weighted-0.5-example_coupled_spec",
            "factorized-0.5-example_coupled_spec",
            "three_level-1.0-example_porosity_spec",
            "factorized-0.5-example_coupled_spec-tau0.125",
        ],
    )
    def test_certified_run_at_m65535_never_densifies(self, monkeypatch, kind, sigma, spec, tau):
        prob = manufactured_problem(spec(p=2, m=65_535)).problem

        def refuse(*args, **kwargs):
            raise AssertionError("densified above the sparse crossover")

        monkeypatch.setattr(BlockOperator, "to_dense", refuse)
        for cls in (sp.csr_array, sp.csc_array, sp.coo_array, sp.dia_array, sp.csr_matrix, sp.csc_matrix):
            monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        cfg = SchemeConfig(kind, sigma=sigma, tau=tau, n_steps=8)
        obs = EnergyObserver() if kind == "three_level" else EstimateObserver()
        run(prob, cfg, observers=(obs,), keep_states=False)
        assert obs.min_slack >= -1e-10 * obs.initial_energy

    @pytest.mark.parametrize("sigma, tau", [(0.5, 1 / 128), (1.0, 1 / 64), (0.5, 1 / 8)])
    def test_factorized_forcing_term_at_m65535_is_modal(self, sigma, tau):
        spec = example_coupled_spec(p=2, m=65_535)
        prob = manufactured_problem(spec).problem
        cfg = SchemeConfig("factorized", sigma=sigma, tau=tau, n_steps=8)
        obs = observed(EstimateObserver(), prob, cfg)
        assert obs.forcing_term(0) == pytest.approx(modal_forcing_term(spec, sigma, tau), rel=1e-6)

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_dense_oracle_forcing_term_is_modal(self, sigma):
        # the assembled dense W alone is 8e-11 to 1e-10 off here; refined
        # against W in factored form it meets the modal value
        spec = example_coupled_spec(p=2, m=255)
        prob = manufactured_problem(spec).problem
        cfg = SchemeConfig("factorized", sigma=sigma, tau=1 / 32, n_steps=8)
        f = forcing_sample(prob, cfg, 0).to_flat()
        got = 0.5 * cfg.tau * float(f @ dense_forcing_solve(prob, cfg)(f))
        assert got == pytest.approx(modal_forcing_term(spec, sigma, cfg.tau), rel=1e-12)


    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_dense_oracle_energy_is_longdouble_exact(self, sigma):
        # the factored dense energy against the defining form in extended
        # precision; the assembled dense R alone is 2e-10 off here
        spec = example_porosity_spec(p=4, m=255)
        prob = build_coupled_diffusion(spec, forcing=random_smooth_forcing(np.random.default_rng(23), spec.dims))
        cfg = SchemeConfig("three_level", sigma=sigma, tau=1.0 / 32, n_steps=8)
        levels = [y.to_flat() for y in run(prob, cfg).states]
        oracle, exact = dense_three_level_energy(prob, cfg), longdouble_three_level_energy(prob, cfg)
        for y, y_prev in zip(levels[1:], levels):
            assert oracle(y, y_prev) == pytest.approx(exact(y, y_prev), rel=1e-12)

    @pytest.mark.parametrize("tau", [0.1, 1.0])
    def test_three_level_energy_at_m65535_is_modal(self, tau):
        # every level stays in the first sine mode, so each energy comes from
        # 2-by-2 tables; the assembled R was 39% (tau = 0.1) to 130x (tau = 1) off
        spec = example_porosity_spec(p=2, m=65_535)
        prob = manufactured_problem(spec).problem
        cfg = SchemeConfig("three_level", sigma=1.0, tau=tau, n_steps=8)
        obs = EnergyObserver()
        log = run(prob, cfg, observers=(obs,))
        levels = [y.to_flat() for y in log.states]
        for n in range(1, cfg.n_steps + 1):
            want = modal_three_level_energy(spec, cfg, levels[n], levels[n - 1])
            assert log.records[n].extras["energy"] == pytest.approx(want, rel=1e-7)
        assert obs.min_slack >= -1e-10 * obs.initial_energy


class TestReferenceSolution:
    def test_requires_exponential_sum(self):
        dims = BlockDims((1,))
        prob = EvolutionProblem(
            A=BlockOperator.identity(dims),
            B=BlockOperator.identity(dims),
            forcing=lambda t: BlockVector.from_parts(dims, ([t],)),
            v0=BlockVector.from_parts(dims, ([1.0],)),
            T=1.0,
        )
        with pytest.raises(UnsupportedForcingError):
            reference_solution(prob, 0.5)

    def test_scalar_decay(self):
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        got = reference_solution(prob, 0.7).parts[0][0]
        assert got == pytest.approx(math.exp(-1.4), rel=1e-14)

    def test_scalar_constant_forcing(self):
        dims = BlockDims((1,))
        prob = scalar_problem(
            a=2.0, b=1.0, v0=1.0,
            forcing=constant_forcing(BlockVector.from_parts(dims, ([3.0],))),
        )
        got = reference_solution(prob, 0.8).parts[0][0]
        assert got == pytest.approx(1.5 - 0.5 * math.exp(-1.6), rel=1e-14)

    def test_resonant_forcing(self):
        # forcing rate equal to -lambda: u(t) = (1 + t) exp(-t)
        dims = BlockDims((1,))
        forcing = ExponentialSumForcing(dims, ((-1.0, BlockVector.from_parts(dims, ([1.0],))),))
        prob = scalar_problem(a=1.0, b=1.0, v0=1.0, forcing=forcing)
        got = reference_solution(prob, 1.3).parts[0][0]
        assert got == pytest.approx(2.3 * math.exp(-1.3), rel=1e-13)

    def test_near_resonance_is_continuous(self):
        dims = BlockDims((1,))
        exact = 2.3 * math.exp(-1.3)
        for delta in (1e-7, 1e-9, 1e-12):
            forcing = ExponentialSumForcing(dims, ((-1.0 + delta, BlockVector.from_parts(dims, ([1.0],))),))
            prob = scalar_problem(a=1.0, b=1.0, v0=1.0, forcing=forcing)
            got = reference_solution(prob, 1.3).parts[0][0]
            assert got == pytest.approx(exact, rel=1e-5)

    def test_time_zero_returns_initial_data(self):
        rng = np.random.default_rng(19)
        prob = random_problem(rng)
        got = reference_solution(prob, 0.0)
        assert (got - prob.v0).norm() <= 1e-12 * max(1.0, prob.v0.norm())

    def test_matched_operators_decay_componentwise(self):
        rng = np.random.default_rng(20)
        prob = random_problem(rng, forced=False)
        matched = EvolutionProblem(A=prob.A, B=prob.A, forcing=zero_forcing(prob.dims),
                                   v0=prob.v0, T=1.0)
        got = reference_solution(matched, 0.9)
        want = math.exp(-0.9) * prob.v0
        assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())

    def test_negative_spectrum_is_rejected(self):
        dims = BlockDims((1,))
        prob = EvolutionProblem(
            A=BlockOperator.identity(dims, -1.0),
            B=BlockOperator.identity(dims),
            forcing=zero_forcing(dims),
            v0=BlockVector.from_parts(dims, ([1.0],)),
            T=1.0,
        )
        with pytest.raises(CertificateError, match="spectrum"):
            reference_solution(prob, 0.5)

    def test_matches_manufactured_exact(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=9))
        got = reference_solution(manu.problem, 0.6)
        want = manu.exact(0.6)
        assert (got - want).norm() <= 1e-11 * max(1.0, want.norm())

    @given(seeds)
    def test_modal_and_tiny_step_routes_agree(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, T=0.5)
        modal = reference_solution(prob, 0.5)
        stepped = tiny_step_reference(prob, 0.5, tau_ref=1e-3)
        scale = max(1.0, modal.norm())
        assert (modal - stepped).norm() <= 1e-4 * scale


class TestTinyStepReference:
    def test_time_zero_is_initial_data(self):
        prob = scalar_problem()
        assert tiny_step_reference(prob, 0.0, 1e-3) is prob.v0

    def test_scalar_accuracy(self):
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        got = tiny_step_reference(prob, 1.0, 1e-4).parts[0][0]
        assert got == pytest.approx(math.exp(-2.0), abs=1e-7)

    def test_failed_level_raises_with_its_step(self):
        # the forcing turns NaN past t = 1/2: transition 32 samples it at t = 32.5/64
        base = manufactured_problem(example_coupled_spec(2, 15)).problem
        nan = BlockVector(base.dims, np.full(base.dims.total, np.nan))
        prob = replace(base, forcing=lambda t: nan if t > 0.5 else base.forcing(t))
        with pytest.raises(RunStepError) as info:
            tiny_step_reference(prob, prob.T, tau_ref=1 / 64)
        assert info.value.step == 32


class TestConvergenceStudy:
    taus = (0.25, 0.125, 0.0625)

    def test_weighted_half_is_second_order(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=9))
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.25, n_steps=4)
        report = convergence_study(manu.problem, cfg, self.taus)
        assert [row.tau for row in report.rows] == [0.25, 0.125, 0.0625]
        assert [row.n_steps for row in report.rows] == [4, 8, 16]
        assert report.rows[0].order is None
        assert report.rows[0].error_a > report.rows[1].error_a > report.rows[2].error_a
        assert 1.8 <= report.finest_order <= 2.2

    def test_weighted_implicit_is_first_order(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=9))
        cfg = SchemeConfig("weighted", sigma=1.0, tau=0.25, n_steps=4)
        report = convergence_study(manu.problem, cfg, self.taus)
        assert 0.8 <= report.finest_order <= 1.2

    def test_errors_match_manufactured_exact(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=9))
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.25, n_steps=4)
        report = convergence_study(manu.problem, cfg, self.taus)
        exact = manu.exact(1.0)
        for row in report.rows:
            level = SchemeConfig("weighted", sigma=0.5, tau=row.tau, n_steps=row.n_steps)
            final = run(manu.problem, level).final_state
            assert row.error_a == pytest.approx(weighted_norm(manu.problem.A, final - exact), rel=1e-6)

    def test_fallback_reference_for_opaque_forcing(self):
        rng = np.random.default_rng(22)
        base = random_problem(rng, dims=BlockDims((2,)), T=1.0)
        pull = base.forcing

        # hide the closed-form structure behind a plain callable
        prob = EvolutionProblem(A=base.A, B=base.B, forcing=lambda t: pull(t),
                                v0=base.v0, T=1.0)
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.25, n_steps=4)
        report = convergence_study(prob, cfg, (0.25, 0.125))
        assert 1.7 <= report.finest_order <= 2.3

    def test_step_must_divide_horizon(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=5))
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.3, n_steps=1)
        with pytest.raises(ValueError, match="does not divide"):
            convergence_study(manu.problem, cfg, (0.3,))

    def test_zero_error_ladder_has_no_finest_order(self):
        # a zero solution: every error is exactly 0, so no order is defined
        manu = manufactured_problem(example_coupled_spec(2, 9), amplitudes=np.zeros(2))
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.25, n_steps=4)
        report = convergence_study(manu.problem, cfg, self.taus)
        assert [row.error_a for row in report.rows] == [0.0] * 3
        assert report.finest_order is None

    def test_single_row_has_no_order(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=5))
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.25, n_steps=4)
        report = convergence_study(manu.problem, cfg, (0.25,))
        with pytest.raises(ValueError, match="two step sizes"):
            report.finest_order


class TestCompareSchemes:
    def test_gap_shrinks_quadratically(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=9))
        cfg = SchemeConfig("weighted", sigma=1.0, tau=0.25, n_steps=4)
        report = compare_schemes(manu.problem, cfg, (0.25, 0.125, 0.0625))
        assert report.sigma == 1.0
        assert len(report.rows) == 3
        assert report.rows[0].max_diff_a > report.rows[-1].max_diff_a
        for ratio in report.max_diff_ratios:
            assert 3.0 <= ratio <= 5.0

    def test_explicit_weight_makes_schemes_coincide(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=5))
        cfg = SchemeConfig("weighted", sigma=0.0, tau=0.125, n_steps=8)
        report = compare_schemes(manu.problem, cfg, (0.125,))
        scale = weighted_norm(manu.problem.A, manu.problem.v0)
        assert report.rows[0].max_diff_a <= 1e-13 * scale

    def test_block_diagonal_stiffness_decouples_components(self):
        # a p = 2 problem with no cross blocks must reproduce two p = 1 runs
        spec = DiffusionSpecFactory.uncoupled(m=7)
        prob = build_coupled_diffusion(spec)
        cfg = SchemeConfig("factorized", sigma=0.75, tau=0.125, n_steps=8)
        log = run(prob, cfg)

        from splitstep import DiffusionSpec

        for alpha in range(2):
            sub = DiffusionSpec(
                p=1, m=7,
                k=[[spec.k[alpha, alpha]]],
                r=[[spec.r[alpha, alpha]]],
                b=[[spec.b[alpha, alpha]]],
            )
            sub_prob = build_coupled_diffusion(
                sub, v0=BlockVector.from_parts(BlockDims((7,)), (prob.v0.parts[alpha],))
            )
            sub_log = run(sub_prob, cfg)
            got = log.final_state.parts[alpha]
            want = sub_log.final_state.parts[0]
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_ratio_property_handles_exact_zero(self):
        report = CompareReport(
            sigma=0.5,
            rows=(
                CompareRow(0.2, 5, 4e-2, 1e-2),
                CompareRow(0.1, 10, 1e-2, 2e-3),
                CompareRow(0.05, 20, 0.0, 0.0),
            ),
        )
        assert report.max_diff_ratios == (4.0, None)


class DiffusionSpecFactory:
    @staticmethod
    def uncoupled(m: int):
        from splitstep import DiffusionSpec

        return DiffusionSpec(
            p=2, m=m,
            k=np.diag([1.0, 1.5]),
            r=np.diag([0.3, 0.4]),
            b=np.diag([1.0, 1.25]),
        )


def test_convergence_study_keeps_no_states(monkeypatch):
    # each rung reads only its run's last level, so no run keeps the others
    prob = manufactured_problem(example_coupled_spec(p=2, m=9)).problem
    asked, real_run = [], verify.run

    def recording_run(*args, **kwargs):
        asked.append(kwargs.get("keep_states", True))
        return real_run(*args, **kwargs)

    monkeypatch.setattr(verify, "run", recording_run)
    report = convergence_study(prob, SchemeConfig("weighted", sigma=0.5, tau=0.25, n_steps=4), [0.25, 0.125])
    assert asked == [False, False]
    assert report.rows[-1].error_a > 0.0 and 1.8 < report.rows[-1].order < 2.2


def test_compare_schemes_keeps_no_level():
    # the two schemes march in lockstep, so the peak does not grow with T/tau:
    # a ladder of 8x the steps may hold only a few levels more than the coarse one
    prob = manufactured_problem(example_coupled_spec(p=2, m=2047)).problem
    cfg = SchemeConfig("weighted", sigma=0.5, tau=1 / 8, n_steps=8)
    level = 8 * prob.dims.total

    def peak(taus):
        tracemalloc.start()
        try:
            compare_schemes(prob, cfg, taus)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    coarse, fine = peak((1 / 8, 1 / 16)), peak((1 / 64, 1 / 128))
    assert fine <= coarse + 4 * level, (coarse / level, fine / level)
