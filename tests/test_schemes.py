from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from scipy.linalg import lapack

from splitstep import (
    BlockDims,
    BlockOperator,
    BlockVector,
    EnergyObserver,
    EstimateObserver,
    EvolutionProblem,
    ExponentialSumForcing,
    RunObserver,
    RunStepError,
    SchemeConfig,
    SchemeInapplicableError,
    SchemeKind,
    SchemeState,
    SolveFailureError,
    constant_forcing,
    example_coupled_spec,
    example_porosity_spec,
    factorized_step,
    forcing_sample,
    manufactured_problem,
    prepare,
    run,
    three_level_init,
    three_level_step,
    triangular_split,
    weighted_norm,
    weighted_step,
    zero_forcing,
)
from splitstep.blockops import DimensionMismatchError
from splitstep.linsolve import SPARSE_MIN_ORDER
from splitstep.schemes import FactorizedWorkspace, ThreeLevelWorkspace, WeightedWorkspace

from helpers import (
    random_block_diag_spd,
    random_dims,
    random_problem,
    random_smooth_forcing,
    random_spd,
    random_vector,
    scalar_problem,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def first_step(step, prob, cfg):
    """The transition from level 0, with the workspace and forcing sample ``run`` would pass."""
    return step(prob, cfg, SchemeState(0, 0.0, prob.v0), prepare(prob, cfg), forcing_sample(prob, cfg, 0))


class TestSchemeConfig:
    def test_kind_coercion_from_string(self):
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=3)
        assert cfg.kind is SchemeKind.WEIGHTED

    @pytest.mark.parametrize("sigma", [-0.1, 1.5])
    def test_sigma_range(self, sigma):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SchemeConfig("weighted", sigma=sigma, tau=0.1, n_steps=1)

    def test_tau_and_steps_and_epsilon(self):
        with pytest.raises(ValueError, match="tau"):
            SchemeConfig("weighted", sigma=0.5, tau=0.0, n_steps=1)
        with pytest.raises(ValueError, match="n_steps"):
            SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=0)
        with pytest.raises(ValueError, match="n_steps"):
            SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=2.5)
        with pytest.raises(ValueError, match="epsilon"):
            SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=1, epsilon=0.0)
        with pytest.raises(ValueError, match="tau=inf must be finite"):
            SchemeConfig("weighted", sigma=0.5, tau=np.inf, n_steps=1)
        with pytest.raises(ValueError, match="epsilon=inf must be finite"):
            SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=1, epsilon=np.inf)
        with pytest.raises(ValueError, match="n_steps=inf must be finite"):
            SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=np.inf)
        with pytest.raises(ValueError, match="n_steps=nan must be positive"):
            SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=np.nan)
        # counts past int64 are rejected, 10**300 (past float range) included
        for n_steps in (2**63, 10**19, 10**300):
            with pytest.raises(ValueError, match=r"must be finite, an integer and at most 2\*\*63 - 1"):
                SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=n_steps)
        assert SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=2**63 - 1).n_steps == 2**63 - 1

    def test_thresholds_and_hypothesis_flag(self):
        weighted = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=1)
        factorized = SchemeConfig("factorized", sigma=0.5, tau=0.1, n_steps=1)
        three = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=1)
        assert weighted.stability_threshold == 0.5
        assert factorized.stability_threshold == 0.5
        assert three.stability_threshold == 1.0
        assert weighted.in_hypothesis and factorized.in_hypothesis and three.in_hypothesis
        assert not SchemeConfig("three_level", sigma=0.75, tau=0.1, n_steps=1).in_hypothesis


class TestForcing:
    def test_exponential_sum_evaluation(self):
        dims = BlockDims((2,))
        v1 = BlockVector.from_parts(dims, ([1.0, 0.0],))
        v2 = BlockVector.from_parts(dims, ([0.0, 2.0],))
        f = ExponentialSumForcing(dims, ((-1.0, v1), (0.5, v2)))
        got = f(0.3).to_flat()
        want = np.exp(-0.3) * v1.to_flat() + np.exp(0.15) * v2.to_flat()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_zero_and_constant(self):
        dims = BlockDims((2, 1))
        zero = zero_forcing(dims)
        assert zero(1.7).norm() == 0.0
        # one shared read-only sample, not a fresh vector per call
        assert zero(2.5) is zero(1.7) and not zero(1.7).to_flat().flags.writeable
        vec = BlockVector.from_parts(dims, ([1.0, 2.0], [3.0]))
        f = constant_forcing(vec)
        np.testing.assert_array_equal(f(0.0).to_flat(), vec.to_flat())
        np.testing.assert_array_equal(f(5.0).to_flat(), vec.to_flat())

    def test_term_dims_must_match(self):
        dims = BlockDims((2,))
        wrong = BlockVector.from_parts(BlockDims((3,)), (np.ones(3),))
        with pytest.raises(DimensionMismatchError):
            ExponentialSumForcing(dims, ((0.0, wrong),))


class TestForcingSample:
    def test_endpoint_weights(self):
        dims = BlockDims((1,))
        e = BlockVector.from_parts(dims, ([1.0],))
        prob = EvolutionProblem(
            A=BlockOperator.identity(dims),
            B=BlockOperator.identity(dims),
            forcing=lambda t: t * e,
            v0=e,
            T=1.0,
        )
        tau = 0.1
        at = lambda sigma, n: forcing_sample(
            prob, SchemeConfig("weighted", sigma=sigma, tau=tau, n_steps=1), n
        ).parts[0][0]
        assert at(0.0, 3) == pytest.approx(0.3, abs=1e-15)
        assert at(1.0, 3) == pytest.approx(0.4, abs=1e-15)
        assert at(0.5, 0) == pytest.approx(0.05, abs=1e-15)


class TestEvolutionProblem:
    def test_dimension_checks(self):
        d2 = BlockDims((2,))
        d3 = BlockDims((3,))
        ok = BlockOperator.identity(d2)
        with pytest.raises(DimensionMismatchError):
            EvolutionProblem(A=ok, B=BlockOperator.identity(d3), forcing=zero_forcing(d2),
                             v0=BlockVector.zeros(d2), T=1.0)
        with pytest.raises(DimensionMismatchError):
            EvolutionProblem(A=ok, B=ok, forcing=zero_forcing(d2),
                             v0=BlockVector.zeros(d3), T=1.0)
        with pytest.raises(ValueError, match="T="):
            EvolutionProblem(A=ok, B=ok, forcing=zero_forcing(d2),
                             v0=BlockVector.zeros(d2), T=0.0)
        with pytest.raises(ValueError, match="T=inf must be finite"):
            EvolutionProblem(A=ok, B=ok, forcing=zero_forcing(d2),
                             v0=BlockVector.zeros(d2), T=np.inf)
        with pytest.raises(DimensionMismatchError, match="forcing dims"):
            EvolutionProblem(A=ok, B=ok, forcing=zero_forcing(d3),
                             v0=BlockVector.zeros(d2), T=1.0)


class TestWeightedStep:
    def test_scalar_midpoint_weight(self):
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=1)
        out = first_step(weighted_step, prob, cfg)
        # (1 + 0.5*0.1*2)(y1 - 1) = -0.1*2  =>  y1 = 9/11
        assert out.y.parts[0][0] == pytest.approx(9.0 / 11.0, abs=1e-15)
        assert out.n == 1 and out.t == pytest.approx(0.1)

    def test_scalar_implicit_weight(self):
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("weighted", sigma=1.0, tau=0.1, n_steps=1)
        out = first_step(weighted_step, prob, cfg)
        assert out.y.parts[0][0] == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_pure_mass_problem_integrates_forcing(self):
        dims = BlockDims((2,))
        prob = EvolutionProblem(
            A=BlockOperator(dims, {}),
            B=BlockOperator.identity(dims, 2.0),
            forcing=constant_forcing(BlockVector.from_parts(dims, ([3.0, -1.0],))),
            v0=BlockVector.from_parts(dims, ([1.0, 1.0],)),
            T=1.0,
        )
        cfg = SchemeConfig("weighted", sigma=0.5, tau=0.1, n_steps=1)
        out = first_step(weighted_step, prob, cfg)
        # y1 = y0 + tau * B^{-1} f
        np.testing.assert_allclose(out.y.to_flat(), [1.15, 0.95], rtol=0, atol=1e-15)

    @given(seeds)
    def test_matches_dense_formula(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng)
        cfg = SchemeConfig("weighted", sigma=float(rng.uniform(0.5, 1.0)), tau=0.05, n_steps=1)
        state = SchemeState(0, 0.0, prob.v0)
        phi = forcing_sample(prob, cfg, 0)
        out = weighted_step(prob, cfg, state, prepare(prob, cfg), phi)
        shifted = prob.B.to_dense() + cfg.sigma * cfg.tau * prob.A.to_dense()
        want = prob.v0.to_flat() + np.linalg.solve(
            shifted, cfg.tau * (phi.to_flat() - prob.A.to_dense() @ prob.v0.to_flat())
        )
        np.testing.assert_allclose(out.y.to_flat(), want, rtol=0,
                                   atol=1e-11 * max(1.0, np.abs(want).max()))


class TestFactorizedStep:
    def test_scalar_squared_denominator(self):
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("factorized", sigma=1.0, tau=0.1, n_steps=1)
        out = first_step(factorized_step, prob, cfg)
        # (1 + 0.1*1)^2 (y1 - 1) = -0.2  =>  y1 = 101/121
        assert out.y.parts[0][0] == pytest.approx(101.0 / 121.0, abs=1e-15)

    def test_rejects_coupled_mass(self):
        rng = np.random.default_rng(2)
        dims = BlockDims((2, 2))
        prob = EvolutionProblem(
            A=random_spd(rng, dims),
            B=random_spd(rng, dims),
            forcing=zero_forcing(dims),
            v0=random_vector(rng, dims),
            T=1.0,
        )
        cfg = SchemeConfig("factorized", sigma=0.5, tau=0.1, n_steps=1)
        with pytest.raises(SchemeInapplicableError, match="three-level"):
            prepare(prob, cfg)

    @given(seeds)
    def test_matches_dense_product_operator(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, diag_b=True)
        cfg = SchemeConfig("factorized", sigma=float(rng.uniform(0.5, 1.0)), tau=0.05, n_steps=1)
        phi = forcing_sample(prob, cfg, 0)
        out = factorized_step(prob, cfg, SchemeState(0, 0.0, prob.v0), prepare(prob, cfg), phi)

        pair = triangular_split(prob.A)
        st_ = cfg.sigma * cfg.tau
        B = prob.B.to_dense()
        lower = B + st_ * pair.lower.to_dense()
        upper = B + st_ * pair.upper.to_dense()
        product = lower @ np.linalg.solve(B, upper)
        want = prob.v0.to_flat() + np.linalg.solve(
            product, cfg.tau * (phi.to_flat() - prob.A.to_dense() @ prob.v0.to_flat())
        )
        np.testing.assert_allclose(out.y.to_flat(), want, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(want).max()))

    def test_sweep_diag_blocks_coincide(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, diag_b=True)
        cfg = SchemeConfig("factorized", sigma=0.75, tau=0.1, n_steps=1)
        ws = prepare(prob, cfg)
        assert isinstance(ws, FactorizedWorkspace)
        for a in range(prob.dims.p):
            np.testing.assert_array_equal(ws.lower.block(a, a).toarray(), ws.upper.block(a, a).toarray())


class TestThreeLevelScheme:
    def test_startup_is_one_weighted_step(self):
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=2)
        init = three_level_init(prob, cfg, prepare(prob, cfg), SchemeState(0, 0.0, prob.v0))
        weighted = replace(cfg, kind="weighted")
        ref = weighted_step(
            prob, weighted, SchemeState(0, 0.0, prob.v0), prepare(prob, weighted), forcing_sample(prob, cfg, 0)
        )
        assert init.n == 1 and init.t == pytest.approx(0.1)
        assert init.y.parts[0][0] == ref.y.parts[0][0]
        assert init.y_prev is prob.v0

    def test_scalar_transition_oracle(self):
        # from the artificial flat history y1 = y0 = 1:
        # psi = 0.2*(-2) + 1.6^2 * 1 + (-0.4)^2 * 0 = 2.16, y2 = 2.16/2.56 = 27/32
        prob = scalar_problem(a=2.0, b=1.0, v0=1.0)
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=2, epsilon=1.0)
        state = SchemeState(1, 0.1, prob.v0, y_prev=prob.v0)
        out = three_level_step(prob, cfg, state, prepare(prob, cfg), forcing_sample(prob, cfg, 1))
        assert out.y.parts[0][0] == pytest.approx(27.0 / 32.0, abs=1e-15)
        assert out.y_prev is state.y

    def test_requires_history(self):
        prob = scalar_problem()
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=2)
        with pytest.raises(ValueError, match="three_level_init"):
            three_level_step(
                prob, cfg, SchemeState(1, 0.1, prob.v0), prepare(prob, cfg), forcing_sample(prob, cfg, 1)
            )

    def test_constant_state_fixed_for_any_epsilon(self):
        # with A = 0, f = 0 a flat history stays flat regardless of epsilon
        rng = np.random.default_rng(4)
        dims = BlockDims((2, 3))
        prob = EvolutionProblem(
            A=BlockOperator(dims, {}),
            B=random_spd(rng, dims),
            forcing=zero_forcing(dims),
            v0=random_vector(rng, dims),
            T=1.0,
        )
        for eps in (0.5, 1.0, 2.0):
            cfg = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=2, epsilon=eps)
            state = SchemeState(1, 0.1, prob.v0, y_prev=prob.v0)
            out = three_level_step(prob, cfg, state, prepare(prob, cfg), forcing_sample(prob, cfg, 1))
            assert (out.y - prob.v0).norm() <= 1e-13 * max(1.0, prob.v0.norm())

    def test_one_operator_product_per_step(self, monkeypatch):
        # the increment form applies only C = B + sigma*tau*A, to y^n - y^{n-1};
        # the residual reuses the A y that run attaches to the state
        prob = random_problem(np.random.default_rng(22), diag_b=False)
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.05, n_steps=2)
        ws = prepare(prob, cfg)
        init = three_level_init(prob, cfg, ws, SchemeState(0, 0.0, prob.v0))
        state = replace(init, a_y=prob.A.apply(init.y))
        phi = forcing_sample(prob, cfg, 1)
        applied = []
        real_product = BlockOperator.product

        def counting_product(self, x):
            applied.append(self)
            return real_product(self, x)

        monkeypatch.setattr(BlockOperator, "product", counting_product)
        three_level_step(prob, cfg, state, ws, phi)
        assert applied == [ws.startup.shifted]

    @given(seeds)
    def test_matches_dense_recurrence(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_problem(rng, diag_b=False)
        cfg = SchemeConfig(
            "three_level", sigma=1.0, tau=0.05, n_steps=2, epsilon=float(rng.uniform(0.5, 2.0))
        )
        ws = prepare(prob, cfg)
        init = three_level_init(prob, cfg, ws, SchemeState(0, 0.0, prob.v0))
        out = three_level_step(prob, cfg, init, ws, forcing_sample(prob, cfg, 1))

        a_pair = triangular_split(prob.A)
        b_pair = triangular_split(prob.B)
        st_ = cfg.sigma * cfg.tau
        eye = np.eye(prob.dims.total)
        c1 = b_pair.lower.to_dense() + st_ * a_pair.lower.to_dense()
        c2 = b_pair.upper.to_dense() + st_ * a_pair.upper.to_dense()
        y1 = init.y.to_flat()
        y0 = prob.v0.to_flat()
        phi = forcing_sample(prob, cfg, 1).to_flat()
        psi = 2.0 * cfg.epsilon * cfg.tau * (phi - prob.A.to_dense() @ y1)
        psi += (c1 + cfg.epsilon * eye) @ ((c2 + cfg.epsilon * eye) @ y1)
        psi += (c1 - cfg.epsilon * eye) @ ((c2 - cfg.epsilon * eye) @ (y1 - y0))
        want = np.linalg.solve(c2 + cfg.epsilon * eye, np.linalg.solve(c1 + cfg.epsilon * eye, psi))
        np.testing.assert_allclose(out.y.to_flat(), want, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(want).max()))


class _SpyObserver(RunObserver):
    def __init__(self):
        self.initial_calls = 0
        self.transition_calls = 0
        self.norms = []

    def initial(self, problem, cfg, state):
        self.initial_calls += 1
        self.norms.append(state.norm_a)
        return {"mark": float(state.n)}

    def transition(self, problem, cfg, prev, new, phi):
        self.transition_calls += 1
        self.norms.append(new.norm_a)
        return {"mark": float(new.n)}


class TestRun:
    @pytest.mark.parametrize("kind, sigma", [("weighted", 0.5), ("factorized", 0.5)])
    def test_two_level_record_layout(self, kind, sigma):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, diag_b=True)
        cfg = SchemeConfig(kind, sigma=sigma, tau=0.1, n_steps=6)
        spy = _SpyObserver()
        log = run(prob, cfg, observers=(spy,))
        assert len(log.records) == 7
        assert [rec.n for rec in log.records] == list(range(7))
        assert log.records[3].t == pytest.approx(0.3)
        assert spy.initial_calls == 1
        assert spy.transition_calls == 6
        assert log.records[0].extras == {"mark": 0.0}
        assert log.records[6].extras == {"mark": 6.0}
        # every state the hooks see carries the A-norm run records for it
        assert spy.norms == [rec.norm_a for rec in log.records]
        assert len(log.states) == 7
        assert log.final_state is log.states[-1]

    def test_three_level_record_layout(self):
        rng = np.random.default_rng(6)
        prob = random_problem(rng, diag_b=False)
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=5)
        spy = _SpyObserver()
        log = run(prob, cfg, observers=(spy,))
        assert len(log.records) == 6
        assert [rec.n for rec in log.records] == list(range(6))
        # level 0 has no observer extras; the startup level carries "initial"
        assert log.records[0].extras == {}
        assert log.records[1].extras == {"mark": 1.0}
        assert spy.initial_calls == 1
        assert spy.transition_calls == 4
        assert spy.norms == [rec.norm_a for rec in log.records[1:]]

    def test_norms_are_a_weighted(self):
        rng = np.random.default_rng(7)
        prob = random_problem(rng, forced=False)
        cfg = SchemeConfig("weighted", sigma=1.0, tau=0.1, n_steps=3)
        log = run(prob, cfg)
        from splitstep import weighted_norm

        for rec, y in zip(log.records, log.states):
            assert rec.norm_a == pytest.approx(weighted_norm(prob.A, y), rel=1e-14)

    @pytest.mark.parametrize(
        "kind, sigma, diag_b", [("weighted", 0.75, False), ("factorized", 0.5, True), ("three_level", 1.0, False)]
    )
    def test_one_product_with_a_per_level(self, monkeypatch, kind, sigma, diag_b):
        # run's guard computes A y once per level and the next transition's
        # residual reuses it, the three-level startup step's included
        prob = random_problem(np.random.default_rng(21), diag_b=diag_b)
        cfg = SchemeConfig(kind, sigma=sigma, tau=0.05, n_steps=6)
        # the same levels from bare step calls, whose states carry no product
        ws = prepare(prob, cfg)
        if kind == "three_level":
            state = three_level_init(prob, cfg, ws, SchemeState(0, 0.0, prob.v0))
            bare = [prob.v0, state.y]
        else:
            state = SchemeState(0, 0.0, prob.v0)
            bare = [prob.v0]
        step = {"weighted": weighted_step, "factorized": factorized_step, "three_level": three_level_step}[kind]
        while state.n < cfg.n_steps:
            state = step(prob, cfg, state, ws, forcing_sample(prob, cfg, state.n))
            assert state.a_y is None
            bare.append(state.y)

        products = []
        real_product = BlockOperator.product

        def counting_product(self, x):
            if self is prob.A:
                products.append(x)
            return real_product(self, x)

        monkeypatch.setattr(BlockOperator, "product", counting_product)
        log = run(prob, cfg)
        assert len(products) == cfg.n_steps + 1
        assert len(log.states) == len(bare)
        for got, want in zip(log.states, bare):
            np.testing.assert_array_equal(got.to_flat(), want.to_flat())

    def test_discarded_states(self):
        # without the levels the log still holds the last one, bit for bit the kept one
        prob = random_problem(np.random.default_rng(8))
        for kind, sigma in (("weighted", 0.5), ("factorized", 0.5), ("three_level", 1.0)):
            cfg = SchemeConfig(kind, sigma=sigma, tau=0.1, n_steps=3)
            log = run(prob, cfg, keep_states=False)
            assert log.states is None
            np.testing.assert_array_equal(log.final_state.to_flat(), run(prob, cfg).final_state.to_flat())

    def test_step_failure_carries_index(self, monkeypatch):
        import splitstep.schemes as schemes_mod

        prob = scalar_problem()
        calls = {"count": 0}
        real = schemes_mod.solve_spd_full

        def flaky(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] >= 3:
                raise SolveFailureError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(schemes_mod, "solve_spd_full", flaky)
        cfg = SchemeConfig("weighted", sigma=1.0, tau=0.1, n_steps=5)
        with pytest.raises(RunStepError) as exc_info:
            run(prob, cfg)
        assert exc_info.value.step == 2

    def test_startup_failure_is_step_zero(self, monkeypatch):
        import splitstep.schemes as schemes_mod

        prob = scalar_problem()

        def broken(*args, **kwargs):
            raise SolveFailureError("injected failure")

        monkeypatch.setattr(schemes_mod, "solve_spd_full", broken)
        cfg = SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=3)
        with pytest.raises(RunStepError, match="startup") as exc_info:
            run(prob, cfg)
        assert exc_info.value.step == 0

    @pytest.mark.parametrize("kind, sigma", [("weighted", 0.5), ("factorized", 0.5), ("three_level", 1.0)])
    def test_non_finite_initial_level_is_step_zero(self, kind, sigma):
        # level 0 goes through the same guard as every later level, before
        # any transition or observer sees it
        prob = random_problem(np.random.default_rng(23), diag_b=True)
        v0 = prob.v0.to_flat().copy()
        v0[1] = np.nan
        prob = replace(prob, v0=BlockVector(prob.dims, v0))
        spy = _SpyObserver()
        with pytest.raises(RunStepError, match=r"^initial level v0 is not finite \(A-norm nan\)$") as exc_info:
            run(prob, SchemeConfig(kind, sigma=sigma, tau=0.1, n_steps=3), observers=(spy,))
        assert exc_info.value.step == 0
        assert spy.initial_calls == 0

    def test_prepare_dispatch(self):
        rng = np.random.default_rng(9)
        prob = random_problem(rng, diag_b=False)
        diag_prob = random_problem(rng, diag_b=True)
        assert isinstance(
            prepare(prob, SchemeConfig("weighted", sigma=1.0, tau=0.1, n_steps=1)),
            WeightedWorkspace,
        )
        assert isinstance(
            prepare(diag_prob, SchemeConfig("factorized", sigma=1.0, tau=0.1, n_steps=1)),
            FactorizedWorkspace,
        )
        assert isinstance(
            prepare(prob, SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=1)),
            ThreeLevelWorkspace,
        )


class TestBandedSchemes:
    """Tridiagonal blocks take LDL^T at every order; above the band crossover
    the coupled operator runs on a band factor too."""

    def test_identity_blocks_follow_the_crossover(self):
        # the diagonal blocks take LDL^T at every order, C dense below the crossover
        for m, banded in ((31, False), (SPARSE_MIN_ORDER, True)):
            prob = manufactured_problem(example_porosity_spec(p=2, m=m)).problem
            ws = prepare(prob, SchemeConfig("three_level", sigma=1.0, tau=0.1, n_steps=2))
            for op in (ws.split.lower, ws.split.upper, ws.startup.shifted):
                assert all(isinstance(blk, sp.csr_array) for blk in op.blocks.values())
            assert [f.bandwidth for f in ws.split.diag.factors] == [1, 1]
            assert (ws.startup.factor.bandwidth is not None) == banded

    def test_sigma_zero_coincidence_at_m300(self):
        # with sigma = 0 the factorized operator B B^{-1} B is B itself, so
        # both schemes solve with the same banded factor of B
        problem = manufactured_problem(example_coupled_spec(p=2, m=300)).problem
        finals = {}
        for kind in ("weighted", "factorized"):
            cfg = SchemeConfig(kind, sigma=0.0, tau=1e-6, n_steps=4)
            finals[kind] = run(problem, cfg).final_state.to_flat()
        ws = prepare(problem, SchemeConfig("weighted", sigma=0.0, tau=1e-6, n_steps=1))
        assert ws.factor.bandwidth is not None
        gap = np.abs(finals["weighted"] - finals["factorized"]).max()
        assert gap <= 1e-13 * np.abs(finals["weighted"]).max()

    @pytest.mark.parametrize(
        "kind, sigma, spec, bound",
        [
            ("weighted", 0.5, example_coupled_spec, 5e-3),
            ("factorized", 0.5, example_coupled_spec, 2.5e-2),
            ("three_level", 1.0, example_porosity_spec, 1e-2),
        ],
    )
    def test_eight_steps_at_m65535(self, kind, sigma, spec, bound):
        # certified at construction: certify has no size ceiling
        manu = manufactured_problem(spec(p=2, m=65_535))
        prob = manu.problem
        cfg = SchemeConfig(kind, sigma=sigma, tau=1.0 / 8, n_steps=8)
        log = run(prob, cfg)
        assert len(log.records) == 9
        assert all(np.isfinite(rec.norm_a) for rec in log.records)
        exact = manu.exact(1.0)
        error = weighted_norm(prob.A, log.final_state - exact) / weighted_norm(prob.A, exact)
        assert error <= bound
        ws = prepare(prob, cfg)
        if kind == "factorized":
            assert [f.bandwidth for f in ws.diag.factors] == [1, 1]
        else:
            weighted = ws if kind == "weighted" else ws.startup
            assert weighted.factor.perm is not None and weighted.factor.bandwidth <= 3


class TestDivergenceGuard:
    @staticmethod
    def _dense_overflow_transition(problem, cfg):
        """Dense replay of y^{n+1} = y^n + tau B^{-1} (phi^n - A y^n), the
        sigma = 0 form of both two-level schemes; returns the transition
        whose level has a non-finite A-norm."""
        a, b = problem.A.to_dense(), problem.B.to_dense()
        y = problem.v0.to_flat()
        for n in range(cfg.n_steps):
            phi = forcing_sample(problem, cfg, n).to_flat()
            y = y + cfg.tau * np.linalg.solve(b, phi - a @ y)
            if not np.isfinite(y @ (a @ y)):
                return n
        raise AssertionError("replay stayed finite")

    @pytest.mark.parametrize("kind", ["weighted", "factorized"])
    def test_blow_up_raises_at_the_step(self, kind):
        problem = manufactured_problem(example_coupled_spec(p=2, m=31)).problem
        cfg = SchemeConfig(kind, sigma=0.0, tau=10.0, n_steps=200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RunStepError) as exc_info:
                run(problem, cfg, keep_states=False)
            step = exc_info.value.step
            # every level up to the failing transition is finite ...
            before = run(problem, replace(cfg, n_steps=step))
            # ... and the dense replay overflows there too, give or take the
            # one step that summation order can shift an overflow by
            dense_step = self._dense_overflow_transition(problem, cfg)
        assert all(np.isfinite(y.to_flat()).all() for y in before.states)
        assert all(np.isfinite(rec.norm_a) for rec in before.records)
        assert abs(step - dense_step) <= 1
        assert "infs or NaNs" not in str(exc_info.value)
        assert "non-finite level" in str(exc_info.value)


def _written_out_solve(factor, rhs):
    """A factor's solve written out: its LAPACK routine called directly, with keywords."""
    if factor.bandwidth is None:
        x, info = lapack.dpotrs(factor.chol_lower, rhs, lower=1)
    else:
        b = rhs if factor.perm is None else rhs[factor.perm]
        if factor.bandwidth <= 1:
            x, info = lapack.dpttrs(factor.chol_lower[0], factor.chol_lower[1, :-1], b)
        else:
            x, info = lapack.dpbtrs(factor.chol_lower, b, lower=1)
        if factor.perm is not None:
            y, x = x, np.empty_like(x)
            x[factor.perm] = y
    assert info == 0
    return x


def _written_out_sweep(T, diag, b, descending):
    """Block substitution row by row: one product with the row strip, one solve."""
    off, x = T.dims.offsets, np.empty_like(b)
    for a in range(T.dims.p - 1, -1, -1) if descending else range(T.dims.p):
        acc = b[off[a] : off[a + 1]]
        if T.row_strips[a] is not None:
            start, stop, strip = T.row_strips[a]
            acc = acc - strip @ x[start:stop]
        x[off[a] : off[a + 1]] = _written_out_solve(diag.factors[a], acc)
    return x


def _written_out_full_solve(M, factor, b):
    """The weighted scheme's solve with its 1e-11 backward-error test."""
    x = _written_out_solve(factor, b)
    residual = float(np.abs(M.to_sparse() @ x - b).max())
    assert residual <= 1e-11 * (M.norm_inf() * float(np.abs(x).max()) + float(np.abs(b).max()))
    return x


class TestWrittenOutArithmetic:
    """``run`` against its per-level arithmetic written out with scipy's ``@`` and
    direct LAPACK calls: every level, A-norm and observer slack, bit for bit."""

    @pytest.mark.parametrize("p, m", [(2, 31), (4, 255)])
    @pytest.mark.parametrize("kind, sigma", [("weighted", 0.5), ("factorized", 0.5), ("three_level", 1.0)])
    def test_run_reproduces_every_level(self, kind, sigma, p, m):
        spec = (example_porosity_spec if kind == "three_level" else example_coupled_spec)(p=p, m=m)
        prob = manufactured_problem(spec).problem
        cfg = SchemeConfig(kind, sigma=sigma, tau=1 / 64, n_steps=5)
        ws = prepare(prob, cfg)
        weighted = ws.startup if kind == "three_level" else ws
        # LDL^T diagonal blocks at every order; C dense at N = 62, reordered and banded at N = 1020
        if kind != "factorized":
            assert (weighted.factor.bandwidth is not None) == (m >= SPARSE_MIN_ORDER)
        if kind != "weighted":
            split = ws.split if kind == "three_level" else ws
            assert all(f.bandwidth == 1 and f.perm is None for f in split.diag.factors)
        observer = EnergyObserver() if kind == "three_level" else EstimateObserver()
        log = run(prob, cfg, observers=(observer,))

        a, b = prob.A.to_sparse(), prob.B.to_sparse()
        tau, eps = cfg.tau, cfg.epsilon

        def phi(n):
            return prob.forcing((n + sigma) * tau).to_flat()

        def norm(y):
            return float(np.sqrt(max(float((a @ y) @ y), 0.0)))

        def energy(y, y_prev):
            rate = (y - y_prev) / tau
            c2_rate = ws.split.upper.to_sparse() @ rate - eps * rate
            squares = float(c2_rate @ c2_rate) + eps * eps * float(rate @ rate)
            return float((a @ y) @ y_prev) + (tau / (2.0 * eps)) * squares

        levels = [prob.v0.to_flat()]
        if kind == "three_level":
            dy = _written_out_full_solve(weighted.shifted, weighted.factor, tau * (phi(0) - a @ levels[0]))
            levels.append(levels[0] + dy)
        while len(levels) <= cfg.n_steps:
            n, y = len(levels) - 1, levels[-1]
            g = tau * (phi(n) - a @ y)
            if kind == "weighted":
                levels.append(y + _written_out_full_solve(ws.shifted, ws.factor, g))
            elif kind == "factorized":
                w = _written_out_sweep(ws.lower, ws.diag, g, descending=False)
                levels.append(y + _written_out_sweep(ws.upper, ws.diag, b @ w, descending=True))
            else:
                diff = y - levels[-2]
                g = (2.0 * eps) * (g - ws.startup.shifted.to_sparse() @ diff)
                half = _written_out_sweep(ws.split.lower, ws.split.diag, g, descending=False)
                levels.append(y + diff + _written_out_sweep(ws.split.upper, ws.split.diag, half, descending=True))

        assert len(log.states) == len(levels)
        for got, want, rec in zip(log.states, levels, log.records):
            np.testing.assert_array_equal(got.to_flat(), want)
            assert rec.norm_a == norm(want)
        first = 1 if kind == "three_level" else 0
        for n in range(first, cfg.n_steps):
            if kind == "three_level":
                before, after = energy(levels[n], levels[n - 1]), energy(levels[n + 1], levels[n])
            else:
                before, after = norm(levels[n]) ** 2, norm(levels[n + 1]) ** 2
            assert log.records[n + 1].extras["slack"] == (before + observer.forcing_term(n)) - after
