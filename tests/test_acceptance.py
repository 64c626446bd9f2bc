"""End-to-end acceptance checks at desk scale.

Each test covers one numbered criterion and prints a single PASS/FAIL line
with the measured quantity and the tolerance it was held to.  The criteria
probe the split identities, the level-wise stability bounds of all three
schemes, the convergence orders, the gap scaling between the two-level
schemes, the sweep solve paths, and the agreement of the two independent
reference routes.
"""

import numpy as np

from splitstep import (
    BlockOperator,
    BlockVector,
    EnergyObserver,
    EstimateObserver,
    SchemeConfig,
    build_coupled_diffusion,
    compare_schemes,
    constant_forcing,
    convergence_study,
    example_coupled_spec,
    example_porosity_spec,
    lincomb,
    manufactured_problem,
    reference_solution,
    run,
    sine_profile,
    solve_block_lower,
    solve_block_upper,
    tiny_step_reference,
    triangular_split,
    weighted_inner,
    weighted_norm,
    zero_forcing,
)
from splitstep.linsolve import DiagFactorization
from splitstep.schemes import EvolutionProblem

from helpers import (
    factorized_operator_identity_error,
    factorized_operator_psd_margin,
    random_block_diag_spd,
    random_dims,
    random_smooth_forcing,
    random_spd,
    random_symmetric,
    random_vector,
)

SLACK_REL_TOL = 1e-10
SIGMAS = (0.5, 0.75, 1.0)
TAUS = (1e-3, 1e-2, 1e-1, 1.0)
LADDER = (1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256)
SECOND_ORDER = (1.8, 2.2)
FIRST_ORDER = (0.8, 1.2)


def _verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    return ok


def _coupled_problem(forcing=None):
    return build_coupled_diffusion(example_coupled_spec(p=2, m=31), forcing=forcing)


def _porosity_problem(forcing=None):
    return build_coupled_diffusion(example_porosity_spec(p=2, m=31), forcing=forcing)


def test_criterion_1_triangular_split_identities():
    rng = np.random.default_rng(101)
    worst_sum = 0.0
    worst_adjoint = 0.0
    for _ in range(100):
        dims = random_dims(rng)
        A = random_symmetric(rng, dims)
        pair = triangular_split(A)
        scale = max(A.absmax(), 1e-300)
        dense = A.to_dense()
        recon = pair.lower.to_dense() + pair.upper.to_dense()
        worst_sum = max(worst_sum, float(np.abs(recon - dense).max()) / scale)
        adjoint = pair.lower.to_dense().T - pair.upper.to_dense()
        worst_adjoint = max(worst_adjoint, float(np.abs(adjoint).max()) / scale)
    ok = worst_sum <= 1e-14 and worst_adjoint <= 1e-14
    assert _verdict(
        1,
        ok,
        f"100 random splits: max |A1+A2-A| {worst_sum:.2e}, "
        f"max |A1^T-A2| {worst_adjoint:.2e}, tol 1e-14 relative",
    )


def test_criterion_2_factorized_operator_identity_and_margin():
    rng = np.random.default_rng(102)
    worst_identity = 0.0
    worst_margin = 0.0
    for _ in range(20):
        dims = random_dims(rng)
        problem = EvolutionProblem(
            A=random_spd(rng, dims),
            B=random_block_diag_spd(rng, dims),
            forcing=zero_forcing(dims),
            v0=random_vector(rng, dims),
            T=1.0,
        )
        cfg = SchemeConfig(
            "factorized",
            sigma=float(rng.uniform(0.1, 1.0)),
            tau=float(rng.choice([1e-2, 1e-1, 1.0])),
            n_steps=1,
        )
        worst_identity = max(worst_identity, factorized_operator_identity_error(problem, cfg))
        worst_margin = min(worst_margin, factorized_operator_psd_margin(problem, cfg))
    ok = worst_identity <= 1e-12 and worst_margin >= -1e-12
    assert _verdict(
        2,
        ok,
        f"20 random instances: max identity gap {worst_identity:.2e} (tol 1e-12 rel), "
        f"min enlargement eig {worst_margin:.2e} (tol -1e-12)",
    )


def test_criterion_3_weighted_levelwise_bound():
    rng = np.random.default_rng(103)
    spec = example_coupled_spec(p=2, m=31)
    worst_rel = np.inf
    for sigma in SIGMAS:
        for tau in TAUS:
            problem = build_coupled_diffusion(
                spec, forcing=random_smooth_forcing(rng, spec.dims), T=100.0 * tau
            )
            cfg = SchemeConfig("weighted", sigma=sigma, tau=tau, n_steps=100)
            observer = EstimateObserver()
            run(problem, cfg, observers=(observer,), keep_states=False)
            scale = weighted_inner(problem.A, problem.v0, problem.v0)
            worst_rel = min(worst_rel, observer.min_slack / scale)
    ok = worst_rel >= -SLACK_REL_TOL
    assert _verdict(
        3,
        ok,
        f"sigma {SIGMAS} x tau {TAUS}, 100 steps each, forced: "
        f"min slack / |y0|_A^2 = {worst_rel:.2e}, tol -1e-10",
    )


def test_criterion_4_factorized_monotonicity_and_bound():
    rng = np.random.default_rng(104)
    spec = example_coupled_spec(p=2, m=31)
    worst_growth = 0.0
    worst_rel = np.inf
    for sigma in SIGMAS:
        for tau in TAUS:
            cfg = SchemeConfig("factorized", sigma=sigma, tau=tau, n_steps=100)

            free = build_coupled_diffusion(spec, T=100.0 * tau)
            log = run(free, cfg, keep_states=False)
            norms = [rec.norm_a for rec in log.records]
            for a, b in zip(norms, norms[1:]):
                if a > 0.0:
                    worst_growth = max(worst_growth, (b - a) / a)

            forced = build_coupled_diffusion(
                spec, forcing=random_smooth_forcing(rng, spec.dims), T=100.0 * tau
            )
            observer = EstimateObserver()
            run(forced, cfg, observers=(observer,), keep_states=False)
            scale = weighted_inner(forced.A, forced.v0, forced.v0)
            worst_rel = min(worst_rel, observer.min_slack / scale)
    ok = worst_growth <= 1e-12 and worst_rel >= -SLACK_REL_TOL
    assert _verdict(
        4,
        ok,
        f"same sweep: f=0 max relative norm growth {worst_growth:.2e} (tol 1e-12), "
        f"forced min slack ratio {worst_rel:.2e} (tol -1e-10)",
    )


def test_criterion_5_three_level_energy_bound():
    rng = np.random.default_rng(105)
    spec = example_porosity_spec(p=2, m=31)
    worst_rel = np.inf
    min_margin = np.inf
    for epsilon in (0.5, 1.0, 2.0):
        for tau in (1e-2, 1e-1):
            problem = build_coupled_diffusion(
                spec, forcing=random_smooth_forcing(rng, spec.dims), T=100.0 * tau
            )
            cfg = SchemeConfig("three_level", sigma=1.0, tau=tau, n_steps=100, epsilon=epsilon)
            observer = EnergyObserver()
            run(problem, cfg, observers=(observer,), keep_states=False)
            min_margin = min(min_margin, observer.diff_weight_margin())
            worst_rel = min(worst_rel, observer.min_slack / observer.initial_energy)
    ok = worst_rel >= -SLACK_REL_TOL and min_margin > 0.0
    assert _verdict(
        5,
        ok,
        f"sigma=1, eps (0.5,1,2) x tau (1e-2,1e-1), 100 steps: "
        f"min slack / E1 = {worst_rel:.2e} (tol -1e-10), min R margin {min_margin:.2e} (> 0)",
    )


def test_criterion_6_convergence_orders():
    coupled = manufactured_problem(example_coupled_spec(p=2, m=31))
    porous = manufactured_problem(example_porosity_spec(p=2, m=31))
    cases = (
        ("weighted", 0.5, coupled, SECOND_ORDER),
        ("weighted", 1.0, coupled, FIRST_ORDER),
        ("factorized", 0.5, coupled, SECOND_ORDER),
        ("three_level", 1.0, porous, FIRST_ORDER),
    )
    details = []
    ok = True
    for kind, sigma, manu, window in cases:
        cfg = SchemeConfig(kind, sigma=sigma, tau=LADDER[0], n_steps=1, epsilon=1.0)
        report = convergence_study(manu.problem, cfg, LADDER)
        order = report.finest_order
        inside = window[0] <= order <= window[1]
        ok = ok and inside
        details.append(f"{kind}/sigma={sigma:g}: {order:.3f} in [{window[0]}, {window[1]}]")
    assert _verdict(6, ok, "; ".join(details))


def test_criterion_7_scheme_gap_scaling():
    manu = manufactured_problem(example_coupled_spec(p=2, m=31))
    cfg = SchemeConfig("weighted", sigma=1.0, tau=LADDER[0], n_steps=1)
    report = compare_schemes(manu.problem, cfg, LADDER)
    finest_ratio = report.max_diff_ratios[-1]
    ratio_ok = 3.5 <= finest_ratio <= 4.5

    # the sigma = 0 coincidence needs explicitly stable stepping, so it runs
    # on a mild grid with steps well inside the explicit limit
    mild = manufactured_problem(example_coupled_spec(p=2, m=5))
    cfg0 = SchemeConfig("weighted", sigma=0.0, tau=1.0 / 128, n_steps=1)
    report0 = compare_schemes(mild.problem, cfg0, (1.0 / 128, 1.0 / 256))
    gap0 = max(row.max_diff_a for row in report0.rows)
    gap_ok = gap0 <= 1e-13
    assert _verdict(
        7,
        ratio_ok and gap_ok,
        f"finest gap ratio {finest_ratio:.3f} in [3.5, 4.5]; "
        f"sigma=0 max gap {gap0:.2e} (tol 1e-13)",
    )


def test_criterion_8_sweep_solves_match_monolithic():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(20):
        dims = random_dims(rng)
        sigma = float(rng.uniform(0.5, 1.0))
        tau = float(rng.choice([1e-2, 1e-1, 1.0]))
        epsilon = float(rng.uniform(0.5, 2.0))
        st = sigma * tau
        rhs = random_vector(rng, dims)
        n = dims.total

        # factorized path: lower sweep, mass multiply, upper sweep
        A = random_spd(rng, dims)
        B = random_block_diag_spd(rng, dims)
        a_pair = triangular_split(A)
        lower = lincomb(1.0, B, st, a_pair.lower)
        upper = lincomb(1.0, B, st, a_pair.upper)
        diag = DiagFactorization.from_operator(lower)
        w = solve_block_lower(lower, rhs, diag)
        x_sweep = solve_block_upper(upper, B.apply(w), diag)
        product = lower.to_dense() @ np.linalg.solve(B.to_dense(), upper.to_dense())
        x_dense = np.linalg.solve(product, rhs.to_flat())
        scale = max(1.0, float(np.abs(x_dense).max()))
        worst = max(worst, float(np.abs(x_sweep.to_flat() - x_dense).max()) / scale)

        # three-level left operator: two substitution sweeps
        B_full = random_spd(rng, dims)
        b_pair = triangular_split(B_full)
        c1 = lincomb(1.0, b_pair.lower, st, a_pair.lower)
        c2 = lincomb(1.0, b_pair.upper, st, a_pair.upper)
        eye = BlockOperator.identity(dims)
        c1_plus = lincomb(1.0, c1, epsilon, eye)
        c2_plus = lincomb(1.0, c2, epsilon, eye)
        diag3 = DiagFactorization.from_operator(c1_plus)
        half = solve_block_lower(c1_plus, rhs, diag3)
        x_sweep3 = solve_block_upper(c2_plus, half, diag3)
        x_dense3 = np.linalg.solve(c1_plus.to_dense() @ c2_plus.to_dense(), rhs.to_flat())
        scale3 = max(1.0, float(np.abs(x_dense3).max()))
        worst = max(worst, float(np.abs(x_sweep3.to_flat() - x_dense3).max()) / scale3)
    ok = worst <= 1e-12
    assert _verdict(
        8, ok, f"20 random instances, both sweep paths: max gap {worst:.2e}, tol 1e-12 relative"
    )


def test_criterion_9_reference_routes_agree():
    spec_c = example_coupled_spec(p=2, m=31)
    drive = sine_profile(spec_c, [0.4, -0.7])
    problems = {
        "diffusion f=0": _coupled_problem(),
        "diffusion f=const": _coupled_problem(forcing=constant_forcing(drive)),
        "porosity f=0": _porosity_problem(),
        "manufactured": manufactured_problem(spec_c).problem,
        "manufactured porosity": manufactured_problem(example_porosity_spec(p=2, m=31)).problem,
    }
    tau_ref = LADDER[0] / 1024.0
    worst = 0.0
    for name, problem in problems.items():
        modal = reference_solution(problem, problem.T)
        stepped = tiny_step_reference(problem, problem.T, tau_ref)
        worst = max(worst, weighted_norm(problem.A, modal - stepped))
    ok = worst <= 1e-8
    assert _verdict(
        9,
        ok,
        f"modal vs tiny-step (tau {tau_ref:.2e}) on {len(problems)} problems: "
        f"max A-norm gap {worst:.2e}, tol 1e-8",
    )
