import numpy as np
import pytest
from scipy.linalg import eigvalsh

from splitstep import (
    CertificateError,
    DiffusionSpec,
    ExponentialSumForcing,
    build_coupled_diffusion,
    example_coupled_spec,
    example_porosity_spec,
    laplacian_1d,
    laplacian_min_eig,
    manufactured_problem,
    sine_profile,
)
from splitstep.problems import assemble_operators


class TestLaplacian:
    def test_explicit_three_point_matrix(self):
        L = laplacian_1d(3).toarray()
        h2 = 16.0
        np.testing.assert_array_equal(
            L, h2 * np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        )

    @pytest.mark.parametrize("m", [1, 2, 9, 31])
    def test_min_eig_closed_form(self, m):
        lam = eigvalsh(laplacian_1d(m).toarray())[0]
        assert laplacian_min_eig(m) == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("m", [5, 16])
    def test_sine_is_the_lowest_mode(self, m):
        spec = DiffusionSpec(p=1, m=m, k=[[1.0]], r=[[0.0]], b=[[1.0]])
        wave = np.sin(np.pi * spec.grid)
        L = laplacian_1d(m)
        residual = L @ wave - laplacian_min_eig(m) * wave
        assert np.abs(residual).max() <= 1e-12 * np.abs(L @ wave).max()


class TestDiffusionSpec:
    def test_grid_and_dims(self):
        spec = DiffusionSpec(p=2, m=4, k=np.eye(2), r=np.zeros((2, 2)), b=np.eye(2))
        assert spec.h == pytest.approx(0.2)
        np.testing.assert_allclose(spec.grid, [0.2, 0.4, 0.6, 0.8])
        assert spec.dims.sizes == (4, 4)
        assert spec.b_is_diagonal()

    def test_validation(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="p="):
            DiffusionSpec(p=0, m=3, k=eye, r=eye, b=eye)
        with pytest.raises(ValueError, match="m="):
            DiffusionSpec(p=2, m=0, k=eye, r=eye, b=eye)
        with pytest.raises(ValueError, match="must be 2x2"):
            DiffusionSpec(p=2, m=3, k=np.eye(3), r=eye, b=eye)
        asym = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DiffusionSpec(p=2, m=3, k=asym, r=eye, b=eye)


class TestAssembly:
    def test_blocks_match_tables(self):
        spec = example_coupled_spec(p=2, m=5)
        A, B = assemble_operators(spec)
        L = laplacian_1d(5).toarray()
        eye = np.eye(5)
        np.testing.assert_allclose(
            np.asarray(A.block(0, 1).toarray()), spec.k[0, 1] * L + spec.r[0, 1] * eye, atol=1e-12
        )
        np.testing.assert_allclose(
            np.asarray(A.block(1, 1).toarray()), spec.k[1, 1] * L + spec.r[1, 1] * eye, atol=1e-12
        )
        np.testing.assert_allclose(np.asarray(B.block(0, 0).toarray()), spec.b[0, 0] * eye, atol=1e-15)
        assert B.block(0, 1) is None
        assert B.is_block_diagonal()

    def test_zero_couplings_leave_holes(self):
        spec = DiffusionSpec(p=2, m=3, k=np.eye(2), r=np.zeros((2, 2)), b=np.eye(2))
        A, _ = assemble_operators(spec)
        assert A.block(0, 1) is None and A.block(1, 0) is None

    def test_indefinite_coupling_is_rejected(self):
        # strong antidiagonal k makes the assembled stiffness indefinite
        spec = DiffusionSpec(
            p=2, m=5, k=[[1.0, 2.0], [2.0, 1.0]], r=np.zeros((2, 2)), b=np.eye(2)
        )
        # the second component's first pivot is the Schur complement L - 4 L = -3 L
        with pytest.raises(CertificateError, match=r"^assembled A: not positive definite, leading minor 6 "):
            assemble_operators(spec)


class TestSineProfile:
    def test_default_amplitudes_are_one_based(self):
        spec = example_coupled_spec(p=3, m=7)
        prof = sine_profile(spec)
        wave = np.sin(np.pi * spec.grid)
        for alpha in range(3):
            np.testing.assert_allclose(prof.parts[alpha], (alpha + 1) * wave, atol=1e-15)

    def test_custom_amplitudes(self):
        spec = example_coupled_spec(p=2, m=4)
        prof = sine_profile(spec, [2.0, -1.0])
        wave = np.sin(np.pi * spec.grid)
        np.testing.assert_allclose(prof.parts[0], 2.0 * wave, atol=1e-15)
        np.testing.assert_allclose(prof.parts[1], -wave, atol=1e-15)

    def test_wrong_amplitude_count(self):
        spec = example_coupled_spec(p=2, m=4)
        with pytest.raises(ValueError, match="need 2 amplitudes"):
            sine_profile(spec, [1.0, 2.0, 3.0])


class TestBuilders:
    def test_coupled_defaults(self):
        prob = build_coupled_diffusion(example_coupled_spec(p=2, m=9), T=2.0)
        assert prob.T == 2.0
        assert prob.B.is_block_diagonal()
        assert prob.forcing(0.7).norm() == 0.0
        np.testing.assert_allclose(
            prob.v0.to_flat(), sine_profile(example_coupled_spec(p=2, m=9)).to_flat(), atol=1e-15
        )

    def test_porosity_has_coupled_mass(self):
        prob = build_coupled_diffusion(example_porosity_spec(p=2, m=9))
        assert not prob.B.is_block_diagonal()

    @pytest.mark.parametrize("p", [2, 3])
    def test_example_specs_assemble_spd(self, p):
        for spec in (example_coupled_spec(p=p, m=9), example_porosity_spec(p=p, m=9)):
            A, B = assemble_operators(spec)
            assert A.dims.sizes == (9,) * p
            assert B.dims.sizes == (9,) * p

    def test_coupled_example_certifies_above_n2000(self):
        prob = build_coupled_diffusion(example_coupled_spec(2, 1023))
        assert prob.dims.total == 2046

    def test_indefinite_coupling_is_rejected_at_m65535(self):
        spec = DiffusionSpec(
            p=2, m=65_535, k=[[1.0, 2.0], [2.0, 1.0]], r=np.zeros((2, 2)), b=np.eye(2)
        )
        with pytest.raises(CertificateError, match="^assembled A: not positive definite, leading minor"):
            assemble_operators(spec)


class TestManufactured:
    @pytest.mark.parametrize("spec_fn", [example_coupled_spec, example_porosity_spec])
    def test_residual_vanishes(self, spec_fn):
        spec = spec_fn(p=2, m=9)
        manu = manufactured_problem(spec)
        prob = manu.problem
        assert isinstance(prob.forcing, ExponentialSumForcing)
        scale = max(1.0, prob.A.absmax() * manu.profile.norm())
        for t in (0.0, 0.3, 1.0):
            u = manu.exact(t)
            # du/dt = -u, so the residual is f(t) - (A - B) u
            residual = prob.forcing(t) - (prob.A.apply(u) - prob.B.apply(u))
            assert residual.norm() <= 1e-12 * scale

    def test_exact_starts_at_v0(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=5))
        np.testing.assert_array_equal(manu.exact(0.0).to_flat(), manu.problem.v0.to_flat())

    def test_amplitudes_reach_profile(self):
        manu = manufactured_problem(example_coupled_spec(p=2, m=5), amplitudes=[3.0, 0.5])
        spec = example_coupled_spec(p=2, m=5)
        wave = np.sin(np.pi * spec.grid)
        np.testing.assert_allclose(manu.profile.parts[0], 3.0 * wave, atol=1e-15)
        np.testing.assert_allclose(manu.profile.parts[1], 0.5 * wave, atol=1e-15)
