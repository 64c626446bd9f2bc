"""Model problem builders on a 1-D interval with homogeneous Dirichlet ends.

Each component lives on the same interior grid of m points with spacing
h = 1/(m+1).  The stiffness coupling is A_ab = k_ab * L + r_ab * I with L the
scaled second-difference matrix, and the capacity coupling is B_ab = b_ab * I.
A diagonal b gives coupled diffusion; a full SPD b gives the double porosity
variant, the regime the three-level scheme exists for.  One builder,
``build_coupled_diffusion``, assembles both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .blockops import BlockDims, BlockOperator, BlockVector, _combine, _identity_parts, certify
from .schemes import EvolutionProblem, ExponentialSumForcing, zero_forcing


def _check_symmetric_table(name: str, table: np.ndarray, p: int) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if table.shape != (p, p):
        raise ValueError(f"{name} must be {p}x{p}, got shape {table.shape}")
    scale = max(float(np.abs(table).max()), 1e-300)
    if float(np.abs(table - table.T).max()) > 1e-12 * scale:
        raise ValueError(f"{name} coupling table must be symmetric")
    return table


@dataclass(frozen=True, eq=False)
class DiffusionSpec:
    """Grid size and coupling tables for the 1-D model problems.

    k scales the second-difference part, r the zero-order reaction part, and
    b the capacities in front of the time derivatives.  All three tables are
    p-by-p and symmetric.
    """

    p: int
    m: int
    k: np.ndarray
    r: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p={self.p} must be at least 1")
        if self.m < 1:
            raise ValueError(f"m={self.m} interior grid points needed, got fewer than 1")
        object.__setattr__(self, "k", _check_symmetric_table("k", self.k, self.p))
        object.__setattr__(self, "r", _check_symmetric_table("r", self.r, self.p))
        object.__setattr__(self, "b", _check_symmetric_table("b", self.b, self.p))

    @property
    def h(self) -> float:
        return 1.0 / (self.m + 1)

    @property
    def grid(self) -> np.ndarray:
        """Interior node coordinates h, 2h, ..., mh."""
        return self.h * np.arange(1, self.m + 1)

    @property
    def dims(self) -> BlockDims:
        return BlockDims((self.m,) * self.p)

    def b_is_diagonal(self) -> bool:
        return not np.any(self.b - np.diag(np.diag(self.b)))


def laplacian_1d(m: int) -> sp.csr_array:
    """Second-difference matrix (1/h^2) tridiag(-1, 2, -1) on m interior points."""
    h = 1.0 / (m + 1)
    main = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    return sp.csr_array(sp.diags_array([off, main, off], offsets=[-1, 0, 1], format="csr"))


def laplacian_min_eig(m: int) -> float:
    """Smallest eigenvalue (4/h^2) sin^2(pi h / 2) of the second-difference matrix."""
    h = 1.0 / (m + 1)
    return 4.0 / h**2 * np.sin(np.pi * h / 2.0) ** 2


def assemble_operators(spec: DiffusionSpec) -> tuple[BlockOperator, BlockOperator]:
    """Assemble (A, B) from the coupling tables and certify both SPD.

    Each block is built with one CSR constructor, bit for bit the
    ``k * L + r * I`` and ``b * I`` of scipy's arithmetic (``blockops._combine``).
    """
    L = laplacian_1d(spec.m)
    eye = _identity_parts(spec.m)
    shape = (spec.m, spec.m)
    a_blocks = {}
    b_blocks = {}
    for a in range(spec.p):
        for b in range(spec.p):
            if spec.k[a, b] != 0.0 or spec.r[a, b] != 0.0:
                a_blocks[(a, b)] = _combine(shape, ((spec.k[a, b], L), (spec.r[a, b], eye)))
            if spec.b[a, b] != 0.0:
                b_blocks[(a, b)] = _combine(shape, ((spec.b[a, b], eye),))
    # built here, so owned: no copies
    A = BlockOperator._own(spec.dims, a_blocks)
    B = BlockOperator._own(spec.dims, b_blocks)
    certify(A, context="assembled A")
    certify(B, context="assembled B")
    return A, B


def sine_profile(spec: DiffusionSpec, amplitudes: Optional[np.ndarray] = None) -> BlockVector:
    """Per-component multiples of sin(pi x) on the interior grid.

    Defaults to amplitude alpha for component alpha (1-based), so components
    are distinguishable in plots and error tables.
    """
    if amplitudes is None:
        amplitudes = np.arange(1, spec.p + 1, dtype=float)
    amplitudes = np.asarray(amplitudes, dtype=float).reshape(-1)
    if amplitudes.shape != (spec.p,):
        raise ValueError(f"need {spec.p} amplitudes, got {amplitudes.shape[0]}")
    wave = np.sin(np.pi * spec.grid)
    return BlockVector(spec.dims, np.outer(amplitudes, wave).ravel())


def build_coupled_diffusion(
    spec: DiffusionSpec,
    forcing=None,
    v0: Optional[BlockVector] = None,
    T: float = 1.0,
) -> EvolutionProblem:
    """Coupled diffusion problem B du/dt + A u = f.

    With a diagonal b table the components interact through A only; a full
    SPD b also couples the time derivatives (double porosity), the regime
    the three-level scheme exists for.
    """
    A, B = assemble_operators(spec)
    if forcing is None:
        forcing = zero_forcing(spec.dims)
    if v0 is None:
        v0 = sine_profile(spec)
    return EvolutionProblem(A=A, B=B, forcing=forcing, v0=v0, T=float(T))


@dataclass(frozen=True, eq=False)
class ManufacturedSolution:
    """Problem whose exact solution u(t) = exp(-t) * profile is known.

    Substituting u into B du/dt + A u gives the forcing
    f(t) = exp(-t) (A - B) profile, an exponential-sum forcing the closed-form
    reference solver accepts.
    """

    problem: EvolutionProblem
    profile: BlockVector

    def exact(self, t: float) -> BlockVector:
        return float(np.exp(-t)) * self.profile


def manufactured_problem(
    spec: DiffusionSpec,
    amplitudes: Optional[np.ndarray] = None,
    T: float = 1.0,
) -> ManufacturedSolution:
    """Decaying sine solution on any of the model problems, diagonal b or not."""
    A, B = assemble_operators(spec)
    profile = sine_profile(spec, amplitudes)
    drive = A.apply(profile) - B.apply(profile)
    forcing = ExponentialSumForcing(spec.dims, ((-1.0, drive),))
    problem = EvolutionProblem(A=A, B=B, forcing=forcing, v0=profile, T=float(T))
    return ManufacturedSolution(problem=problem, profile=profile)


def example_coupled_spec(p: int = 2, m: int = 31) -> DiffusionSpec:
    """Ready-made diagonally dominant coupling tables with diagonal b."""
    k = np.diag(1.0 + 0.5 * np.arange(p))
    r = np.diag(0.3 + 0.1 * np.arange(p))
    for a in range(p - 1):
        k[a, a + 1] = k[a + 1, a] = 0.2
        r[a, a + 1] = r[a + 1, a] = -0.1
    b = np.diag(1.0 + 0.25 * np.arange(p))
    return DiffusionSpec(p=p, m=m, k=k, r=r, b=b)


def example_porosity_spec(p: int = 2, m: int = 31) -> DiffusionSpec:
    """Same stiffness tables as the coupled example but with a full SPD b."""
    base = example_coupled_spec(p=p, m=m)
    b = np.array(base.b)
    for a in range(p - 1):
        b[a, a + 1] = b[a + 1, a] = 0.2
    return DiffusionSpec(p=p, m=m, k=base.k, r=base.r, b=b)
