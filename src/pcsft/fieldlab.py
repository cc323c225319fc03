"""One-dimensional field laboratory on a finite grid.

A field configuration is a complex function on N grid points; the
discrete L2 product carries a dx weight. Scaling configurations by
sqrt(dx) identifies the grid with the Euclidean phase space of
dimension n = N, so every Gaussian-measure and projection tool applies
unchanged: the kernel matrix of a quadratic field energy is the same
matrix in both pictures.

Sign and normalisation conventions:
* kinetic kernel = -Laplacian / (2 mass), with the 3-point Laplacian
  and periodic wrap-around;
* field energy of a kernel R is (1/2) Re <R psi, psi> dx;
* momentum average uses the unitary Fourier normalisation
  psi_tilde = dx * fft(psi) / sqrt(2 pi), dk = 2 pi / (N dx), so that
  sum |psi_tilde|^2 dk equals the squared L2 norm, and the average is
  (1/2) sum k |psi_tilde|^2 dk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._csvio import write_csv
from .bridge import MonteCarloEstimate, classical_average
from .dynamics import _spectral_unitary
from .gaussian import GaussianState, pure_state_measure
from .symplectic import ComplexOperator, complex_to_real
from .variables import ClassicalVariable

__all__ = [
    "FieldGrid",
    "FieldState",
    "KernelOperator",
    "laplacian_matrix",
    "hamiltonian_kernel",
    "plane_wave",
    "gaussian_packet",
    "free_field_evolve",
    "interacting_evolve",
    "momentum_average",
    "fourier_transform",
    "field_energy",
    "field_pure_state",
    "gaussian_field_average",
]


@dataclass(frozen=True)
class FieldGrid:
    """Uniform periodic grid x_j = x0 + j dx, j = 0..n_points-1."""

    n_points: int
    dx: float
    x0: float = 0.0

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError("need at least two grid points")
        if self.dx <= 0:
            raise ValueError("dx must be positive")

    @classmethod
    def centered(cls, n_points: int, length: float) -> "FieldGrid":
        """Grid of given total length with points symmetric about 0."""
        dx = length / n_points
        return cls(n_points, dx, x0=-(n_points - 1) * dx / 2.0)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_points)

    @property
    def length(self) -> float:
        return self.n_points * self.dx


@dataclass(frozen=True, eq=False)
class FieldState:
    """Complex field configuration on a grid."""

    grid: FieldGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), got {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx)

    def euclidean_coordinates(self) -> np.ndarray:
        """sqrt(dx)-scaled complex coordinates; Euclidean norm = L2 norm."""
        return self.values * math.sqrt(self.grid.dx)

    @classmethod
    def from_euclidean(cls, grid: FieldGrid, coords: np.ndarray) -> "FieldState":
        return cls(grid, np.asarray(coords, dtype=complex) / math.sqrt(grid.dx))

    def to_csv(self, path) -> None:
        """Columns x, re, im, abs2, one row per grid point (repr floats)."""
        rows = ([xj, vj.real, vj.imag, abs(vj) ** 2] for xj, vj in zip(self.grid.x, self.values))
        write_csv(path, ["x", "re", "im", "abs2"], rows)


def laplacian_matrix(grid: FieldGrid) -> np.ndarray:
    """3-point periodic Laplacian (psi_{j+1} - 2 psi_j + psi_{j-1}) / dx^2."""
    n = grid.n_points
    lap = np.zeros((n, n))
    idx = np.arange(n)
    lap[idx, idx] = -2.0
    lap[idx[:-1], idx[:-1] + 1] = 1.0
    lap[idx[:-1] + 1, idx[:-1]] = 1.0
    # the wrap-around pair; on two points it is the neighbour pair again
    lap[0, n - 1] += 1.0
    lap[n - 1, 0] += 1.0
    return lap / grid.dx**2


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Real symmetric N x N kernel of a quadratic field energy, checked
    finite and hermitian relative to its scale by :class:`ComplexOperator`."""

    grid: FieldGrid
    matrix: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.matrix):  # a float cast would drop the imaginary part
            raise ValueError("kernel must be a real matrix")
        m = np.array(self.matrix, dtype=float)
        n = self.grid.n_points
        if m.shape != (n, n):
            raise ValueError(f"kernel must be {n} x {n}, got {m.shape}")
        herm = ComplexOperator(m).is_hermitian()
        if not herm:
            raise ValueError(f"kernel must be hermitian (defect {herm.defect:.3e})")
        m = (m + m.T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def mass(cls, grid: FieldGrid, mass: float) -> "KernelOperator":
        """Kinetic kernel -Laplacian / (2 mass)."""
        if mass <= 0:
            raise ValueError("mass must be positive")
        return cls(grid, -laplacian_matrix(grid) / (2.0 * mass))

    @classmethod
    def potential(cls, grid: FieldGrid, v) -> "KernelOperator":
        """Multiplication kernel diag(V(x_j)) of a callable V."""
        values = np.asarray(v(grid.x), dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError("potential must produce one value per grid point")
        return cls(grid, np.diag(values))

    def __add__(self, other: "KernelOperator") -> "KernelOperator":
        if other.grid != self.grid:
            raise ValueError("kernels live on different grids")
        return KernelOperator(self.grid, self.matrix + other.matrix)

    @cached_property
    def eigensystem(self):
        return np.linalg.eigh(self.matrix)

    def ground_state(self) -> FieldState:
        """Normalised eigenvector of the smallest eigenvalue."""
        _, vecs = self.eigensystem
        return FieldState.from_euclidean(self.grid, vecs[:, 0])


def hamiltonian_kernel(grid: FieldGrid, mass: float, v) -> KernelOperator:
    """Kinetic plus potential kernel -Lap/(2 mass) + diag(V)."""
    return KernelOperator.mass(grid, mass) + KernelOperator.potential(grid, v)


def plane_wave(grid: FieldGrid, k0: float, amplitude: float = 1.0) -> FieldState:
    return FieldState(grid, amplitude * np.exp(1j * k0 * grid.x))


def gaussian_packet(
    grid: FieldGrid, center: float, width: float, k0: float = 0.0
) -> FieldState:
    """L2-normalised Gaussian bump exp(-(x-c)^2 / (4 w^2)) e^{i k0 x}."""
    if width <= 0:
        raise ValueError("width must be positive")
    envelope = np.exp(-((grid.x - center) ** 2) / (4.0 * width**2))
    values = envelope * np.exp(1j * k0 * grid.x)
    nrm = math.sqrt(float(np.sum(np.abs(values) ** 2) * grid.dx))
    if nrm == 0.0:
        raise ValueError("packet vanishes on the grid")
    return FieldState(grid, values / nrm)


def _check_grid(r: KernelOperator, grid: FieldGrid) -> None:
    if r.grid != grid:
        raise ValueError("kernel grid does not match the field grid")


def free_field_evolve(psi0: FieldState, t: float) -> FieldState:
    """Unit-kernel evolution: a global phase rotation exp(-it)."""
    return FieldState(psi0.grid, psi0.values * np.exp(-1j * t))


def interacting_evolve(psi0: FieldState, r: KernelOperator, t: float) -> FieldState:
    """Evolve by exp(-iRt) for a kernel R on the field's grid."""
    _check_grid(r, psi0.grid)
    u = _spectral_unitary(*r.eigensystem, t)
    return FieldState(psi0.grid, u @ psi0.values)


def momentum_average(psi: FieldState) -> float:
    """(1/2) sum k |psi_tilde(k)|^2 dk."""
    n, dx = psi.grid.n_points, psi.grid.dx
    k = 2.0 * np.pi * np.fft.fftfreq(n, dx)
    power = np.abs(np.fft.fft(psi.values)) ** 2
    # |psi_tilde|^2 dk = (dx^2 / 2pi) |fft|^2 * (2pi / (N dx)) = dx/N |fft|^2
    return 0.5 * float(np.sum(k * power) * dx / n)


def fourier_transform(psi: FieldState):
    """(k, amplitudes) sorted by k, normalised so sum |amp|^2 dk = |psi|^2."""
    n, dx = psi.grid.n_points, psi.grid.dx
    k = 2.0 * np.pi * np.fft.fftfreq(n, dx)
    amps = np.fft.fft(psi.values) * dx / math.sqrt(2.0 * np.pi)
    order = np.argsort(k, kind="stable")
    return k[order], amps[order]


def field_energy(psi: FieldState, r: KernelOperator) -> float:
    """(1/2) Re <R psi, psi> dx for a kernel R on the field's grid."""
    _check_grid(r, psi.grid)
    val = complex(np.vdot(psi.values, r.matrix @ psi.values)) * psi.grid.dx
    return 0.5 * val.real


def field_pure_state(psi: FieldState, alpha: float) -> GaussianState:
    """Pure-state Gaussian measure concentrated on psi (L2-normalised)."""
    coords = psi.euclidean_coordinates()
    return pure_state_measure(coords, alpha)


def gaussian_field_average(
    r: KernelOperator, rho: GaussianState, seed: int, count: int
) -> MonteCarloEstimate:
    """Monte Carlo mean of the quadratic field energy over a Gaussian
    measure on the sqrt(dx)-embedded field phase space.

    The rows of the sample stream are Euclidean (q || p) coordinates;
    each contributes (1/2) Re <R c, c> for c = q + ip, which equals
    field_energy of the corresponding field configuration. This is
    :func:`pcsft.bridge.classical_average` of the energy variable of the
    real form of R, a :class:`KernelOperator` on N = rho.n grid points.
    """
    if r.grid.n_points != rho.n:
        raise ValueError(f"kernel must be {rho.n} x {rho.n}, got {r.matrix.shape}")
    op = ComplexOperator(r.matrix)
    energy = ClassicalVariable.quadratic(complex_to_real(op), 0.5)
    return classical_average(energy, rho, seed, count)
