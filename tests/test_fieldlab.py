"""Tests for the grid field laboratory.

Closed-form oracles:
* periodic 3-point kinetic kernel -Lap/(2m) has eigenvalues
  2 sin^2(pi k / N) / (m dx^2), k = 0..N-1;
* a grid-aligned plane wave e^{i k0 x} has momentum average
  (1/2) k0 |psi|^2 and kinetic energy (1/2) * 2 sin^2(pi m0/N)/(m dx^2)
  * |psi|^2 for mode m0;
* the half-trace rule: Gaussian field-energy averages equal
  (1/2) trace(R M) for complex covariance M.
"""

import numpy as np
import pytest
import scipy.linalg

from pcsft.bridge import classical_average
from pcsft.fieldlab import (
    FieldGrid,
    FieldState,
    KernelOperator,
    field_energy,
    field_pure_state,
    fourier_transform,
    free_field_evolve,
    gaussian_field_average,
    gaussian_packet,
    hamiltonian_kernel,
    interacting_evolve,
    laplacian_matrix,
    momentum_average,
    plane_wave,
)
from pcsft.gaussian import GaussianState, is_j_invariant, quadratic_average, sample
from pcsft.symplectic import ComplexOperator, complex_to_real
from pcsft.variables import ClassicalVariable


def periodic_grid(n=32, length=2 * np.pi):
    return FieldGrid.centered(n, length)


# ---------------------------------------------------------------------------
# Grids and states
# ---------------------------------------------------------------------------


def test_centered_grid_is_symmetric():
    g = FieldGrid.centered(8, 4.0)
    assert g.dx == pytest.approx(0.5)
    np.testing.assert_allclose(g.x, -np.flip(g.x), atol=1e-14)
    assert g.length == pytest.approx(4.0)
    with pytest.raises(ValueError):
        FieldGrid(1, 0.1)
    with pytest.raises(ValueError):
        FieldGrid(8, -0.1)


def test_non_finite_arguments_are_named_before_any_arithmetic():
    g = periodic_grid(8)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="dx must be positive and finite"):
            FieldGrid(8, bad)
        with pytest.raises(ValueError, match="x0 must be finite"):
            FieldGrid(8, 1.0, x0=bad)
        with pytest.raises(ValueError, match="length must be positive and finite"):
            FieldGrid.centered(8, bad)
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            KernelOperator.mass(g, bad)
        with pytest.raises(ValueError, match="width must be positive and finite"):
            gaussian_packet(g, 0.0, bad)


def test_field_state_norm_and_embedding():
    g = periodic_grid()
    psi = plane_wave(g, 0.0, amplitude=2.0)
    assert psi.norm_sq() == pytest.approx(4.0 * g.length)
    coords = psi.euclidean_coordinates()
    assert float(np.sum(np.abs(coords) ** 2)) == pytest.approx(psi.norm_sq())
    back = FieldState.from_euclidean(g, coords)
    np.testing.assert_allclose(back.values, psi.values, atol=1e-14)
    with pytest.raises(ValueError):
        FieldState(g, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        FieldState(g, np.full(g.n_points, np.nan))


def test_gaussian_packet_is_normalised():
    g = FieldGrid.centered(128, 20.0)
    psi = gaussian_packet(g, center=1.0, width=0.8, k0=2.0)
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="width"):
        gaussian_packet(g, center=1.0, width=0.0)
    with pytest.raises(ValueError, match="vanishes"):
        gaussian_packet(g, center=1e6, width=0.8)  # the envelope underflows to 0


# ---------------------------------------------------------------------------
# Kernels and spectra
# ---------------------------------------------------------------------------


def test_periodic_kinetic_spectrum():
    # two points are each other's neighbour on both sides, so each couples
    # to the other twice: the spectrum is 0 and 4 / dx^2 before the 1 / (2 mass)
    mass = 0.7
    for n in (16, 3, 2):
        g = FieldGrid(n, 0.3)
        kin = KernelOperator.mass(g, mass)
        w, _ = kin.eigensystem
        expected = np.sort(2.0 * np.sin(np.pi * np.arange(n) / n) ** 2 / (mass * g.dx**2))
        np.testing.assert_allclose(np.sort(w), expected, atol=1e-10)


def test_kernel_construction_and_validation():
    g = periodic_grid(8)
    pot = KernelOperator.potential(g, lambda x: x**2 / 2)
    np.testing.assert_allclose(np.diag(pot.matrix), g.x**2 / 2, atol=1e-14)
    with pytest.raises(ValueError, match="one value per grid point"):
        KernelOperator.potential(g, lambda x: np.ones(3))
    combined = hamiltonian_kernel(g, 1.0, lambda x: x**2 / 2)
    np.testing.assert_allclose(
        combined.matrix, KernelOperator.mass(g, 1.0).matrix + pot.matrix, atol=1e-14
    )
    with pytest.raises(ValueError):
        KernelOperator.mass(g, 0.0)
    with pytest.raises(ValueError):
        KernelOperator(g, np.arange(64.0).reshape(8, 8))  # not symmetric
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(8)
        m[3, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            KernelOperator(g, m)
    with pytest.raises(ValueError, match="8 x 8"):
        KernelOperator(g, np.eye(8)[:, :7])  # non-square
    with pytest.raises(ValueError, match="8 x 8"):
        KernelOperator(g, np.ones(8))  # one-dimensional
    with pytest.raises(ValueError, match="real"):  # hermitian, but not real
        KernelOperator(g, np.eye(8) + 1j * (np.eye(8, k=1) - np.eye(8, k=-1)))
    with pytest.raises(ValueError):
        pot + KernelOperator.mass(periodic_grid(16), 1.0)  # different grids


# ---------------------------------------------------------------------------
# Position, momentum, Fourier
# ---------------------------------------------------------------------------


def test_plane_wave_momentum_is_half_k0():
    n = 32
    g = periodic_grid(n, length=2 * np.pi)
    for mode in (0, 1, 3, -5):
        k0 = mode  # dk = 2 pi / L = 1, so integer modes are grid-aligned
        psi = plane_wave(g, k0)
        assert momentum_average(psi) == pytest.approx(
            0.5 * k0 * psi.norm_sq(), abs=1e-10
        )


def test_packet_momentum_and_position():
    g = FieldGrid.centered(256, 40.0)
    a, k0 = 3.0, 1.5
    psi = gaussian_packet(g, center=a, width=1.2, k0=k0)
    density = np.abs(psi.values) ** 2 * g.dx
    assert float(np.sum(g.x * density)) == pytest.approx(a, abs=1e-6)
    assert momentum_average(psi) == pytest.approx(0.5 * k0, abs=1e-6)
    # symmetric real packet: centred at 0 with no momentum
    sym = gaussian_packet(g, center=0.0, width=1.2)
    assert float(np.sum(g.x * np.abs(sym.values) ** 2)) == pytest.approx(0.0, abs=1e-12)
    assert momentum_average(sym) == pytest.approx(0.0, abs=1e-12)


def test_fourier_parseval_and_ordering():
    g = periodic_grid(64, length=10.0)
    psi = gaussian_packet(g, center=-1.0, width=0.7, k0=2.1)
    k, amps = fourier_transform(psi)
    assert np.all(np.diff(k) > 0)
    dk = 2 * np.pi / g.length
    assert float(np.sum(np.abs(amps) ** 2) * dk) == pytest.approx(
        psi.norm_sq(), rel=1e-10
    )


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------


def test_plane_wave_kinetic_energy():
    n, mass = 32, 1.0
    g = periodic_grid(n, length=2 * np.pi)
    kin = KernelOperator.mass(g, mass)
    mode = 3
    psi = plane_wave(g, mode)
    expected = 0.5 * (2 * np.sin(np.pi * mode / n) ** 2 / (mass * g.dx**2)) * psi.norm_sq()
    assert field_energy(psi, kin) == pytest.approx(expected, rel=1e-10)


def test_ground_state_energy_is_half_eigenvalue():
    g = FieldGrid.centered(64, 20.0)
    kernel = hamiltonian_kernel(g, 1.0, lambda x: x**2 / 2)
    ground = kernel.ground_state()
    assert ground.norm_sq() == pytest.approx(1.0, abs=1e-12)
    w, _ = kernel.eigensystem
    assert field_energy(ground, kernel) == pytest.approx(0.5 * w[0], rel=1e-12)


def test_harmonic_well_richardson_ratio():
    # halving dx divides the O(dx^2) eigenvalue error by 4
    energies = {}
    for n in (64, 128, 256):
        g = FieldGrid.centered(n, 20.0)
        w, _ = hamiltonian_kernel(g, 1.0, lambda x: x**2 / 2).eigensystem
        energies[n] = w[0]
    ratio = (energies[64] - energies[128]) / (energies[128] - energies[256])
    assert 3.8 <= ratio <= 4.2
    assert energies[256] == pytest.approx(0.5, abs=1e-3)


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------


def test_free_evolution_is_phase_rotation():
    g = periodic_grid()
    psi = gaussian_packet(g, center=0.5, width=0.9, k0=1.0)
    t = 0.73
    out = free_field_evolve(psi, t)
    np.testing.assert_allclose(out.values, psi.values * np.exp(-1j * t), atol=1e-14)
    assert out.norm_sq() == pytest.approx(psi.norm_sq(), rel=1e-12)
    np.testing.assert_allclose(np.abs(out.values), np.abs(psi.values), rtol=1e-12)


def test_interacting_evolution_matches_expm_and_conserves():
    g = periodic_grid(16)
    kernel = hamiltonian_kernel(g, 0.8, lambda x: np.cos(x))
    psi = gaussian_packet(g, center=0.3, width=0.7, k0=1.0)
    t = 0.9
    out = interacting_evolve(psi, kernel, t)
    expected = scipy.linalg.expm(-1j * kernel.matrix * t) @ psi.values
    np.testing.assert_allclose(out.values, expected, atol=1e-10)
    assert out.norm_sq() == pytest.approx(psi.norm_sq(), rel=1e-10)
    assert field_energy(out, kernel) == pytest.approx(
        field_energy(psi, kernel), rel=1e-10
    )
    with pytest.raises(ValueError, match="grid does not match"):
        interacting_evolve(psi, KernelOperator.mass(periodic_grid(16, 1.0), 1.0), t)


# ---------------------------------------------------------------------------
# Gaussian field averages
# ---------------------------------------------------------------------------


def test_field_pure_state_measure():
    g = FieldGrid.centered(32, 10.0)
    kernel = hamiltonian_kernel(g, 1.0, lambda x: x**2 / 2)
    ground = kernel.ground_state()
    rho = field_pure_state(ground, alpha=0.02)
    assert rho.alpha == pytest.approx(0.02, abs=1e-12)
    assert is_j_invariant(rho)


def test_gaussian_field_average_half_trace_rule():
    g = FieldGrid.centered(32, 10.0)
    kernel = hamiltonian_kernel(g, 1.0, lambda x: x**2 / 2)
    n = g.n_points

    # pure state on the ground eigenvector: mean = alpha * lambda_0 / 2
    alpha = 0.04
    rho = field_pure_state(kernel.ground_state(), alpha)
    est = gaussian_field_average(kernel, rho, seed=21, count=40_000)
    w, _ = kernel.eigensystem
    assert abs(est.mean - 0.5 * alpha * w[0]) <= 4 * est.stderr

    # maximally mixed: mean = alpha * trace(R) / (2 N)
    iso = GaussianState.isotropic(n, alpha)
    est2 = gaussian_field_average(kernel, iso, seed=22, count=40_000)
    expected = 0.5 * alpha * float(np.trace(kernel.matrix)) / n
    assert abs(est2.mean - expected) <= 4 * est2.stderr

    # both agree with the exact half-trace of R against the complex covariance
    exact = 0.5 * quadratic_average(iso, ComplexOperator(kernel.matrix.astype(complex)))
    assert exact == pytest.approx(expected, rel=1e-12)

    # identity kernel, unit dispersion: mean = 1/2
    est3 = gaussian_field_average(
        KernelOperator(g, np.eye(n)), GaussianState.isotropic(n, 1.0),
        seed=23, count=40_000,
    )
    assert abs(est3.mean - 0.5) <= 4 * est3.stderr


def test_gaussian_field_average_matches_per_sample_energy():
    g = FieldGrid.centered(16, 6.0)
    kernel = hamiltonian_kernel(g, 1.0, lambda x: 0.3 * x**2)
    rho = GaussianState.isotropic(g.n_points, 0.5)
    pts = sample(rho, seed=24, count=5)
    for row in pts:
        state = FieldState.from_euclidean(g, row[: g.n_points] + 1j * row[g.n_points :])
        c = row[: g.n_points] + 1j * row[g.n_points :]
        direct = 0.5 * float(np.real(np.vdot(c, kernel.matrix @ c)))
        assert field_energy(state, kernel) == pytest.approx(direct, rel=1e-12)


def test_gaussian_field_average_determinism_and_validation():
    g = FieldGrid.centered(8, 4.0)
    kernel = KernelOperator.mass(g, 1.0)
    rho = GaussianState.isotropic(8, 1.0)
    a = gaussian_field_average(kernel, rho, seed=25, count=10_000)
    b = gaussian_field_average(kernel, rho, seed=25, count=10_000)
    assert a == b
    energy = ClassicalVariable.quadratic(complex_to_real(ComplexOperator(kernel.matrix)), 0.5)
    assert a == classical_average(energy, rho, seed=25, count=10_000)
    with pytest.raises(ValueError):
        gaussian_field_average(kernel, GaussianState.isotropic(4, 1.0), seed=0, count=10)
    with pytest.raises(ValueError):
        gaussian_field_average(kernel, rho, seed=0, count=1)
    with pytest.raises(ValueError, match="hermitian"):
        KernelOperator(g, np.triu(np.ones((8, 8))))
    # round-off asymmetry far below the kernel's scale is accepted
    big = 1e7 * kernel.matrix
    big[0, 1] += 1e-6
    scaled = gaussian_field_average(KernelOperator(g, big), rho, seed=25, count=10_000)
    assert scaled.mean == pytest.approx(1e7 * a.mean, rel=1e-9)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def test_field_csv_snapshot(tmp_path):
    g = FieldGrid.centered(8, 4.0)
    psi = gaussian_packet(g, center=0.0, width=1.0, k0=1.0)
    path = tmp_path / "field.csv"
    psi.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,re,im,abs2"
    assert len(lines) == 9
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(data[:, 0], g.x, atol=0)
    np.testing.assert_allclose(data[:, 1] + 1j * data[:, 2], psi.values, atol=0)
    first = path.read_bytes()
    psi.to_csv(path)
    assert path.read_bytes() == first
