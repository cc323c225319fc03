"""Registered experiments: seeded, configurable, deterministic checks.

Each experiment resolves a parameter dictionary, runs a batch of checks,
and produces a report of metric rows (name, value, tolerance, pass).
Reports serialise to JSON and CSV byte-identically across reruns of the
same configuration: wall-clock duration is kept on the in-memory record
for console output but deliberately excluded from the serialised forms.

Some metrics assert the presence of a violation rather than its absence
(comparison ">="): the norm audit, for instance, passes when the
out-of-class Hamiltonian visibly breaks norm preservation.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import bridge, dynamics, fieldlab, gaussian, symplectic, variables
from ._csvio import write_csv

__all__ = [
    "ConfigError",
    "MetricRow",
    "ReportRecord",
    "ExperimentSpec",
    "REGISTRY",
    "list_experiments",
    "load_config",
    "run_experiment",
]

SCHEMA_VERSION = "1"


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class MetricRow:
    """One checked quantity; passes when value <= tolerance (or >= for
    violation-detection metrics)."""

    name: str
    value: float
    tolerance: float
    comparison: str = "<="
    stderr: Optional[float] = None

    def __post_init__(self):
        if self.comparison not in ("<=", ">="):
            raise ValueError("comparison must be '<=' or '>='")

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return bool(self.value <= self.tolerance)
        return bool(self.value >= self.tolerance)


@dataclass(frozen=True)
class ReportRecord:
    experiment: str
    seed: int
    config_hash: str
    parameters: dict
    metrics: tuple
    conventions: dict
    duration_seconds: float  # console only; never serialised

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_json(self) -> str:
        payload = asdict(self)
        del payload["duration_seconds"]
        for row, m in zip(payload["metrics"], self.metrics):
            row["passed"] = m.passed
        payload.update(schema_version=SCHEMA_VERSION, passed=self.passed)
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["name", "value", "stderr", "tolerance", "comparison", "passed"],
            (
                [m.name, m.value, m.stderr, m.tolerance, m.comparison, str(m.passed).lower()]
                for m in self.metrics
            ),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    defaults: dict
    runner: Callable
    conventions: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def _admissible_operator(rng, n):
    d = rng.standard_normal((n, n))
    d = (d + d.T) / 2
    s = rng.standard_normal((n, n))
    s = (s - s.T) / 2
    return symplectic.BlockOperator.from_pair(d, s)


def _j_invariant_state(rng, n, alpha):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = x @ x.conj().T
    m *= alpha / float(np.real(np.trace(m)))
    return gaussian.from_complex_covariance(symplectic.ComplexOperator(m))


def _sub_seed(rng) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _relative_defect(value, reference) -> float:
    """|value - reference| relative to |reference|, at every scale: a zero
    reference needs a zero defect."""
    defect = abs(value - reference)
    if reference == 0:
        return math.inf if defect else 0.0
    return float(defect / abs(reference))


def _quartic_benchmark():
    return variables.ClassicalVariable.polynomial(
        symplectic.BlockOperator(np.eye(2)), [0.5, 0.5]
    )


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _run_schrodinger_equivalence(params, seed, out_dir):
    rng = np.random.default_rng(seed)
    n = int(params["dimension"])
    times = [float(t) for t in params["times"]]
    if len(times) < 2:
        raise ConfigError("times must list at least two times for the group law")
    method_defect = 0.0
    dictionary_defect = 0.0
    isometry_defect = 0.0
    group_defect = 0.0
    for _ in range(int(params["trials"])):
        h = dynamics.QuadraticHamiltonian(_admissible_operator(rng, n))
        m = symplectic.real_to_complex(h.operator)
        for t in times:
            u_spec = dynamics.linear_flow(h, t, method="spectral").matrix
            u_expm = dynamics.linear_flow(h, t, method="expm").matrix
            method_defect = max(method_defect, float(np.max(np.abs(u_spec - u_expm))))
            u_c = dynamics.schrodinger_flow(m, t)
            dictionary_defect = max(
                dictionary_defect,
                float(np.max(np.abs(symplectic.complex_to_real(u_c).matrix - u_spec))),
                float(
                    np.max(
                        np.abs(
                            symplectic.real_to_complex(
                                symplectic.BlockOperator(u_expm)
                            ).matrix
                            - u_c.matrix
                        )
                    )
                ),
            )
            isometry_defect = max(
                isometry_defect, float(np.max(np.abs(u_spec.T @ u_spec - np.eye(2 * n))))
            )
        u1 = dynamics.linear_flow(h, times[0]).matrix
        u2 = dynamics.linear_flow(h, times[1]).matrix
        u12 = dynamics.linear_flow(h, times[0] + times[1]).matrix
        group_defect = max(group_defect, float(np.max(np.abs(u1 @ u2 - u12))))
    return [
        MetricRow("spectral_vs_expm_defect", method_defect, 1e-10),
        MetricRow("complex_dictionary_defect", dictionary_defect, 1e-10),
        MetricRow("isometry_defect", isometry_defect, 1e-10),
        MetricRow("group_law_defect", group_defect, 1e-10),
    ]


def _run_dispersion_preservation(params, seed, out_dir):
    rng = np.random.default_rng(seed)
    n = int(params["dimension"])
    alpha = float(params["alpha"])
    count = int(params["count"])
    rho = _j_invariant_state(rng, n, alpha)
    h = dynamics.QuadraticHamiltonian(_admissible_operator(rng, n))

    disp_drift = 0.0
    inv_defect = 0.0
    for t in params["times"]:
        pushed = gaussian.pushforward(rho, dynamics.linear_flow(h, float(t)))
        disp_drift = max(disp_drift, abs(gaussian.dispersion(pushed) - alpha))
        inv_defect = max(inv_defect, gaussian.is_j_invariant(pushed).defect)

    a = _admissible_operator(rng, n)
    exact = gaussian.quadratic_average(rho, a)
    real_route = float(np.trace(a.matrix @ rho.covariance))
    trace_defect = _relative_defect(real_route, exact)

    f = variables.ClassicalVariable.quadratic(a, coefficient=1.0)
    est = bridge.classical_average(f, rho, seed=_sub_seed(rng), count=count)
    mc_z = abs(est.mean - exact) / est.stderr

    back = gaussian.from_complex_covariance(gaussian.complex_covariance(rho))
    roundtrip = float(np.max(np.abs(back.covariance - rho.covariance)))

    return [
        MetricRow("dispersion_drift", disp_drift, 1e-10),
        MetricRow("j_invariance_defect_after_flow", inv_defect, 1e-10),
        MetricRow("trace_identity_relative_defect", trace_defect, 1e-12),
        MetricRow("monte_carlo_z_score", mc_z, 4.0, stderr=est.stderr),
        MetricRow("complex_covariance_roundtrip_defect", roundtrip, 1e-12),
    ]


def _run_heisenberg_check(params, seed, out_dir):
    rng = np.random.default_rng(seed)
    n = int(params["dimension"])
    t = float(params["time"])
    eps = float(params["eps"])
    x = rng.standard_normal((2 * n, 2 * n))
    h = dynamics.QuadraticHamiltonian(symplectic.BlockOperator((x + x.T) / 2))
    a = symplectic.BlockOperator(rng.standard_normal((2 * n, 2 * n)))
    j = symplectic.j_matrix(n)

    a_t = dynamics.heisenberg_evolve(a, h, t).matrix
    fd = (
        dynamics.heisenberg_evolve(a, h, t + eps).matrix
        - dynamics.heisenberg_evolve(a, h, t - eps).matrix
    ) / (2 * eps)
    hm = h.operator.matrix
    rhs = (a_t @ hm @ j - hm @ j @ a_t) + a_t @ (j @ hm - hm @ j)
    ode_defect = float(np.max(np.abs(fd - rhs)))

    u = dynamics.linear_flow(h, t)
    value_defect = 0.0
    for _ in range(16):
        psi = rng.standard_normal(2 * n)
        lhs = psi @ a_t @ psi
        moved = u.matrix @ psi
        value_defect = max(value_defect, _relative_defect(moved @ a.matrix @ moved, lhs))

    hj = dynamics.QuadraticHamiltonian(_admissible_operator(rng, n))
    ac = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ac = ac + ac.conj().T
    aj = symplectic.complex_to_real(symplectic.ComplexOperator(ac))
    m = symplectic.real_to_complex(hj.operator).matrix
    w, v = np.linalg.eigh(m)
    u_plus = (v * np.exp(1j * w * t)) @ v.conj().T
    expected = u_plus @ ac @ u_plus.conj().T
    got = symplectic.real_to_complex(dynamics.heisenberg_evolve(aj, hj, t)).matrix
    complex_defect = float(np.max(np.abs(got - expected)))

    return [
        MetricRow("ode_finite_difference_defect", ode_defect, 1e-6),
        MetricRow("value_consistency_relative_defect", value_defect, 1e-9),
        MetricRow("complex_form_defect", complex_defect, 1e-10),
    ]


def _run_von_neumann_square(params, seed, out_dir):
    rng = np.random.default_rng(seed)
    n = int(params["dimension"])
    alpha = float(params["alpha"])
    t = float(params["time"])
    eps = float(params["eps"])
    rho = _j_invariant_state(rng, n, alpha)
    h = dynamics.QuadraticHamiltonian(_admissible_operator(rng, n))
    m = symplectic.real_to_complex(h.operator)

    via_classical = bridge.project_state(
        gaussian.pushforward(rho, dynamics.linear_flow(h, t)), alpha=alpha
    )
    via_quantum = bridge.von_neumann_evolve(bridge.project_state(rho, alpha=alpha), m, t)
    square_defect = float(np.max(np.abs(via_classical.matrix - via_quantum.matrix)))

    d = bridge.project_state(rho)
    fd = (
        bridge.von_neumann_evolve(d, m, eps).matrix
        - bridge.von_neumann_evolve(d, m, -eps).matrix
    ) / (2 * eps)
    commutator = 1j * (d.matrix @ m.matrix - m.matrix @ d.matrix)
    ode_defect = float(np.max(np.abs(fd - commutator)))

    purity_drift = abs(bridge.von_neumann_evolve(d, m, t).purity() - d.purity())

    return [
        MetricRow("projection_evolution_square_defect", square_defect, 1e-9),
        MetricRow("ode_finite_difference_defect", ode_defect, 1e-6),
        MetricRow("purity_drift", purity_drift, 1e-10),
    ]


def _run_purestate_sampling(params, seed, out_dir):
    rng = np.random.default_rng(seed)
    n = int(params["dimension"])
    alpha = float(params["alpha"])
    count = int(params["count"])
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    rho = gaussian.pure_state_measure(psi, alpha)

    disp_defect = abs(gaussian.dispersion(rho) - alpha)
    cov_defect = float(
        np.max(
            np.abs(gaussian.complex_covariance(rho).matrix - alpha * np.outer(psi, psi.conj()))
        )
    )

    sub = _sub_seed(rng)
    pts = gaussian.sample(rho, sub, count)
    mean_z = float(np.max(np.abs(pts.mean(axis=0)))) / np.sqrt(alpha / count)

    # each check holds at most one more array of the sample's size
    u, v = psi.real, psi.imag
    basis = np.stack([np.concatenate([u, v]), np.concatenate([-v, u])])
    residual = (pts @ basis.T) @ basis
    np.subtract(pts, residual, out=residual)
    plane_defect = float(np.max(np.abs(residual, out=residual)))
    del residual

    z = np.empty((count, n), dtype=complex)
    z.real, z.imag = pts[:, :n], pts[:, n:]
    del pts
    empirical = z.T @ z.conj() / count
    emp_defect = float(np.max(np.abs(empirical - alpha * np.outer(psi, psi.conj()))))

    whole = gaussian.sample(rho, sub, 64)
    split = np.vstack(
        [gaussian.sample(rho, sub, 20), gaussian.sample(rho, sub, 44, start=20)]
    )
    split_defect = 0.0 if np.array_equal(whole, split) else 1.0

    return [
        MetricRow("dispersion_defect", disp_defect, 1e-12),
        MetricRow("complex_covariance_defect", cov_defect, 1e-12),
        MetricRow("plane_support_defect", plane_defect, 1e-10),
        MetricRow("empirical_covariance_defect", emp_defect, 0.05 * alpha),
        MetricRow("normalised_mean_defect", mean_z, 5.0),
        MetricRow("split_stream_defect", split_defect, 0.0),
    ]


def _run_alpha_scan(params, seed, out_dir):
    alphas = [float(a) for a in params["alphas"]]
    f = _quartic_benchmark()
    shape = gaussian.GaussianState.isotropic(1, 1.0)
    report = bridge.alpha_scan(
        f,
        shape,
        alphas=alphas,
        seed=seed,
        count=int(params["count"]),
    )
    if out_dir is not None:
        report.to_csv(Path(out_dir) / "alpha-scan-points.csv")

    mean_z = max(
        abs(mean - (0.5 + a)) / se
        for a, mean, se in zip(report.alphas, report.classical_means, report.classical_stderrs)
    )
    err_z = max(
        abs(err - a) / se
        for a, err, se in zip(report.alphas, report.errors, report.error_stderrs)
    )
    slope_defect = abs(report.slope - 1.0) if report.fit_points >= 2 else float("inf")
    return [
        MetricRow("quantum_value_defect", abs(report.quantum_value - 0.5), 1e-12),
        MetricRow("classical_mean_max_z_score", mean_z, 4.0),
        MetricRow("error_vs_alpha_max_z_score", err_z, 4.0),
        MetricRow("significant_points", float(report.fit_points), float(len(report.alphas)), ">="),
        MetricRow("slope_defect", slope_defect, 0.15),
    ]


def _run_norm_audit(params, seed, out_dir):
    rng = np.random.default_rng(seed)
    n = int(params["dimension"])

    # linear flows: J-commuting kernels preserve norms, generic ones break them
    hj = dynamics.QuadraticHamiltonian(_admissible_operator(rng, n))
    u = dynamics.linear_flow(hj, 0.7).matrix
    iso_defect = float(np.max(np.abs(u.T @ u - np.eye(2 * n))))

    h_diag = dynamics.QuadraticHamiltonian(
        symplectic.BlockOperator(np.diag(np.arange(1.0, 2 * n + 1)))
    )
    u_bad = dynamics.linear_flow(h_diag, 0.3).matrix
    probes = rng.standard_normal((32, 2 * n))
    norms_in = np.linalg.norm(probes, axis=1)
    norms_out = np.linalg.norm(probes @ u_bad.T, axis=1)
    probe_violation = float(np.max(np.abs(norms_out - norms_in) / norms_in))

    # in-class nonquadratic Hamiltonian: zero defect, conserved norm
    op = _admissible_operator(rng, n)
    h_poly = dynamics.NonquadraticHamiltonian.polynomial(op, [0.5, 0.0, 0.125])
    psi0 = symplectic.PhaseVector.from_flat(rng.standard_normal(2 * n))
    poly_defect = abs(dynamics.norm_preservation_defect(h_poly, psi0))
    traj = dynamics.integrate(
        h_poly, psi0, float(params["poly_t_final"]), float(params["poly_dt"])
    )
    poly_drift = float(np.max(np.abs(traj.norms - traj.norms[0])))

    # out-of-class counterexample: defect -1 at (1, 1), runaway norm
    h_bad = dynamics.q_squared_p()
    probe = symplectic.PhaseVector([1.0], [1.0])
    bad_defect = abs(dynamics.norm_preservation_defect(h_bad, probe))
    bad_traj = dynamics.integrate(
        h_bad, probe, float(params["t_final"]), float(params["dt"])
    )
    endpoint_error = float(
        np.max(np.abs(bad_traj.states[-1] - np.array([2.0, 0.25])))
    )
    bad_drift = abs(float(bad_traj.norms[-1] - bad_traj.norms[0]))
    if out_dir is not None:
        bad_traj.to_csv(Path(out_dir) / "norm-audit-trajectory.csv")

    return [
        MetricRow("linear_isometry_defect", iso_defect, 1e-10),
        MetricRow("non_commuting_probe_violation", probe_violation, 0.01, ">="),
        MetricRow("polynomial_np_defect", poly_defect, 1e-12),
        MetricRow("polynomial_norm_drift", poly_drift, 1e-9),
        MetricRow("counterexample_np_defect", bad_defect, 0.5, ">="),
        MetricRow("counterexample_endpoint_error", endpoint_error, 1e-4),
        MetricRow("counterexample_norm_drift", bad_drift, 0.5, ">="),
    ]


def _run_oddness_audit(params, seed, out_dir):
    rng = np.random.default_rng(seed)
    n = int(params["dimension"])
    dt = float(params["dt"])
    count = int(params["count"])
    alpha = float(params["alpha"])
    times = [float(t) for t in params["times"]]
    if 0.0 in times:
        raise ConfigError("times must be nonzero: the audit integrates to each one")

    op = _admissible_operator(rng, n)
    h_even = dynamics.NonquadraticHamiltonian.polynomial(op, [0.5, 0.1])
    psi = symplectic.PhaseVector.from_flat(rng.standard_normal(2 * n))
    even_defect = dynamics.flow_oddness_defect(h_even, psi, max(times), dt)

    odd_defect = dynamics.flow_oddness_defect(
        dynamics.q_squared_p(), symplectic.PhaseVector([0.5], [0.5]), 0.5, dt
    )

    # even measure through the odd flow: empirical mean stays at zero
    rho = gaussian.GaussianState.isotropic(n, alpha)
    pts = gaussian.sample(rho, _sub_seed(rng), count)
    mean_z = 0.0
    for t in times:
        moved = dynamics.integrate(h_even, pts, t, dt).states[-1]
        se = moved.std(axis=0, ddof=1) / np.sqrt(count)
        mean_z = max(mean_z, float(np.max(np.abs(moved.mean(axis=0)) / se)))

    # the odd Hamiltonian (even flow) visibly shifts the mean of q
    rho1 = gaussian.GaussianState.isotropic(1, 0.25)
    pts1 = gaussian.sample(rho1, _sub_seed(rng), count)
    moved = dynamics.integrate(dynamics.q_squared_p(), pts1, 0.3, dt).states[-1]
    se_q = float(moved[:, 0].std(ddof=1) / np.sqrt(count))
    drift_z = abs(float(moved[:, 0].mean())) / se_q

    return [
        MetricRow("even_hamiltonian_oddness_defect", even_defect, 1e-10),
        MetricRow("odd_hamiltonian_oddness_defect", odd_defect, 1e-2, ">="),
        MetricRow("symmetric_measure_mean_z_score", mean_z, 4.0),
        MetricRow("counterexample_mean_drift_z_score", drift_z, 5.0, ">="),
    ]


def _run_field_spectrum(params, seed, out_dir):
    length = float(params["length"])
    mass = float(params["mass"])
    spring = float(params["spring"])
    sizes = [int(s) for s in params["grid_sizes"]]
    if len(sizes) != 3:
        raise ConfigError("grid_sizes must list exactly three resolutions")
    if sizes[1] != 2 * sizes[0] or sizes[2] != 2 * sizes[1]:
        raise ConfigError("grid_sizes must each be twice the one before (Richardson ratio 4)")

    energies = []
    for n in sizes:
        g = fieldlab.FieldGrid.centered(n, length)
        kernel = fieldlab.hamiltonian_kernel(g, mass, lambda x: spring * x**2 / 2)
        w, _ = kernel.eigensystem
        energies.append(float(w[0]))
    ratio = (energies[0] - energies[1]) / (energies[1] - energies[2])
    ground_defect = abs(energies[2] - 0.5)

    g = fieldlab.FieldGrid.centered(sizes[1], length)
    kin = fieldlab.KernelOperator.mass(g, mass)
    w, _ = kin.eigensystem
    k = np.arange(sizes[1])
    expected = np.sort(2.0 * np.sin(np.pi * k / sizes[1]) ** 2 / (mass * g.dx**2))
    spectrum_defect = float(np.max(np.abs(np.sort(w) - expected)))

    dk = 2 * np.pi / g.length
    mode = 3
    wave = fieldlab.plane_wave(g, mode * dk)
    momentum_defect = abs(
        fieldlab.momentum_average(wave) - 0.5 * mode * dk * wave.norm_sq()
    )
    kvals, amps = fieldlab.fourier_transform(wave)
    parseval_defect = abs(float(np.sum(np.abs(amps) ** 2) * dk) - wave.norm_sq())

    return [
        MetricRow("richardson_ratio_defect", abs(ratio - 4.0), 0.2),
        MetricRow("ground_energy_defect", ground_defect, 1e-3),
        MetricRow("kinetic_spectrum_defect", spectrum_defect, 1e-8),
        MetricRow("plane_wave_momentum_defect", momentum_defect, 1e-8),
        MetricRow("parseval_defect", parseval_defect, 1e-8),
    ]


def _run_field_correspondence(params, seed, out_dir):
    rng = np.random.default_rng(seed)
    n = int(params["n_points"])
    length = float(params["length"])
    alpha = float(params["alpha"])
    count = int(params["count"])
    t = float(params["time"])

    g = fieldlab.FieldGrid.centered(n, length)
    kernel = fieldlab.hamiltonian_kernel(g, 1.0, lambda x: x**2 / 2)
    w, _ = kernel.eigensystem
    ground = kernel.ground_state()
    if out_dir is not None:
        ground.to_csv(Path(out_dir) / "field-ground-state.csv")

    rho_pure = fieldlab.field_pure_state(ground, alpha)
    est_pure = fieldlab.gaussian_field_average(kernel, rho_pure, _sub_seed(rng), count)
    pure_z = abs(est_pure.mean - 0.5 * alpha * w[0]) / est_pure.stderr

    rho_mixed = gaussian.GaussianState.isotropic(n, alpha)
    est_mixed = fieldlab.gaussian_field_average(kernel, rho_mixed, _sub_seed(rng), count)
    mixed_expected = 0.5 * alpha * float(np.trace(kernel.matrix)) / n
    mixed_z = abs(est_mixed.mean - mixed_expected) / est_mixed.stderr

    exact = 0.5 * gaussian.quadratic_average(
        rho_mixed, symplectic.ComplexOperator(kernel.matrix.astype(complex))
    )
    trace_defect = _relative_defect(exact, mixed_expected)

    psi = fieldlab.gaussian_packet(g, center=1.0, width=1.1, k0=2.0)
    evolved = fieldlab.interacting_evolve(psi, kernel, t)
    norm_drift = abs(evolved.norm_sq() - psi.norm_sq())
    energy_drift = abs(
        fieldlab.field_energy(evolved, kernel) - fieldlab.field_energy(psi, kernel)
    )

    kin = fieldlab.KernelOperator.mass(g, 1.0)
    dk = 2 * np.pi / g.length
    wave = fieldlab.plane_wave(g, 4 * dk)
    wave_t = fieldlab.interacting_evolve(wave, kin, t)
    momentum_drift = abs(
        fieldlab.momentum_average(wave_t) - fieldlab.momentum_average(wave)
    )

    return [
        MetricRow("pure_state_half_trace_z_score", pure_z, 4.0, stderr=est_pure.stderr),
        MetricRow("mixed_state_half_trace_z_score", mixed_z, 4.0, stderr=est_mixed.stderr),
        MetricRow("trace_formula_relative_defect", trace_defect, 1e-12),
        MetricRow("evolution_norm_drift", norm_drift, 1e-10),
        MetricRow("evolution_energy_drift", energy_drift, 1e-10),
        MetricRow("free_momentum_drift", momentum_drift, 1e-8),
    ]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_FIELD_CONVENTIONS = {
    "field_energy": "energy = (1/2) Re <R psi, psi> dx",
    "momentum": "average = (1/2) sum k |psi_tilde|^2 dk, unitary Fourier weights",
    "embedding": "phase-space coordinates = sqrt(dx) * field values",
}

REGISTRY = {
    spec.name: spec
    for spec in [
        ExperimentSpec(
            "schrodinger-equivalence",
            "linear flow of J-commuting kernels vs the complex unitary group",
            {"dimension": 4, "times": [0.3, 0.9, 1.6], "trials": 5},
            _run_schrodinger_equivalence,
        ),
        ExperimentSpec(
            "dispersion-preservation",
            "dispersion and J-invariance under isometric flows; exact trace averages",
            {"dimension": 3, "alpha": 0.05, "times": [0.4, 1.1], "count": 50000},
            _run_dispersion_preservation,
        ),
        ExperimentSpec(
            "heisenberg-check",
            "observable evolution: ODE, value consistency, complex form",
            {"dimension": 2, "time": 0.6, "eps": 1e-5},
            _run_heisenberg_check,
        ),
        ExperimentSpec(
            "von-neumann-square",
            "projection commutes with evolution; density-operator ODE",
            {"dimension": 2, "alpha": 0.05, "time": 0.9, "eps": 1e-6},
            _run_von_neumann_square,
            conventions=dict(bridge._CONVENTIONS),
        ),
        ExperimentSpec(
            "purestate-sampling",
            "planar support and second moments of pure-state measures",
            {"dimension": 4, "alpha": 0.01, "count": 100000},
            _run_purestate_sampling,
        ),
        ExperimentSpec(
            "alpha-scan",
            "classical-vs-quantum error of the quartic benchmark across dispersions",
            {"alphas": [0.1, 0.03, 0.01, 0.003, 0.001], "count": 200000},
            _run_alpha_scan,
            conventions=dict(
                bridge._CONVENTIONS,
                benchmark="f = (r^2 + r^4)/2 on n = 1; the isotropic n = 1 "
                "state is the planar pure-state measure restricted to its "
                "support plane",
                benchmark_mean="amplified classical mean = (I3 + alpha*I5)/2 "
                "= 1/2 + alpha, with polar moments I3 = 1, I5 = 2 of "
                "2*s^n*exp(-s^2) on [0, inf)",
                constant_note="a hand derivation that drops the variable's "
                "1/2 prefactor quotes I3 + alpha*I5 = 1 + 2*alpha; that "
                "figure disagrees with both the moment oracle and the "
                "sampled means, so the 1/2 + alpha value is used",
            ),
        ),
        ExperimentSpec(
            "norm-audit",
            "norm preservation in and out of the admissible Hamiltonian class",
            {"dimension": 2, "t_final": 0.5, "dt": 0.001, "poly_t_final": 2.0, "poly_dt": 0.01},
            _run_norm_audit,
        ),
        ExperimentSpec(
            "oddness-audit",
            "odd flows of even Hamiltonians preserve symmetric-measure means",
            {"dimension": 2, "times": [0.3, 0.7], "dt": 0.01, "count": 10000, "alpha": 0.5},
            _run_oddness_audit,
        ),
        ExperimentSpec(
            "field-spectrum",
            "grid kinetic spectra, harmonic ground level, momentum checks",
            {"grid_sizes": [64, 128, 256], "length": 20.0, "mass": 1.0, "spring": 1.0},
            _run_field_spectrum,
            conventions=dict(_FIELD_CONVENTIONS),
        ),
        ExperimentSpec(
            "field-correspondence",
            "Gaussian field averages vs half-trace rule; unitary field evolution",
            {"n_points": 128, "length": 20.0, "alpha": 0.02, "count": 100000, "time": 0.5},
            _run_field_correspondence,
            conventions=dict(_FIELD_CONVENTIONS),
        ),
    ]
}


def list_experiments() -> list:
    """(name, description) pairs in registry order."""
    return [(spec.name, spec.description) for spec in REGISTRY.values()]


# ---------------------------------------------------------------------------
# Configuration and execution
# ---------------------------------------------------------------------------

_GLOBAL_KEYS = {"experiment", "seed", "out_dir"}

_POSITIVE = (lambda v: v > 0, "positive")
# Range of each numeric parameter (every entry, for a list), by name: a
# name means the same quantity in every experiment that takes it.
_RANGES = {
    "dimension": (lambda v: v >= 1, "at least 1"),
    "trials": (lambda v: v >= 1, "at least 1"),
    "count": (lambda v: v >= 2, "at least 2 (a standard error needs two rows)"),
    "n_points": (lambda v: v >= 2, "at least 2"),
    "grid_sizes": (lambda v: v >= 2, "at least 2"),
    "t_final": (lambda v: v != 0, "nonzero"),
    "poly_t_final": (lambda v: v != 0, "nonzero"),
    **dict.fromkeys(["alpha", "alphas", "dt", "poly_dt", "eps", "length", "mass"], _POSITIVE),
}


def load_config(path) -> dict:
    """Read and validate an experiment configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    return validate_config(payload)


def _matches_default(value, default) -> bool:
    """JSON type check against a parameter's default: a bool only for a
    bool, an int for an int, an int or a float for a float, and for a
    list, a list whose every element matches the default's first."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_matches_default(v, default[0]) for v in value)
    return isinstance(value, type(default))


def validate_config(payload: dict) -> dict:
    name = payload.get("experiment")
    if not isinstance(name, str) or name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"unknown experiment {name!r}; choose one of: {known}")
    spec = REGISTRY[name]
    allowed = _GLOBAL_KEYS | set(spec.defaults)
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown configuration keys for {name}: {', '.join(unknown)}"
        )
    if "seed" not in payload:
        raise ConfigError("config must provide an integer seed")
    seed = payload["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    out_dir = payload.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string path")
    params = dict(spec.defaults)
    for key, default in spec.defaults.items():
        if key not in payload:
            continue
        value = payload[key]
        if not _matches_default(value, default):
            kind = type(default).__name__
            if isinstance(default, list):
                kind += f" of {type(default[0]).__name__}"
            raise ConfigError(
                f"parameter {key!r} must match the type of its default ({kind})"
            )
        if isinstance(default, list) and not value:  # every list default is nonempty
            raise ConfigError(f"parameter {key!r} must not be an empty list")
        in_range, what = _RANGES.get(key, (None, ""))
        if in_range and not all(map(in_range, value if isinstance(value, list) else [value])):
            raise ConfigError(f"parameter {key!r} must be {what}, got {value!r}")
        params[key] = float(value) if isinstance(default, float) else value
    return {"experiment": name, "seed": seed, "out_dir": out_dir, "params": params}


def _config_hash(name: str, seed: int, params: dict) -> str:
    canonical = json.dumps(
        {"experiment": name, "seed": seed, "parameters": params}, sort_keys=True
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_experiment(config: dict, write_reports: bool = True) -> ReportRecord:
    """Execute a validated configuration and (optionally) write the
    report JSON/CSV plus any artifacts into out_dir."""
    config = validate_config(
        {
            "experiment": config["experiment"],
            "seed": config["seed"],
            **({"out_dir": config["out_dir"]} if config.get("out_dir") else {}),
            **config.get("params", {}),
        }
    )
    spec = REGISTRY[config["experiment"]]
    out_dir = None
    if write_reports:
        out_dir = Path(config["out_dir"] or "reports")
        out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    metrics = spec.runner(config["params"], config["seed"], out_dir)
    duration = time.perf_counter() - start

    record = ReportRecord(
        experiment=spec.name,
        seed=config["seed"],
        config_hash=_config_hash(spec.name, config["seed"], config["params"]),
        parameters=dict(config["params"]),
        metrics=tuple(metrics),
        conventions=dict(spec.conventions),
        duration_seconds=duration,
    )
    if out_dir is not None:
        (out_dir / f"{spec.name}-report.json").write_text(record.to_json() + "\n")
        record.to_csv(out_dir / f"{spec.name}-report.csv")
    return record
