"""Hamiltonian flows on phase space.

Quadratic Hamiltonians H(psi) = (1/2)(H psi, psi) generate the linear
flow U_t = exp(JHt). When H commutes with J the flow is the real form of
the complex unitary group exp(-iMt) for M the complex image of H, which
is what ties the classical linear dynamics to the quantum one. General
(nonquadratic) Hamiltonians are integrated with the implicit midpoint
rule, which is symplectic, second order, and conserves every quadratic
invariant of the flow exactly, in particular the squared norm whenever
the Hamiltonian satisfies the norm-preservation identity
(J grad H(psi), psi) = 0.

Hamiltonian objects here share the batch calling convention of
:class:`pcsft.variables.ClassicalVariable`: ``values`` / ``gradients``
act on (..., 2n) arrays of flattened phase points, while ``value`` /
``gradient`` take single :class:`PhaseVector` points.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from ._csvio import write_csv
from .symplectic import (
    BlockOperator,
    CheckResult,
    ComplexOperator,
    PhaseVector,
    is_j_commuting,
    real_to_complex,
)
from .variables import ClassicalVariable, _quadratic_forms

__all__ = [
    "QuadraticHamiltonian",
    "NonquadraticHamiltonian",
    "Trajectory",
    "IntegrationError",
    "linear_flow",
    "schrodinger_flow",
    "integrate",
    "heisenberg_evolve",
    "lift_variable",
    "norm_preservation_defect",
    "flow_oddness_defect",
    "q_squared_p",
]


class IntegrationError(RuntimeError):
    """Implicit midpoint fixed point failed to converge.

    ``rows`` lists the batch rows that failed, or is None when unknown.
    """

    def __init__(self, step: int, residual: float, rows: Optional[list] = None):
        where = "" if rows is None else f" in rows {rows}"
        super().__init__(
            f"fixed-point iteration did not converge at step {step}{where} "
            f"(residual {residual:.3e}); reduce dt"
        )
        self.step = step
        self.residual = residual
        self.rows = rows


def _apply_j_flat(g: np.ndarray) -> np.ndarray:
    # J(q, p) = (p, -q) on the flat layout, batched
    n = g.shape[-1] // 2
    return np.concatenate([g[..., n:], -g[..., :n]], axis=-1)


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """H(psi) = (1/2)(H psi, psi) for a symmetric kernel H."""

    operator: BlockOperator

    def __post_init__(self):
        if not self.operator.is_symmetric():
            raise ValueError(
                f"Hamiltonian kernel must be symmetric "
                f"(defect {self.operator.symmetry_defect():.3e})"
            )
        # per-instance caches; guarded because experiments may share a
        # Hamiltonian across threads
        object.__setattr__(self, "_flow_cache", {})
        object.__setattr__(self, "_lock", threading.Lock())

    @property
    def n(self) -> int:
        return self.operator.n

    @cached_property
    def j_invariant(self) -> CheckResult:
        return is_j_commuting(self.operator)

    @cached_property
    def _complex_eigensystem(self):
        m = real_to_complex(self.operator)
        return np.linalg.eigh(m.matrix)

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return 0.5 * _quadratic_forms(pts, self.operator.matrix)

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return pts @ self.operator.matrix  # symmetric kernel

    def value(self, psi: PhaseVector) -> float:
        return float(self.values(psi.flat()))

    def gradient(self, psi: PhaseVector) -> PhaseVector:
        return self.operator.apply(psi)

    def as_variable(self) -> ClassicalVariable:
        return ClassicalVariable.quadratic(self.operator)


@dataclass(frozen=True, eq=False)
class NonquadraticHamiltonian:
    """Hamiltonian given by value/gradient callbacks on flat batches."""

    value_fn: Callable[[np.ndarray], np.ndarray]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.gradient_fn is None:
            raise ValueError("integration requires a gradient callback")

    @classmethod
    def from_variable(cls, v: ClassicalVariable) -> "NonquadraticHamiltonian":
        if not v.has_gradient:
            raise ValueError("variable has no gradient; cannot serve as a Hamiltonian")
        return cls(v.values, v.gradients, v.n)

    @classmethod
    def polynomial(cls, op: BlockOperator, coefficients) -> "NonquadraticHamiltonian":
        """sum_k c_k (A psi, psi)^k; norm-preserving by construction since
        the gradient is pointwise proportional to A psi."""
        return cls.from_variable(ClassicalVariable.polynomial(op, coefficients))

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.value_fn(np.asarray(pts, dtype=float)), dtype=float)

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.gradient_fn(np.asarray(pts, dtype=float)), dtype=float)

    def value(self, psi: PhaseVector) -> float:
        return float(self.values(psi.flat()[None, :])[0])

    def gradient(self, psi: PhaseVector) -> PhaseVector:
        return PhaseVector.from_flat(self.gradients(psi.flat()[None, :])[0])


def q_squared_p() -> NonquadraticHamiltonian:
    """H(q, p) = q^2 p on n = 1: odd, and violates norm preservation.

    Its flow blows up in finite time (q(t) = q0 / (1 - q0 t)), so keep
    t_final safely below 1/q0 when integrating.
    """

    def value(pts):
        return pts[..., 0] ** 2 * pts[..., 1]

    def gradient(pts):
        q, p = pts[..., 0], pts[..., 1]
        return np.stack([2.0 * q * p, q**2], axis=-1)

    return NonquadraticHamiltonian(value, gradient, 1)


# ---------------------------------------------------------------------------
# Linear and unitary flows
# ---------------------------------------------------------------------------


def linear_flow(h: QuadraticHamiltonian, t: float, method: str = "auto") -> BlockOperator:
    """Flow matrix U_t = exp(J H t) of a quadratic Hamiltonian.

    method:
      * "spectral": via the complex eigendecomposition of the image M of
        H; requires a J-commuting kernel. U_t is the real form of
        exp(-iMt).
      * "expm": Pade approximation of the real matrix exponential of
        J H t; works for any symmetric kernel.
      * "auto": spectral when the kernel commutes with J, else expm.

    The two explicit methods are genuinely independent code paths, which
    the equivalence checks exploit. Results are cached per (t, method).
    """
    if method not in ("auto", "spectral", "expm"):
        raise ValueError(f"unknown method {method!r}")
    resolved = method
    if method == "auto":
        resolved = "spectral" if h.j_invariant else "expm"
    key = (float(t), resolved)
    with h._lock:
        hit = h._flow_cache.get(key)
    if hit is not None:
        return hit

    if resolved == "spectral":
        if not h.j_invariant:
            raise ValueError(
                f"spectral flow needs a J-commuting kernel "
                f"(defect {h.j_invariant.defect:.3e})"
            )
        w, v = h._complex_eigensystem
        u_c = (v * np.exp(-1j * w * t)) @ v.conj().T
        d, s = u_c.real, -u_c.imag
        u = BlockOperator.from_pair(d, s)
    else:
        n = h.n
        jh = np.vstack([h.operator.matrix[n:, :], -h.operator.matrix[:n, :]])
        u = BlockOperator(scipy.linalg.expm(jh * t))

    with h._lock:
        h._flow_cache[key] = u
    return u


def schrodinger_flow(m: ComplexOperator, t: float) -> ComplexOperator:
    """Unitary exp(-iMt) of a hermitian complex operator."""
    check = m.is_hermitian()
    if not check:
        raise ValueError(f"operator must be hermitian (defect {check.defect:.3e})")
    w, v = np.linalg.eigh(m.matrix)
    return ComplexOperator((v * np.exp(-1j * w * t)) @ v.conj().T)


# ---------------------------------------------------------------------------
# Implicit midpoint integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integration record: states has shape (steps+1, 2n) for a single
    initial point, or (steps+1, m, 2n) for a batch."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    norms: np.ndarray
    dt: float

    @property
    def is_batch(self) -> bool:
        return self.states.ndim == 3

    @property
    def final_state(self):
        if self.is_batch:
            return self.states[-1]
        return PhaseVector.from_flat(self.states[-1])

    def to_csv(self, path) -> None:
        """Write t, q_0..q_{n-1}, p_0..p_{n-1}, energy, norm rows.

        Floats are written with repr (shortest round-trip form), so
        identical trajectories serialise to identical bytes.
        """
        if self.is_batch:
            raise ValueError("CSV export is defined for single trajectories only")
        n = self.states.shape[1] // 2
        header = (
            ["t"]
            + [f"q_{i}" for i in range(n)]
            + [f"p_{i}" for i in range(n)]
            + ["energy", "norm"]
        )
        rows = (
            [self.times[k], *self.states[k], self.energies[k], self.norms[k]]
            for k in range(len(self.times))
        )
        write_csv(path, header, rows)


def integrate(
    h,
    psi0,
    t_final: float,
    dt: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> Trajectory:
    """Integrate d psi/dt = J grad H(psi) with the implicit midpoint rule.

    ``h`` is any object with ``values`` / ``gradients`` batch callables
    (QuadraticHamiltonian, NonquadraticHamiltonian, ClassicalVariable).
    ``psi0`` is a PhaseVector, a flat (2n,) array, or an (m, 2n) batch.

    The step count is round(|t_final| / dt), so the effective step is
    t_final / steps and the trajectory lands exactly on t_final. Each
    step solves x = y + dt * J grad H((y + x)/2) by fixed-point
    iteration to ``tol`` (relative to the state scale), raising
    :class:`IntegrationError` after ``max_iter`` sweeps, or at once when
    a row turns non-finite; the error names the rows that failed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_final == 0:
        raise ValueError("t_final must be nonzero")
    if isinstance(psi0, PhaseVector):
        y = psi0.flat()[None, :]
        squeeze = True
    else:
        y = np.asarray(psi0, dtype=float)
        squeeze = y.ndim == 1
        y = np.atleast_2d(y).copy()
    if y.shape[-1] % 2 != 0:
        raise ValueError("flat phase points must have even length")

    steps = max(1, round(abs(t_final) / dt))
    step_dt = t_final / steps

    states = np.empty((steps + 1,) + y.shape)
    states[0] = y
    for k in range(steps):
        y = _midpoint_step(h, y, step_dt, tol, max_iter, k)
        states[k + 1] = y

    times = np.arange(steps + 1) * step_dt
    energies = h.values(states)
    norms = np.sqrt(np.einsum("...i,...i->...", states, states))
    if squeeze:
        states = states[:, 0, :]
        energies = energies[:, 0]
        norms = norms[:, 0]
    return Trajectory(times, states, energies, norms, abs(step_dt))


def _midpoint_step(h, y, dt, tol, max_iter, step_index):
    scale = 1.0 + float(np.max(np.abs(y)))
    with np.errstate(all="ignore"):  # divergence is reported, not warned about
        x = y + dt * _apply_j_flat(h.gradients(y))  # Euler predictor
        for _ in range(max_iter):
            x_next = y + dt * _apply_j_flat(h.gradients((y + x) / 2.0))
            change = np.abs(x_next - x)
            residual = float(np.max(change))
            x = x_next
            if not np.isfinite(residual):
                break
            if residual <= tol * scale:
                return x
    # a row that blew up stops the sweeps, and then it alone is named
    row_residuals = change.max(axis=-1)
    failed = row_residuals > tol * scale if np.isfinite(residual) else ~np.isfinite(row_residuals)
    raise IntegrationError(step_index, residual, np.flatnonzero(failed).tolist())


# ---------------------------------------------------------------------------
# Observable evolution and diagnostics
# ---------------------------------------------------------------------------


def heisenberg_evolve(a: BlockOperator, h: QuadraticHamiltonian, t: float) -> BlockOperator:
    """Observable kernel at time t: A_t = U_t^T A U_t with U_t = exp(JHt).

    Matches the lifted variable: (A_t psi, psi) = (A U_t psi, U_t psi).
    """
    if a.n != h.n:
        raise ValueError("dimension mismatch between observable and Hamiltonian")
    u = linear_flow(h, t)
    return u.T @ a @ u


def lift_variable(h, f0: ClassicalVariable, t: float, dt: Optional[float] = None) -> ClassicalVariable:
    """Variable transported along the flow: f_t(psi) = f0(Phi_t psi).

    For a quadratic Hamiltonian the flow map is the exact matrix U_t and
    the lifted variable carries an exact gradient U_t^T grad f0(U_t psi).
    For a nonquadratic Hamiltonian each evaluation integrates the batch
    forward with the midpoint rule (default dt = |t| / 200), and the
    result is value-only.
    """
    if isinstance(h, QuadraticHamiltonian):
        if f0.n != h.n:
            raise ValueError("dimension mismatch between variable and Hamiltonian")
        u = linear_flow(h, t).matrix

        def value(pts):
            return f0.values(pts @ u.T)

        grad = None
        if f0.has_gradient:
            def grad(pts):
                return f0.gradients(pts @ u.T) @ u

        return ClassicalVariable.from_callbacks(value, grad, n=f0.n)

    step = abs(t) / 200.0 if dt is None else dt

    def value(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        moved = integrate(h, pts, t, step).states[-1]
        return f0.values(moved)

    return ClassicalVariable.from_callbacks(value, None, n=f0.n)


def norm_preservation_defect(h, psi: PhaseVector) -> float:
    """Signed defect (J grad H(psi), psi); zero for norm-preserving flows."""
    g = h.gradients(psi.flat()[None, :])[0]
    return float(_apply_j_flat(g) @ psi.flat())


def flow_oddness_defect(h, psi: PhaseVector, t: float, dt: float = 1e-3) -> float:
    """Norm of Phi_t(-psi) + Phi_t(psi); zero iff the flow is odd at psi.

    Odd Hamiltonian gradients give odd flows, so polynomial-in-quadratic
    Hamiltonians (odd gradients) have zero defect while generic shifted
    Hamiltonians do not.
    """
    pair = np.stack([psi.flat(), -psi.flat()])
    finals = integrate(h, pair, t, dt).states[-1]
    return float(np.linalg.norm(finals[0] + finals[1]))
