"""Hamiltonian flows on phase space.

Quadratic Hamiltonians H(psi) = (1/2)(H psi, psi) generate the linear
flow U_t = exp(JHt). When H commutes with J the flow is the real form of
the complex unitary group exp(-iMt) for M the complex image of H, which
is what ties the classical linear dynamics to the quantum one. General
(nonquadratic) Hamiltonians are integrated with the implicit midpoint
rule, which is symplectic, second order, and conserves every quadratic
invariant of the flow exactly, in particular the squared norm whenever
the Hamiltonian satisfies the norm-preservation identity
(J grad H(psi), psi) = 0. Each step's fixed-point sweeps start from an
extrapolation of the previous states, and rows are integrated in
cache-sized blocks, each with its own work buffers. For structured
Hamiltonians (sums of powers of quadratic forms) the field dt J grad H
is one fused BLAS kernel; any other Hamiltonian is evaluated through its
``gradients`` callback.

Every Hamiltonian is a :class:`pcsft.variables.ClassicalVariable`, so
``values`` / ``gradients`` act on (..., 2n) batches of flattened phase
points and ``gradient`` on a single :class:`PhaseVector` point.
``QuadraticHamiltonian`` is the energy form of a symmetric kernel:
structured when the kernel commutes with J, a black box with exact
callbacks otherwise. ``NonquadraticHamiltonian`` is the subclass
whose gradient is sure to exist, and any variable with a gradient can
be integrated as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from ._csvio import write_csv
from .symplectic import (
    BlockOperator,
    CheckResult,
    ComplexOperator,
    PhaseVector,
    _j_flat,
    is_j_commuting,
    real_to_complex,
)
from .variables import ClassicalVariable, QuadraticTerm, _quadratic_forms

__all__ = [
    "QuadraticHamiltonian",
    "NonquadraticHamiltonian",
    "Trajectory",
    "IntegrationError",
    "linear_flow",
    "schrodinger_flow",
    "integrate",
    "heisenberg_evolve",
    "norm_preservation_defect",
    "flow_oddness_defect",
    "q_squared_p",
]


class IntegrationError(RuntimeError):
    """Implicit midpoint fixed point failed to converge.

    ``rows`` lists the global indices of the batch rows that failed.
    """

    def __init__(self, step: int, residual: float, rows: list):
        super().__init__(
            f"fixed-point iteration did not converge at step {step} in rows {rows} "
            f"(residual {residual:.3e}); reduce dt"
        )
        self.step = step
        self.residual = residual
        self.rows = rows


class QuadraticHamiltonian(ClassicalVariable):
    """H(psi) = (1/2)(H psi, psi) for a symmetric kernel H.

    A J-commuting kernel is the structured term 0.5 (H psi, psi); any
    other symmetric kernel is a black box with exact value and gradient
    callbacks.
    """

    def __init__(self, operator: BlockOperator):
        if not operator.is_symmetric():
            raise ValueError(
                f"Hamiltonian kernel must be symmetric "
                f"(defect {operator.symmetry_defect():.3e})"
            )
        self._operator = operator
        if self.j_invariant:
            super().__init__(terms=[QuadraticTerm(0.5, operator, 1)])
        else:
            a = operator.matrix
            super().__init__(
                value_fn=lambda pts: 0.5 * _quadratic_forms(pts, a),
                gradient_fn=lambda pts: pts @ a,  # symmetric kernel
                n=operator.n,
            )

    @property
    def operator(self) -> BlockOperator:
        return self._operator

    @cached_property
    def j_invariant(self) -> CheckResult:
        return is_j_commuting(self._operator)

    @cached_property
    def _complex_eigensystem(self):
        m = real_to_complex(self._operator)
        return np.linalg.eigh(m.matrix)


class NonquadraticHamiltonian(ClassicalVariable):
    """Classical variable that is sure to have a gradient.

    Built from value/gradient callbacks on (..., 2n) flat batches or
    from structured terms.
    """

    def __init__(self, value_fn=None, gradient_fn=None, n=None, *, terms=None):
        super().__init__(terms=terms, value_fn=value_fn, gradient_fn=gradient_fn, n=n)
        if not self.has_gradient:
            raise ValueError("variable has no gradient; integration requires a gradient callback")


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
        J H t by ``scipy.linalg.expm``, loaded on the first such call;
        works for any symmetric kernel.
      * "auto": spectral when the kernel commutes with J, else expm.

    The two explicit methods are genuinely independent code paths, which
    the equivalence checks exploit.
    """
    if method not in ("auto", "spectral", "expm"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "spectral" if h.j_invariant else "expm"
    if method == "expm":
        import scipy.linalg

        jh = np.empty_like(h.operator.matrix)
        _j_flat(h.operator.matrix.T, out=jh.T)  # J acting on each column of H
        return BlockOperator(scipy.linalg.expm(jh * t))
    if not h.j_invariant:
        raise ValueError(
            f"spectral flow needs a J-commuting kernel "
            f"(defect {h.j_invariant.defect:.3e})"
        )
    u_c = _spectral_unitary(*h._complex_eigensystem, t)
    return BlockOperator.from_pair(u_c.real, -u_c.imag)


def schrodinger_flow(m: ComplexOperator, t: float) -> ComplexOperator:
    """Unitary exp(-iMt) of a hermitian complex operator."""
    check = m.is_hermitian()
    if not check:
        raise ValueError(f"operator must be hermitian (defect {check.defect:.3e})")
    return ComplexOperator(_spectral_unitary(*np.linalg.eigh(m.matrix), t))


def _spectral_unitary(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-iMt) from the eigensystem M = v diag(w) v^H of a hermitian M."""
    return (v * np.exp(-1j * w * t)) @ v.conj().T


# ---------------------------------------------------------------------------
# Implicit midpoint integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integration record: states has shape (steps+1, 2n) for a single
    initial point, or (steps+1, m, 2n) for a batch. ``sweeps`` holds the
    fixed-point sweeps of each step as filled by :func:`integrate`: the
    most any block of rows took."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    norms: np.ndarray
    dt: float
    sweeps: Optional[np.ndarray] = None

    def to_csv(self, path) -> None:
        """Write t, q_0..q_{n-1}, p_0..p_{n-1}, energy, norm rows.

        Floats are written with repr (shortest round-trip form), so
        identical trajectories serialise to identical bytes.
        """
        if self.states.ndim == 3:
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


def integrate(h, psi0, t_final: float, dt: float) -> Trajectory:
    """Integrate d psi/dt = J grad H(psi) with the implicit midpoint rule.

    ``h`` is a ClassicalVariable with a gradient (every Hamiltonian is
    one), or any other object with ``values`` / ``gradients`` batch
    callables.
    ``psi0`` is a PhaseVector, a flat (2n,) array, or a (..., 2n) batch.

    The step count is round(|t_final| / dt), so the effective step is
    t_final / steps and the trajectory lands exactly on t_final. Each
    step solves x = y + dt * J grad H((y + x)/2) by fixed-point
    iteration to ``SWEEP_TOL`` relative to the state scale 1 + max|y|.

    Step 0 starts from the Euler guess y + dt * J grad H(y). Every later
    step starts from the polynomial through the last q + 1 states at the
    next time, q = min(k, PREDICTOR_ORDER) (Hairer, Lubich & Wanner,
    *Geometric Numerical Integration*, VIII.6.1), which is accurate to
    O(dt^(q+1)) and costs no field evaluation. If the sweeps from that
    start fail (``MAX_SWEEPS`` sweeps, or a non-finite row), the step is
    redone from the Euler guess; :class:`IntegrationError` is raised
    only when that fails too, naming the rows that failed.

    Rows (leading batch axes flattened) are integrated in blocks of TILE
    rows, each through every step with its own work buffers and field,
    so a block's state, history and sweep buffers stay in cache. A
    block's rows do not depend on the other blocks: its convergence
    scale is 1 + max|y| over its own rows. ``Trajectory.sweeps[k]`` is
    the largest number of sweeps any block took at step k, counting
    both starts when a step was redone.

    The field dt * J grad H is built once per block: for a structured
    Hamiltonian (a QuadraticHamiltonian with a J-commuting kernel, or
    any structured variable such as ``NonquadraticHamiltonian.polynomial``)
    it is one BLAS matmul per sweep against a precomputed [A | A J^T]
    block per distinct operator A, scaled row-wise by
    dt * 2 f'((A psi, psi)); any other ``h`` is evaluated through its
    ``gradients`` callback, to which ``pcsft.symplectic._j_flat``
    applies J. A ClassicalVariable rejects a batch whose last axis is
    not 2n.
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
        y = np.atleast_2d(y)
    if y.shape[-1] % 2 != 0:
        raise ValueError("flat phase points must have even length")

    steps = max(1, round(abs(t_final) / dt))
    step_dt = t_final / steps

    rows = y.reshape(-1, y.shape[-1])
    states = np.empty((steps + 1,) + rows.shape)
    states[0] = rows
    sweeps = np.zeros(steps, dtype=int)
    for first in range(0, len(rows), TILE):
        history = states[:, first : first + TILE]
        field = _field(h, step_dt, history.shape[1:])
        work = tuple(np.empty(history.shape[1:]) for _ in range(4))
        for k in range(steps):
            taken = _midpoint_step(field, history, k, work, first)
            sweeps[k] = max(sweeps[k], taken)

    states = states.reshape((steps + 1,) + y.shape)
    times = np.arange(steps + 1) * step_dt
    energies = h.values(states)
    norms = np.sqrt(np.einsum("...i,...i->...", states, states))
    if squeeze:
        states = states[:, 0, :]
        energies = energies[:, 0]
        norms = norms[:, 0]
    return Trajectory(times, states, energies, norms, abs(step_dt), sweeps)


# The predictor's largest degree (chosen by measurement among 4-7 on the
# flow-batch benchmark), and the rows integrated together in one block.
PREDICTOR_ORDER = 6
TILE = 1024
# A step's sweeps stop once the largest change is within SWEEP_TOL times
# the state scale 1 + max|y|, and fail after MAX_SWEEPS sweeps.
SWEEP_TOL = 1e-12
MAX_SWEEPS = 50
# weights of history[k-q..k], oldest first, in the degree-q extrapolant
_PREDICTOR_WEIGHTS = tuple(
    np.array([(-1) ** j * math.comb(q + 1, j + 1) for j in range(q, -1, -1)], dtype=float)
    for q in range(PREDICTOR_ORDER + 1)
)


def _midpoint_step(field, history, k, work, first_row) -> int:
    """Solve x = y + field((y + x)/2) for y = history[k] into history[k+1];
    returns the sweeps it took, both starts counted. ``first_row`` is the
    global index of the block's first row, for the error."""
    y = history[k]
    x, change = work[0], work[3]
    limit = SWEEP_TOL * (1.0 + float(np.abs(y, out=change).max()))
    taken = 0
    with np.errstate(all="ignore"):  # divergence is reported, not warned about
        if k > 0:
            _extrapolate(history, k, x)
            spent, residual = _sweep(field, y, history[k + 1], work, limit)
            taken += spent
            if residual <= limit:
                return taken
        field(y, x)  # Euler guess
        x += y
        spent, residual = _sweep(field, y, history[k + 1], work, limit)
        taken += spent
        if residual <= limit:
            return taken
    # a row that blew up stops the sweeps, and then it alone is named
    row_residuals = change.max(axis=-1)
    failed = row_residuals > limit if math.isfinite(residual) else ~np.isfinite(row_residuals)
    raise IntegrationError(k, residual, (first_row + np.flatnonzero(failed)).tolist())


def _extrapolate(history, k, out) -> None:
    """out = the polynomial through history[k-q..k] at step k+1, with
    q = min(k, PREDICTOR_ORDER): sum_j (-1)^j C(q+1, j+1) history[k-j]."""
    weights = _PREDICTOR_WEIGHTS[min(k, PREDICTOR_ORDER)]
    np.einsum("j,j...->...", weights, history[k + 1 - len(weights) : k + 1], out=out)


def _sweep(field, y, out, work, limit):
    """Iterate x <- y + field((y + x)/2) from the start in work[0] until
    the largest change is within ``limit``, then write x to ``out``.
    Returns (sweeps, last residual); on failure work[3] holds |change|."""
    x, x_next, mid, change = work
    for sweep in range(1, MAX_SWEEPS + 1):
        np.add(y, x, out=mid)
        np.divide(mid, 2.0, out=mid)
        field(mid, x_next)
        x_next += y
        residual = float(np.abs(np.subtract(x_next, x, out=change), out=change).max())
        x, x_next = x_next, x
        if not math.isfinite(residual):
            break
        if residual <= limit:
            np.copyto(out, x)
            break
    return sweep, residual


def _field(h, dt, shape):
    """The map field(pts, out): out = dt * J grad H(pts) on (..., 2n) batches
    of the given shape, built once per integrate call."""
    if not (isinstance(h, ClassicalVariable) and h.is_structured):
        return partial(_callback_field, h, dt)
    if shape[-1] != 2 * h.n:
        raise ValueError(f"batch last axis must be 2n = {2 * h.n}, got {shape[-1]}")
    return _StructuredField(h._operators, h._grouping, dt, shape)


def _callback_field(h, dt, pts, out):
    _j_flat(np.asarray(h.gradients(pts)), out=out)
    out *= dt


class _StructuredField:
    """dt * J grad H for H = sum_A f_A((A psi, psi)), each f_A a polynomial.

    grad H = sum_A 2 f_A'(s_A) A psi with s_A = (A psi, psi). Each distinct
    operator of the variable's grouping gets an [A | A J^T] block, whose
    product with a row gives A psi (hence s_A) and J A psi at once, and a
    Horner rule for dt * 2 f_A'(s_A), its terms' coefficients summed per
    power. A sweep is then one matmul plus row-wise scaling,
    all into buffers made here. Leading batch axes are flattened into rows.
    """

    def __init__(self, operators, grouping, dt, shape):
        dim = shape[-1]
        rows = math.prod(shape[:-1])
        coeffs = [{} for _ in operators]  # per operator, {power: coefficient}
        for i, c, k in grouping:
            coeffs[i][k] = coeffs[i].get(k, 0.0) + c
        blocks, horners = [], []
        for a, cs in zip(operators, coeffs):
            blocks += [a, _j_flat(a)]  # row psi -> A psi, J A psi
            # dt * 2 f'(s) = sum_k 2 dt k c_k s^(k-1), highest power first
            horners.append([2.0 * dt * k * cs.get(k, 0.0) for k in range(max(cs), 0, -1)])
        self._block = np.concatenate(blocks, axis=1)
        self._prod = np.empty((rows, self._block.shape[1]))
        # per operator: its Horner coefficients and views of A psi, J A psi
        self._scaled = []
        for i, horner in enumerate(horners):
            a_pts = self._prod[:, 2 * i * dim : (2 * i + 1) * dim]
            j_a_pts = self._prod[:, (2 * i + 1) * dim : (2 * i + 2) * dim]
            self._scaled.append((horner, a_pts, j_a_pts))
        self._s = np.empty(rows)
        self._factor = np.empty((rows, 1))
        self._tmp = np.empty((rows, dim)) if len(horners) > 1 else None

    def __call__(self, pts, out):
        # both are contiguous buffers, so these reshapes are views
        pts, out = pts.reshape(-1, pts.shape[-1]), out.reshape(-1, out.shape[-1])
        s, factor, phi = self._s, self._factor, self._factor[:, 0]
        np.matmul(pts, self._block, out=self._prod)
        for i, (horner, a_pts, j_a_pts) in enumerate(self._scaled):
            np.einsum("ij,ij->i", pts, a_pts, out=s)
            phi.fill(horner[0])
            for c in horner[1:]:
                phi *= s
                phi += c
            target = out if i == 0 else self._tmp
            np.multiply(j_a_pts, factor, out=target)
            if i > 0:
                out += target


# ---------------------------------------------------------------------------
# Observable evolution and diagnostics
# ---------------------------------------------------------------------------


def heisenberg_evolve(a: BlockOperator, h: QuadraticHamiltonian, t: float) -> BlockOperator:
    """Observable kernel at time t: A_t = U_t^T A U_t with U_t = exp(JHt).

    So (A_t psi, psi) = (A U_t psi, U_t psi): the observable carried by
    the flow.
    """
    if a.n != h.n:
        raise ValueError("dimension mismatch between observable and Hamiltonian")
    u = linear_flow(h, t)
    return u.T @ a @ u


def norm_preservation_defect(h, psi: PhaseVector) -> float:
    """Signed defect (J grad H(psi), psi); zero for norm-preserving flows."""
    g = h.gradients(psi.flat()[None, :])[0]
    return float(_j_flat(g) @ psi.flat())


def flow_oddness_defect(h, psi: PhaseVector, t: float, dt: float = 1e-3) -> float:
    """Norm of Phi_t(-psi) + Phi_t(psi); zero iff the flow is odd at psi.

    Odd Hamiltonian gradients give odd flows, so polynomial-in-quadratic
    Hamiltonians (odd gradients) have zero defect while generic shifted
    Hamiltonians do not.
    """
    pair = np.stack([psi.flat(), -psi.flat()])
    finals = integrate(h, pair, t, dt).states[-1]
    return float(np.linalg.norm(finals[0] + finals[1]))
