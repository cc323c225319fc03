"""Hamiltonian flows on phase space.

Quadratic Hamiltonians H(psi) = (1/2)(H psi, psi) generate the linear
flow U_t = exp(JHt). When H commutes with J the flow is the real form of
the complex unitary group exp(-iMt) for M the complex image of H, which
is what ties the classical linear dynamics to the quantum one. General
(nonquadratic) Hamiltonians are integrated with the implicit midpoint
rule, which is symplectic, second order, and conserves every quadratic
invariant of the flow exactly, in particular the squared norm whenever
the Hamiltonian satisfies the norm-preservation identity
(J grad H(psi), psi) = 0. For a Hamiltonian f((A psi, psi)) of one
J-commuting operator A that conservation makes every step the same
Cayley rotation in A's eigenbasis, found once per row by a scalar Newton
iteration. Any other Hamiltonian is evaluated through its ``gradients``
callback, by fixed-point sweeps that start from an extrapolation of the
previous states. Either solver takes all rows of a batch at once.

Every Hamiltonian is a :class:`pcsft.variables.ClassicalVariable`, so
``values`` / ``gradients`` act on (..., 2n) batches of flattened phase
points.
``QuadraticHamiltonian`` is the energy form of a symmetric kernel:
structured when the kernel commutes with J, a black box with exact
callbacks otherwise. ``NonquadraticHamiltonian`` is the subclass
whose gradient is sure to exist, and any variable with a gradient can
be integrated as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    """An implicit midpoint step failed to converge: the fixed-point
    sweeps, or the closed-form solver's Newton iteration (reported at
    step 0).

    ``rows`` lists the indices of the flattened batch rows that failed.
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
      * "expm": the real matrix exponential of J H t by scaling and
        squaring with the [13/13] Pade approximant (Higham, "The scaling
        and squaring method for the matrix exponential revisited", SIAM
        J. Matrix Anal. Appl. 26, 2005); works for any symmetric kernel.
      * "auto": spectral when the kernel commutes with J, else expm.

    The two explicit methods are genuinely independent code paths, which
    the equivalence checks exploit: "expm" calls no eigensolver.
    """
    if method not in ("auto", "spectral", "expm"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "spectral" if h.j_invariant else "expm"
    if method == "expm":
        jh = np.empty_like(h.operator.matrix)
        _j_flat(h.operator.matrix.T, out=jh.T)  # J acting on each column of H
        return BlockOperator(_expm(jh * t))
    if not h.j_invariant:
        raise ValueError(
            f"spectral flow needs a J-commuting kernel "
            f"(defect {h.j_invariant.defect:.3e})"
        )
    u_c = _spectral_unitary(*h._complex_eigensystem, t)
    return BlockOperator.from_pair(u_c.real, -u_c.imag)


# Higham (2005), Table 2.3 and eq. (2.1): the [13/13] Pade approximant
# p(A)/p(-A) of exp(A) is accurate to double precision for ||A||_1 <= THETA_13.
# The coefficients are divided by the constant term b_0, so that p(0) = I
# and the solve below returns I exactly for A = 0.
_THETA_13 = 5.371920351148152
_PADE_13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a real square matrix: scale a by 2^-s so that its 1-norm
    is at most THETA_13, take the [13/13] Pade approximant, and square
    the result s times.

    Each squaring doubles the approximant's relative error, so past
    s = 52 no digit is left: a larger, infinite or NaN norm raises
    ValueError.
    """
    norm = float(np.abs(a).sum(axis=0).max())
    if not norm <= _THETA_13 * 2.0**52:
        raise ValueError(
            f"matrix exponential needs a 1-norm of at most {_THETA_13 * 2.0**52:.3e}, "
            f"got {norm:.3e}"
        )
    s = max(0, math.ceil(math.log2(norm / _THETA_13))) if norm > 0.0 else 0
    a = a * 2.0**-s
    b = _PADE_13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    ident = np.eye(len(a))
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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
    initial point, or (steps+1, m, 2n) for a batch. ``sweeps[k]`` is the
    number of fixed-point sweeps step k took, as filled by
    :func:`integrate`, and 0 for a Hamiltonian of one operator, whose
    steps are solved in closed form."""

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
    t_final / steps and the trajectory lands exactly on t_final. ``dt``
    must be positive and ``t_final`` finite and nonzero, with a finite
    ratio; otherwise a ValueError names the argument. Each
    step solves x = y + dt * J grad H((y + x)/2) for all rows (leading
    batch axes flattened) at once.

    A structured Hamiltonian of one operator, H = f((A psi, psi)) (a
    QuadraticHamiltonian with a J-commuting kernel, or a polynomial such
    as ``NonquadraticHamiltonian.polynomial``), is solved in closed form
    by :func:`_eigenbasis_solve`: in the eigenbasis of A's complex image
    every step is the same Cayley rotation of each row, found once by a
    scalar Newton iteration per row, and ``Trajectory.sweeps`` reads 0.

    Any other ``h`` is solved by fixed-point sweeps over its
    ``gradients`` callback, to which ``pcsft.symplectic._j_flat`` applies
    J, until the largest change is within ``SWEEP_TOL`` times the larger
    of max|y| and max|x| over the batch. Step 0 starts from the Euler
    guess y + dt * J grad H(y). Every later step starts from the
    polynomial through the last q + 1 states at the next time,
    q = min(k, PREDICTOR_ORDER) (Hairer, Lubich & Wanner, *Geometric
    Numerical Integration*, VIII.6.1), which is accurate to O(dt^(q+1))
    and costs no field evaluation. If the sweeps from that start fail
    (``MAX_SWEEPS`` sweeps, or a non-finite row), the step is redone from
    the Euler guess. ``Trajectory.sweeps[k]`` is the number of sweeps
    step k took, counting both starts when it was redone.

    Either solver raises :class:`IntegrationError` at the earliest step
    that fails, naming the rows that failed there. A ClassicalVariable
    rejects a batch whose last axis is not 2n.
    """
    if not dt > 0:  # also NaN
        raise ValueError(f"dt must be positive, got {dt}")
    if not math.isfinite(t_final) or t_final == 0:
        raise ValueError(f"t_final must be finite and nonzero, got {t_final}")
    if isinstance(psi0, PhaseVector):
        y = psi0.flat()[None, :]
        squeeze = True
    else:
        y = np.asarray(psi0, dtype=float)
        squeeze = y.ndim == 1
        y = np.atleast_2d(y)
    if y.shape[-1] % 2 != 0:
        raise ValueError("flat phase points must have even length")

    ratio = abs(t_final) / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_final / dt overflows: t_final = {t_final}, dt = {dt}")
    steps = max(1, round(ratio))
    step_dt = t_final / steps

    rows = y.reshape(-1, y.shape[-1])
    states = np.empty((steps + 1,) + rows.shape)
    states[0] = rows
    sweeps = np.zeros(steps, dtype=int)
    if isinstance(h, ClassicalVariable) and h.is_structured and len(h._operators) == 1:
        _eigenbasis_solve(h, step_dt, states)
    else:
        _sweep_steps(h, step_dt, states, sweeps)

    states = states.reshape((steps + 1,) + y.shape)
    times = np.arange(steps + 1) * step_dt
    energies = h.values(states)
    norms = np.einsum("...i,...i->...", states, states)
    np.sqrt(norms, out=norms)
    if squeeze:
        states = states[:, 0, :]
        energies = energies[:, 0]
        norms = norms[:, 0]
    return Trajectory(times, states, energies, norms, abs(step_dt), sweeps)


# The predictor's largest degree, chosen by measurement among 4-7 on
# 10^4-row batches.
PREDICTOR_ORDER = 6
# A step's sweeps stop once the largest change is within SWEEP_TOL times
# the larger of max|y| and max|x|, and fail after MAX_SWEEPS sweeps. The
# eigenbasis solver's Newton iteration stops once the largest rotation
# angle it changes is within SWEEP_TOL, and fails after MAX_SWEEPS
# iterations.
SWEEP_TOL = 1e-12
MAX_SWEEPS = 50
# weights of states[k-q..k], oldest first, in the degree-q extrapolant
_PREDICTOR_WEIGHTS = tuple(
    np.array([(-1) ** j * math.comb(q + 1, j + 1) for j in range(q, -1, -1)], dtype=float)
    for q in range(PREDICTOR_ORDER + 1)
)


def _eigenbasis_solve(h, dt, states) -> None:
    """Fill states[1:] with the midpoint steps of H = f((A psi, psi)) from
    the rows of states[0], for the one operator A of a structured ``h``.

    Let M = V diag(lam) V^H be the complex image of A and z_hat = V^H z a
    row's eigen-coordinates. Since grad H = 2 f'(s) A psi, the midpoint
    equation is z_hat' = z_hat (1 - i c lam / 2) / (1 + i c lam / 2) with
    c = 2 dt f'(s_mid), where s_mid = sum lam |z_hat|^2 / (1 + c^2 lam^2 / 4)
    is s at the midpoint. This rotation keeps every |z_hat_j| (the
    midpoint rule conserves quadratic invariants; Hairer, Lubich &
    Wanner, IV.2), so c is the same at every step: :func:`_newton_slopes`
    finds each row's c once, and every step multiplies z_hat by the same
    unit phases. A row's interleaved (Re, Im) view maps to (q, p) by one
    real matmul against ``basis``, the real form of V, which is
    orthogonal, so the view of (q, p) is (q, p) @ basis^T.
    """
    h._check_batch(states[0])
    n = h.n
    lam, v = np.linalg.eigh(real_to_complex(BlockOperator(h._operators[0])).matrix)
    basis = np.empty((2 * n, 2 * n))
    basis[0::2, :n], basis[0::2, n:] = v.real.T, v.imag.T
    basis[1::2, :n], basis[1::2, n:] = -v.imag.T, v.real.T
    coeffs = {}  # {power: coefficient}
    for _, c, k in h._grouping:
        coeffs[k] = coeffs.get(k, 0.0) + c
    z = np.empty((states.shape[1], n), dtype=complex)
    with np.errstate(all="ignore"):  # a non-finite row is reported, not warned about
        np.matmul(states[0], basis.T, out=z.view(float))
        half = 0.5 * _newton_slopes(coeffs, dt, lam, np.abs(z) ** 2)[:, None] * lam
    phases = (1.0 - 1j * half) / (1.0 + 1j * half)
    for k in range(1, len(states)):
        z *= phases
        np.matmul(z.view(float), basis, out=states[k])


def _newton_slopes(coeffs, dt, lam, weights) -> np.ndarray:
    """Per row, the root c of g(c) = c - 2 dt f'(s(c)) with
    s(c) = sum_j lam_j w_j / (1 + c^2 lam_j^2 / 4), by Newton's method from
    the explicit value 2 dt f'(s(0)), g'(c) = 1 - 2 dt f''(s) s'(c).

    ``coeffs`` maps each power of f to its coefficient, ``weights`` holds
    the w_j = |z_hat_j|^2 of each row. A row stops once its step changes
    the largest angle c max|lam| by at most SWEEP_TOL; rows that do not
    within MAX_SWEEPS iterations, or turn non-finite, raise
    IntegrationError at step 0.
    """
    top = max(coeffs)
    # 2 dt f'(s) and 2 dt f''(s), highest power first, for Horner's rule
    slope = [2.0 * dt * k * coeffs.get(k, 0.0) for k in range(top, 0, -1)]
    curvature = [2.0 * dt * k * (k - 1) * coeffs.get(k, 0.0) for k in range(top, 1, -1)]
    lam_w = weights * lam
    quarter = (0.5 * lam) ** 2
    lam_w_quarter = lam_w * quarter
    scale = float(np.max(np.abs(lam)))
    c = np.polyval(slope, lam_w.sum(axis=1))
    active = np.ones(len(c), dtype=bool)
    for _ in range(MAX_SWEEPS):
        damp = 1.0 / (1.0 + c[:, None] ** 2 * quarter)
        s = np.sum(lam_w * damp, axis=1)
        ds = -2.0 * c * np.sum(lam_w_quarter * damp**2, axis=1)
        step = (c - np.polyval(slope, s)) / (1.0 - np.polyval(curvature, s) * ds)
        step[~active] = 0.0
        c -= step
        change = np.abs(step) * scale
        # a row stops when it converges or turns non-finite
        active &= ~(change <= SWEEP_TOL) & np.isfinite(c)
        if not active.any():
            break
    failed = active | ~np.isfinite(c)
    if failed.any():
        residual = float(np.max(change[failed]))
        raise IntegrationError(0, residual, np.flatnonzero(failed).tolist())
    return c


def _sweep_steps(h, dt, states, sweeps) -> None:
    """Fill states[1:] with the midpoint steps of ``h`` from the rows of
    states[0], by fixed-point sweeps x <- y + dt J grad H((y + x)/2) over
    its ``gradients`` callback, and sweeps[k] with the sweeps step k took,
    both starts counted. A start's sweeps stop once the largest change is
    within SWEEP_TOL times the larger of max|y| and max|x|, and fail after
    MAX_SWEEPS sweeps or at a non-finite change."""

    def field(pts):  # dt * J grad H(pts)
        return _j_flat(np.asarray(h.gradients(pts))) * dt

    for k in range(len(sweeps)):
        y = states[k]
        y_scale = float(np.abs(y).max())
        q = min(k, PREDICTOR_ORDER)
        with np.errstate(all="ignore"):  # divergence is reported, not warned about
            # the extrapolant of the last q + 1 states, then the Euler guess
            for euler in (True,) if k == 0 else (False, True):
                if euler:
                    x = y + field(y)
                else:
                    x = np.einsum("j,j...->...", _PREDICTOR_WEIGHTS[q], states[k - q : k + 1])
                for _ in range(MAX_SWEEPS):
                    sweeps[k] += 1
                    x, x_prev = y + field((y + x) / 2.0), x
                    limit = SWEEP_TOL * max(y_scale, float(np.abs(x).max()))
                    change = np.abs(x - x_prev)
                    residual = float(change.max())
                    # an overflowed iterate has limit = inf, so finiteness comes first
                    converged = math.isfinite(residual) and residual <= limit
                    if converged or not math.isfinite(residual):
                        break
                if converged:
                    states[k + 1] = x
                    break
            else:
                # a row that blew up stops the sweeps, and then it alone is named
                row_residuals = change.max(axis=-1)
                failed = row_residuals > limit if math.isfinite(residual) else ~np.isfinite(row_residuals)
                raise IntegrationError(k, residual, np.flatnonzero(failed).tolist())


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
