"""Classical variables: real functions of the phase-space point.

Two representations coexist behind one interface:

* structured: a sum of powers of quadratic forms,
  f(psi) = sum_i c_i * (A_i psi, psi)^{k_i}, with every A_i symmetric
  and J-commuting. Values, gradients and the Hessian at the origin are
  analytic, and membership in the projectable class (f(0) = 0, even,
  J-invariant) holds by construction. Terms are grouped once, at
  construction, by operator identity (equal operators built separately
  stay distinct); each evaluation computes an operator's image or form
  once, then adds the terms in term order, so results equal a per-term
  sum bit for bit.
* black box: value and optional gradient callbacks operating on batches
  of flattened phase points. Class membership can only be screened by
  random probes, and the Hessian at the origin falls back to central
  finite differences.

Batch convention used throughout: a batch of m phase points is an
(m, 2n) array whose rows are ``PhaseVector.flat()`` layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .gaussian import ROW_BLOCK
from .symplectic import (
    FD_TOL,
    BlockOperator,
    CheckResult,
    _j_flat,
    is_j_commuting,
)

__all__ = ["QuadraticTerm", "ClassicalVariable", "screen_variable"]

_HESSIAN_STEP = 1e-4  # finite-difference step of a black box's hessian_at_zero
_SCREEN_PROBES = 64  # random points per screen_variable check


def _quadratic_forms(pts: np.ndarray, a: np.ndarray, work=None, out=None) -> np.ndarray:
    """Row-wise (A psi, psi) over a (..., 2n) batch, in ROW_BLOCK blocks.

    Each block's A psi is written to the leading rows of one reused
    block: ``work``, of at least min(rows, ROW_BLOCK) rows, when given.
    The forms go to ``out``, one entry per row, when given."""
    # not reshape(-1, 0), which numpy rejects for a rank-0 state's (m, 0) normals
    flat = pts.reshape(math.prod(pts.shape[:-1]), pts.shape[-1])
    if work is None:
        work = np.empty((min(flat.shape[0], ROW_BLOCK), a.shape[1]))
    if out is None:
        out = np.empty(flat.shape[0])
    for start in range(0, flat.shape[0], ROW_BLOCK):
        blk = flat[start : start + ROW_BLOCK]
        image = np.matmul(blk, a, out=work[: blk.shape[0]])
        np.einsum("ij,ij->i", image, blk, out=out[start : start + ROW_BLOCK])
    return out.reshape(pts.shape[:-1])


@dataclass(frozen=True)
class QuadraticTerm:
    """One monomial c * (A psi, psi)^k of a structured variable."""

    coefficient: float
    operator: BlockOperator
    power: int

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("power must be at least 1 (variables vanish at the origin)")
        if not self.operator.is_symmetric():
            raise ValueError("term operator must be symmetric")
        if not is_j_commuting(self.operator):
            raise ValueError("term operator must commute with J")


class ClassicalVariable:
    """Real-valued function on phase space with batch evaluation.

    Build with ``ClassicalVariable(terms=...)`` / :meth:`quadratic` /
    :meth:`polynomial` for the structured representation, or
    :meth:`from_callbacks` for a black box.
    """

    def __init__(self, *, terms=None, value_fn=None, gradient_fn=None, n=None):
        if (terms is None) == (value_fn is None):
            raise ValueError("provide exactly one of terms or value_fn")
        if terms is not None:
            terms = tuple(terms)
            if not terms:
                raise ValueError("terms must be nonempty")
            dims = {t.operator.n for t in terms}
            if len(dims) > 1:
                raise ValueError("all term operators must share one dimension")
            n = dims.pop()
            # distinct operators by identity, in order of first appearance,
            # and (operator index, coefficient, power) per term
            matrices = {id(t.operator): t.operator.matrix for t in terms}
            slot = {key: i for i, key in enumerate(matrices)}
            self._operators = tuple(matrices.values())
            self._grouping = tuple((slot[id(t.operator)], t.coefficient, t.power) for t in terms)
        else:
            if n is None:
                raise ValueError("black-box variables must declare the dimension n")
            if n < 1:
                raise ValueError("n must be at least 1")
        self._terms = terms
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self._n = int(n)

    # -- constructors -------------------------------------------------

    @classmethod
    def quadratic(cls, a: BlockOperator, coefficient: float = 0.5) -> "ClassicalVariable":
        """f(psi) = coefficient * (A psi, psi); default is the energy form."""
        return cls(terms=[QuadraticTerm(coefficient, a, 1)])

    @classmethod
    def polynomial(cls, a: BlockOperator, coefficients: Sequence[float]) -> "ClassicalVariable":
        """f(psi) = sum_k coefficients[k-1] * (A psi, psi)^k."""
        terms = [
            QuadraticTerm(c, a, k)
            for k, c in enumerate(coefficients, start=1)
            if c != 0.0
        ]
        if not terms:
            raise ValueError("polynomial needs at least one nonzero coefficient")
        return cls(terms=terms)

    @classmethod
    def from_callbacks(
        cls,
        value: Callable[[np.ndarray], np.ndarray],
        gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        *,
        n: int,
    ) -> "ClassicalVariable":
        """Black-box variable; callbacks take (..., 2n) arrays of flat points."""
        return cls(value_fn=value, gradient_fn=gradient, n=n)

    # -- structure ----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def terms(self):
        """Structured terms, or None for a black box."""
        return self._terms

    @property
    def is_structured(self) -> bool:
        return self._terms is not None

    @property
    def has_gradient(self) -> bool:
        return self._terms is not None or self._gradient_fn is not None

    # -- evaluation ---------------------------------------------------

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on a batch; pts has shape (..., 2n)."""
        pts = self._check_batch(pts)
        if self._terms is not None:
            return self._from_forms([_quadratic_forms(pts, a) for a in self._operators])
        return np.asarray(self._value_fn(pts), dtype=float)

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        pts = self._check_batch(pts)
        if self._terms is not None:
            images, forms = self._images(pts)
            out = np.zeros_like(pts)
            for i, c, k in self._grouping:
                out += (2.0 * c * k) * forms[i][..., None] ** (k - 1) * images[i]
            return out
        if self._gradient_fn is None:
            raise ValueError("gradient unavailable: black-box variable without callback")
        return np.asarray(self._gradient_fn(pts), dtype=float)

    # -- calculus at the origin ----------------------------------------

    def hessian_at_zero(self) -> BlockOperator:
        """Second derivative matrix f''(0).

        Analytic for structured variables: 2c A summed over the power-1
        terms in term order, since a term of power k >= 2 is of order 2k
        in psi and adds nothing at the origin. Black boxes use central differences of the gradient when a
        gradient callback exists, otherwise second differences of values;
        the step is ``_HESSIAN_STEP`` (round-off in the double difference
        scales with the values near the origin, which vanish for this
        class, so truncation dominates and a small step is safe). The
        result is symmetrised.
        """
        dim = 2 * self._n
        if self._terms is not None:
            h = np.zeros((dim, dim))
            for i, c, k in self._grouping:
                if k == 1:
                    h += (2.0 * c) * self._operators[i]
            return BlockOperator(h)
        step = _HESSIAN_STEP
        if self._gradient_fn is not None:
            probes = np.concatenate([np.eye(dim) * step, -np.eye(dim) * step])
            grads = self.gradients(probes)
            h = (grads[:dim] - grads[dim:]).T / (2.0 * step)
        else:
            h = np.empty((dim, dim))
            eye = np.eye(dim) * step
            for i in range(dim):
                for j in range(i, dim):
                    pts = np.stack(
                        [
                            eye[i] + eye[j],
                            eye[i] - eye[j],
                            -eye[i] + eye[j],
                            -eye[i] - eye[j],
                        ]
                    )
                    f = self.values(pts)
                    h[i, j] = h[j, i] = (f[0] - f[1] - f[2] + f[3]) / (4.0 * step**2)
        return BlockOperator((h + h.T) / 2.0)

    # -- algebra --------------------------------------------------------

    def scaled(self, factor: float) -> "ClassicalVariable":
        if self._terms is not None:
            return ClassicalVariable(
                terms=[QuadraticTerm(factor * t.coefficient, t.operator, t.power) for t in self._terms]
            )
        value_fn = self._value_fn
        grad_fn = self._gradient_fn
        return ClassicalVariable(
            value_fn=lambda pts: factor * np.asarray(value_fn(pts), dtype=float),
            gradient_fn=None
            if grad_fn is None
            else (lambda pts: factor * np.asarray(grad_fn(pts), dtype=float)),
            n=self._n,
        )

    # -- helpers ---------------------------------------------------------

    def _from_forms(self, forms) -> np.ndarray:
        """Values of a structured variable from one array of forms per
        distinct operator (in ``_operators`` order): sum c * form^k over
        the terms, in term order."""
        out = np.zeros(forms[0].shape)
        for i, c, k in self._grouping:
            term = forms[i] ** k  # a new array: shared forms are never written to
            term *= c
            out += term
        return out

    def _images(self, pts):
        """Per distinct operator: A psi (A is symmetric) and (A psi, psi)."""
        images = [pts @ a for a in self._operators]
        return images, [np.einsum("...i,...i->...", pts, a_pts) for a_pts in images]

    def _check_batch(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != 2 * self._n:
            raise ValueError(
                f"batch last axis must be 2n = {2 * self._n}, got {pts.shape[-1]}"
            )
        return pts


def screen_variable(f: ClassicalVariable, seed: int = 0) -> dict:
    """Randomised screening of projectable-class membership.

    Checks, on ``_SCREEN_PROBES`` standard normal probe points:

    * ``vanishes_at_origin``: |f(0)| small,
    * ``even``: f(-psi) = f(psi),
    * ``j_invariant``: f(exp(tJ) psi) = f(psi) at random angles.

    For structured variables all three hold by construction; this
    function exists for black boxes, where a pass is evidence rather
    than proof. Defects are maxima over probes, checked against
    ``FD_TOL`` relative to the largest probe value.
    """
    rng = np.random.default_rng(seed)
    dim = 2 * f.n
    pts = rng.standard_normal((_SCREEN_PROBES, dim))
    vals = f.values(pts)
    ref = float(np.max(np.abs(vals)))

    at_zero = abs(float(f.values(np.zeros((1, dim)))[0]))
    even_defect = float(np.max(np.abs(f.values(-pts) - vals)))

    thetas = rng.uniform(0.0, 2.0 * np.pi, size=(_SCREEN_PROBES, 1))
    # exp(theta J) = cos(theta) I + sin(theta) J, since J^2 = -I
    rotated = np.cos(thetas) * pts + np.sin(thetas) * _j_flat(pts)
    rot_defect = float(np.max(np.abs(f.values(rotated) - vals)))

    return {
        "vanishes_at_origin": CheckResult.within(at_zero, ref, FD_TOL),
        "even": CheckResult.within(even_defect, ref, FD_TOL),
        "j_invariant": CheckResult.within(rot_defect, ref, FD_TOL),
    }
