"""Algebra of the real phase space and its complex form.

The phase space is R^{2n} with points psi = (q, p). The canonical
symplectic operator J maps (q, p) to (p, -q) and squares to -I, so it
plays the role of multiplication by -i once the space is read as C^n
via psi = q + ip. Real 2n x 2n operators commuting with J are exactly
the ones acting C-linearly; they carry an algebra isomorphism onto
complex n x n matrices which is implemented here by
``real_to_complex`` / ``complex_to_real``.

Conventions fixed by this module and relied on everywhere else:

* ``j_matrix(n) @ (q, p) == (p, -q)``.
* A J-commuting block matrix [[D, S], [-S, D]] maps to M = D - iS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "FD_TOL",
    "CheckResult",
    "PhaseVector",
    "BlockOperator",
    "ComplexOperator",
    "j_matrix",
    "j_commutation_defect",
    "is_j_commuting",
    "real_to_complex",
    "complex_to_real",
]

# Every structural check in the package goes through CheckResult.within,
# relative to the operator's scale. DEFAULT_TOL bounds round-off; FD_TOL
# bounds finite-difference error (Hessians at the origin, probe screens).
DEFAULT_TOL = 1e-10
FD_TOL = 1e-8


def _as_readonly(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a numerical predicate: boolean verdict plus the defect.

    Truth-tests as the verdict, so it can be used directly in
    ``if not is_j_commuting(A): ...`` while still exposing the measured
    defect for diagnostics.
    """

    ok: bool
    defect: float

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def within(cls, defect: float, scale: float, tol: float = DEFAULT_TOL) -> "CheckResult":
        """Verdict of ``defect <= tol * scale``.

        ``scale`` is the size of what is checked: an operator's largest
        entry, its largest |eigenvalue| for a PSD check, or the target
        value. Relative at every scale, so a zero scale needs a zero
        defect; NaN fails.
        """
        return cls(defect <= tol * scale, defect)


@dataclass(frozen=True, eq=False)
class PhaseVector:
    """Point psi = (q, p) of the 2n-dimensional phase space.

    Parameters
    ----------
    q, p : array_like
        Real coordinate and momentum parts, both of length n >= 1.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = _as_readonly(self.q)
        p = _as_readonly(self.p)
        if q.ndim != 1 or p.ndim != 1:
            raise ValueError("q and p must be one-dimensional arrays")
        if q.shape != p.shape:
            raise ValueError(f"q and p must have equal length, got {q.size} and {p.size}")
        if q.size < 1:
            raise ValueError("phase space dimension n must be at least 1")
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValueError("phase vector entries must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_flat(cls, flat) -> "PhaseVector":
        """Build from the concatenated layout (q_0..q_{n-1}, p_0..p_{n-1})."""
        flat = np.asarray(flat, dtype=float)
        if flat.ndim != 1 or flat.size % 2 != 0:
            raise ValueError("flat phase vector must be one-dimensional of even length")
        n = flat.size // 2
        return cls(flat[:n], flat[n:])

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Real linear operator on the 2n-dimensional phase space.

    Stored as a dense 2n x 2n matrix; the four named n x n blocks refer
    to the (q, p) splitting.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_readonly(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if m.shape[0] % 2 != 0 or m.shape[0] < 2:
            raise ValueError("operator matrix must be 2n x 2n with n >= 1")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_pair(cls, d, s) -> "BlockOperator":
        """J-commuting operator [[D, S], [-S, D]] from its two blocks."""
        d = np.asarray(d, dtype=float)
        s = np.asarray(s, dtype=float)
        if d.shape != s.shape or d.ndim != 2:
            raise ValueError("both blocks must be n x n with equal shapes")
        return cls(np.block([[d, s], [-s, d]]))

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def a11(self) -> np.ndarray:
        n = self.n
        return self.matrix[:n, :n]

    @property
    def a12(self) -> np.ndarray:
        n = self.n
        return self.matrix[:n, n:]

    @property
    def a21(self) -> np.ndarray:
        n = self.n
        return self.matrix[n:, :n]

    @property
    def a22(self) -> np.ndarray:
        n = self.n
        return self.matrix[n:, n:]

    @property
    def T(self) -> "BlockOperator":
        return BlockOperator(self.matrix.T)

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))

    def is_symmetric(self) -> CheckResult:
        scale = float(np.max(np.abs(self.matrix)))
        return CheckResult.within(self.symmetry_defect(), scale)

    def __matmul__(self, other: "BlockOperator") -> "BlockOperator":
        if other.n != self.n:
            raise ValueError("dimension mismatch in operator product")
        return BlockOperator(self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class ComplexOperator:
    """Complex n x n operator, the C-linear image of a J-commuting real one."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_readonly(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        if not np.isfinite(m).all():
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> CheckResult:
        scale = float(np.max(np.abs(self.matrix)))
        return CheckResult.within(self.hermiticity_defect(), scale, tol)

    def __mul__(self, scalar: complex) -> "ComplexOperator":
        return ComplexOperator(self.matrix * scalar)


def j_matrix(n: int) -> np.ndarray:
    """Dense matrix of J for dimension n: [[0, I], [-I, 0]]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def _j_flat(pts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """J on the last axis of a (..., 2n) flat batch: (q, p) -> (p, -q).

    Writes into ``out`` when given (which must not overlap ``pts``);
    negation is exact, so the result is bit for bit J pts.
    """
    n = pts.shape[-1] // 2
    if out is None:
        out = np.empty(pts.shape)
    out[..., :n] = pts[..., n:]
    np.negative(pts[..., :n], out=out[..., n:])
    return out


def j_commutation_defect(a: BlockOperator) -> float:
    """Max-norm of AJ - JA.

    Expanding the product block-wise, AJ - JA has blocks built only from
    A11 - A22 and A12 + A21, so the defect is computed from those two
    differences without materialising J.
    """
    d1 = np.max(np.abs(a.a11 - a.a22))
    d2 = np.max(np.abs(a.a12 + a.a21))
    return float(max(d1, d2))


def is_j_commuting(a: BlockOperator, tol: float = DEFAULT_TOL) -> CheckResult:
    """True iff max-norm of AJ - JA is at most tol * max |A_ij|."""
    return CheckResult.within(j_commutation_defect(a), float(np.max(np.abs(a.matrix))), tol)


def real_to_complex(a: BlockOperator, tol: float = DEFAULT_TOL) -> ComplexOperator:
    """Complex image M = A11 - i*A12 of a J-commuting block operator.

    Raises ValueError when :func:`is_j_commuting` fails at ``tol``, since
    the complex image is only defined on the J-commuting subalgebra.
    """
    check = is_j_commuting(a, tol)
    if not check:
        raise ValueError(
            f"operator does not commute with J (defect {check.defect:.3e}, tol {tol:.1e})"
        )
    return ComplexOperator(a.a11 - 1j * a.a12)


def complex_to_real(m: ComplexOperator) -> BlockOperator:
    """Real block form [[D, S], [-S, D]] with D = Re M, S = -Im M."""
    d = m.matrix.real
    s = -m.matrix.imag
    return BlockOperator.from_pair(d, s)
