"""Gaussian measures on phase space and their complex covariance calculus.

A state here is a zero-mean Gaussian measure on the 2n-dimensional phase
space, carried entirely by its real covariance matrix B. The scalar
``alpha = trace(B)`` is the dispersion of the measure. For J-invariant
states (covariance commuting with J) the information in B is equivalent
to the complex covariance

    M = E[z z^dagger] = D - iS,   D = B11 + B22,  S = B12 - B21,

with z = q + ip, and M corresponds to 2B under the block dictionary.
Normalising M by the dispersion produces a unit-trace hermitian PSD
matrix, which is how these measures project onto density operators (see
:mod:`pcsft.bridge`).

Sampling is counter-based: a fixed (seed, start, count) triple always
yields the same rows, and splitting a batch at any sample boundary
reproduces the sequential stream bit for bit, for a fixed BLAS library
and thread count. A state carries one support factor F with
B = F^T F, r x 2n for rank r, and a row is z F for r standard normals
z. A general state takes F from the ``eigh`` that validates B; the
pure-state and isotropic factors are known exactly and take no
``eigh``. Only the support is drawn: when the Philox blocks that hold a
row's support columns are a small share of the row's blocks, only those
blocks are generated, each from its own counter, so a rank-2 state pays
for 4 words per row instead of 2n. The inverse normal CDF ``ndtri``
comes from ``scipy.special``, loaded on the first call of
:func:`ndtri`, so that importing this module loads no scipy.

Each sampling call, :func:`sample` or a Monte Carlo reduction in
:mod:`pcsft.bridge`, reads one private per-call stream of support
normals. When rows draw all their Philox blocks, it keys one numpy
generator and advances it once, to the first row, then draws block
after piece from it. ``sample``, and a reduction with a black box,
read one piece per ROW_BLOCK-row block, the unit :func:`_shape`
multiplies. A reduction of structured variables alone reads smaller
pieces when a row is wide: the largest power of two up to ROW_BLOCK rows
whose widest buffer fits 512 KiB (:func:`_piece_rows`), so 256 rows at
rank 256. ``ndtri`` runs in place in one normals buffer of
min(count, piece) rows, which every piece overwrites, and the uniforms
go to one more such buffer, or straight into the normals buffer when
the support is the whole row. Beyond its output a call therefore holds
these buffers and at most one block's product, whatever its count.
``seed``, ``count`` and ``start`` must be integers; a float raises
``TypeError`` instead of being truncated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .symplectic import (
    BlockOperator,
    CheckResult,
    ComplexOperator,
    complex_to_real,
    is_j_commuting,
    real_to_complex,
)

__all__ = [
    "GaussianState",
    "DensityOperator",
    "dispersion",
    "is_j_invariant",
    "complex_covariance",
    "from_complex_covariance",
    "pure_state_measure",
    "pushforward",
    "quadratic_average",
    "sample",
]

# rows per sample block, batched form and Monte Carlo chunk; a row is
# always shaped at the same position of a block of this size, which keeps
# its BLAS result independent of how a request is split, and the block
# bounds temporary memory
ROW_BLOCK = 4096

# Philox4x64-10 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = (1 << 64) - 1
_LOW32 = (1 << 32) - 1
# a word computed by counter costs about 8 drawn by numpy's generator, so
# rows draw only their support blocks when those are at most this share
_COUNTER_SHARE = 1 / 8
# a Monte Carlo reduction without a black box reads the stream in pieces
# whose widest buffer stays within this many bytes, so that they stay in cache
_PIECE_BYTES = 512 * 1024


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Zero-mean Gaussian measure with real covariance ``covariance``.

    The matrix is validated as a :class:`BlockOperator` (finite,
    2n x 2n, symmetric by :meth:`BlockOperator.is_symmetric`) and must be
    positive semidefinite within ``DEFAULT_TOL`` relative to its largest
    |eigenvalue| (see :meth:`pcsft.symplectic.CheckResult.within`).
    Rank-deficient covariances are allowed; they describe measures
    supported on a subspace. A state carries one read-only support
    factor F, r x 2n for a rank-r covariance B = F^T F, from which it is
    sampled and reduced. The ``eigh`` that checks positivity gives it,
    so a state is decomposed once. :meth:`isotropic` and
    :func:`pure_state_measure` know their factors exactly and take no
    ``eigh``.
    """

    covariance: np.ndarray

    def __post_init__(self):
        op = BlockOperator(self.covariance)  # square, 2n x 2n, finite
        sym = op.is_symmetric()
        if not sym:
            raise ValueError(f"covariance not symmetric (defect {sym.defect:.3e})")
        b = (op.matrix + op.matrix.T) / 2.0  # remove round-off asymmetry before storing
        w, v = np.linalg.eigh(b)
        if not CheckResult.within(-float(w[0]), float(np.max(np.abs(w)))):
            raise ValueError(f"covariance not positive semidefinite (min eig {w[0]:.3e})")
        # eigenvalues within round-off of zero count as exact zeros; eigh
        # sorts ascending, so the kept directions, the support, are a suffix
        low = len(w) - int(np.count_nonzero(w > 1e-14 * max(float(w[-1]), 0.0)))
        self._store(b, (v[:, low:] * np.sqrt(w[low:])).T)

    def _store(self, covariance: np.ndarray, factor: np.ndarray) -> None:
        """Keep B and its support factor F, both read-only."""
        covariance.setflags(write=False)
        factor.setflags(write=False)
        object.__setattr__(self, "covariance", covariance)
        object.__setattr__(self, "_factor", factor)  # (r, 2n), B = F^T F

    @classmethod
    def _factored(cls, covariance: np.ndarray, factor: np.ndarray) -> "GaussianState":
        """State with a covariance that is factor^T factor by construction,
        with no eigh: its positivity and support are those of the factor.
        The covariance is still checked as a :class:`BlockOperator`."""
        out = object.__new__(cls)
        out._store(BlockOperator(covariance).matrix, factor)
        return out

    @property
    def n(self) -> int:
        return self.covariance.shape[0] // 2

    @property
    def alpha(self) -> float:
        """Dispersion of the measure: the covariance trace."""
        return float(np.trace(self.covariance))

    @classmethod
    def isotropic(cls, n: int, alpha: float) -> "GaussianState":
        """Rotation-invariant state with covariance (alpha / 2n) * I.

        Its support factor is sqrt(alpha / 2n) * I, exactly what ``eigh``
        gives for this covariance, and none when alpha = 0 (rank 0)."""
        if n < 1:
            raise ValueError("n must be at least 1")
        if not alpha >= 0 or not math.isfinite(alpha):
            raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
        b = np.eye(2 * n) * (alpha / (2 * n))
        rank = 2 * n if alpha > 0 else 0
        return cls._factored(b, np.eye(rank, 2 * n) * math.sqrt(alpha / (2 * n)))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace complex matrix.

    Shape, finiteness and hermiticity are checked by
    :class:`ComplexOperator`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = self._hermitian_unit_trace(self.matrix)
        w = np.linalg.eigvalsh(m)
        if not CheckResult.within(-float(w[0]), float(np.max(np.abs(w)))):
            raise ValueError("density operator not positive semidefinite")
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def _hermitian_unit_trace(matrix) -> np.ndarray:
        """Check shape, finiteness, hermiticity and unit trace; return the
        read-only hermitian part."""
        op = ComplexOperator(matrix)  # square, n >= 1, finite
        herm = op.is_hermitian()
        if not herm:
            raise ValueError(f"density operator not hermitian (defect {herm.defect:.3e})")
        m = (op.matrix + op.matrix.conj().T) / 2.0
        tr = complex(np.trace(m))
        if not CheckResult.within(abs(tr - 1.0), 1.0):
            raise ValueError(f"density operator trace {tr} is not 1")
        m.setflags(write=False)
        return m

    def _conjugated(self, u: np.ndarray) -> "DensityOperator":
        """u D u^H for a unitary u, with no eigvalsh: a unitary conjugate
        has the spectrum D was already checked with."""
        out = object.__new__(DensityOperator)
        object.__setattr__(out, "matrix", self._hermitian_unit_trace(u @ self.matrix @ u.conj().T))
        return out

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def dispersion(rho: GaussianState) -> float:
    """Covariance trace; equals the mean of the squared phase-space norm."""
    return rho.alpha


def is_j_invariant(rho: GaussianState) -> CheckResult:
    """A Gaussian measure is J-invariant iff its covariance commutes with J."""
    return is_j_commuting(BlockOperator(rho.covariance))


def complex_covariance(rho: GaussianState) -> ComplexOperator:
    """Complex covariance M = E[z z^dagger] with z = q + ip.

    Blockwise M = (B11 + B22) - i (B12 - B21); hermitian for every state,
    and equal to 2B under the block dictionary when the state is
    J-invariant.
    """
    b = BlockOperator(rho.covariance)
    d = b.a11 + b.a22
    s = b.a12 - b.a21
    return ComplexOperator(d - 1j * s)


def from_complex_covariance(m: ComplexOperator) -> GaussianState:
    """J-invariant Gaussian state with prescribed complex covariance.

    Inverts :func:`complex_covariance` on J-invariant states:
    B11 = B22 = Re(M)/2 and B12 = -B21 = -Im(M)/2. The input is a
    :class:`ComplexOperator` that must be hermitian PSD: the real form
    of M is symmetric exactly when M is hermitian, so
    :class:`GaussianState` rejects any other input.
    """
    return GaussianState(complex_to_real(m).matrix / 2.0)


def pure_state_measure(psi, alpha: float) -> GaussianState:
    """Gaussian measure of dispersion alpha concentrated on the complex
    line through psi, a normalised one-dimensional complex vector (any
    array_like of complex numbers).

    The covariance is (alpha/2) (e1 e1^T + e2 e2^T) with e1 = (u, v) and
    e2 = (-v, u) for psi = u + iv, i.e. rank two, supported on the real
    plane spanned by psi and J psi. Its complex covariance is
    alpha * psi psi^dagger. Its support factor is the exact
    sqrt(alpha/2) (e1; e2), so building, sampling and reducing the state
    take no ``eigh``.
    """
    if not alpha > 0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    z = np.asarray(psi, dtype=complex)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("psi must be a one-dimensional vector")
    u, v = z.real, z.imag
    nrm = math.sqrt(float(u @ u + v @ v))
    if not CheckResult.within(abs(nrm - 1.0), 1.0):
        raise ValueError(f"psi must be normalised, got norm {nrm}")
    e1 = np.concatenate([u, v])
    e2 = np.concatenate([-v, u])
    b = (alpha / 2.0) * (np.outer(e1, e1) + np.outer(e2, e2))
    return GaussianState._factored(b, math.sqrt(alpha / 2.0) * np.stack([e1, e2]))


def pushforward(rho: GaussianState, u: BlockOperator) -> GaussianState:
    """Image measure under the linear map u: covariance U B U^T."""
    if u.n != rho.n:
        raise ValueError(f"dimension mismatch: state n={rho.n}, operator n={u.n}")
    return GaussianState(u.matrix @ rho.covariance @ u.matrix.T)


def quadratic_average(rho: GaussianState, a) -> float:
    """Exact mean of the quadratic form psi -> (A psi, psi) under rho.

    ``a`` is either a symmetric J-commuting :class:`BlockOperator` or a
    hermitian :class:`ComplexOperator`; the mean equals the complex trace
    of (complex covariance of rho) times (complex image of A).
    """
    if not isinstance(a, (BlockOperator, ComplexOperator)):
        raise TypeError("expected BlockOperator or ComplexOperator")
    if a.n != rho.n:
        raise ValueError("dimension mismatch between state and operator")
    if isinstance(a, BlockOperator):
        if not a.is_symmetric():
            raise ValueError("block operator must be symmetric")
        a = real_to_complex(a)
    elif not a.is_hermitian():
        raise ValueError("complex operator must be hermitian")
    m = complex_covariance(rho).matrix
    value = complex(np.trace(m @ a.matrix))
    # the round-off in tr(M A) grows with the operators, not with the value
    scale = float(np.linalg.norm(m) * np.linalg.norm(a.matrix))
    if not CheckResult.within(abs(value.imag), scale):
        raise ValueError(f"trace average unexpectedly non-real: {value}")
    return value.real


def _mulhilo(a: int, b: np.ndarray):
    """High and low 64-bit words of a * b, for a constant a and uint64 b,
    from 32-bit halves (numpy has no 128-bit product)."""
    a_lo, a_hi = np.uint64(a & _LOW32), np.uint64(a >> 32)
    b_lo, b_hi = b & np.uint64(_LOW32), b >> np.uint64(32)
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> np.uint64(32)) + (lo_hi & np.uint64(_LOW32)) + (hi_lo & np.uint64(_LOW32))
    hi = a_hi * b_hi + (lo_hi >> np.uint64(32)) + (hi_lo >> np.uint64(32)) + (mid >> np.uint64(32))
    return hi, b * np.uint64(a)


def _philox_blocks(seed: int, first: int, offsets) -> np.ndarray:
    """The 4 words of blocks ``first + offsets`` of the Philox4x64-10
    stream of ``np.random.Philox(key=seed)``, as an ``offsets.shape + (4,)``
    uint64 array.

    Philox is counter-based (Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3", SC'11): block b is the 10-round bijection of the
    256-bit counter b + 1 under the 128-bit key ``seed``, so any block is
    computed on its own. These are the words that ``advance(first +
    offset)`` followed by ``random_raw(4)`` gives, the counter's carry
    and the key's second word included.
    """
    offsets = np.asarray(offsets, dtype=np.uint64)
    base = (first + 1) % (1 << 256)
    low = np.uint64(base & _WORD) + offsets
    carry = low < offsets
    ctr = [low]
    for shift in (64, 128, 192):
        word = np.uint64((base >> shift) & _WORD) + carry
        carry = carry & (word == 0)
        ctr.append(word)
    k0, k1 = seed & _WORD, seed >> 64
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_MULTIPLIERS[0], ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_MULTIPLIERS[1], ctr[2])
        ctr = [hi1 ^ ctr[1] ^ np.uint64(k0), lo1, hi0 ^ ctr[3] ^ np.uint64(k1), lo0]
        k0, k1 = (k0 + _PHILOX_WEYL[0]) & _WORD, (k1 + _PHILOX_WEYL[1]) & _WORD
    return np.stack(ctr, axis=-1)


def _integer(name: str, value) -> int:
    """``value`` as a Python int; a float or any other non-integer raises,
    so nothing is truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _piece_rows(width: int) -> int:
    """Rows per piece of an unshaped stream whose widest per-row buffer
    has ``width`` doubles: the largest power of two up to ROW_BLOCK whose
    buffer fits ``_PIECE_BYTES``, so 4096 rows up to width 16, 512 at 128
    and 256 at 256."""
    rows = ROW_BLOCK
    while rows > 1 and rows * width * 8 > _PIECE_BYTES:
        rows //= 2
    return rows


class _NormalStream:
    """The support normals of rows start..start+count-1 of the stream of
    (rho, seed), in pieces aligned to their own size in the global row
    index: iterating yields (first row, z), z being the piece's (m, r)
    normals, ``ndtri`` of each row's uniforms in its support columns, the
    last r = len(rho._factor) of its 2n.

    A ``shaped`` stream, the one :func:`_shape` reads, has one piece per
    ROW_BLOCK-row block. Otherwise a piece has ``piece`` =
    ``_piece_rows(width)`` rows, width being that of the widest per-row
    buffer the piece fills (its normals, its uniforms, or a reducer's
    (piece, r) work block), so 256 rows for a full-rank state at n = 128
    and ROW_BLOCK rows at rank r <= 16 unless the uniforms are wider. The
    piece size is a power of two that divides ROW_BLOCK, so a piece lies
    inside one block, and it depends only on the state, never on
    ``start`` or ``count``.

    Row k owns Philox blocks k*b..k*b+b-1, b = ceil(2n/4). When the
    blocks that hold the support columns are at most ``_COUNTER_SHARE``
    of b, only those are computed, by counter (:func:`_philox_blocks`).
    Otherwise one numpy Philox generator, keyed and advanced to row
    ``start`` once, draws every block of the rows, piece after piece: a
    row is a whole number of blocks, so these are the words a generator
    advanced afresh to each piece would give.

    z is a view of one buffer of ``rows`` = min(count, piece) rows,
    which the next piece overwrites: ``ndtri`` runs faster on contiguous
    rows than on padded ones, so the support columns are clipped into it.
    The uniforms are drawn into a second buffer of as many rows, or
    straight into z's when the support is the whole padded row. When
    ``rows`` is ROW_BLOCK, the buffer is ``block``: each piece sits at
    its rows of its block, so that :func:`_shape` can zero-pad it in
    place.
    """

    def __init__(self, rho: GaussianState, seed, count, start=0, shaped=True):
        self.seed, self.count, self.start = (
            _integer(name, value) for name, value in (("seed", seed), ("count", count), ("start", start))
        )
        if self.count < 0 or self.start < 0:
            raise ValueError("count and start must be nonnegative")
        if not 0 <= self.seed < 1 << 128:  # numpy's Philox key
            raise ValueError("seed must be in [0, 2**128)")
        dim, rank = 2 * rho.n, len(rho._factor)
        low = dim - rank
        self._blocks, first = (dim + 3) // 4, low // 4
        self._by_counter = self._blocks - first <= _COUNTER_SHARE * self._blocks
        uniforms = 4 * (self._blocks - first if self._by_counter else self._blocks)
        self.piece = ROW_BLOCK if shaped else _piece_rows(max(rank, uniforms))
        self.rows = min(self.count, self.piece)
        self._normals = np.empty((self.rows, rank))
        self.block = self._normals if self.rows == ROW_BLOCK else None
        if self._by_counter:
            # each row's support blocks, as offsets from its piece's first block
            offsets = np.arange(self.rows, dtype=np.uint64)[:, None] * np.uint64(self._blocks)
            self._offsets = offsets + np.arange(first, self._blocks, dtype=np.uint64)
            self._support = slice(low - 4 * first, dim - 4 * first)
        else:
            whole = low == 0 and dim % 4 == 0
            self._uniforms = self._normals if whole else np.empty((self.rows, 4 * self._blocks))
            self._support = slice(low, dim)

    def __iter__(self):
        if not self._by_counter:
            gen = np.random.Generator(np.random.Philox(key=self.seed))
            gen.bit_generator.advance(self.start * self._blocks)
        stop, piece = self.start + self.count, self.piece
        for row in range(self.start - self.start % piece, stop, piece):
            a, b = max(self.start, row), min(stop, row + piece)
            at = slice(a - row, b - row) if self.block is not None else slice(0, b - a)
            if self._by_counter:
                words = _philox_blocks(self.seed, a * self._blocks, self._offsets[: b - a])
                # numpy's double from a word: its top 53 bits times 2^-53
                u = (words.reshape(b - a, -1) >> np.uint64(11)) * (1.0 / (1 << 53))
            else:
                u = gen.random(out=self._uniforms[at])
            z = np.clip(u[:, self._support], np.finfo(float).tiny, None, out=self._normals[at])
            ndtri(z, out=z)
            yield a, z


def _shape(z: np.ndarray, factor: np.ndarray, start: int, out=None, block=None) -> np.ndarray:
    """Sample rows z F for the support normals of rows start..start+len(z)-1,
    which lie in one ROW_BLOCK-row block, written to ``out`` when given.

    Every row goes through one BLAS matmul of a fixed shape at a fixed
    position: the ROW_BLOCK-row block that starts at a multiple of
    ROW_BLOCK in the global row index. Rows of the block outside the
    request are zeros. A partial block is padded in ``block``, a
    ROW_BLOCK-row array that holds z at its rows of the block and whose
    other rows are free, when given, and in a new array otherwise; beyond
    ``out``, it then holds the block's product.
    """
    if out is None:
        out = np.empty((z.shape[0], factor.shape[1]))
    if z.shape[0] == ROW_BLOCK:
        np.matmul(z, factor, out=out)
        return out
    a = start % ROW_BLOCK
    if block is None:
        block = np.zeros((ROW_BLOCK, z.shape[1]))
        block[a : a + z.shape[0]] = z
    else:
        block[:a] = 0.0
        block[a + z.shape[0] :] = 0.0
    out[...] = (block @ factor)[a : a + z.shape[0]]
    return out


def ndtri(x, out=None):
    """Inverse of the standard normal CDF, elementwise:
    ``scipy.special.ndtri``, imported on the first call."""
    from scipy.special import ndtri as scipy_ndtri

    return scipy_ndtri(x, out=out)


def sample(rho: GaussianState, seed: int, count: int, start: int = 0) -> np.ndarray:
    """Draw ``count`` points of rho as a (count, 2n) array.

    Deterministic in (seed, start, count): the row at global index k is
    the same whether generated in one batch or in any split of batches,
    for a fixed BLAS library and thread count. Gaussian shaping applies
    the inverse normal CDF to counter-based uniforms and multiplies by
    the state's support factor F (:class:`GaussianState`). Only the
    support is drawn and shaped: F has one row per support direction,
    so a pure-state measure shapes 2 normals per row whatever n is. When
    the support's Philox blocks are at most 1/8 of a row's, only those
    blocks are generated: from n = 15 on, a pure-state measure draws one
    block of 4 words per row. Every row goes through
    one BLAS matmul of a fixed shape at a fixed position: the
    ROW_BLOCK-row block that starts at a multiple of ROW_BLOCK in the
    global row index. Rows of a block outside the request are zeros and
    cost no ``ndtri``. The request is drawn from one per-call stream,
    with at most one Philox generator, advanced once to ``start``, and
    shaped one block at a time straight into the output. Its uniforms
    and normals live in buffers of min(count, ROW_BLOCK) rows that every
    block reuses (one buffer when the support is the whole row), and a
    partial block is zero-padded in place there. Beyond the (count, 2n)
    output a call therefore holds those buffers and one block's product
    at a time. ``seed``, ``count`` and ``start`` must be integers
    (``operator.index``); a float raises ``TypeError``. The first call
    loads ``scipy.special``, where ``ndtri`` comes from.
    """
    stream = _NormalStream(rho, seed, count, start)
    out = np.empty((stream.count, 2 * rho.n))
    for a, z in stream:
        _shape(z, rho._factor, a, out[a - stream.start : a - stream.start + len(z)], stream.block)
    return out
