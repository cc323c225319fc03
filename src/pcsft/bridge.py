"""Projection of classical states and variables onto quantum objects.

The two halves of the correspondence:

* states: a Gaussian measure projects to the density operator
  T(rho) = (complex covariance of rho) / dispersion(rho),
  which is hermitian, PSD and unit trace by construction.
* variables: a classical variable in the projectable class (vanishing
  at the origin, even, J-invariant) projects to the operator
  T(f) = (complex form of f''(0)) / 2.

For quadratic variables the classical mean, normalised by the
dispersion, equals trace(T(rho) T(f)) exactly; for variables with
higher-order terms the mismatch vanishes linearly in the dispersion,
which :func:`alpha_scan` measures.

Monte Carlo estimates read the counter-based sample stream in fixed
4096-row chunks (``gaussian.ROW_BLOCK``, so each chunk is exactly one
sample block) and merge the chunks' (count, mean, M2) triples. Each
chunk is reduced column by column: a variable's values are one
contiguous row, summed with numpy's pairwise sum. An estimate therefore
depends only on (variable, state, seed, count), not on the variables
reduced beside it, and is the same to the last bit for a fixed BLAS
library and thread count. The stream is read in support coordinates:
the r standard normals z of a row of a rank-r state, whose sample row
is z F for the state's support factor F. Structured variables are
evaluated there, each form (A psi, psi) as (F A F^T z, z) with an
r x r matrix; equal support operators are formed once per piece across
all the variables of a call. Only black boxes get shaped rows, from the
same shaping code as ``sample``.

A call reads one per-call stream, the one ``sample`` uses: at most one
Philox generator, keyed and advanced once, and buffers that every piece
overwrites, plus one work block of as many rows for the forms. With a
black box a piece is a whole chunk. With structured variables alone a
piece is the largest power of two up to 4096 rows whose widest buffer
fits 512 KiB (``gaussian._piece_rows``): 4096 rows up to rank 16, 512 at
rank 128, 256 at rank 256. Each piece's forms are written to their
columns of one reused chunk-long array per support operator, and values
and statistics still run once per chunk, so the pieces change no bit.
Beyond G and those buffers a call allocates only a few chunk-long
columns per chunk (and a black box's shaped rows). At rank 256 the
normals, the work block and G are three 512 KiB arrays, where
whole-chunk buffers held 8 MiB each. Memory stays bounded whatever ``count`` is, and no buffer is freed and
faulted in again. ``seed`` and ``count`` must be integers: a float
raises ``TypeError`` rather than being truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._csvio import write_csv
from .dynamics import schrodinger_flow
from .gaussian import (
    ROW_BLOCK,
    DensityOperator,
    GaussianState,
    _NormalStream,
    _shape,
    complex_covariance,
    dispersion,
)
from .symplectic import FD_TOL, CheckResult, ComplexOperator, real_to_complex
from .variables import ClassicalVariable, _quadratic_forms, screen_variable

__all__ = [
    "MonteCarloEstimate",
    "CorrespondenceReport",
    "project_state",
    "project_variable",
    "amplify",
    "classical_average",
    "quantum_average",
    "von_neumann_evolve",
    "alpha_scan",
]

class MonteCarloEstimate(NamedTuple):
    mean: float
    stderr: float
    count: int


def project_state(rho: GaussianState, alpha: Optional[float] = None) -> DensityOperator:
    """Density operator of a Gaussian state: complex covariance over
    dispersion.

    When ``alpha`` is given, the state's dispersion must match it to
    round-off (``DEFAULT_TOL`` relative to alpha). Normalisation always
    uses the measured dispersion, so the result has unit trace to
    round-off. The map is defined for every state but is lossy outside
    the J-invariant class.
    """
    disp = dispersion(rho)
    if disp <= 0:
        raise ValueError("projection needs positive dispersion")
    if alpha is not None and not CheckResult.within(abs(disp - alpha), abs(alpha)):
        raise ValueError(
            f"state dispersion {disp} does not match declared alpha {alpha}"
        )
    return DensityOperator(complex_covariance(rho).matrix / disp)


def project_variable(f: ClassicalVariable) -> ComplexOperator:
    """Operator image of a projectable variable: complex form of half the
    Hessian at the origin.

    Structured variables are in the projectable class by construction.
    Black boxes are screened on random probes (vanishing at the origin,
    evenness, J-invariance); screening is evidence, not proof, and a
    failed predicate raises ValueError. In all cases the Hessian
    (symmetric by :meth:`hessian_at_zero`) must commute with J within
    ``FD_TOL`` relative to its largest entry.
    """
    if not f.is_structured:
        verdicts = screen_variable(f)
        failed = sorted(name for name, check in verdicts.items() if not check)
        if failed:
            raise ValueError(
                f"variable fails projectable-class screening: {', '.join(failed)}"
            )
    return real_to_complex(f.hessian_at_zero(), tol=FD_TOL) * 0.5


def amplify(f: ClassicalVariable, alpha: float) -> ClassicalVariable:
    """Dispersion-normalised variable f / alpha.

    Classical averages of the amplified variable over states of
    dispersion alpha are the quantities that converge to quantum
    averages as alpha -> 0.
    """
    if not alpha > 0 or not math.isfinite(alpha):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return f.scaled(1.0 / alpha)


def _reduce(variables, rho: GaussianState, seed: int, count: int, columns=None) -> list:
    """Monte Carlo estimates over the first ``count`` rows of the sample
    stream of (rho, seed): one per variable, or one per column of
    ``columns(*values)`` when given, ``values`` being the variables'
    values on a chunk and the columns the rows of the (k, m) array it
    returns. Every variable must have the state's n; a ValueError naming
    both is raised before anything is drawn.

    The stream is read as support normals z from the per-call stream
    ``sample`` draws from: at most one Philox generator and buffers that
    every piece reuses. A sample row is z F, F being the state's stored
    support factor (:func:`pcsft.gaussian.sample`). A structured
    variable is evaluated in support coordinates: (A psi, psi) =
    (G z, z) with G = F A F^T, r x r for a rank-r state, formed once per
    call. Equal G (by value) are kept once, so each distinct form
    (G z, z) is computed once per piece and shared by every variable
    that carries it; equal G give equal bits. With no black box the
    stream's pieces are cache-sized (``gaussian._piece_rows``: 256 rows
    at r = 256, 512 at r = 128, ROW_BLOCK at r <= 16), every G z is
    written into one (piece, r) work block, and each piece's forms go to
    their columns of one reused (k, ROW_BLOCK) array. A call with a black
    box reads whole ROW_BLOCK pieces, since the black box gets the
    chunk's rows from the shaping ``sample`` uses and so sees the same
    bits. Beyond G, a call therefore holds the stream's buffers, the work
    block and a few ROW_BLOCK-long columns, whatever ``count`` is.

    Values, statistics and merges run once per ROW_BLOCK-row chunk. A
    chunk's values are stacked as a (k, m) array, one contiguous row per
    column, and each row is summed with numpy's pairwise sum, so an
    estimate does not depend on its companions. Each chunk's (count,
    mean, M2) is merged pairwise (Chan, Golub & LeVeque 1979), so the
    spread survives a mean far larger than it.
    """
    for f in variables:
        if f.n != rho.n:
            raise ValueError(f"variable dimension n = {f.n} does not match the state's n = {rho.n}")
    black_box = not all(f.is_structured for f in variables)
    stream = _NormalStream(rho, seed, count, shaped=black_box)
    count = stream.count
    if count < 2:
        raise ValueError("count must be at least 2")
    factor = rho._factor
    # the call's distinct support operators G = F A F^T, equal ones kept
    # once; per structured variable, the index of each of its operators' G
    support_ops, slots = [], []
    for f in variables:
        if not f.is_structured:
            slots.append(None)
            continue
        slots.append([])
        for g in (factor @ a @ factor.T for a in f._operators):
            slot = next((i for i, h in enumerate(support_ops) if np.array_equal(g, h)), len(support_ops))
            if slot == len(support_ops):
                support_ops.append(g)
            slots[-1].append(slot)
    # one (piece, r) block that every form's G z is written to, and one
    # row of forms per G, piece after piece and chunk after chunk
    work = np.empty((stream.rows, len(factor))) if support_ops else None
    forms = np.empty((len(support_ops), min(count, ROW_BLOCK)))
    mean, m2 = 0.0, 0.0
    for first, z in stream:
        at = first % ROW_BLOCK
        for g, out in zip(support_ops, forms[:, at : at + len(z)]):
            _quadratic_forms(z, g, work, out)
        m = at + len(z)
        if m < ROW_BLOCK and first + len(z) < count:
            continue  # the chunk's next piece follows
        done = first - at
        rows = _shape(z, factor, done, block=stream.block) if black_box else None
        values = [
            f.values(rows) if idx is None else f._from_forms([forms[i, :m] for i in idx])
            for f, idx in zip(variables, slots)
        ]
        del rows  # free the chunk before the next one is drawn
        # one contiguous row per column, each summed pairwise on its own
        cols = np.stack(values) if columns is None else columns(*values)
        chunk_mean = cols.mean(axis=1)
        delta = chunk_mean - mean
        merged = done + m
        mean = mean + delta * (m / merged)
        m2 = m2 + ((cols - chunk_mean[:, None]) ** 2).sum(axis=1) + delta**2 * (done * m / merged)
    stderrs = np.sqrt(m2 / (count - 1) / count)
    return [MonteCarloEstimate(float(a), float(b), count) for a, b in zip(mean, stderrs)]


def classical_average(
    f: ClassicalVariable, rho: GaussianState, seed: int, count: int
) -> MonteCarloEstimate:
    """Monte Carlo mean of f over rho with its standard error.

    Deterministic in (seed, count): samples come from the counter-based
    stream in fixed chunks, so reruns reproduce the estimate exactly.
    """
    return _reduce([f], rho, seed, count)[0]


def quantum_average(d: DensityOperator, a: ComplexOperator) -> float:
    """trace(D A) for a hermitian operator A; real by construction."""
    check = a.is_hermitian(FD_TOL)
    if not check:
        raise ValueError(f"operator must be hermitian (defect {check.defect:.3e})")
    if d.n != a.n:
        raise ValueError("dimension mismatch between density operator and observable")
    value = complex(np.trace(d.matrix @ a.matrix))
    return value.real


def von_neumann_evolve(d: DensityOperator, m: ComplexOperator, t: float) -> DensityOperator:
    """Density operator at time t: exp(-iMt) D exp(iMt)."""
    if d.n != m.n:
        raise ValueError("dimension mismatch between density operator and generator")
    return d._conjugated(schrodinger_flow(m, t).matrix)


# ---------------------------------------------------------------------------
# Dispersion scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    """Result of an alpha scan.

    errors are control-variate estimates of classical - quantum: the
    quadratic Taylor part of the variable (whose amplified mean equals
    the quantum average exactly) is subtracted sample-wise, which
    removes the O(1) Monte Carlo noise floor and leaves the genuinely
    nonquadratic residual visible even at small dispersion.
    """

    alphas: tuple
    classical_means: tuple
    classical_stderrs: tuple
    quantum_value: float
    errors: tuple
    error_stderrs: tuple
    slope: float
    fit_points: int

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["alpha", "classical_mean", "classical_stderr", "error", "error_stderr"],
            zip(
                self.alphas,
                self.classical_means,
                self.classical_stderrs,
                self.errors,
                self.error_stderrs,
            ),
        )


_CONVENTIONS = {
    "state_projection": "density operator = complex covariance / dispersion",
    "variable_projection": "operator = complex form of Hessian at origin / 2",
    "amplification": "amplified variable = f / alpha",
    "error_estimator": "control variate: quadratic part subtracted sample-wise",
}

DEFAULT_ALPHA_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


def alpha_scan(
    f: ClassicalVariable,
    shape: GaussianState,
    alphas: Sequence[float] = DEFAULT_ALPHA_GRID,
    seed: int = 0,
    count: int = 200_000,
) -> CorrespondenceReport:
    """Measure classical-vs-quantum mismatch across dispersions.

    ``shape`` fixes the geometry of the family: for each alpha the scan
    uses the state with covariance alpha * (shape covariance /
    dispersion(shape)), i.e. same projected density operator, dispersion
    alpha. For each alpha an independent substream of the seed estimates
    the classical mean of the amplified variable, and the control-variate
    error against the quantum value. The log-log slope of |error| vs
    alpha is fitted on the points where the error clears 3 standard
    errors; fewer than two such points leave the slope as NaN.
    """
    alphas = tuple(float(a) for a in alphas)
    if not alphas or not all(a > 0 and math.isfinite(a) for a in alphas):
        raise ValueError(
            f"alphas must be a nonempty sequence of positive finite numbers, got {alphas}"
        )
    base = dispersion(shape)
    if base <= 0:
        raise ValueError("shape state must have positive dispersion")
    d = project_state(shape)
    t_f = project_variable(f)
    quantum = quantum_average(d, t_f)

    # quadratic Taylor part; its amplified mean equals the quantum value
    # exactly, so subtracting it sample-wise estimates the error directly
    quad = ClassicalVariable.quadratic(f.hessian_at_zero(), coefficient=0.5)

    classical_means = []
    classical_stderrs = []
    errors = []
    error_stderrs = []
    for i, alpha in enumerate(alphas):
        rho = GaussianState(shape.covariance * (alpha / base))
        sub = int(np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(1, np.uint64)[0])
        classical, error = _reduce(
            [amplify(f, alpha), amplify(quad, alpha)],
            rho,
            sub,
            count,
            lambda vals, quad_vals: np.stack([vals, vals - quad_vals]),
        )
        classical_means.append(classical.mean)
        classical_stderrs.append(classical.stderr)
        errors.append(error.mean)
        error_stderrs.append(error.stderr)

    significant = [
        k for k in range(len(alphas)) if abs(errors[k]) > 3.0 * error_stderrs[k]
    ]
    if len(significant) >= 2:
        xs = np.log(np.array([alphas[k] for k in significant]))
        ys = np.log(np.array([abs(errors[k]) for k in significant]))
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = float("nan")

    return CorrespondenceReport(
        alphas=alphas,
        classical_means=tuple(classical_means),
        classical_stderrs=tuple(classical_stderrs),
        quantum_value=quantum,
        errors=tuple(errors),
        error_stderrs=tuple(error_stderrs),
        slope=slope,
        fit_points=len(significant),
    )
