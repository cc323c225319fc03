"""Tests for Gaussian measures: covariance validation, the complex
covariance dictionary, exact quadratic averages and counter-based
sampling.

Monte Carlo oracles: the defining integrals (complex covariance as
E[z z^dagger], quadratic averages) are estimated from samples and
compared against the closed-form block/trace formulas, so the two code
paths check each other.
"""

import tracemalloc

import numpy as np
import pytest

from pcsft import gaussian
from pcsft.bridge import classical_average
from pcsft.gaussian import (
    DensityOperator,
    GaussianState,
    complex_covariance,
    dispersion,
    from_complex_covariance,
    is_j_invariant,
    pure_state_measure,
    pushforward,
    quadratic_average,
    sample,
)
from pcsft.symplectic import BlockOperator, ComplexOperator, complex_to_real, real_to_complex
from pcsft.variables import ClassicalVariable


def random_j_invariant_state(rng, n, alpha=None):
    # hermitian PSD complex covariance, then pull back
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = x @ x.conj().T
    if alpha is not None:
        m *= alpha / np.real(np.trace(m))
    return from_complex_covariance(ComplexOperator(m))


def philox_uniforms(seed, start, count, dim):
    """Uniforms of rows start..start+count-1, each row ceil(dim/4) whole
    Philox blocks, from a generator keyed and advanced to row start."""
    words = 4 * ((dim + 3) // 4)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start * (words // 4))
    return np.random.Generator(bitgen).random((count, words))[:, :dim]


def random_state(rng, size):
    x = rng.standard_normal((size, size))
    return GaussianState(x @ x.T)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_isotropic_state_basics():
    rho = GaussianState.isotropic(3, 0.6)
    assert rho.n == 3
    assert dispersion(rho) == pytest.approx(0.6, abs=1e-14)
    assert is_j_invariant(rho)
    with pytest.raises(ValueError, match="nonnegative"):
        GaussianState.isotropic(3, -1.0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            GaussianState.isotropic(n, 1.0)


def test_validation_rejects_bad_covariances():
    with pytest.raises(ValueError):
        GaussianState(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        GaussianState(np.diag([1.0, -0.5]))  # indefinite
    with pytest.raises(ValueError):
        GaussianState(np.zeros((3, 3)))  # odd size
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(np.diag([1.0, bad]))
    with pytest.raises(ValueError, match="square"):
        GaussianState(np.zeros((2, 4)))
    with pytest.raises(ValueError, match="square"):
        GaussianState(np.ones(4))
    # zero covariance is a legal degenerate point mass
    z = GaussianState(np.zeros((2, 2)))
    assert z.alpha == 0.0
    np.testing.assert_array_equal(sample(z, 1, 5), np.zeros((5, 2)))


def test_j_invariance_predicate():
    assert not is_j_invariant(GaussianState(np.diag([1.0, 0.0])))
    rho = random_j_invariant_state(np.random.default_rng(0), 3)
    assert is_j_invariant(rho)


# ---------------------------------------------------------------------------
# Complex covariance dictionary
# ---------------------------------------------------------------------------


def test_complex_covariance_blocks():
    # B = [[B11, B12], [B12^T, B22]] maps to (B11 + B22) - i(B12 - B12^T)
    rng = np.random.default_rng(1)
    b11 = _sym(rng, 2)
    b22 = _sym(rng, 2)
    b12 = rng.standard_normal((2, 2))
    b = np.block([[b11, b12], [b12.T, b22]])
    b = b + 4.0 * np.eye(4)  # make PSD
    m = complex_covariance(GaussianState(b))
    # the shift 4 I_{2n} adds 4 I_n to each diagonal block, hence 8 I_n to D
    np.testing.assert_allclose(m.matrix, (b11 + b22 + 8.0 * np.eye(2)) - 1j * (b12 - b12.T),
                               atol=1e-12)
    assert m.hermiticity_defect() <= 1e-12


def test_complex_covariance_is_twice_b_for_j_invariant():
    rho = random_j_invariant_state(np.random.default_rng(2), 3)
    back = complex_to_real(complex_covariance(rho))
    np.testing.assert_allclose(back.matrix, 2.0 * rho.covariance, atol=1e-12)


def test_complex_covariance_equals_second_moment_integral():
    # Monte Carlo check of the defining integral E[z z^dagger] against the
    # block formula, on a generic J-invariant state.
    rho = random_j_invariant_state(np.random.default_rng(3), 2, alpha=2.0)
    pts = sample(rho, seed=42, count=200_000)
    z = pts[:, :2] + 1j * pts[:, 2:]
    empirical = (z[:, :, None] * z[:, None, :].conj()).mean(axis=0)
    np.testing.assert_allclose(empirical, complex_covariance(rho).matrix, atol=0.05)


def test_equal_mixture_complex_form():
    rho = GaussianState.isotropic(4, 0.8)
    np.testing.assert_allclose(
        complex_covariance(rho).matrix, (0.8 / 4) * np.eye(4), atol=1e-14
    )


def test_information_loss_outside_j_invariant_class():
    # concentrating all variance on q or all on p gives the same complex
    # covariance, so the complex side cannot distinguish the two
    m_q = complex_covariance(GaussianState(np.diag([1.0, 0.0])))
    m_p = complex_covariance(GaussianState(np.diag([0.0, 1.0])))
    np.testing.assert_allclose(m_q.matrix, m_p.matrix, atol=1e-14)


def test_from_complex_covariance_roundtrip():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = x @ x.conj().T
        rho = from_complex_covariance(ComplexOperator(m))
        assert is_j_invariant(rho)
        np.testing.assert_allclose(complex_covariance(rho).matrix, m, atol=1e-12)
        # dispersion equals the complex trace
        assert rho.alpha == pytest.approx(float(np.real(np.trace(m))), rel=1e-12)
    with pytest.raises(ValueError):
        from_complex_covariance(ComplexOperator(np.array([[1.0, 1.0j], [1.0j, 1.0]])))  # not hermitian


# ---------------------------------------------------------------------------
# Pure-state measures
# ---------------------------------------------------------------------------


def test_pure_state_measure_structure():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    alpha = 0.37
    rho = pure_state_measure(psi, alpha)
    assert dispersion(rho) == pytest.approx(alpha, abs=1e-12)
    assert is_j_invariant(rho)
    # complex covariance is alpha * |psi><psi|
    np.testing.assert_allclose(
        complex_covariance(rho).matrix, alpha * np.outer(psi, psi.conj()), atol=1e-12
    )
    # rank 2 with double eigenvalue alpha/2
    w = np.linalg.eigvalsh(rho.covariance)
    np.testing.assert_allclose(w[-2:], [alpha / 2, alpha / 2], atol=1e-12)
    assert np.all(np.abs(w[:-2]) <= 1e-12)


def test_pure_state_requires_normalisation():
    with pytest.raises(ValueError):
        pure_state_measure(np.array([1.0 + 0j, 1.0]), 0.1)
    with pytest.raises(ValueError):
        pure_state_measure(np.array([1.0 + 0j]), -0.1)
    with pytest.raises(ValueError, match="one-dimensional"):
        pure_state_measure(np.array([[1.0 + 0j]]), 0.1)


def test_pure_state_samples_live_in_the_plane():
    rng = np.random.default_rng(6)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = pure_state_measure(psi, 1.3)
    pts = sample(rho, seed=7, count=500)
    u, v = psi.real, psi.imag
    e1 = np.concatenate([u, v])
    e2 = np.concatenate([-v, u])
    basis = np.stack([e1, e2])  # orthonormal rows
    residual = pts - (pts @ basis.T) @ basis
    assert np.max(np.abs(residual)) <= 1e-12


# ---------------------------------------------------------------------------
# Quadratic averages
# ---------------------------------------------------------------------------


def test_quadratic_average_pure_state():
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = ComplexOperator((h + h.conj().T) / 2)
    alpha = 0.9
    rho = pure_state_measure(psi, alpha)
    expected = alpha * float(np.real(np.vdot(psi, m.matrix @ psi)))
    assert quadratic_average(rho, m) == pytest.approx(expected, rel=1e-12)


def test_quadratic_average_matches_real_trace_and_monte_carlo():
    # independent oracle: E[(A psi, psi)] = trace(A B) for any zero-mean
    # Gaussian; the implementation goes through the complex trace instead
    rng = np.random.default_rng(9)
    rho = random_j_invariant_state(rng, 2, alpha=1.5)
    d = _sym(rng, 2)
    s = rng.standard_normal((2, 2))
    s = (s - s.T) / 2  # antisymmetric makes [[d, s], [-s, d]] symmetric
    a = BlockOperator.from_pair(d, s)
    assert a.is_symmetric()
    exact = quadratic_average(rho, a)
    assert exact == pytest.approx(float(np.trace(a.matrix @ rho.covariance)), rel=1e-12)

    pts = sample(rho, seed=10, count=200_000)
    vals = np.einsum("ki,ij,kj->k", pts, a.matrix, pts)
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 4 * se

    # same value through the complex image
    assert quadratic_average(rho, real_to_complex(a)) == pytest.approx(exact, rel=1e-12)


def test_quadratic_average_of_a_large_orthogonal_pair_is_real():
    # A orthogonal to the complex covariance M has exact mean tr(M A) = 0;
    # at size 1e6 the round-off imaginary part is far above the mean's
    # size, but far below that of the operators, so the mean is accepted
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = random_j_invariant_state(rng, 4, alpha=1e6)
        m = complex_covariance(rho).matrix
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = 1e6 * (h + h.conj().T)
        a -= (np.vdot(m, a).real / np.vdot(m, m).real) * m
        scale = np.linalg.norm(m) * np.linalg.norm(a)
        assert abs(quadratic_average(rho, ComplexOperator(a))) <= 1e-10 * scale


def test_quadratic_average_rejects_bad_operators():
    rho = GaussianState.isotropic(1, 1.0)
    with pytest.raises(ValueError):
        quadratic_average(rho, BlockOperator(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError):
        quadratic_average(rho, ComplexOperator(np.array([[1j]])))
    with pytest.raises(TypeError):
        quadratic_average(rho, np.eye(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        quadratic_average(rho, BlockOperator(np.eye(4)))


# ---------------------------------------------------------------------------
# Pushforward
# ---------------------------------------------------------------------------


def test_pushforward_covariance_and_samples_agree():
    rng = np.random.default_rng(11)
    rho = random_state(rng, 4)
    u = BlockOperator(rng.standard_normal((4, 4)))
    pushed = pushforward(rho, u)
    np.testing.assert_allclose(
        pushed.covariance, u.matrix @ rho.covariance @ u.matrix.T, atol=1e-12
    )
    # empirical covariance of transformed samples reproduces it
    pts = sample(rho, seed=12, count=100_000) @ u.matrix.T
    emp = pts.T @ pts / len(pts)
    assert np.max(np.abs(emp - pushed.covariance)) <= 0.15


def test_pushforward_dimension_check():
    with pytest.raises(ValueError):
        pushforward(GaussianState.isotropic(1, 1.0), BlockOperator(np.eye(4)))


# ---------------------------------------------------------------------------
# Sampling determinism and moments
# ---------------------------------------------------------------------------


def _pure_and_full_rank_states(n):
    rng = np.random.default_rng(13)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return (
        pure_state_measure(psi / np.linalg.norm(psi), 0.7),
        random_j_invariant_state(rng, n, alpha=1.0),
    )


def _rank_four_state(n):
    # complex rank 2, so real rank 4: the support fills one Philox block
    x = np.random.default_rng(21).standard_normal((n, 2, 2)) @ np.array([1.0, 1j])
    return from_complex_covariance(ComplexOperator(x @ x.conj().T))


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 + 5, 2**128 - 1])
def test_counter_indexed_philox_words_match_numpy(seed):
    # 2**64 - 3 puts the block counter (block index + 1) across 2**64
    for first in [0, 5, 2**64 - 3]:
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(first)
        expected = bitgen.random_raw(4 * 6).reshape(6, 4)
        assert np.array_equal(gaussian._philox_blocks(seed, first, np.arange(6)), expected)
    # blocks in any order and shape, each indexed by its own counter
    offsets = np.array([[17, 3], [0, 2**40]])
    words = gaussian._philox_blocks(seed, 9, offsets)
    assert words.shape == (2, 2, 4)
    for index, offset in np.ndenumerate(offsets):
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(9 + int(offset))
        assert np.array_equal(words[index], bitgen.random_raw(4))


def test_sampling_split_batches_are_bit_identical():
    rho = random_j_invariant_state(np.random.default_rng(13), 3)
    whole = sample(rho, seed=99, count=50)
    split = np.vstack(
        [sample(rho, seed=99, count=20), sample(rho, seed=99, count=30, start=20)]
    )
    assert np.array_equal(whole, split)
    rows = np.vstack([sample(rho, seed=99, count=1, start=k) for k in range(50)])
    assert np.array_equal(whole, rows)
    # n = 128 at rank 2 and full rank, n = 64 at rank 4; rows 1000..9999
    # start off the 4096-row block grid and cover two block boundaries
    states = [*_pure_and_full_rank_states(128), _rank_four_state(64)]
    for rho, rank, by_counter in zip(states, (2, 256, 4), (True, False, True)):
        dim = 2 * rho.n
        assert np.linalg.matrix_rank(rho.covariance) == rank
        low = dim - rank
        blocks = dim // 4
        assert (blocks - low // 4 <= gaussian._COUNTER_SHARE * blocks) == by_counter
        whole = sample(rho, seed=99, count=9000, start=1000)
        # reference: every word of each row from numpy's generator, ndtri
        # on the support columns, and each ROW_BLOCK block of the global
        # row index shaped by one zero-padded matmul
        u = philox_uniforms(99, 1000, 9000, dim)[:, low:]
        padded = np.zeros((3 * gaussian.ROW_BLOCK, rank))
        padded[1000:10000] = gaussian.ndtri(np.clip(u, np.finfo(float).tiny, None))
        factor = rho._factor
        reference = np.vstack([blk @ factor for blk in np.split(padded, 3)])[1000:10000]
        assert np.array_equal(whole, reference)
        cuts = [1000, 1001, 4095, 4097, 8191, 8200, 10000]
        split = np.vstack(
            [sample(rho, seed=99, count=b - a, start=a) for a, b in zip(cuts, cuts[1:])]
        )
        assert np.array_equal(whole, split)
        # single rows, which numpy may send to gemv when shaped alone
        for k in [1000, 4095, 4096, 8191, 8192, 9999]:
            row = sample(rho, seed=99, count=1, start=k)[0]
            assert np.array_equal(row, whole[k - 1000])
        # seeds outside numpy's 128-bit Philox key raise on either path
        for seed in [-1, 2**128]:
            with pytest.raises(ValueError):
                sample(rho, seed=seed, count=3)


@pytest.mark.parametrize("kind", ["generator n=1", "counter pure n=128", "full rank n=128"])
def test_sampling_splits_across_block_boundaries_are_bit_identical(kind):
    # the request starts one row before a block boundary and ends a few
    # rows into the fifth block, so it is drawn as a partial block, three
    # whole ones and a partial one
    pure, full = _pure_and_full_rank_states(128)
    rho = {
        "generator n=1": GaussianState.isotropic(1, 1.0),
        "counter pure n=128": pure,
        "full rank n=128": full,
    }[kind]
    block = gaussian.ROW_BLOCK
    start, count = block - 1, 3 * block + 5
    whole = sample(rho, seed=7, count=count, start=start)
    assert np.array_equal(whole, sample(rho, seed=7, count=start + count + 2)[start:-2])
    cuts = [start, block, block + 1, 3 * block - 1, 4 * block, start + count]
    split = np.vstack(
        [sample(rho, seed=7, count=b - a, start=a) for a, b in zip(cuts, cuts[1:])]
    )
    assert np.array_equal(whole, split)


def test_sampling_holds_the_output_and_few_blocks():
    # full rank at n = 32: every word of a row is drawn and shaped, so the
    # draw of all rows at once would hold uniforms, normals and output
    rho = random_j_invariant_state(np.random.default_rng(23), 32)
    count = 5 * gaussian.ROW_BLOCK + 3
    row_bytes = 2 * rho.n * 8
    sample(rho, seed=1, count=2)  # loads scipy.special outside the trace
    tracemalloc.start()
    try:
        pts = sample(rho, seed=1, count=count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pts.nbytes == count * row_bytes
    assert peak <= pts.nbytes + 3 * gaussian.ROW_BLOCK * row_bytes


def test_pure_state_sampling_shapes_only_its_support(monkeypatch):
    shapes = []
    original = gaussian.ndtri

    def recorded(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(gaussian, "ndtri", recorded)
    rho = _pure_and_full_rank_states(16)[0]
    pts = sample(rho, seed=4, count=5000, start=3000)
    assert shapes and all(shape[1:] == (2,) for shape in shapes)
    assert sum(shape[0] for shape in shapes) == 5000  # no ndtri on padding rows
    # the samples still live on the plane of the state
    w, v = np.linalg.eigh(rho.covariance)
    assert np.max(np.abs(pts @ v[:, :-2])) < 1e-12


def test_state_is_decomposed_once(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rho = random_state(np.random.default_rng(17), 6)
    first = sample(rho, seed=3, count=40)
    second = sample(rho, seed=3, count=40, start=40)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    monkeypatch.undo()
    # the stored factor comes from the validating decomposition
    w, v = np.linalg.eigh(rho.covariance)
    assert rho._factor.shape == (6, 6)
    assert np.array_equal(rho._factor, (v * np.sqrt(w)).T)
    assert np.array_equal(np.vstack([first, second]), sample(rho, seed=3, count=80))


def _quadratic_and_quartic(rng, n):
    d = rng.standard_normal((n, n))
    s = rng.standard_normal((n, n))
    a = BlockOperator.from_pair((d + d.T) / 2, (s - s.T) / 2)
    return ClassicalVariable.quadratic(a), ClassicalVariable.polynomial(a, [0.5, 0.25])


def test_known_factors_take_no_eigh(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(31)
    psi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    rho = pure_state_measure(psi / np.linalg.norm(psi), 0.3)
    pts = sample(rho, seed=2, count=50)
    f = _quadratic_and_quartic(rng, 128)[1]
    classical_average(f, rho, seed=2, count=50)
    iso = GaussianState.isotropic(128, 0.3)
    sample(iso, seed=2, count=50)
    classical_average(f, iso, seed=2, count=50)
    assert calls == []
    assert pts.shape == (50, 256) and rho._factor.shape == (2, 256)
    assert iso._factor.shape == (256, 256)


@pytest.mark.parametrize("n", [1, 8, 128])
@pytest.mark.parametrize("alpha", [0.0, 0.7])
def test_isotropic_factor_matches_its_eigh(n, alpha):
    # rows draw every Philox block from numpy's generator, except at
    # alpha = 0 from n = 2 on, where rank 0 takes the counter path
    iso = GaussianState.isotropic(n, alpha)
    ref = GaussianState(np.eye(2 * n) * (alpha / (2 * n)))
    assert np.array_equal(iso.covariance, ref.covariance)
    assert np.array_equal(iso._factor, ref._factor)
    # a partial block, a block boundary and a whole block
    for start, count in [(0, 5), (4090, 12), (0, gaussian.ROW_BLOCK)]:
        assert np.array_equal(sample(iso, 5, count, start), sample(ref, 5, count, start))
    quadratic, quartic = _quadratic_and_quartic(np.random.default_rng(n), n)
    black_box = ClassicalVariable.from_callbacks(quartic.values, n=n)
    for f in (quadratic, quartic, black_box):
        assert classical_average(f, iso, 6, 5000) == classical_average(f, ref, 6, 5000)


def test_pure_factor_gram_is_the_covariance():
    rng = np.random.default_rng(32)
    for n, alpha in [(1, 1.0), (5, 0.01), (128, 3.0)]:
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rho = pure_state_measure(psi / np.linalg.norm(psi), alpha)
        f = rho._factor
        assert f.shape == (2, 2 * n) and not f.flags.writeable
        assert np.max(np.abs(f.T @ f - rho.covariance)) <= 1e-15 * alpha


def test_sampling_seeds_and_starts_differ():
    rho = GaussianState.isotropic(2, 1.0)
    a = sample(rho, seed=1, count=10)
    assert not np.array_equal(a, sample(rho, seed=2, count=10))
    assert not np.array_equal(a, sample(rho, seed=1, count=10, start=10))


def test_sampling_moments():
    rng = np.random.default_rng(14)
    rho = random_state(rng, 4)
    pts = sample(rho, seed=15, count=200_000)
    n = len(pts)
    sd = np.sqrt(np.diag(rho.covariance))
    # mean within 4 standard errors, entrywise
    assert np.all(np.abs(pts.mean(axis=0)) <= 4 * sd / np.sqrt(n) + 1e-12)
    emp = pts.T @ pts / n
    scale = np.sqrt(np.outer(np.diag(rho.covariance), np.diag(rho.covariance)))
    assert np.max(np.abs(emp - rho.covariance) / (scale + 1e-12)) <= 0.05


def test_sampling_argument_validation():
    rho = GaussianState.isotropic(1, 1.0)
    with pytest.raises(ValueError):
        sample(rho, seed=0, count=-1)
    with pytest.raises(ValueError):
        sample(rho, seed=0, count=1, start=-2)
    assert sample(rho, seed=0, count=0).shape == (0, 2)


@pytest.mark.parametrize(
    "args, name",
    [((1, 2.7), "count"), ((1, 3, 1.5), "start"), ((1.9, 3), "seed"), ((1, np.float64(3.0)), "count")],
)
def test_sampling_rejects_non_integral_stream_arguments(args, name):
    # a float was truncated (count 2.7 gave 2 rows, seed 1.9 seed 1's rows)
    rho = GaussianState.isotropic(1, 1.0)
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        sample(rho, *args)
    # numpy integers are integers
    assert np.array_equal(sample(rho, np.uint64(1), np.int32(3), np.int64(1)), sample(rho, 1, 3, 1))


# ---------------------------------------------------------------------------
# Density operators
# ---------------------------------------------------------------------------


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(np.array([[1.0, 0.0], [0.0, bad]]))
    with pytest.raises(ValueError, match="square"):
        DensityOperator(np.full((1, 2), 0.5))
    with pytest.raises(ValueError, match="square"):
        DensityOperator(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="at least 1"):
        DensityOperator(np.zeros((0, 0)))
    d = DensityOperator(np.eye(4) / 4)
    assert d.purity() == pytest.approx(0.25)
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    p = DensityOperator(np.outer(psi, psi.conj()))
    assert p.purity() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.ones((2, 2)))  # an unnormalised pure state


def _sym(rng, n):
    x = rng.standard_normal((n, n))
    return (x + x.T) / 2
