"""Tests for the classical-to-quantum projection layer.

Closed-form oracle used throughout: for the isotropic dispersion-alpha
measure on n = 1 (per-axis variance alpha/2), the squared radius
r^2 = q^2 + p^2 has E[r^2] = alpha and E[r^4] = 2 alpha^2. Hence the
quartic benchmark f = (r^2 + r^4)/2 has amplified mean 1/2 + alpha,
while its projected operator is 1/2, so the correspondence error is
exactly alpha: slope one on a log-log plot.
"""

import tracemalloc

import numpy as np
import pytest

from pcsft import gaussian
from pcsft.bridge import (
    DEFAULT_ALPHA_GRID,
    alpha_scan,
    amplify,
    classical_average,
    project_state,
    project_variable,
    quantum_average,
    von_neumann_evolve,
)
from pcsft.dynamics import QuadraticHamiltonian, linear_flow, schrodinger_flow
from pcsft.fieldlab import FieldGrid, KernelOperator, gaussian_field_average
from pcsft.gaussian import (
    ROW_BLOCK,
    DensityOperator,
    GaussianState,
    from_complex_covariance,
    pure_state_measure,
    pushforward,
    quadratic_average,
    sample,
)
from pcsft.symplectic import BlockOperator, ComplexOperator, complex_to_real, real_to_complex
from pcsft.variables import ClassicalVariable, QuadraticTerm


def admissible_operator(rng, n):
    d = rng.standard_normal((n, n))
    d = (d + d.T) / 2
    s = rng.standard_normal((n, n))
    s = (s - s.T) / 2
    return BlockOperator.from_pair(d, s)


def quartic_benchmark():
    return ClassicalVariable.polynomial(BlockOperator(np.eye(2)), [0.5, 0.5])


# ---------------------------------------------------------------------------
# State projection
# ---------------------------------------------------------------------------


def test_project_isotropic_state():
    d = project_state(GaussianState.isotropic(3, 0.05), alpha=0.05)
    np.testing.assert_allclose(d.matrix, np.eye(3) / 3, atol=1e-14)


def test_project_pure_state_measure():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    d = project_state(pure_state_measure(psi, 0.01))
    np.testing.assert_allclose(d.matrix, np.outer(psi, psi.conj()), atol=1e-12)
    assert d.purity() == pytest.approx(1.0, abs=1e-12)


def test_project_state_validation():
    rho = GaussianState.isotropic(2, 0.1)
    with pytest.raises(ValueError):
        project_state(rho, alpha=0.2)
    with pytest.raises(ValueError):
        project_state(GaussianState(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# Variable projection
# ---------------------------------------------------------------------------


def test_project_quadratic_variable():
    rng = np.random.default_rng(1)
    a = admissible_operator(rng, 3)
    f = ClassicalVariable.quadratic(a)  # 0.5 (A psi, psi), Hessian = A
    np.testing.assert_allclose(
        project_variable(f).matrix, real_to_complex(a).matrix / 2, atol=1e-12
    )


def test_project_black_box_variable():
    # r^2 as a black box: Hessian 2I, operator image I
    f = ClassicalVariable.from_callbacks(
        lambda pts: np.sum(pts**2, axis=-1),
        lambda pts: 2.0 * pts,
        n=2,
    )
    np.testing.assert_allclose(project_variable(f).matrix, np.eye(2), atol=1e-8)


def test_project_rejects_non_invariant_black_box():
    f = ClassicalVariable.from_callbacks(lambda pts: pts[..., 0] ** 2, n=1)
    with pytest.raises(ValueError, match="j_invariant"):
        project_variable(f)


def test_exactness_for_quadratic_variables():
    # normalised classical mean equals the quantum average identically
    rng = np.random.default_rng(2)
    n, alpha = 3, 0.02
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    shape = from_complex_covariance(ComplexOperator(x @ x.conj().T))
    rho = GaussianState(shape.covariance * (alpha / shape.alpha))
    a = admissible_operator(rng, n)
    f = ClassicalVariable.quadratic(a)
    classical = 0.5 * quadratic_average(rho, a) / alpha
    quantum = quantum_average(project_state(rho, alpha=alpha), project_variable(f))
    assert classical == pytest.approx(quantum, rel=1e-12)


def test_amplify_scales_values():
    f = quartic_benchmark()
    g = amplify(f, 0.25)
    pts = np.random.default_rng(3).standard_normal((5, 2))
    np.testing.assert_allclose(g.values(pts), f.values(pts) / 0.25, rtol=1e-14)
    for alpha in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            amplify(f, alpha)


# ---------------------------------------------------------------------------
# Averages
# ---------------------------------------------------------------------------


def test_classical_average_matches_exact_quadratic():
    rng = np.random.default_rng(5)
    rho = from_complex_covariance(
        ComplexOperator(np.diag([0.4, 0.1]).astype(complex))
    )
    a = admissible_operator(rng, 2)
    f = ClassicalVariable.quadratic(a)
    exact = 0.5 * quadratic_average(rho, a)
    est = classical_average(f, rho, seed=6, count=100_000)
    assert abs(est.mean - exact) <= 4 * est.stderr
    assert est.count == 100_000


def test_classical_average_is_deterministic():
    rho = GaussianState.isotropic(1, 1.0)
    f = quartic_benchmark()
    a = classical_average(f, rho, seed=7, count=70_000)  # crosses chunk boundary
    b = classical_average(f, rho, seed=7, count=70_000)
    assert a == b
    c = classical_average(f, rho, seed=8, count=70_000)
    assert a.mean != c.mean
    with pytest.raises(ValueError):
        classical_average(f, rho, seed=7, count=1)


@pytest.mark.parametrize("count", [2, 4095, 4097, 70_000])  # around a 4096-row chunk
def test_classical_average_stderr_survives_large_mean(count):
    # mean 1e8, spread 1e-3: E[x^2] - E[x]^2 cancels to nothing here
    f = ClassicalVariable.from_callbacks(lambda pts: 1e8 + 1e-3 * pts[..., 0], n=1)
    rho = GaussianState.isotropic(1, 2.0)
    est = classical_average(f, rho, seed=9, count=count)
    vals = f.values(sample(rho, 9, count))
    expected = float(np.std(vals, ddof=1)) / np.sqrt(count)
    assert est.stderr == pytest.approx(expected, rel=1e-6)
    assert est.mean == pytest.approx(float(np.mean(vals)), rel=1e-15)


def _reference_estimate(vals):
    """Mean and stderr of vals merged in ROW_BLOCK chunks by the
    pairwise (count, mean, M2) update the reducer documents."""
    count = len(vals)
    done, mean, m2 = 0, 0.0, 0.0
    for first in range(0, count, ROW_BLOCK):
        cols = vals[first : first + ROW_BLOCK, None]
        m = len(cols)
        chunk_mean = cols.mean(axis=0)
        delta = chunk_mean - mean
        merged = done + m
        mean = mean + delta * (m / merged)
        m2 = m2 + ((cols - chunk_mean) ** 2).sum(axis=0) + delta**2 * (done * m / merged)
        done = merged
    return float(mean[0]), float(np.sqrt(m2 / (count - 1) / count)[0])


def _psd_operator(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return complex_to_real(ComplexOperator(x @ x.conj().T / n))


def _support_cases():
    """(state, two-operator polynomial of powers 1-3): a pure state at
    n = 128, a mixed state of real rank 6 at n = 6 and a full-rank one."""
    rng = np.random.default_rng(31)
    psi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    x = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    y = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    states = [
        pure_state_measure(psi / np.linalg.norm(psi), 0.5),
        from_complex_covariance(ComplexOperator(x @ x.conj().T / 6)),
        from_complex_covariance(ComplexOperator(y @ y.conj().T / 5)),
    ]
    cases = []
    for rho in states:
        a, b = _psd_operator(rng, rho.n), _psd_operator(rng, rho.n)
        terms = [QuadraticTerm(0.5, a, 1), QuadraticTerm(0.3, b, 2), QuadraticTerm(0.2, a, 3)]
        cases.append((rho, ClassicalVariable(terms=terms)))
    return cases


@pytest.mark.parametrize("case", range(3))
def test_support_coordinates_match_phase_space_reference(case):
    rho, f = _support_cases()[case]
    rank = np.linalg.matrix_rank(rho.covariance)
    assert rank == (2, 6, 10)[case] and (rank < 2 * rho.n) == (case < 2)
    count = 9000  # off the 4096-row chunk grid
    mean, stderr = _reference_estimate(f.values(sample(rho, 41, count)))
    est = classical_average(f, rho, seed=41, count=count)
    assert est.mean == pytest.approx(mean, rel=1e-13)
    assert est.stderr == pytest.approx(stderr, rel=1e-13)
    # a black box gets the sampled rows themselves
    box = ClassicalVariable.from_callbacks(f.values, n=f.n)
    assert classical_average(box, rho, seed=41, count=count) == (mean, stderr, count)


@pytest.mark.parametrize("n", [1, 2, 8])  # numpy's generator at n = 1, counter blocks at 2 and 8
def test_zero_dispersion_state_averages_to_zero(n):
    rho = GaussianState.isotropic(n, 0.0)
    assert rho._factor.shape == (0, 2 * n)  # rank 0: no row of normals is drawn
    for start, count in [(0, 1), (3, 5), (4090, 10), (0, ROW_BLOCK + 1)]:
        pts = sample(rho, seed=3, count=count, start=start)
        assert pts.shape == (count, 2 * n)
        assert not pts.any() and not np.signbit(pts).any()  # all +0.0
    f = ClassicalVariable.polynomial(BlockOperator(np.eye(2 * n)), [0.5, 0.5])
    box = ClassicalVariable.from_callbacks(f.values, n=n)
    for v in (f, box):
        assert classical_average(v, rho, seed=3, count=5000) == (0.0, 0.0, 5000)
    if n >= 2:  # a field grid has at least two points
        kernel = KernelOperator(FieldGrid(n, 1.0), np.eye(n))
        assert gaussian_field_average(kernel, rho, seed=3, count=5000) == (0.0, 0.0, 5000)


def test_structured_averages_draw_no_sample_rows(monkeypatch):
    from pcsft import bridge, gaussian

    rho, f = _support_cases()[0]
    expected = classical_average(f, rho, seed=5, count=5000)
    scan = alpha_scan(quartic_benchmark(), GaussianState.isotropic(1, 1.0), (0.1, 0.01), seed=3, count=5000)

    def refuse(*args, **kwargs):
        raise AssertionError("a structured average shaped sample rows")

    for module in (gaussian, bridge):
        for name in ("sample", "_shape"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert classical_average(f, rho, seed=5, count=5000) == expected
    rescan = alpha_scan(quartic_benchmark(), GaussianState.isotropic(1, 1.0), (0.1, 0.01), seed=3, count=5000)
    assert rescan == scan


def test_estimate_does_not_depend_on_its_companions():
    from pcsft import bridge

    f = quartic_benchmark()
    q = ClassicalVariable.quadratic(BlockOperator(np.eye(2)), 0.5)
    rho = GaussianState.isotropic(1, 0.3)
    together = bridge._reduce([f, q], rho, 9, 50_000)
    alone = [classical_average(v, rho, seed=9, count=50_000) for v in (f, q)]
    assert together == alone  # bit for bit, chunk sums in the same order


def test_equal_support_operators_are_formed_once_per_chunk(monkeypatch):
    from pcsft import bridge

    calls = []
    forms = bridge._quadratic_forms

    def counted(z, g, *work):
        calls.append(g)
        return forms(z, g, *work)

    monkeypatch.setattr(bridge, "_quadratic_forms", counted)
    # amplify(f) and amplify(quad) carry equal operators (A = I): one form per chunk
    alpha_scan(quartic_benchmark(), GaussianState.isotropic(1, 1.0), (0.1,), seed=4, count=2 * ROW_BLOCK + 5)
    assert len(calls) == 3
    calls.clear()
    rho = GaussianState.isotropic(1, 0.3)
    f = ClassicalVariable.quadratic(BlockOperator(np.eye(2)))
    g = ClassicalVariable.quadratic(BlockOperator(2.0 * np.eye(2)))
    bridge._reduce([f, g], rho, 9, ROW_BLOCK + 1)
    assert len(calls) == 4  # unequal operators: two forms per chunk, two chunks


def _rekeyed_reduce(variables, rho, seed, count):
    """``_reduce``'s estimates as the reducer computed them before it kept
    one generator per call: each ROW_BLOCK chunk's uniforms from a Philox
    keyed and advanced to the chunk afresh, every word of a row drawn."""
    dim, factor = 2 * rho.n, rho._factor
    low = dim - len(factor)
    words = 4 * ((dim + 3) // 4)
    done, mean, m2 = 0, 0.0, 0.0
    while done < count:
        m = min(ROW_BLOCK, count - done)
        bitgen = np.random.Philox(key=seed)
        bitgen.advance(done * words // 4)
        u = np.random.Generator(bitgen).random((m, words))[:, low:dim]
        z = gaussian.ndtri(np.clip(u, np.finfo(float).tiny, None))
        padded = np.zeros((ROW_BLOCK, len(factor)))
        padded[:m] = z
        rows = (padded @ factor)[:m]
        values = []
        for f in variables:
            if f.is_structured:
                forms = [np.einsum("ij,ij->i", z @ (factor @ a @ factor.T), z) for a in f._operators]
                values.append(f._from_forms(forms))
            else:
                values.append(f.values(rows))
        cols = np.stack(values)
        chunk_mean = cols.mean(axis=1)
        delta = chunk_mean - mean
        merged = done + m
        mean = mean + delta * (m / merged)
        m2 = m2 + ((cols - chunk_mean[:, None]) ** 2).sum(axis=1) + delta**2 * (done * m / merged)
        done = merged
    stderrs = np.sqrt(m2 / (count - 1) / count)
    return [(float(a), float(b), count) for a, b in zip(mean, stderrs)]


def _stream_cases():
    """(state, Philox path): full rank at n = 8, full rank at n = 1 (two
    of a row's four words used), a pure state at n = 128, rank 0 at
    n = 2, and two states whose structured reductions read pieces
    smaller than a chunk: full rank at n = 64 (r = 128) and the
    isotropic state at n = 128 (r = 256)."""
    rng = np.random.default_rng(43)
    psi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    return [
        (from_complex_covariance(ComplexOperator(y @ y.conj().T / 8)), "generator"),
        (GaussianState.isotropic(1, 0.7), "generator"),
        (pure_state_measure(psi / np.linalg.norm(psi), 0.5), "counter"),
        (GaussianState.isotropic(2, 0.0), "counter"),
        (from_complex_covariance(ComplexOperator(x @ x.conj().T / 64)), "generator"),
        (GaussianState.isotropic(128, 0.02), "generator"),
    ]


@pytest.mark.parametrize("case", range(6))
def test_reduce_matches_a_stream_rekeyed_at_every_chunk(monkeypatch, case):
    from pcsft import bridge

    rho, path = _stream_cases()[case]
    assert len(rho._factor) == (16, 2, 2, 0, 128, 256)[case]
    piece = gaussian._NormalStream(rho, 77, ROW_BLOCK, shaped=False).piece
    assert piece == (ROW_BLOCK, ROW_BLOCK, ROW_BLOCK, ROW_BLOCK, 512, 256)[case]
    f = ClassicalVariable.polynomial(_psd_operator(np.random.default_rng(case), rho.n), [0.5, 0.25])
    box = ClassicalVariable.from_callbacks(f.values, n=f.n)
    count = 2 * ROW_BLOCK + 17  # two whole chunks and a partial one
    expected = _rekeyed_reduce([f, box], rho, 77, count)
    keyed = []
    original = np.random.Philox

    def counted(*args, **kwargs):
        keyed.append(kwargs.get("key", args[0] if args else None))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    # a black box reads whole chunks; structured variables alone read pieces
    assert [tuple(e) for e in bridge._reduce([f, box], rho, 77, count)] == expected
    assert [tuple(e) for e in bridge._reduce([f], rho, 77, count)] == expected[:1]
    assert keyed == ([77, 77] if path == "generator" else [])


def test_classical_average_holds_the_stream_buffers_and_columns():
    # full rank at n = 32: a chunk of uniforms is 2n words a row, drawn
    # straight into the normals buffer, and G z goes to one reused block
    rng = np.random.default_rng(24)
    y = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    rho = from_complex_covariance(ComplexOperator(y @ y.conj().T / 32))
    f = ClassicalVariable.polynomial(_psd_operator(rng, 32), [0.5, 0.5])
    count = 5 * ROW_BLOCK + 3
    block_bytes = ROW_BLOCK * 2 * rho.n * 8
    classical_average(f, rho, seed=1, count=2)  # loads scipy.special outside the trace
    tracemalloc.start()
    try:
        classical_average(f, rho, seed=1, count=count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the normals buffer and the work block, plus a few chunk-long columns
    # (forms, terms, values and their spreads), never a third block
    assert peak <= 2 * block_bytes + 16 * ROW_BLOCK * 8


def test_classical_average_at_full_rank_holds_cache_sized_pieces():
    # full rank at n = 128: a 4096-row buffer would be 8 MiB, a 256-row
    # piece of normals or of G z is 512 KiB, as large as G itself
    rng = np.random.default_rng(25)
    y = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
    rho = from_complex_covariance(ComplexOperator(y @ y.conj().T / 128))
    f = ClassicalVariable.polynomial(_psd_operator(rng, 128), [0.5, 0.5])
    count = 2 * ROW_BLOCK + 17
    piece_bytes = 512 * 1024
    classical_average(f, rho, seed=1, count=2)  # loads scipy.special outside the trace
    tracemalloc.start()
    try:
        classical_average(f, rho, seed=1, count=count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the normals piece, the work piece and G, plus a few chunk-long columns
    assert peak <= 3 * piece_bytes + 16 * ROW_BLOCK * 8


def test_reduce_rejects_a_variable_of_another_dimension_before_drawing(monkeypatch):
    from pcsft import bridge

    def refuse(*args, **kwargs):
        raise AssertionError("the stream was drawn before the dimensions were checked")

    monkeypatch.setattr(bridge, "_NormalStream", refuse)
    rho = GaussianState.isotropic(3, 1.0)
    f = ClassicalVariable.quadratic(BlockOperator(np.eye(4)))
    box = ClassicalVariable.from_callbacks(f.values, n=2)
    for v in (f, box):
        with pytest.raises(ValueError, match=r"n = 2.*n = 3"):
            classical_average(v, rho, seed=1, count=100)
    with pytest.raises(ValueError, match=r"n = 2.*n = 3"):
        bridge._reduce([ClassicalVariable.quadratic(BlockOperator(np.eye(6))), f], rho, 1, 100)


def test_quantum_average_basics():
    a = ComplexOperator(np.diag([1.0, 3.0]).astype(complex))
    mixed = DensityOperator(np.eye(2) / 2)
    assert quantum_average(mixed, a) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        quantum_average(mixed, ComplexOperator(np.array([[1j, 0], [0, 0]])))
    with pytest.raises(ValueError):
        quantum_average(DensityOperator(np.eye(3) / 3), a)


# ---------------------------------------------------------------------------
# Unitary evolution of density operators
# ---------------------------------------------------------------------------


def test_von_neumann_ode_and_purity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = DensityOperator((x @ x.conj().T) / np.real(np.trace(x @ x.conj().T)))
    hm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = ComplexOperator((hm + hm.conj().T) / 2)
    eps = 1e-6
    diff = (von_neumann_evolve(d, m, eps).matrix - von_neumann_evolve(d, m, -eps).matrix) / (
        2 * eps
    )
    commutator = 1j * (d.matrix @ m.matrix - m.matrix @ d.matrix)
    np.testing.assert_allclose(diff, commutator, atol=1e-6)
    evolved = von_neumann_evolve(d, m, 1.3)
    assert evolved.purity() == pytest.approx(d.purity(), abs=1e-10)
    with pytest.raises(ValueError, match="dimension mismatch"):
        von_neumann_evolve(d, ComplexOperator(np.eye(2)), 1.3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            von_neumann_evolve(d, m, bad)


def test_von_neumann_evolve_runs_no_eigvalsh(monkeypatch):
    # a unitary conjugate keeps the spectrum the input was validated with,
    # so evolving runs the flow's eigh and no eigvalsh, and still yields
    # the matrix the validating constructor would
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    d = DensityOperator((x @ x.conj().T) / np.real(np.trace(x @ x.conj().T)))
    hm = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = ComplexOperator((hm + hm.conj().T) / 2)
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    evolved = von_neumann_evolve(d, m, 0.7)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    monkeypatch.undo()
    u = schrodinger_flow(m, 0.7).matrix
    np.testing.assert_array_equal(evolved.matrix, DensityOperator(u @ d.matrix @ u.conj().T).matrix)
    assert isinstance(evolved, DensityOperator) and not evolved.matrix.flags.writeable


def test_projection_commutes_with_evolution():
    # push the measure through exp(JHt), or evolve the density operator:
    # same quantum state
    rng = np.random.default_rng(9)
    n, alpha, t = 2, 0.05, 0.9
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    shape = from_complex_covariance(ComplexOperator(x @ x.conj().T))
    rho = GaussianState(shape.covariance * (alpha / shape.alpha))
    h = QuadraticHamiltonian(admissible_operator(rng, n))
    m = real_to_complex(h.operator)

    via_classical = project_state(pushforward(rho, linear_flow(h, t)), alpha=alpha)
    via_quantum = von_neumann_evolve(project_state(rho, alpha=alpha), m, t)
    assert np.max(np.abs(via_classical.matrix - via_quantum.matrix)) <= 1e-9


# ---------------------------------------------------------------------------
# Alpha scan
# ---------------------------------------------------------------------------


def test_alpha_scan_quartic_benchmark():
    report = alpha_scan(
        quartic_benchmark(),
        GaussianState.isotropic(1, 1.0),
        alphas=DEFAULT_ALPHA_GRID,
        seed=11,
        count=20_000,
    )
    assert report.quantum_value == pytest.approx(0.5, abs=1e-12)
    for alpha, mean, se, err, err_se in zip(
        report.alphas,
        report.classical_means,
        report.classical_stderrs,
        report.errors,
        report.error_stderrs,
    ):
        assert abs(mean - (0.5 + alpha)) <= 4 * se
        assert abs(err - alpha) <= 4 * err_se
    assert report.fit_points == len(report.alphas)
    assert 0.9 <= report.slope <= 1.1


def test_alpha_scan_quadratic_variable_has_no_error_signal():
    f = ClassicalVariable.quadratic(BlockOperator(np.eye(2)))
    report = alpha_scan(
        f, GaussianState.isotropic(1, 1.0), alphas=(1e-1, 1e-2), seed=12, count=5_000
    )
    assert report.errors == (0.0, 0.0)
    assert report.fit_points == 0
    assert np.isnan(report.slope)


def test_alpha_scan_determinism_and_serialisation(tmp_path):
    f = quartic_benchmark()
    shape = GaussianState.isotropic(1, 1.0)
    r1 = alpha_scan(f, shape, alphas=(0.1, 0.01), seed=13, count=5_000)
    r2 = alpha_scan(f, shape, alphas=(0.1, 0.01), seed=13, count=5_000)
    assert r1 == r2
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.to_csv(p1)
    r2.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == (
        "alpha,classical_mean,classical_stderr,error,error_stderr"
    )


def test_monte_carlo_calls_reject_non_integral_stream_arguments():
    f = quartic_benchmark()
    rho = GaussianState.isotropic(1, 1.0)
    for seed, count in [(7, 100.0), (7.0, 100), (7, 2.5)]:
        name = "count" if isinstance(count, float) else "seed"
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            classical_average(f, rho, seed=seed, count=count)
    with pytest.raises(TypeError, match="count must be an integer"):
        alpha_scan(f, rho, alphas=(0.1,), seed=0, count=100.0)
    with pytest.raises(TypeError):
        alpha_scan(f, rho, alphas=(0.1,), seed=0.0, count=100)
    assert classical_average(f, rho, seed=np.uint64(7), count=np.int64(100)) == classical_average(
        f, rho, seed=7, count=100
    )


def test_alpha_scan_validation():
    f = quartic_benchmark()
    shape = GaussianState.isotropic(1, 1.0)
    with pytest.raises(ValueError):
        alpha_scan(f, shape, alphas=(), seed=0, count=100)
    for bad in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alphas must be"):
            alpha_scan(f, shape, alphas=(0.1, bad), seed=0, count=100)
    with pytest.raises(ValueError):
        alpha_scan(f, GaussianState(np.zeros((2, 2))), seed=0, count=100)
