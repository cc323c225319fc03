"""Tests for the phase-space algebra: J, the symplectic form, the
hermitian product and the real/complex operator dictionary.

Oracle note: expected values for the pairing tests are computed through
plain complex arithmetic on z = q + ip, which is an independent route
from the real block formulas under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pcsft.gaussian import GaussianState
from pcsft.symplectic import (
    BlockOperator,
    ComplexOperator,
    PhaseVector,
    _j_flat,
    complex_to_real,
    hermitian_product,
    is_j_commuting,
    j_commutation_defect,
    j_matrix,
    poisson_bracket,
    real_to_complex,
    symplectic_form,
)
from pcsft.variables import QuadraticTerm

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def vec_strategy(n):
    return arrays(np.float64, (n,), elements=finite_floats)


def random_j_commuting(rng, n):
    d = rng.standard_normal((n, n))
    s = rng.standard_normal((n, n))
    return BlockOperator.from_pair(d, s)


class QuadraticForm:
    """f(psi) = 0.5 * (A psi, psi) with analytic gradient A psi (A symmetric).

    Local oracle helper; deliberately independent of the variables module.
    """

    def __init__(self, a: BlockOperator):
        self.a = a

    def value(self, psi: PhaseVector) -> float:
        y = psi.flat()
        return 0.5 * float(y @ self.a.matrix @ y)

    def gradient(self, psi: PhaseVector) -> PhaseVector:
        return PhaseVector.from_flat(self.a.matrix @ psi.flat())


# ---------------------------------------------------------------------------
# PhaseVector basics
# ---------------------------------------------------------------------------


def test_phase_vector_layout_roundtrip():
    psi = PhaseVector([1.0, 2.0], [3.0, 4.0])
    np.testing.assert_array_equal(psi.flat(), [1.0, 2.0, 3.0, 4.0])
    back = PhaseVector.from_flat(psi.flat())
    np.testing.assert_array_equal(back.q, psi.q)
    np.testing.assert_array_equal(back.p, psi.p)


def test_phase_vector_rejects_bad_shapes():
    with pytest.raises(ValueError):
        PhaseVector([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        PhaseVector([], [])
    with pytest.raises(ValueError):
        PhaseVector([np.nan], [0.0])
    with pytest.raises(ValueError):
        PhaseVector.from_flat([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        PhaseVector([[1.0], [2.0]], [[3.0], [4.0]])


def test_phase_vector_is_immutable():
    psi = PhaseVector([1.0], [2.0])
    with pytest.raises(ValueError):
        psi.q[0] = 5.0



def _array_holders():
    from pcsft.dynamics import Trajectory
    from pcsft.fieldlab import FieldGrid, FieldState
    from pcsft.gaussian import DensityOperator

    z = np.zeros(2)
    return [
        PhaseVector([1.0], [2.0]),
        BlockOperator(np.eye(2)),
        ComplexOperator(np.eye(2)),
        GaussianState.isotropic(1, 1.0),
        DensityOperator(np.eye(2) / 2),
        FieldState(FieldGrid(2, 1.0), np.ones(2)),
        Trajectory(z, np.zeros((2, 2)), z, z, 0.1),
    ]


def test_array_holders_compare_and_hash_by_identity():
    # field-wise == on arrays is ambiguous; these objects compare by identity
    for obj, twin in zip(_array_holders(), _array_holders()):
        assert obj == obj and obj != twin
        assert hash(obj) == hash(obj)
        assert len({obj, twin}) == 2

# ---------------------------------------------------------------------------
# J itself
# ---------------------------------------------------------------------------


def test_j_flat_example():
    # n = 1: J(1, 0) = (0, -1), i.e. multiplication of 1 by -i.
    np.testing.assert_array_equal(_j_flat(np.array([1.0, 0.0])), [0.0, -1.0])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_j_squares_to_minus_identity(n):
    j = j_matrix(n)
    defect = np.max(np.abs(j @ j + np.eye(2 * n)))
    assert defect <= 1e-14


@pytest.mark.parametrize("n", [1, 3])
def test_j_flat_matches_matrix(n):
    rng = np.random.default_rng(7)
    for _ in range(10):
        flat = rng.standard_normal(2 * n)
        np.testing.assert_allclose(_j_flat(flat), j_matrix(n) @ flat, atol=1e-14)
    # the flat-batch helper acts on the last axis, also into a transposed view
    batch = rng.standard_normal((2, 4, 2 * n))
    np.testing.assert_array_equal(_j_flat(batch), batch @ j_matrix(n).T)
    square = rng.standard_normal((2 * n, 2 * n))
    out = np.empty_like(square)
    _j_flat(square.T, out=out.T)
    np.testing.assert_array_equal(out, j_matrix(n) @ square)


def test_j_matrix_is_j_commuting_and_antisymmetric():
    a = BlockOperator(j_matrix(3))
    assert is_j_commuting(a)
    assert j_commutation_defect(a) == 0.0
    assert np.max(np.abs(a.matrix + a.matrix.T)) == 0.0
    with pytest.raises(ValueError, match="at least 1"):
        j_matrix(0)


def test_diag_counterexample_not_j_commuting():
    # diag(1, 2) on n = 1 mixes the blocks: A11 = 1, A22 = 2.
    a = BlockOperator(np.diag([1.0, 2.0]))
    check = is_j_commuting(a)
    assert not check
    assert check.defect == pytest.approx(1.0)


def test_j_commutation_defect_matches_dense_commutator():
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        a = BlockOperator(rng.standard_normal((2 * n, 2 * n)))
        dense = np.max(np.abs(a.matrix @ j_matrix(n) - j_matrix(n) @ a.matrix))
        assert j_commutation_defect(a) == pytest.approx(dense, abs=1e-14)


# ---------------------------------------------------------------------------
# Symplectic form and hermitian product
# ---------------------------------------------------------------------------


def test_symplectic_form_frozen_example():
    # w(psi1, psi2) = p2.q1 - p1.q2 ; for psi1 = (1,0), psi2 = (0,1): w = 1.
    psi1 = PhaseVector([1.0], [0.0])
    psi2 = PhaseVector([0.0], [1.0])
    assert symplectic_form(psi1, psi2) == pytest.approx(1.0)
    assert hermitian_product(psi1, psi2) == pytest.approx(-1j)


@given(vec_strategy(3), vec_strategy(3), vec_strategy(3), vec_strategy(3))
@settings(max_examples=60, deadline=None)
def test_symplectic_form_antisymmetry(q1, p1, q2, p2):
    psi1 = PhaseVector(q1, p1)
    psi2 = PhaseVector(q2, p2)
    scale = 1.0 + abs(symplectic_form(psi1, psi2))
    assert abs(symplectic_form(psi1, psi2) + symplectic_form(psi2, psi1)) <= 1e-12 * scale
    assert symplectic_form(psi1, psi1) == 0.0


@given(vec_strategy(2), vec_strategy(2), vec_strategy(2), vec_strategy(2))
@settings(max_examples=60, deadline=None)
def test_hermitian_product_equals_complex_dot(q1, p1, q2, p2):
    psi1 = PhaseVector(q1, p1)
    psi2 = PhaseVector(q2, p2)
    oracle = np.sum((q1 + 1j * p1) * np.conj(q2 + 1j * p2))
    got = hermitian_product(psi1, psi2)
    np.testing.assert_allclose(got, oracle, atol=1e-10 * (1.0 + abs(oracle)))
    # conjugate symmetry and real diagonal
    np.testing.assert_allclose(
        hermitian_product(psi2, psi1), np.conj(got), atol=1e-10 * (1.0 + abs(got))
    )
    diag = hermitian_product(psi1, psi1)
    assert diag.imag == 0.0
    assert diag.real == pytest.approx(float(psi1.flat() @ psi1.flat()))


def test_symplectic_form_via_j():
    # w(psi1, psi2) = (psi1, J psi2) with the Euclidean dot product.
    rng = np.random.default_rng(3)
    for _ in range(20):
        psi1 = PhaseVector.from_flat(rng.standard_normal(6))
        psi2 = PhaseVector.from_flat(rng.standard_normal(6))
        oracle = float(psi1.flat() @ j_matrix(3) @ psi2.flat())
        assert symplectic_form(psi1, psi2) == pytest.approx(oracle, abs=1e-12)
    with pytest.raises(ValueError):
        symplectic_form(PhaseVector([1.0], [0.0]), PhaseVector([1.0, 0.0], [0.0, 0.0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        hermitian_product(PhaseVector([1.0], [0.0]), PhaseVector([1.0, 0.0], [0.0, 0.0]))


# ---------------------------------------------------------------------------
# Real/complex operator dictionary
# ---------------------------------------------------------------------------


def test_real_to_complex_frozen_example():
    # J itself has blocks D = 0, S = I, so its complex image is -i I.
    m = real_to_complex(BlockOperator(j_matrix(2)))
    np.testing.assert_allclose(m.matrix, -1j * np.eye(2), atol=1e-15)


def test_real_to_complex_rejects_non_j_commuting():
    with pytest.raises(ValueError):
        real_to_complex(BlockOperator(np.diag([1.0, 2.0])))


def test_complex_real_roundtrip():
    rng = np.random.default_rng(5)
    for n in (1, 2, 4):
        m = ComplexOperator(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        back = real_to_complex(complex_to_real(m))
        np.testing.assert_allclose(back.matrix, m.matrix, atol=1e-14)
        a = random_j_commuting(rng, n)
        again = complex_to_real(real_to_complex(a))
        np.testing.assert_allclose(again.matrix, a.matrix, atol=1e-14)


def test_complex_action_matches_block_action():
    # M z for z = q + ip equals the complex form of A (q, p)
    rng = np.random.default_rng(9)
    for _ in range(25):
        a = random_j_commuting(rng, 3)
        flat = rng.standard_normal(6)
        via_complex = real_to_complex(a).matrix @ (flat[:3] + 1j * flat[3:])
        moved = a.matrix @ flat
        np.testing.assert_allclose(via_complex, moved[:3] + 1j * moved[3:], atol=1e-12)


def test_algebra_isomorphism_products_and_sums():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = random_j_commuting(rng, 3)
        b = random_j_commuting(rng, 3)
        ma, mb = real_to_complex(a), real_to_complex(b)
        np.testing.assert_allclose(
            real_to_complex(a @ b).matrix, ma.matrix @ mb.matrix, atol=1e-10
        )
        np.testing.assert_allclose(
            real_to_complex(BlockOperator(a.matrix + b.matrix)).matrix,
            ma.matrix + mb.matrix,
            atol=1e-12,
        )


def test_symmetric_iff_hermitian_on_random_pairs():
    # Equivalence of real symmetry and complex hermiticity for J-commuting
    # operators, probed on 100 random pairs (operator, symmetrised operator).
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = random_j_commuting(rng, 2)
        sym = BlockOperator((a.matrix + a.matrix.T) / 2.0)
        # symmetrising preserves J-commutation, and the image is hermitian
        assert is_j_commuting(sym, 1e-10)
        m = real_to_complex(sym)
        assert m.hermiticity_defect() <= 1e-10
        # a generic non-symmetric one must map to a non-hermitian image
        if a.symmetry_defect() > 1e-6:
            assert real_to_complex(a).hermiticity_defect() > 1e-8
        # adjoints agree: transpose maps to conjugate transpose
        np.testing.assert_allclose(
            real_to_complex(a.T).matrix, real_to_complex(a).matrix.conj().T, atol=1e-12
        )


def test_block_operator_accessors():
    a = BlockOperator(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert a.n == 1
    assert a.a11[0, 0] == 1.0 and a.a12[0, 0] == 2.0
    assert a.a21[0, 0] == 3.0 and a.a22[0, 0] == 4.0
    np.testing.assert_array_equal(a.T.matrix, [[1.0, 3.0], [2.0, 4.0]])
    pair = BlockOperator.from_pair([[1.0]], [[2.0]])
    np.testing.assert_array_equal(pair.matrix, [[1.0, 2.0], [-2.0, 1.0]])
    with pytest.raises(ValueError):
        BlockOperator(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="equal shapes"):
        BlockOperator.from_pair([[1.0]], np.eye(2))
    with pytest.raises(ValueError, match="equal shapes"):
        BlockOperator.from_pair([1.0], [2.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        a @ BlockOperator(np.eye(4))


# ---------------------------------------------------------------------------
# Poisson bracket
# ---------------------------------------------------------------------------


def test_poisson_bracket_of_quadratic_forms():
    # For f_A = 0.5 (A psi, psi): {f_A, f_B}(psi) = w(A psi, B psi).
    rng = np.random.default_rng(21)
    for _ in range(30):
        a = BlockOperator(_random_symmetric(rng, 2))
        b = BlockOperator(_random_symmetric(rng, 2))
        psi = PhaseVector.from_flat(rng.standard_normal(4))
        got = poisson_bracket(QuadraticForm(a), QuadraticForm(b), psi)
        a_psi = PhaseVector.from_flat(a.matrix @ psi.flat())
        b_psi = PhaseVector.from_flat(b.matrix @ psi.flat())
        oracle = symplectic_form(a_psi, b_psi)
        assert got == pytest.approx(oracle, abs=1e-10 * (1.0 + abs(oracle)))


def test_poisson_bracket_canonical_pair():
    # f = q_0, g = p_0 have constant gradients e_q and e_p: {q_0, p_0} = 1.
    class Linear:
        def __init__(self, grad):
            self._g = grad

        def gradient(self, psi):
            return self._g

    n = 2
    e_q = PhaseVector([1.0, 0.0], [0.0, 0.0])
    e_p = PhaseVector([0.0, 0.0], [1.0, 0.0])
    psi = PhaseVector.from_flat(np.arange(4.0) + 1.0)
    assert poisson_bracket(Linear(e_q), Linear(e_p), psi) == pytest.approx(1.0)
    assert poisson_bracket(Linear(e_p), Linear(e_q), psi) == pytest.approx(-1.0)


def _random_symmetric(rng, n):
    x = rng.standard_normal((2 * n, 2 * n))
    return (x + x.T) / 2.0


# ---------------------------------------------------------------------------
# Tolerance policy: verdicts do not depend on units
# ---------------------------------------------------------------------------


def _builds(cls, *args) -> bool:
    try:
        cls(*args)
    except ValueError:
        return False
    return True


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    valid=st.booleans(),
    size=st.floats(2.0, 6.0),
    rel_defect=st.floats(2e-3, 0.5),
    log_c=st.floats(-6.0, 6.0),
)
@settings(max_examples=80, deadline=None)
def test_verdicts_are_invariant_under_scaling(seed, n, valid, size, rel_defect, log_c):
    # Two classes, neither near the boundary: operators valid up to
    # round-off, and operators with relative defect >= 1e-3 whose largest
    # entry lies in [1, 10]. Scaling by c in [1e-12, 1e12] keeps the verdict.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = q @ np.diag(rng.standard_normal(n)) @ q.conj().T  # hermitian to round-off
    m *= size / np.max(np.abs(m))
    r = complex_to_real(ComplexOperator(m)).matrix
    x = rng.standard_normal((2 * n, int(rng.integers(1, 2 * n + 1))))
    b = x @ x.T  # PSD to round-off, possibly rank-deficient
    b *= size / np.max(np.abs(b))
    bump = rel_defect * size
    r_asym, r_j = r.copy(), r.copy()
    if not valid:
        m[0, 1] += bump  # breaks hermiticity
        r_asym[0, 1] += bump  # breaks symmetry
        r_j[0, 0] += bump  # symmetric, but breaks J-commutation
        w = np.linalg.eigvalsh(b)
        b = b - (w[0] + rel_defect * w[-1]) * np.eye(2 * n)  # min eig -rel_defect * max
        b *= size / np.max(np.abs(b))

    def verdicts(c):
        return [
            bool(BlockOperator(c * r_asym).is_symmetric()),
            bool(ComplexOperator(c * m).is_hermitian()),
            bool(is_j_commuting(BlockOperator(c * r_j))),
            _builds(QuadraticTerm, 1.0, BlockOperator(c * r_asym), 1),
            _builds(QuadraticTerm, 1.0, BlockOperator(c * r_j), 1),
            _builds(GaussianState, c * b),
        ]

    for c in (1.0, 1e-12, 1e-6, 1e6, 1e12, 10.0**log_c):
        assert verdicts(c) == [valid] * 6, c
