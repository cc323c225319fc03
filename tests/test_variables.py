"""Tests for classical variables: structured polynomial-of-quadratic-form
evaluation, gradients, Hessians, and black-box screening."""

import numpy as np
import pytest

from pcsft.dynamics import NonquadraticHamiltonian
from pcsft.symplectic import BlockOperator, PhaseVector, j_matrix
from pcsft.variables import ClassicalVariable, QuadraticTerm, _quadratic_forms, screen_variable


def identity_op(n):
    return BlockOperator(np.eye(2 * n))


def random_admissible_operator(rng, n):
    d = rng.standard_normal((n, n))
    d = (d + d.T) / 2
    s = rng.standard_normal((n, n))
    s = (s - s.T) / 2
    return BlockOperator.from_pair(d, s)


def interleaved_variable(rng, n):
    """A, B, A terms, with power 2 on A twice: operators shared out of order."""
    a = random_admissible_operator(rng, n)
    b = random_admissible_operator(rng, n)
    return (
        ClassicalVariable.polynomial(a, [0.5, -0.3, 0.02])
        + ClassicalVariable.quadratic(b)
        + ClassicalVariable.polynomial(a, [0.0, 0.1])
    )


def test_quadratic_value_and_gradient():
    a = identity_op(1)
    f = ClassicalVariable.quadratic(a)  # 0.5 * |psi|^2
    psi = PhaseVector([3.0], [4.0])
    assert float(f.values(psi.flat())) == pytest.approx(12.5)
    g = f.gradient(psi)
    np.testing.assert_allclose(g.flat(), psi.flat())


def test_polynomial_frozen_point():
    # f = 0.5 r^2 + 0.5 r^4 at (q, p) = (1, 1): r^2 = 2, f = 3,
    # grad = psi (1 + 2 r^2) = 5 psi
    f = ClassicalVariable.polynomial(identity_op(1), [0.5, 0.5])
    psi = PhaseVector([1.0], [1.0])
    assert float(f.values(psi.flat())) == pytest.approx(3.0)
    np.testing.assert_allclose(f.gradient(psi).flat(), [5.0, 5.0])


def test_batch_values_match_single_evaluation():
    rng = np.random.default_rng(0)
    a = random_admissible_operator(rng, 2)
    f = ClassicalVariable.polynomial(a, [1.0, 0.0, -0.25])
    pts = rng.standard_normal((40, 4))
    vals = f.values(pts)
    grads = f.gradients(pts)
    for k in range(0, 40, 7):
        psi = PhaseVector.from_flat(pts[k])
        assert vals[k] == pytest.approx(float(f.values(psi.flat())), rel=1e-12)
        np.testing.assert_allclose(grads[k], f.gradient(psi).flat(), rtol=1e-12)
    # blocked forms against a direct per-row reference, across row blocks
    big = rng.standard_normal((2, 2500, 4))
    form = np.einsum("...i,ij,...j->...", big, a.matrix, big)
    np.testing.assert_allclose(f.values(big), form - 0.25 * form**3, rtol=1e-12, atol=1e-12)


def test_gradients_with_shared_operators_match_per_term_reference():
    rng = np.random.default_rng(2)
    f = interleaved_variable(rng, 3)
    pts = rng.standard_normal((3, 1500, 6))
    # reference: every term computes its own A psi and form
    ref = np.zeros_like(pts)
    for t in f.terms:
        a_pts = pts @ t.operator.matrix
        if t.power == 1:
            ref += (2.0 * t.coefficient) * a_pts
        else:
            form = np.einsum("...i,...i->...", pts, a_pts)
            ref += (2.0 * t.coefficient * t.power) * form[..., None] ** (t.power - 1) * a_pts
    assert np.array_equal(f.gradients(pts), ref)
    # values and the Hessian at the origin add their terms in term order too
    ref = np.zeros(pts.shape[:-1])
    for t in f.terms:
        ref += t.coefficient * _quadratic_forms(pts, t.operator.matrix) ** t.power
    assert np.array_equal(f.values(pts), ref)
    ref = np.zeros((6, 6))
    for t in f.terms:
        if t.power == 1:
            ref += 2.0 * t.coefficient * t.operator.matrix
    assert np.array_equal(f.hessian_at_zero().matrix, ref)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    a = random_admissible_operator(rng, 2)
    f = ClassicalVariable.polynomial(a, [0.7, -0.3, 0.1])
    y = rng.standard_normal(4)
    g = f.gradients(y[None, :])[0]
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (f.values((y + e)[None, :])[0] - f.values((y - e)[None, :])[0]) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_hessian_at_zero_structured():
    rng = np.random.default_rng(2)
    a = random_admissible_operator(rng, 2)
    # higher powers contribute nothing at the origin
    f = ClassicalVariable.polynomial(a, [0.5, 2.0, -1.0])
    np.testing.assert_allclose(f.hessian_at_zero().matrix, a.matrix, atol=1e-14)


def test_black_box_hessian_matches_structured():
    rng = np.random.default_rng(3)
    a = random_admissible_operator(rng, 2)
    f = ClassicalVariable.polynomial(a, [0.5, 0.25])

    # same function as callbacks, with and without gradient
    bb_with_grad = ClassicalVariable.from_callbacks(f.values, f.gradients, n=2)
    np.testing.assert_allclose(
        bb_with_grad.hessian_at_zero().matrix, a.matrix, atol=1e-8
    )
    bb_values_only = ClassicalVariable.from_callbacks(f.values, n=2)
    np.testing.assert_allclose(
        bb_values_only.hessian_at_zero().matrix, a.matrix, atol=1e-6
    )


def test_black_box_gradient_requires_callback():
    f = ClassicalVariable.from_callbacks(lambda pts: np.sum(pts**2, axis=-1), n=1)
    assert not f.has_gradient
    with pytest.raises(ValueError):
        f.gradients(np.zeros((1, 2)))


def test_structured_variables_are_even_and_j_invariant():
    rng = np.random.default_rng(4)
    a = random_admissible_operator(rng, 3)
    f = ClassicalVariable.polynomial(a, [1.0, 0.5])
    j = j_matrix(3)
    for _ in range(50):
        y = rng.standard_normal(6)
        v = f.values(y[None, :])[0]
        assert f.values(-y[None, :])[0] == pytest.approx(v, rel=1e-12)
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.cos(theta) * np.eye(6) + np.sin(theta) * j
        scale = 1.0 + abs(v)
        assert f.values((rot @ y)[None, :])[0] == pytest.approx(v, abs=1e-9 * scale)


def test_screening_verdicts():
    rng = np.random.default_rng(5)
    a = random_admissible_operator(rng, 1)
    good = ClassicalVariable.polynomial(a, [0.5, 0.1])
    res = screen_variable(good, seed=6)
    assert res["vanishes_at_origin"] and res["even"] and res["j_invariant"]

    odd = ClassicalVariable.from_callbacks(lambda pts: pts[..., 0], n=1)
    assert not screen_variable(odd, seed=6)["even"]

    q_only = ClassicalVariable.from_callbacks(lambda pts: pts[..., 0] ** 2, n=1)
    res = screen_variable(q_only, seed=6)
    assert res["even"]
    assert not res["j_invariant"]

    shifted = ClassicalVariable.from_callbacks(
        lambda pts: 1.0 + np.sum(pts**2, axis=-1), n=1
    )
    assert not screen_variable(shifted, seed=6)["vanishes_at_origin"]


def test_screen_rotation_matches_dense_exp_tj():
    # the screen turns probe k by exp(theta_k J) = cos I + sin J, drawing
    # the probes and then the angles; dense per-probe matrices are the reference
    f = ClassicalVariable.from_callbacks(lambda pts: pts[..., 0] ** 2 + pts[..., 1] * pts[..., 2], n=2)
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((64, 4))
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=64)
    rotated = np.stack([(np.cos(t) * np.eye(4) + np.sin(t) * j_matrix(2)) @ p for t, p in zip(thetas, pts)])
    defect = np.max(np.abs(f.values(rotated) - f.values(pts)))
    assert screen_variable(f, seed=6)["j_invariant"].defect == pytest.approx(defect, rel=1e-12)


def test_algebra_scaling_and_sum():
    rng = np.random.default_rng(7)
    a = random_admissible_operator(rng, 2)
    b = random_admissible_operator(rng, 2)
    f = ClassicalVariable.quadratic(a)
    g = ClassicalVariable.polynomial(b, [0.0, 1.0])
    both = f + g.scaled(2.0)
    pts = rng.standard_normal((10, 4))
    np.testing.assert_allclose(both.values(pts), f.values(pts) + 2.0 * g.values(pts),
                               rtol=1e-12)
    np.testing.assert_allclose(
        both.gradients(pts), f.gradients(pts) + 2.0 * g.gradients(pts), rtol=1e-12
    )
    # mixed structured + black box stays evaluable
    bb = ClassicalVariable.from_callbacks(f.values, f.gradients, n=2)
    mixed = bb + g
    np.testing.assert_allclose(mixed.values(pts), f.values(pts) + g.values(pts),
                               rtol=1e-12)
    # a scaled black box without a gradient stays without one
    values_only = ClassicalVariable.from_callbacks(f.values, n=2).scaled(0.5)
    assert not values_only.has_gradient
    np.testing.assert_array_equal(values_only.values(pts), 0.5 * f.values(pts))
    with pytest.raises(ValueError, match="dimension mismatch"):
        f + ClassicalVariable.quadratic(identity_op(1))
    with pytest.raises(TypeError):
        f + 1


def test_constructor_validation():
    with pytest.raises(ValueError):
        QuadraticTerm(1.0, identity_op(1), 0)  # constant-producing power
    with pytest.raises(ValueError):
        QuadraticTerm(1.0, BlockOperator(np.array([[0.0, 1.0], [0.0, 0.0]])), 1)
    with pytest.raises(ValueError):
        QuadraticTerm(1.0, BlockOperator(np.diag([1.0, 2.0])), 1)  # not J-commuting
    with pytest.raises(ValueError):
        ClassicalVariable(terms=None, value_fn=None)
    with pytest.raises(ValueError):
        ClassicalVariable(terms=[])
    with pytest.raises(ValueError, match="share one dimension"):
        ClassicalVariable(
            terms=[QuadraticTerm(1.0, identity_op(1), 1), QuadraticTerm(1.0, identity_op(2), 1)]
        )
    with pytest.raises(ValueError, match="nonzero coefficient"):
        ClassicalVariable.polynomial(identity_op(1), [0.0, 0.0])
    with pytest.raises(ValueError):
        ClassicalVariable(value_fn=lambda pts: pts[..., 0], n=None)
    f = ClassicalVariable.quadratic(identity_op(2))
    with pytest.raises(ValueError):
        f.values(np.zeros((3, 6)))
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be at least 1"):
            ClassicalVariable.from_callbacks(lambda pts: pts[..., 0], n=n)
    # a Hamiltonian is a variable whose gradient is sure to exist
    value = lambda pts: pts[..., 0] ** 2
    with pytest.raises(ValueError, match="gradient callback"):
        NonquadraticHamiltonian(value, None, 1)
    with pytest.raises(ValueError, match="n must be at least 1"):
        NonquadraticHamiltonian(value, lambda pts: 2 * pts, 0)
