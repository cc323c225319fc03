"""Tests for Hamiltonian flows.

Oracles used here:
* n = 1, H = I: exp(JHt) is the clockwise rotation
  [[cos t, sin t], [-sin t, cos t]]; at t = pi/2 it sends (1, 0) to (0, -1).
* H = diag(1, 4) (not J-commuting): JH has eigenvalues +-2i and
  exp(JHt) = cos(2t) I + sin(2t) JH / 2, computed by hand.
* H = q^2 p on n = 1: dq/dt = q^2, dp/dt = -2qp gives the closed form
  q(t) = q0/(1 - q0 t), p(t) = p0 (1 - q0 t)^2, blowing up at t = 1/q0.
* one midpoint step on a linear system is the Cayley transform
  (I - dt/2 JH)^{-1} (I + dt/2 JH).
"""

import numpy as np
import pytest

from pcsft import dynamics
from pcsft.dynamics import (
    IntegrationError,
    NonquadraticHamiltonian,
    QuadraticHamiltonian,
    Trajectory,
    flow_oddness_defect,
    heisenberg_evolve,
    integrate,
    linear_flow,
    norm_preservation_defect,
    q_squared_p,
    schrodinger_flow,
)
from pcsft.bridge import project_variable
from pcsft.fieldlab import FieldGrid, KernelOperator
from pcsft.gaussian import GaussianState, quadratic_average
from pcsft.symplectic import (
    BlockOperator,
    ComplexOperator,
    PhaseVector,
    complex_to_real,
    j_matrix,
    real_to_complex,
)
from pcsft.variables import ClassicalVariable, QuadraticTerm


def random_j_commuting_hamiltonian(rng, n):
    d = rng.standard_normal((n, n))
    d = (d + d.T) / 2
    s = rng.standard_normal((n, n))
    s = (s - s.T) / 2
    return QuadraticHamiltonian(BlockOperator.from_pair(d, s))


def random_symmetric_hamiltonian(rng, n):
    x = rng.standard_normal((2 * n, 2 * n))
    return QuadraticHamiltonian(BlockOperator((x + x.T) / 2))


# ---------------------------------------------------------------------------
# Linear flows
# ---------------------------------------------------------------------------


def test_identity_kernel_rotates_clockwise():
    h = QuadraticHamiltonian(BlockOperator(np.eye(2)))
    t = np.pi / 2
    u = linear_flow(h, t)
    np.testing.assert_allclose(u.matrix @ [1.0, 0.0], [0.0, -1.0], atol=1e-12)
    expected = np.array([[np.cos(0.7), np.sin(0.7)], [-np.sin(0.7), np.cos(0.7)]])
    np.testing.assert_allclose(linear_flow(h, 0.7).matrix, expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_spectral_and_expm_flows_agree(n):
    rng = np.random.default_rng(n)
    h = random_j_commuting_hamiltonian(rng, n)
    for t in (0.0, 0.4, -1.3, 5.0):
        a = linear_flow(h, t, method="spectral")
        b = linear_flow(h, t, method="expm")
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_expm_flow_matches_scipy_expm(n):
    import scipy.linalg

    rng = np.random.default_rng(40 + n)
    j = j_matrix(n)
    small = (1e-8, 1e-4, 1e-2, 1.0, 10.0)
    # the generic kernel's flow can grow like exp(||JHt||), so it stops early
    kernels = [
        (random_j_commuting_hamiltonian(rng, n), small + (100.0, 1e3)),
        (random_symmetric_hamiltonian(rng, n), small),
    ]
    for h, sizes in kernels:
        jh = j @ h.operator.matrix
        for size in sizes:
            t = size / np.abs(jh).sum(axis=0).max()
            u = linear_flow(h, t, method="expm").matrix
            expected = scipy.linalg.expm(jh * t)
            # each of the ~log2(size / 5.37) squarings doubles the Pade step's error
            rtol = 1e-13 * max(1.0, size / 5.37)
            scale = np.abs(expected).max()
            assert np.abs(u - expected).max() <= rtol * scale, (h.j_invariant, size)
            assert np.abs(u.T @ j @ u - j).max() <= rtol * scale**2, (h.j_invariant, size)
    # nilpotent JH: the flow is exactly I + JHt, also after squarings
    h = QuadraticHamiltonian(BlockOperator(np.diag([1.0] + [0.0] * (2 * n - 1))))
    jh = j @ h.operator.matrix
    for t in (1e-3, 0.5, 40.0):
        u = linear_flow(h, t, method="expm").matrix
        assert np.array_equal(u, np.eye(2 * n) + jh * t)
        np.testing.assert_allclose(u.T @ j @ u, j, rtol=0, atol=1e-15 * t * t)
    # n = 1, H = I: the flow is the clockwise rotation by t at every size
    for t in (3.0, 50.0, 987.654321):
        u = linear_flow(QuadraticHamiltonian(BlockOperator(np.eye(2))), t, method="expm")
        rotation = [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]
        np.testing.assert_allclose(u.matrix, rotation, rtol=0, atol=1e-13)


def test_flow_is_symplectic_and_group():
    rng = np.random.default_rng(5)
    h = random_symmetric_hamiltonian(rng, 2)  # generic, not J-commuting
    j = j_matrix(2)
    for t in (0.3, 1.1):
        u = linear_flow(h, t).matrix
        np.testing.assert_allclose(u.T @ j @ u, j, atol=1e-10)
    u1 = linear_flow(h, 0.3).matrix
    u2 = linear_flow(h, 1.1).matrix
    np.testing.assert_allclose(u1 @ u2, linear_flow(h, 1.4).matrix, atol=1e-10)
    np.testing.assert_allclose(linear_flow(h, 0.0).matrix, np.eye(4), atol=1e-14)


def test_j_commuting_flow_is_isometric():
    rng = np.random.default_rng(6)
    h = random_j_commuting_hamiltonian(rng, 3)
    u = linear_flow(h, 0.9).matrix
    np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)


def test_non_j_commuting_flow_changes_norms():
    # hand-computed: H = diag(1, 4), exp(JHt) = cos(2t) I + sin(2t) JH / 2
    h = QuadraticHamiltonian(BlockOperator(np.diag([1.0, 4.0])))
    assert not h.j_invariant
    t = 0.3
    u = linear_flow(h, t)
    jh = np.array([[0.0, 4.0], [-1.0, 0.0]])
    np.testing.assert_allclose(
        u.matrix, np.cos(2 * t) * np.eye(2) + np.sin(2 * t) * jh / 2, atol=1e-12
    )
    assert np.linalg.norm(u.matrix @ [1.0, 0.0]) < 0.95  # an explicit probe losing norm
    with pytest.raises(ValueError):
        linear_flow(h, t, method="spectral")


def test_schrodinger_flow_matches_real_flow():
    rng = np.random.default_rng(7)
    h = random_j_commuting_hamiltonian(rng, 3)
    m = real_to_complex(h.operator)
    for t in (0.2, 1.7):
        u_c = schrodinger_flow(m, t)
        # unitary
        np.testing.assert_allclose(
            u_c.matrix.conj().T @ u_c.matrix, np.eye(3), atol=1e-10
        )
        # same operator through the dictionary, both directions
        np.testing.assert_allclose(
            complex_to_real(u_c).matrix, linear_flow(h, t, "expm").matrix, atol=1e-10
        )
        np.testing.assert_allclose(
            real_to_complex(linear_flow(h, t, "expm")).matrix, u_c.matrix, atol=1e-10
        )
    with pytest.raises(ValueError):
        schrodinger_flow(ComplexOperator(np.array([[1j]])), 0.1)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, 1e300])
def test_flows_at_unrepresentable_times_raise_value_error(t):
    rng = np.random.default_rng(8)
    generic = random_symmetric_hamiltonian(rng, 2)
    commuting = random_j_commuting_hamiltonian(rng, 2)
    identity = QuadraticHamiltonian(BlockOperator(np.eye(4)))
    cases = [(generic, "expm"), (generic, "auto"), (commuting, "expm"), (identity, "expm")]
    if not np.isfinite(t):
        # at t = 1e300 the spectral phases exp(-i w t) stay finite
        cases += [(commuting, "spectral"), (commuting, "auto")]
    for h, method in cases:
        with pytest.raises(ValueError), np.errstate(invalid="ignore", over="ignore"):
            linear_flow(h, t, method)


def test_zero_hamiltonian_flow_is_exactly_the_identity():
    h = QuadraticHamiltonian(BlockOperator(np.zeros((4, 4))))
    for t in (0.0, 0.7, -3.0, 1e300):
        for method in ("expm", "spectral", "auto"):
            assert np.array_equal(linear_flow(h, t, method).matrix, np.eye(4))


def test_flow_method_validation():
    h = QuadraticHamiltonian(BlockOperator(np.eye(2)))
    with pytest.raises(ValueError):
        linear_flow(h, 0.1, method="cayley")
    with pytest.raises(ValueError):
        QuadraticHamiltonian(BlockOperator(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_quadratic_hamiltonian_is_a_variable():
    rng = np.random.default_rng(12)
    h = random_j_commuting_hamiltonian(rng, 3)
    assert isinstance(h, ClassicalVariable)
    assert h.is_structured
    np.testing.assert_array_equal(
        project_variable(h).matrix, (real_to_complex(h.operator) * 0.5).matrix
    )
    # a kernel that does not commute with J is a black box outside the
    # projectable class, with the same exact values and gradients
    a = BlockOperator(np.diag([1.0, 4.0]))
    off = QuadraticHamiltonian(a)
    assert isinstance(off, ClassicalVariable) and not off.is_structured
    with pytest.raises(ValueError):
        project_variable(off)
    psi = PhaseVector([1.0], [-2.0])
    assert float(off.values(psi.flat())) == pytest.approx(8.5)
    np.testing.assert_allclose(off.gradient(psi).flat(), [1.0, -8.0])


def test_linear_flow_keeps_no_state():
    def state(h):  # each attribute, and the size of any container it is
        return {
            k: (v, len(v) if isinstance(v, (dict, list, set)) else None)
            for k, v in vars(h).items()
        }

    rng = np.random.default_rng(13)
    for h in (random_j_commuting_hamiltonian(rng, 2), random_symmetric_hamiltonian(rng, 2)):
        first = linear_flow(h, 0.25).matrix  # warm-up: fills the cached properties
        before = state(h)
        for t in np.linspace(0.01, 1.0, 100):
            linear_flow(h, t)
        after = state(h)
        assert after.keys() == before.keys()
        assert all(after[k][0] is v and after[k][1] == size for k, (v, size) in before.items())
        np.testing.assert_array_equal(linear_flow(h, 0.25).matrix, first)


def test_nonquadratic_hamiltonian_inherited_constructors():
    op = BlockOperator(np.eye(2))
    h = NonquadraticHamiltonian.quadratic(op)
    assert type(h) is NonquadraticHamiltonian and h.is_structured
    h = NonquadraticHamiltonian(terms=[QuadraticTerm(1.0, op, 2)])
    assert type(h) is NonquadraticHamiltonian and h.is_structured
    assert float(h.values(np.array([1.0, 1.0]))) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Implicit midpoint integrator
# ---------------------------------------------------------------------------


def test_single_midpoint_step_is_cayley():
    rng = np.random.default_rng(8)
    h = random_symmetric_hamiltonian(rng, 1)
    dt = 0.05
    y0 = rng.standard_normal(2)
    jh = j_matrix(1) @ h.operator.matrix
    cayley = np.linalg.solve(np.eye(2) - dt / 2 * jh, (np.eye(2) + dt / 2 * jh) @ y0)
    got = integrate(h, y0, dt, dt).states[-1]
    np.testing.assert_allclose(got, cayley, atol=1e-11)


def test_integrator_matches_linear_flow_at_second_order():
    rng = np.random.default_rng(9)
    h = random_j_commuting_hamiltonian(rng, 2)
    psi0 = PhaseVector.from_flat(rng.standard_normal(4))
    t = 1.0
    exact = linear_flow(h, t).matrix @ psi0.flat()
    errs = []
    for dt in (0.02, 0.01):
        end = integrate(h, psi0, t, dt).states[-1]
        errs.append(np.linalg.norm(end - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5  # global error O(dt^2)


def test_energy_conservation():
    rng = np.random.default_rng(10)
    # quadratic: midpoint conserves the Hamiltonian exactly
    h = random_j_commuting_hamiltonian(rng, 2)
    psi0 = PhaseVector.from_flat(rng.standard_normal(4))
    traj = integrate(h, psi0, 2.0, 0.01)
    assert np.max(np.abs(traj.energies - traj.energies[0])) <= 1e-10
    # the Hamiltonian and its energy variable evaluate the same form
    pts = rng.standard_normal((3, 1500, 4))  # 4500 rows span two row blocks
    np.testing.assert_array_equal(
        h.values(pts), ClassicalVariable.quadratic(h.operator).values(pts)
    )

    # nonquadratic with two non-commuting forms: neither form stays a
    # discrete invariant, so the midpoint rule leaves an O(dt^2) energy
    # error that shrinks ~4x per halving
    a1 = BlockOperator.from_pair([[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]])
    a2 = BlockOperator.from_pair([[1.0, 0.5], [0.5, -1.0]], [[0.0, 0.7], [-0.7, 0.0]])
    hq = ClassicalVariable.quadratic(a1) + ClassicalVariable.polynomial(a2, [0.0, 0.25])
    psi0 = PhaseVector([1.1, -0.2], [0.3, 0.6])
    drifts = []
    for dt in (0.02, 0.01):
        traj = integrate(hq, psi0, 3.0, dt)
        drifts.append(np.max(np.abs(traj.energies - traj.energies[0])))
    assert 3.4 <= drifts[0] / drifts[1] <= 4.6


def test_norm_conservation_for_polynomial_family():
    # gradient proportional to H psi makes (J grad, psi) = 0 identically;
    # midpoint then conserves the squared norm to iteration tolerance
    op = BlockOperator.from_pair([[2.0, 0.3], [0.3, 1.0]], [[0.0, -0.4], [0.4, 0.0]])
    hq = NonquadraticHamiltonian.polynomial(op, [0.5, 0.0, 0.125])
    psi0 = PhaseVector([0.9, -0.2], [0.1, 0.7])
    assert abs(norm_preservation_defect(hq, psi0)) <= 1e-12
    traj = integrate(hq, psi0, 4.0, 0.01)
    assert np.max(np.abs(traj.norms - traj.norms[0])) <= 1e-9


def test_q_squared_p_violates_norm_preservation():
    h = q_squared_p()
    psi = PhaseVector([1.0], [1.0])
    # grad = (2qp, q^2) = (2, 1); J grad = (1, -2); dot with (1, 1) = -1
    assert norm_preservation_defect(h, psi) == pytest.approx(-1.0)

    traj = integrate(h, psi, 0.5, 1e-3)
    # closed form: q = 1/(1 - t), p = (1 - t)^2
    assert traj.states[-1][0] == pytest.approx(2.0, abs=1e-5)
    assert traj.states[-1][1] == pytest.approx(0.25, abs=1e-5)
    assert traj.norms[-1] ** 2 == pytest.approx(4.0625, abs=1e-4)
    # the audit signal: squared norm drifted by far more than tolerance
    assert abs(traj.norms[-1] - traj.norms[0]) > 0.5


def test_integrator_diverges_with_huge_step():
    with pytest.raises(IntegrationError):
        integrate(q_squared_p(), PhaseVector([1.0], [1.0]), 20.0, 10.0)


def test_integrate_rejects_non_finite_times():
    h = QuadraticHamiltonian(BlockOperator(np.eye(2)))
    psi0 = PhaseVector([1.0], [0.0])
    for t_final, dt, name in [
        (1.0, float("nan"), "dt"),
        (1.0, 0.0, "dt"),
        (float("nan"), 0.1, "t_final"),
        (float("inf"), 0.1, "t_final"),
        (-float("inf"), 0.1, "t_final"),
        (0.0, 0.1, "t_final"),
        (1e300, 1e-10, "t_final / dt"),  # finite, but too many steps to count
    ]:
        with pytest.raises(ValueError, match=name):
            integrate(h, psi0, t_final, dt)


def test_callback_hamiltonian_rejects_batch_of_wrong_width():
    # q^2 p lives on n = 1: a 4-wide batch must not be read through its
    # first two columns, nor integrated by broadcasting a 2-wide J grad H
    h = q_squared_p()
    with pytest.raises(ValueError, match=r"2n = 2, got 4"):
        h.values(np.ones((3, 4)))
    with pytest.raises(ValueError, match=r"2n = 2, got 4"):
        integrate(h, 0.1 * np.ones((3, 4)), 0.1, 0.05)


def _black_box(h):
    """The same Hamiltonian through its callbacks, integrated by sweeps."""
    return NonquadraticHamiltonian(h.values, h.gradients, h.n)


def _quartic_pair():
    # H = (psi, psi)^2 as a black box and as a structured variable of two
    # operators (equal operators built separately stay two): both are
    # integrated by fixed-point sweeps over their gradients
    quartic = NonquadraticHamiltonian.polynomial(BlockOperator(np.eye(2)), [0.0, 1.0])
    halves = [ClassicalVariable.polynomial(BlockOperator(np.eye(2)), [0.0, 0.5]) for _ in range(2)]
    return quartic, [_black_box(quartic), halves[0] + halves[1]]


def _midpoint_residual(h, traj):
    """Largest |x - y - dt J grad H((x + y)/2)| over the steps, relative to
    the largest |x|."""
    y, x = traj.states[:-1], traj.states[1:]
    step = traj.times[1] - traj.times[0]
    field = step * h.gradients((x + y) / 2) @ j_matrix(h.n).T
    return float(np.max(np.abs(x - y - field)) / np.max(np.abs(x)))


def test_integration_error_names_the_failing_rows(monkeypatch):
    # the fixed-point map contracts for the small rows and blows up for
    # the large one
    quartic, sweeping = _quartic_pair()
    batch = np.array([[0.1, 0.0], [10.0, 0.0], [0.0, 0.2]])
    for h in sweeping:
        with pytest.raises(IntegrationError, match=r"rows \[1\]") as err:
            integrate(h, batch, 0.1, 0.1)
        assert err.value.rows == [1] and err.value.step == 0
    # the closed-form solver integrates the same rows of the one-operator form
    traj = integrate(quartic, batch, 0.1, 0.1)
    assert _midpoint_residual(quartic, traj) <= 1e-14
    np.testing.assert_allclose(traj.norms[-1], traj.norms[0], rtol=1e-14)
    # out of sweeps (or Newton iterations) without blowing up: only the
    # row still moving fails
    monkeypatch.setattr(dynamics, "MAX_SWEEPS", 1)
    rotation = QuadraticHamiltonian(BlockOperator(np.diag([1.0, 4.0])))  # a black box
    rows = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    for h in (rotation, quartic):
        with pytest.raises(IntegrationError) as err:
            integrate(h, rows, 0.1, 0.1)
        assert err.value.rows == [1] and err.value.step == 0
    # a row that is not finite fails the closed-form solver by name
    monkeypatch.undo()
    with pytest.raises(IntegrationError, match=r"rows \[2\]"):
        integrate(quartic, np.array([[0.1, 0.0], [0.0, 0.2], [np.inf, 0.0]]), 0.1, 0.1)


def test_overflowed_iterate_is_named_not_stored():
    # H = (q^4 + p^4) / 4 from callbacks: row 1's first sweep overflows its
    # iterate to inf, so the sweep limit, relative to max|x|, is inf too
    def values(pts):
        return np.sum(pts**4, axis=-1) / 4.0

    def gradients(pts):
        return pts**3

    h = NonquadraticHamiltonian(values, gradients, 1)
    batch = np.array([[0.1, 0.0], [1e100, 0.0]])
    with pytest.raises(IntegrationError, match=r"rows \[1\]") as err:
        integrate(h, batch, 0.1, 0.1)
    assert err.value.rows == [1] and err.value.step == 0


def _polynomial_hamiltonian():
    op = BlockOperator.from_pair([[2.0, 0.3], [0.3, 1.0]], [[0.0, -0.4], [0.4, 0.0]])
    return NonquadraticHamiltonian.polynomial(op, [0.5, 0.0, 0.125])


def test_failed_extrapolated_start_is_redone_from_euler():
    h = _black_box(_polynomial_hamiltonian())
    batch = 0.5 * np.random.default_rng(19).standard_normal((5, 4))
    dt, steps = 0.05, 20
    # Euler-only reference: a chain of one-step runs, each starting from
    # the Euler guess as step 0 does
    chain = [integrate(h, batch, dt, dt)]
    for _ in range(steps - 1):
        chain.append(integrate(h, chain[-1].states[-1], dt, dt))
    euler_states = np.stack([batch] + [t.states[-1] for t in chain])
    euler_sweeps = np.array([t.sweeps[0] for t in chain])
    traj = integrate(h, batch, steps * dt, dt)
    assert traj.dt == dt and not np.array_equal(traj.states, euler_states)

    # a field that turns row 3 non-finite on the first sweep from the
    # extrapolated start: every later step is redone from the Euler guess,
    # bit for bit, and the wasted sweep is counted. Step 0 makes the Euler
    # guess and its sweeps; each later step k one poisoned sweep, the Euler
    # guess and euler_sweeps[k] sweeps.
    poisoned = 1 + euler_sweeps[0] + np.cumsum(np.r_[0, 2 + euler_sweeps[1:-1]])
    n_calls = 0

    def poisoned_gradient(pts):
        nonlocal n_calls
        g = np.array(h.gradients(pts))
        if n_calls in poisoned:
            g[3] = np.nan
        n_calls += 1
        return g

    redone = integrate(NonquadraticHamiltonian(h.values, poisoned_gradient, 2), batch, steps * dt, dt)
    np.testing.assert_array_equal(redone.states, euler_states)
    np.testing.assert_array_equal(redone.sweeps, euler_sweeps + (np.arange(steps) > 0))
    assert n_calls == redone.sweeps.sum() + steps

    # a field that turns non-finite after step 0 fails both starts, and
    # only then raises: one sweep from the extrapolated start, then the
    # Euler guess at y_1 and its one sweep
    step0 = 1 + chain[0].sweeps[0]
    calls = []

    def gradient(pts):
        calls.append(pts.copy())
        return h.gradients(pts) if len(calls) <= step0 else np.full(pts.shape, np.nan)

    with pytest.raises(IntegrationError) as err:
        integrate(NonquadraticHamiltonian(h.values, gradient, 2), batch, steps * dt, dt)
    assert err.value.step == 1 and err.value.rows == [0, 1, 2, 3, 4]
    assert len(calls) == step0 + 3
    np.testing.assert_allclose(calls[step0 + 1], euler_states[1], rtol=0, atol=1e-15)


def test_failing_rows_of_a_large_batch_are_named():
    # a row diverging past the first 2048 rows of a batch is named by its
    # index on both sweeping forms, and so is a non-finite one under the
    # closed-form solver
    bad = 2 * 1024 + 5
    rows = 0.1 * np.random.default_rng(21).standard_normal((2085, 2))
    rows[bad] = [10.0, 0.0]
    quartic, sweeping = _quartic_pair()
    for h in sweeping:
        with pytest.raises(IntegrationError, match=rf"rows \[{bad}\]") as err:
            integrate(h, rows, 0.1, 0.1)
        assert err.value.rows == [bad] and err.value.step == 0
    rows[bad] = [np.nan, 0.0]
    with pytest.raises(IntegrationError) as err:
        integrate(quartic, rows, 0.1, 0.1)
    assert err.value.rows == [bad] and err.value.step == 0


def _two_operator_variables():
    a1 = BlockOperator.from_pair([[1.0, 0.2], [0.2, 0.5]], [[0.0, 0.3], [-0.3, 0.0]])
    a2 = BlockOperator.from_pair([[0.4, -0.1], [-0.1, 1.2]], [[0.0, -0.2], [0.2, 0.0]])
    return [
        # both operators nonlinear, powers 1 to 3
        ClassicalVariable.polynomial(a1, [0.5, 0.0, 0.2]) + ClassicalVariable.polynomial(a2, [0.3, -0.1]),
        # one operator nonlinear, the other linear
        ClassicalVariable.polynomial(a1, [0.0, 0.0, 0.2]) + ClassicalVariable.quadratic(a2),
    ]


def _structured_hamiltonians():
    op = BlockOperator.from_pair([[2.0, 0.3], [0.3, 1.0]], [[0.0, -0.4], [0.4, 0.0]])
    return _two_operator_variables() + [
        random_symmetric_hamiltonian(np.random.default_rng(12), 2),
        NonquadraticHamiltonian.polynomial(op, [0.5, 0.0, 0.125]),
    ]


@pytest.mark.parametrize(
    "h", _structured_hamiltonians(), ids=["two-nonlinear", "nonlinear-and-linear", "quadratic", "polynomial"]
)
def test_midpoint_step_solves_its_fixed_point(h):
    # every step, by either solver, satisfies x = y + dt J grad H((x + y)/2)
    # for the gradients the variable itself reports
    batch = 0.5 * np.random.default_rng(14).standard_normal((7, 4))
    traj = integrate(h, batch, 0.15, 0.03)
    assert _midpoint_residual(h, traj) <= 1e-12


@pytest.mark.parametrize("v", _two_operator_variables())
def test_structured_integration_matches_its_callbacks(v):
    # a structured variable of several operators is integrated by sweeps
    # over its own gradients: the same bits and sweeps as a black box
    batch = 0.5 * np.random.default_rng(13).standard_normal((5, 4))
    structured = integrate(v, batch, 1.0, 0.02)
    black_box = integrate(ClassicalVariable.from_callbacks(v.values, v.gradients, n=2), batch, 1.0, 0.02)
    np.testing.assert_array_equal(structured.states, black_box.states)
    assert structured.sweeps.shape == (50,) and structured.sweeps.min() >= 1
    np.testing.assert_array_equal(structured.sweeps, black_box.sweeps)
    with pytest.raises(ValueError, match=r"2n = 4, got 6"):
        integrate(v, np.zeros((2, 6)), 1.0, 0.02)


def _one_operator_hamiltonians():
    rng = np.random.default_rng(16)
    quadratic = random_j_commuting_hamiltonian(rng, 3)
    return [quadratic, NonquadraticHamiltonian.polynomial(quadratic.operator, [0.5, -0.1, 0.04])]


@pytest.mark.parametrize("h", _one_operator_hamiltonians(), ids=["quadratic", "polynomial"])
def test_eigenbasis_solver_matches_the_sweeps(h):
    # one operator: each step is a Cayley rotation in A's eigenbasis, with
    # no sweeps; it is the fixed point the sweeps find, to their tolerance
    batch = 0.2 * np.random.default_rng(17).standard_normal((9, 6))
    closed = integrate(h, batch, 1.0, 0.02)
    swept = integrate(_black_box(h), batch, 1.0, 0.02)
    assert np.max(np.abs(closed.states - swept.states)) <= 1e-11 * np.max(np.abs(swept.states))
    np.testing.assert_array_equal(closed.sweeps, np.zeros(50, dtype=int))
    assert swept.sweeps.min() >= 1
    assert np.max(np.abs(closed.norms - closed.norms[0]) / closed.norms[0]) <= 1e-14
    with pytest.raises(ValueError, match=r"2n = 6, got 4"):
        integrate(h, np.zeros((2, 4)), 1.0, 0.02)


def test_stiff_kernel_step_is_the_cayley_transform():
    # the grid kinetic kernel at N = 128, L = 20 has top eigenvalue ~82, so
    # dt = 0.05 puts (dt/2) * 82 ~ 2 past the sweeps' contraction limit 1
    grid = FieldGrid(128, 20.0 / 128)
    kinetic = KernelOperator.mass(grid, 1.0)
    assert np.max(kinetic.eigensystem[0]) > 80.0
    h = QuadraticHamiltonian(complex_to_real(ComplexOperator(kinetic.matrix)))
    dt, steps = 0.05, 8
    psi = np.random.default_rng(18).standard_normal((3, 256))
    jh = dt / 2 * j_matrix(128) @ h.operator.matrix
    cayley = np.linalg.solve(np.eye(256) - jh, np.eye(256) + jh)
    expected = psi.T
    for _ in range(steps):
        expected = cayley @ expected
    got = integrate(h, psi, steps * dt, dt).states[-1]
    assert np.max(np.abs(got - expected.T)) <= 1e-12 * np.max(np.abs(expected))
    with pytest.raises(IntegrationError):
        integrate(_black_box(h), psi, steps * dt, dt)


def test_one_operator_midpoint_is_second_order_in_the_exact_flow():
    # s = (A psi, psi) is conserved, so the exact flow of f(s) is the
    # linear flow exp(2 f'(s0) t J A) psi: phases exp(-2i f'(s0) t w) in
    # the eigenbasis (w, v) of A's complex image
    rng = np.random.default_rng(19)
    a = random_j_commuting_hamiltonian(rng, 3).operator
    coefficients = [0.5, -0.2, 0.1]
    h = NonquadraticHamiltonian.polynomial(a, coefficients)
    psi = 0.6 * rng.standard_normal(6)
    s0 = psi @ a.matrix @ psi
    slope = sum(k * c * s0 ** (k - 1) for k, c in enumerate(coefficients, start=1))
    w, v = np.linalg.eigh(real_to_complex(a).matrix)
    t = 1.0
    z = v @ (np.exp(-2j * slope * t * w) * (v.conj().T @ (psi[:3] + 1j * psi[3:])))
    exact = np.concatenate([z.real, z.imag])
    errors = [np.linalg.norm(integrate(h, psi, t, dt).states[-1] - exact) for dt in (0.04, 0.02, 0.01)]
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(3.8 <= r <= 4.2 for r in ratios), ratios


@pytest.mark.parametrize("form", ["structured", "black-box"])
def test_change_of_units_leaves_the_flow_unchanged(form):
    # H_c(x) = c^2 H(x / c) carries c psi to c times the flow of psi, so
    # one relative tolerance must hold at every scale c
    rng = np.random.default_rng(22)
    a = random_j_commuting_hamiltonian(rng, 4).operator
    coefficients = [0.5, 0.0, 0.125]
    batch = 0.3 * rng.standard_normal((64, 8))
    reference = None
    for c in (1.0, 1e-8, 1e-4, 1e4):
        h = ClassicalVariable.polynomial(a, [ck * c ** (2 - 2 * k) for k, ck in enumerate(coefficients, start=1)])
        if form == "black-box":
            h = _black_box(h)
        traj = integrate(h, c * batch, 1.0, 0.01)
        drift = np.max(np.abs(traj.norms - traj.norms[0]) / traj.norms[0])
        assert drift <= 1e-10, (c, drift)
        if reference is None:
            reference = traj.states[-1]
        error = np.max(np.abs(traj.states[-1] / c - reference)) / np.max(np.abs(reference))
        assert error <= 1e-10, (c, error)


def test_black_box_with_a_gradient_at_the_origin_leaves_zero_rows():
    # H = (b, x) + |x|^2 / 2: zero rows move, so the sweeps' stopping
    # scale must come from the iterate as well as from y; each step is the
    # affine Cayley map (I - dt/2 J) x' = (I + dt/2 J) x + dt J b
    b = np.array([0.3, -1.2, 0.5, 0.8])
    h = ClassicalVariable.from_callbacks(lambda x: x @ b + 0.5 * np.sum(x * x, axis=-1), lambda x: x + b, n=2)
    dt, steps = 0.05, 10
    traj = integrate(h, np.zeros((3, 4)), steps * dt, dt)
    j = j_matrix(2)
    expected = np.zeros(4)
    for _ in range(steps):
        expected = np.linalg.solve(np.eye(4) - dt / 2 * j, (np.eye(4) + dt / 2 * j) @ expected + dt * j @ b)
    assert np.max(np.abs(traj.states[-1] - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_multi_axis_batch_matches_flat_rows():
    # every field path takes (..., 2n) batches; the rows do not interact
    op = BlockOperator.from_pair([[2.0, 0.3], [0.3, 1.0]], [[0.0, -0.4], [0.4, 0.0]])
    poly = NonquadraticHamiltonian.polynomial(op, [0.5, 0.0, 0.125])
    black_box = NonquadraticHamiltonian(poly.values, poly.gradients, 2)
    batch = 0.5 * np.random.default_rng(15).standard_normal((2, 3, 4))
    for h in _two_operator_variables() + [poly, black_box, QuadraticHamiltonian(op)]:
        grid = integrate(h, batch, 0.5, 0.05)
        rows = integrate(h, batch.reshape(6, 4), 0.5, 0.05)
        assert grid.states.shape == (11, 2, 3, 4) and grid.energies.shape == (11, 2, 3)
        np.testing.assert_allclose(grid.states.reshape(11, 6, 4), rows.states, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(grid.sweeps, rows.sweeps)


def test_batch_integration_matches_single():
    rng = np.random.default_rng(11)
    op = BlockOperator.from_pair([[1.0]], [[0.0]])
    hq = NonquadraticHamiltonian.polynomial(op, [0.3, 0.2])
    batch = rng.standard_normal((3, 2))
    traj = integrate(hq, batch, 1.0, 0.01)
    assert traj.states.shape == (101, 3, 2)
    for k in range(3):
        single = integrate(hq, batch[k], 1.0, 0.01)
        np.testing.assert_allclose(traj.states[:, k, :], single.states, atol=1e-10)


def test_time_grid_and_reversibility():
    h = QuadraticHamiltonian(BlockOperator(np.eye(2)))
    traj = integrate(h, PhaseVector([1.0], [0.0]), 1.0, 0.3)
    assert len(traj.times) == 4  # 3 steps of 1/3
    assert traj.times[-1] == pytest.approx(1.0, abs=1e-14)
    fwd = integrate(h, PhaseVector([1.0], [0.0]), 0.7, 0.01).states[-1]
    back = integrate(h, fwd, -0.7, 0.01).states[-1]
    np.testing.assert_allclose(back, [1.0, 0.0], atol=1e-9)
    with pytest.raises(ValueError):
        integrate(h, PhaseVector([1.0], [0.0]), 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate(h, PhaseVector([1.0], [0.0]), 0.0, 0.1)
    with pytest.raises(ValueError, match="even length"):
        integrate(h, np.zeros(3), 1.0, 0.1)


# ---------------------------------------------------------------------------
# Observable evolution
# ---------------------------------------------------------------------------


def test_heisenberg_value_consistency():
    rng = np.random.default_rng(12)
    h = random_symmetric_hamiltonian(rng, 2)
    a = BlockOperator(rng.standard_normal((4, 4)))
    t = 0.8
    a_t = heisenberg_evolve(a, h, t)
    u = linear_flow(h, t)
    for _ in range(10):
        psi = PhaseVector.from_flat(rng.standard_normal(4))
        lhs = psi.flat() @ a_t.matrix @ psi.flat()
        moved = u.matrix @ psi.flat()
        rhs = moved @ a.matrix @ moved
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
    with pytest.raises(ValueError, match="dimension mismatch"):
        heisenberg_evolve(BlockOperator(np.eye(2)), h, t)


def _hermitian(rng, n):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (x + x.conj().T) / 2


def test_heisenberg_evolved_observable_accepted_at_every_time():
    # a valid observable at scale 1e5 stays valid under evolution: its
    # round-off asymmetry (about 1e-10 at t = 5) is tiny next to its entries
    rng = np.random.default_rng(1)
    n = 8
    a = complex_to_real(ComplexOperator(1e5 * _hermitian(rng, n)))
    h = QuadraticHamiltonian(complex_to_real(ComplexOperator(_hermitian(rng, n))))
    for t in (0.5, 5.0, 50.0):
        a_t = heisenberg_evolve(a, h, t)
        f = ClassicalVariable.quadratic(a_t)
        psi = PhaseVector.from_flat(rng.standard_normal(2 * n))
        moved = linear_flow(h, t).matrix @ psi.flat()
        assert float(f.values(psi.flat())) == pytest.approx(0.5 * moved @ a.matrix @ moved, rel=1e-9)


def test_large_hermitian_kernel_accepted_at_every_call_site():
    # hermitian to round-off with eigenvalues up to 1e7; its asymmetry
    # exceeds 1e-10 in absolute terms but not relative to its entries
    rng = np.random.default_rng(0)
    n = 16
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = ComplexOperator(q @ np.diag(rng.uniform(0.0, 1e7, n)) @ q.conj().T)
    r = complex_to_real(m)
    assert r.symmetry_defect() > 1e-10
    KernelOperator(FieldGrid(2 * n, 1.0), r.matrix)  # the field lab agrees
    ClassicalVariable.quadratic(r)
    QuadraticHamiltonian(r)
    rho = GaussianState.isotropic(n, 1.0)
    trace = float(np.real(np.trace(m.matrix)))
    assert quadratic_average(rho, r) == pytest.approx(trace / n, rel=1e-12)
    assert quadratic_average(rho, m) == pytest.approx(trace / n, rel=1e-12)
    u = schrodinger_flow(m, 0.3).matrix
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-9)


def test_heisenberg_ode_finite_difference():
    # dA_t/dt = [A_t, HJ] + A_t [J, H], checked by central differences
    rng = np.random.default_rng(13)
    h = random_symmetric_hamiltonian(rng, 2)
    a = BlockOperator(rng.standard_normal((4, 4)))
    j = j_matrix(2)
    t, eps = 0.6, 1e-5
    a_t = heisenberg_evolve(a, h, t).matrix
    diff = (heisenberg_evolve(a, h, t + eps).matrix - heisenberg_evolve(a, h, t - eps).matrix) / (
        2 * eps
    )
    hm = h.operator.matrix
    rhs = (a_t @ hm @ j - hm @ j @ a_t) + a_t @ (j @ hm - hm @ j)
    np.testing.assert_allclose(diff, rhs, atol=1e-6)


def test_heisenberg_complex_form():
    # J-commuting A and H: the complex image evolves by conjugation with
    # exp(+iMt) on the left
    rng = np.random.default_rng(14)
    h = random_j_commuting_hamiltonian(rng, 2)
    a_c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a_c = a_c + a_c.conj().T
    a = complex_to_real(ComplexOperator(a_c))
    t = 0.5
    m = real_to_complex(h.operator).matrix
    w, v = np.linalg.eigh(m)
    u_plus = (v * np.exp(1j * w * t)) @ v.conj().T
    expected = u_plus @ a_c @ u_plus.conj().T
    got = real_to_complex(heisenberg_evolve(a, h, t))
    np.testing.assert_allclose(got.matrix, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Flow parity
# ---------------------------------------------------------------------------


def test_even_hamiltonians_generate_odd_flows():
    op = BlockOperator.from_pair([[1.5]], [[0.0]])
    hq = NonquadraticHamiltonian.polynomial(op, [0.5, -0.2])
    defect = flow_oddness_defect(hq, PhaseVector([0.7], [0.2]), t=0.8)
    assert defect <= 1e-10


def test_odd_hamiltonian_breaks_flow_oddness():
    defect = flow_oddness_defect(q_squared_p(), PhaseVector([0.5], [0.5]), t=0.5)
    assert defect > 1e-2


# ---------------------------------------------------------------------------
# Trajectory serialisation
# ---------------------------------------------------------------------------


def test_trajectory_csv_roundtrip(tmp_path):
    h = QuadraticHamiltonian(BlockOperator(np.eye(4)))
    traj = integrate(h, PhaseVector([1.0, 0.0], [0.0, 0.5]), 0.5, 0.1)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "t,q_0,q_1,p_0,p_1,energy,norm"
    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    np.testing.assert_allclose(data[:, 0], traj.times, atol=0)
    np.testing.assert_allclose(data[:, 1:5], traj.states, atol=0)
    np.testing.assert_allclose(data[:, 5], traj.energies, atol=0)
    np.testing.assert_allclose(data[:, 6], traj.norms, atol=0)
    # byte-identical on rewrite
    first = path.read_bytes()
    traj.to_csv(path)
    assert path.read_bytes() == first
    batch = integrate(h, np.zeros((2, 4)) + 0.1, 0.2, 0.1)
    with pytest.raises(ValueError):
        batch.to_csv(tmp_path / "nope.csv")
