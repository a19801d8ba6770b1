import numpy as np
import pytest

from fellkit.cocycle import (
    Cocycle2,
    NotATwistError,
    cocycle_identity_residual,
    extract_cocycle,
    make_twist,
    twist_is_admissible,
)
from fellkit.groupoid import PairGroupoid
from fellkit.linalg import haar_unitary

from helpers import twist_from_phases


def phase_assignment(n, rng):
    """A dim-1 unitary assignment u_(x,y) = e^{i θ_xy}, θ antisymmetric."""
    theta = rng.uniform(-np.pi, np.pi, size=(n, n))
    theta = theta - theta.T
    return {
        (x, y): np.array([[np.exp(1j * theta[x, y])]])
        for x in range(n)
        for y in range(n)
    }


def test_trivial_twist_defaults():
    w = Cocycle2(n_points=3, fibre_dim=1)
    assert np.allclose(w.value((0, 1), (1, 2)), [[1.0]])
    assert w.is_trivial()
    assert cocycle_identity_residual(w) <= 1e-9
    assert twist_is_admissible(w)


def test_make_twist_validation():
    with pytest.raises(NotATwistError):
        make_twist(2, 1, {((0, 1), (1, 0)): 2.0})
    with pytest.raises(NotATwistError):
        make_twist(2, 2, {((0, 1), (1, 0)): np.array([[0, 1], [1, 0]])})
    with pytest.raises(ValueError):
        make_twist(2, 2, {((0, 1), (1, 0)): np.eye(3)})
    w = make_twist(2, 2, {((0, 1), (1, 0)): np.diag([1.0, -1.0]).astype(complex)})
    assert np.allclose(w.value((0, 1), (1, 0)), np.diag([1, -1]))


def test_twist_from_phases_is_admissible_cocycle():
    rng = np.random.default_rng(0)
    theta = rng.uniform(-1, 1, size=(4, 4))
    theta = theta - theta.T
    w = twist_from_phases(theta)
    assert twist_is_admissible(w)
    assert cocycle_identity_residual(w) < 1e-12
    assert not w.is_trivial()
    with pytest.raises(ValueError):
        twist_from_phases(np.ones((3, 3)))


def test_admissibility_rejects_bad_twists():
    # non-normalized on a unit pair
    w = make_twist(2, 1, {((0, 0), (0, 1)): -1.0})
    assert not twist_is_admissible(w)
    # violates w(g,g*) = 1
    w = make_twist(2, 1, {((0, 1), (1, 0)): -1.0})
    assert not twist_is_admissible(w)
    # violates the involution relation w(g,h)·w(h*,g*) = 1
    w = make_twist(
        3, 1, {((0, 1), (1, 2)): 1j, ((2, 1), (1, 0)): 1j}
    )
    assert not twist_is_admissible(w)
    # the compatible pairing passes
    w = make_twist(
        3, 1, {((0, 1), (1, 2)): 1j, ((2, 1), (1, 0)): -1j}
    )
    assert twist_is_admissible(w)


def test_extract_from_phase_assignment():
    rng = np.random.default_rng(5)
    n = 4
    assignment = phase_assignment(n, rng)
    w = extract_cocycle(assignment)
    assert w.n_points == n and w.fibre_dim == 1
    assert twist_is_admissible(w)
    assert cocycle_identity_residual(w) < 1e-12
    # defect really reproduces u_g u_h = w(g,h) u_{gh}
    G = PairGroupoid(n)
    for g, h in G.composable_pairs():
        gh = G.compose(g, h)
        lhs = assignment[g] @ assignment[h]
        rhs = w.value(g, h) @ assignment[gh]
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_extracted_cocycle_involution_relation():
    # ω(h*,g*) = conj(ω(g,h)) for any honest unitary assignment
    rng = np.random.default_rng(11)
    assignment = phase_assignment(5, rng)
    w = extract_cocycle(assignment)
    G = PairGroupoid(5)
    for g, h in G.composable_pairs():
        v = w.value(g, h)
        vi = w.value(G.inverse(h), G.inverse(g))
        assert np.allclose(v @ vi, np.eye(1), atol=1e-12)


def test_extract_rejects_non_diagonal_defects():
    # a generic dim-2 unitary assignment has non-diagonal defects
    rng = np.random.default_rng(3)
    n = 3
    assignment = {}
    for x in range(n):
        assignment[(x, x)] = np.eye(2, dtype=complex)
    for x in range(n):
        for y in range(x + 1, n):
            u = haar_unitary(2, rng)
            assignment[(x, y)] = u
            assignment[(y, x)] = u.conj().T
    with pytest.raises(NotATwistError):
        extract_cocycle(assignment)


def test_extract_precondition_errors():
    rng = np.random.default_rng(4)
    assignment = phase_assignment(3, rng)
    broken = dict(assignment)
    del broken[(0, 1)]
    with pytest.raises(ValueError):
        extract_cocycle(broken)
    broken = dict(assignment)
    broken[(0, 0)] = np.array([[1j]])
    with pytest.raises(ValueError):
        extract_cocycle(broken)
    broken = dict(assignment)
    broken[(1, 0)] = np.array([[1.0]])  # breaks u_(g*) = u_g*
    with pytest.raises(ValueError):
        extract_cocycle(broken)


def test_conjugation_twisted_identity_with_frame():
    # dim-2 diagonal-defect assignment: scalar twist times a unitary frame
    rng = np.random.default_rng(8)
    n = 3
    phases = phase_assignment(n, rng)
    assignment = {}
    for x in range(n):
        assignment[(x, x)] = np.eye(2, dtype=complex)
    base = {}
    for x in range(n):
        for y in range(x + 1, n):
            base[(x, y)] = haar_unitary(1, rng)[0, 0]
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            s = base[(x, y)] if x < y else np.conj(base[(y, x)])
            assignment[(x, y)] = phases[(x, y)][0, 0] * s * np.eye(2, dtype=complex)
    # scalar multiples of the identity: defects diagonal, extraction works
    w = extract_cocycle(assignment)
    assert w.fibre_dim == 2
    assert w.frame is not None
    assert cocycle_identity_residual(w) < 1e-12
