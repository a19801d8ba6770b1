import numpy as np
import pytest

from fellkit.cocycle import (
    Cocycle2,
    NotATwistError,
    cocycle_identity_residual,
    extract_cocycle,
    frame_defects,
    make_twist,
    twist_is_admissible,
)
from fellkit.dynamics import covariance_group_from_frame
from fellkit.embedding import phi_from_covariance_group, read_off_pair
from fellkit.fellbundle import CStarBundle, build_semidirect_bundle
from fellkit.groupoid import PairGroupoid, cycle_bisection
from fellkit.linalg import as_matrix, haar_unitary, operator_norm, operator_norms
from fellkit.presets import flow_frame, random_symmetric_frame

from helpers import (
    composable_triples,
    distance_from_trivial,
    frame_array,
    twist_from_phases,
    unchecked_cocycle,
)
from readoff_oracle import oracle_read_off


def phase_assignment(n, rng):
    """A dim-1 unitary assignment u_(x,y) = e^{i θ_xy}, θ antisymmetric."""
    theta = rng.uniform(-np.pi, np.pi, size=(n, n))
    theta = theta - theta.T
    return {
        (x, y): np.array([[np.exp(1j * theta[x, y])]])
        for x in range(n)
        for y in range(n)
    }


# --- the per-pair and per-triple loops the stacked code replaced: oracles ---


def loop_extract_cocycle(assignment, eps=1e-9):
    """ω as a dict over composable pairs, read off a per-arrow assignment one
    pair at a time; raises what extract_cocycle raises, with the same text."""
    points = {x for g in assignment for x in g}
    n = max(points) + 1
    G = PairGroupoid(n)
    dim = as_matrix(next(iter(assignment.values()))).shape[0]
    eye = np.eye(dim)
    for x in range(n):
        if operator_norm(as_matrix(assignment[(x, x)]) - eye) > eps:
            raise ValueError(f"unit arrow ({x},{x}) is not assigned the identity")
    for g in G.arrows():
        u = assignment[g]
        if operator_norm(as_matrix(assignment[G.inverse(g)]) - u.conj().T) > eps:
            raise ValueError(f"assignment violates u_(g*) = u_g* at {g}")
    values = {}
    for g, h in G.composable_pairs():
        gh = G.compose(g, h)
        defect = as_matrix(assignment[g]) @ as_matrix(assignment[h]) @ as_matrix(
            assignment[gh]).conj().T
        off = defect - np.diag(np.diagonal(defect))
        if operator_norm(off) > eps:
            raise NotATwistError(
                f"defect at ({g},{h}) is not diagonal "
                f"(off-diagonal norm {operator_norm(off):.3e}); "
                "assignment has no ⊕𝕋-valued twist"
            )
        if np.max(np.abs(np.abs(np.diagonal(defect)) - 1.0)) > eps:
            raise NotATwistError(f"defect at ({g},{h}) has non-unit modulus")
        values[(g, h)] = defect
    return values


def loop_identity_residual(values, frame, n, dim):
    """The cocycle-identity residual, one composable triple at a time; a pair
    missing from values takes the identity."""
    G = PairGroupoid(n)
    eye = np.eye(dim, dtype=complex)

    def value(g, h):
        return values.get((g, h), eye)

    worst = 0.0
    for g, h, k in composable_triples(G):
        gh = G.compose(g, h)
        hk = G.compose(h, k)
        lhs = value(g, h) @ value(gh, k)
        whk = value(h, k)
        if frame is not None and dim > 1:
            ug = as_matrix(frame[g])
            whk = ug @ whk @ ug.conj().T
        rhs = whk @ value(g, hk)
        worst = max(worst, operator_norm(lhs - rhs))
    return worst


def loop_is_admissible(values, n, dim, eps=1e-9):
    G = PairGroupoid(n)
    eye = np.eye(dim, dtype=complex)

    def value(g, h):
        return values.get((g, h), eye)

    for g in G.arrows():
        r, d = g
        for v in (value((r, r), g), value(g, (d, d)), value(g, G.inverse(g))):
            if operator_norm(v - eye) > eps:
                return False
    for g, h in G.composable_pairs():
        gi, hi = G.inverse(g), G.inverse(h)
        if operator_norm(value(g, h) @ value(hi, gi) - eye) > eps:
            return False
    return True


def flow_read_off(n, dim, seed):
    """The read-off of a flow preset's Φ, and its assignment per arrow as
    the blocks of Φ, the identity on the diagonal."""
    frame, g = flow_frame(n, dim, np.random.default_rng(seed))
    E = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
    phi = phi_from_covariance_group(covariance_group_from_frame(g, E))
    blocks = phi.blocks
    per_arrow = {(i, j): np.eye(dim, dtype=complex) if i == j else blocks[i, j]
                 for i in range(n) for j in range(n)}
    return phi, per_arrow


@pytest.mark.parametrize("n, dim", [(3, 2), (4, 2), (8, 1), (6, 4)])
def test_stacked_extraction_matches_pair_loop(n, dim):
    phi, per_arrow = flow_read_off(n, dim, seed=n * 10 + dim)
    readoff = read_off_pair(phi)
    assert np.array_equal(readoff.assignment, frame_array(per_arrow, n))
    w = readoff.omega
    oracle = loop_extract_cocycle(per_arrow)
    assert len(oracle) == n ** 3
    for (g, h), v in oracle.items():
        assert np.array_equal(w.value(g, h), v), (g, h)
    assert cocycle_identity_residual(w) == loop_identity_residual(
        oracle, per_arrow, n, dim)
    assert twist_is_admissible(w) == loop_is_admissible(oracle, n, dim)


def twisted_cases():
    """(name, n, dim, values, frame): twists with and without a frame, and
    twists that break the cocycle identity or admissibility.  The identity
    takes any d×d values, so one case has ⊕𝕋 values, which no model twist
    may have (``make_twist``)."""
    rng = np.random.default_rng(17)
    theta = rng.uniform(-1, 1, size=(4, 4))
    phases = twist_from_phases(theta - theta.T)
    yield "phases-4x1", 4, 1, {((x, y), (y, z)): phases.value((x, y), (y, z))
                               for x in range(4) for y in range(4)
                               for z in range(4)}, None
    # a diagonal coboundary per entry, twisted by a random frame: the
    # conjugation makes the identity fail, so product order shows
    t1, t2 = (rng.uniform(-1, 1, size=(3, 3)) for _ in range(2))
    t1, t2 = t1 - t1.T, t2 - t2.T
    values = {
        ((x, y), (y, z)): np.diag(np.exp(1j * np.array([
            t[x, y] + t[y, z] - t[x, z] for t in (t1, t2)])))
        for x in range(3) for y in range(3) for z in range(3)
    }
    yield "diagonal-3x2-framed", 3, 2, values, random_symmetric_frame(3, 2, rng)
    yield "non-cocycle", 3, 1, {((0, 1), (1, 2)): -1.0, ((2, 1), (1, 0)): -1.0}, None
    yield "twisted-8", 8, 1, {((0, 1), (1, 4)): np.exp(0.9j),
                              ((4, 1), (1, 0)): np.exp(-0.9j)}, None
    yield "inadmissible", 2, 1, {((0, 1), (1, 0)): -1.0}, None


TWISTED_CASES = {name: case for name, *case in twisted_cases()}


@pytest.mark.parametrize("name", TWISTED_CASES)
def test_stacked_twist_checks_match_triple_loop(name):
    n, dim, values, frame = TWISTED_CASES[name]
    twist = unchecked_cocycle(n, dim, values)
    if frame is not None:
        twist = Cocycle2(values=twist.values, frame=frame)
    as_matrices = {pair: twist.value(*pair) for pair in values}
    residual = cocycle_identity_residual(twist)
    assert residual == loop_identity_residual(as_matrices, frame, n, dim)
    admissible = twist_is_admissible(twist)
    assert admissible == loop_is_admissible(as_matrices, n, dim)
    assert admissible == (name != "inadmissible")
    if name == "phases-4x1":
        assert residual < 1e-12
    else:
        assert residual > 0.1


def error_text(run):
    with pytest.raises(ValueError) as excinfo:
        run()
    return type(excinfo.value), str(excinfo.value)


def broken_assignments():
    """(name, per-arrow assignment) that extract_cocycle must reject."""
    rng = np.random.default_rng(3)
    generic = random_symmetric_frame(3, 2, rng)
    yield "non-diagonal", {g: generic[g] for g in np.ndindex(3, 3)}
    broken = random_symmetric_frame(3, 2, rng)
    broken[(1, 0)] = haar_unitary(2, rng)
    yield "broken-involution", {g: broken[g] for g in np.ndindex(3, 3)}
    phases = phase_assignment(3, rng)
    yield "non-unit-arrow", {**phases, (2, 2): np.array([[1j]])}
    yield "non-unit-modulus", {**phases, (0, 1): 2 * phases[(0, 1)],
                               (1, 0): 2 * phases[(1, 0)]}


BROKEN_ASSIGNMENTS = dict(broken_assignments())


@pytest.mark.parametrize("name", BROKEN_ASSIGNMENTS)
def test_extraction_errors_match_pair_loop(name):
    assignment = BROKEN_ASSIGNMENTS[name]
    n = max(g[0] for g in assignment) + 1
    stacked = error_text(lambda: extract_cocycle(frame_array(assignment, n)))
    assert stacked == error_text(lambda: loop_extract_cocycle(assignment))


def test_semidirect_control_error_matches_pair_loop():
    # a random frame has holonomy round the 4-cycle: the oracle read-off's
    # assignment breaks u_(g*) = u_g*, and the stacked and per-pair forms
    # name the same arrow; the read-off refuses Φ for that holonomy, which
    # is the largest involution defect
    frame = random_symmetric_frame(4, 2, np.random.default_rng(0))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    phi = phi_from_covariance_group(covariance_group_from_frame(cycle_bisection(4), E))
    blocks = phi.blocks
    per_arrow = {(i, j): np.eye(2, dtype=complex) if i == j else blocks[i, j]
                 for i in range(4) for j in range(4)}
    stacked = error_text(lambda: oracle_read_off(phi))
    assert stacked == error_text(lambda: loop_extract_cocycle(per_arrow))
    assert stacked[1] == "assignment violates u_(g*) = u_g* at (0, 1)"
    involution = frame_defects(frame_array(per_arrow, 4))[1].max()
    h = operator_norms(blocks[range(4), range(4)] - np.eye(2)).max()
    assert involution == pytest.approx(h, rel=1e-12)
    assert error_text(lambda: read_off_pair(phi)) == (
        ValueError, f"holonomy {h:.3e} at point 1 exceeds eps")


def test_trivial_twist_defaults():
    w = make_twist(3, 1, {})
    assert np.allclose(w.value((0, 1), (1, 2)), [[1.0]])
    assert distance_from_trivial(w) <= 1e-9
    assert cocycle_identity_residual(w) <= 1e-9
    assert twist_is_admissible(w)


def test_make_twist_validation():
    """A model's twist value is v·I with |v| = 1: a diagonal unitary that is
    not scalar is refused as not scalar."""
    with pytest.raises(NotATwistError, match="non-unit modulus"):
        make_twist(2, 1, {((0, 1), (1, 0)): 2.0})
    with pytest.raises(NotATwistError, match="non-unit modulus"):
        make_twist(2, 2, {((0, 1), (1, 0)): 2.0 * np.eye(2)})
    with pytest.raises(NotATwistError, match=r"\(\(0, 1\), \(1, 0\)\) is not scalar"):
        make_twist(2, 2, {((0, 1), (1, 0)): np.array([[0, 1], [1, 0]])})
    with pytest.raises(NotATwistError, match=r"\(\(0, 1\), \(1, 0\)\) is not scalar"):
        make_twist(2, 2, {((0, 1), (1, 0)): np.diag([1.0, -1.0])})
    with pytest.raises(ValueError):
        make_twist(2, 2, {((0, 1), (1, 0)): np.eye(3)})
    w = make_twist(2, 2, {((0, 1), (1, 0)): -np.eye(2), ((1, 0), (0, 1)): 1j})
    assert np.array_equal(w.value((0, 1), (1, 0)), -np.eye(2))
    assert np.array_equal(w.value((1, 0), (0, 1)), 1j * np.eye(2))
    # within eps of v·I passes; the value is kept as given
    near = np.eye(2) + 1e-10 * np.array([[0, 1], [1, 0]])
    w = make_twist(2, 2, {((0, 1), (1, 0)): near})
    assert np.array_equal(w.value((0, 1), (1, 0)), near)


def test_twist_from_phases_is_admissible_cocycle():
    rng = np.random.default_rng(0)
    theta = rng.uniform(-1, 1, size=(4, 4))
    theta = theta - theta.T
    w = twist_from_phases(theta)
    assert twist_is_admissible(w)
    assert cocycle_identity_residual(w) < 1e-12
    assert distance_from_trivial(w) > 1e-9
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
    w = extract_cocycle(frame_array(assignment, n))
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
    w = extract_cocycle(frame_array(assignment, 5))
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
        extract_cocycle(frame_array(assignment, n))


def test_extract_precondition_errors():
    rng = np.random.default_rng(4)
    assignment = frame_array(phase_assignment(3, rng), 3)
    with pytest.raises(ValueError, match=r"\(n, n, d, d\)"):
        extract_cocycle(assignment[:, :2])
    broken = assignment.copy()
    broken[(0, 0)] = np.array([[1j]])
    with pytest.raises(ValueError, match=r"unit arrow \(0,0\)"):
        extract_cocycle(broken)
    broken = assignment.copy()
    broken[(1, 0)] = np.array([[1.0]])  # breaks u_(g*) = u_g*
    with pytest.raises(ValueError, match=r"u_g\* at \(0, 1\)"):
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
    w = extract_cocycle(frame_array(assignment, n))
    assert w.fibre_dim == 2
    assert w.frame is not None
    assert cocycle_identity_residual(w) < 1e-12
