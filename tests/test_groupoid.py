import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fellkit.groupoid import (
    Bisection,
    PairGroupoid,
    all_bisections,
    cycle_bisection,
    cyclic_flow,
    identity_bisection,
    is_minimal_flow,
    orbit_pairs,
    self_adjoint_bisections,
)


def test_pair_groupoid_structure():
    G = PairGroupoid(3)
    assert len(G.arrows()) == 9
    assert G.compose((0, 1), (1, 2)) == (0, 2)
    assert G.inverse((0, 2)) == (2, 0)
    with pytest.raises(ValueError):
        G.compose((0, 1), (2, 0))
    with pytest.raises(ValueError):
        G.compose((0, 3), (3, 1))
    with pytest.raises(ValueError):
        PairGroupoid(0)


def test_composable_enumeration_counts():
    G = PairGroupoid(3)
    assert len(G.composable_pairs()) == 27


def test_groupoid_inverse_laws():
    G = PairGroupoid(4)
    for g in G.arrows():
        gi = G.inverse(g)
        assert G.compose(g, gi) == (g[0], g[0])
        assert G.compose(gi, g) == (g[1], g[1])


perm_strategy = st.integers(2, 6).flatmap(
    lambda n: st.permutations(list(range(n)))
)


@settings(max_examples=60, deadline=None)
@given(perm_strategy)
def test_bisection_inverse_and_graph(perm):
    g = Bisection(tuple(perm))
    inverse = Bisection(tuple(sorted(range(len(perm)), key=perm.__getitem__)))
    assert g.compose(inverse).is_identity()
    assert inverse.compose(g).is_identity()
    # graph is the transpose-flip of the inverse's graph
    assert {(y, x) for (x, y) in g.graph()} == inverse.graph()
    assert len(g.graph()) == g.n_points


def test_bisection_rejects_non_permutation():
    with pytest.raises(ValueError):
        Bisection((0, 0, 1))


def test_composition_order_convention():
    # s∘t applies t first
    s = Bisection((1, 0, 2))
    t = Bisection((2, 1, 0))
    assert s.compose(t).perm == tuple(s(t(x)) for x in range(3))


def test_self_adjoint_bisections_count_against_brute_force():
    # brute-force count of involutions on 4 points
    brute = [
        p for p in itertools.permutations(range(4))
        if all(p[p[x]] == x for x in range(4))
    ]
    assert len(brute) == 10
    found = self_adjoint_bisections(4)
    assert len(found) == 10
    assert {g.perm for g in found} == set(brute)
    # the three fixed-point-free pairings are among them
    for pairing in [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]:
        assert pairing in {g.perm for g in found}


def test_all_bisections_cap():
    assert len(all_bisections(4)) == 24
    with pytest.raises(ValueError):
        all_bisections(9)


def test_cycle_and_flow():
    g = cycle_bisection(4)
    assert g.perm == (1, 2, 3, 0)
    flow = cyclic_flow(g)
    assert flow.order == 4
    assert flow.elements[-1].is_identity()
    assert is_minimal_flow(g)
    assert not is_minimal_flow(identity_bisection(4))
    assert not is_minimal_flow(Bisection((1, 0, 2, 3)))
    assert is_minimal_flow(identity_bisection(1))


def test_orbit_pairs_cover_iff_minimal():
    n = 4
    full = {(x, y) for x in range(n) for y in range(n)}
    assert orbit_pairs(cycle_bisection(n)) == full
    assert orbit_pairs(identity_bisection(n)) == {(x, x) for x in range(n)}
    two_cycles = Bisection((1, 0, 3, 2))
    pairs = orbit_pairs(two_cycles)
    assert pairs != full
    assert (0, 2) not in pairs
