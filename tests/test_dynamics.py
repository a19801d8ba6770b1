import itertools

import numpy as np
import pytest

import fellkit.dynamics
from fellkit.algebra import make_algebra
from fellkit.cocycle import first_offender
from fellkit.dynamics import (
    CovarianceError,
    SpatialAutomorphism,
    a_dynamical_generation_check,
    check_unitary_normalizer_theorem,
    covariance_group,
    covariance_group_from_frame,
    make_spatial_automorphism,
    slice_from_bisection,
)
from fellkit.fellbundle import (
    CStarBundle,
    FellBundleModel,
    build_semidirect_bundle,
    diagonal_algebra,
    enveloping_algebra,
    identity_frame,
    is_saturated,
)
from fellkit.embedding import phi_from_covariance_group
from fellkit.groupoid import Bisection, cycle_bisection, cyclic_flow, identity_bisection
from fellkit.linalg import (
    as_matrix,
    haar_from_normals,
    haar_unitary,
    is_unitary,
    operator_norm,
    operator_norms,
    orthonormal_span_basis,
    unitarity_defects,
)
from fellkit.presets import flow_frame, random_symmetric_frame
from fellkit.subalgebra import (
    _columns_meet_one_block,
    is_normalizer,
    is_partial_bijection,
    normalizer_support,
    normalizes_by_table,
    slice_check,
)

from helpers import group_unitaries, random_matrix, random_spatial_automorphism


def rng_for(seed):
    return np.random.default_rng(seed)


def test_assembled_unitary_and_covariance_support():
    rng = rng_for(0)
    f0 = Bisection((1, 2, 0))
    s = random_spatial_automorphism(f0, (2, 2, 2), rng)
    U = s.U
    assert is_unitary(U)
    A = make_algebra([2, 2, 2])
    assert set(normalizer_support(U, A).pairs) == f0.graph()
    assert is_normalizer(U, A)


def test_assembled_unitary_is_built_once_and_read_only(monkeypatch):
    """σ's U is one embed_blocks, assembled on first use, cached and
    read-only."""
    s = random_spatial_automorphism(Bisection((1, 2, 0)), (2, 2, 2), rng_for(0))
    assemblies = []
    embed = fellkit.dynamics.FiniteCStarAlgebra.embed_blocks

    def counted(self, *args):
        assemblies.append(None)
        return embed(self, *args)

    monkeypatch.setattr(fellkit.dynamics.FiniteCStarAlgebra, "embed_blocks", counted)
    want = np.zeros((6, 6), dtype=complex)
    for x, w in enumerate(s.fibre_maps):
        want[2 * s.f0(x):2 * s.f0(x) + 2, 2 * x:2 * x + 2] = w
    assert np.array_equal(s.U, want)
    assert s.U is s.U
    assert len(assemblies) == 1
    with pytest.raises(ValueError):
        s.U[0, 0] = 1.0


def test_dimension_obstruction():
    swap = Bisection((1, 0))
    with pytest.raises(CovarianceError):
        make_spatial_automorphism(
            swap, [np.eye(1), np.eye(2)], (2, 1)
        )
    with pytest.raises(CovarianceError):
        make_spatial_automorphism(
            cycle_bisection(2), [np.eye(2), 2 * np.eye(2)], (2, 2)
        )
    # the identity base map is fine over varying dims
    make_spatial_automorphism(
        identity_bisection(3), [np.eye(n) for n in (2, 1, 3)], (2, 1, 3)
    )


def spatial_automorphism_per_point(f0, fibre_maps, fibre_dims, eps=1e-9):
    """make_spatial_automorphism's checks point by point, each map normed on
    its own by is_unitary: the oracle for its one stacked check."""
    dims = tuple(int(n) for n in fibre_dims)
    maps = np.zeros((len(dims), max(dims), max(dims)), dtype=complex)
    for x in range(len(dims)):
        if dims[x] != dims[f0(x)]:
            raise CovarianceError(
                f"fibre dims {dims[x]} at {x} and {dims[f0(x)]} at f0({x})={f0(x)} "
                "differ; a non-trivial base map needs matching dimensions"
            )
        w = as_matrix(fibre_maps[x])
        if w.shape != (dims[f0(x)], dims[x]) or not is_unitary(w, eps):
            raise CovarianceError(f"fibre map at {x} is not a unitary of the right shape")
        maps[x, :dims[x], :dims[x]] = w
    return maps


def sigma_cases():
    """(f0, maps, dims, eps): each fault kind ahead of each other kind, ragged
    dims, and eps at and beyond the edges."""
    rng = rng_for(17)
    ragged = (2, 1, 3, 1)
    haar = [haar_unitary(d, rng) for d in ragged]
    ident, nan = identity_bisection(4), np.full((3, 3), np.nan)
    swap23 = Bisection((0, 1, 3, 2))
    yield ident, haar, ragged, 1e-9
    yield ident, [haar[0], haar[1], haar[2] * (1 + 1e-7), haar[3]], ragged, 1e-6
    yield ident, [haar[0], haar[1], haar[2] * (1 + 1e-7), haar[3]], ragged, 1e-9
    yield ident, haar, ragged, float("nan")
    yield ident, [np.zeros((2, 2)), haar[1], np.zeros((3, 3)), haar[3]], ragged, 1.5
    # a bad map at 0 ahead of a dims mismatch at 2, and the reverse
    yield swap23, [2 * haar[0], haar[1], haar[2], haar[3]], ragged, 1e-9
    yield swap23, [haar[0], haar[1], haar[2], 2 * haar[3]], ragged, 1e-9
    yield Bisection((1, 0, 2, 3)), [haar[0], 2 * haar[1], haar[2], haar[3]], ragged, 1e-9
    # wrong shape, non-unitary and not a finite matrix, in several orders
    yield ident, [haar[0], np.eye(2), nan, 3 * haar[3]], ragged, 1e-9
    yield ident, [haar[0], 2 * haar[1], np.eye(2), haar[3]], ragged, 1e-9
    yield ident, [haar[0], nan[:1, :1], 2 * haar[2], np.eye(2)], ragged, 1e-9
    yield ident, [haar[0], haar[1], np.ones(3), 2 * haar[3]], ragged, 1e-9
    frame, g = flow_frame(5, 2, rng)
    yield g, frame[g.perm, range(5)], (2,) * 5, 1e-9
    maps = frame[g.perm, range(5)].copy()
    maps[3] *= 1 + 1e-6
    maps[4] = 0
    yield g, maps, (2,) * 5, 1e-9


@pytest.mark.parametrize("f0, maps, dims, eps", list(sigma_cases()))
def test_sigma_is_validated_as_the_per_point_oracle_does(f0, maps, dims, eps,
                                                         monkeypatch):
    try:
        expected = spatial_automorphism_per_point(f0, maps, dims, eps)
    except ValueError as exc:
        expected = (type(exc), str(exc))
    stacks = []
    monkeypatch.setattr(fellkit.dynamics, "unitarity_defects",
                        lambda a: stacks.append(a.shape) or unitarity_defects(a))
    try:
        got = make_spatial_automorphism(f0, maps, dims, eps).fibre_maps
    except ValueError as exc:
        got = (type(exc), str(exc))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert np.array_equal(bits(got), bits(expected))
    # one stacked check, unless a map that is not a finite matrix stops it
    assert len(stacks) == (expected[0] is not ValueError
                           if isinstance(expected, tuple) else 1)


def test_a_map_that_is_not_a_finite_matrix_raises_where_it_is_met():
    """Unitarity is checked after the per-point pass, so a map that is not a
    finite matrix raises as_matrix's ValueError even behind a non-unitary map
    (which the per-point oracle names first)."""
    ragged, f0 = (2, 1, 3, 1), identity_bisection(4)
    for x, bad in ((2, np.full((3, 3), np.nan)), (3, np.ones(1))):
        maps = [np.eye(d) for d in ragged]
        maps[1], maps[x] = 2 * maps[1], bad
        with pytest.raises(CovarianceError, match="fibre map at 1 "):
            spatial_automorphism_per_point(f0, maps, ragged)
        with pytest.raises(ValueError, match="non-finite|2-d") as exc:
            make_spatial_automorphism(f0, maps, ragged)
        assert exc.type is ValueError


def compose_automorphisms(
    s: SpatialAutomorphism, t: SpatialAutomorphism
) -> SpatialAutomorphism:
    """Apply t first, then s: base = s.f0 ∘ t.f0, U = s.U · t.U, one fibre
    map product per point.  Oracle for covariance_group's batched powers."""
    if s.fibre_dims != t.fibre_dims:
        raise CovarianceError("automorphisms over different bundles")
    f0 = s.f0.compose(t.f0)
    maps = np.array([
        s.fibre_maps[t.f0(x)] @ t.fibre_maps[x] for x in range(len(s.fibre_dims))
    ])
    return SpatialAutomorphism(f0=f0, fibre_maps=maps, fibre_dims=s.fibre_dims)


def composed_powers(sigma):
    """σ, σ², …, σ^order by repeated compose_automorphisms."""
    elements, power = [], sigma
    for _ in range(cyclic_flow(sigma.f0).order):
        elements.append(power)
        power = compose_automorphisms(power, sigma)
    return elements


def summed_blocks(s):
    """U of s as the sum of one embed_block per point, each fibre map cut
    back to its own dims."""
    A = make_algebra(s.fibre_dims)
    out = np.zeros((A.ambient_dim, A.ambient_dim), dtype=complex)
    for x, w in enumerate(s.fibre_maps):
        d = s.fibre_dims[x]
        out += A.embed_block(s.f0(x), x, w[:d, :d])
    return out


def summed_phi(elements):
    """Φ as Σ element.U, accumulated into zeros, each U from summed_blocks."""
    phi = np.zeros_like(elements[0].U)
    for element in elements:
        phi += summed_blocks(element)
    return phi


def test_composition_matches_matrix_product():
    rng = rng_for(1)
    dims = (2, 2, 2, 2)
    s = random_spatial_automorphism(Bisection((1, 2, 3, 0)), dims, rng)
    t = random_spatial_automorphism(Bisection((2, 0, 3, 1)), dims, rng)
    st = compose_automorphisms(s, t)
    assert np.allclose(st.U, s.U @ t.U, atol=1e-12)
    Gs = covariance_group(s)
    for k in range(1, Gs.flow.order):
        assert np.allclose(group_unitaries(Gs)[k], s.U @ group_unitaries(Gs)[k - 1],
                           atol=1e-12)


def test_covariance_group_is_cyclic():
    rng = rng_for(2)
    sigma = random_spatial_automorphism(cycle_bisection(3), (1, 1, 1), rng)
    Gs = covariance_group(sigma)
    assert Gs.flow.order == 3
    assert Gs.maps.shape == (3, 3, 1, 1)
    assert group_unitaries(Gs).shape == (3, 3, 3)
    for m, U in enumerate(group_unitaries(Gs), start=1):
        assert np.allclose(U, np.linalg.matrix_power(sigma.U, m))
    # the last power covers the identity bisection
    assert Gs.flow.elements[-1].is_identity()


def oracle_cases():
    """One covariance group per pytest.param."""
    for seed, (n, dim) in enumerate([(4, 2), (6, 3)]):
        frame, g = flow_frame(n, dim, rng_for(40 + seed))
        E = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        yield pytest.param(covariance_group_from_frame(g, E), id=f"flow {n}x{dim}")
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    yield pytest.param(covariance_group_from_frame(cycle_bisection(4), E),
                       id="fourpoint")
    sigma = random_spatial_automorphism(Bisection((2, 3, 0, 1)), (2, 1, 2, 1),
                                        rng_for(42))
    yield pytest.param(covariance_group(sigma), id="ragged 2,1,2,1")


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("Gs", list(oracle_cases()))
def test_covariance_group_matches_the_compose_oracle(Gs):
    """maps, the stack of U and Φ equal the per-point compose loop and the
    per-element sum bit for bit, the sign of zero included."""
    elements = composed_powers(Gs.sigma)
    assert len(elements) == Gs.flow.order
    assert [e.f0 for e in elements] == list(Gs.flow.elements)
    assert np.array_equal(bits(Gs.maps), bits([e.fibre_maps for e in elements]))
    assert np.array_equal(bits(group_unitaries(Gs)), bits([e.U for e in elements]))
    assert np.array_equal(bits(group_unitaries(Gs)),
                          bits([summed_blocks(e) for e in elements]))
    A = make_algebra(Gs.fibre_dims)
    B = make_algebra([A.ambient_dim])
    if len(set(Gs.fibre_dims)) == 1:
        phi = phi_from_covariance_group(Gs).matrix()
        assert np.array_equal(bits(phi), bits(summed_phi(elements)))
        assert a_dynamical_generation_check(Gs, A, B)
    else:
        # f0 = x ↦ x + 2 pairs the blocks {0, 2} and {1, 3}: no generation
        assert not a_dynamical_generation_check(Gs, A, B)
        assert not span_closure_generates(Gs, A)


def test_covariance_group_from_frame_round_trip():
    frame, g = flow_frame(4, 2, rng_for(3))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    for x in range(4):
        assert np.allclose(Gs.sigma.fibre_maps[x], frame[(g(x), x)])
    # trivial holonomy by construction: the n-th power is the identity
    assert operator_norm(group_unitaries(Gs)[-1] - np.eye(8)) < 1e-9


def test_frame_cocycle_relation():
    """u_g u_h = ω(g,h) u_{gh} for the orbit frame of a single generator."""
    from fellkit.embedding import phi_from_covariance_group, read_off_pair
    from fellkit.groupoid import PairGroupoid

    frame, g = flow_frame(4, 1, rng_for(4))
    E = build_semidirect_bundle(CStarBundle((1,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    readoff = read_off_pair(phi_from_covariance_group(Gs))
    omega = readoff.omega
    assignment = readoff.assignment
    G = PairGroupoid(4)
    worst = 0.0
    for a, b in G.composable_pairs():
        ab = G.compose(a, b)
        lhs = assignment[a] @ assignment[b]
        rhs = omega.value(a, b) @ assignment[ab]
        worst = max(worst, operator_norm(lhs - rhs))
    assert worst < 1e-9
    from fellkit.cocycle import cocycle_identity_residual

    assert cocycle_identity_residual(omega) < 1e-12


def test_unitary_normalizer_theorem_decided():
    """n automorphisms and m = n(n−1)/2 mixers, all passing, on a plain
    product and on a framed bundle with dim-2 fibres."""
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    assert check_unitary_normalizer_theorem(E) == {
        "automorphisms": 4, "forward_pass": 4, "mixers": 6, "converse_pass": 6,
        "pass": True,
    }
    frame = random_symmetric_frame(3, 2, rng_for(5))
    E2 = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame)
    assert check_unitary_normalizer_theorem(E2) == {
        "automorphisms": 3, "forward_pass": 3, "mixers": 3, "converse_pass": 3,
        "pass": True,
    }


def sampled_theorem(E, samples=100, eps=1e-9, rng=None):
    """Oracle: the theorem checked on random draws.  Forward: a base
    permutation, then one Haar unitary per point; converse: two blocks, then
    one Haar unitary on both; each sample draws from rng in turn, as it would
    one at a time.  Each direction factors its draws with one stacked QR and
    reads every predicate off the fibre blocks, as the decided check does."""
    if rng is None:
        rng = np.random.default_rng(0)
    if len(set(E.fibre_dims)) != 1:
        raise ValueError("theorem check needs constant fibre dimension")
    if not is_saturated(E, eps):
        raise ValueError("theorem check needs a saturated bundle")
    n, d = E.n_points, E.fibre_dims[0]
    k, points = np.arange(samples)[:, None], np.arange(n)

    perms = np.empty((samples, n), dtype=int)
    normals = np.empty((samples, n, 2, d, d))
    for s in range(samples):
        perms[s] = rng.permutation(n)
        normals[s] = rng.standard_normal((n, 2, d, d))
    maps = haar_from_normals(normals)
    bad = first_offender(unitarity_defects(maps) > eps)
    if bad is not None:
        raise CovarianceError(
            f"fibre map at {bad[1]} is not a unitary of the right shape")
    t = np.zeros((samples, n, n))
    t[k, perms, points] = operator_norms(maps.reshape(-1, d, d)).reshape(samples, n)
    graph = np.zeros((samples, n, n), dtype=bool)
    graph[k, perms, points] = True
    forward = normalizes_by_table(t, eps) & ((t > eps) == graph).all(axis=(1, 2))

    m = 2 * d if n >= 2 else d
    pairs = np.empty((samples, 2), dtype=int)
    normals = np.empty((samples, 2, m, m))
    for s in range(samples):
        if n >= 2:
            pairs[s] = rng.choice(n, size=2, replace=False)
        normals[s] = rng.standard_normal((2, m, m))
    mixers = haar_from_normals(normals)
    if n >= 2:
        t = np.zeros((samples, n, n))
        t[:, points, points] = 1.0
        quadrants = mixers.reshape(samples, 2, d, 2, d).swapaxes(2, 3)
        t[k[:, :, None], pairs[:, :, None], pairs[:, None, :]] = operator_norms(
            quadrants.reshape(-1, d, d)).reshape(samples, 2, 2)
    else:
        t = operator_norms(mixers)[:, None, None]
    support = t > eps
    on_bisection = is_partial_bijection(support) & (support.sum(axis=(1, 2)) == n)
    converse = on_bisection | ~normalizes_by_table(t, eps)

    forward_ok, converse_ok = int(forward.sum()), int(converse.sum())
    return {
        "samples": samples,
        "forward_pass": forward_ok,
        "converse_pass": converse_ok,
        "pass": forward_ok == samples and converse_ok == samples,
    }


def per_sample_theorem(E, samples=100, eps=1e-9, rng=None):
    """Oracle: sampled_theorem one sample at a time, one assembled
    automorphism or mixer and one set of predicates per sample."""
    if rng is None:
        rng = np.random.default_rng(0)
    if len(set(E.fibre_dims)) != 1:
        raise ValueError("theorem check needs constant fibre dimension")
    A = diagonal_algebra(E)
    n = E.n_points
    forward_ok = 0
    for _ in range(samples):
        f0 = Bisection(tuple(int(i) for i in rng.permutation(n)))
        s = random_spatial_automorphism(f0, E.fibre_dims, rng)
        u = s.U
        good = (
            is_unitary(u, eps)
            and is_normalizer(u, A, eps)
            and set(normalizer_support(u, A, eps).pairs) == f0.graph()
        )
        forward_ok += int(good)

    converse_ok = 0
    for _ in range(samples):
        if n >= 2:
            i, j = rng.choice(n, size=2, replace=False)
            dim = E.fibre_dims[0]
            mix = haar_unitary(2 * dim, rng)
            u = A.unit()
            oi, oj = A.block_offsets[i], A.block_offsets[j]
            idx = list(range(oi, oi + dim)) + list(range(oj, oj + dim))
            u[np.ix_(idx, idx)] = mix
        else:
            u = haar_unitary(A.ambient_dim, rng)
        support = normalizer_support(u, A, eps)
        on_bisection = support.is_partial_bijection and len(support.pairs) == n
        converse_ok += int(on_bisection or not is_normalizer(u, A, eps))
    return {
        "samples": samples,
        "forward_pass": forward_ok,
        "converse_pass": converse_ok,
        "pass": forward_ok == samples and converse_ok == samples,
    }


def dense_theorem(E, samples=100, eps=1e-9, rng=None):
    """Oracle: the same draws as sampled_theorem, with each direction
    assembled into one (samples, N, N) stack and every predicate
    read off the dense matrices (unitarity from U*U and UU*, tables from
    block_norms)."""
    A = diagonal_algebra(E)
    n, d, N = E.n_points, E.fibre_dims[0], A.ambient_dim
    k = np.arange(samples)[:, None]
    perms = np.empty((samples, n), dtype=int)
    normals = np.empty((samples, n, 2, d, d))
    for s in range(samples):
        perms[s] = rng.permutation(n)
        normals[s] = rng.standard_normal((n, 2, d, d))
    maps = haar_from_normals(normals)
    U = np.zeros((samples, n, d, n, d), dtype=complex)
    U[k, perms, :, np.arange(n), :] = maps
    U = U.reshape(samples, N, N)
    t = A.block_norms(U)
    graph = np.zeros((samples, n, n), dtype=bool)
    graph[k, perms, np.arange(n)] = True
    forward = ((unitarity_defects(U) <= eps) & normalizes_by_table(t, eps)
               & ((t > eps) == graph).all(axis=(1, 2)))

    m = 2 * d if n >= 2 else N
    pairs = np.empty((samples, 2), dtype=int)
    normals = np.empty((samples, 2, m, m))
    for s in range(samples):
        if n >= 2:
            pairs[s] = rng.choice(n, size=2, replace=False)
        normals[s] = rng.standard_normal((2, m, m))
    mixers = haar_from_normals(normals)
    if n >= 2:
        idx = (pairs[:, :, None] * d + np.arange(d)).reshape(samples, m)
        U = np.tile(A.unit(), (samples, 1, 1))
        U[k[:, :, None], idx[:, :, None], idx[:, None, :]] = mixers
    else:
        U = mixers
    t = A.block_norms(U)
    support = t > eps
    on_bisection = is_partial_bijection(support) & (support.sum(axis=(1, 2)) == n)
    converse = on_bisection | ~normalizes_by_table(t, eps)
    forward_ok, converse_ok = int(forward.sum()), int(converse.sum())
    return {
        "samples": samples,
        "forward_pass": forward_ok,
        "converse_pass": converse_ok,
        "pass": forward_ok == samples and converse_ok == samples,
    }


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("model", [
    ("flow", 4, 2), ("flow", 8, 1), ("flow", 3, 3), ("flow", 6, 4),
    ("flow", 2, 2), ("flow", 1, 3), ("semidirect", 3, 2),
], ids=lambda m: f"{m[0]} {m[1]}x{m[2]}")
def test_theorem_from_fibre_blocks_matches_dense_oracle(model, seed):
    """The fibre-block tables and defects give the verdicts of the dense
    (samples, N, N) stacks, bit for bit in the result dict."""
    kind, n, dim = model
    frame = (flow_frame(n, dim, rng_for(seed))[0] if kind == "flow"
             else random_symmetric_frame(n, dim, rng_for(seed)))
    E = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
    got = sampled_theorem(E, samples=100, rng=rng_for(seed))
    assert got == dense_theorem(E, samples=100, rng=rng_for(seed))


def test_identity_block_norm_is_exactly_one():
    """The converse writes 1.0 for each untouched diagonal block I_d."""
    for d in range(1, 9):
        assert diagonal_algebra(FellBundleModel((d, d))).block_norms(
            np.eye(2 * d))[0, 0] == 1.0


def theorem_models():
    """(name, saturated bundle of constant fibre dimension)."""
    yield "fourpoint", build_semidirect_bundle(CStarBundle((1,) * 4))
    for n, dim in [(4, 2), (8, 1)]:
        frame, _ = flow_frame(n, dim, rng_for(4))
        yield f"flow {n}x{dim}", build_semidirect_bundle(
            CStarBundle((dim,) * n), frame=frame)
    yield "semidirect 3x2", build_semidirect_bundle(
        CStarBundle((2,) * 3), frame=random_symmetric_frame(3, 2, rng_for(0)))
    yield "one point 1x3", build_semidirect_bundle(CStarBundle((3,)))


THEOREM_MODELS = dict(theorem_models())


# (seed, samples, eps): under the last two eps some two-block mixers
# normalize and some do not; at 0.8 a block row of a mixer can also meet no
# block above eps
ORACLE_CASES = [(0, 100, 1e-9), (1, 17, 1e-9), (2, 40, 1e-9), (3, 60, 0.6),
                (4, 60, 0.8)]


@pytest.mark.parametrize("name", THEOREM_MODELS)
@pytest.mark.parametrize("seed, samples, eps", ORACLE_CASES)
def test_theorem_matches_per_sample_loop(name, seed, samples, eps):
    E = THEOREM_MODELS[name]
    rng, oracle_rng = rng_for(seed), rng_for(seed)
    result = sampled_theorem(E, samples=samples, eps=eps, rng=rng)
    assert result == per_sample_theorem(E, samples, eps, rng=oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("name", THEOREM_MODELS)
@pytest.mark.parametrize("seed, samples, eps", ORACLE_CASES)
def test_decided_theorem_agrees_with_sampled_oracle(name, seed, samples, eps):
    """The verdict decided on the cycle powers and the angle grid is the
    sampled oracle's, on every model and at every eps above."""
    E = THEOREM_MODELS[name]
    got = check_unitary_normalizer_theorem(E, eps=eps)
    assert got["pass"] == sampled_theorem(E, samples, eps, rng=rng_for(seed))["pass"]


@pytest.mark.parametrize("seed, eps", [(3, 0.6), (4, 0.8)])
@pytest.mark.parametrize("name", ["fourpoint", "flow 4x2", "flow 8x1",
                                  "semidirect 3x2"])
def test_theorem_converse_count_is_not_all_or_nothing(name, seed, eps):
    """The last two oracle comparisons above compare a count, not a verdict:
    some of the sampled mixers pass the converse and some fail."""
    result = sampled_theorem(THEOREM_MODELS[name], samples=60, eps=eps,
                             rng=rng_for(seed))
    assert 0 < result["converse_pass"] < 60


def test_decided_converse_count_is_not_all_or_nothing():
    """On fourpoint, θ_k = kπ/14: at eps = 0.4 mixers 2 and 5 have both
    quadrant norms above eps (sin θ_2 = cos θ_5 ≈ 0.434) and their product
    at or below it (≈ 0.391), so they normalize and fail; 4 of 6 pass."""
    theta = np.arange(1, 7) * np.pi / 14
    c, s = np.cos(theta), np.sin(theta)
    fails = np.flatnonzero((c > 0.4) & (s > 0.4) & (c * s <= 0.4)) + 1
    assert fails.tolist() == [2, 5]
    result = check_unitary_normalizer_theorem(THEOREM_MODELS["fourpoint"], eps=0.4)
    assert result == {"automorphisms": 4, "forward_pass": 4, "mixers": 6,
                      "converse_pass": 4, "pass": False}


def table_converse_count(n, d, eps):
    """Oracle: the theorem-3.13 converse count read off the mixers' (m, n, n)
    block-norm tables, one table per mixer R(θ_k)⊗I_d, by the bisection and
    normalizer rules."""
    pairs = np.stack(np.triu_indices(n, 1), axis=1)  # (m, 2)
    m = len(pairs)
    theta = np.arange(1, m + 1) * np.pi / (2 * (m + 1))
    c, s = np.cos(theta), np.sin(theta)
    rotations = np.stack([c, -s, s, c], axis=1).reshape(m, 2, 2, 1, 1)
    t = np.zeros((m, n, n))
    t[:, range(n), range(n)] = 1.0
    t[np.arange(m)[:, None, None], pairs[:, :, None], pairs[:, None, :]] = (
        operator_norms((rotations * np.eye(d)).reshape(-1, d, d)).reshape(m, 2, 2))
    support = t > eps
    on_bisection = is_partial_bijection(support) & (support.sum(axis=(1, 2)) == n)
    return int((on_bisection | ~normalizes_by_table(t, eps)).sum())


@pytest.mark.parametrize("eps", [1e-9, 0.4, 0.6, 0.8, 1.0, 1.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_converse_from_quadrant_norms_matches_the_tables(d, eps, monkeypatch):
    """The converse count from c_k and s_k alone is the table oracle's for
    n = 2..8.  At eps ≥ 1 a caller is refused by the saturation check first,
    so it is bypassed here to reach the rule."""
    monkeypatch.setattr(fellkit.dynamics, "is_saturated", lambda E, eps: True)
    for n in range(2, 9):
        E = build_semidirect_bundle(CStarBundle((d,) * n))
        got = check_unitary_normalizer_theorem(E, eps=eps)["converse_pass"]
        assert got == table_converse_count(n, d, eps), n


def table_forward_count(E, eps):
    """Oracle: the theorem-3.13 forward count read off the n cycle powers'
    (n, n, n) block-norm tables, by the normalizer rule and support == graph."""
    n, d = E.n_points, E.fibre_dims[0]
    frame = identity_frame(n, d) if E.frame is None else E.frame
    k, x = np.divmod(np.arange(n * n), n)  # table k, column x
    y = (x + k) % n
    t = np.zeros((n, n, n))
    t[k, y, x] = operator_norms(frame.reshape(-1, d, d)).reshape(n, n)[y, x]
    graph = np.zeros((n, n, n), dtype=bool)
    graph[k, y, x] = True
    forward = normalizes_by_table(t, eps) & ((t > eps) == graph).all(axis=(1, 2))
    return int(forward.sum())


@pytest.mark.parametrize("eps", [1e-9, 0.5, 0.7, 0.9])
def test_forward_from_frame_norms_matches_the_tables(eps):
    """The forward count from the frame norms alone is the table oracle's on
    plain products, flow frames and symmetric frames, n = 1..8, d = 1..3."""
    for n, d in itertools.product(range(1, 9), range(1, 4)):
        for frame in (None, flow_frame(n, d, rng_for(n))[0],
                      random_symmetric_frame(n, d, rng_for(n))):
            E = build_semidirect_bundle(CStarBundle((d,) * n), frame=frame)
            got = check_unitary_normalizer_theorem(E, eps=eps)["forward_pass"]
            assert got == table_forward_count(E, eps) == n, (n, d)


@pytest.mark.parametrize("eps", [0.7, 0.9])
def test_forward_counts_powers_through_a_short_fibre_map(eps):
    """u_(1,0) = u_(0,1) = 0.62 passes unitarity (defect 0.6156) but not the
    support test: powers 1 and 3 of the 4-cycle hold them, so 2 of 4 pass."""
    frame = identity_frame(4, 1)
    frame[1, 0] = frame[0, 1] = 0.62
    E = FellBundleModel(fibre_dims=(1,) * 4, frame=frame)
    got = check_unitary_normalizer_theorem(E, eps=eps)
    assert got["forward_pass"] == table_forward_count(E, eps) == 2
    assert not got["pass"]


def test_theorem_needs_a_saturated_bundle():
    # a singular frame entry leaves the product fibres short of full rank
    frame = identity_frame(3, 2)
    frame[0, 1] = frame[1, 0] = np.diag([1.0, 0.0])
    E = FellBundleModel(fibre_dims=(2, 2, 2), frame=frame)
    with pytest.raises(ValueError, match="saturated"):
        check_unitary_normalizer_theorem(E)


def test_theorem_rejects_a_non_unitary_fibre_map():
    """A frame doubled at (1, 3) and (3, 1), built without validation, is
    still saturated; the error names the first arrow in row-major order, as
    a model file keys it."""
    frame, _ = flow_frame(4, 2, rng_for(4))
    frame[1, 3] *= 2
    frame[3, 1] *= 2
    E = FellBundleModel(fibre_dims=(2,) * 4, frame=frame)
    with pytest.raises(CovarianceError,
                       match=r"^fibre map at \(2,4\) is not a unitary of the right shape$"):
        check_unitary_normalizer_theorem(E)


def test_theorem_svd_and_qr_counts(monkeypatch):
    """No QR, and no SVD at d = 1, where the norm kernel norms every 1×1
    block.  At d = 2 the SVD count does not grow with n."""
    calls = []

    def counted(run):
        def wrapper(*args, **kwargs):
            calls.append(run.__name__)
            return run(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", counted(np.linalg.qr))

    def counts(E):
        calls.clear()
        assert check_unitary_normalizer_theorem(E)["pass"]
        return calls.count("svd"), calls.count("qr")

    for d1 in ("fourpoint", "flow 8x1"):
        assert counts(THEOREM_MODELS[d1]) == (0, 0)
    wide = {counts(build_semidirect_bundle(CStarBundle((2,) * n),
                                           frame=flow_frame(n, 2, rng_for(n))[0]))
            for n in (2, 4, 6)}
    # one stacked SVD each, of the frame's audit: its singular values, which
    # decide saturation and give the frame norms; the builder read its
    # unitarity defects
    assert wide == {(1, 0)}
    assert counts(THEOREM_MODELS["one point 1x3"])[1] == 0


def test_generation_needs_minimal_flow():
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    A = diagonal_algebra(E)
    B = enveloping_algebra(E)
    assert a_dynamical_generation_check(
        covariance_group_from_frame(cycle_bisection(4), E), A, B
    )
    assert not a_dynamical_generation_check(
        covariance_group_from_frame(identity_bisection(4), E), A, B
    )
    assert not a_dynamical_generation_check(
        covariance_group_from_frame(Bisection((1, 0, 2, 3)), E), A, B
    )


def test_generation_with_nonscalar_fibres():
    frame, g = flow_frame(3, 2, rng_for(6))
    E = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    assert a_dynamical_generation_check(
        Gs, diagonal_algebra(E), enveloping_algebra(E)
    )


def reachability_generates(Gs, A, eps=1e-9):
    """Oracle: the boolean closure ⋃_k S^k of σ's block support S, read off
    the block-norm table of σ's U, covers every block pair."""
    step = A.block_norms(Gs.sigma.U) > eps
    reach = np.eye(A.n_blocks, dtype=bool)
    for _ in range(A.n_blocks - 1):  # a path needs fewer than n_blocks steps
        reach = reach | (reach @ step)
    return bool(reach.all())


def span_closure_generates(Gs, A, eps=1e-9):
    """The definition: close span(A) under s ↦ s·σ·a over a in basis(A) and
    test whether the span is all of M_N.  Brute-force oracle for
    a_dynamical_generation_check."""
    sigma = Gs.sigma.U
    a_basis = A.basis()
    span = orthonormal_span_basis(a_basis, eps)
    while True:
        grown = orthonormal_span_basis(
            span + [s @ sigma @ a for s in span for a in a_basis], eps
        )
        if len(grown) == len(span):
            return len(span) == A.ambient_dim ** 2
        span = grown


def with_fibre_map(Gs, x, w):
    """Gs with σ's fibre map at x replaced by w, bypassing validation."""
    maps = Gs.sigma.fibre_maps.copy()
    maps[x] = w
    return covariance_group(SpatialAutomorphism(Gs.sigma.f0, maps, Gs.fibre_dims))


def generation_cases():
    """(covariance group, bundle, expected verdict), one pytest.param each."""
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    for label, g, expected in [
        ("cycle", cycle_bisection(4), True),
        ("identity", identity_bisection(4), False),
        ("transposition", Bisection((1, 0, 2, 3)), False),
        ("double transposition", Bisection((1, 0, 3, 2)), False),
    ]:
        yield pytest.param(covariance_group_from_frame(g, E), E, expected, id=label)
    for seed, (n, dim) in enumerate([(3, 2), (4, 2), (8, 1)]):
        frame, g = flow_frame(n, dim, rng_for(seed))
        F = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        Gs = covariance_group_from_frame(g, F)
        yield pytest.param(Gs, F, True, id=f"flow {n}x{dim}")
    for seed, (n, dim) in enumerate([(3, 2), (4, 1), (2, 3)], start=20):
        frame = random_symmetric_frame(n, dim, rng_for(seed))
        F = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        Gs = covariance_group_from_frame(cycle_bisection(n), F)
        yield pytest.param(Gs, F, True, id=f"symmetric {n}x{dim}")
    frame, g = flow_frame(4, 2, rng_for(30))
    F = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, F)
    # a vanishing fibre map cuts the orbit: some block pair is never reached
    yield pytest.param(with_fibre_map(Gs, 2, np.zeros((2, 2))), F, False,
                       id="zero fibre map")
    # a nonzero but rank-deficient block still fills its whole block pair
    yield pytest.param(with_fibre_map(Gs, 1, np.diag([1.0, 0.0])), F, True,
                       id="rank-deficient block")


@pytest.mark.parametrize("Gs, E, expected", list(generation_cases()))
def test_generation_matches_span_closure(Gs, E, expected):
    A, B = diagonal_algebra(E), enveloping_algebra(E)
    verdict = a_dynamical_generation_check(Gs, A, B)
    assert verdict == reachability_generates(Gs, A) == expected
    assert verdict == span_closure_generates(Gs, A)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(4))),
                         ids=lambda p: "".join(map(str, p)))
def test_generation_matches_both_oracles_on_every_base_map(perm):
    """Every base permutation of 4 scalar points, as built and with a zero
    fibre map at each point in turn: the verdict is the reachability
    closure's and the span closure's."""
    E = build_semidirect_bundle(CStarBundle((1,) * 4))
    A, B = diagonal_algebra(E), enveloping_algebra(E)
    Gs = covariance_group_from_frame(Bisection(perm), E)
    for G in [Gs] + [with_fibre_map(Gs, x, np.zeros((1, 1))) for x in range(4)]:
        verdict = a_dynamical_generation_check(G, A, B)
        assert verdict == reachability_generates(G, A) == span_closure_generates(G, A)


@pytest.mark.parametrize("d", [1, 2])
def test_generation_on_one_point(d):
    """At n = 1, A = B: generated even by a zero fibre map."""
    E = build_semidirect_bundle(CStarBundle((d,)))
    A, B = diagonal_algebra(E), enveloping_algebra(E)
    Gs = covariance_group_from_frame(identity_bisection(1), E)
    for G in (Gs, with_fibre_map(Gs, 0, np.zeros((d, d)))):
        assert a_dynamical_generation_check(G, A, B)
        assert reachability_generates(G, A) and span_closure_generates(G, A)


def test_generation_rejects_a_mismatched_A():
    """A = M₂ against σ on fibres (1, 1): same ambient dim, other blocks."""
    E = build_semidirect_bundle(CStarBundle((1, 1)))
    Gs = covariance_group_from_frame(cycle_bisection(2), E)
    with pytest.raises(ValueError, match="not σ's fibres"):
        a_dynamical_generation_check(Gs, make_algebra([2]), enveloping_algebra(E))


def basis_loop_endomorphism(v, A, eps=1e-9):
    """The definition: vav* lies in A for every matrix unit a of A."""
    return all(A.contains(v @ a @ v.conj().T, eps) for a in A.basis())


@pytest.mark.parametrize("dims", [(1, 2, 3), (2, 2, 2)])
def test_endomorphism_into_A_matches_basis_loop(dims):
    """The column half of the normalizer rule decides vAv* ⊆ A.  Random
    block-sparse v whose blocks have scale 1, 1e-6 or 1e-12, so a block
    column's two largest norms multiply far above or far below eps."""
    rng = rng_for(17)
    A = make_algebra(dims)
    n = len(dims)
    verdicts = set()
    for _ in range(80):
        v = np.zeros((A.ambient_dim, A.ambient_dim), dtype=complex)
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.4:
                    scale = rng.choice([1.0, 1e-6, 1e-12])
                    block = random_matrix((dims[i], dims[j]), rng)
                    v += scale * A.embed_block(i, j, block)
        endo = _columns_meet_one_block(A.block_norms(v), 1e-9)
        assert endo == basis_loop_endomorphism(v, A)
        verdicts.add(endo)
    assert verdicts == {True, False}


def test_slice_from_self_adjoint_bisection():
    A = make_algebra([1, 1, 1, 1])
    swap = Bisection((1, 0, 3, 2))
    s = make_spatial_automorphism(
        swap, [np.eye(1)] * 4, (1, 1, 1, 1)
    )
    M = slice_from_bisection(s)
    report = slice_check(M, A)
    assert report["bimodule"] and report["hilbert"]
    with pytest.raises(ValueError):
        slice_from_bisection(
            make_spatial_automorphism(
                cycle_bisection(4), [np.eye(1)] * 4, (1, 1, 1, 1)
            )
        )

