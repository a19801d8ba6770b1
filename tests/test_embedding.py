import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fellkit.embedding
from fellkit.cli import build_preset, pipeline, run_phi
from fellkit.algebra import BlockSample, make_algebra
from fellkit.dynamics import (
    covariance_group,
    covariance_group_from_frame,
    make_spatial_automorphism,
)
from fellkit.embedding import (
    IncompleteSupportError,
    bridge_round_trip,
    cartan_from_fell_bundle,
    is_orientable,
    phi_from_covariance_group,
    read_off_pair,
)
from fellkit.fellbundle import (
    AxiomReport,
    CStarBundle,
    FellBundleModel,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
    diagonal_algebra,
    identity_frame,
)
from fellkit.groupoid import Bisection, cycle_bisection, identity_bisection
from fellkit.linalg import haar_unitaries, operator_norm
from fellkit.presets import flow_frame, random_symmetric_frame
from fellkit.subalgebra import classify_pair, is_normalizer

from fellkit.serialize import model_from_json

import readoff_oracle
from helpers import (
    ROT90_4X2,
    block_of,
    dense_invariant,
    dense_rank,
    distance_from_trivial,
    group_unitaries,
    random_matrix,
    traced_peak_bytes,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def dense(A, sample):
    """The (k, N, N) stack of a block-form sample."""
    return A.embed_blocks(sample.i, sample.j, sample.small)


def test_phi_with_varying_dims_partial_isometries():
    A = make_algebra([2, 1])
    v = np.zeros((2, 1), dtype=complex)
    v[0, 0] = 1.0
    phi = dense_invariant(
        A.embed_block(0, 0, np.eye(2)) + A.embed_block(1, 1, np.eye(1))
        + A.embed_block(0, 1, v) + A.embed_block(1, 0, v.conj().T),
        A.block_dims,
    )
    assert is_orientable(phi)
    readoff = read_off_pair(phi)
    assert readoff.omega is None
    assert "varying block ranks" in readoff.note
    assert readoff.A.block_dims == (2, 1)
    assert is_normalizer(dense(readoff.A, readoff.normalizer_sample), readoff.A).all()


def test_partition_form_matches_expanded_double_loop():
    frame, g = flow_frame(4, 2, rng_for(3))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    phi = phi_from_covariance_group(Gs)
    # expand Σ_m Π_i U_{g_i} literally as repeated matrix products
    sigma_U = Gs.sigma.U
    total = np.zeros_like(phi.matrix())
    for m in range(1, Gs.flow.order + 1):
        product = np.eye(sigma_U.shape[0], dtype=complex)
        for _ in range(m):
            product = product @ sigma_U
        total += product
    assert operator_norm(total - phi.matrix()) < 1e-12


def assert_phi_matches_the_dense_oracle(Gs):
    """Φ's blocks and assembled matrix equal the dense oracle, the sum of
    σ's (order, N, N) stack of powers, bit for bit (−0.0 ≠ 0.0), and each
    generator support equals the oracle's block-norm table at eps."""
    A = make_algebra(Gs.fibre_dims)
    stack = group_unitaries(Gs)
    phi = phi_from_covariance_group(Gs)
    assert np.array_equal(bits(phi.blocks), bits(A.blocks(stack.sum(axis=0))))
    assert np.array_equal(bits(phi.matrix()), bits(stack.sum(axis=0)))
    for eps, k in itertools.product((1e-9, 0.5), (0, 1 % Gs.flow.order)):
        table = A.block_norms(stack[k]) > eps
        assert Gs.support(k, eps) == {(int(i), int(j)) for i, j in np.argwhere(table)}


def preset_group(name, **sizes):
    args = SimpleNamespace(**{"n": 4, "dims": "2,1,3", "points": 4, "dim": 2, "seed": 0,
                              **sizes})
    E, g = build_preset(name, args, 1e-9)
    return covariance_group_from_frame(g, E)


def rotation_group(n, w):
    """σ along x ↦ x + 1 with every fibre map w: not a frame's group unless
    wⁿ = I, but Φ is built all the same."""
    w = np.asarray(w, dtype=complex)
    return covariance_group(make_spatial_automorphism(cycle_bisection(n), [w] * n,
                                                      (len(w),) * n))


ROT90 = [[0, -1], [1, 0]]
SIGNED_ZEROS = [[1, complex(-0.0, -0.0)], [complex(-0.0, -0.0), 1]]


def phi_oracle_models():
    yield "fourpoint", preset_group("fourpoint")
    yield "diag-masa 6", preset_group("diag-masa", n=6)
    for n, d in [(1, 1), (4, 2), (8, 1), (5, 3), (96, 1)]:
        yield f"flow {n}x{d}", preset_group("flow", points=n, dim=d)
    for n, d in [(4, 2), (3, 3), (6, 1)]:
        yield f"semidirect {n}x{d}", preset_group("semidirect", points=n, dim=d)
    E, g = model_from_json(ROT90_4X2)
    yield "ROT90_4X2", covariance_group_from_frame(g, E)
    for n in (3, 5):
        yield f"rot90 n={n}", rotation_group(n, ROT90)
    for n in (1, 2, 3, 5):
        yield f"signed zeros n={n}", rotation_group(n, SIGNED_ZEROS)
    # maps of norm 0, 0.3 and 1: the supports drop some at eps 1e-9 and 0.5
    Gs = preset_group("flow", points=5, dim=2)
    scale = np.random.default_rng(7).choice([0.0, 0.3, 1.0], Gs.maps.shape[:2])
    yield "damped flow 5x2", replace(Gs, maps=Gs.maps * scale[..., None, None])


@pytest.mark.parametrize("Gs", [pytest.param(Gs, id=name) for name, Gs in phi_oracle_models()])
def test_phi_blocks_match_the_dense_stack_oracle(Gs):
    assert_phi_matches_the_dense_oracle(Gs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 3), st.booleans())
def test_phi_blocks_match_the_dense_stack_oracle_on_random_flows(seed, n, d, signed):
    """σ along a random n-cycle, with Haar fibre maps or signed permutation
    matrices (whose products hold −0.0)."""
    rng = np.random.default_rng(seed)
    cycle, perm = rng.permutation(n), np.empty(n, dtype=int)
    perm[cycle] = np.roll(cycle, -1)
    if signed:
        maps = [np.eye(d, dtype=complex)[rng.permutation(d)] * rng.choice([-1, 1], d)
                for _ in range(n)]
    else:
        maps = list(haar_unitaries(n, d, rng))
    Gs = covariance_group(make_spatial_automorphism(Bisection(tuple(int(x) for x in perm)),
                                                    maps, (d,) * n))
    assert_phi_matches_the_dense_oracle(Gs)


def test_phi_requires_minimal_flow():
    sigma = make_spatial_automorphism(
        identity_bisection(3), [np.eye(1)] * 3, (1, 1, 1)
    )
    Gs = covariance_group(sigma)
    with pytest.raises(IncompleteSupportError) as excinfo:
        phi_from_covariance_group(Gs)
    assert (0, 1) in excinfo.value.missing


def test_phi_single_point():
    sigma = make_spatial_automorphism(
        identity_bisection(1), [np.eye(2)], (2,)
    )
    phi = phi_from_covariance_group(covariance_group(sigma))
    assert np.array_equal(phi.matrix(), np.eye(2))
    readoff = read_off_pair(phi)
    assert readoff.A.block_dims == (2,)
    assert readoff.omega is not None and distance_from_trivial(readoff.omega) <= 1e-9


def test_phi_from_block_units_all_ones():
    # scalar block units e_ij on 4 points, summed over the orbits of a 4-cycle
    sigma = make_spatial_automorphism(
        cycle_bisection(4), [np.eye(1)] * 4, (1, 1, 1, 1)
    )
    phi = phi_from_covariance_group(covariance_group(sigma))
    assert np.array_equal(phi.matrix(), np.ones((4, 4)))
    # rank 1 as a matrix, yet full block support
    assert np.linalg.matrix_rank(phi.matrix()) == 1
    assert len(phi.block_support()) == 16
    assert is_orientable(phi)


def test_orientability_detects_vanishing_blocks():
    phi = dense_invariant(np.ones((3, 3), dtype=complex), (1, 1, 1))
    # rank 1 as a matrix, yet full block support
    assert np.linalg.matrix_rank(phi.matrix()) == 1
    assert len(phi.block_support()) == 9
    assert is_orientable(phi)
    killed = phi.matrix()
    killed[0, 2] = 0.0
    assert not is_orientable(dense_invariant(killed, phi.block_dims))
    with pytest.raises(ValueError):
        read_off_pair(dense_invariant(killed, phi.block_dims))


def per_block_orientable(phi, eps=1e-9):
    """Orientability one block at a time: every block is nonzero and has
    full rank min(nᵢ, nⱼ)."""
    A = phi.algebra
    return all(
        operator_norm(block_of(A, phi.matrix(), i, j)) > eps
        and dense_rank(block_of(A, phi.matrix(), i, j), eps) == min(A.block_dims[i],
                                                               A.block_dims[j])
        for i in range(A.n_blocks)
        for j in range(A.n_blocks)
    )


def orientability_cases():
    rng = rng_for(6)
    ragged = dense_invariant(random_matrix((6, 6), rng), (1, 2, 3))
    deficient = ragged.matrix()
    deficient[3:, 3:] = np.outer(random_matrix((3, 1), rng), random_matrix((1, 3), rng))
    vanishing = ragged.matrix()
    vanishing[1:3, 3:] = 0.0
    tiny = ragged.matrix()
    tiny[0, 1:3] *= 1e-12  # full rank, yet within eps of zero
    frame, _ = flow_frame(3, 2, rng)
    return {
        "ragged": (ragged, True),
        "rank-deficient": (dense_invariant(deficient, (1, 2, 3)), False),
        "vanishing": (dense_invariant(vanishing, (1, 2, 3)), False),
        "tiny": (dense_invariant(tiny, (1, 2, 3)), False),
        "ones": (dense_invariant(np.ones((3, 3), dtype=complex), (1, 1, 1)), True),
        "zero": (dense_invariant(np.zeros((4, 4), dtype=complex), (2, 2)), False),
        "flow": (dense_invariant(
            frame.transpose(0, 2, 1, 3).reshape(6, 6), (2, 2, 2)), True),
    }


@pytest.mark.parametrize("name", list(orientability_cases()))
def test_is_orientable_matches_per_block_ranks(name):
    phi, expected = orientability_cases()[name]
    assert per_block_orientable(phi) == expected
    assert is_orientable(phi) == expected


def test_read_off_masa_pair():
    frame, g = flow_frame(4, 1, rng_for(5))
    E = build_semidirect_bundle(CStarBundle((1,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    readoff = read_off_pair(phi_from_covariance_group(Gs))
    assert readoff.A.block_dims == (1, 1, 1, 1)
    assert readoff.B.block_dims == (4,)
    b = np.arange(16, dtype=complex).reshape(4, 4)
    assert np.array_equal(readoff.P(b), np.diag(np.diagonal(b)))
    assert is_normalizer(dense(readoff.A, readoff.normalizer_sample), readoff.A).all()
    # dim-1 blocks are unit scalars
    for i in range(4):
        for j in range(4):
            assert abs(abs(readoff.assignment[(i, j)][0, 0]) - 1.0) < 1e-12


def bits(a):
    """The IEEE bit patterns of a complex array: -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("name", ["ragged", "flow"])
def test_read_off_sample_matches_embed_block_loop(name):
    """The sample is Φ's n² blocks, row-major: its dense stack equals one
    embed_block per block of Φ bit for bit, the diagonal blocks of Φ
    included (the assignment's identities do not leak into it)."""
    phi = orientability_cases()[name][0]
    A = phi.algebra
    oracle = [A.embed_block(i, j, phi.matrix()[np.ix_(range(o, o + ni), range(p, p + nj))])
              for i, (o, ni) in enumerate(zip(A.block_offsets, A.block_dims))
              for j, (p, nj) in enumerate(zip(A.block_offsets, A.block_dims))]
    readoff = read_off_pair(phi)
    sample = readoff.normalizer_sample
    assert len(sample) == len(sample.small) == A.n_blocks ** 2
    assert np.array_equal(bits(dense(A, sample)), bits(oracle))
    if readoff.assignment is not None:
        assert not np.shares_memory(sample.small, readoff.assignment)


def cartan_sample_models():
    frame, _ = flow_frame(3, 2, rng_for(4))
    return {
        "imprimitivity-2,1,3": build_imprimitivity_bundle((2, 1, 3)),
        "masa-4": build_semidirect_bundle(CStarBundle((1,) * 4)),
        "random-frame-3x2": build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame),
        # -1 and -0.0 entries: the sample keeps the signs of E_rc·u's zeros
        "negated-frame": FellBundleModel((2, 2, 2), frame=-identity_frame(3, 2)),
        "zero-fibre": FellBundleModel((2, 1, 3), zero_fibres=frozenset({(0, 2)})),
        "all-zero": FellBundleModel((1, 2), zero_fibres=frozenset(
            {(0, 0), (0, 1), (1, 0), (1, 1)})),
    }


def bundle_sample(E):
    """Oracle: the bundle's own normalizer sample, which the pair stage
    once formed and ranked: the off-diagonal units E_rc of A.unit_blocks()
    at the nonzero fibres, times u_(x,y) in coefficient form."""
    A = diagonal_algebra(E)
    off = ~np.eye(A.n_blocks, dtype=bool)
    for g in E.zero_fibres:
        off[g] = False
    units = A.unit_blocks()
    keep = off[units.i, units.j]
    x, y, small = units.i[keep], units.j[keep], units.small[keep]
    return BlockSample(x, y, small @ E.frame[x, y] if E.coefficient_form else small)


@pytest.mark.parametrize("name", list(cartan_sample_models()))
def test_cartan_sample_matches_per_element_embed(name):
    """The oracle sample is the fibre bases, embedded one element at a time."""
    E = cartan_sample_models()[name]
    oracle = [E.embed(g, e) for g in E.groupoid.arrows() if g[0] != g[1]
              for e in E.fibre_basis(g)]
    N = sum(E.fibre_dims)
    got = dense(diagonal_algebra(E), bundle_sample(E))
    assert got.shape == (len(oracle), N, N)
    assert np.array_equal(bits(got), bits(np.array(oracle, complex).reshape(-1, N, N)))


def with_frame_entry(n, d, g, entry):
    """The identity frame on n points with u_g = entry and u_g* = entry*."""
    frame = identity_frame(n, d)
    frame[g], frame[g[::-1]] = entry, np.conj(entry).T
    return FellBundleModel((d,) * n, frame=frame)


def structural_rank_models(eps):
    rng = rng_for(1)
    flows = {f"flow-{n}x{d}": build_semidirect_bundle(
        CStarBundle((d,) * n), frame=flow_frame(n, d, rng)[0])
        for n, d in ((4, 2), (8, 1), (3, 3))}
    orders = {f"imprimitivity-{','.join(map(str, dims))}": build_imprimitivity_bundle(dims)
              for dims in itertools.permutations((1, 2, 3, 4))}
    return {
        **cartan_sample_models(), **flows, **orders,
        "fourpoint": build_semidirect_bundle(CStarBundle((1,) * 4)),
        "diag-masa-6": build_semidirect_bundle(CStarBundle((1,) * 6)),
        "semidirect-4x2": build_semidirect_bundle(
            CStarBundle((2,) * 4), frame=random_symmetric_frame(4, 2, rng)),
        "one-point": build_imprimitivity_bundle((3,)),
        "one-point-frame": FellBundleModel((2,), frame=identity_frame(1, 2)),
        "zero-fibre-frame": FellBundleModel((2, 2, 2), frame=flow_frame(3, 2, rng)[0],
                                            zero_fibres=frozenset({(1, 2), (2, 1)})),
        # a singular value below eps·top at every eps, and one below it at 0.9
        "tiny-singular-value": with_frame_entry(3, 2, (0, 1), np.diag([1.0, 1e-12])),
        "mid-singular-value": with_frame_entry(3, 2, (0, 1), np.diag([1.0, 0.7])),
        # the global top is 1 + eps/2: at eps 0.9 every value 1.0 drops
        "top-above-one": with_frame_entry(3, 2, (0, 1), np.diag([1 + eps / 2, 1.0])),
        "top-above-one-scalar": with_frame_entry(4, 1, (2, 0), np.eye(1) * (1 + eps / 2)),
    }


@pytest.mark.parametrize("eps", [1e-9, 0.5, 0.9])
def test_structural_pair_ranks_match_the_sample_oracle(eps):
    """The pair stage's ranks from block structure and frame equal the
    grouped span_dimension on the sample it once formed: regularity, the
    free span and the verdict, on every model and at every eps."""
    free = {}
    for name, E in structural_rank_models(eps).items():
        # the axiom suite is not under test: some models fail it on purpose
        pair, got, _ = cartan_from_fell_bundle(E, eps, axioms=AxiomReport([True], [0.0]))
        want = classify_pair(pair, bundle_sample(E), eps)
        assert got.as_dict() == want.as_dict(), name
        free[name] = got.evidence["free_normalizer_span_dim"], got.verdict
    # u_(0,1) and u_(1,0) each lose one value, twice over (d = 2)
    assert free["tiny-singular-value"] == (20, "neither")
    assert free["mid-singular-value"] == ((20, "neither") if eps == 0.9
                                          else (24, "diagonal"))
    # only the two values 1 + eps/2 survive at eps 0.9, each d times
    assert free["top-above-one"] == ((4, "neither") if eps == 0.9 else (24, "diagonal"))
    assert free["top-above-one-scalar"] == ((2, "neither") if eps == 0.9
                                            else (12, "diagonal"))
    assert free["one-point"] == (0, "diagonal")


def test_cartan_from_fell_bundle():
    pair, classification, report = cartan_from_fell_bundle(
        build_imprimitivity_bundle((2, 1))
    )
    assert report.all_passed
    assert classification.verdict == "diagonal"
    assert pair.A.block_dims == (2, 1)
    assert pair.B.block_dims == (3,)

    # dim-1 bundle on 4 points: the masa pair
    _, classification, _ = cartan_from_fell_bundle(
        build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    )
    assert classification.verdict == "diagonal"

    # the sample is the fibres b·u_g of a random frame: ker P has dim 36 - 12
    frame, _ = flow_frame(3, 2, rng_for(4))
    _, classification, _ = cartan_from_fell_bundle(
        build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame)
    )
    assert classification.verdict == "diagonal"
    assert classification.evidence["kernel_dim"] == 24
    assert classification.evidence["free_normalizer_span_dim"] == 24

    broken = FellBundleModel(fibre_dims=(1, 1), frame=np.full((2, 2, 1, 1), 2.0))
    with pytest.raises(ValueError):
        cartan_from_fell_bundle(broken)


def test_bridge_round_trip_small_instances():
    for seed, n, dim in [(0, 4, 1), (1, 3, 2), (2, 2, 2), (3, 2, 1)]:
        frame, g = flow_frame(n, dim, rng_for(seed))
        E = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        Gs = covariance_group_from_frame(g, E)
        report = bridge_round_trip(Gs)
        assert report["pass"], report
        assert report["block_dims_match"]
        assert report["omega_residual"] < 1e-9
        assert report["expectation_residual"] < 1e-9
        assert report["sigma_residual"] < 1e-9
        assert report["stages"] == ["phi", "read-off"]
        oracle = readoff_oracle.oracle_round_trip(Gs)
        assert oracle["pass"] and oracle["stages"][-1] == "read-off-recovered"


def test_bridge_round_trip_gates_on_recovered_phi(monkeypatch):
    """The oracle round trip: conjugating the recovered Φ by a diagonal
    unitary of A keeps its twist, expectation and generator, but not Φ, and
    the oracle fails."""
    recover = readoff_oracle.phi_from_covariance_group
    calls = []

    def conjugated_second(Gs, eps):
        phi = recover(Gs, eps)
        calls.append(Gs)
        if len(calls) == 2:
            d = np.diag(np.exp(1j * np.arange(len(phi.matrix()))))
            phi = dense_invariant(d @ phi.matrix() @ d.conj().T, phi.block_dims)
        return phi

    monkeypatch.setattr(readoff_oracle, "phi_from_covariance_group", conjugated_second)
    frame, g = flow_frame(4, 1, rng_for(0))
    E = build_semidirect_bundle(CStarBundle((1,) * 4), frame=frame)
    report = readoff_oracle.oracle_round_trip(covariance_group_from_frame(g, E))
    assert len(calls) == 2
    assert report["phi_residual"] > 0.1
    for key in ("omega_residual", "expectation_residual", "sigma_residual"):
        assert report[key] < 1e-9
    assert not report["pass"]


def test_round_trip_residual_table_names_every_residual_and_sets_the_entry():
    """The report's ``*_residual`` keys are exactly ``ROUND_TRIP_RESIDUALS``,
    and the CLI entry's residual is their max, the holonomy."""
    frame, g = flow_frame(4, 2, rng_for(1))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    check = run_phi("roundtrip", pipeline(E, g, 1e-9))
    report = check["details"]
    names = fellkit.embedding.ROUND_TRIP_RESIDUALS
    assert sorted(f"{r}_residual" for r in names) == sorted(
        k for k in report if k.endswith("_residual"))
    assert check["residual"] == max(report[f"{r}_residual"] for r in names)
    assert check["residual"] == report["holonomy_residual"] > 0.0
    assert check["pass"] and report["pass"]


def test_bridge_round_trip_gates_on_recovered_block_dims(monkeypatch):
    """The oracle round trip: a recovered read-off whose A has other block
    dims (the same ambient dim, twist and Φ) fails on its expectation
    alone."""
    read_off = readoff_oracle.oracle_read_off
    calls = []

    def regrouped_second(phi, eps):
        readoff = read_off(phi, eps)
        calls.append(phi)
        if len(calls) == 2:
            readoff.A = make_algebra([1, 3, 2, 2])
        return readoff

    monkeypatch.setattr(readoff_oracle, "oracle_read_off", regrouped_second)
    frame, g = flow_frame(4, 2, rng_for(0))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    report = readoff_oracle.oracle_round_trip(covariance_group_from_frame(g, E))
    assert len(calls) == 2
    assert report["expectation_residual"] == 1.0
    assert report["block_dims_match"] is False
    for key in ("omega_residual", "sigma_residual", "phi_residual"):
        assert report[key] < 1e-9
    assert not report["pass"]


def test_bridge_round_trip_sigma_residual_is_the_dense_norm(monkeypatch):
    """The oracle round trip: the recovered σ conjugated by the diagonal
    unitary ⊕ e^{ix²}·I, so w_x turns by a phase that depends on x.  The σ
    residual read off the fibre maps is ‖U − U′‖ of the two dense
    generators."""
    recover = readoff_oracle.covariance_group_from_frame
    groups, phases = [], []

    def turned(generator, E, eps):
        G = recover(generator, E, eps)
        alpha = np.arange(G.n_points) ** 2
        phases.append(np.exp(1j * (alpha[list(G.sigma.f0.perm)] - alpha)))
        groups.append(covariance_group(make_spatial_automorphism(
            G.sigma.f0, G.sigma.fibre_maps * phases[-1][:, None, None],
            G.fibre_dims, eps)))
        return groups[-1]

    monkeypatch.setattr(readoff_oracle, "covariance_group_from_frame", turned)
    frame, g = flow_frame(4, 2, rng_for(0))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    report = readoff_oracle.oracle_round_trip(Gs)
    dense_residual = operator_norm(groups[0].sigma.U - Gs.sigma.U)
    assert report["sigma_residual"] == pytest.approx(dense_residual, rel=0, abs=1e-12)
    assert report["sigma_residual"] == pytest.approx(
        np.abs(phases[0] - 1).max(), rel=0, abs=1e-12)
    assert len(set(np.round(np.abs(phases[0] - 1), 6))) > 1
    assert not report["pass"]


def test_bridge_round_trip_rejects_identity_generator():
    sigma = make_spatial_automorphism(
        identity_bisection(3), [np.eye(1)] * 3, (1, 1, 1)
    )
    with pytest.raises(RuntimeError, match="stage 'phi'"):
        bridge_round_trip(covariance_group(sigma))


def test_pair_stage_and_read_off_hold_block_samples():
    """At N = 48 the samples stay in block form.  A dense sample would be
    71 MB for the pair stage at flow 6×8 (1,920 units of 48 × 48) and 85 MB
    for the read-off at flow 48×1 (Φ's 2,304 blocks)."""
    frame, _ = flow_frame(6, 8, rng_for(0))
    E = build_semidirect_bundle(CStarBundle((8,) * 6), frame=frame)
    assert traced_peak_bytes(lambda: cartan_from_fell_bundle(E)) <= 24e6
    frame, g = flow_frame(48, 1, rng_for(0))
    E = build_semidirect_bundle(CStarBundle((1,) * 48), frame=frame)
    phi = phi_from_covariance_group(covariance_group_from_frame(g, E))
    assert traced_peak_bytes(lambda: read_off_pair(phi)) <= 16e6
