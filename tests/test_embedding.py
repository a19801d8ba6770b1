import numpy as np
import pytest

import fellkit.embedding
from fellkit.cli import run_phi
from fellkit.algebra import make_algebra
from fellkit.dynamics import (
    covariance_group,
    covariance_group_from_frame,
    make_spatial_automorphism,
)
from fellkit.embedding import (
    EmbeddingInvariant,
    IncompleteSupportError,
    bridge_round_trip,
    cartan_from_fell_bundle,
    is_orientable,
    phi_from_block_units,
    phi_from_covariance_group,
    read_off_pair,
)
from fellkit.fellbundle import (
    CStarBundle,
    FellBundleModel,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
)
from fellkit.groupoid import identity_bisection
from fellkit.linalg import operator_norm
from fellkit.presets import flow_frame
from fellkit.subalgebra import is_normalizer


def rng_for(seed):
    return np.random.default_rng(seed)


def scalar_units(n):
    A = make_algebra([1] * n)
    units = {}
    for i in range(n):
        for j in range(n):
            units[(i, j)] = A.embed_block(i, j, np.eye(1))
    return A, units


def test_phi_from_block_units_all_ones():
    A, units = scalar_units(4)
    phi = phi_from_block_units(units, A)
    assert np.array_equal(phi.phi, np.ones((4, 4)))
    # rank 1 as a matrix, yet full block support
    assert np.linalg.matrix_rank(phi.phi) == 1
    assert len(phi.block_support()) == 16
    assert is_orientable(phi)


def test_phi_subset_restriction():
    A, units = scalar_units(4)
    phi = phi_from_block_units(units, A, subset={0, 1})
    expected = np.zeros((4, 4))
    expected[:2, :2] = 1.0
    assert np.array_equal(phi.phi, expected)
    # the restricted invariant vanishes on blocks outside Y×Y
    assert not is_orientable(phi)


def test_phi_from_block_units_validation():
    A, units = scalar_units(3)
    # support violation: a unit leaking into another block
    bad = dict(units)
    bad[(0, 1)] = units[(0, 1)] + units[(0, 2)]
    with pytest.raises(ValueError):
        phi_from_block_units(bad, A)
    # non-partial-isometry block
    bad = dict(units)
    bad[(0, 1)] = 2.0 * units[(0, 1)]
    with pytest.raises(ValueError):
        phi_from_block_units(bad, A)


def test_phi_with_varying_dims_partial_isometries():
    A = make_algebra([2, 1])
    v = np.zeros((2, 1), dtype=complex)
    v[0, 0] = 1.0
    units = {
        (0, 0): A.embed_block(0, 0, np.eye(2)),
        (1, 1): A.embed_block(1, 1, np.eye(1)),
        (0, 1): A.embed_block(0, 1, v),
        (1, 0): A.embed_block(1, 0, v.conj().T),
    }
    phi = phi_from_block_units(units, A)
    assert is_orientable(phi)
    readoff = read_off_pair(phi)
    assert readoff.omega is None
    assert "varying block ranks" in readoff.note
    assert readoff.A.block_dims == (2, 1)
    for b in readoff.normalizer_sample:
        assert is_normalizer(b, readoff.A)


def test_presentation_equivalence_bit_for_bit():
    """The partition form Σ σ^m equals the block-unit sum of its own blocks."""
    for seed, n, dim in [(0, 4, 1), (1, 3, 2), (2, 2, 2)]:
        frame, g = flow_frame(n, dim, rng_for(seed))
        E = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        Gs = covariance_group_from_frame(g, E)
        phi = phi_from_covariance_group(Gs)
        A = make_algebra([dim] * n)
        units = {
            (i, j): A.embed_block(i, j, phi.block(i, j))
            for i in range(n)
            for j in range(n)
        }
        phi2 = phi_from_block_units(units, A)
        assert np.array_equal(phi.phi, phi2.phi)


def test_partition_form_matches_expanded_double_loop():
    frame, g = flow_frame(4, 2, rng_for(3))
    E = build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    phi = phi_from_covariance_group(Gs)
    # expand Σ_m Π_i U_{g_i} literally as repeated matrix products
    sigma_U = Gs.sigma.U
    total = np.zeros_like(phi.phi)
    for m in range(1, Gs.flow.order + 1):
        product = np.eye(sigma_U.shape[0], dtype=complex)
        for _ in range(m):
            product = product @ sigma_U
        total += product
    assert operator_norm(total - phi.phi) < 1e-12


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
    assert np.array_equal(phi.phi, np.eye(2))
    readoff = read_off_pair(phi)
    assert readoff.A.block_dims == (2,)
    assert readoff.omega is not None and readoff.omega.is_trivial()


def test_orientability_detects_vanishing_blocks():
    A, units = scalar_units(3)
    phi = phi_from_block_units(units, A)
    killed = phi.phi.copy()
    killed[0, 2] = 0.0
    assert not is_orientable(EmbeddingInvariant(killed, phi.block_dims))
    with pytest.raises(ValueError):
        read_off_pair(EmbeddingInvariant(killed, phi.block_dims))


def test_read_off_masa_pair():
    frame, g = flow_frame(4, 1, rng_for(5))
    E = build_semidirect_bundle(CStarBundle((1,) * 4), frame=frame)
    Gs = covariance_group_from_frame(g, E)
    readoff = read_off_pair(phi_from_covariance_group(Gs))
    assert readoff.A.block_dims == (1, 1, 1, 1)
    assert readoff.B.block_dims == (4,)
    b = np.arange(16, dtype=complex).reshape(4, 4)
    assert np.array_equal(readoff.P(b), np.diag(np.diagonal(b)))
    for u in readoff.normalizer_sample:
        assert is_normalizer(u, readoff.A)
    # dim-1 blocks are unit scalars
    for i in range(4):
        for j in range(4):
            assert abs(abs(readoff.assignment[(i, j)][0, 0]) - 1.0) < 1e-12


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

    broken = FellBundleModel(
        fibre_dims=(1, 1), frame={g: np.array([[2.0]]) for g in
                                  [(0, 0), (0, 1), (1, 0), (1, 1)]}
    )
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
        assert report["stages"][-1] == "read-off-recovered"


def test_bridge_round_trip_gates_on_recovered_phi(monkeypatch):
    """Conjugating the recovered Φ by a diagonal unitary of A keeps its
    twist, expectation and generator, but not Φ: the round trip fails."""
    recover = fellkit.embedding.phi_from_covariance_group
    calls = []

    def conjugated_second(Gs, eps):
        phi = recover(Gs, eps)
        calls.append(Gs)
        if len(calls) == 2:
            d = np.diag(np.exp(1j * np.arange(len(phi.phi))))
            phi = EmbeddingInvariant(d @ phi.phi @ d.conj().T, phi.block_dims)
        return phi

    monkeypatch.setattr(fellkit.embedding, "phi_from_covariance_group",
                        conjugated_second)
    frame, g = flow_frame(4, 1, rng_for(0))
    E = build_semidirect_bundle(CStarBundle((1,) * 4), frame=frame)
    check = run_phi("roundtrip", E, g, 1e-9, 0)
    report = check["details"]
    assert len(calls) == 2
    assert report["phi_residual"] > 0.1
    for key in ("omega_residual", "expectation_residual", "sigma_residual"):
        assert report[key] < 1e-9
    assert not report["pass"] and not check["pass"]
    assert check["residual"] == report["phi_residual"]


def test_bridge_round_trip_rejects_identity_generator():
    sigma = make_spatial_automorphism(
        identity_bisection(3), [np.eye(1)] * 3, (1, 1, 1)
    )
    with pytest.raises(RuntimeError, match="stage 'phi'"):
        bridge_round_trip(covariance_group(sigma))
