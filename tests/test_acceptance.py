"""Acceptance suite: one test and one printed pass/fail line per criterion.

Everything here runs at desk scale (seconds, fixed seeds); the individual
module test files carry the finer-grained and property-based coverage.
"""

import itertools
import json

import numpy as np

from fellkit.algebra import make_algebra
from fellkit.cli import main
from fellkit.cocycle import cocycle_identity_residual, make_twist
from fellkit.dynamics import (
    a_dynamical_generation_check,
    check_unitary_normalizer_theorem,
    covariance_group_from_frame,
    make_spatial_automorphism,
)
from fellkit.embedding import (
    bridge_round_trip,
    is_orientable,
    phi_from_covariance_group,
    read_off_pair,
)
from fellkit.fellbundle import (
    CStarBundle,
    ConditionalExpectation,
    FellBundleModel,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
    check_fell_axioms,
    identity_frame,
    restriction_expectation,
)
from fellkit.groupoid import (
    Bisection,
    PairGroupoid,
    cycle_bisection,
    identity_bisection,
    self_adjoint_bisections,
)
from fellkit.linalg import haar_unitary, operator_norm, span_dimension
from fellkit.presets import flow_frame, random_symmetric_frame
from fellkit.subalgebra import PairCandidate, Slice, classify_pair, slice_check
from fellkit.dynamics import slice_from_bisection


def verdict(num, name, ok):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {name}"


def semidirect_preset():
    frame = random_symmetric_frame(4, 2, np.random.default_rng(7))
    return build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame)


def test_criterion_01_fell_axiom_suite():
    ok = True
    for E in (build_imprimitivity_bundle((2, 1, 3)), semidirect_preset()):
        report = check_fell_axioms(E)
        ok = ok and report.all_passed and max(report.residuals) < 1e-9

    # negative control: broken involution frame fails axiom 8
    rng = np.random.default_rng(1)
    frame = random_symmetric_frame(3, 2, rng)
    frame[(1, 0)] = haar_unitary(2, rng)
    broken = FellBundleModel(fibre_dims=(2, 2, 2), frame=frame)
    rep = check_fell_axioms(broken)
    ok = ok and 8 in rep.failed_axioms()

    # negative control: non-cocycle twist fails axiom 3
    twist = make_twist(3, 1, {((0, 1), (1, 2)): -1, ((2, 1), (1, 0)): -1})
    broken = FellBundleModel(fibre_dims=(1, 1, 1),
                             frame=identity_frame(3, 1), twist=twist)
    rep = check_fell_axioms(broken)
    ok = ok and 3 in rep.failed_axioms()
    verdict(1, "Fell axiom suite with negative controls", ok)


def test_criterion_02_saturation_implies_regularity():
    ok = True
    for E, want in ((build_imprimitivity_bundle((2, 1, 3)), 36),
                    (semidirect_preset(), 64)):
        G = E.groupoid
        normalizers = [E.embed(g, b) for g in G.arrows()
                       for b in E.fibre_basis(g)]
        products = []
        for g, h in G.composable_pairs():
            for a in E.fibre_basis(g):
                for b in E.fibre_basis(h):
                    gh, prod = E.multiply(g, a, h, b)
                    products.append(E.embed(gh, prod))
        ok = ok and span_dimension(normalizers) == want
        ok = ok and span_dimension(products) == want
    verdict(2, "saturation gives regularity, span = dim B", ok)


def test_criterion_03_diagonal_pair_kernel_identity():
    ok = True
    for dims, want in (((1, 1, 1, 1), 12), ((2, 1), 4)):
        P = restriction_expectation(build_imprimitivity_bundle(dims))
        pair = PairCandidate(A=make_algebra(dims), B=make_algebra([sum(dims)]), P=P)
        # the off-diagonal matrix units: a basis of ker P
        kernel = [e for e in pair.B.basis() if not pair.A.contains(e)]
        result = classify_pair(pair, kernel)
        ok = (
            ok
            and span_dimension(kernel) == want
            and result.verdict == "diagonal"
            and result.evidence["kernel_dim"] == want
            and result.evidence["free_normalizer_span_dim"] == want
        )
    verdict(3, "diagonal-pair kernel identity (12 and 4)", ok)


def test_criterion_04_conditional_expectation_contract():
    P = ConditionalExpectation(make_algebra([2, 1, 3]))
    report = P.verify(eps=1e-9)
    checks = ("fixes_range", "bimodule", "positive", "idempotent", "faithful")
    ok = all(report[k][0] for k in checks)
    ok = ok and all(report[k][1] < 1e-9 for k in
                    ("fixes_range", "bimodule", "positive", "idempotent"))
    verdict(4, "conditional expectation contract, decided on the matrix units", ok)


def test_criterion_05_four_point_reproduction():
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    g = cycle_bisection(4)
    Gs = covariance_group_from_frame(g, E)
    dims = Gs.fibre_dims
    from helpers import dense_invariant, group_unitaries

    sigma = dense_invariant(group_unitaries(Gs)[0], dims)
    sigma2 = dense_invariant(group_unitaries(Gs)[1 % Gs.flow.order], dims)
    ok = sigma.block_support() == {(0, 3), (1, 0), (2, 1), (3, 2)}
    ok = ok and sigma2.block_support() == {(0, 2), (1, 3), (2, 0), (3, 1)}

    phi = phi_from_covariance_group(Gs)
    ok = ok and len(phi.block_support()) == 16 and is_orientable(phi)

    readoff = read_off_pair(phi)
    u, w = readoff.assignment, readoff.omega
    G = PairGroupoid(4)
    residual = max(
        operator_norm(u[a] @ u[b] - w.value(a, b) @ u[G.compose(a, b)])
        for a, b in G.composable_pairs()
    )
    ok = ok and residual < 1e-10
    verdict(5, "four-point reproduction", ok)


def test_criterion_06_unitary_normalizer_theorem():
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    result = check_unitary_normalizer_theorem(E)
    ok = (result["automorphisms"] == result["forward_pass"] == 4
          and result["mixers"] == result["converse_pass"] == 6
          and result["pass"])
    verdict(6, "spatial automorphisms = unitary normalizers", ok)


def test_criterion_07_cocycle_identity():
    worst = 0.0
    for seed, n, dim in [(0, 4, 1), (1, 3, 1), (2, 4, 2), (3, 2, 2)]:
        frame, g = flow_frame(n, dim, np.random.default_rng(seed))
        E = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        Gs = covariance_group_from_frame(g, E)
        readoff = read_off_pair(phi_from_covariance_group(Gs))
        worst = max(worst, cocycle_identity_residual(readoff.omega))
    verdict(7, "cocycle identity on generator assignments", worst < 1e-12)


def test_criterion_08_slices_are_hilbert_bimodules():
    brute = [p for p in itertools.permutations(range(4))
             if all(p[p[x]] == x for x in range(4))]
    involutions = self_adjoint_bisections(4)
    ok = len(brute) == 10 and len(involutions) == 10
    A = make_algebra([1, 1, 1, 1])
    for f0 in involutions:
        s = make_spatial_automorphism(f0, [np.eye(1)] * 4, (1, 1, 1, 1))
        report = slice_check(slice_from_bisection(s), A)
        ok = ok and report["bimodule"] and report["hilbert"]

    # negative control: a unitary mixing blocks 0 and 1 spans no slice
    mixer = A.unit()
    mixer[:2, :2] = haar_unitary(2, np.random.default_rng(8))
    report = slice_check(Slice(mixer), A)
    ok = ok and not report["bimodule"] and not report["hilbert"]
    verdict(8, "all 10 self-adjoint bisections give Hilbert bimodules, "
               "a two-block mixer does not", ok)


def test_criterion_09_a_dynamical_generation():
    E = build_semidirect_bundle(CStarBundle((1, 1, 1, 1)))
    from fellkit.fellbundle import diagonal_algebra, enveloping_algebra

    A, B = diagonal_algebra(E), enveloping_algebra(E)
    ok = B.dim() == 16
    ok = ok and a_dynamical_generation_check(
        covariance_group_from_frame(cycle_bisection(4), E), A, B)
    ok = ok and not a_dynamical_generation_check(
        covariance_group_from_frame(identity_bisection(4), E), A, B)
    ok = ok and not a_dynamical_generation_check(
        covariance_group_from_frame(Bisection((1, 0, 3, 2)), E), A, B)
    verdict(9, "generation: 4-cycle yes, identity and 2-cycles no", ok)


def test_criterion_10_bridge_round_trips():
    combos = [(n, dim) for n in (2, 3, 4) for dim in (1, 2)]
    ok = True
    for seed in range(20):
        n, dim = combos[seed % len(combos)]
        frame, g = flow_frame(n, dim, np.random.default_rng(100 + seed))
        E = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame)
        report = bridge_round_trip(covariance_group_from_frame(g, E))
        ok = (ok and report["pass"] and report["block_dims_match"]
              and report["omega_residual"] < 1e-9
              and report["expectation_residual"] < 1e-9)
    verdict(10, "20 seeded bridge round trips", ok)


def test_criterion_11_cli_determinism(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["report", "--preset", "fourpoint", "--seed", "0",
                  "--out", str(r1)])
    code2 = main(["report", "--preset", "fourpoint", "--seed", "0",
                  "--out", str(r2)])
    doc = json.loads(r1.read_text())
    ok = (code1 == 0 and code2 == 0 and r1.read_bytes() == r2.read_bytes()
          and doc["pass"])
    verdict(11, "CLI golden report byte determinism", ok)
