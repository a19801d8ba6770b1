"""The holonomy h = max_z ‖σⁿ_z − I‖ decides the read-off, the cocycle entry
on a read-off ω and the round trip: the identities behind that rule, its
negative control (a flow whose closing edge is turned by a phase), and its
verdicts against the oracle of ``readoff_oracle``, which must agree outside
(eps/2, eps]."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from fellkit.cli import build_preset, main, pipeline, run_check, run_phi
from fellkit.cocycle import Cocycle2, coboundary, cocycle_identity_residual, frame_defects
from fellkit.dynamics import (
    covariance_group,
    covariance_group_from_frame,
    make_spatial_automorphism,
)
from fellkit.embedding import bridge_round_trip, phi_from_covariance_group, read_off_pair
from fellkit.fellbundle import CStarBundle, build_semidirect_bundle
from fellkit.groupoid import identity_bisection
from fellkit.linalg import operator_norms
from fellkit.presets import flow_frame
from fellkit.serialize import model_from_json, model_to_json

from helpers import ROT90_4X2, turned_flow_frame
from readoff_oracle import ORACLE_RESIDUALS, oracle_round_trip, oracle_verdicts

EPS = 1e-9
# n ≥ 3: on two points u_(0,1) and u_(1,0) = u_(0,1)* are the whole cycle,
# so a symmetric frame's holonomy is I
SHAPES = [(3, 1), (4, 2), (5, 2), (8, 1), (3, 3)]
# 1e-12 … 1e-6, with points on both sides of eps/2 and of eps, but none at
# eps itself, where rounding decides which side the measured h falls on
H_GRID = sorted({*(h for h in np.geomspace(1e-12, 1e-6, 13) if abs(h / EPS - 1) > 1e-6),
                 4e-10, 4.9e-10, 5.1e-10, 6e-10, 9e-10, 9.99e-10, 1.001e-9, 1.1e-9})


def turned_model(n, dim, h):
    frame, g = turned_flow_frame(n, dim, h, np.random.default_rng(1))
    return build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame, eps=EPS), g


def diagonal_defects(model, g):
    """‖Φ_zz − I‖ per point z, Φ's diagonal being σⁿ's maps."""
    Gs = covariance_group_from_frame(g, model, EPS)
    return operator_norms(Gs.maps[-1] - np.eye(Gs.maps.shape[-1]))


def new_verdicts(model, g):
    built = pipeline(model, g, EPS)
    return {"phi-readoff": run_phi("readoff", built)["pass"],
            "cocycle": run_check("cocycle", built)["pass"],
            "phi-roundtrip": run_phi("roundtrip", built)["pass"]}


def preset_models():
    """Every preset that reaches the read-off, and the semidirect control."""
    def preset(name, **sizes):
        args = SimpleNamespace(**{"n": 4, "dims": "2,1,3", "points": 4, "dim": 2,
                                  "seed": 0, **sizes})
        return build_preset(name, args, EPS)

    yield "fourpoint", preset("fourpoint")
    yield "diag-masa-6", preset("diag-masa", n=6)
    for n, d in [(1, 2), (2, 1), (4, 2), (8, 1), (5, 3), (6, 1)]:
        yield f"flow-{n}x{d}", preset("flow", points=n, dim=d)
    for n, d in [(4, 2), (3, 3), (6, 1)]:
        yield f"semidirect-{n}x{d}", preset("semidirect", points=n, dim=d)
    yield "ROT90_4X2", model_from_json(ROT90_4X2, eps=EPS)


PRESETS = dict(preset_models())


@pytest.mark.parametrize("n, dim", SHAPES)
def test_a_turned_closing_edge_has_its_phase_as_holonomy(n, dim):
    """h = |e^{iθ} − 1| at every point, within rounding; Φ's diagonal is
    σⁿ's maps, and the read-off raises iff h > eps, naming h and its point."""
    for h in (1e-12, 3e-10, 1.1e-9, 1e-6, 0.3, 1.9):
        model, g = turned_model(n, dim, h)
        Gs = covariance_group_from_frame(g, model, EPS)
        phi = phi_from_covariance_group(Gs, EPS)
        assert np.array_equal(phi.blocks[range(n), range(n)], Gs.maps[-1])
        defects = diagonal_defects(model, g)
        assert np.allclose(defects, h, rtol=0, atol=1e-14)
        z = int(defects.argmax())
        if h <= EPS:
            readoff = read_off_pair(phi, EPS)
            assert (readoff.holonomy, readoff.witness) == (defects[z], z)
        else:
            message = f"holonomy {defects[z]:.3e} at point {z + 1} exceeds eps"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read_off_pair(phi, EPS)


def turned_by(n, dim, V, seed):
    """A flow frame whose closing edge is turned by the unitary V: every σⁿ
    map is a conjugate of V, so h = ‖V − I‖."""
    frame, g = flow_frame(n, dim, np.random.default_rng(seed))
    frame[0, n - 1] = V @ frame[0, n - 1]
    frame[n - 1, 0] = frame[0, n - 1].conj().T
    model = build_semidirect_bundle(CStarBundle((dim,) * n), frame=frame, eps=EPS)
    return phi_from_covariance_group(covariance_group_from_frame(g, model, EPS), EPS)


@pytest.mark.parametrize("n, dim", [(3, 1), (3, 2), (4, 3), (5, 2)])
@pytest.mark.parametrize("t", [1e-8, 1e-3, 1.0, 3.0])
def test_holonomy_identities(n, dim, t):
    """The identities of ``fellkit.embedding``'s docstring on a non-scalar
    holonomy V = exp(itS): the involution defect at (x, y) is ‖H_y − I‖,
    max ‖ω − I‖ is h, and the cocycle identity on ω = δa holds to rounding
    at every h."""
    rng = np.random.default_rng(n * 100 + dim)
    S = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    lam, Q = np.linalg.eigh((S + S.conj().T) / 2)
    V = (Q * np.exp(1j * t * lam)) @ Q.conj().T
    phi = turned_by(n, dim, V, seed=n)
    H = phi.blocks[range(n), range(n)]
    per_point = operator_norms(H - np.eye(dim))
    h = per_point.max()
    assert h == pytest.approx(operator_norms((V - np.eye(dim))[None])[0], abs=1e-13)
    a = phi.blocks.copy()
    a[range(n), range(n)] = np.eye(dim)
    involution = frame_defects(a)[1]
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(involution[off], np.broadcast_to(per_point, (n, n))[off],
                       rtol=0, atol=1e-13)
    omega = coboundary(a)
    distance = operator_norms((omega - np.eye(dim)).reshape(-1, dim, dim)).max()
    assert distance == pytest.approx(h, abs=1e-13)
    assert cocycle_identity_residual(Cocycle2(omega, frame=a)) <= 1e-13


def test_verdicts_equal_the_oracle_outside_the_window():
    """Over h from 1e-12 to 1e-6 the read-off, cocycle and round-trip
    verdicts are the oracle's, except inside (eps/2, eps].  There the
    oracle's round trip fails at rebuild-bundle, where
    ``twist_is_admissible`` sees ω(g,h)·ω(h*,g*) = e^{2iθ}, about 2h, and
    the holonomy rule passes it: that is the one verdict that moves, at
    every point of the window whose measured h is at most eps."""
    moves = []
    for n, dim in SHAPES:
        for h in H_GRID:
            model, g = turned_model(n, dim, h)
            new, old = new_verdicts(model, g), oracle_verdicts(model, g, EPS)
            passes = bool(diagonal_defects(model, g).max() <= EPS)
            assert new == dict.fromkeys(new, passes)
            moved = {k for k in new if new[k] != old[k]}
            if EPS / 2 < h <= EPS:
                assert moved == ({"phi-roundtrip"} if passes else set()), (n, dim, h)
                moves += [(n, dim, h)] * bool(moved)
            else:
                assert not moved, (n, dim, h)
    window = [h for h in H_GRID if EPS / 2 < h <= EPS]
    assert len(window) == 4
    assert moves == [(n, dim, h) for n, dim in SHAPES for h in window]


@pytest.mark.parametrize("name", PRESETS)
def test_preset_verdicts_equal_the_oracle(name):
    model, g = PRESETS[name]
    assert new_verdicts(model, g) == oracle_verdicts(model, g, EPS)


@pytest.mark.parametrize("name", [name for name in PRESETS
                                  if not name.startswith("semidirect")])
def test_round_trip_residuals_are_the_oracles(name):
    """On every passing preset the oracle's recovered σ, Φ and ω equal the
    originals bit for bit (n > 1) and its residuals are the round trip's."""
    model, g = PRESETS[name]
    Gs = covariance_group_from_frame(g, model, EPS)
    report, oracle = bridge_round_trip(Gs, EPS), oracle_round_trip(Gs, EPS)
    assert report["pass"] and oracle["pass"]
    for r in ORACLE_RESIDUALS:
        assert report[f"{r}_residual"] == oracle[f"{r}_residual"], r
    if Gs.n_points > 1:
        recovered, readoff = oracle["recovered"], read_off_pair(
            phi_from_covariance_group(Gs, EPS), EPS)
        assert np.array_equal(recovered.group.sigma.fibre_maps, Gs.sigma.fibre_maps)
        assert np.array_equal(recovered.phi.blocks, phi_from_covariance_group(Gs).blocks)
        assert np.array_equal(recovered.readoff.omega.values, readoff.omega.values)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("h", [0.0, 3e-10, 2e-9])
def test_one_point_residuals_are_the_holonomy(dim, h):
    """At n = 1 the rebuilt frame is I, so σ′ = Φ′ = I and the σ and Φ
    residuals are h itself, as the oracle measures them; h > eps fails both,
    the holonomy rule at the read-off and the oracle on σ and Φ."""
    w = np.exp(2j * np.arcsin(h / 2)) * np.eye(dim)
    Gs = covariance_group(make_spatial_automorphism(identity_bisection(1), [w], (dim,)))
    oracle = oracle_round_trip(Gs, EPS)
    if h > EPS:
        with pytest.raises(RuntimeError, match="stage 'read-off': holonomy"):
            bridge_round_trip(Gs, EPS)
        assert not oracle["pass"]
        return
    report = bridge_round_trip(Gs, EPS)
    assert report["pass"] and oracle["pass"]
    assert report["sigma_residual"] == report["phi_residual"] == report["holonomy_residual"]
    for r in ("sigma", "phi"):
        assert report[f"{r}_residual"] == pytest.approx(oracle[f"{r}_residual"],
                                                        rel=1e-9, abs=1e-16)
    assert report["omega_residual"] == oracle["omega_residual"] == 0.0


def report_entries(tmp_path, model, g):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model, g)))
    out = tmp_path / "report.json"
    code = main(["report", "--input", str(path), "--out", str(out)])
    return code, {c["check"]: c for c in json.loads(out.read_text())["checks"]}


@pytest.mark.parametrize("n, dim", [(4, 2), (8, 1)])
def test_the_holonomy_control_fails_exactly_cocycle_and_round_trip(tmp_path, n, dim):
    """The turned flow loads.  Just above eps its report fails exactly the
    cocycle and phi-roundtrip entries; at h ≤ eps/2 it passes everything,
    with h as the residual of both entries and of ``phi readoff``, and the
    point that attains it, numbered from 1, as their witness."""
    model, g = turned_model(n, dim, 1.01 * EPS)
    code, entries = report_entries(tmp_path, model, g)
    assert code == 1
    assert [c for c, e in entries.items() if not e["pass"]] == ["cocycle", "phi-roundtrip"]
    assert entries["cocycle"]["error"].startswith("holonomy 1.010e-09 at point ")
    for h in (1e-12, EPS / 2):
        model, g = turned_model(n, dim, h)
        code, entries = report_entries(tmp_path, model, g)
        assert code == 0 and all(e["pass"] for e in entries.values())
        defects = diagonal_defects(model, g)
        z = int(defects.argmax())
        readoff = run_phi("readoff", pipeline(model, g, EPS))
        for entry in (entries["cocycle"], entries["phi-roundtrip"], readoff):
            assert entry["residual"] == defects[z]
            assert entry["witness"] == {"point": z + 1}
