"""The frame audit (``fellbundle.FrameAudit``): a report computes each of its
arrays once, and each equals the direct call it stands for bit for bit."""

from collections import Counter
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from fellkit.cli import main, pipeline, run_report
from fellkit.cocycle import frame_defects
from fellkit.fellbundle import CStarBundle, FrameAudit, build_semidirect_bundle, identity_frame
from fellkit.linalg import operator_norms, singular_values, unitarity_defects
from fellkit.presets import flow_frame, random_symmetric_frame

from helpers import random_matrix

ARRAYS = ("unitarity", "defects", "values")

# the stacked np.linalg.svd calls of one report on the model file, as
# counted when each audit array came to be computed once: on flow 8×1 the
# norm kernel norms every 1×1 stack without LAPACK
REPORT_SVD_CALLS = {"flow 4x2": 9, "flow 8x1": 0}
FLOW = {"flow 4x2": ("4", "2"), "flow 8x1": ("8", "1")}


@pytest.fixture
def computed(monkeypatch):
    """A Counter of the audit arrays computed, by name, and of stacked SVDs."""
    counts = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ARRAYS:
        prop = cached_property(counting(name, FrameAudit.__dict__[name].func))
        prop.__set_name__(FrameAudit, name)
        monkeypatch.setattr(FrameAudit, name, prop)
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    return counts


@pytest.mark.parametrize("name", FLOW)
def test_a_report_computes_each_audit_array_once(name, tmp_path, computed):
    """One ``report`` on a flow model file, as the benchmark runs it: load,
    axioms, pair, cocycle, theorem 3.13, generation and the Φ round trip."""
    points, dim = FLOW[name]
    model = tmp_path / "model.json"
    assert main(["generate", "--preset", "flow", "--points", points, "--dim", dim,
                 "--out", str(model)]) == 0
    computed.clear()
    assert main(["report", "--input", str(model), "--out", str(tmp_path / "r.json")]) == 0
    assert {key: computed[key] for key in ARRAYS} == dict.fromkeys(ARRAYS, 1)
    assert computed["svd"] == REPORT_SVD_CALLS[name]


def test_a_report_leaves_the_audit_no_array_over_n2_d_entries():
    """After a whole report on flow 24×2, each array the model's audit has
    computed and keeps, its frame aside, has at most n²·d entries: the
    audit holds n² arrays, and no stage leaves an n³ one in it."""
    n, d = 24, 2
    frame, generator = flow_frame(n, d, np.random.default_rng(0))
    E = build_semidirect_bundle(CStarBundle((d,) * n), frame=frame)
    assert run_report(pipeline(E, generator, 1e-9), generator)["pass"]
    kept = {name: value for name, value in vars(E.audit).items() if name != "frame"}
    assert set(kept) == set(ARRAYS)
    arrays = [a for v in kept.values() for a in (v if isinstance(v, tuple) else (v,))]
    assert max(a.size for a in arrays) <= n * n * d


def audit_frames():
    """(name, frame): unitary frames, perturbed ones and ones with zero fibres."""
    rng = np.random.default_rng(5)
    yield "random 3x2", random_symmetric_frame(3, 2, rng)
    yield "flow 5x1", flow_frame(5, 1, rng)[0]
    yield "flow 3x3", flow_frame(3, 3, rng)[0]
    perturbed = random_symmetric_frame(4, 2, rng)
    perturbed[0, 1] *= 2
    perturbed[2, 3] += 1e-7 * random_matrix((2, 2), rng)
    perturbed[1, 1] = np.diag([1.0, -1.0])
    yield "perturbed 4x2", perturbed
    yield "gaussian 3x2", random_matrix((3, 3, 2, 2), rng)
    zero = flow_frame(3, 2, rng)[0]
    zero[0, 2] = zero[2, 0] = 0
    yield "zero fibres 3x2", zero
    zero = identity_frame(3, 1)
    zero[1, 2] = 0
    yield "zero fibre 3x1", zero


AUDIT_FRAMES = dict(audit_frames())


@pytest.mark.parametrize("name", AUDIT_FRAMES)
def test_audit_arrays_are_the_direct_calls(name):
    """Each array is the call a stage made on the frame before, and the top
    singular values are the norms the axioms and theorem 3.13 took."""
    u = AUDIT_FRAMES[name]
    n, d = u.shape[0], u.shape[-1]
    audit = FrameAudit(u)
    pairs = {
        "unitarity": (audit.unitarity, unitarity_defects(u)),
        "units": (audit.defects[0], frame_defects(u)[0]),
        "involution": (audit.defects[1], frame_defects(u)[1]),
        "values": (audit.values, singular_values(u.reshape(-1, d, d)).reshape(n, n, d)),
        "norms": (audit.values[..., 0], operator_norms(u.reshape(-1, d, d)).reshape(n, n)),
    }
    for key, (got, want) in pairs.items():
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), key


def test_a_model_keeps_the_audit_of_its_own_frame():
    """The builder's audit is the model's; ``replace`` keeps it while the
    frame stays, and a new frame gets a new audit."""
    frame = flow_frame(3, 2, np.random.default_rng(1))[0]
    E = build_semidirect_bundle(CStarBundle((2,) * 3), frame=frame)
    assert E.audit.frame is E.frame
    assert replace(E, zero_fibres=frozenset({(0, 1)})).audit is E.audit
    other = replace(E, frame=E.frame.copy())
    assert other.audit is not E.audit and other.audit.frame is other.frame
    assert replace(E, frame=None).audit is None
