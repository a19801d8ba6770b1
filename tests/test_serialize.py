import json
import re
from pathlib import Path

import numpy as np
import pytest

import fellkit.fellbundle
import fellkit.serialize
from fellkit.cli import CHECKS, PHI, build_parser, load_model, main, pipeline, run_check, run_phi, run_report
from fellkit.cocycle import Cocycle2, NotATwistError, make_twist
from fellkit.fellbundle import (
    CStarBundle,
    FrameError,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
)
from fellkit.groupoid import cycle_bisection
from fellkit.linalg import as_matrix, is_unitary
from fellkit.presets import random_symmetric_frame
from fellkit.serialize import (
    ParseError,
    arrow_from_key,
    arrow_key,
    cocycle_to_json,
    complex_from_json,
    complex_to_json,
    dumps_canonical,
    loads,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    pair_from_key,
    pair_key,
    permutation_from_json,
    permutation_to_json,
    twist_value_from_json,
)

from helpers import TWISTED_5, twist_from_phases

CONTROLS = Path(__file__).parent / "controls"


def models_equal(m1, m2):
    if m1.fibre_dims != m2.fibre_dims or m1.zero_fibres != m2.zero_fibres:
        return False
    if (m1.frame is None) != (m2.frame is None):
        return False
    if m1.frame is not None and not np.array_equal(m1.frame, m2.frame):
        return False
    if (m1.twist is None) != (m2.twist is None):
        return False
    return m1.twist is None or np.array_equal(m1.twist.values, m2.twist.values)


def test_complex_and_matrix_round_trip():
    z = 1.25 - 3.5j
    assert complex_from_json(complex_to_json(z)) == z
    m = np.array([[1 + 2j, 0], [0.5j, -1]], dtype=complex)
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)
    with pytest.raises(ParseError):
        complex_from_json([1.0])
    with pytest.raises(ParseError):
        matrix_from_json("nope")
    with pytest.raises(ParseError):
        matrix_from_json([[1.0, 2.0]])  # scalars where [re,im] pairs belong


def test_keys_are_one_indexed():
    assert arrow_key((0, 1)) == "(1,2)"
    assert arrow_from_key("(1,2)") == (0, 1)
    assert pair_key((0, 1), (1, 2)) == "((1,2),(2,3))"
    assert pair_from_key("((1,2),(2,3))") == ((0, 1), (1, 2))
    with pytest.raises(ParseError):
        arrow_from_key("(0,1)")
    with pytest.raises(ParseError):
        arrow_from_key("1,2")
    with pytest.raises(ParseError):
        pair_from_key("((1,2))")


@pytest.mark.parametrize("key", ["(01,2)", "(1,02)", "(1,2)\n", "(\u0661,2)", "(1,\uff12)"])
def test_an_arrow_has_one_key(key):
    """A leading zero, a trailing newline (``$`` matches before it) or a
    non-ASCII digit (``\\d`` reads it) spells an arrow that has its own key."""
    with pytest.raises(ParseError, match="is not canonical, expected '\\(1,2\\)'"):
        arrow_from_key(key)


@pytest.mark.parametrize("key", ["((01,2),(2,3))", "((1,02),(02,3))", "((1,2),(2,3))\n",
                                 "((1,2),(2,\u0663))"])
def test_a_pair_has_one_key(key):
    with pytest.raises(ParseError, match="is not canonical"):
        pair_from_key(key)


def test_permutation_serialization():
    g = cycle_bisection(4)
    assert permutation_to_json(g) == [2, 3, 4, 1]
    assert permutation_from_json([2, 3, 4, 1]) == g
    with pytest.raises(ParseError):
        permutation_from_json([1, 1, 2])
    with pytest.raises(ParseError):
        permutation_from_json("abc")


def test_imprimitivity_model_round_trip():
    m = build_imprimitivity_bundle((2, 1, 3))
    doc = model_to_json(m)
    assert "frame" not in doc and "twist" not in doc
    m2, generator = model_from_json(doc)
    assert models_equal(m, m2)
    assert generator is None


def test_semidirect_model_round_trip_with_generator():
    frame = random_symmetric_frame(3, 2, np.random.default_rng(0))
    theta = np.random.default_rng(1).uniform(-1, 1, (3, 3))
    twist = twist_from_phases(theta - theta.T, fibre_dim=2)
    m = build_semidirect_bundle(CStarBundle((2, 2, 2)), frame=frame, twist=twist)
    g = cycle_bisection(3)
    doc = loads(dumps_canonical(model_to_json(m, g)))
    m2, g2 = model_from_json(doc)
    assert models_equal(m, m2)
    assert g2 == g


def test_scalar_twist_round_trip():
    theta = np.array([[0.0, 0.3], [-0.3, 0.0]])
    w = twist_from_phases(theta)
    doc = loads(dumps_canonical(cocycle_to_json(w)))
    assert doc["points"] == 2 and doc["fibre_dim"] == 1
    values = {pair_from_key(k): twist_value_from_json(v)
              for k, v in doc["pairs"].items()}
    # every composable pair is written, the identities included
    assert set(values) == {((x, y), (y, z)) for x, y, z in np.ndindex(2, 2, 2)}
    for (g, h), v in values.items():
        assert np.allclose(v, w.value(g, h)[0, 0], atol=1e-15)


def test_model_writes_the_non_identity_twist_pairs():
    # one pair and its mirror: the rest of the twist is the identity
    twist = make_twist(3, 2, {((0, 1), (1, 2)): 1j * np.eye(2),
                              ((2, 1), (1, 0)): -1j * np.eye(2)})
    m = build_semidirect_bundle(CStarBundle((2, 2, 2)), twist=twist)
    doc = loads(dumps_canonical(model_to_json(m)))
    assert set(doc["twist"]) == {"((1,2),(2,3))", "((3,2),(2,1))"}
    assert len(doc["frame"]) == 9
    m2, _ = model_from_json(doc)
    assert models_equal(m, m2)
    # a twist that is the identity everywhere still reloads as a twist
    trivial = build_semidirect_bundle(CStarBundle((1, 1)), twist=make_twist(2, 1, {}))
    doc = model_to_json(trivial)
    assert doc["twist"] == {}
    m2, _ = model_from_json(doc)
    assert models_equal(trivial, m2)


def test_model_parse_errors():
    with pytest.raises(ParseError):
        model_from_json([])
    with pytest.raises(ParseError):
        model_from_json({"points": 2})
    with pytest.raises(ParseError):
        model_from_json({"points": 2, "fibre_dims": [1]})
    with pytest.raises(ParseError):
        model_from_json(
            {"points": 2, "fibre_dims": [2, 1], "frame": {}}
        )
    with pytest.raises(ParseError):
        model_from_json(
            {"points": 2, "fibre_dims": [1, 1], "generator": [1, 2, 3]}
        )
    # a frame that parses but violates the builder contract raises the
    # builder's error, not ParseError (the CLI exits 1 for it, not 2)
    with pytest.raises(FrameError):
        model_from_json(
            {
                "points": 1,
                "fibre_dims": [1],
                "frame": {"(1,1)": [[[2.0, 0.0]]]},
            }
        )
    # a frame arrow missing from the document is the builder's FrameError too
    frame = {f"({x},{y})": [[[1.0, 0.0]]] for x in (1, 2) for y in (1, 2)}
    del frame["(1,2)"]
    with pytest.raises(FrameError, match=r"frame missing arrow \(0, 1\)"):
        model_from_json({"points": 2, "fibre_dims": [1, 1], "frame": frame})
    # a twist value must be v·I: make_twist refuses a diagonal unitary that
    # is not scalar, the builder's error, not ParseError
    with pytest.raises(NotATwistError, match=r"^twist value for \(\(0, 1\), \(1, 0\)\) "
                                             r"is not scalar$"):
        model_from_json({"points": 2, "fibre_dims": [2, 2], "twist": {
            "((1,2),(2,1))": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}})
    with pytest.raises(ParseError):
        loads("{not json")
    # one arrow or pair named twice, in a second spelling of its key or in
    # the same key again: the last value used to replace the first silently
    for name, key in (("frame-key-twice", "arrow key '(01,2)'"),
                      ("twist-key-twice", "pair key '((01,2),(2,3))'")):
        text = (CONTROLS / f"{name}.json").read_bytes()
        with pytest.raises(ParseError, match=f"^{re.escape(key)} is not canonical"):
            model_from_json(loads(text))
    with pytest.raises(ParseError, match=r"^key '\(1,1\)' appears twice in one object$"):
        loads('{"points": 1, "fibre_dims": [1], "frame": {"(1,1)": [[[7.0, 0.0]]], '
              '"(1,1)": [[[1.0, 0.0]]]}}')
    with pytest.raises(ParseError, match="^key 'points' appears twice"):
        loads('{"points": 1, "fibre_dims": [1], "points": 2}')
    # counts are JSON integers, and points and fibre dims at least 1: a bool
    # or a float is no count (1.7, true and [2.5, 2.9] used to load)
    for doc in (
        {"points": 1.7, "fibre_dims": [1]},
        {"points": True, "fibre_dims": [True]},
        {"points": 1, "fibre_dims": [True]},
        {"points": 2, "fibre_dims": [2.5, 2.9]},
        {"points": 0, "fibre_dims": []},
        {"points": 2, "fibre_dims": [1, 0]},
        {"points": 2, "fibre_dims": [1, -1]},
        {"points": 2, "fibre_dims": "11"},
        {"points": "2", "fibre_dims": [1, 1]},
        {"points": 2, "fibre_dims": [1, 1], "generator": [True, 1]},
        {"points": 2, "fibre_dims": [1, 1], "generator": [2.0, 1.0]},
    ):
        with pytest.raises(ParseError):
            model_from_json(doc)


IDENTITY_FRAME_2 = {f"({x},{y})": [[[1.0, 0.0]]] for x in (1, 2) for y in (1, 2)}
OUT_OF_PLACE = {
    # keys the (n, n, d, d) frame and the (n, n, n, d, d) twist have no slot for
    "frame-arrow-outside": {"frame": {**IDENTITY_FRAME_2, "(3,1)": [[[1.0, 0.0]]]}},
    "twist-pair-outside": {"twist": {"((1,3),(3,1))": [1.0, 0.0]}},
    "twist-pair-not-composable": {"twist": {"((1,2),(1,2))": [-1.0, 0.0]}},
}


@pytest.mark.parametrize("name", OUT_OF_PLACE)
def test_keys_outside_the_model_are_parse_errors(name, tmp_path, capsys):
    doc = {"points": 2, "fibre_dims": [1, 1], **OUT_OF_PLACE[name]}
    with pytest.raises(ParseError):
        model_from_json(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_first_fault_is_named_in_row_major_order():
    # a non-unitary (1,1) comes before the missing (2,2), as arrow by arrow
    frame = {**IDENTITY_FRAME_2, "(1,1)": [[[2.0, 0.0]]]}
    del frame["(2,2)"]
    with pytest.raises(FrameError, match=r"^frame entry at \(0, 0\) is not a 1×1 unitary$"):
        model_from_json({"points": 2, "fibre_dims": [1, 1], "frame": frame})
    # twist values are checked in (x, y, z) order, not in document order
    twist = {"((2,1),(1,2))": [2.0, 0.0], "((1,1),(1,2))": [3.0, 0.0]}
    with pytest.raises(NotATwistError, match=r"\(\(0, 0\), \(0, 1\)\) has non-unit"):
        model_from_json({"points": 2, "fibre_dims": [1, 1], "twist": twist})


def test_dumps_canonical_is_stable():
    m = build_imprimitivity_bundle((2, 1))
    assert dumps_canonical(model_to_json(m)) == dumps_canonical(model_to_json(m))
    # numpy scalars and sets are coerced deterministically
    doc = {"b": np.bool_(True), "n": np.int64(3), "x": np.float64(0.5),
           "s": {(1, 2), (0, 1)}, "m": np.eye(1, dtype=complex)}
    out = dumps_canonical(doc)
    assert out == dumps_canonical(doc)
    assert '"b": true' in out


@pytest.mark.parametrize("key, value", [
    ("frame", [[[1.0, 0.0]]]),
    ("twist", [[1.0, 0.0]]),
    ("frame", "(1,1)"),
])
def test_frame_and_twist_must_be_objects(key, value, tmp_path, capsys):
    doc = {"points": 2, "fibre_dims": [1, 1], key: value}
    with pytest.raises(ParseError, match=f'"{key}" must be a JSON object'):
        model_from_json(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f'error: "{key}" must be a JSON object')


# The per-value writers and the per-arrow frame check that the array code
# replaced, kept as oracles.

def matrix_to_json_per_entry(m):
    a = as_matrix(m)
    return [[complex_to_json(a[r, c]) for c in range(a.shape[1])]
            for r in range(a.shape[0])]


def twist_value_to_json(v):
    a = as_matrix(v)
    if a.shape == (1, 1):
        return complex_to_json(a[0, 0])
    return matrix_to_json_per_entry(a)


def cocycle_to_json_per_value(w):
    n = w.n_points
    return {
        "points": n,
        "fibre_dim": w.fibre_dim,
        "pairs": {pair_key((x, y), (y, z)): twist_value_to_json(w.values[x, y, z])
                  for x, y, z in np.ndindex(n, n, n)},
    }


def frame_per_arrow(given, n, dim, eps=1e-9):
    """The frame array of per-arrow matrices, raising at the first offending
    arrow in row-major order."""
    frame = np.empty((n, n, dim, dim), dtype=complex)
    for g in np.ndindex(n, n):
        if g not in given:
            raise FrameError(f"frame missing arrow {g}")
        if given[g].shape != (dim, dim) or not is_unitary(given[g], eps):
            raise FrameError(f"frame entry at {g} is not a {dim}×{dim} unitary")
        frame[g] = given[g]
    return frame


def signed_values(shape, rng):
    """Complex values with ±0.0 parts and tiny and huge magnitudes mixed in."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -1e300, 0.1, 1 / 3])
    re, im = (np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                       rng.standard_normal(shape)) for _ in range(2))
    return re + 1j * im


def dumped(doc):
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_array_writers_match_the_per_value_oracle(d):
    rng = np.random.default_rng(d)
    w = Cocycle2(values=signed_values((3, 3, 3, d, d), rng))
    assert dumped(cocycle_to_json(w)) == dumped(cocycle_to_json_per_value(w))
    m = signed_values((d, d + 1), rng)
    assert dumped(matrix_to_json(m)) == dumped(matrix_to_json_per_entry(m))
    assert str(matrix_to_json(np.array([[-0.0]]))) == "[[[-0.0, 0.0]]]"
    # a model writes its frame and its non-identity twist values the same way
    frame = random_symmetric_frame(3, d, rng)
    phase = np.exp(0.5j + 1j * d)
    twist = make_twist(3, d, {((0, 1), (1, 2)): phase * np.eye(d),
                              ((2, 1), (1, 0)): phase.conjugate() * np.eye(d)})
    doc = model_to_json(build_semidirect_bundle(CStarBundle((d,) * 3), frame=frame,
                                                twist=twist))
    assert doc["frame"] == {arrow_key(g): matrix_to_json_per_entry(frame[g])
                            for g in np.ndindex(3, 3)}
    assert doc["twist"] == {k: v for k, v in cocycle_to_json_per_value(twist)["pairs"].items()
                            if k in ("((1,2),(2,3))", "((3,2),(2,1))")}
    w.values[1, 2, 0, 0, 0] = np.nan
    for writer in (cocycle_to_json, cocycle_to_json_per_value):
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            writer(w)


def test_omega_and_the_frame_are_checked_as_one_stack(monkeypatch):
    """Writing ω checks no value on its own, and reading a frame checks its
    arrows' unitarity in one stacked call, its audit's."""
    frame = random_symmetric_frame(4, 2, np.random.default_rng(0))
    doc = model_to_json(build_semidirect_bundle(CStarBundle((2,) * 4), frame=frame))
    calls = []
    for module, name in ((fellkit.serialize, "as_matrix"),
                         (fellkit.fellbundle, "unitarity_defects")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda m, real=real, name=name: calls.append(name) or real(m))
    cocycle_to_json(twist_from_phases(np.array([[0.0, 0.3], [-0.3, 0.0]])))
    model_from_json(doc)
    assert calls == ["unitarity_defects"]


def test_identity_frame_is_built_only_for_a_twist_without_a_frame(monkeypatch):
    """A framed model file reads its frame and builds no identity frame; a
    document with a twist and no frame builds one, as its frame."""
    calls = []
    real = fellkit.serialize.identity_frame
    monkeypatch.setattr(fellkit.serialize, "identity_frame",
                        lambda n, d: calls.append((n, d)) or real(n, d))
    frame = random_symmetric_frame(3, 2, np.random.default_rng(0))
    twist = make_twist(3, 2, {((0, 1), (1, 2)): 1j * np.eye(2),
                              ((2, 1), (1, 0)): -1j * np.eye(2)})
    doc = model_to_json(build_semidirect_bundle(CStarBundle((2,) * 3), frame=frame,
                                                twist=twist))
    m, _ = model_from_json(doc)
    assert calls == [] and np.array_equal(m.frame, frame)
    m, _ = model_from_json({k: v for k, v in doc.items() if k != "frame"})
    assert calls == [(3, 2)] and np.array_equal(m.frame, real(3, 2))
    assert np.array_equal(m.twist.values, twist.values)


FRAME_FAULTS = {
    # arrow (0-indexed) -> its matrix, or None to leave it out; each name
    # lists the faults in row-major order
    "non-unitary, missing": {(0, 1): 2 * np.eye(2), (1, 1): None},
    "missing, non-unitary": {(1, 0): None, (1, 2): 2 * np.eye(2)},
    "missing, non-unitary in one row": {(2, 0): None, (2, 1): 2 * np.eye(2)},
    "non-unitary, missing in one column": {(0, 2): 1.5j * np.eye(2), (2, 2): None},
    "wrong shape, missing": {(0, 1): np.eye(3), (0, 2): None},
    "missing, wrong shape": {(0, 1): None, (1, 0): np.eye(1)},
    "non-finite, missing": {(1, 0): np.full((2, 2), np.nan), (1, 2): None},
    "non-finite wrong shape, missing": {(0, 1): np.full((1, 2), np.nan), (0, 2): None},
}


@pytest.mark.parametrize("eps", [1e-9, 1.5])  # at 1.5 a zero or 1.5i·I block passes
@pytest.mark.parametrize("name", FRAME_FAULTS)
def test_frame_faults_are_named_as_the_per_arrow_oracle_names_them(name, eps):
    frame = random_symmetric_frame(3, 2, np.random.default_rng(5))
    given = {g: frame[g] for g in np.ndindex(3, 3)}
    for g, u in FRAME_FAULTS[name].items():
        if u is None:
            del given[g]
        else:
            given[g] = np.asarray(u, dtype=complex)
    doc = {"points": 3, "fibre_dims": [2, 2, 2],
           "frame": {arrow_key(g): [[[z.real, z.imag] for z in row] for row in u]
                     for g, u in given.items()}}
    with pytest.raises(ValueError) as expected:
        frame_per_arrow(given, 3, 2, eps)
    with pytest.raises(ValueError) as got:
        model_from_json(doc, eps)
    assert (got.type, str(got.value)) == (expected.type, str(expected.value))


def test_a_non_finite_frame_entry_fails_the_stacked_check():
    """Unitarity is checked on the whole frame at once, so a non-finite entry
    raises its ValueError even behind an arrow with another fault (which
    the per-arrow oracle names first)."""
    frame = random_symmetric_frame(3, 2, np.random.default_rng(5))
    doc = model_to_json(build_semidirect_bundle(CStarBundle((2,) * 3), frame=frame))
    doc["frame"]["(1,2)"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
    doc["frame"]["(3,2)"] = [[["nan", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$") as exc:
        model_from_json(doc)
    assert exc.type is ValueError


ONE_ARRAY_FAULTS = {
    # arrow (0-indexed) -> its matrix, or None to leave it out, in row-major order
    "non-unitary before missing": {(0, 2): 1.5 * np.eye(2), (1, 0): None},
    "missing before non-unitary": {(0, 2): None, (1, 0): 1.5 * np.eye(2)},
}


@pytest.mark.parametrize("name", [*ONE_ARRAY_FAULTS, "unitary"])
def test_a_well_formed_frame_is_read_as_one_array(name, monkeypatch):
    """A frame whose keys all name arrows of the points and whose values are
    all d×d matrices is read without the per-value readers, normed once in
    all of fellkit, names its first fault as the per-arrow oracle does and
    otherwise keeps every bit (−0.0 included)."""
    frame = random_symmetric_frame(3, 2, np.random.default_rng(7))
    frame[0, 1] = -np.eye(2)  # entries −1−0j and −0−0j
    frame[1, 0] = frame[0, 1].conj().T
    given = {g: frame[g] for g in np.ndindex(3, 3)}
    for g, u in ONE_ARRAY_FAULTS.get(name, {}).items():
        if u is None:
            del given[g]
        else:
            given[g] = u.astype(complex)
    text = json.dumps({"points": 3, "fibre_dims": [2, 2, 2], "frame": {
        arrow_key(g): matrix_to_json(u) for g, u in given.items()}})
    calls = []
    for module, names in ((fellkit.serialize, ("arrow_from_key", "matrix_from_json")),
                          (fellkit.fellbundle, ("unitarity_defects",))):
        for fn in names:
            real = getattr(module, fn)
            monkeypatch.setattr(module, fn,
                                lambda *a, real=real, fn=fn: calls.append(fn) or real(*a))
    if name == "unitary":
        model, _ = model_from_json(loads(text))
        assert model.frame.tobytes() == frame.tobytes()
    else:
        with pytest.raises(FrameError) as expected:
            frame_per_arrow(given, 3, 2)
        with pytest.raises(FrameError, match=f"^{re.escape(str(expected.value))}$"):
            model_from_json(loads(text))
    assert calls == ["unitarity_defects"]


def cli_documents():
    """(name, document) of every report, check and phi entry on a few models,
    as the CLI builds them before emission."""
    argvs = {"flow 4x2": ["--preset", "flow", "--points", "4", "--dim", "2"],
             "flow 8x1": ["--preset", "flow", "--points", "8", "--dim", "1"],
             "semidirect 4x2": ["--preset", "semidirect", "--points", "4", "--dim", "2"],
             "imprimitivity": ["--preset", "imprimitivity", "--dims", "1,2,3"],
             "fourpoint": ["--preset", "fourpoint"]}
    models = {name: load_model(build_parser("report").parse_args(argv), 1e-9)
              for name, argv in argvs.items()}
    models["twisted 5"] = model_from_json(TWISTED_5)
    for name, (model, g) in models.items():
        yield f"report {name}", run_report(pipeline(model, g, 1e-9), g)
        for what in CHECKS if g is not None else ("axioms", "pair"):
            yield f"check {what} {name}", run_check(what, pipeline(model, g, 1e-9))
        for what in PHI if g is not None else ():
            yield f"phi {what} {name}", run_phi(what, pipeline(model, g, 1e-9))


def keys(doc):
    """Every dict key in a document's dicts, lists and tuples."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield k
            yield from keys(v)
    elif isinstance(doc, (list, tuple)):
        for v in doc:
            yield from keys(v)


def test_every_document_key_is_a_str():
    """json sorts and writes str keys as they are, so passing ``jsonable`` as
    the encoder's default hook, not pre-walking the document, keeps each
    document's key order and bytes."""
    docs = dict(cli_documents())
    assert len(docs) == 6 + 2 + 5 * (len(CHECKS) + len(PHI))
    for name, doc in docs.items():
        assert all(type(k) is str for k in keys(doc)), name
