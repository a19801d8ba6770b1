"""JSON (de)serialization for models and reports.

Conventions, shared by every artifact:

* complex scalars are two-element arrays [re, im];
* matrices are row-major nested arrays of complex scalars;
* points are 1-indexed on disk (0-indexed in memory), so the arrow from
  y = 2 to x = 1 is keyed "(1,2)" and a composable pair "((1,2),(2,3))";
  that is each one's only key (no leading zero, no other digits), and a
  key given twice in one object is a parse error, so no file names an
  arrow or pair twice;
* permutations are one-line arrays, 1-indexed: [2,3,4,1] is the 4-cycle.

Model documents look like

    {"points": n, "fibre_dims": [...],
     "frame": {"(x,y)": matrix, ...},          # omitted = plain product model
     "twist": {"((x,y),(y,z))": value, ...},   # omitted = trivial
     "generator": [..]}                        # optional base flow generator

A twist value is a unit scalar [re, im], or a d×d matrix v·I with |v| = 1
(within eps); any other value is refused (``cocycle.make_twist``).  A
document with a frame or twist parses to the coefficient (semidirect)
model; without either it parses to the imprimitivity model.  In memory the
frame is an (n, n, d, d) array and the twist an (n, n, n, d, d) one.  A twist
pair left out is the identity: ``model_to_json`` writes the pairs whose value
is not exactly the identity, ``cocycle_to_json`` every pair.  Arrays are
written from one ``tolist`` of their real view, bit for bit (−0.0 included),
and a well-formed frame is read as one array.

A report names an extracted ω by ``cocycle_sha256``: the sha256 of the shape
"n,n,n,d,d" in ASCII and a newline, then the (n, n, n, d, d) values as
little-endian complex128 bytes.  To recompute it from the ω that ``check
cocycle`` or ``phi readoff`` prints, parse each key "((x,y),(y,z))" to the
index [x-1, y-1, z-1], store its value ([re, im], or a d×d matrix of them)
there in a complex128 array, and hash that array so.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from .cocycle import Cocycle2, first_offender, make_twist
from .fellbundle import (
    FellBundleModel,
    FrameAudit,
    FrameError,
    build_imprimitivity_bundle,
    identity_frame,
    unitary_frame_bundle,
)
from .groupoid import Arrow, Bisection
from .linalg import DEFAULT_EPS, as_matrix, as_stack


class ParseError(ValueError):
    """Malformed artifact document."""


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ParseError(f"complex scalar must be [re, im], got {v!r}")
    return complex(float(v[0]), float(v[1]))


def matrix_to_json(m) -> list[list[list[float]]]:
    return as_matrix(m)[..., None].view(float).tolist()


def matrix_from_json(v) -> np.ndarray:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise ParseError(f"matrix must be a nested array, got {v!r}")
    try:
        return np.array([[complex_from_json(z) for z in row] for row in v],
                        dtype=complex)
    except (TypeError, ParseError) as exc:
        raise ParseError(f"bad matrix entry: {exc}") from exc


def arrow_key(g: Arrow) -> str:
    return f"({g[0] + 1},{g[1] + 1})"

_ARROW_RE = re.compile(r"^\((\d+),(\d+)\)$")


def arrow_from_key(key: str) -> Arrow:
    m = _ARROW_RE.match(key)
    if not m:
        raise ParseError(f"bad arrow key {key!r}, expected '(x,y)'")
    x, y = int(m.group(1)), int(m.group(2))
    if x < 1 or y < 1:
        raise ParseError(f"arrow key {key!r} must be 1-indexed")
    g = (x - 1, y - 1)
    if key != arrow_key(g):  # a leading zero, "\n" after "$", a non-ASCII digit
        raise ParseError(f"arrow key {key!r} is not canonical, expected {arrow_key(g)!r}")
    return g


def pair_key(g: Arrow, h: Arrow) -> str:
    return f"({arrow_key(g)},{arrow_key(h)})"

_PAIR_RE = re.compile(r"^\(\((\d+),(\d+)\),\(\2,(\d+)\)\)$")


def pair_from_key(key: str) -> tuple[Arrow, Arrow]:
    """The composable pair ((x,y),(y,z)) of a key; ParseError for any other."""
    m = _PAIR_RE.match(key)
    if not m:
        raise ParseError(f"bad pair key {key!r}, expected '((x,y),(y,z))'")
    x, y, z = (int(m.group(i)) - 1 for i in range(1, 4))
    if min(x, y, z) < 0:
        raise ParseError(f"pair key {key!r} must be 1-indexed")
    if key != pair_key((x, y), (y, z)):
        raise ParseError(f"pair key {key!r} is not canonical, "
                         f"expected {pair_key((x, y), (y, z))!r}")
    return (x, y), (y, z)


def permutation_to_json(g: Bisection) -> list[int]:
    return [g(x) + 1 for x in range(g.n_points)]


def _count(v, what: str) -> int:
    """A JSON integer ≥ 1; not a float, nor a bool (which Python counts an int)."""
    if type(v) is not int or v < 1:
        raise ParseError(f"{what} must be a positive integer, got {v!r}")
    return v


def permutation_from_json(v) -> Bisection:
    if not isinstance(v, list) or not all(type(i) is int for i in v):
        raise ParseError(f"permutation must be an integer array, got {v!r}")
    try:
        return Bisection(tuple(i - 1 for i in v))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def twist_value_from_json(v):
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(x, (int, float)) for x in v)):
        return complex_from_json(v)
    return matrix_from_json(v)


def cocycle_to_json(w: Cocycle2) -> dict:
    n, d = w.n_points, w.fibre_dim
    values = as_stack(w.values.reshape(-1, d, d))
    values = values[:, 0, 0] if d == 1 else values  # a scalar value as [re, im]
    keys = (pair_key((x, y), (y, z)) for x, y, z in np.ndindex(n, n, n))
    return {
        "points": n,
        "fibre_dim": d,
        "pairs": dict(zip(keys, values[..., None].view(float).tolist())),
    }


def cocycle_sha256(w: Cocycle2) -> str:
    """The digest of ω's values that a report prints (see the module docstring)."""
    v = np.ascontiguousarray(w.values, dtype="<c16")
    header = ",".join(map(str, v.shape)).encode() + b"\n"
    return hashlib.sha256(header + v.tobytes()).hexdigest()


def model_to_json(
    model: FellBundleModel, generator: Bisection | None = None
) -> dict:
    doc: dict = {
        "points": model.n_points,
        "fibre_dims": list(model.fibre_dims),
    }
    n = model.n_points
    if model.frame is not None:
        d = model.frame.shape[-1]
        frame = as_stack(model.frame.reshape(n * n, d, d))[..., None].view(float)
        doc["frame"] = dict(zip(map(arrow_key, np.ndindex(n, n)), frame.tolist()))
    if model.twist is not None:
        kept = (model.twist.values != np.eye(model.twist.fibre_dim)).any(axis=(-2, -1))
        pairs = cocycle_to_json(model.twist)["pairs"].items()
        doc["twist"] = {k: v for (k, v), keep in zip(pairs, kept.ravel()) if keep}
    if generator is not None:
        doc["generator"] = permutation_to_json(generator)
    return doc


def model_from_json(
    doc: dict, eps: float = DEFAULT_EPS
) -> tuple[FellBundleModel, Bisection | None]:
    """Parse a model document: ParseError if malformed (a key outside the
    points included); a frame or twist that breaks the bundle contract
    raises the builder's FrameError."""
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    try:
        n, dims = doc["points"], doc["fibre_dims"]
    except KeyError as exc:
        raise ParseError(f"bad model document: missing {exc}") from exc
    if not isinstance(dims, list):
        raise ParseError(f'"fibre_dims" must be an array, got {dims!r}')
    n = _count(n, '"points"')
    dims = tuple(_count(d, '"fibre_dims" entry') for d in dims)
    if len(dims) != n:
        raise ParseError(f"{n} points but {len(dims)} fibre dims")

    generator = None
    if "generator" in doc:
        generator = permutation_from_json(doc["generator"])
        if generator.n_points != n:
            raise ParseError("generator length does not match point count")

    if "frame" not in doc and "twist" not in doc:
        return build_imprimitivity_bundle(dims), generator

    if len(set(dims)) != 1:
        raise ParseError("frame/twist data requires constant fibre dimension")
    for key in ("frame", "twist"):
        if not isinstance(doc.get(key, {}), dict):
            raise ParseError(f'"{key}" must be a JSON object, '
                             f"got {type(doc[key]).__name__}")
    dim = dims[0]
    audit = (frame_from_json(doc["frame"], n, dim, eps) if "frame" in doc
             else FrameAudit(identity_frame(n, dim)))
    twist = None
    if "twist" in doc:
        values = {pair_from_key(k): twist_value_from_json(v)
                  for k, v in doc["twist"].items()}
        if any(max(*g, *h) >= n for g, h in values):
            raise ParseError(f"twist names a pair outside the {n} points")
        twist = make_twist(n, dim, values, eps=eps)
    return unitary_frame_bundle(dims, audit, twist, eps), generator


def _numbers(v) -> np.ndarray | None:
    """Nested lists of JSON numbers, of one shape, as a float array; else None."""
    try:
        a = np.array(v)
    except ValueError:  # ragged
        return None
    return a.astype(float) if a.dtype.kind in "biuf" else None


def frame_from_json(obj: dict, n: int, dim: int, eps: float) -> FrameAudit:
    """The audit of the (n, n, dim, dim) frame of a model's "frame" object.
    ParseError for a malformed key or value, else FrameError for the first
    arrow, row-major, that is missing or not a dim×dim unitary within eps."""
    frame = np.zeros((n, n, dim, dim), dtype=complex)
    given, shaped = np.zeros((2, n, n), bool)
    index = {arrow_key(g): g for g in np.ndindex(n, n)}
    arrows = [index.get(k) for k in obj]
    values = _numbers(list(obj.values()))
    if None not in arrows and values is not None and values.shape[1:] == (dim, dim, 2):
        # the common file: every key "(x,y)" of the points, every value a
        # dim×dim matrix, all read as one array
        at = tuple(np.array(arrows).T)
        frame[at] = values.view(complex)[..., 0]
        given[at] = shaped[at] = True
    else:  # value by value, to name the first malformed key or value
        matrices = {arrow_from_key(k): matrix_from_json(v) for k, v in obj.items()}
        if any(max(g) >= n for g in matrices):
            raise ParseError(f"frame names an arrow outside the {n} points")
        for g, u in matrices.items():
            given[g] = True
            if u.shape == (dim, dim):
                frame[g], shaped[g] = u, True
    audit = FrameAudit(frame)
    if (g := first_offender(~shaped | ~(audit.unitarity <= eps))) is not None:  # row-major
        raise FrameError(f"frame entry at {g} is not a {dim}×{dim} unitary"
                         if given[g] else f"frame missing arrow {g}")
    return audit


def jsonable(obj):
    """Coerce a value JSON has no type for (numpy scalars, matrices, an
    extracted ω, a set), and what it holds, to JSON types: json's ``default``."""
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [jsonable(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, Cocycle2):
        return cocycle_to_json(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return complex_to_json(complex(obj))
    return obj


def dumps_canonical(doc) -> str:
    """Deterministic text form: sorted keys, fixed indentation, newline-terminated.
    One walk: ``jsonable`` gets what JSON has no type for; keys must be str."""
    return json.dumps(doc, default=jsonable, sort_keys=True, indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose every key is given once; json's ``object_pairs_hook``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def loads(text: str | bytes):
    """A JSON document from text or UTF-8 bytes.  Bytes that are not UTF-8,
    nesting deeper than json's recursion limit, and a key repeated in one
    object (json would keep its last value) are parse errors."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text,
                          object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
