"""Model builders shared by several test modules."""

import math
import tracemalloc

import numpy as np

from fellkit.cocycle import Cocycle2, make_twist
from fellkit.dynamics import SpatialAutomorphism, make_spatial_automorphism
from fellkit.groupoid import Bisection
from fellkit.linalg import (
    DEFAULT_EPS,
    _numerical_rank,
    as_matrix,
    haar_unitary,
    operator_norms,
)


def dense_rank(m, eps: float = DEFAULT_EPS) -> int:
    """The rank oracle: one SVD of one dense matrix, under the package's rank
    rule (singular values above eps times the largest)."""
    return int(_numerical_rank(np.linalg.svd(as_matrix(m), compute_uv=False), eps))


def dense_span_dimension(mats, eps: float = DEFAULT_EPS) -> int:
    """The span oracle: ``dense_rank`` of the family vectorised as one
    (members, entries) matrix."""
    return dense_rank(np.reshape(mats, (len(mats), -1)), eps) if len(mats) else 0


def block_of(A, b, i: int, j: int) -> np.ndarray:
    """The (i, j) block p_i b p_j of an ambient matrix, read through
    ``A.blocks`` and unpadded."""
    return A.blocks(b)[i, j, :A.block_dims[i], :A.block_dims[j]]


def traced_peak_bytes(run) -> int:
    """The peak of memory traced by tracemalloc over a second call of run."""
    run()  # warm numpy's and the interpreter's caches outside the trace
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def twist_from_phases(theta: np.ndarray, fibre_dim: int = 1) -> Cocycle2:
    """The coboundary-form twist τ((x,y),(y,z)) = exp(i(θxy + θyz − θxz)).

    θ must be a real antisymmetric matrix; antisymmetry makes the twist
    admissible (unit-normalized with τ(g,g*) = 1).
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    if not np.allclose(theta, -theta.T):
        raise ValueError("phase matrix must be antisymmetric")
    values = {}
    for x in range(n):
        for y in range(n):
            for z in range(n):
                phase = np.exp(1j * (theta[x, y] + theta[y, z] - theta[x, z]))
                values[((x, y), (y, z))] = phase
    return make_twist(n, fibre_dim, values)


def frame_array(frame: dict, n: int) -> np.ndarray:
    """The (n, n, d, d) array of a frame or assignment given per arrow."""
    return np.array([[frame[(x, y)] for y in range(n)] for x in range(n)],
                    dtype=complex)


def unchecked_cocycle(n: int, fibre_dim: int, values: dict) -> Cocycle2:
    """A Cocycle2 with the given values, identity elsewhere, not validated:
    a negative control whose values need not be twist values at all."""
    out = np.tile(np.eye(fibre_dim, dtype=complex), (n, n, n, 1, 1))
    for (g, h), v in values.items():
        out[g[0], g[1], h[1]] = v
    return Cocycle2(values=out)


def distance_from_trivial(w: Cocycle2) -> float:
    """max over composable pairs of ‖ω(g,h) − I‖."""
    d = w.fibre_dim
    return float(operator_norms((w.values - np.eye(d)).reshape(-1, d, d)).max())


def random_spatial_automorphism(
    f0: Bisection, fibre_dims, rng: np.random.Generator
) -> SpatialAutomorphism:
    """f0 with one Haar unitary fibre map per point, drawn in point order."""
    dims = tuple(int(n) for n in fibre_dims)
    maps = [haar_unitary(dims[x], rng) for x in range(len(dims))]
    return make_spatial_automorphism(f0, maps, dims)


# a 5-point scalar twist on one pair and its mirror, admissible but not a
# cocycle: the bundle is not associative
TWISTED_5 = {
    "points": 5,
    "fibre_dims": [1] * 5,
    "twist": {
        "((1,2),(2,3))": [math.cos(0.7), math.sin(0.7)],
        "((3,2),(2,1))": [math.cos(0.7), -math.sin(0.7)],
    },
    "generator": [2, 3, 4, 5, 1],
}
