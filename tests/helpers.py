"""Model builders shared by several test modules."""

import math
import tracemalloc

import numpy as np

from fellkit.algebra import FiniteCStarAlgebra
from fellkit.cocycle import Cocycle2, make_twist
from fellkit.dynamics import (
    CovarianceGroup,
    SpatialAutomorphism,
    covariance_group,
    make_spatial_automorphism,
)
from fellkit.embedding import EmbeddingInvariant
from fellkit.groupoid import Bisection, cycle_bisection
from fellkit.presets import flow_frame
from fellkit.linalg import (
    DEFAULT_EPS,
    _largest_singular_values,
    _numerical_rank,
    adjoints,
    as_matrix,
    haar_unitary,
    operator_norms,
)


def random_matrix(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix of the given shape."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_fibre_element(E, g, rng: np.random.Generator) -> np.ndarray:
    """A ``random_matrix`` element of E's fibre at g, or 0 at a zero fibre."""
    if g in E.zero_fibres:
        return np.zeros(E.fibre_shape(g), dtype=complex)
    return random_matrix(E.fibre_shape(g), rng)


def composable_triples(G) -> list:
    """Every composable triple ((x,y),(y,z),(z,w)) of a pair groupoid, row-major."""
    return [((x, y), (y, z), (z, w)) for x, y, z, w in np.ndindex((G.n_points,) * 4)]


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


def probe_expectation(P, eps: float = DEFAULT_EPS) -> dict:
    """The expectation oracle: ``ConditionalExpectation.verify``'s contract
    decided from the images T_rs = P(E_rs) of the N² matrix units, for any
    linear map P(b) on (k, N, N) stacks over ``P.range_algebra`` (``verify``
    reads the same residuals off the block mask of the compression).

    * fixes_range: max ‖T_rs − E_rs‖ over the units of A; idempotent:
      max ‖P(T_rs) − T_rs‖.
    * bimodule: max ‖T_rs − c_rs E_rs‖, c_rs = (T_rs)_rs, and the spread of
      c from the corner of each block rectangle (Schur's lemma).
    * positive: complete positivity from the Choi matrix
      C[(r,i),(s,j)] = (T_rs)_ij, with residual max(‖C − C*‖, −λ_min); only
      C's nonzero rows and columns go to eigvalsh.
    * contractive and faithful: from the spectra of ±P(1) = ±Σ_r T_rr and
      ±P*(1), P*(1) = Σ_rs tr(T_rs)·E_sr, when ±P is completely positive.

    The units pass through P a row, or at most 2¹⁴ entries, at a time."""
    N, in_A = P.range_algebra.ambient_dim, P.range_algebra._block_mask
    corner = in_A.argmax(axis=1)  # the first index of each block
    c = np.zeros((N, N), dtype=complex)  # c_rs = (T_rs)_rs
    ends = np.zeros((2, N, N), dtype=complex)  # P(1) and P*(1)
    choi = []  # (row, column, value) of C's nonzero entries, per chunk
    fix = idem = bimod = 0.0
    k = max(1, min(N, 2**14 // (N * N)))  # a row, or ≤ 2¹⁴ entries
    for start in range(0, N * N, k):
        r, s = np.divmod(np.arange(start, min(start + k, N * N)), N)
        at = (np.arange(len(r)), r, s)
        T = np.zeros((len(r), N, N), dtype=complex)
        T[at] = 1.0
        T = P(T)
        c[r, s] = T[at]
        live = np.flatnonzero(T.any(axis=(1, 2)))  # units with T_rs ≠ 0
        t, i, j = np.nonzero(T[live])
        t = live[t]
        choi.append((r[t] * N + i, s[t] * N + j, T[t, i, j]))
        ends[0] += T[r == s].sum(axis=0)
        ends[1, s, r] = np.trace(T, axis1=1, axis2=2)
        idem = max(idem, _largest_singular_values(P(T) - T).max())
        T[at] = 0.0  # T_rs − c_rs E_rs
        bimod = max(bimod, _largest_singular_values(T).max())
        T[at] = c[r, s] - 1.0  # T_rs − E_rs, kept on the units of A
        T[~in_A[r, s]] = 0.0
        fix = max(fix, _largest_singular_values(T).max())
        del T  # before the next chunk's units
    bimod = max(bimod, np.abs(c - c[corner][:, corner]).max())

    rows, cols, values = (np.concatenate(part) for part in zip(*choi))
    live = np.zeros(N * N, dtype=bool)
    live[rows] = live[cols] = True
    pos = np.cumsum(live) - 1  # the position of a live row in C
    C = np.zeros((pos[-1] + 1,) * 2, dtype=complex)
    C[pos[rows], pos[cols]] = values
    defect = operator_norms((C - adjoints(C))[None])[0]
    spectrum = np.append(np.linalg.eigvalsh((C + adjoints(C)) / 2),
                         [0.0] * (len(C) < N * N))  # C's zero rows
    positive = max(defect, -spectrum.min())
    sign = (1.0 if positive <= eps
            else -1.0 if max(defect, spectrum.max()) <= eps else 0.0)
    contract, faithful = positive, 0.0
    if sign:
        ends = np.linalg.eigvalsh(sign * (ends + adjoints(ends)) / 2)
        contract, faithful = max(0.0, ends[0].max() - 1.0), ends[1].min()
    report = {key: (bool(r <= eps), float(r)) for key, r in (
        ("fixes_range", fix), ("bimodule", bimod), ("positive", positive),
        ("idempotent", idem), ("contractive", contract))}
    report["faithful"] = (bool(faithful > eps), float(faithful))
    return {**report, "uniqueness": "assumed"}


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


def group_unitaries(Gs: CovarianceGroup) -> np.ndarray:
    """The dense oracle of Φ: the (order, N, N) stack of the U of σ, σ², …,
    σ^order from one embed_blocks call.  Its sum, cut into blocks, is Φ's
    blocks bit for bit, the sign of zero included."""
    A = FiniteCStarAlgebra(Gs.fibre_dims)
    return A.embed_blocks(Gs.powers, np.arange(Gs.n_points)[None], Gs.maps)


def dense_invariant(phi, block_dims) -> EmbeddingInvariant:
    """Φ given as an N×N matrix, held as its blocks ``A.blocks(phi)``."""
    dims = tuple(block_dims)
    return EmbeddingInvariant(FiniteCStarAlgebra(dims).blocks(phi), dims)


def turned_flow_frame(n: int, dim: int, h: float, rng: np.random.Generator):
    """``flow_frame(n, dim, rng)`` (n ≥ 3) with its closing edge u_(0,n−1)
    turned by the phase e^{iθ} with |e^{iθ} − 1| = h, and u_(n−1,0) kept as
    its adjoint.  The frame is still unitary and symmetric, so the model
    loads; σ's fibre maps u_(x+1,x) now compose round the cycle to e^{iθ}·I
    at every point, so its holonomy is h.  (On two points the closing edge
    is the adjoint of the other edge, and the phases cancel.)"""
    frame, g = flow_frame(n, dim, rng)
    frame[0, n - 1] *= np.exp(2j * np.arcsin(h / 2))
    frame[n - 1, 0] = frame[0, n - 1].conj().T
    return frame, g


def _rot90_flow() -> dict:
    """Flow 4×2 along x ↦ x + 1 with every fibre map w = [[0, −1], [1, 0]].
    Its frame is σ's powers, frame[g^m(x), x] = w^m, and those hold −0.0:
    w² = −I has off-diagonal entries 0·(−1) + (−1)·0 = −0.0."""
    w = np.array([[0, -1], [1, 0]], dtype=complex)
    Gs = covariance_group(make_spatial_automorphism(cycle_bisection(4), [w] * 4, (2,) * 4))
    frame = np.zeros((4, 4, 2, 2), dtype=complex)
    frame[Gs.powers, range(4)] = Gs.maps
    return {
        "points": 4,
        "fibre_dims": [2] * 4,
        "frame": {f"({x + 1},{y + 1})": frame[x, y][..., None].view(float).tolist()
                  for x in range(4) for y in range(4)},
        "generator": [2, 3, 4, 1],
    }


ROT90_4X2 = _rot90_flow()


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
