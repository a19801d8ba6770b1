"""Random unitary frames (one unitary per arrow of X×X) for the semidirect
bundle presets of the command line and for the tests."""

from __future__ import annotations

import numpy as np

from .dynamics import covariance_group, make_spatial_automorphism
from .fellbundle import identity_frame
from .groupoid import Bisection, cycle_bisection
from .linalg import adjoints, haar_unitaries


def random_symmetric_frame(
    n: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """A random (n, n, dim, dim) unitary frame with u_(x,x) = I and
    u_(y,x) = u_(x,y)*."""
    frame = identity_frame(n, dim)
    upper = np.triu_indices(n, 1)  # row-major: the order u_(x,y) are drawn in
    u = haar_unitaries(len(upper[0]), dim, rng)
    frame[upper] = u
    frame[upper[::-1]] = adjoints(u)
    return frame


def flow_frame(
    n: int, dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, Bisection]:
    """A frame generated by one n-cycle automorphism with trivial holonomy.

    The closing edge is chosen so the product of the fibre maps around the
    cycle is the identity; the full frame is then the orbit of the generator's
    powers, which is adjoint-symmetric with identity diagonal.
    """
    g = cycle_bisection(n)
    if n == 1:
        maps = [np.eye(dim, dtype=complex)]
    else:
        maps = list(haar_unitaries(n - 1, dim, rng))
        closing = np.eye(dim, dtype=complex)
        for w in maps:
            closing = w @ closing
        maps.append(closing.conj().T)
    return covariance_group(make_spatial_automorphism(g, maps, (dim,) * n)).blocks, g
