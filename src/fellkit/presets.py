"""Random unitary frames (one unitary per arrow of X×X) for the semidirect
bundle presets of the command line and for the tests."""

from __future__ import annotations

import numpy as np

from .dynamics import covariance_group, make_spatial_automorphism
from .groupoid import Arrow, Bisection, cycle_bisection
from .linalg import haar_unitary


def random_symmetric_frame(
    n: int, dim: int, rng: np.random.Generator
) -> dict[Arrow, np.ndarray]:
    """A random unitary frame with u_(x,x) = I and u_(y,x) = u_(x,y)*."""
    frame: dict[Arrow, np.ndarray] = {}
    for x in range(n):
        frame[(x, x)] = np.eye(dim, dtype=complex)
    for x in range(n):
        for y in range(x + 1, n):
            u = haar_unitary(dim, rng)
            frame[(x, y)] = u
            frame[(y, x)] = u.conj().T
    return frame


def flow_frame(
    n: int, dim: int, rng: np.random.Generator
) -> tuple[dict[Arrow, np.ndarray], Bisection]:
    """A frame generated by one n-cycle automorphism with trivial holonomy.

    The closing edge is chosen so the product of the fibre maps around the
    cycle is the identity; the full frame is then the orbit of the generator's
    powers, which is adjoint-symmetric with identity diagonal.
    """
    g = cycle_bisection(n)
    if n == 1:
        maps = [np.eye(dim, dtype=complex)]
    else:
        maps = [haar_unitary(dim, rng) for _ in range(n - 1)]
        closing = np.eye(dim, dtype=complex)
        for w in maps:
            closing = w @ closing
        maps.append(closing.conj().T)
    sigma = make_spatial_automorphism(g, maps, (dim,) * n)
    Gs = covariance_group(sigma)
    frame: dict[Arrow, np.ndarray] = {}
    for element in Gs.elements:
        for y in range(n):
            frame[(element.f0(y), y)] = element.fibre_maps[y]
    return frame, g
