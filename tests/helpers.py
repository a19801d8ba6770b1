"""Model builders shared by several test modules."""

import numpy as np

from fellkit.cocycle import Cocycle2, make_twist


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
