"""The Kronecker form of axioms 3 and 8 on a twisted bundle: the oracle of
``fellbundle._coefficient_residuals``' scalar twist terms.

A linear map X ↦ Σᵢ Lᵢ X Rᵢ is zero iff Σᵢ Rᵢᵀ ⊗ Lᵢ is (column-major vec).
Per live triple ((x,y),(y,z),(z,w)), associativity is L₁X = L₂XW for all X,
with L₁ = ω(gh,k)ω(g,h), L₂ = ω(g,hk) and W = ω(h,k): ‖I ⊗ L₁ − Wᵀ ⊗ L₂‖,
formed one first point x at a time.  Per live pair, (ab)* = b*a* is
X ω(g,h)* = ω(h*,g*) X for all X: ‖conj(ω(g,h)) ⊗ I − I ⊗ ω(h*,g*)‖.  Each
takes any d×d values; the frame's defects, which the suite folds into
both residuals, are left out.
"""

import numpy as np

from fellkit.fellbundle import _kron, _zero_fibre_mask
from fellkit.linalg import operator_norms


def kron_twist_residuals(E) -> tuple[float, float]:
    """The twist terms of axioms 3 and 8 of a twisted bundle E in
    coefficient form, from the d²×d² Kronecker matrix of each live triple
    and pair."""
    live = ~_zero_fibre_mask(E)
    n, d, w = E.n_points, E.fibre_dims[0], E.twist.values
    eye = np.eye(d)
    pairs = live[:, :, None] & live[None]  # [x, y, z]: (x,y) and (y,z) live

    def worst(stack, where):
        norms = operator_norms(stack.reshape(-1, d * d, d * d))
        return np.max(norms.reshape(where.shape), where=where, initial=0.0)

    assoc = 0.0
    for x in range(n):
        wx = w[x]
        l1 = wx[None] @ wx[:, :, None]  # [y, z, w] = ω(gh,k) ω(g,h)
        diff = _kron(eye, l1) - _kron(w.swapaxes(-1, -2), wx[:, None])
        # [y, z, w]: the triple ((x,y),(y,z),(z,w)) is live
        assoc = max(assoc, worst(diff, live[x][:, None, None] & pairs))
    diff = _kron(w.conj(), eye) - _kron(eye, w.transpose(2, 1, 0, 3, 4))
    return float(assoc), float(worst(diff, pairs))
