"""A fixed reference loop that gauges how fast the host runs right now.

Usage: python3 reference.py

It does the kind of work fellkit's reports spend their time on (singular
values of small complex matrices, block compressions, tuple-keyed dicts)
with no fellkit code, so no change to fellkit can change its time.  It
prints ``ready`` once set up, then the loop's seconds.  run.py starts it
before every pass and multiplies the run's times by REFERENCE_S over the
median loop time (see README.md).  Its work is fixed: changing ROUNDS or
the loop changes the unit of every scaled figure.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

ROUNDS = 400


def loop(mats: list[np.ndarray]) -> float:
    acc = 0.0
    for r in range(ROUNDS):
        seen = {}
        for i, a in enumerate(mats):
            d = a.shape[0]
            block = np.zeros_like(a)
            block[: d // 2, : d // 2] = a[: d // 2, : d // 2]
            acc += float(np.linalg.svd(a @ a.conj().T - block,
                                       compute_uv=False)[0])
            seen[(r, i, d)] = (i * r) % 7
        acc += sum(seen.values())
    return acc


if __name__ == "__main__":
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in (4, 6, 8, 12) for _ in range(10)]
    loop(mats[:4])  # warm-up, so the timed loop pays no first-call costs
    print("ready", flush=True)
    t0 = perf_counter()
    loop(mats)
    print(perf_counter() - t0)
