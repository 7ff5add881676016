"""Recover the qubit maxima of both witnesses by numerical search.

A seeded multi-start search should land on the known qubit maxima:
2*sqrt(2) for the linear witness and 1 for the determinant. The four
preparations and Bob's two axes are solved in closed form for any of
Charlie's axes, and all 64 restarts climb over Charlie's two axes together
by projected gradient ascent. At eps = 0 nothing couples Bob to Charlie's
axes, so the first evaluation is already stationary.
The search never sees the canonical settings; finding the same values from
random starts certifies the canonical construction numerically.

Run:  python demos/optimal_settings.py   (well under a second)
"""

import time

import numpy as np

from triwitness import OptimizeConfig, optimize_settings

for target, bound_name, bound in (
    ("w1_ab", "2*sqrt(2)", 2.0 * np.sqrt(2.0)),
    ("w2_ab", "1", 1.0),
):
    cfg = OptimizeConfig(target=target, eps=0.0, restarts=64, seed=42)
    start = time.perf_counter()
    res = optimize_settings(cfg)
    elapsed = time.perf_counter() - start
    print(f"target {target}: qubit maximum {bound_name} = {bound:.12f}")
    print(f"  best value        {res.value:.12f}   (gap {bound - res.value:.2e})")
    print(f"  found at restart  {res.restart_index}, {res.evaluations} batched evaluations, {elapsed * 1e3:.0f} ms")
    print(f"  largest value seen anywhere: {res.max_evaluated:.12f} (never above the bound)")
    print(f"  optimal preparations (rows = inputs 00, 01, 10, 11):")
    for row in res.scenario.preparations:
        print(f"    [{row[0]: .6f}, {row[1]: .6f}, {row[2]: .6f}]")
    print()
