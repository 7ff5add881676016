"""Locate the coupling window where both linear witnesses exceed 2.

The AC witness climbs through the classical bound at arcsin(2^(-1/4)) and
the AB witness falls through it at arccos(sqrt(2) - 1); between the two
every coupling angle shows a simultaneous violation for both observer
pairs. Both witnesses are exact curves in the coupling, W1_AB = a0 + a1 cos eps
and W1_AC = c0 + c1 cos 2eps + c2 sin 2eps; their coefficients are read from
the simulation, each endpoint is solved in closed form, and both are
checked against the analytic endpoints.

Run:  python demos/violation_window.py
"""

import numpy as np

from triwitness import build_table, canonical_w1_scenario, find_violation_window, w1

window = find_violation_window("w1")
lo_exact = np.arcsin(2.0 ** (-1.0 / 4.0))
hi_exact = np.arccos(np.sqrt(2.0) - 1.0)

print("double-violation window of the linear witness pair")
print(f"  solved lo = {window.lo:.12f} rad   analytic = {lo_exact:.12f}   |diff| = {abs(window.lo - lo_exact):.2e}")
print(f"  solved hi = {window.hi:.12f} rad   analytic = {hi_exact:.12f}   |diff| = {abs(window.hi - hi_exact):.2e}")
print(f"  width = {window.hi - window.lo:.6f} rad")

print()
print("witness values around the window:")
scn = canonical_w1_scenario()
for eps in (window.lo - 0.05, window.lo + 1e-3, 1.0, window.hi - 1e-3, window.hi + 0.05):
    t = build_table(scn, eps)
    ab, ac = w1(t, "ab").value, w1(t, "ac").value
    status = "inside " if min(ab, ac) > 2.0 else "outside"
    print(f"  eps = {eps:8.5f}  W1_AB = {ab:8.6f}  W1_AC = {ac:8.6f}  -> {status}")
