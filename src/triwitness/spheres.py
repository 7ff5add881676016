"""Batched minimization over products of unit spheres in R^3.

`minimize` runs many restarts at once: a point is a (restarts, n) array
holding n/3 unit vectors per restart, and one call of the objective
evaluates every restart still descending. It is the search engine behind
`triwitness.explore.optimize_settings`, which imports it under the name
``explore.minimize``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

__all__ = ["minimize", "unit"]

#: Share of the predicted decrease that an accepted trial step must achieve.
ARMIJO = 1e-4
#: Accepted values that the nonmonotone Armijo test looks back over.
MEMORY = 10
#: Length in radians of each restart's first trial step. A full radian can
#: carry a restart that starts near a maximum out of that maximum's basin,
#: where the basin is narrower than the step.
FIRST_STEP = 0.25


def unit(v: np.ndarray, fallback=0.0) -> np.ndarray:
    """v / |v| along the last axis, ``fallback`` where v is exactly zero.

    Dividing by the largest component first keeps the direction of vectors
    whose squared norm underflows.
    """
    scale = np.abs(v).max(axis=-1, keepdims=True)
    w = v / np.where(scale > 0.0, scale, 1.0)
    return np.where(scale > 0.0, w / np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1.0), fallback)


def _one_radian(g: np.ndarray) -> np.ndarray:
    """The step that moves each restart by one radian, the longest useful one."""
    return 1.0 / np.maximum(np.linalg.norm(g, axis=(1, 2)), 1e-300)


def minimize(fun, x0: np.ndarray, maxiter: int, tol: float) -> SimpleNamespace:
    """Minimize ``fun`` over unit vectors, from a (restarts, n) batch ``x0``.

    ``fun`` maps any (m, n) batch of points to (values (m,), Euclidean
    gradients (m, n)). Each restart steps against its gradient projected
    onto the tangent spaces of its vectors and renormalizes them. The first
    step is ``FIRST_STEP`` radians long; later step lengths are
    Barzilai-Borwein estimates, capped at one radian (the cap is also taken
    where the last step saw no positive curvature). A trial must decrease
    the value below the worst of the last ``MEMORY`` accepted values by the
    Armijo margin; a rejected trial halves the step. A restart
    stops when its projected gradient is at most ``tol`` times its value in
    norm, when its step no longer moves it in double precision (nothing is
    left to gain), or after ``maxiter`` trials.

    Returns the best restart, the earliest on ties, as ``x``, ``fun``,
    ``index`` and ``success``: a plain bool, False only if that restart
    stopped on ``maxiter``.
    """

    def projected(at):
        f, g = fun(at.reshape(len(at), -1))
        g = g.reshape(at.shape)
        return f, g - np.sum(g * at, axis=-1, keepdims=True) * at

    x = x0.reshape(len(x0), -1, 3).copy()
    f, g = projected(x)
    step, trials = FIRST_STEP * _one_radian(g), np.zeros(len(x), dtype=int)
    recent = np.repeat(f[:, None], MEMORY, axis=1)
    done = np.linalg.norm(g, axis=(1, 2)) <= tol * np.abs(f)
    while (active := np.flatnonzero(~done & (trials < maxiter))).size:
        xa, ga = x[active], g[active]
        moved = xa - step[active, None, None] * ga
        trial = unit(moved)
        ft, gt = projected(trial)
        trials[active] += 1
        ok = ft < recent[active].max(axis=1) - ARMIJO * step[active] * np.sum(ga * ga, axis=(1, 2))
        done[active[~ok & np.all(moved == xa, axis=(1, 2))]] = True
        step[active[~ok]] *= 0.5
        acc, s, y = active[ok], trial[ok] - xa[ok], gt[ok] - ga[ok]
        bb = np.sum(s * s, axis=(1, 2)) / np.maximum(np.sum(s * y, axis=(1, 2)), 1e-300)
        step[acc] = np.minimum(bb, _one_radian(gt[ok]))
        x[acc], f[acc], g[acc] = trial[ok], ft[ok], gt[ok]
        recent[acc] = np.column_stack([recent[acc, 1:], ft[ok]])
        done[acc] = np.linalg.norm(gt[ok], axis=(1, 2)) <= tol * np.abs(ft[ok])
    best = int(np.argmin(f))
    return SimpleNamespace(x=x[best].ravel(), fun=float(f[best]), index=best, success=bool(done[best]))
