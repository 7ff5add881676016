"""Numerical search over scenario settings, and the exact witness curves in the coupling.

`optimize_settings` certifies the qubit maxima of either witness at a fixed
coupling angle by search. Every probability a witness reads is affine in
the preparation, p(+1 | x, s) = a_s + r_x . m_s / 2, so the best
preparations have a closed form (the see-saw step of Pawlowski & Brunner,
PRA 84, 010302 (2011)), leaving W1 = |m0 + m1| + |m0 - m1| and
W2 = |m0 x m1|. Bob's axes and the ancilla readout have closed forms too
(Bob's from the eigenvectors of his dephasing matrix), and by the same
envelope argument they drop out of the gradient, so the search climbs over
Charlie's two interaction axes alone, all restarts as one numpy batch. The
best settings are re-evaluated through the full density-matrix simulation.

`find_violation_window` solves in closed form for the coupling angles where
the double violation of the linear witness pair starts and ends: both
witnesses are exact trigonometric curves in the coupling, read off the
coefficient tables of `scenario.curve_coefficients` (`w1_curves`), so each
endpoint is one arccos.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, pi, sin

import numpy as np

from .channel import check_coupling
from .scenario import (
    Scenario,
    _joint_from_coefficients,
    build_table,
    build_tables,
    canonical_w1_scenario,
    canonical_w2_scenario,
    curve_coefficients,
)
from .spheres import minimize, unit  # looked up here per search, so wrapping explore.minimize sees every call
from .witness import QRAC_SIGNS, _readout_index, _readout_values, w1, w2

__all__ = [
    "OptimizeConfig",
    "OptimizeResult",
    "Window",
    "optimize_settings",
    "w1_curves",
    "find_violation_window",
]

_TARGETS = ("w1_ab", "w1_ac", "w2_ab", "w2_ac")
_SIGNS = np.array(QRAC_SIGNS, dtype=float)  # (x, s) signs of the linear witness
_X_AXIS, _Z_AXIS = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
_PLUS_MINUS = np.array([[1.0], [-1.0]])
#: Most restarts `OptimizeConfig` accepts, 100 times the default.
MAX_RESTARTS = 6_400
#: The types of a real number; bool, an int subclass, is excluded by hand.
_REALS = (int, float, np.integer, np.floating)


def check_tolerance(name: str, value) -> float:
    """A finite positive real ``value`` (not a bool) as a float, or ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, _REALS) or not (isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class OptimizeConfig:
    """Search configuration; identical configs give bit-identical runs.

    A restart stops once its projected gradient is at most ``tolerance``
    times its witness value in norm (or once no step can improve it in
    double precision). ``allow_mixed`` is accepted for compatibility: pure
    preparations are optimal for an affine objective, so they stay pure.
    The checked ``eps`` and ``tolerance`` are kept as floats, ``allow_mixed`` as a bool.
    """

    target: str  # one of w1_ab, w1_ac, w2_ab, w2_ac
    eps: float = 0.0
    restarts: int = 64
    seed: int = 0
    tolerance: float = 1e-9
    max_iterations: int = 2000
    allow_mixed: bool = False

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise ValueError(f"target must be one of {_TARGETS}, got {self.target!r}")
        if isinstance(self.eps, bool) or not isinstance(self.eps, _REALS):
            raise ValueError(f"eps must be a real number, got {self.eps!r}")
        object.__setattr__(self, "eps", check_coupling(float(self.eps)))
        for name, least in (("restarts", 1), ("seed", 0), ("max_iterations", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.restarts > MAX_RESTARTS:  # checked before the search allocates (restarts, 2, 3)
            raise ValueError(f"restarts must be at most {MAX_RESTARTS}, got {self.restarts}")
        object.__setattr__(self, "tolerance", check_tolerance("tolerance", self.tolerance))
        if not isinstance(self.allow_mixed, (bool, np.bool_)):
            raise ValueError(f"allow_mixed must be a bool, got {self.allow_mixed!r}")
        object.__setattr__(self, "allow_mixed", bool(self.allow_mixed))


@dataclass(frozen=True)
class OptimizeResult:
    """Best settings found, with the search diagnostics.

    ``value`` is the witness of ``scenario`` re-evaluated through the full
    density-matrix simulation; ``converged`` is False when the best restart
    stopped on the iteration cap. ``evaluations`` counts calls of the
    objective, each of which evaluates every restart still climbing.
    """

    scenario: Scenario
    value: float
    converged: bool
    restart_index: int
    evaluations: int
    max_evaluated: float  # largest |objective| seen at any evaluated point


@dataclass(frozen=True)
class Window:
    """An open coupling-angle interval with a double witness violation."""

    lo: float
    hi: float
    kind: str  # "w1" | "w2"

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi <= pi:
            raise ValueError(f"window ({self.lo}, {self.hi}) is not inside [0, pi]")


def _measurement_map(kind: str, pair: str, eps: float):
    """``m_of`` for one witness and observer pair under a uniform z prior.

    The search runs over Charlie's two interaction axes om (R, 2, 3) alone:
    every other axis is solved in closed form for om. ``m_of(om)`` returns
    the measurement vectors m (R, 2, 3), the adjoint that takes a gradient
    in m to one in om (by the envelope theorem, with the solved axes held
    fixed), and the solved axes: Bob's (R, 2, 3) for AB, the ancilla axis
    (3,) for AC, which does not depend on om.

    * AB: Bob's vector is partially dephased toward Charlie's axes,
      m_y = M nu_y with M = c I + h sum_z om_z om_z^T. With e1, e2 the
      eigenvectors of M of the two largest |eigenvalues| s1 >= s2, W1 takes
      nu = cos th e1 +- sin th e2 with tan th = s2 / s1, worth
      2 sqrt(s1^2 + s2^2), and W2 takes nu = (e1, e2), worth s1 s2; no pair
      of unit axes does better (Ky Fan). s1 >= max(|c|, (1 + c) / 2) > 0.
    * AC: the ancilla readout gains d = t . kick from the -om_z half of the
      preparation, m_z = -d om_z, so t = kick / |kick| gives d = |kick|.
    """
    if pair == "ab":
        c, h = cos(eps), 0.5 * (1.0 - cos(eps))

        def m_of(om):
            mat = c * np.eye(3) + h * om.transpose(0, 2, 1) @ om
            lam, vec = np.linalg.eigh(mat)
            top = np.argsort(-np.abs(lam), axis=1)[:, :2]
            e = np.take_along_axis(vec, top[:, None, :], axis=2).transpose(0, 2, 1)  # rows e1, e2
            if kind == "w1":
                cs = unit(np.abs(np.take_along_axis(lam, top, axis=1)))[:, :, None]  # (cos th, sin th)
                nu = cs[:, :1] * e[:, :1] + _PLUS_MINUS * cs[:, 1:] * e[:, 1:]
            else:
                nu = e

            def pull_back(dm):
                outer = dm.transpose(0, 2, 1) @ nu
                return h * om @ (outer + outer.transpose(0, 2, 1))

            return nu @ mat, pull_back, nu

        return m_of

    kick = -sin(eps) * np.array([sin(eps), cos(eps), 0.0])
    t = unit(kick, _X_AXIS)
    d = float(t @ kick)

    def m_of(om):
        return -d * om, lambda dm: -d * dm, t

    return m_of


def _best_preparations(kind: str, m: np.ndarray) -> np.ndarray:
    """The pure preparations (R, 4, 3) maximizing the witness for m (R, 2, 3).

    W1 takes r_x = unit(sum_s sign(x, s) m_s). W2 takes (u, -u, v, -v) for
    u, v orthonormal in the plane of m0, m1 with u x v along m0 x m1. Where
    these vectors vanish every choice gives 0, and fixed axes are used.
    """
    if kind == "w1":
        return unit(_SIGNS @ m, _Z_AXIS)
    u = unit(m[:, 0], _Z_AXIS)
    v = unit(np.cross(unit(np.cross(m[:, 0], m[:, 1])), u), _X_AXIS)
    return np.stack([u, -u, v, -v], axis=1)


def _witness_of_m(kind: str, m: np.ndarray):
    """Witness (R,) under the best preparations, and its gradient in m.

    By the envelope theorem the gradient is that of the affine witness with
    the best preparations held fixed. The values equal |m0 + m1| + |m0 - m1|
    and |m0 x m1|.
    """
    r = _best_preparations(kind, m)
    if kind == "w1":  # W1 = sum_s m_s . dm_s with dm_s = sum_x sign(x, s) r_x / 2
        dm = 0.5 * _SIGNS.T @ r
        return np.sum(dm * m, axis=(1, 2)), dm
    # W2 = (u . m0)(v . m1) - (v . m0)(u . m1) with u = r_0, v = r_2
    a, b = np.einsum("ri,rsi->rs", r[:, 0], m), np.einsum("ri,rsi->rs", r[:, 2], m)
    dm = np.stack([r[:, 0] * b[:, 1:] - r[:, 2] * a[:, 1:], r[:, 2] * a[:, :1] - r[:, 0] * b[:, :1]], axis=1)
    return a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1], dm


def _starts(seed: int, restarts: int) -> np.ndarray:
    """Charlie's two axes (restarts, 2, 3) for each restart, from a seeded PCG64.

    Each axis is uniform on the sphere. Every target depends on the axes
    only through the angle between them, and W2_AB has a local maximum at
    parallel axes beside the global one at orthogonal axes for
    -0.17 < cos eps < 0, and the global one's basin can hold well under
    half of the angles. So the cosine of the angle is stratified: restart i
    draws it uniformly from the i-th of ``restarts`` equal parts of [-1, 1].
    """
    rng = np.random.default_rng(seed)
    om0 = unit(rng.standard_normal((restarts, 3)))
    perp = unit(np.cross(om0, rng.standard_normal((restarts, 3))))
    cos_angle = 2.0 * (np.arange(restarts) + rng.random(restarts)) / restarts - 1.0
    om1 = cos_angle[:, None] * om0 + np.sqrt(1.0 - cos_angle**2)[:, None] * perp
    return np.stack([om0, om1], axis=1)


def optimize_settings(cfg: OptimizeConfig) -> OptimizeResult:
    """Multi-start search for the settings maximizing the target.

    Restarts start from `_starts`; given the same config the whole
    trajectory and the result are reproducible bit for bit.
    """
    kind, pair = cfg.target.split("_")
    m_of = _measurement_map(kind, pair, cfg.eps)
    evaluated = []  # largest |value| of each objective call

    def negated(flat):
        m, pull_back, _ = m_of(flat.reshape(-1, 2, 3))
        value, dm = _witness_of_m(kind, m)
        evaluated.append(float(np.abs(value).max()))
        return -value, -pull_back(dm).reshape(flat.shape)

    x0 = _starts(cfg.seed, cfg.restarts).reshape(cfg.restarts, 6)
    res = minimize(negated, x0, maxiter=cfg.max_iterations, tol=cfg.tolerance)
    om = res.x.reshape(1, 2, 3)
    m, _, solved = m_of(om)
    preparations = _best_preparations(kind, m)[0]
    if pair == "ab":
        scenario = Scenario(preparations, bob_axes=solved[0], charlie_axes=om[0], ancilla_axis=_X_AXIS)
    else:  # Bob's axes never enter the AC statistics
        scenario = Scenario(preparations, bob_axes=[_X_AXIS, _Z_AXIS], charlie_axes=om[0], ancilla_axis=solved)
    evaluator = w1 if kind == "w1" else w2
    return OptimizeResult(
        scenario=scenario,
        value=float(evaluator(build_table(scenario, cfg.eps), pair=pair).value),
        converged=res.success,
        restart_index=res.index,
        evaluations=len(evaluated),
        max_evaluated=max(evaluated),
    )


#: Largest gap between the engine and the exact curves that still counts as none.
_CURVE_TOL = 1e-12
#: Basis functions of the linear witness per pair, as indices into the basis
#: (1, cos eps, sin eps, cos 2eps, sin 2eps) of `curve_coefficients`.
_W1_BASES = {"ab": [0, 1], "ac": [0, 3, 4]}


def w1_curves(s: Scenario) -> dict:
    """Exact linear-witness curves of ``s``: {pair: coefficients}.

    W1_AB = ab[0] + ab[1] cos eps and W1_AC = ac[0] + ac[1] cos 2eps +
    ac[2] sin 2eps. W1 is linear in the cells, so its coefficients are the
    witness of the coefficient tables of `curve_coefficients`; the other
    basis terms cancel in each pair, for any settings and prior. As a guard
    the engine must match the coefficient tables in every cell to 1e-12 at
    five angles, read by one call, or RuntimeError is raised, since the
    closed-form window endpoints rest on the curves being exact. The
    tables are built once, for the guard and the curves alike.
    """
    coef = curve_coefficients(s)
    nodes = np.linspace(0.0, pi, 5)
    gap = np.abs(build_tables(s, nodes) - _joint_from_coefficients(coef, nodes)).max()
    if gap > _CURVE_TOL:
        raise RuntimeError(f"the engine misses its curve model by {gap:.3g}")
    w1_of_coef = _readout_values(coef, s.z_prior)[1]  # (basis term, readout)
    return {pair: w1_of_coef[basis, _readout_index(pair, None)] for pair, basis in _W1_BASES.items()}


def _w1_window(curves: dict) -> Window:
    """Where W1_AC climbs through 2 in [0, pi/2] and W1_AB falls through 2.

    W1_AB = a0 + a1 cos eps falls through 2 at arccos((2 - a0) / a1) when
    a1 > 0. W1_AC = c0 + r cos(2 eps - phi), with r = |(c1, c2)| and
    phi = atan2(c2, c1), climbs through 2 where 2 eps - phi = -arccos((2 - c0) / r).
    """
    (a0, a1), (c0, c1, c2) = curves["ab"], curves["ac"]
    r = float(np.hypot(c1, c2))
    if not (a1 > 0.0 and -1.0 <= (2.0 - a0) / a1 <= 1.0):
        raise RuntimeError("W1_AB does not fall through 2 on [0, pi]")
    if not (r > 0.0 and -1.0 <= (2.0 - c0) / r <= 1.0):
        raise RuntimeError("W1_AC does not cross 2")
    hi = float(np.arccos((2.0 - a0) / a1))
    lo = float((np.arctan2(c2, c1) - np.arccos((2.0 - c0) / r)) / 2.0 % pi)
    if lo > pi / 2.0:
        raise RuntimeError("W1_AC does not climb through 2 on [0, pi/2]")
    return Window(lo=lo, hi=hi, kind="w1")


def find_violation_window(kind: str, tol: float = 1e-12) -> Window:
    """Coupling angles with both observer pairs above the classical bound.

    For the linear pair the window opens where the AC witness climbs
    through 2 in [0, pi/2] and closes where the AB witness falls through 2;
    both endpoints are solved in closed form from the exact curves of
    `w1_curves`, guarded by one engine call. For the determinant pair the
    whole open interval (0, pi) qualifies; positivity of both witnesses is
    spot-checked at three interior angles, read from one engine call.

    ``tol`` is validated and kept for compatibility; it no longer changes
    the result, which is exact to rounding.
    """
    check_tolerance("tol", tol)
    if kind == "w1":
        return _w1_window(w1_curves(canonical_w1_scenario()))
    if kind == "w2":
        s = canonical_w2_scenario()
        spots = np.array([0.1, pi / 2.0, 3.0])
        w2_at_spots = _readout_values(build_tables(s, spots), s.z_prior)[2]  # (spot, readout)
        for pair in ("ab", "ac"):
            bad = spots[w2_at_spots[:, _readout_index(pair, None)] <= 0.0]
            if bad.size:
                raise RuntimeError(f"determinant witness for pair {pair} not positive at eps={bad[0]}")
        return Window(lo=0.0, hi=pi, kind="w2")
    raise ValueError(f"kind must be 'w1' or 'w2', got {kind!r}")
