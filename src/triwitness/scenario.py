"""Prepare-and-measure scenarios and their exact outcome statistics.

A `Scenario` bundles the four sender preparations (Bloch vectors indexed by
the two-bit input ``x``), Bob's two projective axes (input ``y``), Charlie's
two interaction axes (input ``z``), the ancilla readout axis, and the prior
over ``z``. `build_tables` is the probability engine: it turns a scenario
plus a grid of coupling angles into the full conditional distribution
p(b, c | x, y, z) at every angle, as one (E, 4, 2, 2, 2, 2) array built
from one batched evolution and one einsum. `build_table` is its one-angle
slice, wrapped as a validated `ProbTable`.

Index conventions:

* ``x`` in 0..3 encodes the bit pair (x1, x2) as ``x = 2*x1 + x2``.
* ``y``, ``z`` in {0, 1}.
* outcome index 0 is the classical bit +1 (projector along the +axis),
  outcome index 1 is -1.

Probabilities are always computed from the exact interaction channel.
The independent Bloch-algebra route (the oracle) used by the verification
suite is `curve_coefficients`: every joint probability is exactly a
degree-2 trigonometric polynomial in the coupling, and `p_joint_closed_form`
evaluates all 64 of them from their coefficients. `p_bob_plus_closed_form`
and `p_charlie_plus_closed_form` give the two marginals by plain vector
algebra. The oracles take one angle or an array of them; one angle takes
a path without the angle axis that gives the same bits.

Two immutable objects keep what they derive, on the instance itself, so
that one-table requests do not derive it again and nothing outlives them:

* a `Scenario` keeps the operators of `build_tables` that do not depend on
  the coupling (prepared states, readout projectors, the ancilla projector
  and the two kick terms), built on the first engine call, not when the
  scenario is made;
* a `ProbTable` keeps the p(+1 | x, s) of its four witness readouts and
  their two witnesses, derived by `witness._readout_values` on first use,
  for the witness accessors, `randomness.entropy_report` and its own three
  readers of one probability (`ProbTable.p_bob_plus`, `p_bob_plus_given_z`
  and `p_charlie_plus`), which are slices of them.

Every field of both is write-locked, so neither cache can go stale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import channel
from .qubit import IDENTITY, NORM_TOL, PAULI, tensor

__all__ = [
    "OUTCOMES",
    "Scenario",
    "ProbTable",
    "InvalidScenarioError",
    "canonical_w1_scenario",
    "canonical_w2_scenario",
    "p_joint",
    "build_table",
    "build_tables",
    "check_probs",
    "p_bob_plus_closed_form",
    "p_charlie_plus_closed_form",
    "curve_coefficients",
    "p_joint_closed_form",
]

#: Classical outcome labels in storage order.
OUTCOMES = (1, -1)

#: Probability sums must match 1 within this much.
PROB_TOL = 1e-12
#: Shape of one table, indexed [x, y, z, b, c].
TABLE_SHAPE = (4, 2, 2, 2, 2)
_EYE4 = np.eye(4)


class InvalidScenarioError(ValueError):
    """Raised when a scenario configuration violates its invariants."""


def _as_locked(a, shape, name: str) -> np.ndarray:
    try:
        arr = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidScenarioError(f"{name} is not an array of numbers: {exc}") from exc
    if arr.shape != shape:
        raise InvalidScenarioError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidScenarioError(f"{name} has a non-finite entry: {arr.tolist()}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Scenario:
    """One full configuration of the three-observer experiment.

    Immutable; all vector fields are stored as write-locked float arrays.
    The engine's operators that depend on the settings alone are built on
    the first engine call and kept on the scenario (``_operators``).
    """

    preparations: np.ndarray  # (4, 3) Bloch vectors, one per input x
    bob_axes: np.ndarray  # (2, 3) unit axes, one per input y
    charlie_axes: np.ndarray  # (2, 3) unit interaction axes, one per input z
    ancilla_axis: np.ndarray  # (3,) unit readout axis for the ancilla
    z_prior: np.ndarray = field(default=(0.5, 0.5))  # p(z=0), p(z=1)

    def __post_init__(self):
        object.__setattr__(self, "preparations", _as_locked(self.preparations, (4, 3), "preparations"))
        object.__setattr__(self, "bob_axes", _as_locked(self.bob_axes, (2, 3), "bob_axes"))
        object.__setattr__(self, "charlie_axes", _as_locked(self.charlie_axes, (2, 3), "charlie_axes"))
        object.__setattr__(self, "ancilla_axis", _as_locked(self.ancilla_axis, (3,), "ancilla_axis"))
        object.__setattr__(self, "z_prior", _as_locked(self.z_prior, (2,), "z_prior"))
        for i, r in enumerate(self.preparations):
            if np.linalg.norm(r) > 1.0 + NORM_TOL:
                raise InvalidScenarioError(f"preparation {i} has Bloch norm {np.linalg.norm(r)} > 1")
        for name, axes in (("bob_axes", self.bob_axes), ("charlie_axes", self.charlie_axes)):
            for i, a in enumerate(axes):
                if abs(np.linalg.norm(a) - 1.0) > NORM_TOL:
                    raise InvalidScenarioError(f"{name}[{i}] is not a unit vector")
        if abs(np.linalg.norm(self.ancilla_axis) - 1.0) > NORM_TOL:
            raise InvalidScenarioError("ancilla_axis is not a unit vector")
        if np.any(self.z_prior < 0.0) or abs(self.z_prior.sum() - 1.0) > PROB_TOL:
            raise InvalidScenarioError(f"z_prior {self.z_prior} is not a probability pair")

    @cached_property
    def _operators(self) -> tuple:
        # built on the first engine call; the fields are write-locked
        return _locked(_engine_operators(self))

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain nested-list form; floats survive a JSON round trip exactly."""
        return {
            "preparations": self.preparations.tolist(),
            "bob_axes": self.bob_axes.tolist(),
            "charlie_axes": self.charlie_axes.tolist(),
            "ancilla_axis": self.ancilla_axis.tolist(),
            "z_prior": self.z_prior.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise InvalidScenarioError(f"scenario document must be an object, got {type(data).__name__}")
        try:
            return cls(
                preparations=data["preparations"],
                bob_axes=data["bob_axes"],
                charlie_axes=data["charlie_axes"],
                ancilla_axis=data["ancilla_axis"],
                z_prior=data.get("z_prior", (0.5, 0.5)),
            )
        except KeyError as exc:
            raise InvalidScenarioError(f"scenario document is missing field {exc}") from exc

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


def canonical_w1_scenario() -> Scenario:
    """Settings that maximize the linear witness pair (W1AB, W1AC).

    Preparations are the four diagonal states ((-1)^x1, 0, (-1)^x2)/sqrt(2);
    both observers measure along the x and z axes of the Bloch sphere.
    """
    s = 1.0 / np.sqrt(2.0)
    preps = [[s * (-1) ** x1, 0.0, s * (-1) ** x2] for x1 in (0, 1) for x2 in (0, 1)]
    axes = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    return Scenario(
        preparations=preps,
        bob_axes=axes,
        charlie_axes=axes,
        ancilla_axis=[1.0, 0.0, 0.0],
    )


def canonical_w2_scenario() -> Scenario:
    """Settings that maximize the determinant witness pair (W2AB, W2AC).

    Preparations sit on the measurement axes themselves: +-z for x1 = 0 and
    +-x for x1 = 1.
    """
    preps = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    axes = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    return Scenario(
        preparations=preps,
        bob_axes=axes,
        charlie_axes=axes,
        ancilla_axis=[1.0, 0.0, 0.0],
    )


# -- exact channel probabilities ----------------------------------------


def _engine_operators(s: Scenario) -> tuple:
    """The operators of `build_tables` that do not depend on the coupling.

    Returns (states, readouts, p_anc, kick_terms): the prepared states
    rho_x x |+><+| (x, 4, 4), the readouts P(nu_y) x P(+-t) (y, c, 4, 4),
    the ancilla projector P(t) (2, 2) and the kick terms P(-w_z) x |k><k|
    (k, z, 1, 4, 4). Every state and projector is one rank-1 operator
    (I + v.sigma)/2, built together by one contraction with the Pauli
    vector (the scenario has already checked every v).
    """
    vectors = np.concatenate(
        [s.preparations, s.bob_axes, -s.charlie_axes, [s.ancilla_axis, -s.ancilla_axis, channel.PLUS_BLOCH]]
    )
    ops = (IDENTITY + np.einsum("ki,ijl->kjl", vectors, PAULI)) / 2.0  # (11, 2, 2)
    rho, bob, minus_w, p_anc, plus = ops[:4], ops[4:6], ops[6:8], ops[8:10], ops[10]
    kick_terms = np.zeros((2, 2, 1, 4, 4), dtype=complex)  # [k, z]: entries (2i + k, 2j + k)
    kick_terms[0, :, 0, 0::2, 0::2] = minus_w
    kick_terms[1, :, 0, 1::2, 1::2] = minus_w
    return tensor(rho, plus), tensor(bob[:, None], p_anc), p_anc[0], kick_terms


def build_tables(s: Scenario, eps) -> np.ndarray:
    """All 64 joint probabilities at every coupling angle of ``eps``.

    Returns shape (E, 4, 2, 2, 2, 2) indexed [eps, x, y, z, b, c] with
    outcome index 0 for +1. The operators that do not depend on the angle
    are built once per scenario (`_engine_operators`). The 8 joint states
    of each angle are evolved in one batched ``U rho U^dag``, and every
    (b = +1, c) projection of every state is read by one einsum.

    The +1 row of Bob's outcome is the direct projection; the -1 row is the
    remainder against the (y-independent) ancilla marginal. Subtracting
    twice makes the split exact in IEEE arithmetic (one of the two parts
    always lands in the Sterbenz range of the marginal), so summing out b
    reproduces Charlie's marginal bit for bit regardless of y.
    """
    eps = np.atleast_1d(channel.check_coupling(eps))
    if eps.ndim != 1:
        raise ValueError(f"eps must be a scalar or a 1-d grid, got shape {eps.shape}")
    states, readouts, p_anc, (kick0, kick1) = s._operators
    # controlled kick I x I + P(-w) x diag(e^{i eps} - 1, e^{-i eps} - 1): exactly I at eps = 0
    phase0 = (np.exp(1j * eps) - 1.0)[:, None, None, None, None]
    phase1 = (np.exp(-1j * eps) - 1.0)[:, None, None, None, None]
    u = _EYE4 + (kick0 * phase0 + kick1 * phase1)  # (eps, z, 1, 4, 4)
    joint = u @ states @ u.conj().swapaxes(-1, -2)  # (eps, z, x, 4, 4)

    # Charlie's marginal through the partial trace, so that an untouched
    # |+> ancilla gives exactly 1 on its own axis
    rho_anc = joint[..., :2, :2] + joint[..., 2:, 2:]
    m = p_anc @ rho_anc
    m_plus = np.clip((m[..., 0, 0] + m[..., 1, 1]).real, 0.0, 1.0)
    marg = np.empty(m_plus.shape + (1, 2))  # (eps, z, x, y, c)
    marg[..., 0, 0] = m_plus
    marg[..., 0, 1] = 1.0 - m_plus
    top = np.einsum("ycij,ezxji->ezxyc", readouts, joint).real
    top = np.minimum(np.maximum(top, 0.0), marg)
    bottom = marg - top
    probs = np.empty(eps.shape + TABLE_SHAPE)
    by_z = probs.transpose(0, 3, 1, 2, 4, 5)  # (eps, z, x, y, b, c) view
    by_z[..., 0, :] = marg - bottom
    by_z[..., 1, :] = bottom
    return probs


def p_joint(s: Scenario, eps: float, x: int, y: int, z: int) -> np.ndarray:
    """Joint distribution over (b, c) from the full 4x4 evolution.

    Returns a (2, 2) array indexed [b, c] with index 0 for outcome +1.
    """
    return build_tables(s, eps)[0, x, y, z]


def check_probs(probs) -> np.ndarray:
    """The checks of `ProbTable` on a table or a stack (..., 4, 2, 2, 2, 2).

    Every entry must be finite and in [0, 1], and every (b, c) cell must
    sum to 1. Returns the tables as a float array.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape[-5:] != TABLE_SHAPE:
        raise InvalidScenarioError(f"probability table must have shape (4,2,2,2,2), got {probs.shape[-5:]}")
    if not (probs.min() >= 0.0 and probs.max() <= 1.0 + PROB_TOL):  # NaN fails too
        if not np.isfinite(probs).all():
            raise InvalidScenarioError("probability table has a non-finite entry")
        raise InvalidScenarioError("probability table entries outside [0, 1]")
    sums = probs.sum(axis=(-2, -1))
    if np.abs(sums - 1.0).max() > PROB_TOL:
        raise InvalidScenarioError("probability table cells do not sum to 1")
    return probs


@dataclass(frozen=True)
class ProbTable:
    """The complete conditional distribution p(b, c | x, y, z).

    ``probs`` has shape (4, 2, 2, 2, 2) indexed [x, y, z, b, c] with
    outcome index 0 for +1. Immutable once built. The p(+1 | x, s) of the
    four witness readouts and their witnesses are derived on first use and
    kept on the table, write-locked (``_readouts``, see `witness`); the
    three ``p_*`` readers are slices of them.
    """

    probs: np.ndarray
    scenario: Scenario
    eps: float

    def __post_init__(self):
        probs = check_probs(self.probs).copy()
        if probs.shape != TABLE_SHAPE:  # check_probs accepts a stack of tables too
            raise InvalidScenarioError(f"probability table must have shape (4,2,2,2,2), got {probs.shape}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "eps", float(self.eps))

    def p_bob_plus(self, x: int, y: int) -> float:
        """p(b = +1 | x, y), averaged over z with the prior."""
        return self._plus("ab", None, x, y)

    def p_bob_plus_given_z(self, x: int, y: int, z: int) -> float:
        """p(b = +1 | x, y, z); ``z`` must be 0 or 1 (None gives `p_bob_plus`)."""
        return self._plus("ab", z, x, y)

    def p_charlie_plus(self, x: int, z: int) -> float:
        """p(c = +1 | x, z), which does not depend on y."""
        return self._plus("ac", None, x, z)

    def _plus(self, pair: str, z, x: int, s: int) -> float:
        # p(+1 | x, s) of readout (pair, z), a slice of the cached readouts
        from .witness import _readout_index

        return float(self._readouts[0][_readout_index(pair, z), x, s])

    @cached_property
    def _readouts(self) -> tuple:
        # derived on first use by `witness`, which builds on this module
        from .witness import _readout_values

        return _locked(_readout_values(self.probs, self.scenario.z_prior))


def build_table(s: Scenario, eps: float) -> ProbTable:
    """Fill all 64 joint probabilities for one coupling angle."""
    return ProbTable(probs=build_tables(s, [eps])[0], scenario=s, eps=eps)


# -- independent Bloch-algebra route (verification oracle) ---------------


def p_bob_plus_closed_form(s: Scenario, eps, x: int, y: int, z: int):
    """p(b = +1 | x, y, z) by plain vector algebra.

    Bob's Bloch vector after the interaction is the partial dephasing
    ``cos(eps) r + (1 - cos(eps)) (r . w) w`` toward Charlie's axis w.
    A float angle gives a float, an array of angles an array.
    """
    eps = channel.check_coupling(eps)
    r = s.preparations[x]
    w = s.charlie_axes[z]
    nu = s.bob_axes[y]
    ce = np.cos(eps)
    if type(eps) is float:  # no angle axis: the same operations in the same order, so the same bits
        return float(0.5 * (1.0 + (ce * r + (1.0 - ce) * float(r.dot(w)) * w).dot(nu)))
    ce = ce[..., None]
    r_after = ce * r + (1.0 - ce) * float(r @ w) * w
    return 0.5 * (1.0 + r_after @ nu)


def p_charlie_plus_closed_form(s: Scenario, eps, x: int, z: int):
    """p(c = +1 | x, z) by plain vector algebra.

    The ancilla ends in a mixture of Bloch vectors (1, 0, 0) and
    (cos 2eps, -sin 2eps, 0), weighted by the overlap of the preparation
    with the two half-spaces of Charlie's axis. A float angle gives a
    float, an array of angles an array.
    """
    eps = channel.check_coupling(eps)
    r = s.preparations[x]
    w = s.charlie_axes[z]
    q_minus = 0.5 * (1.0 - float(w.dot(r)))
    if type(eps) is float:  # no angle axis: the same operations in the same order, so the same bits
        kicked = np.array([np.cos(2.0 * eps), -np.sin(2.0 * eps), 0.0])
        return float(0.5 * (1.0 + ((1.0 - q_minus) * channel.PLUS_BLOCH + q_minus * kicked).dot(s.ancilla_axis)))
    kicked = np.stack([np.cos(2.0 * eps), -np.sin(2.0 * eps), np.zeros_like(eps)], axis=-1)
    anc = (1.0 - q_minus) * channel.PLUS_BLOCH + q_minus * kicked
    return 0.5 * (1.0 + anc @ s.ancilla_axis)


def curve_coefficients(s: Scenario) -> np.ndarray:
    """Exact coefficients of every joint probability as a curve in the coupling.

    Returns C of shape (5, 4, 2, 2, 2, 2), indexed [k, x, y, z, b, c], with
    p(b, c | x, y, z) = C0 + C1 cos eps + C2 sin eps + C3 cos 2eps + C4 sin 2eps.
    With r = r_x, nu = nu_y, w = w_z, t the ancilla axis, r_perp = r - (r.w) w,
    alpha = nu . r_perp, beta = nu . (r_perp x w) and
    D+- = (1 +- r.w)(1 +- b nu.w) / 4, the +w half of the preparation reaches
    Bob untouched next to an untouched ancilla (D+), the -w half kicks the
    ancilla by 2eps (D-), and their coherence (alpha, beta) rotates with eps.
    """
    r, nu, w, t = s.preparations, s.bob_axes, s.charlie_axes, s.ancilla_axis
    b = np.array(OUTCOMES, dtype=float)[:, None]  # (b, 1)
    c = np.array(OUTCOMES, dtype=float)  # (c,)
    rw, nw = r @ w.T, nu @ w.T  # (x, z), (y, z)
    alpha = (r @ nu.T)[:, :, None] - rw[:, None] * nw  # nu . r_perp, (x, y, z)
    r_cross_w = r[:, None, [1, 2, 0]] * w[:, [2, 0, 1]] - r[:, None, [2, 0, 1]] * w[:, [1, 2, 0]]  # (x, z, 3)
    beta = (r_cross_w @ nu.T).transpose(0, 2, 1)  # nu . (r_perp x w) = nu . (r x w), (x, y, z)
    alpha, beta = alpha[..., None, None], beta[..., None, None]
    rw, nw = rw[:, None, :, None, None], nw[:, :, None, None]
    d_plus = (1.0 + rw) * (1.0 + b * nw) / 4.0
    d_minus = (1.0 - rw) * (1.0 - b * nw) / 4.0
    return np.stack(
        [
            d_plus * (1.0 + c * t[0]) / 2.0 + d_minus / 2.0,
            b * alpha * (1.0 + c * t[0]) / 4.0,
            -b * c * (alpha * t[1] + beta * t[2]) / 4.0,
            c * t[0] * d_minus / 2.0,
            -c * t[1] * d_minus / 2.0,
        ]
    )


def p_joint_closed_form(s: Scenario, eps) -> np.ndarray:
    """All 64 joint probabilities from `curve_coefficients`, shape (E, 4, 2, 2, 2, 2).

    The independent oracle for every cell of `build_tables`.
    """
    return _joint_from_coefficients(curve_coefficients(s), eps)


def _joint_from_coefficients(coef: np.ndarray, eps) -> np.ndarray:
    """`p_joint_closed_form` from coefficient tables that are already built."""
    eps = np.atleast_1d(channel.check_coupling(eps))
    basis = np.stack([np.ones_like(eps), np.cos(eps), np.sin(eps), np.cos(2.0 * eps), np.sin(2.0 * eps)], axis=-1)
    return (basis @ coef.reshape(5, -1)).reshape(eps.shape + TABLE_SHAPE)


def _locked(arrays: tuple) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _float_if_scalar(v):
    return float(v) if np.ndim(v) == 0 else v
