"""The two dimension witnesses and their analytic reference curves.

Both witnesses are functionals of eight probabilities p(+1 | x, s), where
x is the two-bit preparation label and s a binary measurement setting
(Bob's input y for the AB pair, Charlie's input z for the AC pair):

* ``w1`` -- the linear random-access-code witness: a signed sum whose sign
  for (x, s) is + when bit ``s`` of x is 0. Classical maximum 2, qubit
  maximum 2*sqrt(2).
* ``w2`` -- the nonlinear determinant witness: the 2x2 determinant of
  column differences in x2, rows indexed by s. Classical value 0, qubit
  maximum 1. The signed determinant is returned; violation is judged on
  its magnitude because the sign flips under relabeling of settings.

A table has four readouts: AB averaged over z, AB at z = 0 and at z = 1,
and AC. `_readout_values` is the one function that sums table cells into
their p(+1 | x, s) and evaluates both witnesses on each, for a table or a
stack of tables, so a whole coupling grid costs one call; `_readout_index`
is the one map from (pair, z) to a readout. Every other reader is a slice
of them: `setting_probs`, and for one table `w1`, `w2`, `w1_given_z` and
`w2_given_z`, which read the table's own cache (`ProbTable._readouts`),
filled on first use. The table is immutable, so the values cannot go
stale. `qrac_values` and `determinant_values` evaluate the witnesses on
arrays of p(+1 | x, s); `check_witness` applies the checks of
`WitnessValue` to such arrays, and to one value without building an array.

`closed_form` evaluates the analytic curves of both witnesses for the
canonical scenarios as functions of the coupling angle; the simulation is
required to reproduce them to 1e-9, which the verification suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _SCALARS, check_coupling
from .scenario import ProbTable

__all__ = [
    "CLASSICAL_BOUND_W1",
    "QUANTUM_BOUND_W1",
    "CLASSICAL_BOUND_W2",
    "QUANTUM_BOUND_W2",
    "VIOLATION_TOL",
    "WitnessValue",
    "Violation",
    "check_witness",
    "qrac_values",
    "determinant_values",
    "setting_probs",
    "w1",
    "w2",
    "w1_given_z",
    "w2_given_z",
    "closed_form",
    "violation",
]

CLASSICAL_BOUND_W1 = 2.0
QUANTUM_BOUND_W1 = 2.0 * np.sqrt(2.0)
CLASSICAL_BOUND_W2 = 0.0
QUANTUM_BOUND_W2 = 1.0
#: Slack used both for bound invariants and violation decisions.
VIOLATION_TOL = 1e-9

#: Sign of the w1 term for (x, s): + iff bit s of x is 0.
QRAC_SIGNS = tuple(tuple(1 if ((x >> (1 - s)) & 1) == 0 else -1 for s in range(2)) for x in range(4))
#: Readout positions, the one record of their order: AB averaged over z, AB at z = 0 and z = 1 (indexed
#: by z; ``w[..., _AB_Z]`` picks both), AC. `_readout_index` and `_readout_values` read them.
_AB, _AB_Z, _AC = 0, (1, 2), 3

@dataclass(frozen=True)
class WitnessValue:
    """A witness evaluation: which functional, which pair, optional z."""

    kind: str  # "w1" | "w2"
    pair: str  # "ab" | "ac"
    value: float
    z: int | None = None

    def __post_init__(self):
        if self.pair not in ("ab", "ac"):
            raise ValueError(f"pair must be 'ab' or 'ac', got {self.pair!r}")
        check_witness(self.kind, self.value)


def check_witness(kind: str, values):
    """The checks of `WitnessValue` on one value or an array of them.

    Every value must be finite and within the qubit bound of ``kind``.
    One float, int or np.float64 comes back as a float, tested without an
    array with the same outcome and message; anything else comes back as
    a float array.
    """
    if kind not in ("w1", "w2"):
        raise ValueError(f"kind must be 'w1' or 'w2', got {kind!r}")
    bound = QUANTUM_BOUND_W1 if kind == "w1" else QUANTUM_BOUND_W2
    if type(values) in _SCALARS:
        value = float(values)
        if abs(value) <= bound + VIOLATION_TOL:  # False for NaN and +-inf as well
            return value
    values = np.asarray(values, dtype=float)
    ok = np.abs(values) <= bound + VIOLATION_TOL  # False for NaN and +-inf as well
    if not ok.all():
        bad = values[~ok][0]
        if not np.isfinite(bad):
            raise ValueError(f"{kind} value {bad} is not finite")
        raise ValueError(f"{kind} value {bad} exceeds the qubit bound {bound}")
    return values


@dataclass(frozen=True)
class Violation:
    violated: bool
    margin: float


def qrac_values(p: np.ndarray) -> np.ndarray:
    """Signed sum with the random-access signs over the last two axes.

    ``p`` holds p(+1 | x, s) with shape (..., 4, 2); the terms are added in
    (x, s) order.
    """
    return (
        p[..., 0, 0] + p[..., 0, 1] + p[..., 1, 0] - p[..., 1, 1]
        - p[..., 2, 0] + p[..., 2, 1] - p[..., 3, 0] - p[..., 3, 1]
    )


def determinant_values(p: np.ndarray) -> np.ndarray:
    """Signed determinant of the 2x2 matrix of x2-differences, for (..., 4, 2).

    Row s, column x1: p(+1 | x1 0, s) - p(+1 | x1 1, s).
    """
    m = p[..., 0::2, :] - p[..., 1::2, :]  # (..., x1, s)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 1, 0] * m[..., 0, 1]


def setting_probs(probs: np.ndarray, z_prior, pair: str, z: int | None = None) -> np.ndarray:
    """p(+1 | x, s) of one observer pair, shape (..., 4, 2).

    ``probs`` is a table or a stack of tables, (..., 4, 2, 2, 2, 2) indexed
    [x, y, z, b, c]. The AB pair averages Bob's outcome over z with
    ``z_prior`` unless ``z`` fixes it; the AC pair reads Charlie's outcome,
    whose setting is z itself. The slice `_readout_index` picks out of
    `_readout_values`.
    """
    i = _readout_index(pair, z)
    return _readout_values(probs, z_prior)[0][..., i, :, :]


def _readout_index(pair: str, z: int | None) -> int:
    """Index of readout (pair, z) in `_readout_values`, after validating both.

    ``z`` is None or an integer 0 or 1; a bool or a float is rejected.
    """
    if pair == "ab":
        if z is None:
            return _AB
        if isinstance(z, (int, np.integer)) and not isinstance(z, bool) and z in (0, 1):
            return _AB_Z[z]
        raise ValueError(f"z must be 0 or 1, got {z!r}")
    if pair == "ac":
        if z is not None:
            raise ValueError("the AC pair uses z itself as the setting; conditioning on z is meaningless")
        return _AC
    raise ValueError(f"pair must be 'ab' or 'ac', got {pair!r}")


def _readout_values(probs: np.ndarray, z_prior) -> tuple:
    """(p, w1, w2) of the four readouts of a table or a stack of tables.

    The only place that sums table cells into p(+1 | x, s). p has shape
    (..., 4, 4, 2) indexed [readout, x, s], readouts in the order of
    `_readout_index`; w1 and w2, shape (..., 4), are `qrac_values` and
    `determinant_values` of p.
    """
    bob = probs[..., 0, :].sum(axis=-1)  # (..., x, y, z)
    p = np.empty(probs.shape[:-5] + (4, 4, 2))
    p[..., _AB, :, :] = z_prior[0] * bob[..., 0] + z_prior[1] * bob[..., 1]
    p[..., _AB_Z[0], :, :] = bob[..., 0]
    p[..., _AB_Z[1], :, :] = bob[..., 1]
    p[..., _AC, :, :] = probs[..., 0, :, :, 0].sum(axis=-1)  # Charlie's +1, stored at y = 0
    return p, qrac_values(p), determinant_values(p)


def _table_value(table: ProbTable, which: int, pair, z) -> float:
    """Witness ``which`` (1 for w1, 2 for w2) of one readout, from the table's cache."""
    return float(table._readouts[which][_readout_index(pair, z)])


def w1(table: ProbTable, pair: str = "ab", z: int | None = None) -> WitnessValue:
    """Linear witness between the sender and the selected observer."""
    return WitnessValue(kind="w1", pair=pair, value=_table_value(table, 1, pair, z), z=z)


def w2(table: ProbTable, pair: str = "ab", z: int | None = None) -> WitnessValue:
    """Determinant witness between the sender and the selected observer."""
    return WitnessValue(kind="w2", pair=pair, value=_table_value(table, 2, pair, z), z=z)


def w1_given_z(table: ProbTable, z: int) -> WitnessValue:
    """Linear AB witness conditioned on Charlie's input z."""
    return w1(table, pair="ab", z=z)


def w2_given_z(table: ProbTable, z: int) -> WitnessValue:
    """Determinant AB witness conditioned on Charlie's input z."""
    return w2(table, pair="ab", z=z)


_CLOSED_FORMS = {
    "w1_ab": lambda e: np.sqrt(2.0) * (np.cos(e) + 1.0),
    "w1_ac": lambda e: 2.0 * np.sqrt(2.0) * np.sin(e) ** 2,
    "w2_ab": lambda e: ((np.cos(e) + 1.0) / 2.0) ** 2,
    "w2_ac": lambda e: np.sin(e) ** 4,
    "w1_ab_z": lambda e: np.sqrt(2.0) * np.cos(e) + np.sqrt(2.0),
    "w2_ab_z": lambda e: np.cos(e),
}


def closed_form(kind: str, eps):
    """Analytic witness value of the matching canonical scenario.

    ``kind`` is one of w1_ab, w1_ac, w2_ab, w2_ac (z-averaged curves) or
    w1_ab_z, w2_ab_z (the z-conditioned AB curves, identical for both z).
    A float angle gives a float, an array of angles an array.
    """
    try:
        f = _CLOSED_FORMS[kind]
    except KeyError:
        raise ValueError(f"unknown closed form {kind!r}; expected one of {sorted(_CLOSED_FORMS)}") from None
    value = f(check_coupling(eps))
    return float(value) if np.ndim(value) == 0 else value


def violation(kind: str, value: float) -> Violation:
    """Classical-bound test: w1 violates above 2, w2 on any nonzero magnitude."""
    if kind == "w1":
        return Violation(violated=value > CLASSICAL_BOUND_W1 + VIOLATION_TOL, margin=value - CLASSICAL_BOUND_W1)
    if kind == "w2":
        return Violation(violated=abs(value) > VIOLATION_TOL, margin=abs(value))
    raise ValueError(f"kind must be 'w1' or 'w2', got {kind!r}")
