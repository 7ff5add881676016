"""Min-entropy evaluation and witness-based randomness certification.

Exact min-entropies are read off a probability table; certified rates come
from the closed-form relations between a witness value and the adversary's
best guessing probability. All entropies are in bits.

`entropy_values` evaluates every figure on a table or on a whole stack of
tables (..., 4, 2, 2, 2, 2) with array operations, so a coupling grid costs
one call; `entropy_report` and the `hmin_*` functions are its one-table
slices, and `h_from_w1` / `h_from_w2` take one witness value or an array.
The certified rates read their witnesses from `witness._readout_values`:
`entropy_values` calls it once per stack, and `entropy_report` takes its
table's cached result (`ProbTable._readouts`), which the witness accessors
share, so a request that reads both derives them once; the table is
immutable, so they cannot go stale.

Certification below the classical bound is defined as zero: a linear
witness at or under 2 certifies nothing, so `h_from_w1` clamps there
instead of evaluating the formula outside its meaningful domain.

Note on `hmin_global_bound`: it evaluates the factorized guessing-
probability expression (Charlie's average term plus Bob's worst case) as
printed. That expression treats the two outcomes as uncorrelated given the
inputs, which the exact joint state does not satisfy for every coupling
angle; in a narrow window around eps ~ 0.87 (and its mirror about pi/2)
the "bound" actually exceeds the exact global min-entropy of the canonical
linear-witness scenario. The suite documents this; the value returned is
the literal formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ProbTable, _float_if_scalar
from .witness import QUANTUM_BOUND_W1, QUANTUM_BOUND_W2, VIOLATION_TOL, _readout_values, check_witness, closed_form
from .witness import _AB_Z, _AC

__all__ = [
    "SuperQuantumWitnessError",
    "EntropyReport",
    "hmin_global_exact",
    "hmin_local_bob_exact",
    "hmin_global_bound",
    "h_from_w1",
    "h_from_w2",
    "bob_certified",
    "charlie_certified",
    "entropy_values",
    "entropy_report",
]


class SuperQuantumWitnessError(ValueError):
    """Raised when a witness value exceeds the qubit maximum."""


def _bits(guess_prob):
    # Guard (1 + 1e-16)-style rounding; entropies are nonnegative, and
    # adding 0.0 turns a -0.0 into 0.0.
    return np.maximum(0.0, -np.log2(guess_prob)) + 0.0


def _guesses(probs: np.ndarray, z_prior) -> np.ndarray:
    """Best guessing probabilities behind the three exact figures, (..., 4).

    Entries: the joint (b, c) guess, Bob's z-averaged guess and Charlie's
    guess (each averaged over the inputs), and Bob's worst-case z-known
    guess. Both outcomes of each marginal are summed from the table as
    `witness._readout_values` sums the +1 outcome, so neither is taken as
    a complement.
    """
    bob_z = probs.sum(axis=-1)  # (..., x, y, z, b)
    bob = z_prior[0] * bob_z[..., 0, :] + z_prior[1] * bob_z[..., 1, :]  # (..., x, y, b)
    charlie = probs[..., 0, :, :, :].sum(axis=-2)  # (..., x, z, c)
    guesses = np.empty(probs.shape[:-5] + (4,))
    guesses[..., 0] = probs.max(axis=(-2, -1)).sum(axis=(-3, -2, -1)) / 16.0
    guesses[..., 1] = bob.max(axis=-1).sum(axis=(-2, -1)) / 8.0
    guesses[..., 2] = charlie.max(axis=-1).sum(axis=(-2, -1)) / 8.0
    guesses[..., 3] = bob_z.max(axis=(-4, -3, -2, -1))
    return guesses


def _exact_figures(probs: np.ndarray, z_prior) -> dict:
    """The exact global, local and factorized min-entropies, arrays (...)."""
    bits = _bits(_guesses(probs, z_prior))
    return {
        "hmin_global_exact": bits[..., 0],
        "hmin_local_bob_exact": bits[..., 1],
        "hmin_global_bound": bits[..., 2] + bits[..., 3],
    }


def hmin_global_exact(table: ProbTable) -> float:
    """Global min-entropy of (b, c): average best joint guess over inputs."""
    return float(_exact_figures(table.probs, table.scenario.z_prior)["hmin_global_exact"])


def hmin_local_bob_exact(table: ProbTable) -> float:
    """Local min-entropy of b from the z-averaged marginal."""
    return float(_exact_figures(table.probs, table.scenario.z_prior)["hmin_local_bob_exact"])


def hmin_global_bound(table: ProbTable) -> float:
    """Factorized two-term expression: Charlie average + Bob worst case.

    See the module docstring: this is not a true lower bound on
    `hmin_global_exact` for every coupling angle.
    """
    return float(_exact_figures(table.probs, table.scenario.z_prior)["hmin_global_bound"])


def _certified_bits(ratio):
    # ratio in [0, 1]: normalized distance of the witness from its maximum.
    inner = np.maximum(1.0 - ratio * ratio, 0.0)
    guess = 0.5 + 0.5 * np.sqrt((1.0 + np.sqrt(inner)) / 2.0)
    return _bits(guess)


def _finite(kind: str, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError(f"{kind} value {w[~np.isfinite(w)][0]} is not finite")
    return w


def h_from_w1(w):
    """Certified bits of Bob's outcome from a linear witness value.

    Zero at or below the classical bound 2; the qubit maximum 2*sqrt(2)
    certifies -log2((2 + sqrt(2))/4) ~ 0.2284 bits. A float gives a float,
    an array of values an array.
    """
    w = _finite("w1", w)
    over = w[w > QUANTUM_BOUND_W1 + VIOLATION_TOL]
    if over.size:
        raise SuperQuantumWitnessError(f"w1 value {over[0]} exceeds the qubit maximum {QUANTUM_BOUND_W1}")
    return _float_if_scalar(_h1(w))


def h_from_w2(w):
    """Certified bits from a determinant witness; uses the magnitude.

    The relation depends on w^2 only, so the determinant's labeling sign
    is irrelevant. A float gives a float, an array of values an array.
    """
    a = np.abs(_finite("w2", w))
    over = a[a > QUANTUM_BOUND_W2 + VIOLATION_TOL]
    if over.size:
        raise SuperQuantumWitnessError(f"w2 magnitude {over[0]} exceeds the qubit maximum {QUANTUM_BOUND_W2}")
    return _float_if_scalar(_h2(a))


def _h1(w: np.ndarray) -> np.ndarray:
    # `h_from_w1` of values that passed its checks
    return np.where(w <= 2.0, 0.0, _certified_bits(np.minimum((w * w - 4.0) / 4.0, 1.0)))


def _h2(a: np.ndarray) -> np.ndarray:
    # `h_from_w2` of magnitudes that passed its checks
    return _certified_bits(np.minimum(a, 1.0))


def bob_certified(eps: float, kind: str) -> float:
    """Certified rate on Bob's side from the z-conditioned witness curves."""
    if kind == "w1":
        return h_from_w1(closed_form("w1_ab_z", eps))
    if kind == "w2":
        return h_from_w2(closed_form("w2_ab_z", eps))
    raise ValueError(f"kind must be 'w1' or 'w2', got {kind!r}")


def charlie_certified(eps: float) -> float:
    """Certified rate on Charlie's side: the AC pair is a clean two-observer
    protocol, so the linear-witness relation applies directly."""
    return h_from_w1(closed_form("w1_ac", eps))


@dataclass(frozen=True)
class EntropyReport:
    """All entropy figures for one table, in bits.

    ``hmin_global_bound`` is the literal factorized expression; it may
    exceed ``hmin_global_exact`` in a known window of coupling angles (see
    module docstring), so no ordering is enforced here.
    """

    hmin_global_exact: float
    hmin_local_bob_exact: float
    hmin_global_bound: float
    h_bob_certified_w1: float
    h_bob_certified_w2: float
    h_charlie_certified: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} is negative")


def entropy_values(probs: np.ndarray, z_prior) -> dict:
    """Every `EntropyReport` figure of a table or a stack of tables.

    ``probs`` has shape (..., 4, 2, 2, 2, 2); each figure comes back as an
    array of shape (...), keyed by its `EntropyReport` field name in field
    order. Certified rates use the simulated witness values, which pass the
    checks of `WitnessValue`. Bob's rates take the worse of the two
    z-conditioned witnesses (the adversary knows z); the canonical
    scenarios make both z values identical.
    """
    _, w1, w2 = _readout_values(probs, z_prior)
    return _figures(probs, z_prior, w1, w2)


def _figures(probs: np.ndarray, z_prior, w1: np.ndarray, w2: np.ndarray) -> dict:
    """`entropy_values` given the witnesses (..., 4) of `witness._readout_values`.

    Bob's rates read the AB readouts at z = 0 and z = 1, Charlie's the AC
    readout. Values that pass `check_witness` pass the checks of
    `h_from_w1` and `h_from_w2`, whose bits they then get.
    """
    h1 = _h1(check_witness("w1", w1[..., (*_AB_Z, _AC)]))  # (..., z = 0, z = 1, AC)
    h2 = _h2(np.abs(check_witness("w2", w2[..., _AB_Z])))
    figures = _exact_figures(probs, z_prior)
    figures["h_bob_certified_w1"] = np.minimum(h1[..., 0], h1[..., 1])
    figures["h_bob_certified_w2"] = np.minimum(h2[..., 0], h2[..., 1])
    figures["h_charlie_certified"] = h1[..., 2]
    return figures


def entropy_report(table: ProbTable) -> EntropyReport:
    """Every entropy figure of one simulated table: the one-table slice of
    `entropy_values`, with the witnesses from the table's cache."""
    _, w1, w2 = table._readouts
    values = _figures(table.probs, table.scenario.z_prior, w1, w2)
    return EntropyReport(**{name: float(v) for name, v in values.items()})
