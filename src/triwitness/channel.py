"""The weak-measurement interaction between the flying qubit and the ancilla.

Charlie couples the incoming qubit to a fresh ``|+>`` ancilla with a
controlled phase kick of strength ``eps`` (radians): nothing happens on the
half of the Bloch sphere aligned with his measurement axis, while the
antipodal component imprints a relative phase ``2*eps`` on the ancilla.
``eps = 0`` is no interaction; ``eps = pi/2`` fully dephases the system in
the chosen basis and maximally rotates the ancilla.

The exact marginal channels to Bob (`bob_state`) and Charlie
(`charlie_state`) agree with the partial traces of `evolve_joint` to
rounding error; this equality is exercised by the test suite.

Every function that takes a coupling angle also takes an array of them and
then returns one result per angle, stacked along the leading axes.
"""

from __future__ import annotations

import numpy as np

from .qubit import IDENTITY, check_density, projector, tensor

__all__ = [
    "CouplingRangeError",
    "phase_kick",
    "controlled_kick",
    "evolve_joint",
    "bob_state",
    "charlie_state",
    "check_coupling",
    "PLUS_BLOCH",
]

#: Bloch vector of the ancilla's initial |+> state.
PLUS_BLOCH = np.array([1.0, 0.0, 0.0])
PLUS_BLOCH.setflags(write=False)


class CouplingRangeError(ValueError):
    """Raised when the coupling angle lies outside [0, pi]."""


#: Types whose values `check_coupling` and `witness.check_witness` test as
#: plain floats, without building an array; bool and other types take the
#: array path.
_SCALARS = (float, int, np.float64)
#: Most points `coupling_grid` accepts, 100 times the default grid.
MAX_STEPS = 10_001


def check_coupling(eps):
    """Validate the coupling angle(s); values outside [0, pi] are rejected.

    A scalar comes back as a float, anything else as a float array. One
    float, int or np.float64 is tested without an array, with the same
    outcome and message as the array path.
    """
    if type(eps) in _SCALARS:
        e = float(eps)
        if 0.0 <= e <= np.pi:  # False for NaN as well
            return e
        raise CouplingRangeError(f"coupling angle {e} outside [0, pi]")
    eps = np.asarray(eps, dtype=float)
    bad = eps[~((0.0 <= eps) & (eps <= np.pi))]
    if bad.size:
        raise CouplingRangeError(f"coupling angle {bad[0]} outside [0, pi]")
    return float(eps) if eps.ndim == 0 else eps


def coupling_grid(start, end, steps) -> np.ndarray:
    """``steps`` evenly spaced angles from ``start`` to ``end``; ValueError, before any allocation,
    unless 0 <= start < end <= pi and ``steps`` is an integer (not a bool) from 2 to `MAX_STEPS`."""
    if not 0.0 <= start < end <= np.pi:  # False for NaN as well
        raise ValueError(f"need 0 <= eps-start < eps-end <= pi, got [{start}, {end}]")
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or not 2 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be an integer >= 2 and at most {MAX_STEPS}, got {steps!r}")
    return np.linspace(start, end, steps)


def phase_kick(eps) -> np.ndarray:
    """The conditional ancilla unitary ``diag(e^{i eps}, e^{-i eps})``."""
    eps = check_coupling(eps)
    kick = np.zeros(np.shape(eps) + (2, 2), dtype=complex)
    kick[..., 0, 0] = np.exp(1j * eps)
    kick[..., 1, 1] = np.exp(-1j * eps)
    return kick


def controlled_kick(axis, eps) -> np.ndarray:
    """Total 4x4 unitary: identity on +axis, phase kick on -axis.

    ``U = P(+axis) x I + P(-axis) x phase_kick(eps)`` with the system slot
    first; assembled as ``I x I + P(-axis) x (phase_kick(eps) - I)`` so that
    zero coupling gives the exact identity. Unitary for every (axis, eps).
    """
    axis = np.asarray(axis, dtype=float)
    return tensor(IDENTITY, IDENTITY) + tensor(projector(-axis), phase_kick(eps) - IDENTITY)


def evolve_joint(rho, axis, eps) -> np.ndarray:
    """Joint system+ancilla state ``U (rho x |+><+|) U^dag``."""
    rho = check_density(rho, dim=2)
    u = controlled_kick(axis, eps)
    joint = tensor(rho, projector(PLUS_BLOCH))
    return u @ joint @ u.conj().swapaxes(-1, -2)


def bob_state(rho, axis, eps) -> np.ndarray:
    """System state forwarded to Bob after the interaction.

    Equals ``Tr_ancilla evolve_joint(rho, axis, eps)``; implemented as the
    exact marginal channel, a partial dephasing toward ``axis``:
    ``(1 - cos eps)(P+ rho P+ + P- rho P-) + cos(eps) rho``.
    """
    rho = check_density(rho, dim=2)
    eps = check_coupling(eps)
    p_plus = projector(np.asarray(axis, dtype=float))
    p_minus = IDENTITY - p_plus
    ce = np.cos(eps)[..., None, None]
    dephased = p_plus @ rho @ p_plus + p_minus @ rho @ p_minus
    return (1.0 - ce) * dephased + ce * rho


def charlie_state(rho, axis, eps) -> np.ndarray:
    """Ancilla state kept by Charlie after the interaction.

    Equals ``Tr_system evolve_joint(rho, axis, eps)``: a mixture of the
    untouched ``|+><+|`` and its phase-kicked image, weighted by the
    overlap of ``rho`` with the two half-spaces of ``axis``.
    """
    rho = check_density(rho, dim=2)
    p_minus = IDENTITY - projector(np.asarray(axis, dtype=float))
    weight_minus = float(np.trace(p_minus @ rho).real)
    plus = projector(PLUS_BLOCH)
    v = phase_kick(eps)
    return (1.0 - weight_minus) * plus + weight_minus * (v @ plus @ v.conj().swapaxes(-1, -2))

