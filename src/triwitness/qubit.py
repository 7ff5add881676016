"""Exact small-dimension complex linear algebra for one and two qubits.

Conventions used throughout the package:

* Qubit states are represented either as Bloch vectors (real 3-vectors
  ``r`` with ``|r| <= 1``) or as 2x2 complex density matrices
  ``(I + r.sigma)/2``.
* Two-qubit (4x4) objects always order the subsystems as
  (Bob's system qubit) x (Charlie's ancilla qubit).

All functions are pure and operate on immutable inputs; they are safe to
call concurrently.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY",
    "PAULI",
    "InvalidStateError",
    "bloch_to_density",
    "density_to_bloch",
    "projector",
    "tensor",
    "partial_trace",
    "is_density_matrix",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
#: Pauli vector, shape (3, 2, 2); PAULI[i] is sigma_{x,y,z}.
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY, PAULI):
    _m.setflags(write=False)

#: Bloch norms may exceed 1 by at most this much (rounding slack).
NORM_TOL = 1e-12
#: Hermiticity / trace tolerance for density matrices.
HERM_TOL = 1e-12
#: Eigenvalues may be negative by at most this much.
PSD_TOL = 1e-10


class InvalidStateError(ValueError):
    """Raised when a value does not satisfy the qubit-state invariants."""


def bloch_to_density(r) -> np.ndarray:
    """Density matrix ``(I + r.sigma)/2`` of the Bloch vector ``r``.

    Raises :class:`InvalidStateError` if ``|r| > 1`` beyond rounding slack.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise InvalidStateError(f"Bloch vector must have 3 components, got shape {r.shape}")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + NORM_TOL:
        raise InvalidStateError(f"Bloch vector norm {norm} exceeds 1")
    return (IDENTITY + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2.0


def projector(axis) -> np.ndarray:
    """Rank-1 projector onto the +1 eigenstate of ``axis . sigma``.

    ``axis`` must be a unit Bloch vector; the projector onto the antipodal
    state is ``projector(-axis)``.
    """
    norm = float(np.linalg.norm(np.asarray(axis, dtype=float)))
    if abs(norm - 1.0) > NORM_TOL:
        raise InvalidStateError(f"measurement axis must be unit length, got |axis| = {norm}")
    return bloch_to_density(axis)


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector ``r_i = Re tr(rho sigma_i)`` of a valid density matrix."""
    rho = np.asarray(rho, dtype=complex)
    _check_density(rho, dim=2)
    return np.array([np.trace(rho @ s).real for s in PAULI])


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the system slot first and the ancilla second.

    Leading axes of stacked matrices broadcast: a (..., m, n) stack and a
    (..., p, q) stack give a (..., m p, n q) stack of products.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def partial_trace(m, keep: str) -> np.ndarray:
    """Trace a 4x4 matrix down to one qubit.

    ``keep`` selects the surviving subsystem: ``"system"`` (Bob's qubit,
    first slot) or ``"ancilla"`` (Charlie's qubit, second slot).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    t = m.reshape(2, 2, 2, 2)
    if keep == "system":
        return np.trace(t, axis1=1, axis2=3)
    if keep == "ancilla":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"keep must be 'system' or 'ancilla', got {keep!r}")


def _eigvals_2x2_hermitian(rho: np.ndarray) -> tuple[float, float]:
    # closed form: mean +- sqrt(mean^2 - det)
    mean = (rho[0, 0].real + rho[1, 1].real) / 2.0
    det = (rho[0, 0].real * rho[1, 1].real) - abs(rho[0, 1]) ** 2
    disc = max(mean * mean - det, 0.0)
    root = float(np.sqrt(disc))
    return mean - root, mean + root


def _check_density(rho: np.ndarray, dim: int) -> None:
    if rho.shape != (dim, dim):
        raise InvalidStateError(f"expected a {dim}x{dim} matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > HERM_TOL:
        raise InvalidStateError("matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > HERM_TOL:
        raise InvalidStateError(f"trace is {tr}, expected 1")
    if dim == 2:
        low = _eigvals_2x2_hermitian(rho)[0]
    else:
        low = float(np.linalg.eigvalsh(rho)[0])
    if low < -PSD_TOL:
        raise InvalidStateError(f"matrix has negative eigenvalue {low}")


def is_density_matrix(rho, dim: int = 2) -> bool:
    """True iff ``rho`` is Hermitian, trace one and positive semidefinite."""
    rho = np.asarray(rho, dtype=complex)
    try:
        _check_density(rho, dim)
    except InvalidStateError:
        return False
    return True


def check_density(rho, dim: int = 2) -> np.ndarray:
    """Validate a density matrix and return it as a complex array."""
    rho = np.asarray(rho, dtype=complex)
    _check_density(rho, dim)
    return rho
