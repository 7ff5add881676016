import numpy as np
import pytest

from triwitness.qubit import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    InvalidStateError,
    bloch_to_density,
    density_to_bloch,
    is_density_matrix,
    partial_trace,
    projector,
    tensor,
)


def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, IDENTITY)
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)


def test_bloch_to_density_examples():
    assert np.allclose(bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]))
    assert np.allclose(bloch_to_density([0, 0, 0]), IDENTITY / 2)
    assert np.allclose(bloch_to_density([1, 0, 0]), np.full((2, 2), 0.5))


def test_bloch_to_density_rejects_long_vectors():
    with pytest.raises(InvalidStateError):
        bloch_to_density([1.0 + 1e-6, 0, 0])
    # just inside the slack is fine
    bloch_to_density([1.0 + 0.5e-12, 0, 0])


def test_density_to_bloch_examples():
    assert np.allclose(density_to_bloch(np.diag([1.0, 0.0])), [0, 0, 1])
    assert np.allclose(density_to_bloch(IDENTITY / 2), [0, 0, 0])
    assert np.allclose(density_to_bloch(np.full((2, 2), 0.5)), [1, 0, 0])


def test_density_to_bloch_rejects_invalid_input():
    with pytest.raises(InvalidStateError):
        density_to_bloch(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        density_to_bloch(np.diag([1.0, 1.0]))  # trace 2
    with pytest.raises(InvalidStateError):
        density_to_bloch(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_round_trip_on_random_vectors():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        v = rng.normal(size=3)
        r = v / np.linalg.norm(v) * rng.uniform(0.0, 1.0)
        back = density_to_bloch(bloch_to_density(r))
        assert np.abs(back - r).max() < 1e-12


def test_tensor_examples():
    assert np.array_equal(tensor(IDENTITY, IDENTITY), np.eye(4))
    top = tensor(np.diag([1.0, 0.0]), np.full((2, 2), 0.5))
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5
    assert np.allclose(top, expected)
    assert np.allclose(tensor(SIGMA_Z, IDENTITY), np.diag([1.0, 1.0, -1.0, -1.0]))


def _random_bloch(rng, radius=1.0):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v) * rng.uniform(0.0, radius)


def test_partial_trace_of_product_states():
    rng = np.random.default_rng(99)
    for _ in range(50):
        rho = bloch_to_density(_random_bloch(rng))
        sigma = bloch_to_density(_random_bloch(rng))
        prod = tensor(rho, sigma)
        assert np.abs(partial_trace(prod, "system") - rho).max() < 1e-12
        assert np.abs(partial_trace(prod, "ancilla") - sigma).max() < 1e-12
    # unnormalized factors scale the surviving slot by the discarded trace
    a = bloch_to_density(_random_bloch(rng)) * 0.7
    b = bloch_to_density(_random_bloch(rng)) * 1.3
    assert np.abs(partial_trace(tensor(a, b), "system") - a * 1.3).max() < 1e-12
    assert np.abs(partial_trace(tensor(a, b), "ancilla") - b * 0.7).max() < 1e-12


def test_partial_trace_of_bell_projector():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(rho, "system"), IDENTITY / 2)
    assert np.allclose(partial_trace(rho, "ancilla"), IDENTITY / 2)


def test_partial_trace_is_linear_and_trace_preserving():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g + g.conj().T
        for keep in ("system", "ancilla"):
            reduced = partial_trace(m, keep)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12
        a, b = rng.normal(size=2)
        g2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m2 = g2 + g2.conj().T
        lhs = partial_trace(a * m + b * m2, "system")
        rhs = a * partial_trace(m, "system") + b * partial_trace(m2, "system")
        assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_rejects_bad_input():
    with pytest.raises(ValueError):
        partial_trace(np.eye(3), "system")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), "environment")


def test_projector_requires_unit_axis():
    with pytest.raises(InvalidStateError):
        projector([0.5, 0, 0])
    p = projector([0, 1, 0])
    assert np.allclose(p @ p, p)
    assert abs(np.trace(p) - 1.0) < 1e-12


@pytest.mark.parametrize("axis", [[0.5, 0.5, 0.5, 0.5], [1.0]])
def test_projector_rejects_unit_vectors_that_are_not_bloch_vectors(axis):
    with pytest.raises(InvalidStateError):
        projector(axis)


def test_is_density_matrix():
    assert is_density_matrix(IDENTITY / 2)
    assert not is_density_matrix(np.diag([2.0, -1.0]))
    assert is_density_matrix(np.eye(4) / 4, dim=4)
