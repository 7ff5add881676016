import numpy as np
import pytest

from triwitness.channel import (
    PLUS_BLOCH,
    CouplingRangeError,
    bob_state,
    charlie_state,
    controlled_kick,
    evolve_joint,
    phase_kick,
)
from triwitness.qubit import (
    IDENTITY,
    InvalidStateError,
    bloch_to_density,
    density_to_bloch,
    is_density_matrix,
    partial_trace,
    projector,
    tensor,
)


def random_state_axis_eps(rng):
    v = rng.normal(size=3)
    r = v / np.linalg.norm(v) * rng.uniform(0.0, 1.0)
    w = rng.normal(size=3)
    w /= np.linalg.norm(w)
    return bloch_to_density(r), w, rng.uniform(0.0, np.pi)


def test_phase_kick_examples():
    assert np.array_equal(phase_kick(0.0), IDENTITY)
    assert np.allclose(phase_kick(np.pi / 2), np.diag([1j, -1j]))
    assert np.allclose(phase_kick(np.pi), -IDENTITY)


def test_phase_kick_is_unitary():
    for eps in np.linspace(0, np.pi, 37):
        u = phase_kick(eps)
        assert np.abs(u @ u.conj().T - IDENTITY).max() < 1e-12


def test_coupling_range_is_enforced():
    for bad in (-0.1, np.pi + 0.1, 7.0):
        with pytest.raises(CouplingRangeError):
            phase_kick(bad)
        with pytest.raises(CouplingRangeError):
            bob_state(IDENTITY / 2, [0, 0, 1], bad)


def test_controlled_kick_identity_at_zero_coupling():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        assert np.array_equal(controlled_kick(w, 0.0), np.eye(4))


def test_controlled_kick_block_structure_on_z_axis():
    eps = 0.7
    u = controlled_kick([0, 0, 1], eps)
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = IDENTITY
    expected[2:, 2:] = phase_kick(eps)
    assert np.abs(u - expected).max() < 1e-12


def test_controlled_kick_is_unitary():
    rng = np.random.default_rng(6)
    for _ in range(200):
        w = rng.normal(size=3)
        w /= np.linalg.norm(w)
        u = controlled_kick(w, rng.uniform(0, np.pi))
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_evolve_joint_zero_coupling_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rho, w, _ = random_state_axis_eps(rng)
        assert np.array_equal(evolve_joint(rho, w, 0.0), tensor(rho, projector(PLUS_BLOCH)))


def test_evolve_joint_antipodal_state_full_kick():
    w = np.array([0.3, -0.5, 0.811])
    w /= np.linalg.norm(w)
    rho = bloch_to_density(-w)
    out = evolve_joint(rho, w, np.pi / 2)
    # phase kick at pi/2 sends |+> to the -x eigenstate (up to phase)
    expected = tensor(rho, bloch_to_density([-1.0, 0.0, 0.0]))
    assert np.abs(out - expected).max() < 1e-12


def test_evolve_joint_output_is_a_state():
    rng = np.random.default_rng(8)
    for _ in range(200):
        rho, w, eps = random_state_axis_eps(rng)
        out = evolve_joint(rho, w, eps)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert is_density_matrix(out, dim=4)


def test_evolve_joint_rejects_invalid_state():
    with pytest.raises(InvalidStateError):
        evolve_joint(np.diag([1.0, 1.0]), [0, 0, 1], 0.3)


def test_bob_state_examples():
    rho = bloch_to_density([1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
    assert np.abs(bob_state(rho, [0, 0, 1], 0.0) - rho).max() < 1e-15

    w = np.array([0.6, 0.0, 0.8])
    aligned = bloch_to_density(w)
    for eps in (0.3, 1.2, np.pi / 2):
        assert np.abs(bob_state(aligned, w, eps) - aligned).max() < 1e-12

    # orthogonal component fully dephased at pi/2
    out = bob_state(bloch_to_density([1, 0, 0]), [0, 0, 1], np.pi / 2)
    assert np.abs(out - IDENTITY / 2).max() < 1e-12


def test_charlie_state_examples():
    plus = projector(PLUS_BLOCH)
    rho = bloch_to_density([0.2, -0.3, 0.4])
    assert np.abs(charlie_state(rho, [0, 1, 0], 0.0) - plus).max() < 1e-12

    w = np.array([0.0, 0.6, -0.8])
    aligned = bloch_to_density(w)
    for eps in (0.5, 2.0):
        assert np.abs(charlie_state(aligned, w, eps) - plus).max() < 1e-12

    anti = bloch_to_density(-w)
    out = charlie_state(anti, w, np.pi / 2)
    assert np.abs(out - bloch_to_density([-1.0, 0.0, 0.0])).max() < 1e-12


def test_marginals_match_partial_traces_of_the_joint():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        rho, w, eps = random_state_axis_eps(rng)
        joint = evolve_joint(rho, w, eps)
        assert np.abs(bob_state(rho, w, eps) - partial_trace(joint, "system")).max() < 1e-12
        assert np.abs(charlie_state(rho, w, eps) - partial_trace(joint, "ancilla")).max() < 1e-12


def test_marginals_are_states():
    rng = np.random.default_rng(10)
    for _ in range(300):
        rho, w, eps = random_state_axis_eps(rng)
        for out in (bob_state(rho, w, eps), charlie_state(rho, w, eps)):
            assert is_density_matrix(out)


def test_bob_channel_is_linear():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rho1, w, eps = random_state_axis_eps(rng)
        v = rng.normal(size=3)
        rho2 = bloch_to_density(v / np.linalg.norm(v) * rng.uniform(0.0, 1.0))
        lam = rng.uniform(0, 1)
        mix = lam * rho1 + (1 - lam) * rho2
        lhs = bob_state(mix, w, eps)
        rhs = lam * bob_state(rho1, w, eps) + (1 - lam) * bob_state(rho2, w, eps)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_bob_state_matches_dephasing_form():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        rho, w, eps = random_state_axis_eps(rng)
        r = density_to_bloch(rho)
        expected = np.cos(eps) * r + (1 - np.cos(eps)) * (r @ w) * w
        assert np.abs(density_to_bloch(bob_state(rho, w, eps)) - expected).max() < 1e-12


def test_charlie_state_depends_only_on_axis_overlap():
    # reflecting the Bloch vector through the interaction axis keeps the
    # overlap weight, so Charlie's state cannot change
    rng = np.random.default_rng(13)
    for _ in range(200):
        rho, w, eps = random_state_axis_eps(rng)
        r = density_to_bloch(rho)
        mirrored = 2 * (r @ w) * w - r
        out1 = charlie_state(rho, w, eps)
        out2 = charlie_state(bloch_to_density(mirrored), w, eps)
        assert np.abs(out1 - out2).max() < 1e-12
