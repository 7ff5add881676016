import numpy as np
import pytest

from triwitness.randomness import (
    EntropyReport,
    SuperQuantumWitnessError,
    bob_certified,
    charlie_certified,
    entropy_report,
    h_from_w1,
    h_from_w2,
    hmin_global_bound,
    hmin_global_exact,
    hmin_local_bob_exact,
)
from triwitness.scenario import ProbTable, build_table, canonical_w1_scenario
from triwitness.witness import QUANTUM_BOUND_W1

# frozen from 50-digit evaluations of the printed expressions
H_AT_MAX = 0.2284466968363880  # -log2((2 + sqrt 2)/4); value at both witness maxima
H_W1_AT_2_5 = 0.0323009664620984
H_W2_AT_HALF = 0.0247911096865249
H_CHARLIE_AT_1 = 6.7494138687176e-07  # h_from_w1(2 sqrt 2 sin^2 1); cancellation-limited near the clamp
H_LOCAL_AT_HALF_PI = 0.5632482045601760  # -log2(1/2 + 1/(4 sqrt 2))
WINDOW_HI = 1.1437177404024205  # arccos(sqrt 2 - 1)

# measured region where the factorized expression exceeds the exact global
# min-entropy of the canonical linear-witness scenario (and its mirror
# image about pi/2); see notes in the repository README
EXCESS_LO, EXCESS_HI = 0.8048993507, 0.9449462559


def uniform_table():
    s = canonical_w1_scenario()
    return ProbTable(probs=np.full((4, 2, 2, 2, 2), 0.25), scenario=s, eps=0.0)


def deterministic_table():
    s = canonical_w1_scenario()
    probs = np.zeros((4, 2, 2, 2, 2))
    probs[:, :, :, 0, 0] = 1.0
    return ProbTable(probs=probs, scenario=s, eps=0.0)


def test_hmin_global_exact_examples(w1_tables):
    assert abs(hmin_global_exact(w1_tables[0.0]) - H_AT_MAX) < 1e-12
    assert abs(hmin_global_exact(uniform_table()) - 2.0) < 1e-15
    assert hmin_global_exact(deterministic_table()) == 0.0


def test_hmin_local_bob_examples(w1_tables, grid101):
    assert abs(hmin_local_bob_exact(w1_tables[0.0]) - H_AT_MAX) < 1e-12
    for e in grid101[::10]:
        t = w1_tables[float(e)]
        expected = -np.log2(0.5 + (1 + np.cos(e)) / (4 * np.sqrt(2)))
        assert abs(hmin_local_bob_exact(t) - expected) < 1e-12
    t_half = build_table(canonical_w1_scenario(), np.pi / 2)
    assert abs(hmin_local_bob_exact(t_half) - H_LOCAL_AT_HALF_PI) < 1e-12
    assert hmin_local_bob_exact(deterministic_table()) == 0.0


def test_hmin_global_bound_examples(w1_tables):
    t0 = w1_tables[0.0]
    assert abs(hmin_global_bound(t0) - hmin_global_exact(t0)) < 1e-12
    assert abs(hmin_global_bound(uniform_table()) - 2.0) < 1e-15


def test_bound_dominance_on_the_determinant_scenario(w2_tables):
    for t in w2_tables.values():
        assert hmin_global_bound(t) <= hmin_global_exact(t) + 1e-12


def test_bound_dominance_fails_inside_the_known_window(w1_tables):
    # The factorized expression treats Bob's and Charlie's outcomes as
    # uncorrelated given the inputs; the exact joint state violates that in
    # a window of couplings, where the "bound" overshoots the exact value.
    # Outside the window (and its mirror) the inequality holds.
    for eps, t in w1_tables.items():
        excess = hmin_global_bound(t) - hmin_global_exact(t)
        folded = min(eps, np.pi - eps)
        if EXCESS_LO + 1e-6 < folded < EXCESS_HI - 1e-6:
            assert excess > 0.0
        else:
            assert excess <= 1e-12


def test_h_from_w1_values():
    assert abs(h_from_w1(2 * np.sqrt(2)) - H_AT_MAX) < 1e-12
    assert h_from_w1(2.0) == 0.0
    assert abs(h_from_w1(2.5) - H_W1_AT_2_5) < 1e-12
    assert h_from_w1(1.4) == 0.0  # clamped below the classical bound
    assert h_from_w1(-3.0) == 0.0


def test_h_from_w1_domain():
    h_from_w1(2 * np.sqrt(2) + 1e-10)  # inside the slack
    with pytest.raises(SuperQuantumWitnessError):
        h_from_w1(2 * np.sqrt(2) + 1e-6)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_certified_rates_reject_non_finite_witness_values(bad):
    for h in (h_from_w1, h_from_w2):
        with pytest.raises(ValueError, match="not finite"):
            h(bad)
        with pytest.raises(ValueError, match="not finite"):
            h(np.array([0.5, bad]))


def test_h_from_w2_values():
    assert abs(h_from_w2(1.0) - H_AT_MAX) < 1e-12
    assert h_from_w2(0.0) == 0.0
    assert abs(h_from_w2(0.5) - H_W2_AT_HALF) < 1e-12
    assert h_from_w2(-0.5) == h_from_w2(0.5)


def test_h_from_w2_domain():
    h_from_w2(-1.0 - 1e-10)
    with pytest.raises(SuperQuantumWitnessError):
        h_from_w2(1.0 + 1e-6)


def test_certified_rates_are_monotone():
    w1_grid = np.linspace(2.0, 2 * np.sqrt(2), 1000)
    h1 = [h_from_w1(w) for w in w1_grid]
    assert all(b >= a for a, b in zip(h1, h1[1:]))
    w2_grid = np.linspace(0.0, 1.0, 1000)
    h2 = [h_from_w2(w) for w in w2_grid]
    assert all(b >= a for a, b in zip(h2, h2[1:]))


def test_continuity_at_the_clamp():
    assert h_from_w1(2.0 - 1e-9) < 1e-6
    assert h_from_w1(2.0 + 1e-9) < 1e-6


def test_bob_certified_examples():
    assert abs(bob_certified(0.0, "w1") - H_AT_MAX) < 1e-12
    assert abs(bob_certified(np.pi / 3, "w2") - H_W2_AT_HALF) < 1e-12
    assert bob_certified(np.arccos(np.sqrt(2) - 1), "w1") < 1e-9
    with pytest.raises(ValueError):
        bob_certified(0.0, "w3")


def test_bob_certified_matches_table_route(grid101, w1_tables, w2_tables):
    from triwitness.witness import w1_given_z, w2_given_z

    for e in grid101[::5]:
        e = float(e)
        via_table_w1 = h_from_w1(w1_given_z(w1_tables[e], 0).value)
        assert abs(bob_certified(e, "w1") - via_table_w1) < 1e-9
        via_table_w2 = h_from_w2(w2_given_z(w2_tables[e], 0).value)
        assert abs(bob_certified(e, "w2") - via_table_w2) < 1e-9


def test_charlie_certified_examples():
    assert abs(charlie_certified(np.pi / 2) - H_AT_MAX) < 1e-12
    assert charlie_certified(0.0) == 0.0
    assert abs(charlie_certified(1.0) - H_CHARLIE_AT_1) < 1e-12


def test_certification_soundness_against_exact_entropy(grid101, w1_tables, w2_tables):
    # what the witness certifies can never exceed the honest device's
    # actual conditional min-entropy
    for e in grid101:
        e = float(e)
        for kind, tables in (("w1", w1_tables), ("w2", w2_tables)):
            t = tables[e]
            for z in (0, 1):
                guess = np.mean([max(t.probs[x, y, z].sum(axis=1)) for x in range(4) for y in range(2)])
                exact_bits = -np.log2(guess)
                assert bob_certified(e, kind) <= exact_bits + 1e-12


def test_certified_curve_shapes(grid101):
    half = [float(e) for e in grid101 if e <= np.pi / 2 + 1e-12]
    c1 = [bob_certified(e, "w1") for e in half]
    c2 = [bob_certified(e, "w2") for e in half]
    assert all(b <= a + 1e-12 for a, b in zip(c1, c1[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(c2, c2[1:]))
    assert bob_certified(WINDOW_HI, "w1") < 1e-9
    assert all(bob_certified(e, "w1") == 0.0 for e in half if e > WINDOW_HI)
    assert bob_certified(np.pi / 2, "w2") < 1e-12


def test_entropy_report_fields(w1_tables):
    rep = entropy_report(w1_tables[0.0])
    assert abs(rep.hmin_global_exact - H_AT_MAX) < 1e-12
    assert abs(rep.hmin_global_bound - H_AT_MAX) < 1e-12
    assert abs(rep.h_bob_certified_w1 - H_AT_MAX) < 1e-9
    assert rep.h_bob_certified_w2 == 0.0  # determinant vanishes on this scenario
    assert rep.h_charlie_certified == 0.0
    for name in rep.__dataclass_fields__:
        assert getattr(rep, name) >= 0.0


def test_entropy_report_rejects_negative_fields():
    with pytest.raises(ValueError):
        EntropyReport(
            hmin_global_exact=-0.1,
            hmin_local_bob_exact=0.0,
            hmin_global_bound=0.0,
            h_bob_certified_w1=0.0,
            h_bob_certified_w2=0.0,
            h_charlie_certified=0.0,
        )


def test_witness_maximum_certifies_the_terminal_rate():
    assert abs(h_from_w1(QUANTUM_BOUND_W1) - h_from_w2(1.0)) < 1e-15
