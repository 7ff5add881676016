import numpy as np
import pytest

from triwitness.channel import CouplingRangeError
from triwitness.scenario import build_table, canonical_w1_scenario, canonical_w2_scenario
from triwitness.witness import (
    QRAC_SIGNS,
    QUANTUM_BOUND_W1,
    WitnessValue,
    closed_form,
    determinant_values,
    qrac_values,
    violation,
    w1,
    w1_given_z,
    w2,
    w2_given_z,
)

# frozen from the analytic curves, 50-digit evaluation
W1_AB_AT_1 = 2.178316411113274536  # sqrt(2) (cos 1 + 1)
W1_AC_AT_1 = 2.0027340625567234  # 2 sqrt(2) sin^2 1
W1_AB_AT_PI_3 = 2.1213203435596426  # 3 / sqrt 2

WINDOW_LO = 0.9989374565936864  # arcsin(2^(-1/4))
WINDOW_HI = 1.1437177404024205  # arccos(sqrt 2 - 1)


def test_sign_pattern_sums_to_zero():
    assert sum(QRAC_SIGNS[x][s] for x in range(4) for s in range(2)) == 0


def test_qrac_value_is_shift_invariant():
    rng = np.random.default_rng(41)
    p = rng.uniform(0, 1, size=(4, 2))
    base = qrac_values(p)
    shifted = qrac_values(p + 0.123)
    assert abs(base - shifted) < 1e-12


def test_determinant_value_is_row_shift_invariant():
    rng = np.random.default_rng(42)
    p = rng.uniform(0, 1, size=(4, 2))
    base = determinant_values(p)
    shifted = determinant_values(p + [0.2, 0.0])
    assert abs(base - shifted) < 1e-12


def test_w1_canonical_special_points():
    table0 = build_table(canonical_w1_scenario(), 0.0)
    assert abs(w1(table0, "ab").value - QUANTUM_BOUND_W1) < 1e-12
    assert abs(w1(table0, "ac").value) < 1e-12
    table_pi3 = build_table(canonical_w1_scenario(), np.pi / 3)
    assert abs(w1(table_pi3, "ab").value - W1_AB_AT_PI_3) < 1e-12


def test_w2_canonical_special_points():
    table0 = build_table(canonical_w2_scenario(), 0.0)
    assert abs(w2(table0, "ab").value - 1.0) < 1e-12
    assert abs(w2(table0, "ac").value) < 1e-12
    table_pi3 = build_table(canonical_w2_scenario(), np.pi / 3)
    assert abs(w2(table_pi3, "ab").value - 0.5625) < 1e-12
    assert abs(w2(table_pi3, "ac").value - 0.5625) < 1e-12
    table_half_pi = build_table(canonical_w2_scenario(), np.pi / 2)
    assert abs(w2(table_half_pi, "ac").value - 1.0) < 1e-12


def test_conditioned_witnesses_at_pi_3():
    t1 = build_table(canonical_w1_scenario(), np.pi / 3)
    assert abs(w1_given_z(t1, 0).value - W1_AB_AT_PI_3) < 1e-12
    t2 = build_table(canonical_w2_scenario(), np.pi / 3)
    assert abs(w2_given_z(t2, 1).value - 0.5) < 1e-12


def test_conditioned_witnesses_are_z_independent(w1_tables, w2_tables):
    for t in w1_tables.values():
        assert abs(w1_given_z(t, 0).value - w1_given_z(t, 1).value) < 1e-12
    for t in w2_tables.values():
        assert abs(w2_given_z(t, 0).value - w2_given_z(t, 1).value) < 1e-12


def test_simulation_matches_all_closed_forms(grid101, w1_tables, w2_tables):
    for e in grid101:
        e = float(e)
        t1, t2 = w1_tables[e], w2_tables[e]
        assert abs(w1(t1, "ab").value - closed_form("w1_ab", e)) < 1e-9
        assert abs(w1(t1, "ac").value - closed_form("w1_ac", e)) < 1e-9
        assert abs(w2(t2, "ab").value - closed_form("w2_ab", e)) < 1e-9
        assert abs(w2(t2, "ac").value - closed_form("w2_ac", e)) < 1e-9
        for z in (0, 1):
            assert abs(w1_given_z(t1, z).value - closed_form("w1_ab_z", e)) < 1e-9
            assert abs(w2_given_z(t2, z).value - closed_form("w2_ab_z", e)) < 1e-9


def test_closed_form_examples_and_domain():
    assert abs(closed_form("w1_ab", 1.0) - W1_AB_AT_1) < 1e-15
    assert abs(closed_form("w1_ac", 1.0) - W1_AC_AT_1) < 1e-15
    assert abs(closed_form("w2_ac", np.pi)) < 1e-15
    with pytest.raises(CouplingRangeError):
        closed_form("w1_ab", -0.5)
    with pytest.raises(ValueError):
        closed_form("w3_ab", 0.5)


def test_double_violation_window_shape(grid101, w1_tables):
    for e in grid101:
        e = float(e)
        t = w1_tables[e]
        both = min(w1(t, "ab").value, w1(t, "ac").value)
        if WINDOW_LO + 1e-3 < e < WINDOW_HI - 1e-3:
            assert both > 2.0
    for e in (WINDOW_LO - 1e-3, WINDOW_HI + 1e-3):
        t = build_table(canonical_w1_scenario(), e)
        assert min(w1(t, "ab").value, w1(t, "ac").value) < 2.0
    mid = 0.5 * (WINDOW_LO + WINDOW_HI)
    t = build_table(canonical_w1_scenario(), mid)
    assert min(w1(t, "ab").value, w1(t, "ac").value) > 2.0


def test_w2_double_violation_everywhere_inside():
    delta = 1e-3
    for e in np.linspace(delta, np.pi - delta, 25):
        t = build_table(canonical_w2_scenario(), float(e))
        assert w2(t, "ab").value > 0.0
        assert w2(t, "ac").value > 0.0


def test_violation_flags():
    v = violation("w1", QUANTUM_BOUND_W1)
    assert v.violated and abs(v.margin - (QUANTUM_BOUND_W1 - 2.0)) < 1e-15
    assert not violation("w1", 2.0).violated
    v2 = violation("w2", 0.5625)
    assert v2.violated and abs(v2.margin - 0.5625) < 1e-15
    assert not violation("w2", 0.0).violated
    assert violation("w2", -0.5).violated  # magnitude counts


def test_witness_value_bounds_are_enforced():
    with pytest.raises(ValueError):
        WitnessValue(kind="w1", pair="ab", value=2 * np.sqrt(2) + 1e-6)
    with pytest.raises(ValueError):
        WitnessValue(kind="w2", pair="ac", value=-1.1)
    with pytest.raises(ValueError):
        WitnessValue(kind="bell", pair="ab", value=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_witness_value_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        WitnessValue(kind="w1", pair="ab", value=bad)
    with pytest.raises(ValueError):
        WitnessValue(kind="w2", pair="ac", value=bad)


def test_ac_pair_rejects_z_conditioning(w1_tables):
    with pytest.raises(ValueError):
        w1(w1_tables[0.0], pair="ac", z=0)
