"""Invariants of the batched probability engine and of its array consumers
over random scenarios and grids."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triwitness.channel import check_coupling
from triwitness.cli import run_sweep, sweep_row
from triwitness.explore import w1_curves
from triwitness.randomness import EntropyReport, entropy_report, entropy_values, h_from_w1, h_from_w2
from triwitness.scenario import (
    Scenario,
    build_table,
    build_tables,
    curve_coefficients,
    p_bob_plus_closed_form,
    p_charlie_plus_closed_form,
    p_joint_closed_form,
)
from triwitness.witness import (
    QUANTUM_BOUND_W1,
    QUANTUM_BOUND_W2,
    check_witness,
    determinant_values,
    qrac_values,
    setting_probs,
    w1,
    w1_given_z,
    w2,
    w2_given_z,
)

TOL = 1e-12

direction = (
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)
preparation = st.tuples(direction, st.floats(0.0, 1.0)).map(lambda dr: dr[0] * dr[1])
scenarios = st.builds(
    lambda preps, bob, charlie, anc, p0: Scenario(preps, bob, charlie, anc, z_prior=(p0, 1.0 - p0)),
    st.lists(preparation, min_size=4, max_size=4),
    st.lists(direction, min_size=2, max_size=2),
    st.lists(direction, min_size=2, max_size=2),
    direction,
    st.floats(0.0, 1.0),
)
grids = st.lists(st.floats(0.0, np.pi), min_size=1, max_size=12).map(np.array)


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_each_table_of_a_grid_is_the_single_angle_table(s, grid):
    stack = build_tables(s, grid)
    assert stack.shape == (len(grid), 4, 2, 2, 2, 2)
    for i, e in enumerate(grid):
        assert np.array_equal(stack[i], build_table(s, float(e)).probs)


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_tables_are_normalized_distributions(s, grid):
    p = build_tables(s, grid)
    assert p.min() >= 0.0 and p.max() <= 1.0
    assert np.abs(p.sum(axis=(4, 5)) - 1.0).max() <= TOL


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_no_signalling_to_charlie_holds_bitwise(s, grid):
    p = build_tables(s, grid)
    assert np.array_equal(p[:, :, 0].sum(axis=3), p[:, :, 1].sum(axis=3))


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_marginals_match_the_bloch_oracles(s, grid):
    p = build_tables(s, grid)
    for x, y, z in np.ndindex(4, 2, 2):
        bob = p[:, x, y, z, 0].sum(axis=-1)
        assert np.abs(bob - p_bob_plus_closed_form(s, grid, x, y, z)).max() <= TOL
    for x, z in np.ndindex(4, 2):
        charlie = p[:, x, 0, z, :, 0].sum(axis=-1)
        assert np.abs(charlie - p_charlie_plus_closed_form(s, grid, x, z)).max() <= TOL


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_witnesses_respect_the_qubit_bounds(s, grid):
    p = build_tables(s, grid)
    for pair in ("ab", "ac"):
        plus = setting_probs(p, s.z_prior, pair)
        assert np.abs(qrac_values(plus)).max() <= QUANTUM_BOUND_W1 + TOL
        assert np.abs(determinant_values(plus)).max() <= QUANTUM_BOUND_W2 + TOL


@given(st.floats(0.0, QUANTUM_BOUND_W1), st.floats(0.0, QUANTUM_BOUND_W1))
def test_certified_rates_are_monotone_and_nonnegative(a, b):
    lo, hi = sorted((a, b))
    assert 0.0 <= h_from_w1(lo) <= h_from_w1(hi)
    lo, hi = lo / QUANTUM_BOUND_W1, hi / QUANTUM_BOUND_W1
    assert 0.0 <= h_from_w2(lo) <= h_from_w2(hi)


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_entropy_figures_of_a_stack_are_those_of_each_table(s, grid):
    figures = entropy_values(build_tables(s, grid), s.z_prior)
    for i, e in enumerate(grid):
        report = entropy_report(build_table(s, float(e)))
        assert {name: float(v[i]) for name, v in figures.items()} == vars(report)


@settings(max_examples=40, deadline=None)
@given(scenarios, st.floats(0.0, np.pi), st.floats(0.0, np.pi), st.integers(2, 12))
def test_sweep_rows_are_those_of_each_table(s, a, b, steps):
    lo, hi = sorted((a, b))
    assume(lo < hi)  # run_sweep rejects an empty range
    rows = run_sweep(s, lo, hi, steps)
    assert rows == [sweep_row(build_table(s, e)) for e in np.linspace(lo, hi, steps)]


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_w1_curve_models_reproduce_the_engine(s, grid):
    (a0, a1), (c0, c1, c2) = w1_curves(s).values()
    models = {"ab": a0 + a1 * np.cos(grid), "ac": c0 + c1 * np.cos(2.0 * grid) + c2 * np.sin(2.0 * grid)}
    p = build_tables(s, grid)
    for pair, model in models.items():
        assert np.abs(model - qrac_values(setting_probs(p, s.z_prior, pair))).max() <= TOL


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_joint_oracle_matches_every_cell_of_the_engine(s, grid):
    oracle = p_joint_closed_form(s, grid)
    assert oracle.shape == (len(grid), 4, 2, 2, 2, 2)
    assert np.abs(oracle - build_tables(s, grid)).max() <= TOL


@settings(max_examples=60, deadline=None)
@given(scenarios, grids)
def test_joint_oracle_marginals_match_the_bloch_oracles(s, grid):
    p = p_joint_closed_form(s, grid)
    for x, y, z in np.ndindex(4, 2, 2):
        bob = p[:, x, y, z, 0].sum(axis=-1)
        assert np.abs(bob - p_bob_plus_closed_form(s, grid, x, y, z)).max() <= TOL
        charlie = p[:, x, y, z, :, 0].sum(axis=-1)  # at every y: no signalling to Charlie
        assert np.abs(charlie - p_charlie_plus_closed_form(s, grid, x, z)).max() <= TOL


@settings(max_examples=60, deadline=None)
@given(scenarios)
def test_w1_coefficients_vanish_outside_each_pair_basis(s):
    # basis order: 1, cos eps, sin eps, cos 2eps, sin 2eps
    coef = curve_coefficients(s)
    assert coef.shape == (5, 4, 2, 2, 2, 2)
    assert np.abs(qrac_values(setting_probs(coef, s.z_prior, "ab"))[[2, 3, 4]]).max() <= TOL
    assert np.abs(qrac_values(setting_probs(coef, s.z_prior, "ac"))[[1, 2]]).max() <= TOL


# -- the one-table path gives the bits of the stack path -----------------------


def same_bits(a, b) -> bool:
    """Equal as IEEE doubles, the sign of zero included."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(scenarios, st.floats(0.0, np.pi))
def test_table_witnesses_are_the_witnesses_of_setting_probs(s, eps):
    table = build_table(s, eps)
    probs, prior = table.probs, s.z_prior
    for pair in ("ab", "ac"):
        assert same_bits(w1(table, pair).value, qrac_values(setting_probs(probs, prior, pair)))
        assert same_bits(w2(table, pair).value, determinant_values(setting_probs(probs, prior, pair)))
    for z in (0, 1):
        assert same_bits(w1_given_z(table, z).value, qrac_values(setting_probs(probs, prior, "ab", z)))
        assert same_bits(w2_given_z(table, z).value, determinant_values(setting_probs(probs, prior, "ab", z)))


@settings(max_examples=60, deadline=None)
@given(scenarios, st.floats(0.0, np.pi))
def test_entropy_report_is_the_one_table_stack_slice(s, eps):
    table = build_table(s, eps)
    w1(table, "ab")  # the report reads the witnesses this call derived
    figures = entropy_values(table.probs[None], s.z_prior)
    report = entropy_report(table)
    assert list(figures) == list(EntropyReport.__dataclass_fields__)
    for name, values in figures.items():
        assert same_bits(getattr(report, name), values[0]), name


@settings(max_examples=300, deadline=None)
@given(scenarios, st.floats(0.0, np.pi))
def test_scalar_oracles_are_their_one_angle_array_oracles(s, eps):
    # A longer grid takes a matrix-vector product, which may round the last
    # bit differently from the one-angle dot product; the tests above bound it.
    grid = np.array([eps])
    for x, z in np.ndindex(4, 2):
        one = p_charlie_plus_closed_form(s, eps, x, z)
        assert type(one) is float and same_bits(one, p_charlie_plus_closed_form(s, grid, x, z))
        for y in range(2):
            one = p_bob_plus_closed_form(s, eps, x, y, z)
            assert type(one) is float and same_bits(one, p_bob_plus_closed_form(s, grid, x, y, z))


def outcome(check, *args):
    """(value as a float, None) or (None, (exception type, message))."""
    try:
        return float(check(*args)), None
    except (ValueError, OverflowError) as exc:
        return None, (type(exc), str(exc))


def assert_scalar_path_is_the_array_path(check, *head, value):
    fast = outcome(check, *head, value)
    array = outcome(check, *head, np.array(value, dtype=float) if isinstance(value, float) else np.array(value))
    assert fast[1] == array[1]
    assert fast[0] is None or same_bits(fast[0], array[0])


EDGE_VALUES = [
    float("nan"),
    float("inf"),
    float("-inf"),
    np.pi * (1.0 + 2.0**-52),
    -1e-300,
    -0.0,
    0.0,
    np.pi,
    1.0,
    3,
    4,
    -1,
    10**400,
    np.float64(0.5),
    np.float64(np.nan),
    np.float64(-0.0),
    1.0 + 2.0**-52,
    2.0 * np.sqrt(2.0) + 1e-9,
    2.0 * np.sqrt(2.0) + 2e-9,
    -2.0 * np.sqrt(2.0) - 2e-9,
    -1.0 - 2.0**-52,
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_check_coupling_scalar_path_edges(value):
    assert_scalar_path_is_the_array_path(check_coupling, value=value)


@pytest.mark.parametrize("kind", ["w1", "w2"])
@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_check_witness_scalar_path_edges(kind, value):
    assert_scalar_path_is_the_array_path(check_witness, kind, value=value)


def test_scalar_paths_reject_and_accept_the_named_edges():
    for value in (float("nan"), float("inf"), float("-inf"), np.pi * (1.0 + 2.0**-52), -1e-300):
        assert outcome(check_coupling, value)[0] is None
    for value in (-0.0, 3, np.float64(1.5)):
        assert outcome(check_coupling, value)[1] is None
    assert same_bits(check_coupling(-0.0), -0.0)
    for value in (float("nan"), float("inf"), float("-inf")):
        assert outcome(check_witness, "w1", value)[1] == (ValueError, f"w1 value {value} is not finite")
    assert type(check_witness("w2", np.float64(0.25))) is float


@given(st.one_of(st.floats(), st.integers(-5, 5), st.floats().map(np.float64)))
def test_check_coupling_scalar_path_matches_the_array_path(value):
    assert_scalar_path_is_the_array_path(check_coupling, value=value)


@given(st.sampled_from(["w1", "w2"]), st.one_of(st.floats(), st.integers(-5, 5), st.floats().map(np.float64)))
def test_check_witness_scalar_path_matches_the_array_path(kind, value):
    assert_scalar_path_is_the_array_path(check_witness, kind, value=value)
