import json

import numpy as np
import pytest

from triwitness.channel import bob_state, charlie_state
from triwitness.qubit import bloch_to_density, projector
from triwitness.scenario import (
    InvalidScenarioError,
    ProbTable,
    Scenario,
    build_table,
    build_tables,
    canonical_w1_scenario,
    canonical_w2_scenario,
    p_bob_plus_closed_form,
    p_charlie_plus_closed_form,
    p_joint,
    p_joint_closed_form,
)

# frozen from the analytic expressions, 50-digit evaluation
P_BOB_W1_EPS0 = 0.8535533905932738  # 1/2 + 1/(2 sqrt 2)
P_BOB_W1_HALFPI = 0.6767766952966369  # 1/2 + 1/(4 sqrt 2)
P_CHARLIE_MINUS_HALFPI = 0.1464466094067262  # (1 - 1/sqrt 2)/2


def test_canonical_w1_settings():
    s = canonical_w1_scenario()
    assert np.allclose(np.linalg.norm(s.preparations, axis=1), 1.0)
    assert np.allclose(s.preparations[0], [1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
    assert np.allclose(s.preparations[3], [-1 / np.sqrt(2), 0, -1 / np.sqrt(2)])
    assert np.allclose(s.z_prior, [0.5, 0.5])


def test_canonical_w2_settings():
    s = canonical_w2_scenario()
    assert np.allclose(s.preparations, [[0, 0, 1], [0, 0, -1], [1, 0, 0], [-1, 0, 0]])
    assert np.allclose(s.bob_axes, [[0, 0, 1], [1, 0, 0]])


def test_scenario_validation():
    good = canonical_w1_scenario()
    with pytest.raises(InvalidScenarioError):
        Scenario(
            preparations=good.preparations * 1.5,
            bob_axes=good.bob_axes,
            charlie_axes=good.charlie_axes,
            ancilla_axis=good.ancilla_axis,
        )
    with pytest.raises(InvalidScenarioError):
        Scenario(
            preparations=good.preparations,
            bob_axes=[[0.5, 0, 0], [0, 0, 1]],
            charlie_axes=good.charlie_axes,
            ancilla_axis=good.ancilla_axis,
        )
    with pytest.raises(InvalidScenarioError):
        Scenario(
            preparations=good.preparations,
            bob_axes=good.bob_axes,
            charlie_axes=good.charlie_axes,
            ancilla_axis=good.ancilla_axis,
            z_prior=[0.7, 0.7],
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x"])
@pytest.mark.parametrize("field", ["preparations", "bob_axes", "charlie_axes", "ancilla_axis", "z_prior"])
def test_scenario_rejects_non_finite_or_non_numeric_entries(field, bad):
    doc = canonical_w1_scenario().to_dict()
    target = doc[field] if field in ("ancilla_axis", "z_prior") else doc[field][0]
    target[0] = bad
    with pytest.raises(InvalidScenarioError, match=field):
        Scenario.from_dict(doc)


def test_from_dict_rejects_a_document_that_is_not_an_object():
    with pytest.raises(InvalidScenarioError):
        Scenario.from_dict([[0, 0, 1]] * 4)


def test_scenario_arrays_are_immutable():
    s = canonical_w1_scenario()
    with pytest.raises(ValueError):
        s.preparations[0, 0] = 0.0


def test_p_joint_factorizes_at_zero_coupling():
    s = canonical_w1_scenario()
    for x in range(4):
        for y in range(2):
            for z in range(2):
                cell = p_joint(s, 0.0, x, y, z)
                assert np.array_equal(cell[:, 1], [0.0, 0.0])  # c = -1 never fires
                bob_plus = p_bob_plus_closed_form(s, 0.0, x, y, z)
                assert np.abs(cell[:, 0] - [bob_plus, 1.0 - bob_plus]).max() < 1e-12
                assert np.abs(cell - p_joint_closed_form(s, 0.0)[0, x, y, z]).max() < 1e-12


def test_p_joint_normalization_random_settings():
    rng = np.random.default_rng(21)
    for _ in range(30):
        def unit():
            v = rng.normal(size=3)
            return v / np.linalg.norm(v)

        s = Scenario(
            preparations=[unit() * rng.uniform(0, 1) for _ in range(4)],
            bob_axes=[unit(), unit()],
            charlie_axes=[unit(), unit()],
            ancilla_axis=unit(),
        )
        cell = p_joint(s, rng.uniform(0, np.pi), rng.integers(4), rng.integers(2), rng.integers(2))
        assert cell.min() >= 0.0
        assert abs(cell.sum() - 1.0) < 1e-12


def test_p_joint_charlie_marginal_example():
    s = canonical_w1_scenario()
    cell = p_joint(s, np.pi / 2, 0, 0, 0)
    assert abs(cell[:, 1].sum() - P_CHARLIE_MINUS_HALFPI) < 1e-12


def test_p_bob_examples():
    s = canonical_w1_scenario()
    assert abs(build_table(s, 0.0).p_bob_plus(0, 0) - P_BOB_W1_EPS0) < 1e-12
    assert abs(build_table(s, np.pi / 2).p_bob_plus(0, 0) - P_BOB_W1_HALFPI) < 1e-12
    for eps in np.linspace(0, np.pi, 23):
        dist = s.z_prior @ build_table(s, eps).probs[0, 0].sum(axis=-1)  # Bob's (b) averaged over z
        assert abs(dist.sum() - 1.0) < 1e-12
        assert abs(dist[0] - (0.5 + (1 + np.cos(eps)) / (4 * np.sqrt(2)))) < 1e-12


def test_p_charlie_examples():
    s = canonical_w1_scenario()
    for x in range(4):
        for z in range(2):
            assert np.array_equal(build_table(s, 0.0).probs[x, 0, z].sum(axis=0), [1.0, 0.0])
    assert abs(build_table(s, np.pi / 2).probs[0, 0, 0, :, 1].sum() - P_CHARLIE_MINUS_HALFPI) < 1e-12
    # preparation aligned with the interaction axis never kicks the ancilla
    aligned = Scenario(
        preparations=[[1, 0, 0]] * 4,
        bob_axes=s.bob_axes,
        charlie_axes=[[1, 0, 0], [0, 0, 1]],
        ancilla_axis=[1, 0, 0],
    )
    for eps in (0.3, 1.5, 3.0):
        assert build_table(aligned, eps).probs[0, 0, 0, :, 1].sum() < 1e-15
        assert p_joint_closed_form(aligned, eps)[0, 0, :, 0, :, 1].max() < 1e-15


def test_z_averaging():
    s = canonical_w1_scenario()
    for eps in np.linspace(0, np.pi, 11):
        t = build_table(s, eps)
        for x in range(4):
            for y in range(2):
                avg = 0.5 * p_bob_plus_closed_form(s, eps, x, y, 0) + 0.5 * p_bob_plus_closed_form(s, eps, x, y, 1)
                assert np.abs(s.z_prior @ t.probs[x, y].sum(axis=-1) - [avg, 1.0 - avg]).max() < 1e-12


def test_nonuniform_prior_enters_p_bob():
    base = canonical_w1_scenario()
    skew = Scenario(
        preparations=base.preparations,
        bob_axes=base.bob_axes,
        charlie_axes=base.charlie_axes,
        ancilla_axis=base.ancilla_axis,
        z_prior=[0.25, 0.75],
    )
    eps = 1.1
    t = build_table(skew, eps)
    bob = t.probs[0, 1].sum(axis=-1)  # (z, b)
    expected = 0.25 * bob[0] + 0.75 * bob[1]
    assert abs(t.p_bob_plus(0, 1) - expected[0]) < 1e-15
    oracle = 0.25 * p_bob_plus_closed_form(skew, eps, 0, 1, 0) + 0.75 * p_bob_plus_closed_form(skew, eps, 0, 1, 1)
    assert abs(t.p_bob_plus(0, 1) - oracle) < 1e-12
    assert abs(t.p_bob_plus(0, 1) - build_table(base, eps).p_bob_plus(0, 1)) > 1e-3  # the prior matters here


def test_build_table_invariants(w1_tables, w2_tables):
    for tables in (w1_tables, w2_tables):
        for eps, t in tables.items():
            assert t.probs.min() >= 0.0
            assert np.abs(t.probs.sum(axis=(3, 4)) - 1.0).max() < 1e-12


def test_build_table_zero_coupling_kills_minus_outcomes(w1_tables):
    t = w1_tables[0.0]
    assert np.array_equal(t.probs[:, :, :, :, 1], np.zeros((4, 2, 2, 2)))


def test_table_marginals_match_channel_marginals(w1_tables, w2_tables):
    for tables in (w1_tables, w2_tables):
        s = tables[0.0].scenario
        for eps in list(tables)[::10]:
            t = tables[eps]
            for x in range(4):
                rho = bloch_to_density(s.preparations[x])
                for z in range(2):
                    w = s.charlie_axes[z]
                    charlie = np.trace(projector(s.ancilla_axis) @ charlie_state(rho, w, eps)).real
                    assert np.abs(t.probs[x, 0, z].sum(axis=0) - [charlie, 1.0 - charlie]).max() < 1e-12
                    for y in range(2):
                        bob = np.trace(projector(s.bob_axes[y]) @ bob_state(rho, w, eps)).real
                        assert np.abs(t.probs[x, y, z].sum(axis=1) - [bob, 1.0 - bob]).max() < 1e-12


def test_no_signaling_to_charlie_bitwise(w1_tables, w2_tables):
    for tables in (w1_tables, w2_tables):
        for t in tables.values():
            at_y0 = t.probs[:, 0].sum(axis=2)
            at_y1 = t.probs[:, 1].sum(axis=2)
            assert np.array_equal(at_y0, at_y1)


def test_dual_path_against_bloch_closed_form(w1_tables, w2_tables):
    for tables in (w1_tables, w2_tables):
        s = tables[0.0].scenario
        for eps, t in tables.items():
            for x in range(4):
                for z in range(2):
                    assert abs(t.p_charlie_plus(x, z) - p_charlie_plus_closed_form(s, eps, x, z)) < 1e-12
                    for y in range(2):
                        assert (
                            abs(t.p_bob_plus_given_z(x, y, z) - p_bob_plus_closed_form(s, eps, x, y, z)) < 1e-12
                        )


def test_charlie_statistics_symmetric_about_half_pi(w1_tables, w2_tables):
    # p(c = -1 | x, z) depends on the coupling through sin^2 only
    grid = np.linspace(0, np.pi / 2, 20)
    for tables in (w1_tables, w2_tables):
        s = tables[0.0].scenario
        a = build_tables(s, grid)[:, :, 0, :, :, 1].sum(axis=-1)  # (eps, x, z): p(c = -1 | x, z)
        b = build_tables(s, np.pi - grid)[:, :, 0, :, :, 1].sum(axis=-1)
        assert np.abs(a - b).max() < 1e-12


def test_probtable_rejects_malformed_tables():
    s = canonical_w1_scenario()
    bad = np.full((4, 2, 2, 2, 2), 0.3)
    with pytest.raises(InvalidScenarioError):
        ProbTable(probs=bad, scenario=s, eps=0.1)
    with pytest.raises(InvalidScenarioError):
        ProbTable(probs=np.zeros((4, 2, 2, 2)), scenario=s, eps=0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_probtable_rejects_non_finite_entries(bad):
    probs = build_table(canonical_w1_scenario(), 0.4).probs.copy()
    probs[1, 0, 1, 0, 0] = bad
    with pytest.raises(InvalidScenarioError):
        ProbTable(probs=probs, scenario=canonical_w1_scenario(), eps=0.4)
    with pytest.raises(InvalidScenarioError):
        ProbTable(probs=np.full((4, 2, 2, 2, 2), bad), scenario=canonical_w1_scenario(), eps=0.4)


@pytest.mark.parametrize("grid", [[0.1, np.pi + 0.1], [float("nan")], [[0.1, 0.2]]])
def test_build_tables_rejects_angles_off_a_grid_in_zero_to_pi(grid):
    with pytest.raises(ValueError):
        build_tables(canonical_w1_scenario(), grid)


def test_p_joint_and_build_table_are_slices_of_the_engine():
    s = canonical_w1_scenario()
    stack = build_tables(s, [0.2, 1.3])
    assert stack.shape == (2, 4, 2, 2, 2, 2)
    table = build_table(s, 1.3)
    for x, y, z in np.ndindex(4, 2, 2):
        assert np.array_equal(p_joint(s, 1.3, x, y, z), stack[1, x, y, z])
        assert np.array_equal(table.probs[x, y, z], stack[1, x, y, z])


def test_marginal_channels_broadcast_over_angles():
    s = canonical_w2_scenario()
    grid = np.linspace(0.0, np.pi, 7)
    for x, z in np.ndindex(4, 2):
        rho, w = bloch_to_density(s.preparations[x]), s.charlie_axes[z]
        bob, charlie = bob_state(rho, w, grid), charlie_state(rho, w, grid)
        assert bob.shape == charlie.shape == (7, 2, 2)
        for i, e in enumerate(grid):
            assert np.abs(bob[i] - bob_state(rho, w, float(e))).max() < 1e-15
            assert np.abs(charlie[i] - charlie_state(rho, w, float(e))).max() < 1e-15


def test_bloch_oracles_take_a_grid_and_return_floats_for_a_float():
    s = canonical_w1_scenario()
    grid = np.linspace(0.0, np.pi, 7)
    assert type(p_bob_plus_closed_form(s, 0.3, 1, 0, 1)) is float
    assert type(p_charlie_plus_closed_form(s, 0.3, 1, 1)) is float
    bob, charlie = p_bob_plus_closed_form(s, grid, 1, 0, 1), p_charlie_plus_closed_form(s, grid, 1, 1)
    assert bob.shape == charlie.shape == (7,)
    for i, e in enumerate(grid):
        assert abs(bob[i] - p_bob_plus_closed_form(s, float(e), 1, 0, 1)) < 1e-15
        assert abs(charlie[i] - p_charlie_plus_closed_form(s, float(e), 1, 1)) < 1e-15


def test_serialization_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(31)

    def unit():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    s = Scenario(
        preparations=[unit() * rng.uniform(0, 1) for _ in range(4)],
        bob_axes=[unit(), unit()],
        charlie_axes=[unit(), unit()],
        ancilla_axis=unit(),
        z_prior=[0.3, 0.7],
    )
    path = tmp_path / "scenario.json"
    s.save(path)
    back = Scenario.load(path)
    for field in ("preparations", "bob_axes", "charlie_axes", "ancilla_axis", "z_prior"):
        assert np.array_equal(getattr(s, field), getattr(back, field))


def test_serialization_schema_fields(tmp_path):
    path = tmp_path / "w1.json"
    canonical_w1_scenario().save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"preparations", "bob_axes", "charlie_axes", "ancilla_axis", "z_prior"}
    assert len(doc["preparations"]) == 4
    assert all(len(v) == 3 for v in doc["preparations"])


def test_from_dict_missing_field():
    with pytest.raises(InvalidScenarioError):
        Scenario.from_dict({"preparations": [[0, 0, 1]] * 4})
