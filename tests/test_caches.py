"""What a scenario and a table derive once and keep: counted, never timed."""

import numpy as np
import pytest

from triwitness import cli, explore, randomness, scenario, witness
from triwitness.scenario import (
    ProbTable,
    Scenario,
    build_table,
    build_tables,
    canonical_w1_scenario,
    canonical_w2_scenario,
)


def counting(monkeypatch, module, name) -> list:
    """Replace module.name with a wrapper that records each call's arguments."""
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def point_request(table: ProbTable) -> None:
    """Both pairs of both witnesses, the z-conditioned AB witnesses and the entropies."""
    for pair in ("ab", "ac"):
        witness.w1(table, pair)
        witness.w2(table, pair)
    for z in (0, 1):
        witness.w1_given_z(table, z)
        witness.w2_given_z(table, z)
    randomness.entropy_report(table)


def test_a_scenario_builds_its_engine_operators_once(monkeypatch):
    calls = counting(monkeypatch, scenario, "_engine_operators")
    s = canonical_w1_scenario()
    assert calls == []  # nothing is built with the scenario
    for eps in np.linspace(0.0, np.pi, 101):
        build_table(s, float(eps))
    build_tables(s, [0.1, 0.2])
    assert len(calls) == 1


def test_a_point_request_derives_the_setting_probabilities_once(monkeypatch):
    readouts = counting(monkeypatch, witness, "_readout_values")
    setting = counting(monkeypatch, witness, "setting_probs")
    table = build_table(canonical_w1_scenario(), 1.07)
    assert readouts == []  # nothing is derived with the table
    point_request(table)
    point_request(table)
    assert len(readouts) == 1
    assert setting == []


#: The four readers that take Charlie's input z, each on the AB pair.
Z_READERS = {
    "setting_probs": lambda t, z: witness.setting_probs(t.probs, t.scenario.z_prior, "ab", z),
    "w1": lambda t, z: witness.w1(t, "ab", z).value,
    "w2": lambda t, z: witness.w2(t, "ab", z).value,
    "p_bob_plus_given_z": lambda t, z: t.p_bob_plus_given_z(0, 1, z),
}


@pytest.mark.parametrize("z", [None, 0, 1, np.int64(0), np.int64(1)], ids=repr)
@pytest.mark.parametrize("reader", sorted(Z_READERS))
def test_z_is_none_or_an_integer_0_or_1(reader, z):
    table = build_table(canonical_w1_scenario(), 1.07)
    read = Z_READERS[reader]
    plain = None if z is None else int(z)
    assert np.asarray(read(table, z)).tobytes() == np.asarray(read(table, plain)).tobytes()
    if plain is None:
        assert table.p_bob_plus_given_z(0, 1, z) == table.p_bob_plus(0, 1)
    else:
        assert witness.w1(table, "ab", z).value == witness.w1_given_z(table, plain).value
        assert table.p_bob_plus_given_z(0, 1, z) == table.probs[0, 1, plain, 0].sum()


@pytest.mark.parametrize("z", [True, np.True_, 1.0, 2, -1], ids=repr)
@pytest.mark.parametrize("reader", sorted(Z_READERS))
def test_a_bool_a_float_or_another_integer_z_is_rejected(reader, z):
    table = build_table(canonical_w1_scenario(), 1.07)
    with pytest.raises(ValueError, match="z must be 0 or 1"):
        Z_READERS[reader](table, z)


def test_every_pair_and_z_is_mapped_and_validated_in_one_place(monkeypatch):
    index = counting(monkeypatch, witness, "_readout_index")
    table = build_table(canonical_w1_scenario(), 1.07)
    for pair, z, message in (("ad", None, "pair must be"), ("ac", 0, "conditioning on z"), ("ab", 2, "z must be")):
        with pytest.raises(ValueError, match=message):
            witness.w1(table, pair, z)
    assert index == [("ad", None), ("ac", 0), ("ab", 2)]


def test_a_sweep_derives_the_readouts_of_its_grid_once(monkeypatch):
    readouts = counting(monkeypatch, witness, "_readout_values")
    setting = counting(monkeypatch, witness, "setting_probs")
    rows = cli.run_sweep(canonical_w1_scenario(), 0.0, np.pi, 11)
    assert len(rows) == 11
    assert [args[0].shape for args in readouts] == [(11, 4, 2, 2, 2, 2)]
    assert setting == []


def test_verify_derives_the_readouts_of_each_canonical_grid_once(monkeypatch):
    readouts = counting(monkeypatch, witness, "_readout_values")
    setting = counting(monkeypatch, witness, "setting_probs")
    cli.run_verify(11)
    grids = [args[0] for args in readouts if args[0].ndim == 6]
    grid = np.linspace(0.0, np.pi, 11)
    assert len(grids) == 2
    assert np.array_equal(grids[0], build_tables(canonical_w1_scenario(), grid))
    assert np.array_equal(grids[1], build_tables(canonical_w2_scenario(), grid))
    # and one table of its own, for the special point W1_AC(pi/2)
    assert [args[0].shape for args in readouts if args[0].ndim != 6] == [(4, 2, 2, 2, 2)]
    assert setting == []


def test_two_tables_or_scenarios_never_share_a_cache():
    s, twin = canonical_w1_scenario(), canonical_w1_scenario()
    one, other = build_table(s, 0.5), build_table(s, 0.5)
    copy = ProbTable(probs=one.probs, scenario=s, eps=0.5)
    assert one._readouts is not other._readouts and one._readouts is not copy._readouts
    build_table(twin, 0.5)
    assert s._operators is not twin._operators
    assert "_readouts" not in vars(build_table(s, 0.7))
    assert "_operators" not in vars(Scenario(s.preparations, s.bob_axes, s.charlie_axes, s.ancilla_axis))


def test_tables_and_their_caches_stay_read_only():
    s = canonical_w1_scenario()
    table = build_table(s, 1.07)
    point_request(table)
    assert not table.probs.flags.writeable
    for cached in table._readouts + s._operators:
        assert not cached.flags.writeable
    with pytest.raises(ValueError):
        table.probs[0, 0, 0, 0, 0] = 0.5


def test_w1_curves_builds_the_coefficient_tables_once(monkeypatch):
    calls = counting(monkeypatch, explore, "curve_coefficients")
    explore.w1_curves(canonical_w1_scenario())
    assert len(calls) == 1
