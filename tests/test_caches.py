"""What a scenario and a table derive once and keep: counted, never timed."""

import numpy as np
import pytest

from triwitness import explore, randomness, scenario, witness
from triwitness.scenario import ProbTable, Scenario, build_table, build_tables, canonical_w1_scenario


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


def test_other_readouts_go_through_setting_probs(monkeypatch):
    setting = counting(monkeypatch, witness, "setting_probs")
    table = build_table(canonical_w1_scenario(), 1.07)
    value = witness.w1(table, "ab", z=np.int64(1)).value
    assert len(setting) == 1 and value == witness.w1_given_z(table, 1).value
    for pair, z, message in (("ad", None, "pair must be"), ("ac", 0, "conditioning on z"), ("ab", 2, "z must be")):
        with pytest.raises(ValueError, match=message):
            witness.w1(table, pair, z)
    with pytest.raises(IndexError):
        witness.w2(table, "ab", 1.0)


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
