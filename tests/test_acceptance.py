"""Acceptance suite: one test per numbered criterion, run at the stated
tolerances. Each test prints a single pass/fail line (visible with -s or
-rA) in addition to the pytest verdict.

Criterion 6 is expected to FAIL in its inequality clause: the factorized
global-entropy expression exceeds the exact min-entropy of the canonical
linear-witness scenario in a window of coupling angles. This is a defect
of the printed formula, not of the implementation; the analysis lives in
the repository README (Known formula defect) and the test states the
violating grid points explicitly.
"""

import time

import numpy as np

from triwitness.cli import main as cli_main
from triwitness.explore import OptimizeConfig, find_violation_window, optimize_settings
from triwitness.randomness import (
    bob_certified,
    h_from_w1,
    h_from_w2,
    hmin_global_bound,
    hmin_global_exact,
)
from triwitness.scenario import (
    build_table,
    canonical_w1_scenario,
    canonical_w2_scenario,
    p_bob_plus_closed_form,
    p_charlie_plus_closed_form,
)
from triwitness.witness import (
    QUANTUM_BOUND_W1,
    QUANTUM_BOUND_W2,
    closed_form,
    w1,
    w1_given_z,
    w2,
    w2_given_z,
)
from triwitness.channel import PLUS_BLOCH, bob_state, charlie_state, evolve_joint
from triwitness.qubit import bloch_to_density, partial_trace, projector, tensor


def _report(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    print(f"criterion {number:2d}: PASS - {description}")


def test_criterion_01_closed_form_reproduction(grid101):
    def body():
        start = time.perf_counter()
        worst = 0.0
        for scn, curves in (
            (canonical_w1_scenario(), (("w1_ab", "ab", w1), ("w1_ac", "ac", w1))),
            (canonical_w2_scenario(), (("w2_ab", "ab", w2), ("w2_ac", "ac", w2))),
        ):
            for e in grid101:
                e = float(e)
                table = build_table(scn, e)
                for kind, pair, evaluator in curves:
                    worst = max(worst, abs(evaluator(table, pair).value - closed_form(kind, e)))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"max closed-form error {worst}"
        assert elapsed < 1.0, f"grid reproduction took {elapsed:.2f}s"

    _report(1, "four witness curves match their closed forms on the 101-point grid in < 1 s", body)


def test_criterion_02_double_violation_window():
    def body():
        window = find_violation_window("w1", tol=1e-12)
        assert abs(window.lo - np.arcsin(2.0 ** (-1.0 / 4.0))) < 1e-9
        assert abs(window.hi - np.arccos(np.sqrt(2.0) - 1.0)) < 1e-9
        table = build_table(canonical_w1_scenario(), 1.0)
        ab = w1(table, "ab").value
        ac = w1(table, "ac").value
        assert abs(ab - closed_form("w1_ab", 1.0)) < 1e-9 and ab > 2.0
        assert abs(ac - closed_form("w1_ac", 1.0)) < 1e-9 and ac > 2.0

    _report(2, "the exact witness curves give the double-violation window endpoints to 1e-9", body)


def test_criterion_03_z_conditioned_witnesses(grid101, w1_tables, w2_tables):
    def body():
        for e in grid101:
            e = float(e)
            for z in (0, 1):
                assert abs(w1_given_z(w1_tables[e], z).value - closed_form("w1_ab_z", e)) < 1e-9
                assert abs(w2_given_z(w2_tables[e], z).value - closed_form("w2_ab_z", e)) < 1e-9
            assert abs(w1_given_z(w1_tables[e], 0).value - w1_given_z(w1_tables[e], 1).value) < 1e-9
            assert abs(w2_given_z(w2_tables[e], 0).value - w2_given_z(w2_tables[e], 1).value) < 1e-9

    _report(3, "z-conditioned witnesses match their closed forms and are z-independent", body)


def test_criterion_04_special_points():
    def body():
        t1_0 = build_table(canonical_w1_scenario(), 0.0)
        t2_0 = build_table(canonical_w2_scenario(), 0.0)
        assert abs(w1(t1_0, "ab").value - QUANTUM_BOUND_W1) < 1e-12
        assert abs(w1(t1_0, "ac").value) < 1e-12
        assert abs(w2(t2_0, "ab").value - 1.0) < 1e-12
        assert abs(w2(t2_0, "ac").value) < 1e-12
        t1_half = build_table(canonical_w1_scenario(), np.pi / 2.0)
        assert abs(w1(t1_half, "ac").value - QUANTUM_BOUND_W1) < 1e-12
        # the AB witness at pi/2 equals sqrt(2), the value of its closed-form
        # curve (the prose claim of 0 at pi/2 contradicts that curve and is
        # treated as an erratum)
        assert abs(w1(t1_half, "ab").value - np.sqrt(2.0)) < 1e-12

    _report(4, "witness values at the no-coupling and full-coupling points", body)


def test_criterion_05_randomness_rates(grid101):
    def body():
        terminal = -np.log2((2.0 + np.sqrt(2.0)) / 4.0)
        assert abs(h_from_w1(2.0 * np.sqrt(2.0)) - terminal) < 1e-6
        assert abs(h_from_w2(np.cos(np.pi / 3.0)) - 0.0247911096865249) < 1e-6
        half = [float(e) for e in grid101 if e <= np.pi / 2.0 + 1e-12]
        curve_w1 = [bob_certified(e, "w1") for e in half]
        curve_w2 = [bob_certified(e, "w2") for e in half]
        assert all(b <= a + 1e-12 for a, b in zip(curve_w1, curve_w1[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(curve_w2, curve_w2[1:]))
        cutoff = np.arccos(np.sqrt(2.0) - 1.0)
        step = np.pi / (len(grid101) - 1)
        for e in half:
            if e >= cutoff:
                assert curve_w1[half.index(e)] == 0.0
            elif e >= cutoff - step:
                assert curve_w1[half.index(e)] < 1e-3  # grid resolution
        assert curve_w2[-1] < 1e-12  # exactly at pi/2

    _report(5, "certified rates: terminal values, monotone decay, zero crossings", body)


def test_criterion_06_entropy_bound_property(grid101, w1_tables, w2_tables):
    def body():
        # equality at zero coupling (linear-witness scenario, where Charlie is
        # deterministic and Bob's worst case equals his average)
        t0 = w1_tables[0.0]
        assert abs(hmin_global_bound(t0) - hmin_global_exact(t0)) < 1e-12

        violations = []
        for label, tables in (("w1", w1_tables), ("w2", w2_tables)):
            for e in grid101:
                t = tables[float(e)]
                excess = hmin_global_bound(t) - hmin_global_exact(t)
                if excess > 1e-12:
                    violations.append((label, float(e), excess))
        assert not violations, (
            "the factorized expression exceeds the exact global min-entropy at "
            f"{len(violations)} grid points (scenario, eps, excess bits): {violations}; "
            "this is a defect of the printed factorization, which assumes the two "
            "outcomes are uncorrelated given the inputs -- see README, Known formula defect"
        )

    _report(6, "factorized entropy expression never exceeds the exact min-entropy", body)


def test_criterion_07_channel_properties():
    def body():
        rng = np.random.default_rng(4242)
        for _ in range(1000):
            v = rng.normal(size=3)
            r = v / np.linalg.norm(v) * rng.uniform(0.0, 1.0)
            w_axis = rng.normal(size=3)
            w_axis /= np.linalg.norm(w_axis)
            eps = rng.uniform(0.0, np.pi)
            rho = bloch_to_density(r)
            joint = evolve_joint(rho, w_axis, eps)
            assert np.abs(joint - joint.conj().T).max() < 1e-12
            assert abs(np.trace(joint).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(joint)[0] > -1e-10
            assert np.abs(bob_state(rho, w_axis, eps) - partial_trace(joint, "system")).max() < 1e-12
            assert np.abs(charlie_state(rho, w_axis, eps) - partial_trace(joint, "ancilla")).max() < 1e-12
        rho = bloch_to_density([0.3, -0.2, 0.4])
        assert np.array_equal(evolve_joint(rho, [0.0, 1.0, 0.0], 0.0), tensor(rho, projector(PLUS_BLOCH)))

    _report(7, "joint evolution is a state, marginals match partial traces, zero coupling is exact", body)


def test_criterion_08_optimizer_recovery():
    def body():
        start = time.perf_counter()
        res_w1 = optimize_settings(OptimizeConfig(target="w1_ab", eps=0.0, restarts=64, seed=42))
        res_w2 = optimize_settings(OptimizeConfig(target="w2_ab", eps=0.0, restarts=64, seed=42))
        elapsed = time.perf_counter() - start
        assert res_w1.value >= QUANTUM_BOUND_W1 - 1e-6, f"w1_ab reached only {res_w1.value}"
        assert res_w2.value >= QUANTUM_BOUND_W2 - 1e-6, f"w2_ab reached only {res_w2.value}"
        assert res_w1.max_evaluated <= QUANTUM_BOUND_W1 + 1e-9
        assert res_w2.max_evaluated <= QUANTUM_BOUND_W2 + 1e-9
        assert elapsed < 10.0, f"optimization took {elapsed:.2f}s"

    _report(8, "seeded 64-restart search recovers both qubit maxima within 1e-6 in < 10 s", body)


def test_criterion_09_oracle_equivalence(grid101, w1_tables, w2_tables):
    def body():
        for tables in (w1_tables, w2_tables):
            scn = tables[0.0].scenario
            for e in grid101:
                e = float(e)
                t = tables[e]
                for x in range(4):
                    for z in range(2):
                        assert abs(t.p_charlie_plus(x, z) - p_charlie_plus_closed_form(scn, e, x, z)) < 1e-12
                        for y in range(2):
                            assert (
                                abs(t.p_bob_plus_given_z(x, y, z) - p_bob_plus_closed_form(scn, e, x, y, z))
                                < 1e-12
                            )
                for x in range(4):
                    for y in range(2):
                        averaged = 0.5 * (
                            p_bob_plus_closed_form(scn, e, x, y, 0) + p_bob_plus_closed_form(scn, e, x, y, 1)
                        )
                        assert abs(t.p_bob_plus(x, y) - averaged) < 1e-12

    _report(9, "density-matrix probabilities equal the Bloch-algebra closed forms to 1e-12", body)


def test_criterion_10_determinism(tmp_path):
    def body():
        a, b = tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"
        flags = ["sweep", "--scenario", "w1", "--steps", "21"]
        assert cli_main([*flags, "--out", str(a)]) == 0
        assert cli_main([*flags, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        c, d = tmp_path / "opt_a.json", tmp_path / "opt_b.json"
        flags = ["optimize", "--target", "w2_ab", "--seed", "42", "--restarts", "6"]
        assert cli_main([*flags, "--out", str(c)]) == 0
        assert cli_main([*flags, "--out", str(d)]) == 0
        assert c.read_bytes() == d.read_bytes()

    _report(10, "repeated sweep and optimize runs are byte-identical", body)
