import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from triwitness import cli, explore
from triwitness.cli import MAX_RESTARTS, MAX_STEPS, SWEEP_COLUMNS, main, run_sweep, run_verify
from triwitness.explore import OptimizeConfig, find_violation_window
from triwitness.scenario import canonical_w2_scenario

ROOT = Path(__file__).resolve().parents[1]


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_sweep_header_and_special_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", "w1", "--steps", "3", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 3
    eps = [float(r["epsilon"]) for r in rows]
    assert np.allclose(eps, [0.0, np.pi / 2, np.pi])
    w1_ab = [float(r["w1_ab"]) for r in rows]
    assert np.allclose(w1_ab, [2 * np.sqrt(2), np.sqrt(2), 0.0], atol=1e-9)
    w1_ac = [float(r["w1_ac"]) for r in rows]
    assert np.allclose(w1_ac, [0.0, 2 * np.sqrt(2), 0.0], atol=1e-9)
    assert abs(float(rows[0]["h_bob_w1"]) - 0.2284466968) < 1e-6


def test_sweep_rejects_bad_ranges(tmp_path, capsys):
    for flags, needle in (
        (["--eps-start", "2.0", "--eps-end", "1.0"], "eps-start < eps-end"),
        (["--eps-start", "-0.5"], "eps-start < eps-end"),
        (["--eps-end", "4.0"], "eps-start < eps-end"),
        (["--steps", "1"], "steps must be an integer >= 2"),
    ):
        assert_usage_error(["sweep", *flags, "--out", str(tmp_path / "x.csv")], capsys, needle)
    assert not (tmp_path / "x.csv").exists()


def test_sweep_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["sweep", "--scenario", "w2", "--steps", "11"]
    main([*flags, "--out", str(a)])
    main([*flags, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    main(["sweep", "--steps", "3", "--format", "json", "--out", str(out)])
    rows = json.loads(out.read_text())
    assert len(rows) == 3
    assert list(rows[0]) == list(SWEEP_COLUMNS)


def test_sweep_scenario_file_override(tmp_path):
    doc = tmp_path / "scn.json"
    canonical_w2_scenario().save(doc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["sweep", "--scenario", "w2", "--steps", "5", "--out", str(a)])
    main(["sweep", "--scenario-file", str(doc), "--steps", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_run_sweep_rows_are_finite():
    rows = run_sweep(canonical_w2_scenario(), 0.0, np.pi, 7)
    for row in rows:
        for column in SWEEP_COLUMNS:
            assert np.isfinite(row[column])
        for column in SWEEP_COLUMNS[7:]:
            assert row[column] >= 0.0


def test_thresholds_w1(tmp_path):
    out = tmp_path / "thr.csv"
    assert main(["thresholds", "--scenario", "w1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert abs(float(rows[0]["lo"]) - 0.9989374565936864) < 1e-9
    assert abs(float(rows[0]["hi"]) - 1.1437177404024205) < 1e-9
    assert float(rows[0]["value_ab_mid"]) > 2.0
    assert float(rows[0]["value_ac_mid"]) > 2.0


def test_thresholds_w2(tmp_path):
    out = tmp_path / "thr.csv"
    assert main(["thresholds", "--scenario", "w2", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert float(rows[0]["lo"]) == 0.0
    assert abs(float(rows[0]["hi"]) - np.pi) < 1e-11
    assert float(rows[0]["value_ab_mid"]) > 0.0
    assert float(rows[0]["value_ac_mid"]) > 0.0


def test_optimize_json_output_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["optimize", "--target", "w1_ab", "--seed", "7", "--restarts", "4"]
    assert main([*flags, "--out", str(a)]) == 0
    assert main([*flags, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["target"] == "w1_ab"
    assert doc["value"] > 2.0
    assert set(doc["scenario"]) == {"preparations", "bob_axes", "charlie_axes", "ancilla_axis", "z_prior"}


def test_optimize_rejects_bad_flags(capsys):
    assert_usage_error(["optimize", "--restarts", "0"], capsys, "restarts must be >= 1")
    assert_usage_error(["optimize", "--tol", "-1"], capsys, "tolerance must be a finite positive number")


@pytest.mark.parametrize("command", ["thresholds", "optimize", "verify"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_a_usage_error(command, tol, capsys):
    assert_usage_error([command, "--tol", tol], capsys, "must be a finite positive number")


def assert_usage_error(argv, capsys, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("triwitness: error:") and needle in lines[0]


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["sweep", "--steps", "abc"], "invalid int value: 'abc'"),
        (["sweep", "--scenario", "w3"], "invalid choice: 'w3'"),
        (["table"], "the following arguments are required: --eps"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ],
)
def test_argparse_errors_are_usage_errors(argv, needle, capsys):
    assert_usage_error(argv, capsys, needle)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: triwitness" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--restarts", "x1"],
        ["sweep", "--steps", "1"],
        ["randomness", "--eps-start", "2", "--eps-end", "1"],
        ["verify", "--tol", "nan"],
        ["optimize", "--restarts", "0"],
        ["table", "--eps", "4"],
        ["table", "--eps", "1", "--scenario-file", "absent.json"],
        ["frobnicate"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_rejection_through_a_real_process_is_one_line_and_exit_2(argv, tmp_path):
    """`python -m triwitness` takes the same path as `main`: the in-process tests cannot see it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-m", "triwitness", *argv]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("triwitness: error:"), proc.stderr


def library_rejections():
    """One call per input that the CLI rejects, made on the library call that consumes it."""
    s = canonical_w2_scenario()
    for t in (float("nan"), float("inf"), 0.0, -1.0, True):
        yield pytest.param(lambda t=t: run_verify(5, t), id=f"run_verify-tol-{t}")
        yield pytest.param(lambda t=t: find_violation_window("w1", tol=t), id=f"window-tol-{t}")
        yield pytest.param(lambda t=t: OptimizeConfig("w1_ab", tolerance=t), id=f"config-tol-{t}")
    for n in (0, 1, True, 2.0, MAX_STEPS + 1):
        yield pytest.param(lambda n=n: run_verify(n), id=f"run_verify-steps-{n}")
        yield pytest.param(lambda n=n: run_sweep(s, 0.0, np.pi, n), id=f"sweep-steps-{n}")
    for r in ((2.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (0.0, 4.0), (float("nan"), 1.0)):
        yield pytest.param(lambda r=r: run_sweep(s, *r, 3), id=f"sweep-range-{r}")
    yield pytest.param(lambda: OptimizeConfig("w1_ab", restarts=MAX_RESTARTS + 1), id="config-restarts")


@pytest.mark.parametrize("call", library_rejections())
def test_library_rejects_what_the_cli_rejects_before_allocating(call, engine_calls):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert engine_calls["build_tables"] == []


@pytest.mark.parametrize("eps", ["nan", "5", "-1"])
def test_optimize_coupling_outside_zero_to_pi_is_a_usage_error(eps, capsys):
    assert_usage_error(["optimize", "--eps", eps, "--restarts", "1"], capsys, "coupling angle")


@pytest.mark.parametrize("command", ["table", "randomness"])
def test_coupling_outside_zero_to_pi_is_a_usage_error(command, capsys):
    assert_usage_error([command, "--eps", "4"], capsys, "coupling angle")


def test_optimize_negative_seed_is_a_usage_error(capsys):
    assert_usage_error(["optimize", "--seed", "-1", "--restarts", "2"], capsys, "seed must be >= 0")


class Reached(Exception):
    """Raised by a stand-in for a step that a refused request must never reach."""


def reached(*args, **kwargs):
    raise Reached


def test_optimize_restarts_above_the_maximum_is_a_usage_error_before_any_search(monkeypatch, capsys):
    monkeypatch.setattr(explore.np.random, "default_rng", reached)
    monkeypatch.setattr(explore, "minimize", reached)
    assert_usage_error(["optimize", "--restarts", str(MAX_RESTARTS + 1)], capsys, f"at most {MAX_RESTARTS}")
    monkeypatch.setattr(cli, "optimize_settings", reached)  # the maximum itself goes on to the search
    with pytest.raises(Reached):
        main(["optimize", "--restarts", str(MAX_RESTARTS)])


def test_scenario_file_with_nan_preparation_is_a_usage_error(tmp_path, capsys):
    doc = canonical_w2_scenario().to_dict()
    doc["preparations"][0][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes the non-standard NaN literal
    assert_usage_error(["table", "--eps", "1.0", "--scenario-file", str(path)], capsys, "non-finite")


def test_malformed_scenario_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"preparations": [[0, 0, 1]')
    assert_usage_error(["sweep", "--steps", "3", "--scenario-file", str(path)], capsys, "not valid JSON")


def test_missing_scenario_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert_usage_error(["table", "--eps", "1", "--scenario-file", str(path)], capsys, "No such file")


def test_directory_as_scenario_file_is_a_usage_error(tmp_path, capsys):
    assert_usage_error(["sweep", "--steps", "3", "--scenario-file", str(tmp_path)], capsys, str(tmp_path))


def test_cli_import_does_not_load_scipy():
    code = "import sys, triwitness.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_randomness_single_angle(tmp_path):
    out = tmp_path / "rand.csv"
    assert main(["randomness", "--scenario", "w1", "--eps", "0.0", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == [
        "epsilon",
        "hmin_global_exact",
        "hmin_local_bob_exact",
        "hmin_global_bound",
        "h_bob_certified_w1",
        "h_bob_certified_w2",
        "h_charlie_certified",
    ]
    assert len(rows) == 1
    assert abs(float(rows[0]["hmin_global_exact"]) - 0.2284466968) < 1e-9


def test_randomness_grid(tmp_path):
    out = tmp_path / "rand.csv"
    assert main(["randomness", "--steps", "5", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5


def test_table_dump(tmp_path):
    out = tmp_path / "table.json"
    assert main(["table", "--scenario", "w1", "--eps", "0.0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 16
    assert "x=00,y=0,z=0" in doc and "x=11,y=1,z=1" in doc
    cell = doc["x=00,y=0,z=0"]
    assert set(cell) == {"b=+1,c=+1", "b=+1,c=-1", "b=-1,c=+1", "b=-1,c=-1"}
    assert abs(cell["b=+1,c=+1"] - 0.8535533905932738) < 1e-11
    for entry in doc.values():
        assert entry["b=+1,c=-1"] == 0.0
        assert entry["b=-1,c=-1"] == 0.0
        assert abs(sum(entry.values()) - 1.0) < 1e-10


def test_verify_passes_at_default_tolerance(capsys):
    assert main(["verify", "--steps", "11"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    assert "FAIL " not in out


def test_verify_fails_below_machine_precision(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--steps", "11", "--tol", "1e-16", "--out", str(report_path)]) == 1
    report = json.loads(report_path.read_text())
    assert any(not row["pass"] for row in report)
    worst = max(row["abs_error"] for row in report if not row["pass"])
    assert worst < 1e-13  # failures are rounding-level only


def test_verify_endpoints_only():
    assert main(["verify", "--steps", "2"]) == 0


def test_verify_report_schema(tmp_path):
    report_path = tmp_path / "report.json"
    main(["verify", "--steps", "5", "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    for row in report:
        assert set(row) == {"check_name", "epsilon", "expected", "actual", "abs_error", "pass"}


def test_run_verify_report_is_green_by_default():
    report, passed = run_verify(grid_steps=5, tolerance=1e-9)
    assert passed
    names = [row["check_name"] for row in report]
    assert len(names) == len(set(names))
    for kind in ("w1_ab", "w1_ac", "w2_ab", "w2_ac", "w1_ab_z0", "w2_ab_z1"):
        assert f"closed_form[{kind}]" in names


def count_calls(monkeypatch, module, name, counts):
    """Replace module.name with a wrapper that records the calls in counts[name]."""
    original = getattr(module, name)
    counts.setdefault(name, [])

    def counted(*args, **kwargs):
        counts[name].append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of build_tables, build_table and evolve_joint calls, wherever they are bound."""
    from triwitness import channel, cli, explore, scenario

    counts: dict = {}
    for module in (scenario, cli, explore):
        for name in ("build_tables", "build_table"):
            if hasattr(module, name):
                count_calls(monkeypatch, module, name, counts)
    count_calls(monkeypatch, channel, "evolve_joint", counts)
    return counts


def test_sweep_builds_its_grid_in_one_engine_call(engine_calls):
    rows = run_sweep(canonical_w2_scenario(), 0.0, np.pi, 101)
    assert len(rows) == 101
    assert len(engine_calls["build_tables"]) == 1
    assert engine_calls["build_table"] == []


def test_verify_makes_at_most_three_engine_calls(engine_calls):
    _, passed = run_verify(101)
    assert passed
    assert len(engine_calls["build_tables"]) <= 3
    assert engine_calls["evolve_joint"] == []


def test_verify_makes_no_marginal_channel_call(monkeypatch):
    from triwitness import channel

    counts: dict = {}
    modules = [m for n, m in sorted(sys.modules.items()) if n == "triwitness" or n.startswith("triwitness.")]
    for fn in (channel.bob_state, channel.charlie_state):
        for module in modules:
            if getattr(module, fn.__name__, None) is fn:
                count_calls(monkeypatch, module, fn.__name__, counts)
    assert run_verify(101)[1]
    assert counts == {"bob_state": [], "charlie_state": []}
    channel.bob_state(np.eye(2) / 2, [0.0, 0.0, 1.0], 0.5)  # the counter does see a call
    assert len(counts["bob_state"]) == 1


def test_randomness_grid_builds_its_grid_in_one_engine_call(engine_calls, tmp_path):
    assert main(["randomness", "--steps", "11", "--out", str(tmp_path / "r.csv")]) == 0
    assert len(engine_calls["build_tables"]) == 1


@pytest.fixture
def scalar_entropy_calls(monkeypatch):
    """Counts of the one-table entropy functions of the randomness module."""
    from triwitness import randomness

    counts: dict = {}
    for name in ("entropy_report", "hmin_global_exact", "hmin_local_bob_exact", "hmin_global_bound"):
        count_calls(monkeypatch, randomness, name, counts)
    return counts


def test_grid_commands_make_no_scalar_entropy_calls(scalar_entropy_calls, tmp_path):
    assert len(run_sweep(canonical_w2_scenario(), 0.0, np.pi, 101)) == 101
    assert run_verify(101)[1]
    assert main(["randomness", "--steps", "11", "--out", str(tmp_path / "r.csv")]) == 0
    assert main(["randomness", "--eps", "0.5", "--out", str(tmp_path / "p.csv")]) == 0
    assert all(calls == [] for calls in scalar_entropy_calls.values())


@pytest.mark.parametrize("command", ["sweep", "randomness", "verify"])
def test_steps_above_the_maximum_is_a_usage_error_that_allocates_nothing(command, engine_calls, capsys):
    tracemalloc.start()
    try:
        assert_usage_error([command, "--steps", str(10**9)], capsys, f"at most {MAX_STEPS}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert engine_calls["build_tables"] == []
