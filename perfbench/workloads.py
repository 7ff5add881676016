"""Seeded inputs, operations and correctness checks of the four workloads.

A workload is a repeating cycle of operations. Each operation is a `Kind`
(how to run it, how to check its result, how to corrupt a result for the
self-test) plus an input drawn from the workload's seeded generator. The
package only ever sees the generated inputs.

The operations call the library through module attributes
(``scenario.build_table``), so the tracer's patches see them. The checks
use the names bound below at import time, before any patch exists, so
checking a result never shows up in a trace.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from triwitness import cli, explore, randomness, scenario, witness
from triwitness.cli import run_sweep as ref_run_sweep
from triwitness.cli import run_verify as ref_run_verify
from triwitness.explore import OptimizeConfig, Window
from triwitness.explore import find_violation_window as ref_find_violation_window
from triwitness.explore import optimize_settings as ref_optimize_settings
from triwitness.randomness import entropy_report as ref_entropy_report
from triwitness.scenario import ProbTable, Scenario
from triwitness.scenario import build_table as ref_build_table
from triwitness.scenario import canonical_w1_scenario as ref_canonical_w1_scenario
from triwitness.scenario import p_bob_plus_closed_form, p_charlie_plus_closed_form
from triwitness.witness import closed_form as ref_closed_form
from triwitness.witness import w1 as ref_w1

WORKLOADS = ("grid", "point", "search", "cli")

GRID_STEPS = 101
#: Marginals against the Bloch oracle, normalisation and no-signalling.
TABLE_TOL = 1e-12
#: A witness sums eight marginals, so it may carry eight times their error.
WITNESS_TOL = 8 * TABLE_TOL
WINDOW_TOL = 1e-9
SEARCH_TOL = 1e-6
BOUND_TOL = 1e-9
QUBIT_BOUND = {"w1": 2.0 * math.sqrt(2.0), "w2": 1.0}
#: Where the linear pair starts and stops violating together: 2*sqrt(2)*sin^2 = 2
#: and sqrt(2)*(cos + 1) = 2.
W1_WINDOW = (math.asin(2.0 ** -0.25), math.acos(math.sqrt(2.0) - 1.0))
SEARCH_TARGETS = ("w1_ab", "w2_ab", "w1_ac", "w2_ac")
SEARCH_RESTARTS = 16
#: Warm-up inputs come from this fixed seed, so set-up does the same work
#: whatever the workload seed.
WARMUP_SEED = 20171219
#: Added to a result by the self-test; every check must notice it.
CORRUPTION = 1e-9


@dataclass(frozen=True)
class Kind:
    """One type of operation: run it, check it, corrupt its result."""

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], list]  # (input, result) -> error messages
    corrupt: Callable[[Any], Any]
    #: Observations about a correct result worth reporting, such as a search
    #: that stopped on its iteration cap short of the known optimum.
    notes: Callable[[Any, Any], list] = lambda inp, result: []


# -- inputs -----------------------------------------------------------------


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_scenario(rng: np.random.Generator) -> Scenario:
    """Unit axes uniform on the sphere, preparations uniform in the Bloch ball."""
    preparations = [random_unit(rng) * rng.uniform() ** (1.0 / 3.0) for _ in range(4)]
    p0 = rng.uniform()
    return Scenario(
        preparations=preparations,
        bob_axes=[random_unit(rng) for _ in range(2)],
        charlie_axes=[random_unit(rng) for _ in range(2)],
        ancilla_axis=random_unit(rng),
        z_prior=(p0, 1.0 - p0),
    )


def eps_grid() -> list:
    return [float(e) for e in np.linspace(0.0, math.pi, GRID_STEPS)]


# -- checks -----------------------------------------------------------------


def _limit(errors: list, what: str, err: float, tol: float) -> None:
    # written so that NaN fails too
    if not err <= tol:
        errors.append(f"{what}: {err:.3e} > {tol:.0e}")


class Oracle:
    """Marginals of one (scenario, eps) from the library's Bloch closed forms."""

    def __init__(self, s: Scenario, eps: float):
        self.bob = np.array(  # [x, y, z]: p(b = +1 | x, y, z)
            [[[p_bob_plus_closed_form(s, eps, x, y, z) for z in range(2)] for y in range(2)] for x in range(4)]
        )
        self.charlie = np.array(  # [x, z]: p(c = +1 | x, z)
            [[p_charlie_plus_closed_form(s, eps, x, z) for z in range(2)] for x in range(4)]
        )
        self.bob_avg = self.bob @ s.z_prior  # [x, y]

    def witnesses(self) -> dict:
        return {
            "w1_ab": _qrac(self.bob_avg),
            "w1_ac": _qrac(self.charlie),
            "w2_ab": _det(self.bob_avg),
            "w2_ac": _det(self.charlie),
            "w1_ab_z0": _qrac(self.bob[:, :, 0]),
            "w1_ab_z1": _qrac(self.bob[:, :, 1]),
            "w2_ab_z0": _det(self.bob[:, :, 0]),
            "w2_ab_z1": _det(self.bob[:, :, 1]),
        }


#: Sign of p(+1 | x, s) in the linear witness: + iff bit s of x is 0.
_QRAC_SIGNS = np.array([[1 - 2 * ((x >> (1 - s)) & 1) for s in range(2)] for x in range(4)])


def _qrac(p: np.ndarray) -> float:
    return float((_QRAC_SIGNS * p).sum())


def _det(p: np.ndarray) -> float:
    return float((p[0, 0] - p[1, 0]) * (p[2, 1] - p[3, 1]) - (p[2, 0] - p[3, 0]) * (p[0, 1] - p[1, 1]))


def table_errors(oracle: Oracle, table: ProbTable) -> list:
    p = table.probs
    errors: list = []
    _limit(errors, "normalisation", float(np.abs(p.sum(axis=(3, 4)) - 1.0).max()), TABLE_TOL)
    charlie = p[:, 0].sum(axis=2)  # [x, z, c] read at y = 0
    _limit(errors, "no-signalling to Charlie", float(np.abs(charlie - p[:, 1].sum(axis=2)).max()), TABLE_TOL)
    _limit(errors, "Bob marginal vs Bloch oracle", float(np.abs(p.sum(axis=4)[..., 0] - oracle.bob).max()), TABLE_TOL)
    _limit(errors, "Charlie marginal vs Bloch oracle", float(np.abs(charlie[..., 0] - oracle.charlie).max()), TABLE_TOL)
    return errors


def witness_errors(oracle: Oracle, values: dict) -> list:
    expected = oracle.witnesses()
    errors: list = []
    for name, value in values.items():
        _limit(errors, f"{name} vs Bloch oracle", abs(value - expected[name]), WITNESS_TOL)
    return errors


def entropy_errors(oracle: Oracle, table: ProbTable, report) -> list:
    """The two exact min-entropies recomputed from the table and the oracle.

    The factorized `hmin_global_bound` is deliberately not compared with the
    exact value: it exceeds it in a known window of coupling angles, which is
    a defect of the formula that the acceptance suite keeps visible.
    """
    errors: list = []
    exact = max(0.0, -math.log2(float(table.probs.max(axis=(3, 4)).mean())))
    _limit(errors, "hmin_global_exact", abs(report.hmin_global_exact - exact), TABLE_TOL)
    local = max(0.0, -math.log2(float(np.maximum(oracle.bob_avg, 1.0 - oracle.bob_avg).mean())))
    _limit(errors, "hmin_local_bob_exact vs Bloch oracle", abs(report.hmin_local_bob_exact - local), WITNESS_TOL)
    for name in report.__dataclass_fields__:
        value = getattr(report, name)
        if not (math.isfinite(value) and value >= 0.0):
            errors.append(f"{name} = {value} is not a finite nonnegative entropy")
    return errors


def _shift_table(table: ProbTable) -> ProbTable:
    """Move probability between Bob's outcomes in one cell.

    The cell stays normalised and Charlie's marginal is untouched, so only
    the comparison with the Bloch oracle can catch it.
    """
    probs = table.probs.copy()
    cell = probs[0, 0, 0]
    b, c = np.unravel_index(int(cell.argmax()), cell.shape)
    cell[b, c] -= CORRUPTION
    cell[1 - b, c] += CORRUPTION
    return ProbTable(probs=probs, scenario=table.scenario, eps=table.eps)


# -- grid: whole curves -------------------------------------------------------


def _sweep_check(s: Scenario, rows: list) -> list:
    grid = eps_grid()
    if len(rows) != len(grid):
        return [f"sweep has {len(rows)} rows, expected {len(grid)}"]
    errors: list = []
    for eps, row in zip(grid, rows):
        if row["epsilon"] != eps:
            errors.append(f"row epsilon {row['epsilon']} is not the grid point {eps}")
        values = {k: row[k] for k in ("w1_ab", "w1_ac", "w2_ab", "w2_ac", "w1_ab_z0", "w2_ab_z0")}
        errors += [f"eps={eps:.6f}: {e}" for e in witness_errors(Oracle(s, eps), values)]
    return errors


def _sweep_corrupt(rows: list) -> list:
    return [dict(rows[0], w1_ab=rows[0]["w1_ab"] + CORRUPTION)] + rows[1:]


SWEEP = Kind(
    "sweep",
    run=lambda s: cli.run_sweep(s, 0.0, math.pi, GRID_STEPS),
    check=_sweep_check,
    corrupt=_sweep_corrupt,
)


def _entropy_run(s: Scenario) -> list:
    out = []
    for eps in eps_grid():
        table = scenario.build_table(s, eps)
        out.append((table, randomness.entropy_report(table)))
    return out


def _entropy_check(s: Scenario, result: list) -> list:
    errors: list = []
    for eps, (table, report) in zip(eps_grid(), result):
        oracle = Oracle(s, eps)
        errs = table_errors(oracle, table) + entropy_errors(oracle, table, report)
        errors += [f"eps={eps:.6f}: {e}" for e in errs]
    return errors


ENTROPY = Kind(
    "entropy",
    run=_entropy_run,
    check=_entropy_check,
    corrupt=lambda result: [(_shift_table(result[0][0]), result[0][1])] + result[1:],
)

VERIFY = Kind(
    "verify",
    run=lambda _: cli.run_verify(GRID_STEPS, 1e-9),
    check=lambda _, result: [] if result[1] is True else ["run_verify reported a failure"],
    corrupt=lambda result: (result[0], False),
)


def _window_check(kind: str, window: Window) -> list:
    lo, hi = W1_WINDOW if kind == "w1" else (0.0, math.pi)
    tol = WINDOW_TOL if kind == "w1" else 0.0
    errors: list = []
    if window.kind != kind:
        errors.append(f"window kind {window.kind!r}, expected {kind!r}")
    _limit(errors, f"{kind} window start", abs(window.lo - lo), tol)
    _limit(errors, f"{kind} window end", abs(window.hi - hi), tol)
    return errors


def _window_kind(kind: str) -> Kind:
    return Kind(
        f"window_{kind}",
        run=lambda _: explore.find_violation_window(kind, 1e-12),
        check=lambda _, window: _window_check(kind, window),
        corrupt=lambda w: Window(lo=w.lo + 1e-6, hi=w.hi, kind=w.kind),
    )


WINDOW_W1 = _window_kind("w1")
WINDOW_W2 = _window_kind("w2")


# -- point: independent single-angle queries ----------------------------------


def _point_run(inp) -> tuple:
    s, eps = inp
    table = scenario.build_table(s, eps)
    values = {
        "w1_ab": witness.w1(table, "ab").value,
        "w1_ac": witness.w1(table, "ac").value,
        "w2_ab": witness.w2(table, "ab").value,
        "w2_ac": witness.w2(table, "ac").value,
    }
    for z in (0, 1):
        values[f"w1_ab_z{z}"] = witness.w1_given_z(table, z).value
        values[f"w2_ab_z{z}"] = witness.w2_given_z(table, z).value
    return table, values, randomness.entropy_report(table)


def _point_check(inp, result) -> list:
    s, eps = inp
    table, values, report = result
    oracle = Oracle(s, eps)
    return table_errors(oracle, table) + witness_errors(oracle, values) + entropy_errors(oracle, table, report)


POINT = Kind(
    "point",
    run=_point_run,
    check=_point_check,
    corrupt=lambda result: (_shift_table(result[0]),) + result[1:],
)


# -- search: settings optimisation ---------------------------------------------


def _search_shortfall(cfg: OptimizeConfig, result) -> list:
    """How the result falls short of values known to be reachable."""
    kind, pair = cfg.target.split("_")
    canonical = ref_closed_form(cfg.target, cfg.eps)
    short: list = []
    if not result.value >= canonical - SEARCH_TOL:
        short.append(f"value {result.value} below the canonical scenario's {canonical}")
    # with no coupling the AB pair is a plain two-party protocol that reaches the bound
    if cfg.eps == 0.0 and pair == "ab" and not result.value >= QUBIT_BOUND[kind] - SEARCH_TOL:
        short.append(f"value {result.value} misses the qubit bound {QUBIT_BOUND[kind]} at eps = 0")
    return short


def _search_check(cfg: OptimizeConfig, result) -> list:
    """The qubit bound always holds; recovery is required of converged results.

    A result whose best restart stopped on the iteration cap says so
    (``converged`` is False); its shortfall is reported as a note.
    """
    bound = QUBIT_BOUND[cfg.target.split("_")[0]]
    errors = _search_shortfall(cfg, result) if result.converged else []
    if not result.value <= bound + BOUND_TOL:
        errors.append(f"value {result.value} above the qubit bound {bound}")
    if not result.max_evaluated <= bound + BOUND_TOL:
        errors.append(f"max_evaluated {result.max_evaluated} above the qubit bound {bound}")
    return errors


def _search_notes(cfg: OptimizeConfig, result) -> list:
    if result.converged:
        return []
    return [f"stopped on the iteration cap: {m}" for m in _search_shortfall(cfg, result)]


SEARCH = Kind(
    "search",
    run=lambda cfg: explore.optimize_settings(cfg),
    check=_search_check,
    corrupt=lambda r: replace(r, value=max(QUBIT_BOUND.values()) + 1e-3),  # above every qubit bound
    notes=_search_notes,
)


# -- cli: cold processes --------------------------------------------------------


@dataclass(frozen=True)
class CliInput:
    args: tuple  # the command line after ``python -m triwitness``
    scenario: Scenario | None = None
    eps: float | None = None
    seed: int | None = None

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def _round12(v: float) -> float:
    return float(f"{v:.11e}")


def agrees(text: str, value: float) -> bool:
    """True when ``text`` is ``value`` rounded to the digits ``text`` shows."""
    mantissa, _, _ = text.lower().partition("e")
    digits = len(mantissa.partition(".")[2])
    ref = f"{value:.{digits}e}" if "e" in text.lower() else f"{value:.{digits}f}"
    try:
        return float(ref) == float(text)
    except ValueError:
        return False


def _csv_errors(stdout: str, rows: list) -> list:
    lines = stdout.splitlines()
    header = list(rows[0])
    if not lines or lines[0].split(",") != header:
        return ["CSV header differs from the library's columns"]
    if len(lines) != len(rows) + 1:
        return [f"{len(lines) - 1} CSV rows, expected {len(rows)}"]
    errors: list = []
    for i, (line, row) in enumerate(zip(lines[1:], rows)):
        for col, text in zip(header, line.split(",")):
            value = row[col]
            ok = agrees(text, value) if isinstance(value, float) else text == str(value)
            if not ok:
                errors.append(f"row {i} {col}: printed {text}, library {value!r}")
    return errors[:5]


def _json_errors(printed, expected, path: str = "") -> list:
    if isinstance(expected, dict):
        if not isinstance(printed, dict) or set(printed) != set(expected):
            return [f"{path or 'output'}: keys differ from the library's"]
        return [e for k in expected for e in _json_errors(printed[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(printed, list) or len(printed) != len(expected):
            return [f"{path}: list differs in length"]
        return [e for i, (p, q) in enumerate(zip(printed, expected)) for e in _json_errors(p, q, f"{path}[{i}]")]
    if isinstance(expected, float) and not isinstance(printed, bool):
        # numbers are printed rounded to 12 digits, scenario vectors in full
        ok = printed in (expected, _round12(expected))
    else:
        ok = printed == expected and type(printed) is type(expected)
    return [] if ok else [f"{path}: printed {printed!r}, library {expected!r}"]


def _expected_table(inp: CliInput) -> dict:
    table = ref_build_table(inp.scenario, inp.eps)
    labels = ("+1", "-1")
    return {
        f"x={x >> 1}{x & 1},y={y},z={z}": {
            f"b={labels[b]},c={labels[c]}": float(table.probs[x, y, z, b, c]) for b in range(2) for c in range(2)
        }
        for x in range(4)
        for y in range(2)
        for z in range(2)
    }


def _expected_randomness(inp: CliInput) -> list:
    report = ref_entropy_report(ref_build_table(inp.scenario, inp.eps))
    return [{"epsilon": inp.eps, **{k: getattr(report, k) for k in report.__dataclass_fields__}}]


def _expected_thresholds(_: CliInput) -> list:
    window = ref_find_violation_window("w1", 1e-12)
    mid = 0.5 * (window.lo + window.hi)
    table = ref_build_table(ref_canonical_w1_scenario(), mid)
    return [
        {
            "kind": window.kind,
            "lo": window.lo,
            "hi": window.hi,
            "midpoint": mid,
            "value_ab_mid": ref_w1(table, "ab").value,
            "value_ac_mid": ref_w1(table, "ac").value,
        }
    ]


def _expected_optimize(inp: CliInput) -> dict:
    cfg = OptimizeConfig(target="w1_ab", eps=0.0, restarts=4, seed=inp.seed)
    r = ref_optimize_settings(cfg)
    return {
        "target": cfg.target,
        "epsilon": cfg.eps,
        "seed": cfg.seed,
        "restarts": cfg.restarts,
        "value": r.value,
        "converged": r.converged,
        "restart_index": r.restart_index,
        "evaluations": r.evaluations,
        "max_evaluated": r.max_evaluated,
        "scenario": r.scenario.to_dict(),
    }


_VERIFY_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+\|err\|=(\S+)\s+eps=(\S+)$")


def _verify_errors(stdout: str, expected) -> list:
    report, passed = expected
    lines = stdout.splitlines()
    if len(lines) != len(report) + 1:
        return [f"{len(lines)} lines, expected {len(report) + 1}"]
    errors: list = []
    for line, row in zip(lines, report):
        m = _VERIFY_LINE.match(line)
        if not m:
            errors.append(f"unparsable line {line!r}")
            continue
        status, name, err, eps = m.groups()
        if (status == "PASS") != row["pass"] or name != row["check_name"]:
            errors.append(f"{name}: {status}, library {row['check_name']} pass={row['pass']}")
        if not (agrees(err, row["abs_error"]) and agrees(eps, row["epsilon"])):
            errors.append(f"{name}: printed |err|={err} eps={eps}, library {row['abs_error']} {row['epsilon']}")
    n_pass = sum(r["pass"] for r in report)
    summary = f"{'OK' if passed else 'FAILED'}: {n_pass}/{len(report)} checks passed"
    if not lines[-1].startswith(summary):
        errors.append(f"summary {lines[-1]!r}, expected {summary!r}")
    return errors


class CliChecker:
    """Compares a command's output with the same request made in-process.

    Requests without seeded inputs (``thresholds``, ``verify``) are
    computed once and reused.
    """

    def __init__(self):
        self._fixed: dict = {}

    def _fixed_result(self, name: str, fn):
        if name not in self._fixed:
            self._fixed[name] = fn()
        return self._fixed[name]

    def __call__(self, inp: CliInput, result: CliResult) -> list:
        if result.returncode != 0:
            return [f"exit code {result.returncode}: {result.stderr.strip()[-200:]}"]
        out = result.stdout
        try:
            if inp.command == "table":
                return _json_errors(json.loads(out), _expected_table(inp))
            if inp.command == "randomness":
                return _csv_errors(out, _expected_randomness(inp))
            if inp.command == "sweep":
                return _csv_errors(out, ref_run_sweep(inp.scenario, 0.0, math.pi, GRID_STEPS))
            if inp.command == "thresholds":
                return _csv_errors(out, self._fixed_result("thresholds", lambda: _expected_thresholds(inp)))
            if inp.command == "optimize":
                return _json_errors(json.loads(out), _expected_optimize(inp))
            if inp.command == "verify":
                return _verify_errors(out, self._fixed_result("verify", lambda: ref_run_verify(GRID_STEPS, 1e-9)))
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        raise ValueError(f"unknown command {inp.command!r}")


_NUMBER = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")


def _bump_first_number(result: CliResult) -> CliResult:
    """Change the last printed digit of the first decimal number."""
    m = _NUMBER.search(result.stdout)
    if m is None:
        return replace(result, returncode=1)
    token = m.group(0)
    i = max(j for j, ch in enumerate(token.partition("e")[0]) if ch.isdigit())
    bumped = token[:i] + str((int(token[i]) + 1) % 10) + token[i + 1 :]
    return replace(result, stdout=result.stdout[: m.start()] + bumped + result.stdout[m.end() :])


class CliRunner:
    """Runs one command line in a fresh interpreter: spawn to exit is the op.

    ``launcher`` is the argv prefix that starts the CLI; the trace run
    swaps it for one that also records spans.
    """

    def __init__(self, launcher: list, env: dict):
        self.launcher = launcher
        self.env = env

    def __call__(self, inp: CliInput) -> CliResult:
        proc = subprocess.run(
            [*self.launcher, *inp.args], capture_output=True, text=True, env=self.env, timeout=120, check=False
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)


# -- workloads --------------------------------------------------------------------


class Workload:
    """A seeded, endless sequence of cycles of (Kind, input) pairs."""

    def __init__(self, name: str, seed: int, workdir: Path, env: dict):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.workdir = workdir
        if name == "grid":
            kinds = (SWEEP, ENTROPY, VERIFY, WINDOW_W1, WINDOW_W2)
            self._grid_order = [kinds[i] for i in self.rng.permutation(len(kinds))]
        if name == "cli":
            self.runner = CliRunner([sys.executable, "-m", "triwitness"], env)
            checker = CliChecker()
            self._cli_kinds = {
                cmd: Kind(cmd, run=self.runner, check=checker, corrupt=_bump_first_number)
                for cmd in ("table", "randomness", "sweep", "thresholds", "optimize", "verify")
            }

    def warmup(self):
        """A fixed operation run once, untimed, during set-up; None for cli."""
        rng = np.random.default_rng(WARMUP_SEED)
        if self.name == "grid":
            return SWEEP, random_scenario(rng)
        if self.name == "point":
            return POINT, (random_scenario(rng), float(rng.uniform(0.0, math.pi)))
        if self.name == "search":
            return SEARCH, OptimizeConfig(target="w1_ab", eps=0.5, restarts=SEARCH_RESTARTS, seed=0)
        return None

    def cycle(self, c: int) -> list:
        rng = self.rng
        if self.name == "grid":
            return [(k, random_scenario(rng) if k in (SWEEP, ENTROPY) else None) for k in self._grid_order]
        if self.name == "point":
            return [(POINT, (random_scenario(rng), float(rng.uniform(0.0, math.pi))))]
        if self.name == "search":
            # one request in four allows mixed states and one runs at eps = 0;
            # both positions rotate so every target gets each over four cycles
            return [
                (
                    SEARCH,
                    OptimizeConfig(
                        target=target,
                        eps=0.0 if i == (c + 2) % 4 else float(rng.uniform(0.0, math.pi)),
                        restarts=SEARCH_RESTARTS,
                        seed=int(rng.integers(2**31)),
                        allow_mixed=i == c % 4,
                    ),
                )
                for i, target in enumerate(SEARCH_TARGETS)
            ]
        s = random_scenario(rng)
        eps = float(rng.uniform(0.0, math.pi))
        path = self.workdir / "scenario.json"
        s.save(path)
        file_args = ("--scenario-file", str(path))
        seed = int(rng.integers(2**31))
        inputs = [
            CliInput(("table", *file_args, "--eps", repr(eps)), s, eps),
            CliInput(("randomness", *file_args, "--eps", repr(eps)), s, eps),
            CliInput(("sweep", "--steps", str(GRID_STEPS), *file_args), s),
            CliInput(("thresholds",)),
            CliInput(("optimize", "--restarts", "4", "--seed", str(seed)), seed=seed),
            CliInput(("verify", "--steps", str(GRID_STEPS))),
        ]
        return [(self._cli_kinds[inp.command], inp) for inp in inputs]
