"""triwitness benchmark: four seeded workloads, measured from outside the package.

    python3 perfbench/run.py --workload {grid,point,search,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a triwitness checkout; the package is imported from
its ``src/``. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer ones; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. Scratch files go to
``.perfbench_work/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid", "point", "search", "cli")
#: Fresh interpreters set up per run; setup_s is their median.
SETUP_REPEATS = 3
#: Cold imports timed per traced run; the import metrics are their median.
IMPORT_REPEATS = 3
#: Candidate tail percentiles above the median, highest first. p99 and above
#: are left out: on a shared host their run-to-run spread (15-23% over ten
#: runs of `point`) reflects other tenants, while p95 spreads by about 5%.
TAIL_LADDER = (95.0, 90.0)
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
PROCESS_TIMEOUT_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The program under test could not be set up or run."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # bytecode is cached as it is for an installed package, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _read_ready(proc: subprocess.Popen, what: str) -> None:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"{what} did not set up: {line.strip()} {(err or '').strip()[-2000:]}")


def _finish(proc: subprocess.Popen, what: str) -> str:
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}: {(err or '').strip()[-2000:]}")
    return out


def time_setup(cmd: list, env: dict, what: str) -> float:
    """Seconds from spawning a fresh interpreter until it prints READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    _read_ready(proc, what)
    elapsed = time.perf_counter() - t0
    _finish(proc, what)
    return elapsed


def import_times(env: dict) -> tuple:
    """(triwitness.cli, scipy) cold import milliseconds from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import triwitness.cli"],
        capture_output=True, text=True, env=env, timeout=PROCESS_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing triwitness.cli failed: {proc.stderr.strip()[-2000:]}")
    rows = []  # (depth, cumulative us, module) in the order printed: children first
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(cum), name.strip()))
    cli_us = sum(cum for depth, cum, name in rows if depth == 0 and name.split(".")[0] == "triwitness")
    scipy_us = 0
    for i, (depth, cum, name) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[2].split(".")[0] != "scipy":
            scipy_us += cum
    return cli_us / 1e3, scipy_us / 1e3


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond it) at the highest ladder percentile
    with at least TAIL_BEYOND samples beyond it (nearest rank); the median
    when only the median has that many."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], p, n - rank
    return statistics.median(xs), 50.0, n // 2


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, env: dict) -> dict:
    work = root / ".perfbench_work"
    worker = [sys.executable, str(HERE / "worker.py"), name, str(seed), repr(seconds)]
    cold_import = [sys.executable, "-c", "import triwitness.cli; print('READY', flush=True)"]
    # compile and cache the bytecode, untimed, so no measured start-up pays for it
    time_setup(cold_import, env, "triwitness")
    out: dict = {}
    if trace:
        imports = [import_times(env) for _ in range(IMPORT_REPEATS)]
        proc = subprocess.Popen([*worker, "trace", str(work)], stdout=subprocess.PIPE, text=True, env=env)
        _read_ready(proc, f"{name} worker")
        res = _worker_result(_finish(proc, f"{name} worker"), root)
        phases = res["phases"]
        untraced = phases["untraced"]["ops"] / phases["untraced"]["busy_s"]
        traced = phases["traced"]["ops"] / phases["traced"]["busy_s"]
        out["metrics"] = dict(
            res["layers"],
            **{
                "cli.import_ms": statistics.median(i[0] for i in imports),
                "cli.import_scipy_ms": statistics.median(i[1] for i in imports),
                "trace.overhead_ratio": traced / untraced,
                "trace.traced_ops_per_s": traced,
                "trace.untraced_ops_per_s": untraced,
            },
        )
    else:
        setup_cmd = cold_import if name == "cli" else [*worker, "setup", str(work)]
        setups = [time_setup(setup_cmd, env, f"{name} set-up") for _ in range(SETUP_REPEATS - (name != "cli"))]
        t0 = time.perf_counter()
        proc = subprocess.Popen([*worker, "run", str(work)], stdout=subprocess.PIPE, text=True, env=env)
        _read_ready(proc, f"{name} worker")
        if name != "cli":
            setups.append(time.perf_counter() - t0)
        res = _worker_result(_finish(proc, f"{name} worker"), root)
        lat = res["latencies"]
        value, pct, beyond = tail(lat)
        out["metrics"] = {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": value * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        out["details"] = {
            "ops_per_s": f"{len(lat)} ops in {sum(lat):.2f} s of operation time",
            "op_tail_ms": f"p{pct:g}, {beyond} of {len(lat)} samples beyond it",
            "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
            "peak_rss_mb": "largest cli child process" if name == "cli" else "workload process",
        }
        by_kind: dict = {}
        for kind, t in zip(res["kinds"], lat):
            by_kind.setdefault(kind, []).append(t)
        out["by_kind"] = {k: (len(v), statistics.median(v) * 1e3) for k, v in sorted(by_kind.items())}
    out["attempted"] = len(res["latencies"])
    out["failed"] = res["failed"]
    out["messages"] = res["messages"]
    out["notes"] = res["notes"]
    out["self_test"] = (res["self_test_kinds"], res["self_test_missed"])
    out["correct"] = res["failed"] == 0 and not res["self_test_missed"] and not res["messages"]
    return out


def _worker_result(stdout: str, root: Path) -> dict:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if not last.startswith("RESULT "):
        raise BenchError(f"worker printed no result: {last[-500:]}")
    res = json.loads(last[len("RESULT "):])
    src = (root / "src").resolve()
    if src not in Path(res.pop("triwitness_file")).resolve().parents:
        raise BenchError(f"triwitness was not imported from {src}")
    if not res["latencies"]:
        raise BenchError("no operation completed")
    return res


def report(name: str, out: dict, units: dict) -> None:
    print(f"[{name}]")
    for metric, value in out["metrics"].items():
        note = out.get("details", {}).get(metric, "")
        print(f"  {metric:<38} {value:>14.6g} {units[metric]:<6} {note}")
    if len(out.get("by_kind", {})) > 1:
        print("  median ms by kind: " + ", ".join(f"{k} {ms:.4g} (n={n})" for k, (n, ms) in out["by_kind"].items()))
    rate = out["failed"] / out["attempted"]
    print(f"  {'error_rate':<38} {rate:>14.6g} {'ratio':<6} {out['failed']} failed of {out['attempted']} attempted")
    kinds, missed = out["self_test"]
    print(f"  self-test: corrupted one result of each of {', '.join(kinds)}; "
          + (f"NOT caught: {', '.join(missed)}" if missed else "every corruption was counted as an error"))
    for msg in out["messages"]:
        print(f"  error: {msg}")
    for note in out["notes"]:
        print(f"  note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="operation time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "triwitness" / "__init__.py").is_file():
        print("perfbench: no src/triwitness here; run from the root of a triwitness checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from tracer import LAYER_METRICS

    units = dict(END_TO_END) if not args.trace else {k: u for k, (u, _) in LAYER_METRICS.items()}
    (root / ".perfbench_work").mkdir(exist_ok=True)
    env = child_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), root, env) for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for n, out in outs.items():
        report(n, out, units)
    print("environment " + json.dumps(environment(root, args.seed)))
    prefix = "{}." if len(names) > 1 else ""
    result = {
        "correct": all(o["correct"] for o in outs.values()),
        "attempted": sum(o["attempted"] for o in outs.values()),
        "failed": sum(o["failed"] for o in outs.values()),
        "metrics": {
            prefix.format(n) + k: {"value": v, "unit": units[k]} for n, out in outs.items() for k, v in out["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
