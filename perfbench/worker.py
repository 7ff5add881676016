"""One workload in a fresh interpreter; started by run.py, never by hand.

    worker.py WORKLOAD SEED SECONDS MODE WORKDIR

MODE is ``setup`` (set up, print READY, exit), ``run`` (set up, then the
closed loop) or ``trace`` (set up, an untraced half and a traced half).
Set-up is everything before READY: imports, input generation and one
untimed warm-up operation. The result is the last stdout line, prefixed
with RESULT.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tr
import workloads as wl

#: At most this many failure messages travel back to run.py.
MAX_MESSAGES = 5


class Loop:
    """Closed loop, one caller: the next operation starts when the last ends.

    Runs whole cycles until ``seconds`` of operation time have passed, so
    every run holds the same mix of operation kinds. Checking a result
    happens between operations and is not timed.
    """

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.cycle = 0
        self.latencies: list = []
        self.kinds: list = []  # kind name of each latency
        self.failed = 0
        self.messages: list = []
        self.notes: list = []
        self.last: dict = {}  # kind name -> (kind, input, result) for the self-test

    def run(self, seconds: float, op=None) -> tuple:
        """Returns (operations, busy seconds) of this call."""
        n0, busy = len(self.latencies), 0.0
        while busy < seconds:
            for kind, inp in self.workload.cycle(self.cycle):
                t0 = time.perf_counter()
                try:
                    result = op(kind.run, inp) if op else kind.run(inp)
                except Exception as exc:  # counted as a failed operation
                    result, errors = None, [f"raised {exc!r}"]
                dt = time.perf_counter() - t0
                if result is not None:
                    errors = kind.check(inp, result)
                    self.notes += [f"{kind.name}: {n}" for n in kind.notes(inp, result)]
                    self.last[kind.name] = (kind, inp, result)
                self.latencies.append(dt)
                self.kinds.append(kind.name)
                busy += dt
                if errors:
                    self.failed += 1
                    if len(self.messages) < MAX_MESSAGES:
                        self.messages.append(f"{kind.name}: {'; '.join(errors[:3])}")
            self.cycle += 1
        return len(self.latencies) - n0, busy

    def self_test(self) -> list:
        """Corrupt the last result of each kind; its check must reject it."""
        return [name for name, (kind, inp, result) in self.last.items() if not kind.check(inp, kind.corrupt(result))]


def _cli_launcher(workdir: Path, traced: bool) -> list:
    entry = Path(__file__).with_name("cli_entry.py")
    return [sys.executable, str(entry), str(workdir / "cli_op.npz"), "1" if traced else "0", "--"]


def _traced_cli(loop: Loop, workdir: Path, seconds: float) -> tuple:
    """cli trace: both halves go through cli_entry.py, which times main()."""
    runner = loop.workload.runner
    report = workdir / "cli_op.npz"
    out = {}
    for phase, traced in (("untraced", False), ("traced", True)):
        runner.launcher = _cli_launcher(workdir, traced)
        parts, overhead, out_bytes = [], [], 0

        def op(run, inp):
            t0 = time.perf_counter()
            result = run(inp)
            wall = time.perf_counter() - t0
            with np.load(report) as z:
                overhead.append(wall - float(z["main_s"]))
                if traced:
                    parts.append({k: z[k] for k in ("names", "name", "parent", "start", "end", "success")})
            nonlocal out_bytes
            out_bytes += len(result.stdout.encode())
            return result

        n, busy = loop.run(seconds / 2.0, op)
        out[phase] = {"ops": n, "busy_s": busy, "overhead_s": overhead, "output_bytes": out_bytes}
        if traced:
            spans = tr.merge(parts)
    np.savez(workdir / "spans-cli.npz", **spans)
    metrics = tr.layer_metrics(spans)
    metrics["cli.process_overhead_ms"] = float(np.mean(out["untraced"]["overhead_s"]) * 1e3)
    metrics["cli.output_bytes_per_op"] = out["untraced"]["output_bytes"] / out["untraced"]["ops"]
    return out, metrics


def _traced_in_process(loop: Loop, workdir: Path, seconds: float) -> tuple:
    out = {}
    n, busy = loop.run(seconds / 2.0)
    out["untraced"] = {"ops": n, "busy_s": busy}
    tracer = tr.Tracer()
    evaluations = 0  # OptimizeResult.evaluations summed over the traced searches

    def op(run, inp):
        nonlocal evaluations
        result = tracer.op(run, inp)
        evaluations += getattr(result, "evaluations", 0)
        return result

    tracer.install()
    try:
        n, busy = loop.run(seconds / 2.0, op)
    finally:
        tracer.uninstall()
    out["traced"] = {"ops": n, "busy_s": busy}
    spans = tracer.spans()
    np.savez(workdir / f"spans-{loop.workload.name}.npz", **spans)
    metrics = tr.layer_metrics(spans)
    if evaluations != round(metrics["explore.objective.evals_per_op"] * n):
        loop.messages.append(f"tracer saw {metrics['explore.objective.evals_per_op'] * n:.0f} objective calls, "
                             f"the optimizer reported {evaluations}")
    metrics["explore.objective.evals_per_op"] = evaluations / n
    metrics["cli.process_overhead_ms"] = 0.0
    metrics["cli.output_bytes_per_op"] = 0.0
    return out, metrics


def main(argv: list) -> int:
    name, seed, seconds, mode, workdir = argv[0], int(argv[1]), float(argv[2]), argv[3], Path(argv[4])
    workload = wl.Workload(name, seed, workdir, dict(os.environ))
    warmup = workload.warmup()
    warmup_errors = []
    if warmup is not None:
        kind, inp = warmup
        warmup_errors = [f"warm-up {kind.name}: {e}" for e in kind.check(inp, kind.run(inp))][:MAX_MESSAGES]
    print("READY", flush=True)
    if mode == "setup":
        return 0

    loop = Loop(workload)
    result: dict = {}
    if mode == "run":
        loop.run(seconds)
    elif name == "cli":
        result["phases"], result["layers"] = _traced_cli(loop, workdir, seconds)
    else:
        result["phases"], result["layers"] = _traced_in_process(loop, workdir, seconds)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result.update(
        latencies=loop.latencies,
        kinds=loop.kinds,
        failed=loop.failed,
        messages=warmup_errors + loop.messages,
        notes=loop.notes,
        self_test_missed=loop.self_test(),
        self_test_kinds=sorted(loop.last),
        peak_rss_kb=resource.getrusage(who).ru_maxrss,
        triwitness_file=wl.scenario.__file__,
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
