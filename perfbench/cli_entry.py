"""Run the triwitness CLI in this process and time ``main(argv)``.

    cli_entry.py REPORT TRACED -- ARGS...

Behaves like ``python -m triwitness ARGS...`` (same stdout, same exit
code) and writes REPORT, an .npz holding ``main_s``, the wall time of
``main(argv)``. With TRACED = 1 every layer is traced and REPORT also holds
the spans, with one root span around ``main``.
"""

import sys
import time

import tracer as tr


def main() -> int:
    report, traced, sep, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    if sep != "--":
        raise SystemExit("usage: cli_entry.py REPORT TRACED -- ARGS...")
    import triwitness.cli as cli

    tracer = tr.Tracer()
    if traced:
        tracer.install()
    t0 = time.perf_counter()
    try:
        code = tracer.op(lambda a: cli.main(a), argv) if traced else cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
        sys.stdout.flush()
    tracer.save(report, main_s=main_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
