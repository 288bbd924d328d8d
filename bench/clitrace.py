"""One CLI invocation with its stages timed, for the traced run.

Usage (started by ``run.py``): ``python3 bench/clitrace.py MODE CELL -- ARGS...``
where MODE is ``light`` or ``full`` (tracer installed) or ``mem``
(tracemalloc around ``analysis.run_trials``) and ARGS are the arguments of
``semiquantum``.  It does what ``semiquantum.cli.main`` does on a valid
argument list: ``parse_args``, ``run``, write the payload to stdout.  The
stage timings and tracer aggregates go to stderr as one JSON line.
"""
import time

entered = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402


def main() -> int:
    mode, cell, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: clitrace.py MODE CELL -- ARGS...")
    start = time.perf_counter()
    import semiquantum.cli as cli

    imported = time.perf_counter()
    report = {"entered": entered, "import_s": imported - start}
    tracer = None
    if mode == "mem":
        report["peak_kib"] = 0.0
        run_trials = cli.analysis.run_trials

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return run_trials(*args, **kwargs)
            finally:
                report["peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
                tracemalloc.stop()

        cli.analysis.run_trials = measured
    else:
        from tracer import Tracer

        tracer = Tracer().install(mode)
        tracer.cell = cell
    t0 = time.perf_counter()
    cfg = cli.parse_args(argv)
    t1 = time.perf_counter()
    payload = cli.run(cfg)
    t2 = time.perf_counter()
    sys.stdout.write(payload.decode())
    sys.stdout.flush()
    t3 = time.perf_counter()
    report.update(parse_args_s=t1 - t0, run_s=t2 - t1, write_s=t3 - t2)
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.snapshot()
    print(json.dumps(report), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
