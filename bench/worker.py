"""Monte Carlo half of a benchmark run, in its own single-threaded process.

Usage (started by ``run.py``, not by hand)::

    python3 bench/worker.py --workload sweep-n8 --seed 1 --mode measure --seconds 20

Modes:

* ``setup``: set up (imports, configs, one warm-up session per cell), print
  the time set-up ended and exit.
* ``measure``: set up, then call ``analysis.run_trials`` round after round
  for ``--seconds``; each round runs every cell of the workload once and
  is reported with the session loop time around it (``spec``).
* ``trace``: set up, then run a fixed block of cells ``--reps`` times, each
  call with the light and then the full tracer installed, and once more
  under tracemalloc; print the tracer aggregates.

The last stdout line is one JSON object.  An exception escaping
``run_trials`` is counted by class name and the run goes on.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import tracemalloc

import spec
from semiquantum import analysis
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.protocols import CdssqcConfig, CdssqcVariant, SqdConfig, SqkaConfig
from tracer import Tracer

# Sessions per run_trials call in one round (measure) and in the trace block.
MEASURE_TRIALS = {"sweep-n8": 8, "complete-n100": 1}
TRACE_TRIALS = {"sweep-n8": 4, "complete-n100": 1}
SPANS_KEPT = 50_000


def session_config(cell: spec.Cell):
    """The package's config record for a cell, built through the public API."""
    common = dict(
        n=cell.n,
        m=cell.m,
        attack=AttackStrategy(kind=AttackKind(cell.attack)),
        threshold=cell.threshold,
        permutation_enabled=cell.permutation,
    )
    if cell.protocol in ("sqka", "sqkd"):
        return SqkaConfig(commitments_enabled=cell.commitments, protocol=cell.protocol, **common)
    if cell.protocol == "cdssqc-ghz":
        return CdssqcConfig(variant=CdssqcVariant.GHZ_LIKE, **common)
    if cell.protocol == "cdssqc-switch":
        return CdssqcConfig(variant=CdssqcVariant.SWITCH, **common)
    return SqdConfig(**common)


def serialization_ok(stats) -> bool:
    """JSON and CSV stats of one batch parse back to the same figures."""
    doc = analysis.parse_stats(analysis.emit_stats(stats, "json"), "json")
    row = analysis.parse_stats(analysis.emit_stats(stats, "csv"), "csv")
    expected = stats.to_dict()
    return all(doc[k] == v for k, v in expected.items()) and all(
        row[k] == expected[k] for k in ("protocol", "attack", "n", "m", "trials")
    )


def checked_run_trials(ledger: spec.Ledger, cell: spec.Cell, template, trials: int, seed: int):
    """One run_trials call, checked and tallied; returns (stats or None, seconds).

    The package's functions are looked up on their module at each call, so
    an installed tracer's wrappers are the ones called.
    """
    ledger.attempted += trials
    start = time.perf_counter()
    try:
        stats = analysis.run_trials(template, trials, seed)
    except Exception as exc:  # boundary: count the cause and keep running
        elapsed = time.perf_counter() - start
        print(f"{cell.key}: {traceback.format_exc(limit=3)}", file=sys.stderr)
        ledger.fail(type(exc).__name__, trials)
        return None, elapsed
    elapsed = time.perf_counter() - start
    if stats.failures:
        ledger.fail("session_failures", stats.failures)
    problems = spec.check_stats(cell, stats.to_dict())
    if not serialization_ok(stats):
        problems.append("stats_roundtrip")
    for name in problems:
        print(f"{cell.key}: check {name} failed: {stats.to_dict()}", file=sys.stderr)
    if problems:
        ledger.fail(f"check:{problems[0]}", trials - stats.failures)
    return stats, elapsed


def set_up(workload: str, seed: int):
    """Imports, config build and one warm-up session per cell."""
    cells = spec.mc_cells(workload)
    templates = [session_config(c) for c in cells]
    warm = spec.warmup_seed(workload, seed)
    for template in templates:
        analysis.run_trials(template, 1, warm)
    spec.session_loop_seconds()  # first call pays one-time costs
    return cells, templates


def measure(workload: str, seed: int, seconds: float, cells, templates) -> dict:
    trials = MEASURE_TRIALS[workload]
    ledger = spec.Ledger()
    seeds = spec.seed_stream(workload, seed, "mc", len(cells))
    rounds = []
    deadline = time.perf_counter() + seconds
    before = spec.session_loop_seconds()
    while not rounds or time.perf_counter() < deadline:
        sessions, elapsed = 0, 0.0
        for cell, template, s in zip(cells, templates, next(seeds)):
            _, dt = checked_run_trials(ledger, cell, template, trials, s)
            sessions += trials
            elapsed += dt
        after = spec.session_loop_seconds()
        rounds.append([sessions, elapsed, (before + after) / 2])
        before = after
    return {"rounds": rounds, **ledger.to_dict()}


def trace(workload: str, seed: int, reps: int, mem: bool, spans_path: str | None, cells, templates) -> dict:
    trials = TRACE_TRIALS[workload]
    block = next(spec.seed_stream(workload, seed, "trace", len(cells)))
    ledger = spec.Ledger()
    tracers = {"light": Tracer(), "full": Tracer(SPANS_KEPT if spans_path else 0)}
    work = {"light": 0.0, "full": 0.0}
    results: dict[str, list] = {"light": [], "full": []}
    loops = [spec.session_loop_seconds()]
    for _ in range(reps):
        # each call light then full, so a drift in machine speed hits both
        for cell, template, s in zip(cells, templates, block):
            for mode, tracer in tracers.items():
                tracer.install(mode)
                try:
                    tracer.cell = cell.key
                    stats, dt = checked_run_trials(ledger, cell, template, trials, s)
                finally:
                    tracer.uninstall()
                work[mode] += dt
                results[mode].append(stats)
    loops.append(spec.session_loop_seconds())
    out = {mode: t.snapshot() for mode, t in tracers.items()}
    out["work"] = work
    out["session_loop_s"] = sum(loops) / len(loops)
    if spans_path:
        with open(spans_path, "w") as fh:
            for span in tracers["full"].spans:
                fh.write(json.dumps(span) + "\n")
    if mem:
        peak = 0
        for i, (template, s) in enumerate(zip(templates, block)):
            tracemalloc.start()
            try:
                stats = analysis.run_trials(template, trials, s)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            # the wrappers must leave every result bit-identical
            if any(results[mode][i] != stats for mode in results):
                ledger.fail("check:trace_changed_result", trials)
        out["peak_kib"] = peak / 1024
    out.update(ledger.to_dict())
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sweep-n8", "complete-n100"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--mem", action="store_true")
    p.add_argument("--spans", default=None, help="write the full-mode spans here (JSON lines)")
    args = p.parse_args(argv)

    cells, templates = set_up(args.workload, args.seed)
    ready = time.perf_counter()
    if args.mode == "setup":
        out = {}
    elif args.mode == "measure":
        out = measure(args.workload, args.seed, args.seconds, cells, templates)
    else:
        out = trace(args.workload, args.seed, args.reps, args.mem, args.spans, cells, templates)
    out["ready"] = ready
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
