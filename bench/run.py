#!/usr/bin/env python3
"""Benchmark of the semiquantum package: Monte Carlo throughput, CLI wall time
and, in a separate traced run, a per-layer split.

Usage, from any directory of a checkout::

    python3 bench/run.py --workload sweep-n8 --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory): ``sweep-n8``, ``complete-n100``
and ``cli``.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics, measured with no wrappers installed; with ``--trace 1``
it carries the per-layer metrics.  Times are scaled to nominal machine
speed with a probe timed next to every sample (see ``spec.py``).
Every child process is started with one BLAS thread, a fixed
``PYTHONHASHSEED``, no ``SEMIQ_SEED`` and the checkout's ``src`` as its only
``PYTHONPATH``; one runs at a time, on the same CPU as this process.
Details of each run (samples, unscaled figures, failures by cause, machine)
are written to ``bench/out``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spec
from tracer import ATTACK_HOOKS, PARTIES, PARTY_OPS, QSIM_FUNCTIONS, RUNNERS, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CHILD_TIMEOUT = 150  # seconds; a run must end within 180
SETUP_SAMPLES = 5
CLI_MIN_SAMPLES = 110  # leaves at least ten cli invocations above p90
MC_CLI_PASSES = 2  # passes over a Monte Carlo workload's CLI slice
MC_MIN_SHARE = 1 / 3  # least share of --seconds left to run_trials

END_TO_END = (
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("cli_ms_p50", "ms"),
    ("cli_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    names = []
    for fn in QSIM_FUNCTIONS:
        names += [(f"qsim.{fn}.calls_per_session", "count"), (f"qsim.{fn}.ns_per_call", "ns")]
    names += [
        ("qsim.statevectors_per_session", "count"),
        ("qsim.statevector_init_ns", "ns"),
        ("qsim.self_ms_per_session", "ms"),
        ("qsim.max_register_qubits", "qubits"),
        ("qsim.bank.self_ms_per_session", "ms"),
        ("qsim.bank.merges_per_session", "count"),
        ("rng.generators_per_session", "count"),
        ("rng.generator_init_ns", "ns"),
        ("rng.draws_per_session", "count"),
        ("rng.draws_per_generator", "ratio"),
        ("rng.self_ms_per_session", "ms"),
    ]
    names += [(f"parties.ops_per_session.{p}", "count") for p in PARTIES]
    names += [
        ("parties.self_ns_per_op", "ns"),
        ("parties.self_ms_per_session", "ms"),
        ("parties.commit_ns", "ns"),
        ("parties.random_permutation_us", "us"),
    ]
    names += [(f"adversary.{h}.self_ms_per_session", "ms") for h in ATTACK_HOOKS]
    names += [("protocols.session_ms_p50", "ms"), ("protocols.session_ms_p99", "ms")]
    names += [(f"protocols.{r}.ms_per_session", "ms") for r in RUNNERS]
    names += [(f"protocols.cell.{p}.{a}.ms_per_session", "ms") for p, a in spec.BASELINE_CELLS]
    names += [
        ("protocols.self_ms_per_session", "ms"),
        ("protocols.completed_share", "share"),
        ("protocols.transcript_events_per_session", "count"),
        ("analysis.trial_record_ns", "ns"),
        ("analysis.aggregate_ms", "ms"),
        ("analysis.run_trials.peak_kib", "KiB"),
        ("analysis.emit_transcript_ms", "ms"),
        ("analysis.transcript_bytes", "bytes"),
        ("analysis.emit_stats_us", "us"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("cli.parse_args_us", "us"),
        ("cli.run_ms", "ms"),
        ("cli.write_us", "us"),
        ("trace.overhead_x", "x"),
        ("trace.untraced_share", "share"),
        ("failed_rate", "share"),
    ]
    return tuple(names)


PER_LAYER = _per_layer()
TIME_UNITS = ("ms", "us", "ns")
LAYER_PREFIXES = ("qsim.bank.", "qsim.", "rng.", "parties.", "adversary.", "protocols.", "analysis.")


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


# ---------------------------------------------------------------------------
# child processes


ENV = {k: v for k, v in os.environ.items() if k not in ("SEMIQ_SEED", "PYTHONPATH")} | {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(SRC),
}


def spawn(args: list[str]) -> tuple[float, float, subprocess.CompletedProcess, float]:
    """Run ``python3 ARGS`` to completion, right after a process probe.

    Returns its start, wall seconds, the process, and the probe's seconds
    (``spec.PROCESS_PROBE``, started the same way).
    """
    probe_start = time.perf_counter()
    subprocess.run([sys.executable, *spec.PROCESS_PROBE], cwd=ROOT, env=ENV, capture_output=True,
                   timeout=CHILD_TIMEOUT, check=True)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=ENV, capture_output=True, timeout=CHILD_TIMEOUT
    )
    return start, time.perf_counter() - start, proc, start - probe_start


def worker(workload: str, seed: int, *args: str) -> tuple[float, dict, float]:
    """Run bench/worker.py; (start, its JSON result, process probe seconds)."""
    cmd = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), *args]
    start, _, proc, probe = spawn(cmd)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    sys.stderr.write(proc.stderr.decode())
    return start, json.loads(proc.stdout.decode().splitlines()[-1]), probe


# ---------------------------------------------------------------------------
# the CLI slice


def cli_problem(inv: spec.Invocation, proc: subprocess.CompletedProcess, first: bytes) -> str | None:
    """Why one CLI invocation's output is wrong, or None."""
    from semiquantum.analysis import parse_stats, parse_transcript

    if proc.returncode != 0:
        return f"cli_exit_{proc.returncode}"
    if proc.stdout != first:
        return "check:cli_not_byte_identical"
    try:
        if inv.fmt == "transcript":
            doc = parse_transcript(proc.stdout)
            if doc["protocol"] != inv.cell.protocol:
                return "check:cli_transcript_protocol"
            if inv.cell.attack == "none" and doc["aborted"]:
                return "check:honest.transcript_aborted"
        else:
            doc = parse_stats(proc.stdout, inv.fmt)
            if inv.fmt == "json":
                problems = spec.check_stats(inv.cell, doc)
                if problems:
                    return f"check:{problems[0]}"
    except (ValueError, KeyError) as exc:
        return f"check:cli_parse:{type(exc).__name__}"
    return None


def run_cli(invs, ledger: spec.Ledger, passes: int, seconds: float = 0.0, min_samples: int = 0) -> dict:
    """Run the invocations pass after pass, untraced, each in a fresh process."""
    times: list[float] = []
    probes: list[float] = []
    sessions = 0
    first: dict[int, bytes] = {}
    deadline = time.perf_counter() + seconds
    done = 0
    while done < passes or time.perf_counter() < deadline or len(times) < min_samples:
        for i, inv in enumerate(invs):
            _, elapsed, proc, probe = spawn(["-m", "semiquantum.cli", *inv.argv])
            times.append(elapsed)
            probes.append(probe)
            sessions += inv.sessions
            ledger.attempted += 1
            problem = cli_problem(inv, proc, first.setdefault(i, proc.stdout))
            if problem:
                print(f"{' '.join(inv.argv)}: {problem}: {proc.stderr.decode()[-500:]}", file=sys.stderr)
                ledger.fail(problem)
        done += 1
    return {"times": times, "probes": probes, "sessions": sessions}


def run_cli_traced(invs, ledger: spec.Ledger, reps: int, modes: tuple[str, ...], mem: bool) -> dict:
    """Each invocation through bench/clitrace.py once per mode, ``reps`` times.

    With ``mem``, the stats batches run once more under tracemalloc.
    """
    reports: dict[str, list] = {"light": [], "full": [], "mem": []}
    for rep in range(reps):
        for inv in invs:
            first = None
            extra = ("mem",) if mem and not rep and inv.fmt != "transcript" else ()
            for mode in modes + extra:
                start, _, proc, probe = spawn(
                    [str(BENCH / "clitrace.py"), mode, inv.cell.key, "--", *inv.argv])
                ledger.attempted += 1
                first = proc.stdout if first is None else first
                problem = cli_problem(inv, proc, first)
                if problem:
                    ledger.fail(problem)
                    continue
                report = json.loads(proc.stderr.decode().splitlines()[-1])
                report["interpreter_s"] = report["entered"] - start
                report["probe_s"] = probe
                reports[mode].append(report)
    return reports


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """One set-up in a fresh process: (seconds to ready, process probe seconds)."""
    if workload == "cli":
        code = "import time, semiquantum.cli; print(time.perf_counter())"
        start, _, proc, probe = spawn(["-c", code])
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.decode()[-2000:]}")
        return float(proc.stdout) - start, probe
    start, out, probe = worker(workload, seed, "--mode", "setup")
    return out["ready"] - start, probe


def process_nominal(seconds: float, measured: float) -> float:
    return spec.to_nominal(seconds, measured, spec.PROCESS_PROBE_NOMINAL_S)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, spec.Ledger, dict]:
    """End-to-end metrics, every time scaled to nominal machine speed."""
    ledger = spec.Ledger()
    invs = spec.cli_invocations(workload, seed)
    rounds: list[list] = []
    setup = [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES)]
    if workload == "cli":
        cli = run_cli(invs, ledger, 2, seconds, CLI_MIN_SAMPLES)
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        started = time.perf_counter()
        cli = run_cli(invs, ledger, MC_CLI_PASSES)
        mc_seconds = max(seconds - (time.perf_counter() - started), seconds * MC_MIN_SHARE)
        _, out, _ = worker(workload, seed, "--mode", "measure", "--seconds", repr(mc_seconds))
        ledger.add(out)
        rounds = out["rounds"]
        rss_kib = out["maxrss_kib"]
    cli_s = [process_nominal(t, r) for t, r in zip(cli["times"], cli["probes"])]
    if rounds:
        throughput = statistics.median(
            n / spec.to_nominal(t, r, spec.SESSION_LOOP_NOMINAL_S) for n, t, r in rounds)
    else:
        throughput = cli["sessions"] / sum(cli_s)
    cli_ms = [t * 1e3 for t in cli_s]
    metrics = {
        "setup_s": statistics.median(process_nominal(t, r) for t, r in setup),
        "sessions_per_s": throughput,
        "cli_ms_p50": statistics.median(cli_ms),
        "cli_ms_p90": spec.percentile(cli_ms, 90),
        "peak_rss_mb": rss_kib / 1024,
    }
    samples = {
        "setup_s_and_probe_s": setup,
        "rounds_sessions_s_loop_s": rounds,
        "cli_s": cli["times"],
        "cli_probe_s": cli["probes"],
        "cli_above_p90": sum(1 for t in cli_ms if t > metrics["cli_ms_p90"]),
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setup),
            "sessions_per_s": statistics.median(n / t for n, t, _ in rounds) if rounds
            else cli["sessions"] / sum(cli["times"]),
            "cli_ms_p50": statistics.median(cli["times"]) * 1e3,
        },
    }
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, ledger, samples


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, spec.Ledger, dict]:
    """Repeat a fixed block of work with the tracer installed.

    Monte Carlo workloads trace their run_trials calls in the worker and
    time the stages of their CLI slice; the cli workload traces the sessions
    inside its CLI invocations.  Whole repetitions only, so every count per
    session repeats exactly for a given seed.
    """
    ledger = spec.Ledger()
    invs = spec.cli_invocations(workload, seed)
    OUT.mkdir(exist_ok=True)
    modes = ("light", "full") if workload == "cli" else ("light",)
    snaps: dict[str, list] = {"light": [], "full": []}
    work = {"light": 0.0, "full": 0.0}
    peak_kib = 0.0
    reports: dict[str, list] = {"light": [], "full": [], "mem": []}
    session_loops: list[float] = []
    started = time.perf_counter()
    reps, total_reps = 1, 0
    while reps:
        if workload != "cli":
            args = ["--mode", "trace", "--reps", str(reps)]
            if not total_reps:
                args += ["--mem", "--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
            _, out, _ = worker(workload, seed, *args)
            session_loops.append(out["session_loop_s"])
            ledger.add(out)
            for mode in snaps:
                snaps[mode].append(out[mode])
                work[mode] += out["work"][mode]
            peak_kib = max(peak_kib, out.get("peak_kib", 0.0))
        for mode, items in run_cli_traced(invs, ledger, reps, modes, mem=not total_reps).items():
            reports[mode].extend(items)
        total_reps += reps
        elapsed = time.perf_counter() - started
        reps = max(0, math.floor((seconds - elapsed) / (elapsed / total_reps)))
    cli_light = [r["trace"] for r in reports["light"]]
    if workload == "cli":
        snaps = {mode: [r["trace"] for r in reports[mode]] for mode in snaps}
        work = {mode: sum(r["run_s"] for r in reports[mode]) for mode in work}
        peak_kib = max(r["peak_kib"] for r in reports["mem"])
    light, full = merge(snaps["light"]), merge(snaps["full"])
    io = merge(snaps["light"] + (cli_light if workload != "cli" else []))
    if full["selfsum_error"] > 1e-9:
        ledger.fail("check:trace_selfsum")
    n = spec.mc_cells(workload)[0].n if workload != "cli" else 8
    metrics = layer_metrics(light, full, io, reports["light"], work, peak_kib, commit_ns(n), ledger)
    if workload == "cli":
        probes = [r["probe_s"] for mode in reports for r in reports[mode]]
        scale = process_nominal(1.0, statistics.median(probes))
    else:
        scale = spec.to_nominal(1.0, statistics.median(session_loops), spec.SESSION_LOOP_NOMINAL_S)
    metrics = {k: (v * scale if unit in TIME_UNITS else v, unit) for k, (v, unit) in metrics.items()}
    samples = {"repetitions": total_reps, "sessions_full": len(full["sessions"]),
               "time_scale": scale,
               "invocations": len(reports["light"]), "work_s": work,
               "selfsum_error": full["selfsum_error"]}
    return metrics, ledger, samples


def commit_ns(n: int, calls: int = 2000) -> float:
    """ns per ``parties.commit`` of an n-bit key, timed in isolation.

    Timed apart from the sessions because complete-n100 runs with
    commitments off, and a per-layer time must be measured on every workload.
    """
    from semiquantum.parties import commit
    from semiquantum.rng import RandomSource

    rng = RandomSource(n)
    bits = rng.bits(n)
    start = time.perf_counter()
    for _ in range(calls):
        commit(bits, rng)
    return (time.perf_counter() - start) / calls * 1e9


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(light: dict, full: dict, io: dict, stages: list[dict], work: dict,
                  peak_kib: float, commit_ns: float, ledger: spec.Ledger) -> dict:
    """Per-layer metrics from merged tracer aggregates.

    Counts and self times come from the full-mode sessions; wall times per
    session or per call of coarse callables come from the light mode, whose
    overhead is small; serialization comes from ``io``, the light mode of
    every process.  Layer metrics are per session, cli ones per invocation.
    """

    def calls(name, snap=full):
        return snap["stats"].get(name, [0, 0.0, 0.0])[0]

    def total(name, snap=full):
        return snap["stats"].get(name, [0, 0.0, 0.0])[1]

    def per_call(name, scale, snap=full):
        return _ratio(total(name, snap), calls(name, snap)) * scale

    def self_time(layer):
        return sum(v[2] for k, v in full["stats"].items() if _layer(k) == layer)

    sessions = calls("protocols.run_session")
    m: dict[str, float] = {}
    for fn in QSIM_FUNCTIONS:
        m[f"qsim.{fn}.calls_per_session"] = _ratio(calls(f"qsim.{fn}"), sessions)
        m[f"qsim.{fn}.ns_per_call"] = per_call(f"qsim.{fn}", 1e9)
    m["qsim.statevectors_per_session"] = _ratio(calls("qsim.StateVector"), sessions)
    m["qsim.statevector_init_ns"] = per_call("qsim.StateVector", 1e9)
    m["qsim.self_ms_per_session"] = _ratio(self_time("qsim."), sessions) * 1e3
    m["qsim.max_register_qubits"] = full["max_qubits"]
    m["qsim.bank.self_ms_per_session"] = _ratio(self_time("qsim.bank."), sessions) * 1e3
    m["qsim.bank.merges_per_session"] = _ratio(calls("qsim.merge_registers"), sessions)

    generators = calls("rng.RandomSource")
    draws = sum(v[0] for k, v in full["stats"].items() if k.startswith("rng.")
                and k not in ("rng.RandomSource", "rng.derive_seed"))
    m["rng.generators_per_session"] = _ratio(generators, sessions)
    m["rng.generator_init_ns"] = per_call("rng.RandomSource", 1e9)
    m["rng.draws_per_session"] = _ratio(draws, sessions)
    m["rng.draws_per_generator"] = _ratio(draws, generators)
    m["rng.self_ms_per_session"] = _ratio(self_time("rng."), sessions) * 1e3

    ops = sum(full["party_ops"].values())
    op_self = sum(v[2] for k, v in full["stats"].items()
                  if k.startswith("parties.") and k.split(".")[1] in PARTY_OPS)
    for party in PARTIES:
        m[f"parties.ops_per_session.{party}"] = _ratio(full["party_ops"].get(party, 0), sessions)
    m["parties.self_ns_per_op"] = _ratio(op_self, ops) * 1e9
    m["parties.self_ms_per_session"] = _ratio(self_time("parties."), sessions) * 1e3
    m["parties.commit_ns"] = commit_ns
    m["parties.random_permutation_us"] = per_call("parties.random_permutation", 1e6)
    for hook in ATTACK_HOOKS:
        own = full["stats"].get(f"adversary.{hook}", [0, 0.0, 0.0])[2]
        m[f"adversary.{hook}.self_ms_per_session"] = _ratio(own, sessions) * 1e3

    light_ms = [s[1] * 1e3 for s in light["sessions"]]
    m["protocols.session_ms_p50"] = statistics.median(light_ms) if light_ms else 0.0
    m["protocols.session_ms_p99"] = spec.percentile(light_ms, 99) if light_ms else 0.0
    for runner in RUNNERS:
        m[f"protocols.{runner}.ms_per_session"] = per_call(f"protocols.{runner}", 1e3, light)
    for protocol, attack in spec.BASELINE_CELLS:
        cell = [s[1] for s in light["sessions"] if s[0] == f"{protocol}.{attack}"]
        m[f"protocols.cell.{protocol}.{attack}.ms_per_session"] = _ratio(sum(cell), len(cell)) * 1e3
    m["protocols.self_ms_per_session"] = _ratio(self_time("protocols."), sessions) * 1e3
    m["protocols.completed_share"] = _ratio(sum(s[2] for s in light["sessions"]), len(light["sessions"]))
    m["protocols.transcript_events_per_session"] = _ratio(
        sum(s[3] for s in light["sessions"]), len(light["sessions"]))

    m["analysis.trial_record_ns"] = per_call("analysis.trial_record", 1e9, light)
    m["analysis.aggregate_ms"] = per_call("analysis.aggregate_records", 1e3, light)
    m["analysis.run_trials.peak_kib"] = peak_kib
    m["analysis.emit_transcript_ms"] = per_call("analysis.emit_transcript", 1e3, io)
    m["analysis.transcript_bytes"] = _ratio(io["transcript_bytes"], calls("analysis.emit_transcript", io))
    m["analysis.emit_stats_us"] = per_call("analysis.emit_stats", 1e6, io)

    def stage(key, scale):
        return _ratio(sum(r[key] for r in stages), len(stages)) * scale

    m["cli.interpreter_ms"] = stage("interpreter_s", 1e3)
    m["cli.import_ms"] = stage("import_s", 1e3)
    m["cli.parse_args_us"] = stage("parse_args_s", 1e6)
    m["cli.run_ms"] = stage("run_s", 1e3)
    m["cli.write_us"] = stage("write_s", 1e6)
    m["trace.overhead_x"] = _ratio(work["full"], work["light"])
    m["trace.untraced_share"] = _ratio(self_time("protocols."), total("protocols.run_session"))
    m["failed_rate"] = _ratio(ledger.failed, ledger.attempted)
    return {name: (m[name], unit) for name, unit in PER_LAYER}



def _layer(span_name: str) -> str:
    return next(p for p in LAYER_PREFIXES if span_name.startswith(p))


# ---------------------------------------------------------------------------
# records


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True)
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="semiquantum benchmark")
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "semiquantum" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'semiquantum'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and every child it starts, so each probe
    # runs on the CPU whose speed it stands for
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    try:
        run = traced if args.trace else measure
        metrics, ledger, samples = run(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **machine(), "cpu_pinned": cpu, "causes": ledger.causes, "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("# run", json.dumps({k: record[k] for k in ("workload", "seed", "commit", "python", "numpy", "cpu", "nproc")}))
    print("# failures by cause", json.dumps(ledger.causes))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
