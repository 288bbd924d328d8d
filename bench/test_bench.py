"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

from semiquantum import analysis, protocols, qsim, rng  # noqa: E402


@pytest.mark.parametrize("workload", ["sweep-n8", "complete-n100"])
def test_tiny_monte_carlo_run_passes_its_checks(workload):
    cells, templates = worker.set_up(workload, 3)
    ledger = spec.Ledger()
    seeds = next(spec.seed_stream(workload, 3, "mc", len(cells)))
    for cell, template, seed in zip(cells, templates, seeds):
        stats, elapsed = worker.checked_run_trials(ledger, cell, template, 1, seed)
        assert stats is not None and elapsed > 0
    assert (ledger.attempted, ledger.failed) == (len(cells), 0)


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_tiny_cli_slice_passes_its_checks(workload):
    invs = spec.cli_invocations(workload, 3)
    batches = [inv for inv in invs if inv.fmt != "transcript"]
    subset = [inv for inv in invs if inv.cell.n == 8][:2] + batches[:2]
    ledger = spec.Ledger()
    out = run.run_cli(subset, ledger, passes=2)
    assert len(out["times"]) == 2 * len(subset)
    assert (ledger.attempted, ledger.failed) == (2 * len(subset), 0), ledger.causes


def test_checks_flag_wrong_rates_and_skip_empty_ones():
    honest = spec.sweep_cell("sqka", "none")
    ok = {"trials": 10, "failures": 0, "abort_rate": 0.0, "key_match_rate": 1.0,
          "eve_accuracy": 0.0, "eve_position_id_rate": 0.0, "decoy_detection_rate": 0.0}
    assert spec.check_stats(honest, ok) == []  # eve_accuracy 0.0 has no denominator here
    assert spec.check_stats(honest, dict(ok, key_match_rate=0.99)) == ["honest.key_match_rate"]
    ir = spec.complete_cell("sqkd", "intercept-resend")
    assert spec.check_stats(ir, dict(ok, decoy_detection_rate=0.74)) == []
    assert spec.check_stats(ir, dict(ok, decoy_detection_rate=0.5)) == ["detection.decoy_rate"]
    assert spec.check_stats(ir, dict(ok, failures=10, decoy_detection_rate=0.5)) == []


def _counts(snapshot):
    return (
        {name: entry[0] for name, entry in snapshot["stats"].items()},
        snapshot["party_ops"],
        snapshot["max_qubits"],
        [(cell, completed, events) for cell, _, completed, events in snapshot["sessions"]],
    )


def test_traced_counts_repeat_for_a_seed():
    cells, templates = worker.set_up("sweep-n8", 5)
    first = worker.trace("sweep-n8", 5, 1, False, None, cells, templates)
    second = worker.trace("sweep-n8", 5, 1, False, None, cells, templates)
    for mode in ("light", "full"):
        assert _counts(first[mode]) == _counts(second[mode])
    assert first["failed"] == 0
    assert first["full"]["selfsum_error"] < 1e-9
    assert len(first["full"]["sessions"]) == len(cells) * worker.TRACE_TRIALS["sweep-n8"]


@pytest.mark.parametrize("cell", [
    spec.sweep_cell("sqka", "intercept-resend", 4),
    spec.sweep_cell("cdssqc-ghz", "cnot", 4),
    spec.complete_cell("sqd", "measure-resend", n=4),
    spec.complete_cell("cdssqc-switch", "intercept-resend", n=4),
])
def test_wrappers_leave_run_trials_bit_identical(cell):
    template = worker.session_config(cell)
    untraced = analysis.run_trials(template, 6, 99)
    for mode in ("light", "full"):
        tracer = Tracer(keep_spans=100).install(mode)
        try:
            assert analysis.run_trials(template, 6, 99) == untraced
        finally:
            tracer.uninstall()
        assert tracer.stats["protocols.run_session"][0] == 6


def test_uninstall_restores_every_binding():
    before = (qsim.measure_z, qsim.StateVector.__init__, rng.derive_seed, analysis.derive_seed,
              analysis.run_session, protocols.run_sqka)
    tracer = Tracer().install("full")
    assert analysis.run_session is not before[4]
    tracer.uninstall()
    after = (qsim.measure_z, qsim.StateVector.__init__, rng.derive_seed, analysis.derive_seed,
             analysis.run_session, protocols.run_sqka)
    assert all(a is b for a, b in zip(before, after))


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
