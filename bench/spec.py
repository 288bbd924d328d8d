"""Workload definitions, output checks and the machine-speed reference.

This module does not import the package, so the orchestrator can use it
before it knows the package exists.  Every input a run uses is generated
here from the workload seed with a benchmark-owned generator, never with the
package's own seed derivation.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

PROTOCOLS = ("sqka", "sqkd", "cdssqc-ghz", "cdssqc-switch", "sqd")
ATTACKS = ("none", "cnot", "intercept-resend", "measure-resend")
WORKLOADS = ("sweep-n8", "complete-n100", "cli")

# ROADMAP "Recent" baseline cells (n=8, 3n decoys), reported per workload.
BASELINE_CELLS = (
    ("sqka", "none"),
    ("sqka", "cnot"),
    ("cdssqc-ghz", "none"),
    ("cdssqc-switch", "none"),
    ("sqd", "none"),
)

# Per-decoy mismatch of each attack in its analysed setting (detection_model's p).
PER_DECOY_MISMATCH = {"intercept-resend": 0.75, "measure-resend": 0.5}


@dataclass(frozen=True)
class Cell:
    """One protocol x attack setting, as the CLI would be asked for it."""

    protocol: str
    attack: str
    n: int
    m: int
    threshold: float
    commitments: bool
    permutation: bool

    @property
    def key(self) -> str:
        return f"{self.protocol}.{self.attack}" + ("" if self.permutation else ".nopi")

    def cli_args(self, seed: int) -> list[str]:
        return [
            "--protocol", self.protocol,
            "--n", str(self.n),
            "--m", str(self.m),
            "--attack", self.attack,
            "--seed", str(seed),
            "--threshold", repr(self.threshold),
            "--permutation", "on" if self.permutation else "off",
            "--commitments", "on" if self.commitments else "off",
        ]


@dataclass(frozen=True)
class Invocation:
    """One CLI argument list, the cell it runs and the sessions it costs."""

    argv: tuple[str, ...]
    cell: Cell
    sessions: int
    fmt: str  # "transcript", "json" or "csv"


def sweep_cell(protocol: str, attack: str, n: int = 8) -> Cell:
    """CLI defaults: 3n decoys, detection, permutation and commitments on."""
    return Cell(protocol, attack, n, 3 * n, 0.0, True, True)


def complete_cell(protocol: str, attack: str, permutation: bool = True, n: int = 100) -> Cell:
    """Detection disabled, so every session runs every stage."""
    return Cell(protocol, attack, n, 3 * n, 1.0, False, permutation)


def mc_cells(workload: str, n: int | None = None) -> list[Cell]:
    """The cells a Monte Carlo workload runs through ``run_trials``."""
    if workload == "sweep-n8":
        return [sweep_cell(p, a, n or 8) for p in PROTOCOLS for a in ATTACKS]
    if workload == "complete-n100":
        cells = [complete_cell(p, a, n=n or 100) for p in PROTOCOLS for a in ATTACKS]
        return cells + [
            complete_cell("sqka", "cnot", False, n or 100),
            complete_cell("sqkd", "cnot", False, n or 100),
            complete_cell("sqka", "intercept-resend", False, n or 100),
        ]
    if workload == "cli":
        return []
    raise ValueError(f"unknown workload {workload!r}")


# The attack each protocol's attacked CLI transcript uses.
CLI_ATTACK = {
    "sqka": "cnot",
    "sqkd": "intercept-resend",
    "cdssqc-ghz": "measure-resend",
    "cdssqc-switch": "intercept-resend",
    "sqd": "cnot",
}


def _seeds(workload: str, seed: int, stream: str) -> random.Random:
    # str seeding is a SHA-512 of the text, so it ignores PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{stream}")


def cli_invocations(workload: str, seed: int) -> list[Invocation]:
    """The CLI argument lists a workload runs, each in a fresh process.

    ``cli``: single-session transcripts of every protocol at n=8 and n=100,
    with and without an attack, plus small CSV and JSON stats batches.
    Monte Carlo workloads: one transcript per cell of the workload.
    """
    rng = _seeds(workload, seed, "cli")
    out: list[Invocation] = []

    def add(cell: Cell, trials: int, fmt: str) -> None:
        argv = cell.cli_args(rng.randrange(1 << 63))
        if trials > 1:
            argv += ["--trials", str(trials), "--format", fmt]
        out.append(Invocation(tuple(argv), cell, trials, fmt))

    if workload == "cli":
        for p in PROTOCOLS:
            for n in (8, 100):
                for a in ("none", CLI_ATTACK[p]):
                    add(sweep_cell(p, a, n), 1, "transcript")
        add(sweep_cell("sqka", "none"), 20, "csv")
        add(sweep_cell("cdssqc-switch", "measure-resend"), 20, "csv")
        add(sweep_cell("sqd", "none"), 20, "json")
        add(sweep_cell("cdssqc-ghz", "intercept-resend"), 20, "json")
    else:
        for cell in mc_cells(workload):
            add(cell, 1, "transcript")
    return out


def seed_stream(workload: str, seed: int, stream: str, cells: int):
    """Endless rounds of master seeds, one per run_trials call of a round."""
    rng = _seeds(workload, seed, stream)
    while True:
        yield [rng.randrange(1 << 63) for _ in range(cells)]


def warmup_seed(workload: str, seed: int) -> int:
    return _seeds(workload, seed, "warmup").randrange(1 << 63)


# ---------------------------------------------------------------------------
# output checks


class Ledger:
    """Attempted and failed operations, failures counted by cause.

    An operation is a session (Monte Carlo) or an invocation (CLI).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.causes: dict[str, int] = {}

    def fail(self, cause: str, count: int = 1) -> None:
        self.failed += count
        self.causes[cause] = self.causes.get(cause, 0) + count

    def add(self, tally: dict) -> None:
        """Take over another process's ``to_dict``."""
        self.attempted += tally["attempted"]
        for cause, count in tally["causes"].items():
            self.fail(cause, count)

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "causes": dict(self.causes)}


def band(p: float, total: int) -> float:
    """Acceptance half-width around an exact rate p observed over ``total`` draws.

    Eight binomial standard deviations plus 0.02: a correct program leaves it
    with negligible probability on any seed.  At the 192 to 300 draws of one
    run_trials call it is about a quarter wide, so a call catches gross
    breakage such as an attack that no longer disturbs the decoys.
    """
    return 8.0 * math.sqrt(p * (1.0 - p) / total) + 0.02


def check_stats(cell: Cell, stats: dict) -> list[str]:
    """Names of the output checks ``stats`` (a TrialStats dict) fails.

    Rates are compared only where their denominator is known to be nonempty
    from the cell's setting, so a 0.0 printed for an empty rate (such as
    ``eve_accuracy`` on an honest cell) is never read as a measurement.
    """
    failed: list[str] = []
    completed = stats["trials"] - stats["failures"]
    if completed <= 0:
        return failed

    def need(name: str, ok: bool) -> None:
        if not ok:
            failed.append(name)

    if cell.attack == "none":
        need("honest.abort_rate", stats["abort_rate"] == 0.0)
        need("honest.key_match_rate", stats["key_match_rate"] == 1.0)
        need("honest.decoy_mismatch", stats["decoy_detection_rate"] == 0.0)
    if cell.attack == "cnot" and not cell.permutation:
        need("probe.decoy_mismatch", stats["decoy_detection_rate"] == 0.0)
        need("probe.eve_accuracy", stats["eve_accuracy"] == 1.0)
    if cell.protocol in ("sqka", "sqkd") and cell.permutation and cell.attack in PER_DECOY_MISMATCH:
        p = PER_DECOY_MISMATCH[cell.attack]
        decoys = cell.m * completed
        need("detection.decoy_rate", abs(stats["decoy_detection_rate"] - p) <= band(p, decoys))
    if cell.protocol == "sqka" and cell.attack == "intercept-resend" and not cell.permutation:
        bits = cell.n * completed
        need("ir.identification", abs(stats["eve_position_id_rate"] - 0.75) <= band(0.75, bits))
        if stats["abort_rate"] == 0.0:
            damage = 1.0 - stats["key_match_rate"]
            need("ir.key_damage", abs(damage - 0.25) <= band(0.25, bits))
    return failed


# ---------------------------------------------------------------------------
# machine speed

# The host's speed drifts by a third over tens of seconds (other tenants on
# shared cores), and not all code slows alike.  Each timed sample is
# therefore taken next to a probe of its own kind, on the same CPU, and
# scaled to the probe's nominal time (about its time on an unloaded 2-vCPU
# Intel Xeon VM).  Monte Carlo rounds slow in step, to within a few percent,
# with a loop of session-like work (small dicts, sorting, tiny numpy
# arrays); CLI processes and set-ups slow in step with starting a bare
# interpreter that imports a few stdlib modules, where any in-process loop
# drifts from them by 20% in a slow spell.  No probe runs package code.
SESSION_LOOP_NOMINAL_S = 0.0054
PROCESS_PROBE = ("-c", "import argparse, csv, json")
PROCESS_PROBE_NOMINAL_S = 0.055
_AMPLITUDES = [0.5, 0.5, 0.5, 0.5]


def session_loop_seconds() -> float:
    """Wall time of a session-like loop: the speed probe for Monte Carlo rounds."""
    start = time.perf_counter()
    for _ in range(1000):
        labels = {f"q{j}": (j, 2 * j) for j in range(8)}
        order = sorted(labels, key=lambda k: -labels[k][0])
        amps = np.asarray(_AMPLITUDES, dtype=complex).reshape(2, 2).T.reshape(-1)
        float(np.vdot(amps, amps).real) + len(order)
    return time.perf_counter() - start


def to_nominal(seconds: float, measured: float, nominal: float) -> float:
    """A wall time taken next to a probe that ran ``measured`` seconds,
    rescaled to the speed at which the probe runs ``nominal`` seconds."""
    return seconds * nominal / measured


# ---------------------------------------------------------------------------
# summaries


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated as ``statistics.quantiles`` does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
