"""Monte Carlo driver, detection statistics, qubit-efficiency accounting,
stats serialization, and the one reader of transcripts and stats.  Stats
JSON goes through the transcript's writer, ``protocols.common.json_text``,
and stats CSV is a plain join, so no CLI run loads ``json`` or ``csv``;
``emit_transcript`` and ``TRANSCRIPT_SCHEMA`` are re-exported here.

Efficiency is eta = c / (q + b): message bits over transmitted qubits
(message-carrying plus decoy) plus non-check classical bits.  The cost
coefficients for the four protocols are fixed data; for the switch variant
the exact ratio is 1/21 (~4.76%) while the commonly quoted figure is
4.72% — the reports carry that discrepancy explicitly rather than
papering over it.
"""
from __future__ import annotations

import math
from operator import eq

from .adversary import AttackKind
from .errors import SemiQuantumError, UnknownAttack
from .protocols import (  # the transcript's writer and schema, re-exported
    TRANSCRIPT_SCHEMA, SessionConfig, SessionOutcome, emit_transcript, run_session,
)
from .protocols.common import json_text
from .records import Record, fields, replace
from .rng import derive_seed

STATS_SCHEMA = "semiquantum.stats/1"
Z99 = 2.5758293035489004  # two-sided 99% normal quantile

CSV_COLUMNS = (
    "protocol",
    "attack",
    "n",
    "m",
    "trials",
    "abort_rate",
    "key_match_rate",
    "eve_accuracy",
    "eve_position_id_rate",
    "eta",
)


# ---------------------------------------------------------------------------
# qubit efficiency


class ProtocolCostRow(Record):
    """Per-protocol cost coefficients, all linear in the message length n."""

    protocol: str
    c: int
    q_c: int
    d: int
    b: int

    @property
    def q(self) -> int:
        return self.q_c + self.d

    def efficiency(self) -> Fraction:
        from fractions import Fraction  # here, off a transcript run's imports

        return Fraction(self.c, self.q + self.b)


TABLE3: dict[str, ProtocolCostRow] = {
    "sqka": ProtocolCostRow("sqka", c=1, q_c=2, d=3, b=5),
    "cdssqc-ghz": ProtocolCostRow("cdssqc-ghz", c=1, q_c=4, d=13, b=8),
    "cdssqc-switch": ProtocolCostRow("cdssqc-switch", c=1, q_c=3, d=10, b=8),
    "sqd": ProtocolCostRow("sqd", c=2, q_c=2, d=3, b=5),
}
# The reduction runs the same channel as sqka, so it shares the cost row.
TABLE3["sqkd"] = replace(TABLE3["sqka"], protocol="sqkd")

# Quoted switch-variant efficiency vs the exact coefficient ratio; reports
# flag the difference instead of asserting the quoted number.
SWITCH_ETA_QUOTED = 0.0472
SWITCH_ETA_NOTE = (
    "switch-variant efficiency is reported as the exact ratio 1/21 (~4.76%); "
    "the commonly quoted 4.72% does not match the cost coefficients"
)


def efficiency_report(protocol: str) -> dict:
    row = TABLE3[protocol]
    eta = row.efficiency()
    report = {
        "protocol": protocol,
        "c": row.c,
        "q_c": row.q_c,
        "d": row.d,
        "q": row.q,
        "b": row.b,
        "eta_exact": [eta.numerator, eta.denominator],
        "eta": float(eta),
    }
    if protocol == "cdssqc-switch":
        report["eta_quoted"] = SWITCH_ETA_QUOTED
        report["discrepancy"] = SWITCH_ETA_NOTE
    return report


# ---------------------------------------------------------------------------
# closed-form detection companion


_PER_DECOY_MISMATCH = {
    AttackKind.INTERCEPT_RESEND: 0.75,
    AttackKind.MEASURE_RESEND: 0.5,
    AttackKind.CNOT: 0.0,
}


def detection_model(attack: AttackKind, m: int) -> float:
    """Predicted abort probability 1-(1-p)^m with the per-decoy mismatch p.

    p refers to each attack in its analyzed setting: intercept-resend under
    the default secret permutation, measure-resend on any leg, and the
    entangle-probe attack on reflected qubits with matched pairing (where it
    is trace-free).  Intercept-resend's 3/4 is the limit as n+m grows: on
    sqka with the permutation on, a decoy that the permutation leaves on its
    own wire always trips, so the exact per-decoy mismatch is
    3/4 + 1/(4(n+m)).
    """
    if attack not in _PER_DECOY_MISMATCH:
        raise UnknownAttack(f"no per-decoy mismatch probability for {attack!r}")
    if m < 0:
        raise ValueError("decoy count must be nonnegative")
    p = _PER_DECOY_MISMATCH[attack]
    return 1.0 - (1.0 - p) ** m


# ---------------------------------------------------------------------------
# Monte Carlo driver


class TrialStats(Record):
    """Aggregated session statistics with 99% binomial half-widths."""

    protocol: str
    attack: str
    n: int
    m: int
    trials: int
    failures: int
    abort_rate: float
    key_match_rate: float
    eve_accuracy: float
    eve_position_id_rate: float
    decoy_detection_rate: float
    halfwidth99: dict[str, float]

    def to_dict(self) -> dict:
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**row, "halfwidth99": dict(self.halfwidth99), "eta": float(TABLE3[self.protocol].efficiency())}


# Each rate's hits and total keys in a trial record.
_RATES = {
    "abort_rate": ("aborts", "completed"),
    "key_match_rate": ("match_hits", "match_total"),
    "eve_accuracy": ("acc_sum", "acc_total"),
    "eve_position_id_rate": ("id_hits", "id_total"),
    "decoy_detection_rate": ("decoy_bad", "decoy_total"),
}


def _halfwidth(successes: float, total: float) -> float:
    if total <= 0:
        return 0.0
    p = successes / total
    return Z99 * math.sqrt(max(p * (1.0 - p), 0.0) / total)


def trial_record(out: SessionOutcome | None) -> dict[str, float]:
    """Exact per-session counts (a commutative-monoid element for the fold).

    Every value is an integer or a multiple of 0.5, so summation is exact
    and the aggregate does not depend on fold order.
    """
    if out is None:
        return {"failures": 1}
    rec = {
        "completed": 1,
        "aborts": int(out.aborted),
        "decoy_bad": out.details.get("decoy_mismatches", 0),
        "decoy_total": out.details.get("decoy_checked", 0),
    }
    match = out.details.get("match_bits")
    if match is not None:
        expected, actual = match
        rec["match_total"] = len(expected)
        rec["match_hits"] = sum(map(eq, expected, actual))
    if out.eve_inferences is not None:
        truth = out.details.get("eve_truth")
        if truth is not None and len(truth) == len(out.eve_inferences):
            rec["acc_total"] = len(truth)
            # 1 for each inference that matches, 0.5 for each she could not make
            guesses = out.eve_inferences
            rec["acc_sum"] = sum(map(eq, guesses, truth)) + 0.5 * guesses.count(None)
    cls = out.details.get("eve_wire_classifications")
    if cls:
        wires = out.details.get("encoded_wires", [])
        rec["id_total"] = len(wires)
        rec["id_hits"] = list(map(cls.get, wires)).count("measured")
    return rec


def aggregate_records(
    template: SessionConfig, trials: int, records: list[dict[str, float]]
) -> TrialStats:
    """Fold per-session records into TrialStats; order-independent."""
    tot: dict[str, float] = {}
    for rec in records:
        for key, value in rec.items():
            tot[key] = tot.get(key, 0) + value

    rates, halfwidths = {}, {}
    for name, (hits, total) in _RATES.items():
        h, t = tot.get(hits, 0), tot.get(total, 0)
        rates[name] = h / t if t else 0.0
        halfwidths[name] = _halfwidth(h, t)
    return TrialStats(
        protocol=template.protocol,
        attack=template.attack.kind.value,
        n=template.n,
        m=template.decoy_count(),
        trials=trials,
        failures=int(tot.get("failures", 0)),
        halfwidth99=halfwidths,
        **rates,
    )


def reseeded(config: SessionConfig, seed: int) -> SessionConfig:
    """``config`` with another seed; no rule reads the seed, so it is not checked again."""
    copy = object.__new__(type(config))
    copy.__dict__.update(config.__dict__, seed=seed)
    return copy


def run_trials(template: SessionConfig, trials: int, master_seed: int) -> TrialStats:
    """Run independent sessions with derived per-trial seeds and aggregate.

    Identical (template, trials, master_seed) gives bit-identical stats;
    per-trial seeds make the sessions independent of execution order, and
    the record fold is commutative, so a parallel schedule would produce the
    same result.  Records are summed as they arrive, so memory does not grow
    with ``trials``.  Session errors are counted, not raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    total: dict[str, float] = {}
    for t in range(trials):
        try:
            rec = trial_record(run_session(reseeded(template, derive_seed(master_seed, t))))
        except SemiQuantumError:
            rec = trial_record(None)
        for key, value in rec.items():
            total[key] = total.get(key, 0) + value
    return aggregate_records(template, trials, [total])


# ---------------------------------------------------------------------------
# serialization


def _read_json(data: bytes, schema: str) -> dict:
    """The JSON object in ``data``; ``ValueError`` unless it carries ``schema``."""
    import json  # here, off the imports of a CLI run, which writes JSON but reads none

    doc = json.loads(data.decode())
    if type(doc) is not dict:
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != schema:
        raise ValueError(f"unexpected schema {doc.get('schema')!r}, expected {schema!r}")
    return doc


def parse_transcript(data: bytes) -> dict:
    return _read_json(data, TRANSCRIPT_SCHEMA)


def emit_stats(stats: TrialStats, fmt: str = "json") -> bytes:
    """CSV has the fixed documented columns, none of which needs quoting (ids,
    ints and ``%.6f`` floats); JSON carries the full record."""
    row = stats.to_dict()
    if fmt == "json":
        doc = {"schema": STATS_SCHEMA, **row}
        if stats.protocol == "cdssqc-switch":
            doc["eta_quoted"] = SWITCH_ETA_QUOTED
            doc["eta_note"] = SWITCH_ETA_NOTE
        return (json_text(doc) + "\n").encode()
    if fmt == "csv":
        cells = [str(row[c]) for c in CSV_COLUMNS[:5]] + [f"{row[c]:.6f}" for c in CSV_COLUMNS[5:]]
        return f"{','.join(CSV_COLUMNS)}\n{','.join(cells)}\n".encode()
    raise ValueError(f"unknown stats format {fmt!r}")


def parse_stats(data: bytes, fmt: str = "json") -> dict:
    if fmt == "json":
        return _read_json(data, STATS_SCHEMA)
    if fmt == "csv":
        rows = [line.split(",") for line in data.decode().splitlines()]
        if len(rows) != 2 or tuple(rows[0]) != CSV_COLUMNS or len(rows[1]) != len(CSV_COLUMNS):
            raise ValueError("a stats csv is its header and one row of as many cells")
        out: dict = dict(zip(CSV_COLUMNS, rows[1]))
        for key in CSV_COLUMNS[2:5]:
            out[key] = int(out[key])
        for key in CSV_COLUMNS[5:]:
            out[key] = float(out[key])
        return out
    raise ValueError(f"unknown stats format {fmt!r}")
