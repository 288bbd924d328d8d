"""Efficiency accounting, detection model, Monte Carlo driver, serialization."""
import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import (
    CSV_COLUMNS,
    STATS_SCHEMA,
    SWITCH_ETA_NOTE,
    SWITCH_ETA_QUOTED,
    TABLE3,
    ProtocolCostRow,
    detection_model,
    efficiency_report,
    emit_stats,
    emit_transcript,
    parse_stats,
    parse_transcript,
    run_trials,
)
from semiquantum.errors import UnknownAttack
from semiquantum.protocols import PROTOCOLS, SqdConfig, SqkaConfig, make_config, run_session, run_sqka


# ---------------------------------------------------------------------------
# efficiency


@pytest.mark.parametrize(
    "inp,expected",
    [
        (ProtocolCostRow("a", c=8, q_c=16, d=24, b=40), 0.10),
        (ProtocolCostRow("b", c=16, q_c=16, d=24, b=40), 0.20),
        (ProtocolCostRow("c", c=8, q_c=32, d=104, b=64), 0.04),
    ],
)
def test_qubit_efficiency_values(inp, expected):
    assert float(inp.efficiency()) == pytest.approx(expected, abs=1e-12)


def test_qubit_efficiency_switch_exact_ratio():
    inp = ProtocolCostRow("cdssqc-switch", c=8, q_c=24, d=80, b=64)
    assert float(inp.efficiency()) == pytest.approx(1 / 21, abs=1e-12)


def test_qubit_efficiency_errors():
    with pytest.raises(ZeroDivisionError):
        ProtocolCostRow("empty", c=0, q_c=0, d=0, b=0).efficiency()


def test_cost_rows_are_exact_rationals():
    assert TABLE3["sqka"].efficiency() == Fraction(1, 10)
    assert TABLE3["cdssqc-ghz"].efficiency() == Fraction(1, 25)
    assert TABLE3["cdssqc-switch"].efficiency() == Fraction(1, 21)
    assert TABLE3["sqd"].efficiency() == Fraction(1, 5)
    assert TABLE3["sqkd"].efficiency() == Fraction(1, 10)


def test_cost_row_scales_with_n():
    # eta is a ratio of per-bit coefficients, so n bits cost the same ratio
    row = ProtocolCostRow("sqka", c=1, q_c=2, d=3, b=5)
    scaled = ProtocolCostRow("sqka", c=7, q_c=14, d=21, b=35)
    assert scaled.efficiency() == row.efficiency()
    assert float(row.efficiency()) == pytest.approx(0.10)


def test_switch_report_flags_quoted_figure():
    report = efficiency_report("cdssqc-switch")
    assert report["eta_exact"] == [1, 21]
    assert report["eta_quoted"] == SWITCH_ETA_QUOTED
    assert report["eta"] != report["eta_quoted"]
    assert "discrepancy" in report
    assert "discrepancy" not in efficiency_report("sqka")


# ---------------------------------------------------------------------------
# detection model


def test_detection_model_values():
    assert detection_model(AttackKind.INTERCEPT_RESEND, 1) == pytest.approx(0.75)
    assert detection_model(AttackKind.INTERCEPT_RESEND, 0) == 0.0
    assert detection_model(AttackKind.MEASURE_RESEND, 2) == pytest.approx(0.75)
    for m in (0, 1, 5):
        assert detection_model(AttackKind.CNOT, m) == 0.0


def test_detection_model_unknown_attack():
    with pytest.raises(UnknownAttack):
        detection_model(AttackKind.NONE, 3)
    with pytest.raises(ValueError):
        detection_model(AttackKind.CNOT, -1)


# ---------------------------------------------------------------------------
# Monte Carlo driver


def test_run_trials_honest_baseline():
    stats = run_trials(SqkaConfig(n=3), trials=120, master_seed=11)
    assert stats.trials == 120
    assert stats.failures == 0
    assert stats.abort_rate == 0.0
    assert stats.key_match_rate == 1.0
    assert stats.decoy_detection_rate == 0.0
    assert stats.halfwidth99["key_match_rate"] == 0.0


def test_run_trials_bit_identical():
    a = run_trials(SqkaConfig(n=3), trials=60, master_seed=5)
    b = run_trials(SqkaConfig(n=3), trials=60, master_seed=5)
    assert a == b
    template = SqkaConfig(
        n=3, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND), commitments_enabled=False
    )
    c = run_trials(template, trials=60, master_seed=5)
    d = run_trials(template, trials=60, master_seed=6)
    assert c == run_trials(template, trials=60, master_seed=5)
    assert c != d  # sampled rates move with the master seed


def test_run_trials_counts_failures(monkeypatch):
    import semiquantum.protocols as protocols
    from semiquantum.errors import SemiQuantumError
    from semiquantum.rng import derive_seed

    failing = {derive_seed(1, t) for t in (0, 2, 3)}  # the seeds of trials 0, 2 and 3

    def runner(config):
        if config.seed in failing:
            raise SemiQuantumError("a session that cannot finish")
        return run_sqka(config)

    monkeypatch.setattr(protocols, "run_sqka", runner)
    stats = run_trials(SqkaConfig(n=2), trials=5, master_seed=1)
    assert stats.failures == 3
    assert stats.abort_rate == 0.0


def test_run_trials_attack_metrics_populated():
    template = SqkaConfig(
        n=20,
        m=2,
        attack=AttackStrategy(AttackKind.INTERCEPT_RESEND),
        permutation_enabled=False,
        threshold=1.0,
        commitments_enabled=False,
    )
    stats = run_trials(template, trials=60, master_seed=3)
    assert stats.eve_position_id_rate == pytest.approx(0.75, abs=0.06)
    assert stats.key_match_rate == pytest.approx(0.75, abs=0.06)
    assert 0 < stats.halfwidth99["abort_rate"] or stats.abort_rate in (0.0, 1.0)


def test_aggregation_is_order_independent():
    import random

    from semiquantum.analysis import aggregate_records, trial_record
    from semiquantum.protocols import run_session
    from semiquantum.rng import derive_seed
    from semiquantum.records import replace as dc_replace

    template = SqkaConfig(
        n=6, m=2, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND), commitments_enabled=False
    )
    records = []
    for t in range(80):
        cfg = dc_replace(template, seed=derive_seed(99, t))
        records.append(trial_record(run_session(cfg)))
    baseline = aggregate_records(template, 80, records)
    shuffled = list(records)
    random.Random(1).shuffle(shuffled)
    assert aggregate_records(template, 80, shuffled) == baseline
    assert aggregate_records(template, 80, list(reversed(records))) == baseline


def test_monte_carlo_agrees_with_detection_model():
    """Abort rates track 1-(1-p)^m within 3 binomial standard deviations in
    each attack's analyzed configuration (>= 10^3 trials)."""
    import math

    jobs = [
        # (attack, m, config overrides)
        (AttackKind.MEASURE_RESEND, 1, {}),
        (AttackKind.MEASURE_RESEND, 3, {}),
        (AttackKind.CNOT, 2, {"permutation_enabled": False}),
        (AttackKind.INTERCEPT_RESEND, 1, {}),
    ]
    for kind, m, overrides in jobs:
        template = SqkaConfig(
            n=8, m=m, attack=AttackStrategy(kind), commitments_enabled=False, **overrides
        )
        trials = 1000
        stats = run_trials(template, trials=trials, master_seed=404)
        predicted = detection_model(kind, m)
        band = 3 * math.sqrt(predicted * (1 - predicted) / trials)
        # small-register corrections (own-wire fixed points) sit inside the
        # band at these sizes except for intercept-resend at n=8, where the
        # permutation fixed-point boost is ~1/4 * 1/9; widen by that amount
        slack = 0.25 / (template.n + m + 1) if kind is AttackKind.INTERCEPT_RESEND else 0.0
        assert abs(stats.abort_rate - predicted) <= band + slack, (kind, m, stats.abort_rate)


# ---------------------------------------------------------------------------
# serialization


def test_aborted_transcript_serializes():
    from semiquantum.records import replace as dc_replace

    cfg = SqkaConfig(
        n=2, m=2, seed=0, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND),
        commitments_enabled=False,
    )
    for seed in range(20):
        out = run_sqka(dc_replace(cfg, seed=seed))
        if out.aborted:
            doc = parse_transcript(emit_transcript(out))
            assert doc["aborted"] is True
            assert doc["abort_reason"] == "bell-mismatch"
            assert doc["keys"] == {}
            return
    raise AssertionError("expected at least one aborted session")


def test_transcript_roundtrip_and_schema():
    out = run_sqka(SqkaConfig(n=2, m=2, seed=8))
    blob = emit_transcript(out)
    doc = parse_transcript(blob)
    assert doc["protocol"] == "sqka"
    assert doc["aborted"] is False
    announce = [e for e in doc["events"] if e["action"] == "announce_K_A"]
    reveal = [e for e in doc["events"] if e["action"] == "reveal_Pi_n"]
    assert len(announce) == 1 and len(reveal) == 1
    assert announce[0]["index"] < reveal[0]["index"]
    for e in doc["events"]:
        assert set(e) == {"index", "actor", "action", "payload"}
    assert parse_transcript(emit_transcript(out)) == doc


@pytest.mark.parametrize("attack", list(AttackKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_every_transcript_event_is_a_json_value(protocol, attack):
    """A transcript holds each event as the JSON object it is written as, so
    the event survives a JSON round trip unchanged: a payload holding a
    tuple, an enum or bytes fails here."""
    for permutation_enabled in (True, False):
        for threshold in (0.0, 1.0):
            for seed in range(3):
                config = make_config(protocol, n=3, seed=seed, attack=AttackStrategy(attack),
                                     threshold=threshold, permutation_enabled=permutation_enabled)
                events = run_session(config).transcript.events
                assert events
                for index, event in enumerate(events):
                    assert type(event) is dict
                    assert set(event) == {"index", "actor", "action", "payload"}
                    assert event["index"] == index
                    assert json.loads(json.dumps(event)) == event


def test_transcript_rejects_other_schema():
    with pytest.raises(ValueError):
        parse_transcript(b'{"schema": "nope", "events": []}')


def test_stats_csv_layout():
    stats = run_trials(SqkaConfig(n=2), trials=40, master_seed=2)
    blob = emit_stats(stats, "csv").decode()
    lines = blob.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "sqka" and cells[1] == "none"
    assert cells[5] == "0.000000"  # abort_rate
    assert cells[6] == "1.000000"  # key_match_rate
    assert cells[9] == "0.100000"  # eta
    parsed = parse_stats(blob.encode(), "csv")
    assert parsed["trials"] == 40
    assert parsed["eta"] == pytest.approx(0.1)


def test_stats_json_roundtrip_and_switch_note():
    stats = run_trials(SqkaConfig(n=2), trials=10, master_seed=4)
    doc = parse_stats(emit_stats(stats, "json"))
    assert doc["protocol"] == "sqka"
    assert doc["abort_rate"] == stats.abort_rate

    from semiquantum.protocols import CdssqcConfig, CdssqcVariant

    switch = run_trials(
        CdssqcConfig(n=2, variant=CdssqcVariant.SWITCH), trials=10, master_seed=4
    )
    doc = parse_stats(emit_stats(switch, "json"))
    assert doc["eta"] == pytest.approx(1 / 21)
    assert doc["eta_quoted"] == SWITCH_ETA_QUOTED
    assert "eta_note" in doc


def test_stats_unknown_format():
    stats = run_trials(SqkaConfig(n=2), trials=5, master_seed=9)
    with pytest.raises(ValueError):
        emit_stats(stats, "xml")


@pytest.mark.parametrize("attack", list(AttackKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_stats_round_trip_in_both_formats(protocol, attack):
    stats = run_trials(make_config(protocol, n=2, attack=AttackStrategy(attack)), trials=3, master_seed=5)
    row = stats.to_dict()
    doc = parse_stats(emit_stats(stats, "json"), "json")
    extra = {"eta_quoted": SWITCH_ETA_QUOTED, "eta_note": SWITCH_ETA_NOTE} if protocol == "cdssqc-switch" else {}
    assert doc == {"schema": STATS_SCHEMA, **row, **extra}
    exact, rounded = CSV_COLUMNS[:5], CSV_COLUMNS[5:]
    expected = {**{c: row[c] for c in exact}, **{c: float(f"{row[c]:.6f}") for c in rounded}}
    assert parse_stats(emit_stats(stats, "csv"), "csv") == expected


@pytest.mark.parametrize("blob", [
    ",".join(CSV_COLUMNS) + "\n",  # the header only
    ",".join(CSV_COLUMNS) + "\nsqka,none,2,6,3\n",  # a short row
    ",".join(CSV_COLUMNS) + "\nsqka,none,2,6,3,0,1,0,0,0.1,7\n",  # a long row
    ",".join(CSV_COLUMNS) + "\nsqka,none,2,6,3,0,1,0,0,0.1\n" * 2,  # two rows
    "",
    "protocol,attack\nsqka,none\n",
], ids=["header-only", "short-row", "long-row", "two-rows", "empty", "other-header"])
def test_malformed_stats_csv_is_a_value_error(blob):
    with pytest.raises(ValueError):
        parse_stats(blob.encode(), "csv")


@pytest.mark.parametrize("blob", [b"[]", b'["semiquantum.stats/1"]', b"null", b"3", b'"schema"', b"{", b"\xff"],
                         ids=repr)
@pytest.mark.parametrize("parse", [parse_transcript, lambda data: parse_stats(data, "json")],
                         ids=["transcript", "stats"])
def test_json_that_is_not_a_document_is_a_value_error(parse, blob):
    with pytest.raises(ValueError):
        parse(blob)


def test_sqd_template_runs_through_driver():
    stats = run_trials(SqdConfig(n=2), trials=30, master_seed=13)
    assert stats.protocol == "sqd"
    assert stats.key_match_rate == 1.0
    doc = parse_stats(emit_stats(stats, "csv"), "csv")
    assert doc["eta"] == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# outcome details

ROOT = Path(__file__).resolve().parents[1]


def _is_details(node) -> bool:
    """``details`` or ``<expr>.details``."""
    return (isinstance(node, ast.Name) and node.id == "details") or (
        isinstance(node, ast.Attribute) and node.attr == "details"
    )


def _details_keys(paths, store: bool) -> set[str]:
    """The constant keys ``paths`` write into (``store``) or read from a
    ``details`` dict: ``details[k] = v``, ``details.update(k=v)`` and a dict
    literal assigned to it, or ``details[k]`` and ``details.get(k)``."""
    keys = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) and _is_details(node.value):
                if isinstance(node.ctx, ast.Store) == store and isinstance(node.slice, ast.Constant):
                    keys.add(node.slice.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if _is_details(node.func.value) and node.func.attr == ("update" if store else "get"):
                    keys.update(k.arg for k in node.keywords)
                    keys.update(a.value for a in node.args[:1] if isinstance(a, ast.Constant))
            elif store and isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(map(_is_details, targets)):
                    keys.update(k.value for k in node.value.keys if isinstance(k, ast.Constant))
    return keys


def test_every_outcome_detail_written_is_read():
    written = _details_keys((ROOT / "src/semiquantum/protocols").glob("*.py"), store=True)
    readers = [ROOT / "src/semiquantum/analysis.py", *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    read = _details_keys(readers, store=False)
    assert {"spot_checked", "decoy_mismatches", "eve_truth", "match_bits"} <= written
    assert written - read == set()
