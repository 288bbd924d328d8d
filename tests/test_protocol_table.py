"""The protocol table: each id builds, runs and parses as the same protocol,
and the config is the one place that says which protocol runs."""
import ast
import re
import types
from pathlib import Path

import pytest

from semiquantum import protocols, records
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.cli import _build_parser
from semiquantum.protocols import (
    PROTOCOLS,
    CdssqcConfig,
    CdssqcVariant,
    SqdConfig,
    SqkaConfig,
    make_config,
    run_session,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_config_runs_its_protocol(protocol):
    config = make_config(protocol, n=2)
    assert config.protocol == protocol
    assert run_session(config).protocol == protocol


def test_cli_protocol_choices_are_the_table():
    (action,) = [a for a in _build_parser()._actions if a.dest == "protocol"]
    assert action.choices == tuple(PROTOCOLS)


def _worker_config(protocol, **common):
    """A config built by the keyword constructors, as the benchmark's worker builds it."""
    if protocol in ("sqka", "sqkd"):
        return SqkaConfig(commitments_enabled=False, protocol=protocol, **common)
    if protocol == "cdssqc-ghz":
        return CdssqcConfig(variant=CdssqcVariant.GHZ_LIKE, **common)
    if protocol == "cdssqc-switch":
        return CdssqcConfig(variant=CdssqcVariant.SWITCH, **common)
    return SqdConfig(**common)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_keyword_constructors_match_make_config(protocol):
    common = dict(
        n=8,
        m=24,
        attack=AttackStrategy(kind=AttackKind.CNOT),
        threshold=0.25,
        permutation_enabled=False,
    )
    keyed = {"commitments_enabled": False} if protocol in ("sqka", "sqkd") else {}
    assert _worker_config(protocol, **common) == make_config(protocol, **common, **keyed)


def test_sqka_config_rejects_other_protocols():
    for protocol in ("bogus", "sqd", "cdssqc-ghz"):
        with pytest.raises(ValueError, match=protocol):
            SqkaConfig(n=2, protocol=protocol)


def test_unknown_protocol_is_named():
    with pytest.raises(ValueError, match="bogus"):
        make_config("bogus", n=2)
    with pytest.raises(ValueError, match="bogus"):
        run_session(types.SimpleNamespace(protocol="bogus"))


@pytest.mark.parametrize("runner", PROTOCOLS)
def test_runners_refuse_other_protocols_configs(runner):
    run = getattr(protocols, PROTOCOLS[runner][2])
    for protocol in PROTOCOLS:
        if protocol != runner:
            with pytest.raises(ValueError, match=protocol):
                run(make_config(protocol, n=2))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_message_fields_are_config_fields(protocol):
    config = make_config(protocol, n=2)
    names = {f.name for f in records.fields(config)}
    assert set(config.MESSAGES) <= names
    assert "MESSAGES" not in names


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("attack", list(AttackKind))
def test_outcomes_compare_by_value(protocol, attack):
    config = make_config(protocol, n=3, seed=11, attack=AttackStrategy(attack))
    assert run_session(config) == run_session(config)
    assert run_session(config) != run_session(records.replace(config, seed=12))


# Where a protocol id may be spelled out: the runners and their table, the
# paper's Table 3 (analysis and the figures script).
ID_HOMES = {"src/semiquantum/analysis.py", "scripts/reproduce_figures.py"}
ID_TOKEN = re.compile(r"(?<![\w-])(%s)(?![\w-])" % "|".join(map(re.escape, PROTOCOLS)))


def test_protocol_ids_are_spelled_out_only_where_protocols_are_defined():
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]):
        name = path.relative_to(ROOT).as_posix()
        if name in ID_HOMES or name.startswith("src/semiquantum/protocols/"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found += [(name, node.lineno, m) for m in ID_TOKEN.findall(node.value)]
    assert found == []
