"""The protocol table: each id builds, runs and parses as the same protocol."""
import types

import pytest

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
