"""The capability bookkeeping of a session's slot steps.

A session runs each stage as a loop of slot steps on its slot lanes.  A
step is checked against its party's allowed set when it is built, before
the loop touches a register, and is logged in the party's ``ops_log`` only
once it has run.  ``PARTY_OPS`` pins the logged ops of every protocol x
attack cell, and of three cells with the permutation off, at n=4 with the
default detection; they are the values the per-op party calls gave.
``EVE_OPS`` pins Eve's log in the same cells, and in a cell that attacks
only the return leg, at the values her per-wire logging gave.
"""
import gc

import pytest

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.errors import CapabilityViolation
from semiquantum.parties import Capability, PartyContext
from semiquantum.protocols import (
    PROTOCOLS,
    CdssqcConfig,
    CdssqcVariant,
    SqdConfig,
    SqkaConfig,
    make_config,
    run_session,
)
from semiquantum.protocols import common
from semiquantum.qsim import BellKind, Lanes
from semiquantum.records import replace
from semiquantum.qsim_reference import labels as lane_labels, state_of
from semiquantum.rng import RandomSource

KEYED = ("measure_bell", "measure_z", "prepare_bell"), ("measure_z", "permute", "prepare_z", "reflect")
DIALOGUE = ("apply_x", "measure_bell", "measure_z", "prepare_bell"), KEYED[1]
CONTROLLED = ("measure_z", "permute", "prepare_z", "reflect"), ("measure_bell", "measure_z")
SPOT_ABORT = ("measure_z",), ("measure_z",)
GHZ, SWITCH = ("measure_ab", "prepare_ghz_like"), ("prepare_bell",)

# cell -> (abort reason, ops of alice, bob[, charlie])
PARTY_OPS = {
    "sqka.none": ("none", *KEYED),
    "sqka.cnot": ("bell-mismatch", *KEYED),
    "sqka.intercept-resend": ("bell-mismatch", *KEYED),
    "sqka.measure-resend": ("bell-mismatch", *KEYED),
    "sqkd.none": ("none", *KEYED),
    "sqkd.cnot": ("bell-mismatch", *KEYED),
    "sqkd.intercept-resend": ("bell-mismatch", *KEYED),
    "sqkd.measure-resend": ("bell-mismatch", *KEYED),
    "cdssqc-ghz.none": ("none", *CONTROLLED, GHZ),
    "cdssqc-ghz.cnot": ("bell-mismatch", *CONTROLLED, GHZ),
    "cdssqc-ghz.intercept-resend": ("correlation-mismatch", *SPOT_ABORT, GHZ),
    "cdssqc-ghz.measure-resend": ("bell-mismatch", *CONTROLLED, GHZ),
    "cdssqc-switch.none": ("none", *CONTROLLED, SWITCH),
    "cdssqc-switch.cnot": ("bell-mismatch", *CONTROLLED, SWITCH),
    "cdssqc-switch.intercept-resend": ("correlation-mismatch", *SPOT_ABORT, SWITCH),
    "cdssqc-switch.measure-resend": ("bell-mismatch", *CONTROLLED, SWITCH),
    "sqd.none": ("none", *DIALOGUE),
    "sqd.cnot": ("bell-mismatch", *DIALOGUE),
    "sqd.intercept-resend": ("correlation-mismatch", ("measure_z", "prepare_bell"), ("measure_z",)),
    "sqd.measure-resend": ("bell-mismatch", *DIALOGUE),
    "sqka.cnot.nopi": ("none", *KEYED),
    "sqkd.cnot.nopi": ("none", *KEYED),
    "sqka.intercept-resend.nopi": ("bell-mismatch", *KEYED),
}

CNOT_OPS = ("apply_cnot", "measure_z", "prepare_z")
BELL_IR_OPS = ("measure_bell", "measure_z", "prepare_bell", "prepare_z")
MR_OPS = ("measure_z", "prepare_z")

# cell -> Eve's ops, None where no Eve is built; a cell ending in .return
# attacks only the return leg
EVE_OPS = {
    cell: {"none": None, "cnot": CNOT_OPS, "intercept-resend": BELL_IR_OPS, "measure-resend": MR_OPS}[
        cell.split(".")[1]
    ]
    for cell in PARTY_OPS
}
EVE_OPS.update({
    "cdssqc-ghz.intercept-resend": ("prepare_z",),  # fresh singles on the forward leg only
    "cdssqc-switch.intercept-resend": ("prepare_z",),
    "sqd.intercept-resend": ("prepare_bell",),  # aborted at the spot check, before the return leg
    "sqka.measure-resend.return": MR_OPS,
})


def config(cell: str, seed: int = 1):
    protocol, attack, *rest = cell.split(".")
    attack = AttackStrategy(AttackKind(attack))
    return make_config(protocol, n=4, seed=seed, attack=attack, permutation_enabled=not rest)


@pytest.mark.parametrize("cell", PARTY_OPS)
def test_party_ops_are_pinned(cell):
    reason, *ops = PARTY_OPS[cell]
    out = run_session(config(cell))
    names = ("alice", "bob", "charlie")[: len(ops)]
    assert out.abort_reason.value == reason
    assert out.details["party_ops"] == {name: list(o) for name, o in zip(names, ops)}


@pytest.mark.parametrize("cell", EVE_OPS)
def test_eve_ops_are_pinned(cell, monkeypatch):
    built = []
    build = common.build_attack
    monkeypatch.setattr(common, "build_attack", lambda *args: built.append(build(*args)) or built[0])
    cfg = config(cell.removesuffix(".return"))
    if cell.endswith(".return"):
        cfg = replace(cfg, attack=replace(cfg.attack, legs=frozenset({"return"})))
    run_session(cfg)
    eve = built[0].eve
    assert (None if eve is None else tuple(sorted(eve.ops_log))) == EVE_OPS[cell]


@pytest.mark.parametrize("cell", ["sqd.intercept-resend", "cdssqc-ghz.intercept-resend"])
def test_spot_check_abort_records_no_encode_op(cell):
    out = run_session(config(cell))
    assert out.abort_reason.value == "correlation-mismatch"
    sender = "bob" if cell.startswith("sqd") else "alice"
    # the sender measured its spot-check copies, then never encoded or sent
    assert out.details["party_ops"][sender] == ["measure_z"]
    assert "encode" not in [e["action"] for e in out.transcript.events]


def test_steps_are_built_once_per_capability():
    lanes = Lanes(1)
    alice = PartyContext("alice", Capability.QUANTUM, RandomSource(1), lanes)
    bob = PartyContext("bob", Capability.CLASSICAL, RandomSource(2), lanes)
    other = PartyContext("carol", Capability.CLASSICAL, RandomSource(3), lanes)
    assert bob.step("measure_z", "prepare_z").names is other.step("measure_z", "prepare_z").names
    assert alice.step("measure_bell").names == ("measure_bell",)
    assert bob.ops_log == other.ops_log == alice.ops_log == set()  # built, not run
    assert bob.reflect("q") == "q"
    assert bob.ops_log == {"reflect"}


def test_quantum_step_refused_to_classical_party_before_any_register_changes():
    session = common.Session(SqkaConfig(n=2, m=2, seed=4), classical="bob")
    session.psi_pairs()
    lanes = session.lanes
    before = {q: (state_of(lanes, q).labels, dict(state_of(lanes, q)._ket.entries)) for q in lane_labels(lanes)}
    draws = [p.rng.getstate() for p in session.parties]
    # a classical receiver cannot Bell-check the decoys
    session.receiver = PartyContext("alice", Capability.CLASSICAL, session.alice.rng, lanes)
    with pytest.raises(CapabilityViolation) as err:
        session.exchange([0, 1], (1, 0), "return_sequence", lambda rx, i, q: None, ("measure_z",))
    assert err.value.op == "measure_bell"
    after = {q: (state_of(lanes, q).labels, dict(state_of(lanes, q)._ket.entries)) for q in lane_labels(lanes)}
    assert after == before
    assert [p.rng.getstate() for p in session.parties] == draws
    assert session.bob.ops_log == set()
    with pytest.raises(CapabilityViolation):
        session.bob.step("measure_z", "apply_cnot")


@pytest.mark.parametrize(
    "cfg, sources",
    [
        (SqkaConfig(n=3), 2),
        (SqdConfig(n=3), 2),
        (CdssqcConfig(n=3), 3),
        (CdssqcConfig(n=3, variant=CdssqcVariant.SWITCH), 3),
    ],
)
def test_eve_source_is_built_only_under_an_attack(monkeypatch, cfg, sources):
    built = []

    class Counted(RandomSource):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(common, "RandomSource", Counted)
    honest = run_session(cfg)
    assert len(built) == sources
    built.clear()
    for kind in (AttackKind.CNOT, AttackKind.MEASURE_RESEND):
        attacked = replace(cfg, attack=AttackStrategy(kind))
        run_session(attacked)
        assert len(built) == sources + 1
        built.clear()
    monkeypatch.undo()
    assert run_session(cfg).transcript.events == honest.transcript.events


def test_step_reaches_only_the_ops_it_names():
    lanes = Lanes(1)
    alice = PartyContext("alice", Capability.QUANTUM, RandomSource(1), lanes)
    step = alice.step("prepare_bell", "measure_z")
    step.prepare_bell(BellKind.PSI_PLUS, 0, 1)
    for op in ("measure_bell", "measure_ab", "apply_cnot", "apply_x", "prepare_z", "prepare_ghz_like"):
        assert not hasattr(step, op)
    # the measurement draws from the party's own source, one draw per sample
    reference = RandomSource(1)
    assert step.measure_z(1) == (0 if reference.random() < 0.5 else 1)
    assert alice.rng.random() == reference.random()
    assert alice.ops_log == set()  # run, not yet logged
    step.log()
    assert alice.ops_log == {"prepare_bell", "measure_z"}


@pytest.mark.parametrize("attack", list(AttackKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_a_session_leaves_no_cyclic_garbage(protocol, attack):
    """Reference counting alone frees a finished session: with the cyclic
    collector off, a collection after the sessions finds nothing.  A cycle
    (a step cached on the party it points back to, say) would leave every
    session's objects to the collector, which a Monte Carlo batch then pays
    for in its time."""
    configs = [
        make_config(protocol, n=n, seed=seed, attack=AttackStrategy(attack),
                    threshold=threshold, permutation_enabled=permutation_enabled)
        for permutation_enabled in (True, False)
        for threshold in (0.0, 1.0)
        for n in (3, 8)
        for seed in range(2)
    ]
    run_session(configs[0])  # first-use caches fill outside the count
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for config in configs:
            run_session(config)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_encoded_slots_and_decoys_ascend(protocol, monkeypatch):
    """The announcements list decoys and encoded slots in the order the
    session holds them, unsorted, so both must ascend: the runners pick
    ``encoded`` in slot order, and ``exchange`` keeps the rest of the slots
    in play, in order, as ``decoys``."""
    seen = []
    exchange = common.Session.exchange
    monkeypatch.setattr(
        common.Session, "exchange",
        lambda session, encoded, *args: seen.append((session, encoded)) or exchange(session, encoded, *args),
    )
    configs = [make_config(protocol, n=n, seed=seed, threshold=1.0) for n in (3, 8) for seed in range(5)]
    if hasattr(configs[0], "spot_count"):  # and with no spot check, every decoy in play
        configs += [replace(c, spot_check_size=0) for c in configs]
    for config in configs:
        run_session(config)
    assert len(seen) == len(configs)
    for session, encoded in seen:
        decoys = session.decoys
        assert encoded == sorted(encoded) and decoys == sorted(decoys)
        assert sorted(encoded + decoys) == session.slots
        assert [p for p, _ in session.decoy_wires()] == decoys
