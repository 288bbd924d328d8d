"""Attack-model unit tests: pinned state evolutions and classification laws."""
import numpy as np
import pytest

from semiquantum import qsim
from semiquantum.adversary import (
    KEPT,
    LEGS,
    SENT,
    AttackKind,
    AttackStrategy,
    CnotAttack,
    InterceptResendAttack,
    MeasureResendAttack,
    NoAttack,
    SubstituteSinglesAttack,
    build_attack,
    default_legs,
)
from semiquantum.parties import Capability, PartyContext
from semiquantum.protocols import PROTOCOLS, make_config, run_session
from semiquantum.protocols.common import HOME, TRAVEL
from semiquantum.qsim import (
    BELL_ORDER,
    BellKind,
    Lanes,
    bell_probabilities,
    merge_registers,
    prepare_z,
    project_z,
    z_probabilities,
)
from semiquantum.qsim_reference import state_of
from semiquantum.rng import RandomSource

S = 1 / np.sqrt(2)


# slot 0's qubits, addressed slot << 3 | role; a resend, Bob's or Eve's,
# takes the address of the qubit
# it replaces
H0, T0 = 0 << 3 | HOME, 0 << 3 | TRAVEL
# Eve's qubits: the one she keeps and the one she sends for slot 0
K0, S0 = 0 << 3 | KEPT, 0 << 3 | SENT


def quantum_party(name="eve", seed=9, size=1):
    lanes = Lanes(size)
    return PartyContext(name, Capability.QUANTUM, RandomSource(seed), lanes), lanes


def sqka_attack(kind, seed=9, size=1, legs=None):
    """The hooks of ``kind`` against sqka (default legs unless given), and
    Eve's lanes of ``size`` slots."""
    eve, lanes = quantum_party(seed=seed, size=size)
    return build_attack(AttackStrategy(kind, legs), False, eve), lanes


# ---------------------------------------------------------------------------
# entangle-probe (CNOT) attack


def test_cnot_forward_produces_three_qubit_chain():
    attack, lanes = sqka_attack(AttackKind.CNOT)
    lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0)
    assert attack.forward_leg([T0]) == [T0]
    merged = state_of(lanes, T0)
    # (|000> + |111>)/sqrt(2) over (home, travel, ancilla)
    assert set(merged.labels) == {H0, T0, K0}
    probs = {
        idx: abs(a) ** 2 for idx, a in enumerate(merged.amplitudes) if abs(a) > 1e-12
    }
    assert probs == pytest.approx({0b000: 0.5, 0b111: 0.5})
    # each single-qubit Z marginal stays uniform
    for label in merged.labels:
        assert np.allclose(z_probabilities(merged, label), [0.5, 0.5], atol=1e-12)


def test_cnot_reflected_position_is_trace_free():
    # with matched pairing the second CNOT undoes the first: ancilla reads 0
    # and the pair Bell-checks as psi+ with certainty
    for seed in range(10):
        attack, lanes = sqka_attack(AttackKind.CNOT, seed=seed)
        lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0)
        attack.forward_leg([T0])
        attack.slots = [0]  # as a session writes its slots in play before the return leg
        assert attack.wire(0, T0) == T0
        attack.after_wire(0)
        assert attack.wire_bits == {0: 0}
        pair = state_of(lanes, H0)
        probs = dict(zip(BELL_ORDER, bell_probabilities(pair, H0, T0)))
        assert probs[BellKind.PSI_PLUS] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k_b", [0, 1])
def test_cnot_encoded_position_reads_key_bit(k_b):
    # without a permutation the ancilla deterministically holds the key bit
    for seed in range(8):
        attack, lanes = sqka_attack(AttackKind.CNOT, seed=seed)
        bob = PartyContext("bob", Capability.CLASSICAL, RandomSource(seed + 100), lanes)
        lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0)
        attack.forward_leg([T0])
        attack.slots = [0]
        r = bob.measure_z(T0)
        bob.prepare_z(r ^ k_b, T0)
        attack.wire(0, T0)
        attack.after_wire(0)
        assert attack.wire_bits == {0: k_b}


# ---------------------------------------------------------------------------
# intercept-resend with Bell pairs


def test_ir_forward_substitutes_uniform_halves():
    attack, lanes = sqka_attack(AttackKind.INTERCEPT_RESEND)
    lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0)
    out = attack.forward_leg([T0])
    assert out == [S0]
    # forwarded qubit is a maximally mixed Bell half
    fwd = state_of(lanes, S0)
    assert np.allclose(z_probabilities(fwd, S0), [0.5, 0.5], atol=1e-12)
    # the retained original stays entangled with the home qubit
    pair = state_of(lanes, H0)
    assert set(pair.labels) == {H0, T0}
    probs = dict(zip(BELL_ORDER, bell_probabilities(pair, H0, T0)))
    assert probs[BellKind.PSI_PLUS] == pytest.approx(1.0, abs=1e-12)


def test_ir_classification_confusion_matrix():
    """Outcome law: measured/bit0 -> psi+ or psi- (1/2 each); measured/bit1 ->
    phi+ or phi- (1/2 each); reflected -> psi+ with certainty."""
    for bob_bit in (0, 1):
        for bob_outcome in (0, 1):
            eve, lanes = quantum_party()
            lanes.prepare_bell(BellKind.PSI_PLUS, K0, S0)
            # force Bob's measurement branch on Eve's forwarded half
            reg = state_of(lanes, S0)
            prob, post = project_z(reg, S0, bob_outcome)
            assert prob == pytest.approx(0.5, abs=1e-12)
            merged = merge_registers(post, prepare_z(bob_outcome ^ bob_bit, "fresh"))
            assert merged.labels == (K0, "fresh")
            probs = dict(zip(BELL_ORDER, bell_probabilities(merged, K0, "fresh")))
            if bob_bit == 0:
                assert probs[BellKind.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)
                assert probs[BellKind.PSI_MINUS] == pytest.approx(0.5, abs=1e-12)
            else:
                assert probs[BellKind.PHI_PLUS] == pytest.approx(0.5, abs=1e-12)
                assert probs[BellKind.PHI_MINUS] == pytest.approx(0.5, abs=1e-12)
    # reflected: the pair comes back intact
    eve, lanes = quantum_party()
    lanes.prepare_bell(BellKind.PSI_PLUS, K0, S0)
    probs = dict(zip(BELL_ORDER, bell_probabilities(state_of(lanes, K0), K0, S0)))
    assert probs[BellKind.PSI_PLUS] == pytest.approx(1.0, abs=1e-12)


def test_ir_backward_classifies_and_resends():
    hits = {"measured": 0, "unknown": 0}
    for seed in range(60):
        attack, lanes = sqka_attack(AttackKind.INTERCEPT_RESEND, seed=seed)
        bob = PartyContext("bob", Capability.CLASSICAL, RandomSource(seed + 7), lanes)
        lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0)
        assert attack.forward_leg([T0]) == [S0]
        attack.slots = [0]
        r = bob.measure_z(S0)
        k_b = seed % 2
        bob.prepare_z(r ^ k_b, S0)  # Bob's resend takes the address he measured
        assert attack.wire(0, S0) == S0  # and so does Eve's
        cls = attack.wire_classifications[0]
        if cls == "measured":
            assert attack.wire_bits[0] == k_b  # identified bits are always right
            hits["measured"] += 1
        else:
            assert cls == "unknown" and attack.wire_bits[0] is None
            assert k_b == 0  # psi+ at an encoded slot implies bit 0
            hits["unknown"] += 1
    assert hits["measured"] > 0 and hits["unknown"] > 0


# ---------------------------------------------------------------------------
# measure-resend


def test_measure_resend_forwards_outcome_copies():
    attack, lanes = sqka_attack(AttackKind.MEASURE_RESEND)
    lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0)
    out = attack.forward_leg([T0])
    u = attack.forward_bits[0]
    # home qubit collapsed to the same value: Z-Z correlation survives
    home = state_of(lanes, H0)
    expected = [1.0, 0.0] if u == 0 else [0.0, 1.0]
    assert np.allclose(z_probabilities(home, H0), expected, atol=1e-12)
    fwd = state_of(lanes, out[0])
    assert np.allclose(z_probabilities(fwd, out[0]), expected, atol=1e-12)
    # decoy Bell check on (home, copy): psi class only, half mismatch
    merged = merge_registers(state_of(lanes, H0), state_of(lanes, out[0]))
    probs = dict(zip(BELL_ORDER, bell_probabilities(merged, H0, out[0])))
    assert probs[BellKind.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)
    assert probs[BellKind.PSI_MINUS] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# resends in place


@pytest.mark.parametrize("kind", [AttackKind.INTERCEPT_RESEND, AttackKind.MEASURE_RESEND])
def test_resending_hooks_return_the_address_they_were_handed(kind):
    # two slots, swapped on the return leg: wire 0 carries slot 1's qubit,
    # which Bob measured and resent, and wire 1 slot 0's, which he reflected
    for seed in range(10):
        attack, lanes = sqka_attack(kind, seed=seed, size=2, legs=LEGS)
        bob = PartyContext("bob", Capability.CLASSICAL, RandomSource(seed + 7), lanes)
        lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0, 2)
        travel = [T0, 1 << 3 | TRAVEL]
        sent = attack.forward_leg(travel)
        if kind is AttackKind.MEASURE_RESEND:
            assert sent == travel  # the forward-leg resends stay where they were
            assert all(state_of(lanes, q).labels == (q,) for q in sent)
        attack.slots = [0, 1]
        bob.prepare_z(bob.measure_z(sent[1]) ^ 1, sent[1])
        for j, q in enumerate(reversed(sent)):
            assert attack.wire(j, q) == q
            assert state_of(lanes, q).labels == (q,)  # the resent qubit, alone in its register
            attack.after_wire(j)


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_measure_resend_on_both_legs_keeps_every_register_in_its_lane(protocol, n, monkeypatch):
    """Every qubit measure-resend touches stays in its slot's lane, the
    permutation on: each resend takes the address it measured, so the
    receiver's check runs on one lane and no register spans lanes."""
    shared = []
    init = qsim._Shared.__init__
    monkeypatch.setattr(qsim._Shared, "__init__", lambda rec, *args: shared.append(args) or init(rec, *args))
    strategy = AttackStrategy(AttackKind.MEASURE_RESEND, legs=LEGS)
    for seed in range(5):
        config = make_config(protocol, n=n, seed=seed, attack=strategy, threshold=1.0)
        assert run_session(config).details["decoy_checked"] > 0
    assert shared == []


# ---------------------------------------------------------------------------
# wiring


def test_default_legs_table():
    # psi-pair protocols (sqka, sqkd, sqd), then controlled ones (cdssqc)
    assert default_legs(AttackKind.NONE, False) == default_legs(AttackKind.NONE, True) == frozenset()
    assert default_legs(AttackKind.CNOT, False) == default_legs(AttackKind.CNOT, True) == LEGS
    assert default_legs(AttackKind.INTERCEPT_RESEND, False) == LEGS
    assert default_legs(AttackKind.INTERCEPT_RESEND, True) == {"forward"}
    assert default_legs(AttackKind.MEASURE_RESEND, False) == {"forward"}
    assert default_legs(AttackKind.MEASURE_RESEND, True) == LEGS


@pytest.mark.parametrize("controlled", [False, True])
def test_build_attack_picks_the_family_hooks(controlled):
    expected = {
        AttackKind.NONE: NoAttack,
        AttackKind.CNOT: CnotAttack,
        AttackKind.INTERCEPT_RESEND: SubstituteSinglesAttack if controlled else InterceptResendAttack,
        AttackKind.MEASURE_RESEND: MeasureResendAttack,
    }
    for kind, cls in expected.items():
        eve, _ = quantum_party()
        attack = build_attack(AttackStrategy(kind), controlled, eve)
        assert type(attack) is cls
        assert attack.legs == default_legs(kind, controlled)


@pytest.mark.parametrize("controlled", [False, True])
def test_build_attack_rejects_unknown_leg(controlled):
    # the strategy record refuses the leg as it is built
    eve, _ = quantum_party()
    with pytest.raises(ValueError):
        build_attack(AttackStrategy(AttackKind.CNOT, legs=frozenset({"sideways"})), controlled, eve)


def test_build_attack_rejects_return_only_intercept_resend():
    # the return leg Bell-measures against pairs only the forward leg makes;
    # the strategy record refuses it as it is built
    eve, _ = quantum_party()
    with pytest.raises(ValueError):
        strategy = AttackStrategy(AttackKind.INTERCEPT_RESEND, legs=frozenset({"return"}))
        build_attack(make_config("sqka", n=2, attack=strategy).attack, False, eve)


def test_run_trials_rejects_return_only_intercept_resend():
    from semiquantum.analysis import run_trials
    from semiquantum.protocols import SqkaConfig

    with pytest.raises(ValueError):
        strategy = AttackStrategy(AttackKind.INTERCEPT_RESEND, legs=frozenset({"return"}))
        run_trials(SqkaConfig(n=2, attack=strategy), 1, 0)


def test_eve_rng_seed_override_changes_attack_randomness():
    from semiquantum.protocols import SqkaConfig, run_sqka

    base = dict(n=12, m=2, seed=5, permutation_enabled=False, threshold=1.0,
                commitments_enabled=False)
    a = run_sqka(SqkaConfig(attack=AttackStrategy(AttackKind.INTERCEPT_RESEND,
                                                  eve_rng_seed=1), **base))
    b = run_sqka(SqkaConfig(attack=AttackStrategy(AttackKind.INTERCEPT_RESEND,
                                                  eve_rng_seed=1), **base))
    c = run_sqka(SqkaConfig(attack=AttackStrategy(AttackKind.INTERCEPT_RESEND,
                                                  eve_rng_seed=2), **base))
    assert a.eve_inferences == b.eve_inferences
    assert (a.eve_inferences, a.keys) != (c.eve_inferences, c.keys) or a.raw != c.raw


def test_none_attack_passthrough():
    eve, _ = quantum_party()
    attack = build_attack(AttackStrategy(), False, eve)
    assert attack.forward_leg(["a", "b"]) == ["a", "b"]
    assert attack.wire(0, "a") == "a"
    attack.finalize([0, 1])
    assert attack.inferred_bits is None  # no adversary, no inference record
