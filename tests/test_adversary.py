"""Attack-model unit tests: pinned state evolutions and classification laws."""
import numpy as np
import pytest

from semiquantum.adversary import (
    KEPT,
    LEGS,
    RESENT,
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
from semiquantum.protocols.common import FRESH, HOME, TRAVEL, qubit
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
from semiquantum.rng import RandomSource

S = 1 / np.sqrt(2)


# slot 0's qubits, Bob's fresh one included
H0, T0, B0 = qubit(0, HOME), qubit(0, TRAVEL), qubit(0, FRESH)
# Eve's qubits: the one she keeps and the one she sends for slot 0, and the
# one she resends on wire 0
K0, S0, R0 = qubit(0, KEPT), qubit(0, SENT), qubit(0, RESENT)


def quantum_party(name="eve", seed=9):
    lanes = Lanes(1)
    return PartyContext(name, Capability.QUANTUM, RandomSource(seed), lanes), lanes


def sqka_attack(kind, seed=9):
    """The hooks of ``kind`` against sqka (default legs), and Eve's lanes."""
    eve, lanes = quantum_party(seed=seed)
    return build_attack(AttackStrategy(kind), False, eve), lanes


# ---------------------------------------------------------------------------
# entangle-probe (CNOT) attack


def test_cnot_forward_produces_three_qubit_chain():
    attack, lanes = sqka_attack(AttackKind.CNOT)
    lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0)
    assert attack.forward_leg([T0]) == [T0]
    merged = lanes.state_of(T0)
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
        pair = lanes.state_of(H0)
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
        bob.prepare_z(r ^ k_b, B0)
        attack.wire(0, B0)
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
    fwd = lanes.state_of(S0)
    assert np.allclose(z_probabilities(fwd, S0), [0.5, 0.5], atol=1e-12)
    # the retained original stays entangled with the home qubit
    pair = lanes.state_of(H0)
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
            reg = lanes.state_of(S0)
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
    probs = dict(zip(BELL_ORDER, bell_probabilities(lanes.state_of(K0), K0, S0)))
    assert probs[BellKind.PSI_PLUS] == pytest.approx(1.0, abs=1e-12)


def test_ir_backward_classifies_and_resends():
    hits = {"measured": 0, "unknown": 0}
    for seed in range(60):
        attack, lanes = sqka_attack(AttackKind.INTERCEPT_RESEND, seed=seed)
        bob = PartyContext("bob", Capability.CLASSICAL, RandomSource(seed + 7), lanes)
        lanes.prepare_bell(BellKind.PSI_PLUS, H0, T0)
        fwd = attack.forward_leg([T0])
        attack.slots = [0]
        r = bob.measure_z(fwd[0])
        k_b = seed % 2
        bob.prepare_z(r ^ k_b, B0)
        assert attack.wire(0, B0) == R0
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
    home = lanes.state_of(H0)
    expected = [1.0, 0.0] if u == 0 else [0.0, 1.0]
    assert np.allclose(z_probabilities(home, H0), expected, atol=1e-12)
    fwd = lanes.state_of(out[0])
    assert np.allclose(z_probabilities(fwd, out[0]), expected, atol=1e-12)
    # decoy Bell check on (home, copy): psi class only, half mismatch
    merged = merge_registers(lanes.state_of(H0), lanes.state_of(out[0]))
    probs = dict(zip(BELL_ORDER, bell_probabilities(merged, H0, out[0])))
    assert probs[BellKind.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)
    assert probs[BellKind.PSI_MINUS] == pytest.approx(0.5, abs=1e-12)


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
    eve, _ = quantum_party()
    strategy = AttackStrategy(AttackKind.CNOT, legs=frozenset({"sideways"}))
    with pytest.raises(ValueError):
        build_attack(strategy, controlled, eve)


def test_build_attack_rejects_return_only_intercept_resend():
    # the return leg Bell-measures against pairs only the forward leg makes
    eve, _ = quantum_party()
    strategy = AttackStrategy(AttackKind.INTERCEPT_RESEND, legs=frozenset({"return"}))
    with pytest.raises(ValueError):
        build_attack(strategy, False, eve)


def test_run_trials_rejects_return_only_intercept_resend():
    from semiquantum.analysis import run_trials
    from semiquantum.protocols import SqkaConfig

    strategy = AttackStrategy(AttackKind.INTERCEPT_RESEND, legs=frozenset({"return"}))
    with pytest.raises(ValueError):
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
