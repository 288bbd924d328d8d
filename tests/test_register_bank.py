"""RegisterBank against the public qsim functions, and the bank's snapshots.

The bank keeps each register as a private record that its operations
rewrite in place.  The public functions build a new immutable
``StateVector`` per step and are the reference here: the same random
sequence of operations, run through a bank and through the public
functions with two sources of one seed, must give the same outcomes,
labels and amplitudes after every step.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiquantum.errors import DuplicateLabel
from semiquantum.parties import Capability, PartyContext
from semiquantum.qsim import (
    BELL_ORDER,
    COMPUTATIONAL,
    HADAMARD,
    MAX_QUBITS,
    BellKind,
    RegisterBank,
    apply_cnot,
    apply_x,
    measure_ab,
    measure_bell,
    measure_z,
    merge_registers,
    prepare_bell,
    prepare_ghz_like,
    prepare_z,
    project_z,
)
from semiquantum.rng import RandomSource

OPS = ("prepare_z", "prepare_bell", "prepare_ghz_like", "cnot", "x", "measure_z", "measure_bell", "measure_ab")
BASES = (COMPUTATIONAL, HADAMARD)


class Reference:
    """Registers as immutable StateVectors, driven by the public functions."""

    def __init__(self, rng: RandomSource):
        self.states = {}
        self.rng = rng

    def bind(self, state):
        if state is not None:
            for l in state.labels:
                self.states[l] = state

    def joined(self, l1, l2):
        s1, s2 = self.states[l1], self.states[l2]
        return s1 if s1 is s2 else merge_registers(s1, s2)

    def measured(self, rec, labels):
        for l in labels:
            del self.states[l]
        self.bind(rec.post_state)
        return rec.outcome


def register_size(states, *labels):
    return len({l for label in labels for l in states[label].labels})


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_bank_matches_public_functions(data):
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    bank, bank_rng = RegisterBank(), RandomSource(seed)
    ref = Reference(RandomSource(seed))
    fresh = iter(f"q{i}" for i in range(10_000))

    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        labels = sorted(ref.states)
        op = data.draw(st.sampled_from(OPS if labels else OPS[:3]), label="op")
        if op == "prepare_z":
            bit, l = data.draw(st.integers(0, 1)), next(fresh)
            got = bank.prepare_z(bit, l)
            ref.bind(prepare_z(bit, l))
            want = l
        elif op == "prepare_bell":
            kind, pair = data.draw(st.sampled_from(BELL_ORDER)), (next(fresh), next(fresh))
            got = bank.prepare_bell(kind, *pair)
            ref.bind(prepare_bell(kind, pair))
            want = pair
        elif op == "prepare_ghz_like":
            psi1, psi2 = data.draw(st.lists(st.sampled_from(BELL_ORDER), min_size=2, max_size=2, unique=True))
            basis, triple = data.draw(st.sampled_from(BASES)), (next(fresh), next(fresh), next(fresh))
            got = bank.prepare_ghz_like(psi1, psi2, basis, triple)
            ref.bind(prepare_ghz_like(psi1, psi2, basis, triple))
            want = triple
        elif op in ("x", "measure_z", "measure_ab"):
            l = data.draw(st.sampled_from(labels))
            if op == "x":
                got = bank.x(l)
                want = ref.bind(apply_x(ref.states[l], l))
            elif op == "measure_z":
                got = bank.measure_z(l, bank_rng)
                want = ref.measured(measure_z(ref.states[l], l, ref.rng), (l,))
            else:
                basis = data.draw(st.sampled_from(BASES))
                got = bank.measure_ab(l, basis, bank_rng)
                want = ref.measured(measure_ab(ref.states[l], l, basis, ref.rng), (l,))
        else:
            pairs = [
                (a, b) for a in labels for b in labels
                if a != b and register_size(ref.states, a, b) <= MAX_QUBITS
            ]
            if not pairs:
                continue
            a, b = data.draw(st.sampled_from(pairs))
            if op == "cnot":
                got = bank.cnot(a, b)
                want = ref.bind(apply_cnot(ref.joined(a, b), a, b))
            else:
                got = bank.measure_bell(a, b, bank_rng)
                want = ref.measured(measure_bell(ref.joined(a, b), a, b, ref.rng), (a, b))

        assert got == want
        assert bank.labels() == set(ref.states)
        for l, state in ref.states.items():
            view = bank.state_of(l)
            assert view.labels == state.labels
            assert list(view._ket.entries.items()) == list(state._ket.entries.items())
    assert bank_rng.random() == ref.rng.random()  # both took the same draws


def snapshot(state):
    return state.labels, dict(state._ket.entries)


def churn(bank, rng):
    """Bank ops on the register holding h and t, ending in measurements."""
    bank.x("h")
    bank.measure_z("t", rng)
    bank.prepare_bell(BellKind.PHI_MINUS, "u", "v")
    bank.measure_bell("h", "u", rng)


def test_snapshots_never_change_after_bank_ops():
    bank = RegisterBank()
    given_pair = prepare_bell(BellKind.PSI_MINUS, ("h", "t"))
    bank.add(given_pair)
    bank.prepare_z(1, "e")
    pair, ancilla = bank.state_of("h"), bank.state_of("e")
    assert pair is given_pair and bank.state_of("t") is pair
    held = [(s, snapshot(s)) for s in (given_pair, ancilla)]
    bank.cnot("t", "e")
    merged = bank.state_of("e")
    assert merged is bank.state_of("h") is bank.state_of("t")
    held.append((merged, snapshot(merged)))
    churn(bank, RandomSource(6))
    for state, before in held:
        assert snapshot(state) == before


def test_replaced_state_never_changes_after_bank_ops():
    bank = RegisterBank()
    bank.prepare_bell(BellKind.PSI_PLUS, "h", "t")
    _, post = project_z(bank.state_of("t"), "t", 1)
    before = snapshot(post)
    # the collapsed remainder takes the place of the measured pair
    bank = RegisterBank()
    bank.add(post)
    assert bank.state_of("h") is post
    bank.prepare_z(0, "t")
    bank.cnot("h", "t")
    churn(bank, RandomSource(7))
    assert snapshot(post) == before


def test_state_of_is_one_object_until_the_register_changes():
    bank = RegisterBank()
    bank.prepare_bell(BellKind.PSI_PLUS, "h", "t")
    first = bank.state_of("h")
    assert bank.state_of("t") is first
    bank.cnot("h", "t")
    second = bank.state_of("t")
    assert second is not first and second is bank.state_of("h")
    assert snapshot(first)[1] != snapshot(second)[1]


def test_prepares_check_bits_and_labels_before_binding():
    bank = RegisterBank()
    bank.prepare_z(0, "a")
    with pytest.raises(ValueError):
        bank.prepare_z(2, "b")
    with pytest.raises(DuplicateLabel):
        bank.prepare_z(1, "a")
    with pytest.raises(DuplicateLabel):
        bank.prepare_bell(BellKind.PSI_PLUS, "b", "b")
    with pytest.raises(DuplicateLabel):
        bank.prepare_bell(BellKind.PSI_PLUS, "b", "a")
    assert bank.labels() == {"a"}
    assert snapshot(bank.state_of("a")) == (("a",), {0: 1 + 0j})


@pytest.mark.parametrize("labels", [("g1", "g2"), ("g1", "g2", "g3", "g4")])
def test_ghz_like_prepare_needs_three_labels(labels):
    bank = RegisterBank()
    party = PartyContext("charlie", Capability.QUANTUM, RandomSource(1), bank)
    with pytest.raises(ValueError, match="3-qubit ket cannot carry"):
        bank.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, labels)
    with pytest.raises(ValueError, match="3-qubit ket cannot carry"):
        party.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, labels)
    assert bank.labels() == set()


def test_prepare_with_a_taken_label_binds_nothing():
    bank = RegisterBank()
    bank.prepare_z(0, "g3")
    with pytest.raises(DuplicateLabel):
        bank.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, ("g1", "g2", "g3"))
    with pytest.raises(DuplicateLabel):
        bank.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, ("g1", "g2", "g1"))
    assert bank.labels() == {"g3"}
