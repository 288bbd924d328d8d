"""The slot lanes against the public qsim functions, and their snapshots.

A session's registers live in slot lanes: a register within one lane is an
interned state advanced by memoized transitions, one spanning lanes a
shared record.  The public functions build a new immutable ``StateVector``
per step and are the reference here: the same random sequence of
operations, run through the lanes and through the public functions with two
sources of one seed, must give the same outcomes, qubit orders and
amplitudes after every step, and take the same draws.
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
    Lanes,
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
from semiquantum.qsim_reference import labels as lane_labels, state_of
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


def run_program(data, lanes: Lanes, fresh, seed: int) -> None:
    """Run random ops on ``lanes`` and on the reference, checking after each.

    ``fresh(n)`` draws n free addresses for a preparation (or None).
    """
    lanes_rng, ref = RandomSource(seed), Reference(RandomSource(seed))
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        labels = sorted(ref.states)
        op = data.draw(st.sampled_from(OPS if labels else OPS[:3]), label="op")
        if op.startswith("prepare"):
            qubits = fresh({"prepare_z": 1, "prepare_bell": 2, "prepare_ghz_like": 3}[op])
            if qubits is None:
                continue
        if op == "prepare_z":
            bit = data.draw(st.integers(0, 1))
            got = lanes.prepare_z(bit, *qubits)
            ref.bind(prepare_z(bit, *qubits))
            want = qubits[0]
        elif op == "prepare_bell":
            kind = data.draw(st.sampled_from(BELL_ORDER))
            got = lanes.prepare_bell(kind, *qubits)
            ref.bind(prepare_bell(kind, qubits))
            want = qubits
        elif op == "prepare_ghz_like":
            psi1, psi2 = data.draw(st.lists(st.sampled_from(BELL_ORDER), min_size=2, max_size=2, unique=True))
            basis = data.draw(st.sampled_from(BASES))
            got = lanes.prepare_ghz_like(psi1, psi2, basis, qubits)
            ref.bind(prepare_ghz_like(psi1, psi2, basis, qubits))
            want = qubits
        elif op in ("x", "measure_z", "measure_ab"):
            l = data.draw(st.sampled_from(labels))
            if op == "x":
                got = lanes.x(l)
                want = ref.bind(apply_x(ref.states[l], l))
            elif op == "measure_z":
                got = lanes.measure_z(l, lanes_rng)
                want = ref.measured(measure_z(ref.states[l], l, ref.rng), (l,))
            else:
                basis = data.draw(st.sampled_from(BASES))
                got = lanes.measure_ab(l, basis, lanes_rng)
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
                got = lanes.cnot(a, b)
                want = ref.bind(apply_cnot(ref.joined(a, b), a, b))
            else:
                got = lanes.measure_bell(a, b, lanes_rng)
                want = ref.measured(measure_bell(ref.joined(a, b), a, b, ref.rng), (a, b))

        assert got == want
        assert lane_labels(lanes) == set(ref.states)
        for l, state in ref.states.items():
            view = state_of(lanes, l)
            assert view.labels == state.labels
            assert list(view._ket.entries.items()) == list(state._ket.entries.items())
    assert lanes_rng.random() == ref.rng.random()  # both took the same draws


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_bank_matches_public_functions(data):
    # every qubit in a lane of its own: each register of several qubits is
    # a shared record
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    lanes = Lanes(130)
    addresses = iter(range(0, 130 << 3, 8))
    run_program(data, lanes, lambda n: tuple(next(addresses) for _ in range(n)), seed)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_lanes_match_public_functions(data):
    # slot programs: qubits in three lanes of eight roles, prepared within a
    # lane or across lanes, so registers are lane states, shared records
    # spanning lanes (up to six qubits), or both in turn
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    lanes = Lanes(3)

    def fresh(n):
        free = [a for a in range(3 << 3) if a not in lane_labels(lanes)]
        if len(free) < n:
            return None
        lane = data.draw(st.sampled_from(sorted({a >> 3 for a in free})), label="lane")
        local = [a for a in free if a >> 3 == lane]
        pool = local if len(local) >= n and data.draw(st.booleans(), label="within a lane") else free
        return tuple(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True)))

    run_program(data, lanes, fresh, seed)


def test_count_prepares_fill_every_lane_alike():
    # a counted preparation gives each lane what a preparation per lane gives,
    # and with a qubit taken in any lane it prepares nothing
    filled, single = Lanes(5), Lanes(5)
    filled.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, HADAMARD, (1, 0, 2), 5)
    filled.prepare_z(1, 4, 5)
    for p in range(5):
        base = p << 3
        single.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, HADAMARD, (base | 1, base, base | 2))
        single.prepare_z(1, base | 4)
    assert lane_labels(filled) == lane_labels(single) == {p << 3 | r for p in range(5) for r in (0, 1, 2, 4)}
    for a in lane_labels(filled):
        assert snapshot(state_of(filled, a)) == snapshot(state_of(single, a))
    taken = Lanes(4)
    taken.prepare_z(0, 2 << 3 | 5)
    with pytest.raises(DuplicateLabel):
        taken.prepare_bell(BellKind.PSI_MINUS, 5, 6, 4)
    assert lane_labels(taken) == {21}


def snapshot(state):
    return state.labels, dict(state._ket.entries)


def churn(lanes, rng):
    """Ops on the register holding qubits 0 and 1, ending in measurements."""
    lanes.x(0)
    lanes.measure_z(1, rng)
    lanes.prepare_bell(BellKind.PHI_MINUS, 10, 11)
    lanes.measure_bell(0, 10, rng)


def test_snapshots_never_change_after_bank_ops():
    lanes = Lanes(2)
    h, t, e = 0, 1, 12  # a pair in lane 0, a qubit in lane 1
    given_pair = prepare_bell(BellKind.PSI_MINUS, (h, t))
    lanes.prepare_bell(BellKind.PSI_MINUS, h, t)
    lanes.prepare_z(1, e)
    pair, ancilla = state_of(lanes, h), state_of(lanes, e)
    assert snapshot(pair) == snapshot(given_pair) == snapshot(state_of(lanes, t))
    held = [(s, snapshot(s)) for s in (given_pair, pair, ancilla)]
    lanes.cnot(t, e)
    merged = state_of(lanes, e)
    assert snapshot(merged) == snapshot(state_of(lanes, h)) == snapshot(state_of(lanes, t))
    held.append((merged, snapshot(merged)))
    churn(lanes, RandomSource(6))
    for state, before in held:
        assert snapshot(state) == before


def test_replaced_state_never_changes_after_bank_ops():
    lanes = Lanes(2)
    h, t = 0, 1
    lanes.prepare_bell(BellKind.PSI_PLUS, h, t)
    _, post = project_z(state_of(lanes, t), t, 1)
    before = snapshot(post)
    # the collapsed remainder, |1>, takes the place of the measured pair
    lanes = Lanes(2)
    lanes.prepare_z(1, h)
    assert snapshot(state_of(lanes, h)) == before
    lanes.prepare_z(0, t)
    lanes.cnot(h, t)
    churn(lanes, RandomSource(7))
    assert snapshot(post) == before


def test_prepares_check_bits_and_labels_before_binding():
    lanes = Lanes(2)
    a, b = 0, 8
    lanes.prepare_z(0, a)
    with pytest.raises(ValueError):
        lanes.prepare_z(2, b)
    with pytest.raises(DuplicateLabel):
        lanes.prepare_z(1, a)
    with pytest.raises(DuplicateLabel):
        lanes.prepare_bell(BellKind.PSI_PLUS, b, b)
    with pytest.raises(DuplicateLabel):
        lanes.prepare_bell(BellKind.PSI_PLUS, b, a)
    assert lane_labels(lanes) == {a}
    assert snapshot(state_of(lanes, a)) == ((a,), {0: 1 + 0j})


@pytest.mark.parametrize("labels", [(0, 1), (0, 1, 2, 3)])
def test_ghz_like_prepare_needs_three_labels(labels):
    lanes = Lanes(1)
    party = PartyContext("charlie", Capability.QUANTUM, RandomSource(1), lanes)
    with pytest.raises(ValueError, match="3-qubit ket cannot carry"):
        lanes.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, labels)
    with pytest.raises(ValueError, match="3-qubit ket cannot carry"):
        party.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, labels)
    assert lane_labels(lanes) == set()


def test_prepare_with_a_taken_label_binds_nothing():
    lanes = Lanes(1)
    g1, g2, g3 = 0, 1, 2
    lanes.prepare_z(0, g3)
    with pytest.raises(DuplicateLabel):
        lanes.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, (g1, g2, g3))
    with pytest.raises(DuplicateLabel):
        lanes.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, (g1, g2, g1))
    assert lane_labels(lanes) == {g3}
