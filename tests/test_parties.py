"""Capability enforcement, permutations, action choices, commitments."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiquantum.errors import CapabilityViolation, EmptyInput, ZeroCount
from semiquantum.parties import (
    Capability,
    ClassicalAction,
    PartyContext,
    Permutation,
    choose_actions,
    commit,
    random_permutation,
    restrict,
    verify,
)
from semiquantum.qsim import COMPUTATIONAL, BellKind, Lanes
from semiquantum.qsim_reference import labels as lane_labels, state_of
from semiquantum.rng import RandomSource

# lane addresses (lane << 3 | role): a pair in lane 0, free qubits in lanes 1 and 2
H, T = 0, 1
N1, N2 = 8, 9
G1, G2, G3 = 16, 17, 18

ALLOWED_CLASSICAL = ["prepare_z", "measure_z", "reflect", "permute", "send_classical"]
FORBIDDEN_CLASSICAL = [
    "prepare_bell",
    "prepare_ghz_like",
    "measure_bell",
    "measure_ab",
    "apply_cnot",
    "apply_x",
    "merge_registers",
]


@pytest.mark.parametrize("op", ALLOWED_CLASSICAL)
def test_classical_allowed(op):
    restrict(Capability.CLASSICAL, op)


@pytest.mark.parametrize("op", FORBIDDEN_CLASSICAL)
def test_classical_forbidden(op):
    with pytest.raises(CapabilityViolation) as err:
        restrict(Capability.CLASSICAL, op)
    assert err.value.op == op


@pytest.mark.parametrize("op", ALLOWED_CLASSICAL + FORBIDDEN_CLASSICAL)
def test_quantum_unrestricted(op):
    restrict(Capability.QUANTUM, op)


def test_classical_party_cannot_touch_quantum_surface():
    lanes = Lanes(1)
    alice = PartyContext("alice", Capability.QUANTUM, RandomSource(1), lanes)
    bob = PartyContext("bob", Capability.CLASSICAL, RandomSource(2), lanes)
    alice.prepare_bell(BellKind.PSI_PLUS, H, T)
    with pytest.raises(CapabilityViolation):
        bob.measure_bell(H, T)
    with pytest.raises(CapabilityViolation):
        bob.cnot(H, T)
    assert bob.measure_z(T) in (0, 1)
    assert bob.ops_log <= set(ALLOWED_CLASSICAL)


def snapshot(state):
    return state.labels, dict(state._ket.entries)


@pytest.mark.parametrize(
    "method, args, op",
    [
        ("prepare_bell", (BellKind.PSI_PLUS, N1, N2), "prepare_bell"),
        ("prepare_ghz_like", (BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, (G1, G2, G3)),
         "prepare_ghz_like"),
        ("measure_bell", (H, T), "measure_bell"),
        ("measure_ab", (H, COMPUTATIONAL), "measure_ab"),
        ("cnot", (H, T), "apply_cnot"),
        ("x", (H,), "apply_x"),
    ],
)
def test_every_quantum_op_refused_to_classical_party(method, args, op):
    lanes = Lanes(3)
    alice = PartyContext("alice", Capability.QUANTUM, RandomSource(1), lanes)
    bob = PartyContext("bob", Capability.CLASSICAL, RandomSource(2), lanes)
    alice.prepare_bell(BellKind.PSI_PLUS, H, T)
    before, pair = lane_labels(lanes), snapshot(state_of(lanes, H))
    with pytest.raises(CapabilityViolation) as err:
        getattr(bob, method)(*args)
    assert err.value.op == op and repr(op) in str(err.value)
    assert bob.ops_log == set()
    assert lane_labels(lanes) == before and snapshot(state_of(lanes, T)) == pair
    # the same call is open to a quantum party
    getattr(alice, method)(*args)
    assert alice.ops_log == {"prepare_bell", op}


# ---------------------------------------------------------------------------
# permutations


def test_identity_permutation_size_one():
    rng = RandomSource(0)
    assert random_permutation(1, rng).mapping == (0,)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 3))


def test_a_mapping_is_kept_as_a_tuple_of_ints():
    for given in ([1, 0], (True, False), range(1, -1, -1)):
        perm = Permutation(given)
        assert perm.mapping == (1, 0) and all(type(i) is int for i in perm.mapping)
        assert perm == Permutation((1, 0)) and hash(perm) == hash(Permutation((1, 0)))
    with pytest.raises(TypeError, match="mapping"):
        Permutation((1.0, 0.0))  # a float mapping used to pass the check and fail in apply


@pytest.mark.parametrize("size", [0, -1])
def test_drawn_permutation_of_no_positions_raises(size):
    with pytest.raises(ValueError):
        Permutation.identity(size)
    with pytest.raises(ValueError):
        random_permutation(size, RandomSource(0))


def test_drawn_permutations_equal_the_checked_records_of_their_mappings():
    # drawn and identity permutations skip the bijection check; each is one
    rng = RandomSource(17)
    for size in range(1, 401):
        for perm in (random_permutation(size, rng), Permutation.identity(size)):
            assert len(perm.mapping) == size and sorted(perm.mapping) == list(range(size))
            checked = Permutation(perm.mapping)
            assert perm == checked and checked == perm and hash(perm) == hash(checked)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=40))
def test_permutation_roundtrip(seed, size):
    rng = RandomSource(seed)
    perm = random_permutation(size, rng)
    seq = list(range(size))
    moved = perm.apply(seq)
    assert [moved[perm.mapping[i]] for i in range(size)] == seq
    assert sorted(moved) == seq  # pure reordering


def test_permutation_destination_source():
    perm = Permutation((2, 0, 1))
    assert perm.apply(["a", "b", "c"]) == ["b", "c", "a"]
    assert perm.mapping[0] == 2  # input 0 moves to position 2
    assert perm.apply([0, 1, 2])[2] == 0  # wire 2 carries input 0


def test_permutation_uniform_at_size_three():
    rng = RandomSource(123)
    counts = {}
    draws = 10_000
    for _ in range(draws):
        perm = random_permutation(3, rng)
        counts[perm.mapping] = counts.get(perm.mapping, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c / draws - 1 / 6) < 0.02


# ---------------------------------------------------------------------------
# action choices


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
def test_choose_actions_multiset(n, m):
    actions = choose_actions(n, m, RandomSource(7))
    assert len(actions) == n + m
    assert sum(a is ClassicalAction.MEASURE_AND_PREPARE for a in actions) == n
    assert sum(a is ClassicalAction.REFLECT for a in actions) == m


def test_choose_actions_rejects_zero_counts():
    rng = RandomSource(0)
    with pytest.raises(ZeroCount):
        choose_actions(1, 0, rng)
    with pytest.raises(ZeroCount):
        choose_actions(0, 1, rng)


def test_choose_actions_uniform_position():
    rng = RandomSource(321)
    hits = 0
    draws = 10_000
    for _ in range(draws):
        actions = choose_actions(1, 1, rng)
        hits += actions[0] is ClassicalAction.MEASURE_AND_PREPARE
    assert abs(hits / draws - 0.5) < 0.02


# ---------------------------------------------------------------------------
# commitments


def test_commit_verify_roundtrip():
    rng = RandomSource(5)
    c = commit((0, 1, 1, 0), rng)
    assert verify(c, (0, 1, 1, 0))
    assert c.opened


def test_commit_verify_rejects_other_string():
    rng = RandomSource(5)
    c = commit((0, 1, 1, 0), rng)
    assert not verify(c, (0, 1, 1, 1))


def test_commit_requires_bits():
    with pytest.raises(EmptyInput):
        commit((), RandomSource(1))


def test_commit_digest_is_opaque():
    rng = RandomSource(6)
    a = commit((1, 0), rng)
    b = commit((1, 0), rng)
    assert a.digest != b.digest  # fresh token each time, reveals nothing
    assert len(a.digest) == 16
