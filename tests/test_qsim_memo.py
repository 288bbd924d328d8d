"""The simulator's interned kets and memoized transitions.

Seeded outputs through the memo are pinned byte for byte by
``test_golden_outputs.py`` and ``test_scripts.py``; these tests check the
memo's own rules: every ket and lane state is interned, so one content is
one object and every memo entry refers to interned objects, a repeated
session adds nothing, and the memo never skips a check and never caches a
failure into a success.
"""
import math

import numpy as np
import pytest

from semiquantum import qsim
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import emit_transcript
from semiquantum.errors import RegisterTooLarge, ZeroProbabilityOutcome
from semiquantum.protocols import SqdConfig, SqkaConfig, run_session, run_sqka
from semiquantum.qsim import (
    HADAMARD,
    BellKind,
    OrthonormalPair,
    StateVector,
    apply_cnot,
    apply_x,
    measure_ab,
    merge_registers,
    prepare_bell,
    prepare_ghz_like,
    prepare_z,
    project_ab,
    project_bell,
    project_z,
    z_probabilities,
)
from semiquantum.rng import RandomSource


def _entangle_probe_session(seed: int = 5) -> bytes:
    config = SqkaConfig(
        n=100, seed=seed, attack=AttackStrategy(AttackKind.CNOT), threshold=1.0,
        commitments_enabled=False,
    )
    return emit_transcript(run_sqka(config))


def test_repeated_session_is_identical_and_adds_no_ket():
    # the session is permuted, so its 5- and 6-qubit kets are built again
    first = _entangle_probe_session()
    interned = len(qsim._KETS)
    assert _entangle_probe_session() == first
    assert len(qsim._KETS) == interned


def _wide_kets() -> int:
    return sum(ket.k > 4 for ket in qsim._KETS.values())


def test_a_wide_ket_built_twice_is_one_object():
    kets = [StateVector({0: math.cos(0.125), 63: math.sin(0.125)}, "abcdef")._ket for _ in range(2)]
    bell = qsim._BELL_KETS[BellKind.PSI_PLUS]
    merged = [qsim._merge(qsim._merge(bell, bell), bell) for _ in range(2)]
    assert kets[0] is kets[1] and merged[0] is merged[1]
    assert any(ket is kets[0] for ket in qsim._KETS.values())
    assert any(ket is merged[0] for ket in qsim._KETS.values())


def test_no_interned_ket_exceeds_the_qubit_cap():
    # the permuted attack joins slots into 5- and 6-qubit registers
    for seed in range(3):
        _entangle_probe_session(seed)
    assert _wide_kets() > 0
    assert all(ket.k <= qsim.MAX_QUBITS for ket in qsim._KETS.values())
    # a merge past the cap raises before it interns anything
    bell = qsim._BELL_KETS[BellKind.PSI_PLUS]
    interned = len(qsim._KETS)
    with pytest.raises(RegisterTooLarge):
        qsim._merge(qsim._merge(qsim._merge(bell, bell), bell), qsim._Z_KETS[0])
    assert len(qsim._KETS) == interned


def _parts(obj) -> list:
    """What a ket, lane state, step or memo key refers to."""
    if type(obj) in (qsim._Ket, qsim._State):
        return [*obj.memo, *obj.memo.values(), *([obj.ket] if type(obj) is qsim._State and obj.ket else [])]
    if type(obj) is qsim._Step:
        return [post for post in obj.posts if type(post) is qsim._Ket]
    if type(obj) is qsim._LaneStep:
        return [obj.step, *[post for post in obj.posts if post is not None]]
    return list(obj) if type(obj) is tuple else []  # a memo key (not a bra table), or an op code


def test_every_ket_and_lane_state_a_memo_leads_to_is_interned():
    _entangle_probe_session(11)
    kets = {id(ket) for ket in qsim._KETS.values()}
    states = {id(state) for state in qsim._STATES.values()} | {id(qsim._NONE)}
    todo, seen = [*qsim._KETS.values(), *qsim._STATES.values(), *qsim._Z_STATES[0], *qsim._Z_STATES[1]], set()
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen.add(id(obj))
            if type(obj) is qsim._Ket:
                assert id(obj) in kets
            elif type(obj) is qsim._State:
                assert id(obj) in states
            todo += _parts(obj)


# A permuted entangle-probe session of each keyed protocol and a permuted
# intercept-resend dialogue.
_PERMUTED = (
    SqkaConfig(n=100, seed=11, attack=AttackStrategy(AttackKind.CNOT), threshold=1.0),
    SqkaConfig(n=100, seed=12, attack=AttackStrategy(AttackKind.CNOT), protocol="sqkd"),
    SqdConfig(n=100, seed=13, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND), threshold=1.0),
)


def test_repeated_permuted_sessions_are_identical_and_add_no_lane_state():
    # the permuted attacks join slots, so registers move between lane states
    # and shared records
    first = [emit_transcript(run_session(config)) for config in _PERMUTED]
    states = len(qsim._STATES)
    assert states > 16  # more than the prepared |0> and |1> states interned at import
    assert [emit_transcript(run_session(config)) for config in _PERMUTED] == first
    assert len(qsim._STATES) == states


def test_unnormalized_state_raises_although_its_indices_are_interned():
    prepare_bell(BellKind.PSI_PLUS, ("a", "b"))  # interns {0: s, 3: s}
    with pytest.raises(ValueError, match="not normalized"):
        StateVector({0: 1.0, 3: 1.0}, ("a", "b"))
    with pytest.raises(ValueError, match="not normalized"):
        StateVector({0: 0.5, 3: 0.5}, ("a", "b"))


def test_zero_probability_projection_raises_on_every_call():
    pair = merge_registers(prepare_z(0, "a"), prepare_z(1, "b"))
    lone = prepare_z(0, "a")
    bell = prepare_bell(BellKind.PSI_PLUS, ("a", "b"))
    for _ in range(3):
        with pytest.raises(ZeroProbabilityOutcome):
            project_z(pair, "a", 1)
        with pytest.raises(ZeroProbabilityOutcome):
            project_z(lone, "a", 1)
        with pytest.raises(ZeroProbabilityOutcome):
            project_bell(bell, "a", "b", BellKind.PHI_PLUS)
    assert project_z(pair, "a", 0)[1].labels == ("b",)


def test_memo_keys_tell_every_argument_apart():
    def ket(state):
        return {i: a for i, a in enumerate(state.amplitudes) if a}

    # |100>: the same content under the same target, but another control
    state = merge_registers(merge_registers(prepare_z(1, "a"), prepare_z(0, "b")), prepare_z(0, "c"))
    assert ket(apply_cnot(state, "a", "c")) == {0b101: 1}
    assert ket(apply_cnot(state, "b", "c")) == {0b100: 1}
    assert ket(apply_x(state, "b")) == {0b110: 1}
    assert ket(apply_x(state, "c")) == {0b101: 1}
    # the same left register merged with two right registers of one size
    left = prepare_z(0, "a")
    assert ket(merge_registers(left, prepare_z(0, "b"))) == {0b00: 1}
    assert ket(merge_registers(left, prepare_z(1, "b"))) == {0b01: 1}
    # the same qubit measured in two bases
    assert list(z_probabilities(left, "a")) == [1.0, 0.0]
    assert project_ab(left, "a", HADAMARD, 1)[0] == pytest.approx(0.5)


def test_improbable_branch_is_collapsed_only_when_used():
    # the second branch weighs 1e-320, a subnormal, so renormalizing it
    # misses the norm check; a measurement that never takes it must work
    tilt = 1e-160
    basis = OrthonormalPair(
        np.array([math.sqrt(1 - tilt * tilt), tilt]), np.array([-tilt, math.sqrt(1 - tilt * tilt)])
    )
    state = merge_registers(prepare_z(0, "a"), prepare_z(0, "b"))
    for seed in range(3):
        rec = measure_ab(state, "a", basis, RandomSource(seed))
        assert rec.outcome == 0 and rec.post_state.labels == ("b",)
    with pytest.raises(ValueError, match="not normalized"):
        project_ab(state, "a", basis, 1)


def _pack_plan(k, positions):
    """``qsim._split_plan`` as first written: each index's bits packed one by one in a generator."""
    keep = tuple(p for p in range(k) if p not in positions)

    def pack(i, ps):
        return sum(((i >> (k - 1 - p)) & 1) << (len(ps) - 1 - n) for n, p in enumerate(ps))

    return tuple((pack(i, positions), pack(i, keep)) for i in range(1 << k)), keep


def test_split_plans_equal_the_packed_plans():
    plans = [(k, ps) for k in range(1, qsim.MAX_QUBITS + 1)
             for ps in [(p,) for p in range(k)] + [(p, q) for p in range(k) for q in range(k) if p != q]]
    assert len(plans) == 91  # every single qubit and ordered pair a step measures
    for k, positions in plans:
        assert qsim._split_plan.__wrapped__(k, positions) == _pack_plan(k, positions), (k, positions)
        assert qsim._split_plan(k, positions) == _pack_plan(k, positions)
