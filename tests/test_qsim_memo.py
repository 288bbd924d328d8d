"""The simulator's interned kets and memoized transitions.

Seeded outputs through the memo are pinned byte for byte by
``test_golden_outputs.py`` and ``test_scripts.py``; these tests check the
memo's own rules: it stops growing, stores at most ``MAX_WIDE_KETS`` wide
kets and ``MAX_LANE_STATES`` lane states, never skips a check and never
caches a failure into a success.
"""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semiquantum import qsim
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import emit_transcript
from semiquantum.errors import ZeroProbabilityOutcome
from semiquantum.protocols import SqkaConfig, run_sqka
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
    first = _entangle_probe_session()
    interned = len(qsim._KETS)
    assert _entangle_probe_session() == first
    assert len(qsim._KETS) == interned


def _wide_kets() -> int:
    return sum(ket.k > 4 for ket in qsim._KETS.values())


def test_stored_wide_kets_stay_within_the_cap(monkeypatch):
    # the permuted attack joins slots into 5- and 6-qubit registers
    for seed in range(3):
        _entangle_probe_session(seed)
    assert 0 < _wide_kets() <= qsim.MAX_WIDE_KETS
    assert all(ket.k <= qsim.MAX_QUBITS for ket in qsim._KETS.values())
    first = _entangle_probe_session(11)
    # once the cap is reached a new wide ket is not stored, and the
    # sessions give the same bytes as before
    monkeypatch.setattr(qsim, "MAX_WIDE_KETS", _wide_kets() + 2)
    kets = [
        StateVector({0: math.cos(t), 63: math.sin(t)}, "abcdef")._ket for t in (0.125, 0.25, 0.375)
    ]
    assert [ket.stored for ket in kets] == [True, True, False]
    assert _wide_kets() == qsim.MAX_WIDE_KETS
    assert _entangle_probe_session(11) == first
    assert _wide_kets() == qsim.MAX_WIDE_KETS


# Runs a permuted entangle-probe session of each keyed protocol and a
# permuted intercept-resend dialogue with the lane-state cap set to argv[1],
# and prints their transcripts' digests.
_CAPPED_SESSIONS = """
import hashlib, sys
from semiquantum import qsim
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import emit_transcript
from semiquantum.protocols import SqdConfig, SqkaConfig, run_session
qsim.MAX_LANE_STATES = int(sys.argv[1])
for config in (
    SqkaConfig(n=100, seed=11, attack=AttackStrategy(AttackKind.CNOT), threshold=1.0),
    SqkaConfig(n=100, seed=12, attack=AttackStrategy(AttackKind.CNOT), protocol="sqkd"),
    SqdConfig(n=100, seed=13, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND), threshold=1.0),
):
    print(hashlib.sha256(emit_transcript(run_session(config))).hexdigest())
print(len(qsim._STATES))
"""


def _capped_sessions(cap: int) -> list[str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _CAPPED_SESSIONS, str(cap)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return out.stdout.split()


def test_lane_states_stay_within_the_cap():
    # the permuted attack joins slots, so registers move between lane states
    # and shared records
    for seed in range(3):
        _entangle_probe_session(seed)
    assert 0 < len(qsim._STATES) <= qsim.MAX_LANE_STATES
    assert all(state.stored for state in qsim._STATES.values())
    # with the cap lowered (above the 16 prepared |0>/|1> states interned at
    # import), the states past it are not stored and their ops take the
    # general path each time, giving the same bytes
    *digests, stored = _capped_sessions(qsim.MAX_LANE_STATES)
    *capped, stored_capped = _capped_sessions(24)
    assert capped == digests
    assert int(stored_capped) == 24 < int(stored) <= qsim.MAX_LANE_STATES


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
