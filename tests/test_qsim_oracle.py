"""The sparse simulator against a dense numpy oracle, and sampling edge cases.

The oracle below keeps every register as a dense tensor and builds gates and
measurement bras with ``np.kron``/``np.tensordot``, so it shares no code with
``qsim``'s index arithmetic.  No benchmark workload measures in a
non-computational basis, so this is the only check of those branches.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiquantum import analysis, qsim
from semiquantum.errors import DuplicateLabel, SemiQuantumError, ZeroProbabilityOutcome
from semiquantum.protocols import SqkaConfig
from semiquantum.qsim import (
    BELL_ORDER,
    COMPUTATIONAL,
    BellKind,
    OrthonormalPair,
    StateVector,
    ab_probabilities,
    apply_cnot,
    apply_x,
    bell_probabilities,
    measure_ab,
    measure_bell,
    measure_z,
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

TOL = 1e-12
S = 1 / math.sqrt(2)
KET = {0: np.array([1, 0], dtype=complex), 1: np.array([0, 1], dtype=complex)}
X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
BELLS = {
    BellKind.PSI_PLUS: np.array([1, 0, 0, 1]) * S,
    BellKind.PSI_MINUS: np.array([1, 0, 0, -1]) * S,
    BellKind.PHI_PLUS: np.array([0, 1, 1, 0]) * S,
    BellKind.PHI_MINUS: np.array([0, 1, -1, 0]) * S,
}


# ---------------------------------------------------------------------------
# dense oracle: (vector, labels) pairs


def kron_all(factors):
    out = np.ones(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def operator(k, placed):
    """Kronecker product with ``placed[pos]`` at its positions and I elsewhere."""
    return kron_all([placed.get(p, I2) for p in range(k)])


def oracle_cnot(vec, k, c, t):
    p0, p1 = np.outer(KET[0], KET[0]), np.outer(KET[1], KET[1])
    return (operator(k, {c: p0}) + operator(k, {c: p1, t: X})) @ vec


def oracle_x(vec, k, t):
    return operator(k, {t: X}) @ vec


def oracle_branches(vec, labels, positions, bras):
    """Born weight and renormalized remainder for each bra on ``positions``."""
    k = len(labels)
    tensor = vec.reshape([2] * k)
    rest = [l for p, l in enumerate(labels) if p not in positions]
    out = []
    for bra in bras:
        bra_tensor = bra.conj().reshape([2] * len(positions))
        amp = np.tensordot(bra_tensor, tensor, axes=(list(range(len(positions))), positions))
        amp = np.asarray(amp).reshape(-1)
        prob = float(np.vdot(amp, amp).real)
        post = amp / math.sqrt(prob) if prob > 0 and rest else None
        out.append((prob, post, tuple(rest)))
    return out


def assert_state(sv, vec, labels):
    assert sv.labels == tuple(labels)
    assert np.max(np.abs(sv.amplitudes - vec)) <= TOL


def random_basis(theta, phi, alpha):
    a = np.array([math.cos(theta), np.exp(1j * phi) * math.sin(theta)])
    b = np.exp(1j * alpha) * np.array([-np.exp(-1j * phi) * math.sin(theta), math.cos(theta)])
    return OrthonormalPair(a, b)


angles = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)
bases = st.builds(random_basis, angles, angles, angles)
OPS = ("prepare", "merge", "cnot", "x", "z", "bell", "ab")


@settings(max_examples=200)
@given(st.data())
def test_random_op_sequences_match_dense_oracle(data):
    registers = []  # [StateVector, oracle vector]
    fresh = iter(f"q{i}" for i in range(10_000))
    rng = RandomSource(data.draw(st.integers(0, 2**32), label="seed"))

    def pick(min_qubits):
        regs = [r for r in registers if r[0].num_qubits >= min_qubits]
        return data.draw(st.sampled_from(regs)) if regs else None

    def check_measurement(reg, positions, bras, probs, project, measure):
        sv, vec = reg
        branches = oracle_branches(vec, sv.labels, positions, bras)
        assert np.max(np.abs(np.asarray(probs) - [b[0] for b in branches])) <= TOL
        live = [o for o, b in enumerate(branches) if b[0] > 1e-9]
        o = data.draw(st.sampled_from(live))
        prob, post = project(o)
        assert abs(prob - branches[o][0]) <= TOL
        if post is not None:
            assert_state(post, branches[o][1], branches[o][2])
        rec = measure(rng)
        outcome = rec.outcome
        if isinstance(outcome, BellKind):
            outcome = BELL_ORDER.index(outcome)
        assert branches[outcome][0] > 0
        assert abs(rec.probability - branches[outcome][0]) <= TOL
        registers[:] = [r for r in registers if r is not reg]
        if rec.post_state is None:
            assert branches[outcome][1] is None
        else:
            assert_state(rec.post_state, branches[outcome][1], branches[outcome][2])
            registers.append([rec.post_state, branches[outcome][1]])

    for _ in range(data.draw(st.integers(1, 14), label="steps")):
        op = data.draw(st.sampled_from(OPS))
        if op == "prepare":
            shape = data.draw(st.sampled_from(("z", "bell", "ghz")))
            if shape == "z":
                bit = data.draw(st.integers(0, 1))
                reg = [prepare_z(bit, next(fresh)), KET[bit]]
            elif shape == "bell":
                kind = data.draw(st.sampled_from(BELL_ORDER))
                reg = [prepare_bell(kind, (next(fresh), next(fresh))), BELLS[kind].astype(complex)]
            else:
                psi1, psi2 = data.draw(st.permutations(BELL_ORDER))[:2]
                basis = data.draw(bases)
                labels = (next(fresh), next(fresh), next(fresh))
                vec = (np.kron(BELLS[psi1], basis.a) + np.kron(BELLS[psi2], basis.b)) * S
                reg = [prepare_ghz_like(psi1, psi2, basis, labels), vec]
            assert_state(reg[0], reg[1], reg[0].labels)
            registers.append(reg)
        elif op == "merge" and len(registers) >= 2:
            i, j = data.draw(st.permutations(range(len(registers))))[:2]
            a, b = registers[i], registers[j]
            if a[0].num_qubits + b[0].num_qubits > qsim.MAX_QUBITS:
                continue
            merged = [merge_registers(a[0], b[0]), np.kron(a[1], b[1])]
            assert_state(merged[0], merged[1], a[0].labels + b[0].labels)
            registers[:] = [r for r in registers if r is not a and r is not b] + [merged]
        elif op == "cnot" and (reg := pick(2)):
            sv, vec = reg
            c, t = data.draw(st.permutations(range(sv.num_qubits)))[:2]
            reg[0] = apply_cnot(sv, sv.labels[c], sv.labels[t])
            reg[1] = oracle_cnot(vec, sv.num_qubits, c, t)
            assert_state(reg[0], reg[1], sv.labels)
        elif op == "x" and (reg := pick(1)):
            sv, vec = reg
            t = data.draw(st.integers(0, sv.num_qubits - 1))
            reg[0] = apply_x(sv, sv.labels[t])
            reg[1] = oracle_x(vec, sv.num_qubits, t)
            assert_state(reg[0], reg[1], sv.labels)
        elif op == "z" and (reg := pick(1)):
            sv = reg[0]
            q = data.draw(st.sampled_from(sv.labels))
            check_measurement(
                reg, [sv.position(q)], [KET[0], KET[1]], z_probabilities(sv, q),
                lambda o: project_z(sv, q, o), lambda r: measure_z(sv, q, r),
            )
        elif op == "bell" and (reg := pick(2)):
            sv = reg[0]
            q1, q2 = data.draw(st.permutations(sv.labels))[:2]
            check_measurement(
                reg, [sv.position(q1), sv.position(q2)], [BELLS[k] for k in BELL_ORDER],
                bell_probabilities(sv, q1, q2),
                lambda o: project_bell(sv, q1, q2, BELL_ORDER[o]),
                lambda r: measure_bell(sv, q1, q2, r),
            )
        elif op == "ab" and (reg := pick(1)):
            sv = reg[0]
            q = data.draw(st.sampled_from(sv.labels))
            basis = data.draw(bases)
            check_measurement(
                reg, [sv.position(q)], [basis.a, basis.b], ab_probabilities(sv, q, basis),
                lambda o: project_ab(sv, q, basis, o), lambda r: measure_ab(sv, q, basis, r),
            )


def test_dense_and_sparse_construction_agree():
    dense = StateVector(np.array([S, 0, 0, -S]), ("a", "b"))
    sparse = StateVector({0: S, 3: -S}, ("a", "b"))
    assert np.array_equal(dense.amplitudes, sparse.amplitudes)
    assert type(dense.amplitudes) is tuple  # read-only: a tuple
    with pytest.raises(ValueError):
        StateVector({4: 1.0}, ("a", "b"))  # index outside the register
    with pytest.raises(ValueError):
        StateVector({0: S}, ("a", "b"))  # unnormalized


def test_bell_measurement_of_one_qubit_twice_raises():
    state = prepare_bell(BellKind.PSI_PLUS, ("a", "b"))
    with pytest.raises(DuplicateLabel):
        bell_probabilities(state, "a", "a")

# ---------------------------------------------------------------------------
# sampling: draw-order contract and the shortfall fallback


class StubRng:
    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


class Weights:
    """A measurement step reduced to what ``_sample`` reads: the running sums
    of outcome weights."""

    def __init__(self, probs):
        self.cuts = qsim._cuts(probs)


def test_sample_takes_first_outcome_whose_running_sum_exceeds_draw():
    step = Weights([0.25, 0.25, 0.5])
    draws = (0.0, 0.2499, 0.25, 0.5, 0.9999)
    assert [qsim._sample(step, StubRng(r)) for r in draws] == [0, 0, 1, 2, 2]


def test_sample_shortfall_falls_back_to_last_nonzero_outcome():
    # the weights sum below the draw and the last outcome is impossible
    step = Weights([0.5, 0.4999999999999996, 0.0])
    assert qsim._sample(step, StubRng(0.9999999999999999)) == 1


def test_sample_with_no_possible_outcome_raises():
    with pytest.raises(ZeroProbabilityOutcome):
        qsim._sample(Weights([0.0, 0.0]), StubRng(0.5))


def test_zero_probability_collapse_is_a_package_error():
    with pytest.raises(ZeroProbabilityOutcome):
        project_z(prepare_z(0, "a"), "a", 1)
    with pytest.raises(SemiQuantumError):
        project_ab(prepare_z(1, "a"), "a", COMPUTATIONAL, 0)


def test_run_trials_counts_zero_probability_collapse_as_failure(monkeypatch):
    # force every measurement onto its last outcome, which a definite |0>
    # qubit cannot take
    monkeypatch.setattr(qsim, "_sample", lambda step, rng: len(step.probs) - 1)
    stats = analysis.run_trials(SqkaConfig(n=2, m=2), 3, 1)
    assert stats.failures == 3


def test_measure_record_uses_one_draw_per_measurement():
    rng = StubRng(0.7, 0.1)
    rec = measure_bell(merge_registers(prepare_z(0, "a"), prepare_z(1, "b")), "a", "b", rng)
    assert rec.outcome is BellKind.PHI_MINUS and rng.draws == [0.1]
    assert measure_z(prepare_bell(BellKind.PSI_PLUS, ("a", "b")), "a", rng).outcome == 0
    assert rng.draws == []
