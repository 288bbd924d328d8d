"""Simulator unit tests against independent linear-algebra oracles."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiquantum import qsim
from semiquantum.errors import (
    DuplicateLabel,
    EqualBellKinds,
    NonOrthonormalBasis,
    RegisterTooLarge,
    UnknownLabel,
)
from semiquantum.qsim import (
    COMPUTATIONAL,
    HADAMARD,
    BellKind,
    MeasurementRecord,
    OrthonormalPair,
    Lanes,
    StateVector,
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
    reordered,
)
from semiquantum.qsim_reference import labels as lane_labels, state_of
from semiquantum.rng import RandomSource

S = 1 / np.sqrt(2)

# Oracle Bell vectors built from their defining formulas, independent of the
# package's table.
ORACLE_BELLS = {
    BellKind.PSI_PLUS: np.array([1, 0, 0, 1]) * S,
    BellKind.PSI_MINUS: np.array([1, 0, 0, -1]) * S,
    BellKind.PHI_PLUS: np.array([0, 1, 1, 0]) * S,
    BellKind.PHI_MINUS: np.array([0, 1, -1, 0]) * S,
}


def oracle_bell_probs(vec4):
    return {k: abs(np.vdot(b, vec4)) ** 2 for k, b in ORACLE_BELLS.items()}


def oracle_z_marginal(state, label):
    """Probability of outcome 1 for one qubit by brute-force index masking."""
    k = state.num_qubits
    pos = state.labels.index(label)
    p1 = 0.0
    for i, amp in enumerate(state.amplitudes):
        if (i >> (k - 1 - pos)) & 1:
            p1 += abs(amp) ** 2
    return p1


# ---------------------------------------------------------------------------
# preparation


def test_bell_amplitudes_match_definitions():
    for kind, vec in ORACLE_BELLS.items():
        got = prepare_bell(kind).amplitudes
        assert np.allclose(got, vec, atol=1e-15)


def test_phi_minus_amplitudes():
    got = prepare_bell(BellKind.PHI_MINUS).amplitudes
    assert np.allclose(got, [0, S, -S, 0], atol=1e-15)


def test_bell_normalization():
    for kind in BellKind:
        state = prepare_bell(kind)
        assert abs(state.norm() - 1.0) < 1e-12


def test_prepare_z():
    assert np.allclose(prepare_z(0).amplitudes, [1, 0])
    assert np.allclose(prepare_z(1).amplitudes, [0, 1])
    with pytest.raises(ValueError):
        prepare_z(2)


def test_measure_prepare_z_idempotent():
    rng = RandomSource(11)
    for bit in (0, 1):
        rec = measure_z(prepare_z(bit), "q0", rng)
        assert rec.outcome == bit
        assert rec.probability == pytest.approx(1.0)
        assert rec.post_state is None


def test_ghz_like_amplitudes():
    state = prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS)
    # (|psi+>|0> + |phi+>|1>)/sqrt(2) puts weight 1/2 on 000, 110, 011, 101
    expected = np.zeros(8)
    for idx in (0b000, 0b110, 0b011, 0b101):
        expected[idx] = 0.5
    assert np.allclose(state.amplitudes, expected, atol=1e-15)
    assert abs(state.norm() - 1.0) < 1e-12


def test_ghz_like_rejects_equal_kinds():
    with pytest.raises(EqualBellKinds):
        prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PSI_PLUS)


@pytest.mark.parametrize("psi1,psi2", [(a, b) for a in BellKind for b in BellKind if a is not b])
def test_ghz_branch_collapse(psi1, psi2):
    # controller outcome a -> Bell pair collapses to psi1; b -> psi2
    for branch, expected in ((0, psi1), (1, psi2)):
        state = prepare_ghz_like(psi1, psi2, COMPUTATIONAL, ("x", "y", "c"))
        prob, post = project_ab(state, "c", COMPUTATIONAL, branch)
        assert prob == pytest.approx(0.5, abs=1e-12)
        bprob, _ = project_bell(post, "x", "y", expected)
        assert bprob == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# gates


def test_cnot_on_bell_half_gives_three_qubit_chain():
    pair = prepare_bell(BellKind.PSI_PLUS, ("a", "t"))
    state = merge_registers(pair, prepare_z(0, "e"))
    state = apply_cnot(state, "t", "e")
    expected = np.zeros(8)
    expected[0b000] = S
    expected[0b111] = S
    assert np.allclose(state.amplitudes, expected, atol=1e-15)


def test_cnot_involution():
    rng = RandomSource(5)
    state = prepare_ghz_like(BellKind.PSI_MINUS, BellKind.PHI_PLUS, COMPUTATIONAL, ("a", "b", "c"))
    twice = apply_cnot(apply_cnot(state, "a", "c"), "a", "c")
    assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-15)
    assert rng.seed == 5  # no sampling involved


def test_cnot_on_product_state():
    state = merge_registers(prepare_z(1, "c"), prepare_z(0, "t"))
    state = apply_cnot(state, "c", "t")
    assert np.allclose(state.amplitudes, [0, 0, 0, 1])  # |11>


def test_cnot_unknown_label():
    state = prepare_bell(BellKind.PSI_PLUS, ("a", "b"))
    with pytest.raises(UnknownLabel):
        apply_cnot(state, "a", "nope")
    with pytest.raises(ValueError):
        apply_cnot(state, "a", "a")


def test_apply_x():
    assert np.allclose(apply_x(prepare_z(0), "q0").amplitudes, [0, 1])


def test_relabeling_equivariance():
    # the same gate acting on the same physical qubits commutes with slot order
    a = merge_registers(prepare_bell(BellKind.PSI_PLUS, ("p", "q")), prepare_z(0, "r"))
    b = merge_registers(prepare_z(0, "r"), prepare_bell(BellKind.PSI_PLUS, ("p", "q")))
    ga = apply_cnot(a, "q", "r")
    gb = apply_cnot(b, "q", "r")
    assert np.allclose(reordered(gb, ga.labels).amplitudes, ga.amplitudes, atol=1e-15)


# ---------------------------------------------------------------------------
# measurements


def test_measure_z_on_bell_half():
    probs = qsim.z_probabilities(prepare_bell(BellKind.PSI_PLUS, ("a", "b")), "a")
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
    for outcome in (0, 1):
        prob, post = project_z(prepare_bell(BellKind.PSI_PLUS, ("a", "b")), "a", outcome)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert post.labels == ("b",)
        assert np.allclose(post.amplitudes, prepare_z(outcome).amplitudes, atol=1e-12)


def test_sequential_z_on_bell_pair_agree():
    for seed in range(40):
        rng = RandomSource(seed)
        rec1 = measure_z(prepare_bell(BellKind.PSI_PLUS, ("a", "b")), "a", rng)
        rec2 = measure_z(rec1.post_state, "b", rng)
        assert rec1.outcome == rec2.outcome
        assert rec2.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_bell_eigenstates():
    rng = RandomSource(3)
    for kind in BellKind:
        rec = measure_bell(prepare_bell(kind, ("a", "b")), "a", "b", rng)
        assert rec.outcome is kind
        assert rec.probability == pytest.approx(1.0, abs=1e-12)
        assert rec.post_state is None


@pytest.mark.parametrize(
    "bits,expected",
    [
        ((0, 0), {BellKind.PSI_PLUS: 0.5, BellKind.PSI_MINUS: 0.5}),
        ((1, 1), {BellKind.PSI_PLUS: 0.5, BellKind.PSI_MINUS: 0.5}),
        ((0, 1), {BellKind.PHI_PLUS: 0.5, BellKind.PHI_MINUS: 0.5}),
        ((1, 0), {BellKind.PHI_PLUS: 0.5, BellKind.PHI_MINUS: 0.5}),
    ],
)
def test_bell_expansion_parity_rule(bits, expected):
    state = merge_registers(prepare_z(bits[0], "a"), prepare_z(bits[1], "b"))
    probs = dict(zip(qsim.BELL_ORDER, bell_probabilities(state, "a", "b")))
    oracle = oracle_bell_probs(state.amplitudes)
    for kind in BellKind:
        assert probs[kind] == pytest.approx(expected.get(kind, 0.0), abs=1e-12)
        assert probs[kind] == pytest.approx(oracle[kind], abs=1e-12)


def test_measure_ab_certainty_and_normalization():
    rng = RandomSource(9)
    rec = measure_ab(prepare_z(0), "q0", COMPUTATIONAL, rng)
    assert rec.outcome == 0 and rec.probability == pytest.approx(1.0)
    plus = StateVector(np.array([S, S]), ("q0",))
    probs = qsim.ab_probabilities(plus, "q0", HADAMARD)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_measure_ab_rejects_bad_basis():
    with pytest.raises(NonOrthonormalBasis):
        OrthonormalPair(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(NonOrthonormalBasis):
        OrthonormalPair(np.array([1.0, 1.0]), np.array([1.0, -1.0]))  # unnormalized


def test_bases_compare_and_hash_on_their_components():
    from semiquantum.protocols import CdssqcConfig

    same = OrthonormalPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert same == COMPUTATIONAL and hash(same) == hash(COMPUTATIONAL)
    assert HADAMARD != COMPUTATIONAL
    assert len({COMPUTATIONAL, same, HADAMARD}) == 2
    assert CdssqcConfig(n=2, controller_basis=same) == CdssqcConfig(n=2)
    assert hash(CdssqcConfig(n=2, controller_basis=same)) == hash(CdssqcConfig(n=2))
    assert CdssqcConfig(n=2, controller_basis=HADAMARD) != CdssqcConfig(n=2)


def test_measure_ab_collapses_ghz_branch():
    rng = RandomSource(21)
    seen = set()
    for seed in range(30):
        state = prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, ("x", "y", "c"))
        rec = measure_ab(state, "c", COMPUTATIONAL, RandomSource(seed))
        seen.add(rec.outcome)
        expected = BellKind.PSI_PLUS if rec.outcome == 0 else BellKind.PHI_PLUS
        prob, _ = project_bell(rec.post_state, "x", "y", expected)
        assert prob == pytest.approx(1.0, abs=1e-12)
    assert seen == {0, 1}
    assert isinstance(rng, RandomSource)


# ---------------------------------------------------------------------------
# merging


def test_merge_layout_and_norm():
    state = merge_registers(prepare_z(0, "z"), prepare_bell(BellKind.PSI_PLUS, ("a", "b")))
    expected = np.zeros(8)
    expected[0b000] = S
    expected[0b011] = S
    assert np.allclose(state.amplitudes, expected, atol=1e-15)
    assert abs(state.norm() - 1.0) < 1e-12


def test_merge_preserves_marginals():
    left = prepare_bell(BellKind.PHI_MINUS, ("a", "b"))
    right = prepare_z(1, "c")
    merged = merge_registers(left, right)
    for label in ("a", "b"):
        assert oracle_z_marginal(merged, label) == pytest.approx(
            oracle_z_marginal(left, label), abs=1e-12
        )
    # measuring the untouched qubit leaves the pair marginals alone
    _, post = project_z(merged, "c", 1)
    for label in ("a", "b"):
        assert oracle_z_marginal(post, label) == pytest.approx(
            oracle_z_marginal(left, label), abs=1e-12
        )


def test_merge_errors():
    a = prepare_bell(BellKind.PSI_PLUS, ("a", "b"))
    with pytest.raises(DuplicateLabel):
        merge_registers(a, prepare_z(0, "a"))
    big = merge_registers(
        merge_registers(prepare_bell(BellKind.PSI_PLUS, ("a", "b")), prepare_bell(BellKind.PSI_PLUS, ("c", "d"))),
        prepare_bell(BellKind.PSI_PLUS, ("e", "f")),
    )
    with pytest.raises(RegisterTooLarge):
        merge_registers(big, prepare_z(0, "g"))


def test_state_vector_validation():
    with pytest.raises(DuplicateLabel):
        StateVector(np.array([S, 0, 0, S]), ("a", "a"))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), ("a",))  # unnormalized


# ---------------------------------------------------------------------------
# randomized properties


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_random_source_determinism(seed):
    a, b = RandomSource(seed), RandomSource(seed)
    assert [a.bit() for _ in range(8)] == [b.bit() for _ in range(8)]


def test_norm_preserved_under_random_walk():
    rng = RandomSource(2024)
    ops = 0
    a, b, c = 0, 1, 8  # a pair in lane 0, a qubit in lane 1
    while ops < 2000:
        lanes = Lanes(2)
        lanes.prepare_bell(BellKind.PSI_PLUS, a, b)
        lanes.prepare_z(rng.bit(), c)
        lanes.cnot(b, c)
        for label in (a, b, c):
            state = state_of(lanes, label)
            assert abs(state.norm() - 1.0) < 1e-12
        lanes.measure_bell(a, c, rng)
        state = state_of(lanes, b)
        assert abs(state.norm() - 1.0) < 1e-12
        ops += 6


def test_born_frequencies_chi_square():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = RandomSource(77)
    counts = [0, 0]
    trials = 4000
    for _ in range(trials):
        rec = measure_z(prepare_bell(BellKind.PSI_PLUS, ("a", "b")), "a", rng)
        counts[rec.outcome] += 1
    res = scipy_stats.chisquare(counts)
    assert res.pvalue > 0.001


# ---------------------------------------------------------------------------
# register bank: the slot lanes


def test_register_bank_merges_and_removes():
    rng = RandomSource(4)
    lanes = Lanes(2)
    h, t, e = 0, 1, 12  # a pair in lane 0, a qubit in lane 1
    lanes.prepare_bell(BellKind.PSI_PLUS, h, t)
    lanes.prepare_z(0, e)
    lanes.cnot(t, e)  # merges the registers
    merged = state_of(lanes, h)
    assert merged.labels == (h, t, e) and state_of(lanes, e).labels == merged.labels
    bit = lanes.measure_z(t, rng)
    assert t not in lane_labels(lanes)
    assert lanes.measure_z(h, rng) == bit == lanes.measure_z(e, rng)
    assert lane_labels(lanes) == set()


def test_register_bank_unknown_label():
    lanes = Lanes(1)
    with pytest.raises(UnknownLabel):
        state_of(lanes, 0)


def test_measurement_record_shape():
    rng = RandomSource(1)
    rec = measure_z(prepare_bell(BellKind.PSI_PLUS, ("a", "b")), "a", rng)
    assert isinstance(rec, MeasurementRecord)
    assert rec.outcome in (0, 1)
    assert 0.0 <= rec.probability <= 1.0
    assert rec.post_state.labels == ("b",)
