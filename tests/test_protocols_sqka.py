"""Key-agreement and key-distribution session tests."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.errors import ZeroCount
from semiquantum.protocols import (
    AbortReason,
    SqkaConfig,
    extract_bob_key_bit,
    run_sqka,
    run_sqkd,
    xor_bits,
)
from semiquantum.records import replace


def ir(seed=None):
    return AttackStrategy(AttackKind.INTERCEPT_RESEND, eve_rng_seed=seed)


# ---------------------------------------------------------------------------
# honest sessions


@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_honest_run_agrees(seed):
    out = run_sqka(SqkaConfig(n=5, seed=seed))
    assert not out.aborted
    assert out.abort_reason is AbortReason.NONE
    assert out.keys["alice"] == out.keys["bob"]
    assert out.error_rate_observed == 0.0
    raw = out.raw
    assert raw.r_a == raw.r_b
    assert raw.k_f == xor_bits(raw.k_a, raw.k_b)
    assert raw.k_f == xor_bits(xor_bits(raw.r_a, raw.k_a), xor_bits(raw.r_b, raw.k_b))


@given(
    n=st.integers(min_value=1, max_value=10),
    m=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_honest_agreement_property(n, m, seed):
    out = run_sqka(SqkaConfig(n=n, m=m, seed=seed))
    assert not out.aborted
    assert out.keys["alice"] == out.keys["bob"]
    assert out.raw.r_a == out.raw.r_b


def _index_of(transcript, action: str) -> int:
    """The index of the one event with ``action``; fails unless there is exactly one."""
    (index,) = [e["index"] for e in transcript.events if e["action"] == action]
    return index


def test_transcript_ordering():
    for seed in range(20):
        out = run_sqka(SqkaConfig(n=3, seed=seed))
        t = out.transcript
        announce = _index_of(t, "announce_K_A")
        reveal = _index_of(t, "reveal_Pi_n")
        compute = _index_of(t, "compute_K_f")
        assert announce < reveal < compute


def test_forced_all_zero_alice_key():
    cfg = SqkaConfig(n=6, seed=5, fixed_k_a=(0,) * 6)
    out = run_sqka(cfg)
    assert out.keys["alice"] == out.keys["bob"] == out.raw.k_b


def test_default_decoy_ratio():
    cfg = SqkaConfig(n=4)
    assert cfg.decoy_count() == 12
    assert SqkaConfig(n=4, m=7).decoy_count() == 7


def test_rejects_zero_counts():
    with pytest.raises(ZeroCount):
        run_sqka(SqkaConfig(n=0, m=1))
    with pytest.raises(ZeroCount):
        run_sqka(SqkaConfig(n=1, m=0))


CLASSICAL_SURFACE = {"prepare_z", "measure_z", "reflect", "permute", "send_classical"}


def test_bob_stays_classical():
    # instrumented call log: no forbidden op ever reaches the classical party
    for seed in range(10):
        out = run_sqka(SqkaConfig(n=4, seed=seed))
        ops = out.details["party_ops"]
        assert set(ops["bob"]) <= CLASSICAL_SURFACE
        assert set(ops["bob"]) >= {"prepare_z", "measure_z", "reflect", "permute"}
        assert "measure_bell" in ops["alice"]


# ---------------------------------------------------------------------------
# key-bit extraction (exhaustive mapping)


@pytest.mark.parametrize(
    "r_a,k_b,travel",
    [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)],
)
def test_extraction_mapping_exhaustive(r_a, k_b, travel):
    # travel qubit carries r_b xor k_b with r_b = r_a for psi+ pairs
    assert extract_bob_key_bit(r_a, travel) == k_b


@given(st.integers(0, 1), st.integers(0, 1))
def test_extraction_is_xor(r_a, travel):
    assert extract_bob_key_bit(r_a, travel) == r_a ^ travel


# ---------------------------------------------------------------------------
# the deterministic distribution reduction


@pytest.mark.parametrize("seed", range(0, 30, 2))
def test_sqkd_honest_decode(seed):
    out = run_sqkd(SqkaConfig(n=5, seed=seed, protocol="sqkd"))
    assert not out.aborted
    assert out.keys["alice"] == out.keys["bob"] == out.raw.k_b
    assert not [e for e in out.transcript.events if e["action"] == "announce_K_A"]
    assert _index_of(out.transcript, "reveal_Pi_n") < _index_of(out.transcript, "compute_K_f")


def test_sqkd_all_zero_key():
    out = run_sqkd(SqkaConfig(n=4, seed=2, fixed_k_b=(0,) * 4, protocol="sqkd"))
    assert out.keys["alice"] == (0, 0, 0, 0)


def test_sqkd_cnot_without_permutation_leaks_key():
    for seed in range(12):
        cfg = SqkaConfig(
            n=8,
            seed=seed,
            attack=AttackStrategy(AttackKind.CNOT),
            permutation_enabled=False,
            protocol="sqkd",
        )
        out = run_sqkd(cfg)
        assert not out.aborted
        assert out.eve_inferences == out.raw.k_b


# ---------------------------------------------------------------------------
# dishonest-party hooks and commitments


def test_dishonest_alice_caught_by_commitment():
    cfg = SqkaConfig(n=4, seed=3, dishonest_k_a=(1, 1, 1, 1), fixed_k_a=(0, 0, 0, 0))
    out = run_sqka(cfg)
    assert out.aborted
    assert out.abort_reason is AbortReason.COMMITMENT_MISMATCH


def test_dishonest_alice_controls_key_without_commitments():
    cfg = SqkaConfig(
        n=4,
        seed=3,
        dishonest_k_a=(1, 1, 1, 1),
        fixed_k_a=(0, 0, 0, 0),
        commitments_enabled=False,
    )
    out = run_sqka(cfg)
    assert not out.aborted
    assert out.keys["alice"] == out.keys["bob"] == xor_bits((1, 1, 1, 1), out.raw.k_b)


def test_dishonest_bob_permutation_caught_by_commitment():
    found = False
    for seed in range(30):
        cfg = SqkaConfig(n=4, seed=seed, dishonest_pi_n=True)
        out = run_sqka(cfg)
        if out.aborted:
            assert out.abort_reason is AbortReason.COMMITMENT_MISMATCH
            found = True
    # the swap is only visible when the two swapped travel bits differ
    assert found


# ---------------------------------------------------------------------------
# attacks


def test_intercept_resend_small_case_abort_rate():
    # n=1, m=1 with the secret permutation: enumerating the two permutations
    # of the returned pair gives abort = 1/2 * 1 + 1/2 * 3/4 = 7/8 under the
    # ambiguous-slot resend rule (the identity permutation pins Eve's own
    # pair on its wire, so her complement resend always breaks the decoy).
    trials = 1200
    aborts = 0
    for seed in range(trials):
        out = run_sqka(
            SqkaConfig(n=1, m=1, seed=seed, attack=ir(), commitments_enabled=False)
        )
        aborts += out.aborted
    assert aborts / trials == pytest.approx(7 / 8, abs=0.03)


def test_intercept_resend_identification_and_damage():
    id_hits = id_total = mismatches = bits = 0
    for seed in range(40):
        cfg = replace(
            SqkaConfig(n=40, m=4, seed=seed, attack=ir(), permutation_enabled=False),
            threshold=1.0, commitments_enabled=False,
        )
        out = run_sqka(cfg)
        assert not out.aborted
        cls = out.details["eve_wire_classifications"]
        for w in out.details["encoded_wires"]:
            id_total += 1
            id_hits += cls.get(w) == "measured"
        expected, actual = out.details["match_bits"]
        bits += len(expected)
        mismatches += sum(1 for e, a in zip(expected, actual) if e != a)
    assert id_hits / id_total == pytest.approx(0.75, abs=0.04)
    assert mismatches / bits == pytest.approx(0.25, abs=0.04)


def test_attack_never_decreases_abort_probability():
    honest_aborts = attacked_aborts = 0
    for seed in range(80):
        honest_aborts += run_sqka(SqkaConfig(n=2, m=2, seed=seed)).aborted
        attacked_aborts += run_sqka(
            SqkaConfig(n=2, m=2, seed=seed, attack=ir(), commitments_enabled=False)
        ).aborted
    assert honest_aborts == 0
    assert attacked_aborts > 0


def test_measure_resend_keeps_keys_but_trips_decoys():
    passed = 0
    for seed in range(120):
        cfg = SqkaConfig(
            n=4,
            m=2,
            seed=seed,
            attack=AttackStrategy(AttackKind.MEASURE_RESEND),
            commitments_enabled=False,
        )
        out = run_sqka(cfg)
        if not out.aborted:
            passed += 1
            assert out.keys["alice"] == out.keys["bob"]
    # per-decoy mismatch 1/2 -> both decoys pass with probability 1/4
    assert passed / 120 == pytest.approx(0.25, abs=0.12)


