"""Dialogue sessions: two-way decoding, outcome classes, measurement modes."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import run_trials, trial_record
from semiquantum.protocols import AbortReason, SqdConfig, decode_dialogue, run_sqd
from semiquantum.qsim import BellKind


# ---------------------------------------------------------------------------
# decoding law


@pytest.mark.parametrize(
    "outcome,own,expected",
    [
        (BellKind.PSI_MINUS, 0, 0),
        (BellKind.PHI_PLUS, 0, 1),
        (BellKind.PSI_PLUS, 1, 1),
        (BellKind.PHI_MINUS, 1, 0),
    ],
)
def test_decode_dialogue_examples(outcome, own, expected):
    assert decode_dialogue(outcome, own) == expected


@given(st.sampled_from(list(BellKind)), st.integers(0, 1))
def test_decode_dialogue_is_parity_xor(outcome, own):
    assert decode_dialogue(outcome, own) == outcome.parity ^ own


# ---------------------------------------------------------------------------
# honest sessions


@pytest.mark.parametrize("m_a", [0, 1])
@pytest.mark.parametrize("m_b", [0, 1])
def test_single_bit_combinations_decode_exactly(m_a, m_b):
    for seed in range(10):
        cfg = SqdConfig(n=1, seed=seed, alice_message=(m_a,), bob_message=(m_b,))
        out = run_sqd(cfg)
        assert not out.aborted
        assert out.keys["bob_decoded"] == (m_a,)
        assert out.keys["alice_decoded"] == (m_b,)
        # outcome class tracks the XOR of the two message bits
        kind = out.details["final_outcomes"][0]
        assert kind.parity == m_a ^ m_b


@pytest.mark.parametrize("seed", range(0, 30, 2))
def test_honest_multibit_decode(seed):
    out = run_sqd(SqdConfig(n=6, seed=seed))
    assert not out.aborted
    assert out.keys["bob_decoded"] == out.keys["alice_sent"]
    assert out.keys["alice_decoded"] == out.keys["bob_sent"]


@given(
    n=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32),
    mode=st.sampled_from(["bell", "zz"]),
)
def test_honest_dialogue_property(n, m, seed, mode):
    out = run_sqd(SqdConfig(n=n, m=m, seed=seed, final_measurement=mode))
    assert not out.aborted
    assert out.keys["bob_decoded"] == out.keys["alice_sent"]
    assert out.keys["alice_decoded"] == out.keys["bob_sent"]


def test_zz_final_measurement_equivalent():
    for seed in range(15):
        bell = run_sqd(SqdConfig(n=4, seed=seed, final_measurement="bell"))
        zz = run_sqd(SqdConfig(n=4, seed=seed, final_measurement="zz"))
        for out in (bell, zz):
            assert not out.aborted
            assert out.keys["bob_decoded"] == out.keys["alice_sent"]
            assert out.keys["alice_decoded"] == out.keys["bob_sent"]


def test_all_zero_messages_stay_in_psi_class():
    for seed in range(15):
        cfg = SqdConfig(n=2, seed=seed, alice_message=(0, 0), bob_message=(0, 0))
        out = run_sqd(cfg)
        for kind in out.details["final_outcomes"]:
            assert kind in (BellKind.PSI_PLUS, BellKind.PSI_MINUS)


def test_final_sign_is_random_but_class_is_not():
    signs = {0: 0, 1: 0}
    for seed in range(1200):
        cfg = SqdConfig(n=1, seed=seed, alice_message=(1,), bob_message=(0,))
        out = run_sqd(cfg)
        kind = out.details["final_outcomes"][0]
        assert kind.parity == 1
        signs[kind.sign] += 1
    frac = signs[0] / (signs[0] + signs[1])
    assert frac == pytest.approx(0.5, abs=0.05)


def test_rejects_bad_mode_and_lengths():
    with pytest.raises(ValueError):
        run_sqd(SqdConfig(n=2, final_measurement="bogus"))
    with pytest.raises(ValueError):
        run_sqd(SqdConfig(n=2, alice_message=(1,)))


# ---------------------------------------------------------------------------
# attacks


def test_intercept_resend_detected_by_correlation_check():
    caught = 0
    trials = 120
    for seed in range(trials):
        cfg = SqdConfig(n=4, seed=seed, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND))
        out = run_sqd(cfg)
        caught += out.abort_reason is AbortReason.CORRELATION_MISMATCH
    # Eve's substituted halves are uncorrelated with the home qubits:
    # each of the s=8 checked pairs mismatches with probability 1/2
    assert caught / trials == pytest.approx(1 - 0.5**8, abs=0.03)


def test_intercept_resend_identification_is_counted_over_encoded_wires():
    config = SqdConfig(n=8, threshold=1.0, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND))
    out = run_sqd(config)
    assert trial_record(out)["id_total"] == len(out.details["encoded_wires"]) == 8
    assert run_trials(config, 300, 1).eve_position_id_rate > 0


def test_measure_resend_survives_correlation_check():
    correlation = 0
    for seed in range(120):
        cfg = SqdConfig(n=4, seed=seed, attack=AttackStrategy(AttackKind.MEASURE_RESEND))
        out = run_sqd(cfg)
        correlation += out.abort_reason is AbortReason.CORRELATION_MISMATCH
    assert correlation == 0


def test_cnot_attack_key_recovery_without_permutation():
    for seed in range(10):
        cfg = SqdConfig(
            n=6,
            seed=seed,
            attack=AttackStrategy(AttackKind.CNOT),
            permutation_enabled=False,
        )
        out = run_sqd(cfg)
        assert not out.aborted
        assert out.eve_inferences == out.keys["bob_sent"]
