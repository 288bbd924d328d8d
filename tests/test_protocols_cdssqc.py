"""Controlled direct communication sessions: both variants, control power,
and the attacks specific to the distribution leg."""
import pytest

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.protocols import (
    AbortReason,
    CdssqcConfig,
    CdssqcVariant,
    run_cdssqc_ghz,
    run_cdssqc_switch,
)
from semiquantum.qsim import (
    COMPUTATIONAL,
    BellKind,
    prepare_ghz_like,
    project_ab,
    project_z,
    z_probabilities,
)


def switch_cfg(**kw):
    kw.setdefault("variant", CdssqcVariant.SWITCH)
    return CdssqcConfig(**kw)


# ---------------------------------------------------------------------------
# GHZ-like variant


@pytest.mark.parametrize("seed", range(0, 30, 2))
def test_ghz_honest_decode(seed):
    out = run_cdssqc_ghz(CdssqcConfig(n=5, seed=seed))
    assert not out.aborted
    assert out.keys["bob_decoded"] == out.keys["alice_sent"]


@pytest.mark.parametrize(
    "psi1,psi2",
    [
        (BellKind.PSI_PLUS, BellKind.PHI_PLUS),
        (BellKind.PHI_MINUS, BellKind.PSI_MINUS),
        (BellKind.PSI_PLUS, BellKind.PSI_MINUS),
        (BellKind.PHI_PLUS, BellKind.PHI_MINUS),
    ],
)
def test_ghz_honest_decode_across_assignments(psi1, psi2):
    for seed in range(6):
        out = run_cdssqc_ghz(CdssqcConfig(n=3, seed=seed, psi1=psi1, psi2=psi2))
        assert not out.aborted
        assert out.keys["bob_decoded"] == out.keys["alice_sent"]


def test_ghz_all_zero_message():
    out = run_cdssqc_ghz(CdssqcConfig(n=4, seed=1, message=(0, 0, 0, 0)))
    assert out.keys["bob_decoded"] == (0, 0, 0, 0)


def test_alice_stays_classical_here():
    # the sender is the classical party in the controlled protocols
    out = run_cdssqc_ghz(CdssqcConfig(n=4, seed=7))
    ops = out.details["party_ops"]
    assert set(ops["alice"]) <= {"prepare_z", "measure_z", "reflect", "permute", "send_classical"}
    assert "measure_bell" in ops["bob"]
    assert "prepare_ghz_like" in ops["charlie"]


def test_ghz_rejects_equal_components():
    with pytest.raises(ValueError):
        run_cdssqc_ghz(CdssqcConfig(n=2, psi1=BellKind.PSI_PLUS, psi2=BellKind.PSI_PLUS))


def test_ghz_message_length_validation():
    with pytest.raises(ValueError):
        run_cdssqc_ghz(CdssqcConfig(n=3, message=(0, 1)))


def test_spot_check_budget():
    out = run_cdssqc_ghz(CdssqcConfig(n=4, seed=0))
    assert out.details["spot_checked"] == min(12, 8)
    assert out.details["decoy_checked"] == 12 - 8
    with pytest.raises(ValueError):
        CdssqcConfig(n=2, m=3, spot_check_size=4).spot_count()


def test_ghz_decode_rule_exhaustive_enumeration():
    """Independent oracle for the decode rule M = travel ^ partner ^ parity:
    enumerate every Bell assignment, both controller branches, both of the
    sender's measurement outcomes, and both message bits via projections."""
    assignments = [(p1, p2) for p1 in BellKind for p2 in BellKind if p1 is not p2]
    for psi1, psi2 in assignments:
        for branch in (0, 1):
            for r_a in (0, 1):
                for message in (0, 1):
                    state = prepare_ghz_like(psi1, psi2, COMPUTATIONAL, ("A", "B", "C"))
                    prob_b, state = project_ab(state, "C", COMPUTATIONAL, branch)
                    assert prob_b == pytest.approx(0.5, abs=1e-12)
                    # sender's Z measurement on her qubit
                    prob_r, partner = project_z(state, "A", r_a)
                    assert prob_r == pytest.approx(0.5, abs=1e-12)
                    travel = message ^ r_a
                    # receiver's Z outcome on the partner qubit is forced
                    probs = z_probabilities(partner, "B")
                    expected_partner = r_a ^ (psi1 if branch == 0 else psi2).parity
                    assert probs[expected_partner] == pytest.approx(1.0, abs=1e-12)
                    decoded = travel ^ expected_partner ^ (psi1 if branch == 0 else psi2).parity
                    assert decoded == message


def test_ghz_decode_ambiguity_depends_on_branch_parity():
    """Without the controller's announcement Bob has two candidate decodings,
    one per branch hypothesis; they differ in every bit exactly when the two
    Bell components have opposite parity."""
    for psi1, psi2, differs in (
        (BellKind.PSI_PLUS, BellKind.PHI_PLUS, True),
        (BellKind.PSI_PLUS, BellKind.PSI_MINUS, False),
    ):
        out = run_cdssqc_ghz(CdssqcConfig(n=6, seed=3, psi1=psi1, psi2=psi2))
        travel = out.details["travel_bits"]
        partner = out.details["partner_bits"]
        cand_a = tuple(t ^ p ^ psi1.parity for t, p in zip(travel, partner))
        cand_b = tuple(t ^ p ^ psi2.parity for t, p in zip(travel, partner))
        if differs:
            assert all(a != b for a, b in zip(cand_a, cand_b))
        else:
            assert cand_a == cand_b


# ---------------------------------------------------------------------------
# switch variant


@pytest.mark.parametrize("seed", range(0, 30, 2))
def test_switch_honest_decode(seed):
    out = run_cdssqc_switch(switch_cfg(n=5, seed=seed))
    assert not out.aborted
    assert out.keys["bob_decoded"] == out.keys["alice_sent"]


def test_switch_identity_permutation_hook():
    out = run_cdssqc_switch(
        switch_cfg(n=4, seed=2, message=(0, 0, 0, 0), charlie_permutation_enabled=False)
    )
    assert out.keys["bob_decoded"] == (0, 0, 0, 0)
    # with the identity switch, the pre-disclosure guess is already correct
    pre = out.details["predisclosure_decode"]
    assert all(g == 0 for g in pre)


def test_switch_control_power_smoke():
    hits = total = 0
    for seed in range(150):
        out = run_cdssqc_switch(switch_cfg(n=8, seed=seed))
        sent = out.keys["alice_sent"]
        for guess, truth in zip(out.details["predisclosure_decode"], sent):
            total += 1
            hits += 0.5 if guess is None else (guess == truth)
    assert hits / total == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# attacks on the distribution leg


def test_substitute_singles_caught_by_correlation_check():
    caught = 0
    trials = 150
    for seed in range(trials):
        out = run_cdssqc_ghz(
            CdssqcConfig(n=4, seed=seed, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND))
        )
        if out.aborted and out.abort_reason is not AbortReason.CORRELATION_MISMATCH:
            # all 8 checked copies passed, which happens with probability
            # 2**-8, so the decoys catch Eve instead
            assert out.abort_reason is AbortReason.BELL_MISMATCH
            assert out.details["spot_mismatches"] == 0
        else:
            caught += out.aborted
    # each checked copy exposes the fake qubit with probability 1/2 (s=8)
    assert caught / trials > 0.95


def test_measure_resend_skips_correlation_but_hits_decoys():
    correlation = bell = 0
    trials = 200
    for seed in range(trials):
        out = run_cdssqc_ghz(
            CdssqcConfig(n=4, seed=seed, attack=AttackStrategy(AttackKind.MEASURE_RESEND))
        )
        correlation += out.abort_reason is AbortReason.CORRELATION_MISMATCH
        bell += out.abort_reason is AbortReason.BELL_MISMATCH
    assert correlation == 0
    # 4 surviving decoys, per-decoy mismatch 1/2 -> abort ~ 1-(1/2)^4
    assert bell / trials == pytest.approx(1 - 0.5**4, abs=0.06)


def test_measure_resend_eve_decode_is_blind():
    acc = total = 0
    for seed in range(80):
        out = run_cdssqc_ghz(
            CdssqcConfig(
                n=16, seed=seed, attack=AttackStrategy(AttackKind.MEASURE_RESEND), threshold=1.0
            )
        )
        truth = out.details["eve_truth"]
        for guess, t in zip(out.eve_inferences, truth):
            total += 1
            acc += 0.5 if guess is None else (guess == t)
    assert acc / total == pytest.approx(0.5, abs=0.05)


def test_switch_measure_resend_detected_at_bob():
    bell = 0
    trials = 150
    for seed in range(trials):
        out = run_cdssqc_switch(
            switch_cfg(n=4, seed=seed, attack=AttackStrategy(AttackKind.MEASURE_RESEND))
        )
        bell += out.abort_reason is AbortReason.BELL_MISMATCH
    assert bell / trials == pytest.approx(1 - 0.5**4, abs=0.07)
