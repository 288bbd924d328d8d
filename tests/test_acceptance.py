"""Acceptance gate: one test per verification criterion, each printing a
pass line (run with ``pytest tests/test_acceptance.py -v -s``).

Every statistical check runs at a pinned master seed; tolerances are stated
inline next to each assertion.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import (
    SWITCH_ETA_QUOTED,
    TABLE3,
    detection_model,
    efficiency_report,
)
from semiquantum.protocols import (
    CdssqcConfig,
    CdssqcVariant,
    SqdConfig,
    SqkaConfig,
    run_cdssqc_ghz,
    run_cdssqc_switch,
    run_sqd,
    run_sqka,
    run_sqkd,
    xor_bits,
)
from semiquantum.qsim import (
    BELL_ORDER,
    COMPUTATIONAL,
    HADAMARD,
    BellKind,
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
)
from semiquantum.rng import RandomSource, derive_seed

MASTER = 20240811


def report(k: int, text: str) -> None:
    print(f"\n[criterion {k}] PASS — {text}")


def test_criterion_1_key_extraction_table():
    """Exhaustive (r_A, K_B) mapping of the travel qubit; runtime < 1 s."""
    t0 = time.time()
    for r in (0, 1):  # forced branch of Bob's measurement
        for k_b in (0, 1):
            pair = prepare_bell(BellKind.PSI_PLUS, ("H", "T"))
            prob, home = project_z(pair, "T", r)
            assert prob == pytest.approx(0.5, abs=1e-12)
            # Bob returns |r xor k_b|; Alice reads home then travel
            prob_a, _ = project_z(home, "H", r)
            assert prob_a == pytest.approx(1.0, abs=1e-12)  # r_A = r_B
            travel_bit = r ^ k_b
            expected = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}[(r, k_b)]
            assert travel_bit == expected
            assert travel_bit ^ r == k_b  # Alice's extraction rule
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"travel-qubit mapping exhaustive over 4 cases in {elapsed:.3f}s")


def test_criterion_2_dialogue_outcome_table():
    """Outcome class equals the XOR of both message bits for all 4 combos and
    both residual signs; the sign is uniform within 0.05 over 10^4 runs."""
    # exhaustive class/sign structure by direct projection
    for m_b in (0, 1):
        for m_a in (0, 1):
            for r in (0, 1):
                pair = prepare_bell(BellKind.PSI_PLUS, ("H", "T"))
                _, home = project_z(pair, "T", r)
                state = merge_registers(home, prepare_z(r ^ m_b, "F"))
                if m_a:
                    state = apply_x(state, "F")
                probs = dict(zip(BELL_ORDER, bell_probabilities(state, "H", "F")))
                if m_a ^ m_b == 0:
                    expect = (BellKind.PSI_PLUS, BellKind.PSI_MINUS)
                else:
                    expect = (BellKind.PHI_PLUS, BellKind.PHI_MINUS)
                for kind in BellKind:
                    target = 0.5 if kind in expect else 0.0
                    assert probs[kind] == pytest.approx(target, abs=1e-12)
    # sampled sign split over 10^4 sessions
    signs = [0, 0]
    combos = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i in range(10_000):
        m_a, m_b = combos[i % 4]
        cfg = SqdConfig(
            n=1, m=1, seed=derive_seed(MASTER, 2, i),
            alice_message=(m_a,), bob_message=(m_b,),
        )
        out = run_sqd(cfg)
        kind = out.details["final_outcomes"][0]
        assert kind.parity == m_a ^ m_b
        signs[kind.sign] += 1
    frac = signs[0] / sum(signs)
    assert abs(frac - 0.5) <= 0.05
    report(2, f"class exact for all 4 combos/both signs; sign split {frac:.4f}")


def test_criterion_3_efficiency_table():
    """Exact rational efficiencies; switch-variant discrepancy is flagged."""
    assert TABLE3["sqka"].efficiency() == Fraction(1, 10)
    assert TABLE3["cdssqc-ghz"].efficiency() == Fraction(1, 25)
    assert TABLE3["sqd"].efficiency() == Fraction(1, 5)
    assert TABLE3["cdssqc-switch"].efficiency() == Fraction(1, 21)
    assert float(TABLE3["sqka"].efficiency()) == pytest.approx(0.10, abs=1e-15)
    assert float(TABLE3["cdssqc-ghz"].efficiency()) == pytest.approx(0.04, abs=1e-15)
    assert float(TABLE3["sqd"].efficiency()) == pytest.approx(0.20, abs=1e-15)
    assert float(Fraction(1, 21)) == pytest.approx(0.047619, abs=1e-6)
    rep = efficiency_report("cdssqc-switch")
    assert rep["eta_exact"] == [1, 21]
    assert rep["eta_quoted"] == SWITCH_ETA_QUOTED == 0.0472
    assert "discrepancy" in rep
    report(3, "10%, 4%, 20% exact; switch variant 1/21 with 4.72% flagged")


def test_criterion_4_entangle_probe_attack():
    """Full key recovery without the permutation; coin-flip accuracy with it;
    reflected-slot checks are trace-free (zero aborts over >= 10^4 checks)."""
    # (a) permutation disabled: Eve's key equals Bob's in 100% of 500 trials
    decoy_checks = decoy_mismatches = 0
    for i in range(500):
        cfg = SqkaConfig(
            n=16, seed=derive_seed(MASTER, 4, i),
            attack=AttackStrategy(AttackKind.CNOT), permutation_enabled=False, protocol="sqkd",
        )
        out = run_sqkd(cfg)
        assert not out.aborted
        assert out.eve_inferences == out.raw.k_b
        decoy_checks += out.details["decoy_checked"]
        decoy_mismatches += out.details["decoy_mismatches"]
    assert decoy_checks >= 10_000
    assert decoy_mismatches == 0
    # (b) permutation enabled: per-bit accuracy in [0.45, 0.55] over 500 trials
    hits = total = 0
    for i in range(500):
        cfg = SqkaConfig(
            n=100, seed=derive_seed(MASTER, 41, i),
            attack=AttackStrategy(AttackKind.CNOT),
            threshold=1.0, commitments_enabled=False,
        )
        out = run_sqka(cfg)
        truth = out.details["eve_truth"]
        hits += sum(1 for g, t in zip(out.eve_inferences, truth) if g == t)
        total += len(truth)
    accuracy = hits / total
    assert 0.45 <= accuracy <= 0.55
    report(
        4,
        f"key recovered 500/500 without permutation; accuracy {accuracy:.4f} "
        f"with it; {decoy_checks} reflected checks, 0 aborts",
    )


def test_criterion_5_intercept_resend_attack():
    """Identification 0.75 +- 0.03 and key damage 0.25 +- 0.03 with detection
    disabled; abort probability matches 1-(1/4)^m within 3 binomial standard
    deviations for m in {1, 2, 4, 8}; runtime < 30 s."""
    t0 = time.time()
    id_hits = id_total = mismatches = bits = 0
    for i in range(110):
        cfg = SqkaConfig(
            n=100, m=4, seed=derive_seed(MASTER, 5, i),
            attack=AttackStrategy(AttackKind.INTERCEPT_RESEND),
            permutation_enabled=False, threshold=1.0, commitments_enabled=False,
        )
        out = run_sqka(cfg)
        cls = out.details["eve_wire_classifications"]
        for w in out.details["encoded_wires"]:
            id_total += 1
            id_hits += cls.get(w) == "measured"
        expected, actual = out.details["match_bits"]
        bits += len(expected)
        mismatches += sum(1 for e, a in zip(expected, actual) if e != a)
    assert id_total >= 10_000
    id_rate = id_hits / id_total
    mismatch_rate = mismatches / bits
    assert abs(id_rate - 0.75) <= 0.03
    assert abs(mismatch_rate - 0.25) <= 0.03

    abort_summary = []
    for m, trials in ((1, 600), (2, 600), (4, 600), (8, 300)):
        aborts = 0
        for i in range(trials):
            cfg = SqkaConfig(
                n=16, m=m, seed=derive_seed(MASTER, 51, m, i),
                attack=AttackStrategy(AttackKind.INTERCEPT_RESEND),
                commitments_enabled=False,
            )
            aborts += run_sqka(cfg).aborted
        predicted = detection_model(AttackKind.INTERCEPT_RESEND, m)
        observed = aborts / trials
        band = 3 * math.sqrt(predicted * (1 - predicted) / trials)
        assert abs(observed - predicted) <= band, (m, observed, predicted, band)
        abort_summary.append(f"m={m}: {observed:.4f}~{predicted:.4f}")
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        5,
        f"id {id_rate:.4f}, damage {mismatch_rate:.4f}; aborts "
        + "; ".join(abort_summary)
        + f"; {elapsed:.1f}s",
    )


def test_criterion_6_honest_runs():
    """1000 seeded trials per runner: zero aborts, exact agreement, and the
    key identity K_f = K_A ^ K_B = (r_A ^ K_A) ^ (r_B ^ K_B) bit-wise."""
    trials = 1000
    for i in range(trials):
        out = run_sqka(SqkaConfig(n=4, seed=derive_seed(MASTER, 6, 0, i)))
        assert not out.aborted
        raw = out.raw
        assert out.keys["alice"] == out.keys["bob"] == raw.k_f
        assert raw.k_f == xor_bits(raw.k_a, raw.k_b)
        assert raw.k_f == xor_bits(xor_bits(raw.r_a, raw.k_a), xor_bits(raw.r_b, raw.k_b))

        out = run_sqkd(SqkaConfig(n=4, seed=derive_seed(MASTER, 6, 1, i), protocol="sqkd"))
        assert not out.aborted
        assert out.keys["alice"] == out.keys["bob"] == out.raw.k_b

        out = run_cdssqc_ghz(CdssqcConfig(n=4, seed=derive_seed(MASTER, 6, 2, i)))
        assert not out.aborted
        assert out.keys["bob_decoded"] == out.keys["alice_sent"]

        out = run_cdssqc_switch(
            CdssqcConfig(n=4, seed=derive_seed(MASTER, 6, 3, i), variant=CdssqcVariant.SWITCH)
        )
        assert not out.aborted
        assert out.keys["bob_decoded"] == out.keys["alice_sent"]

        out = run_sqd(SqdConfig(n=4, seed=derive_seed(MASTER, 6, 4, i)))
        assert not out.aborted
        assert out.keys["bob_decoded"] == out.keys["alice_sent"]
        assert out.keys["alice_decoded"] == out.keys["bob_sent"]
    report(6, f"5 runners x {trials} trials: zero aborts, exact agreement")


def test_criterion_7_simulator_properties():
    """Norm within 1e-12 across 10^5 random operations; Born-rule chi-square
    at significance 0.001 in all three bases; parity rule exhaustive."""
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = RandomSource(derive_seed(MASTER, 7))
    ops = 0
    registers: list = []
    while ops < 100_000:
        roll = rng.random()
        total_qubits = sum(s.num_qubits for s in registers)
        if not registers or (roll < 0.35 and total_qubits < 10):
            kind = BELL_ORDER[rng.integer(4)]
            registers.append(prepare_bell(kind, (f"a{ops}", f"b{ops}")))
        elif roll < 0.45 and total_qubits < 10:
            registers.append(prepare_z(rng.bit(), f"z{ops}"))
        elif roll < 0.6 and len(registers) >= 2 and registers[0].num_qubits + registers[1].num_qubits <= 6:
            registers[0] = merge_registers(registers.pop(1), registers[0])
        elif roll < 0.75 and registers and registers[0].num_qubits >= 2:
            s = registers[0]
            c, t = s.labels[0], s.labels[-1]
            registers[0] = apply_cnot(s, c, t)
        elif roll < 0.85 and registers:
            s = registers[0]
            registers[0] = apply_x(s, s.labels[rng.integer(s.num_qubits)])
        elif registers:
            s = registers.pop(0)
            if s.num_qubits >= 2 and rng.bit():
                rec = measure_bell(s, s.labels[0], s.labels[1], rng)
            elif rng.bit():
                rec = measure_z(s, s.labels[0], rng)
            else:
                rec = measure_ab(s, s.labels[0], HADAMARD, rng)
            if rec.post_state is not None:
                registers.append(rec.post_state)
        else:
            continue
        ops += 1
        for s in registers:
            assert abs(s.norm() - 1.0) < 1e-12

    # chi-square checks, 12000 samples per basis
    z_counts = [0, 0]
    for _ in range(12_000):
        rec = measure_z(prepare_bell(BellKind.PSI_PLUS, ("a", "b")), "a", rng)
        z_counts[rec.outcome] += 1
    assert scipy_stats.chisquare(z_counts).pvalue > 0.001

    # (|0>+|1>)/sqrt(2) (x) |0> puts weight 1/4 on each Bell outcome
    from semiquantum.qsim import StateVector

    bell_counts = dict.fromkeys(BELL_ORDER, 0)
    superpos = np.array([1, 1]) / np.sqrt(2)
    for _ in range(12_000):
        state = merge_registers(StateVector(superpos, ("p",)), prepare_z(0, "q"))
        rec = measure_bell(state, "p", "q", rng)
        bell_counts[rec.outcome] += 1
    assert scipy_stats.chisquare(list(bell_counts.values())).pvalue > 0.001

    ab_counts = [0, 0]
    for _ in range(12_000):
        rec = measure_ab(prepare_z(0, "p"), "p", HADAMARD, rng)
        ab_counts[rec.outcome] += 1
    assert scipy_stats.chisquare(ab_counts).pvalue > 0.001

    # parity rule, exhaustive over the four computational product states
    for b0 in (0, 1):
        for b1 in (0, 1):
            state = merge_registers(prepare_z(b0, "a"), prepare_z(b1, "b"))
            probs = dict(zip(BELL_ORDER, bell_probabilities(state, "a", "b")))
            psi = probs[BellKind.PSI_PLUS] + probs[BellKind.PSI_MINUS]
            phi = probs[BellKind.PHI_PLUS] + probs[BellKind.PHI_MINUS]
            if b0 == b1:
                assert psi == pytest.approx(1.0, abs=1e-12)
                assert probs[BellKind.PSI_PLUS] == pytest.approx(0.5, abs=1e-12)
            else:
                assert phi == pytest.approx(1.0, abs=1e-12)
                assert probs[BellKind.PHI_PLUS] == pytest.approx(0.5, abs=1e-12)
    report(7, "norm held over 1e5 ops; chi-square ok in Z/Bell/ab; parity rule exact")


def test_criterion_8_controlled_branch_structure():
    """All 12 ordered Bell-component pairs: the controller's outcome selects
    its branch with certainty (both branches, exhaustively); runtime < 1 s."""
    t0 = time.time()
    pairs = [(p1, p2) for p1 in BellKind for p2 in BellKind if p1 is not p2]
    assert len(pairs) == 12
    for psi1, psi2 in pairs:
        for branch, expected in ((0, psi1), (1, psi2)):
            state = prepare_ghz_like(psi1, psi2, COMPUTATIONAL, ("x", "y", "c"))
            prob, post = project_ab(state, "c", COMPUTATIONAL, branch)
            assert prob == pytest.approx(0.5, abs=1e-12)
            bell_prob, _ = project_bell(post, "x", "y", expected)
            assert bell_prob == pytest.approx(1.0, abs=1e-12)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(8, f"12 ordered pairs x 2 branches, certainty exact in {elapsed:.3f}s")


def test_criterion_9_switch_control_power():
    """Without the controller's disclosure Bob's guess is a coin flip
    (unknown slots score 0.5); with it, decoding is exact."""
    hits = total = 0
    for i in range(500):
        cfg = CdssqcConfig(
            n=8, seed=derive_seed(MASTER, 9, i), variant=CdssqcVariant.SWITCH
        )
        out = run_cdssqc_switch(cfg)
        assert not out.aborted
        sent = out.keys["alice_sent"]
        assert out.keys["bob_decoded"] == sent  # accuracy 1 after disclosure
        for guess, truth in zip(out.details["predisclosure_decode"], sent):
            total += 1
            hits += 0.5 if guess is None else float(guess == truth)
    accuracy = hits / total
    assert 0.45 <= accuracy <= 0.55
    report(9, f"pre-disclosure accuracy {accuracy:.4f}; post-disclosure exact")
