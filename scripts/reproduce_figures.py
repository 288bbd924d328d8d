#!/usr/bin/env python3
"""Reproduce the headline numbers: encoding tables, efficiency figures, and
detection statistics for the three attacks.

Usage: python3 scripts/reproduce_figures.py [--seed S]
"""
import argparse
import math
import sys

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.cli import stdout_failed
from semiquantum.analysis import detection_model, efficiency_report
from semiquantum.protocols import SqdConfig, SqkaConfig, run_sqd, run_sqka
from semiquantum.qsim import (
    BELL_ORDER,
    BellKind,
    apply_x,
    bell_probabilities,
    merge_registers,
    prepare_bell,
    prepare_z,
    project_z,
)
from semiquantum.rng import derive_seed


def extraction_table() -> None:
    print("== key extraction: home outcome, travel outcome -> sender bit ==")
    print(f"{'r_A':>4} {'K_B':>4} {'travel':>7}")
    for r in (0, 1):
        for k_b in (0, 1):
            print(f"{r:>4} {k_b:>4} {r ^ k_b:>7}")


def dialogue_table() -> None:
    print("\n== dialogue: message bits -> final pair outcome class ==")
    print(f"{'Bob':>4} {'Alice':>6} {'outcomes':>22}")
    for m_b in (0, 1):
        for m_a in (0, 1):
            pair = prepare_bell(BellKind.PSI_PLUS, ("H", "T"))
            _, home = project_z(pair, "T", 0)
            state = merge_registers(home, prepare_z(m_b, "F"))
            if m_a:
                state = apply_x(state, "F")
            probs = dict(zip(BELL_ORDER, bell_probabilities(state, "H", "F")))
            kinds = "/".join(k.value for k in BELL_ORDER if probs[k] > 1e-9)
            print(f"{m_b:>4} {m_a:>6} {kinds:>22}")


def efficiency_table() -> None:
    print("\n== qubit efficiency eta = c/(q+b) ==")
    print(f"{'protocol':<15} {'c':>3} {'q_c':>4} {'d':>4} {'q':>4} {'b':>3} {'eta':>9}")
    for protocol in ("sqka", "cdssqc-ghz", "cdssqc-switch", "sqd"):
        rep = efficiency_report(protocol)
        print(
            f"{protocol:<15} {rep['c']:>2}n {rep['q_c']:>3}n {rep['d']:>3}n "
            f"{rep['q']:>3}n {rep['b']:>2}n {100 * rep['eta']:>8.2f}%"
        )
        if "discrepancy" in rep:
            print(f"    note: quoted {100 * rep['eta_quoted']:.2f}% -- {rep['discrepancy']}")


def detection_stats(seed: int) -> None:
    print("\n== detection: Monte Carlo abort rate vs 1-(1-p)^m ==")
    print(f"{'attack':<18} {'m':>2} {'observed':>9} {'model':>7}")
    jobs = [
        (AttackKind.INTERCEPT_RESEND, dict(commitments_enabled=False), 400),
        (AttackKind.MEASURE_RESEND, dict(commitments_enabled=False), 400),
        (AttackKind.CNOT, dict(commitments_enabled=False, permutation_enabled=False), 400),
    ]
    for job, (kind, overrides, trials) in enumerate(jobs):
        for m in (1, 2, 4):
            aborts = 0
            for i in range(trials):
                cfg = SqkaConfig(
                    n=8, m=m, seed=derive_seed(seed, job, m, i),
                    attack=AttackStrategy(kind), **overrides,
                )
                aborts += run_sqka(cfg).aborted
            print(
                f"{kind.value:<18} {m:>2} {aborts / trials:>9.4f} "
                f"{detection_model(kind, m):>7.4f}"
            )


def dialogue_sign_split(seed: int) -> None:
    print("\n== dialogue final-outcome sign split (class is deterministic) ==")
    signs = [0, 0]
    trials = 2000
    for i in range(trials):
        out = run_sqd(
            SqdConfig(n=1, m=1, seed=derive_seed(seed, 99, i), alice_message=(1,), bob_message=(1,))
        )
        signs[out.details["final_outcomes"][0].sign] += 1
    se = math.sqrt(0.25 / trials)
    print(f"plus fraction {signs[0] / trials:.4f} (expected 0.5 +- {3 * se:.4f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must lie in [0, 2**64), got {args.seed}")
    extraction_table()
    dialogue_table()
    efficiency_table()
    detection_stats(args.seed)
    dialogue_sign_split(args.seed)
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:  # stdout closed or full
        code = stdout_failed(exc)
    sys.exit(code)
