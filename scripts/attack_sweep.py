#!/usr/bin/env python3
"""Sweep every protocol x attack combination and print one stats row each.

Usage: python3 scripts/attack_sweep.py [--trials N] [--seed S] [--n N]

Detection is left on, so the abort_rate column shows how loudly each attack
trips the checks; key_match_rate and eve_accuracy are aggregated over the
sessions that complete.
"""
import argparse
import sys

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.cli import out_of_memory, stdout_failed
from semiquantum.analysis import CSV_COLUMNS, emit_stats, run_trials
from semiquantum.protocols import CdssqcConfig, CdssqcVariant, SqdConfig, SqkaConfig


def template(protocol: str, attack: AttackKind, n: int):
    strategy = AttackStrategy(kind=attack)
    if protocol in ("sqka", "sqkd"):
        return SqkaConfig(n=n, attack=strategy, protocol=protocol, commitments_enabled=False)
    if protocol == "cdssqc-ghz":
        return CdssqcConfig(n=n, attack=strategy)
    if protocol == "cdssqc-switch":
        return CdssqcConfig(n=n, variant=CdssqcVariant.SWITCH, attack=strategy)
    return SqdConfig(n=n, attack=strategy)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, default=8)
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be >= 1")
    if args.n < 1:
        parser.error("--n must be >= 1")
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must lie in [0, 2**64), got {args.seed}")

    print(",".join(CSV_COLUMNS))
    for protocol in ("sqka", "sqkd", "cdssqc-ghz", "cdssqc-switch", "sqd"):
        for attack in AttackKind:
            stats = run_trials(template(protocol, attack, args.n), args.trials, args.seed)
            row = emit_stats(stats, "csv").decode().strip().split("\n")[1]
            print(row)
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:  # stdout closed or full
        code = stdout_failed(exc)
    except MemoryError:  # --n too large
        code = out_of_memory()
    sys.exit(code)
