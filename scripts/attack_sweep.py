#!/usr/bin/env python3
"""Sweep every protocol x attack combination and print one stats row each.

Usage: python3 scripts/attack_sweep.py [--trials N] [--seed S] [--n N]

Detection is left on, so the abort_rate column shows how loudly each attack
trips the checks; key_match_rate and eve_accuracy are aggregated over the
sessions that complete.  The table is printed once every row is in, so a
run that fails prints none of it.
"""
import argparse
import sys

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.cli import out_of_memory, stdout_failed
from semiquantum.analysis import CSV_COLUMNS, emit_stats, run_trials
from semiquantum.protocols import PROTOCOLS, make_config


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

    rows = [",".join(CSV_COLUMNS)]
    for protocol in PROTOCOLS:
        keyed = {"commitments_enabled": False} if protocol in ("sqka", "sqkd") else {}
        for attack in AttackKind:
            config = make_config(protocol, n=args.n, attack=AttackStrategy(kind=attack), **keyed)
            stats = run_trials(config, args.trials, args.seed)
            rows.append(emit_stats(stats, "csv").decode().split("\n")[1])
    print("\n".join(rows))
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
