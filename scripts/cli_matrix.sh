#!/usr/bin/env bash
# Runs the CLI on every protocol x attack at n=8 and seed 5, once as a
# single-session transcript and once as a 20-trial CSV batch (40 runs),
# and writes each run's output to stdout in turn.  Exits non-zero as soon
# as a run does.  The output is a pure function of the arguments, so its
# sha256 must be the same under every supported interpreter:
#
#   PYTHONPATH=src scripts/cli_matrix.sh python3.10 | sha256sum
set -euo pipefail
python=${1:-python}
for protocol in sqka sqkd cdssqc-ghz cdssqc-switch sqd; do
  for attack in none cnot intercept-resend measure-resend; do
    args=(--protocol "$protocol" --attack "$attack" --n 8 --seed 5)
    "$python" -m semiquantum.cli "${args[@]}"
    "$python" -m semiquantum.cli "${args[@]}" --trials 20 --format csv
  done
done
