"""A transcript run compiles no more package code than its budget.

A CLI process compiles every package module it loads from source unless
cached bytecode is written and found, so each executable line a transcript
run loads costs start-up time whether it runs or not.  The count is the
number of distinct source lines, other than a module code object's line 0,
that the code objects of each module compiled from source cover,
recursing into the code objects nested in their constants (functions,
classes, comprehensions).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Executable lines of the package modules that ``--protocol sqka --n 8``
# loads, as counted on CPython 3.11 when the budget was set.  With
# ``analysis`` on the transcript path (all of the stats code compiled to emit
# one transcript) the same run read 1,663; with ``analysis`` off it but the
# transcript parser, ``bits_to_hex``, ``SessionConfig.reseeded`` and the
# ``Lanes`` snapshots on it, 1,489; with ``sqka.detection_disabled``, 1,484.
BUDGET = 1481
ARGV = ["--protocol", "sqka", "--n", "8"]
# Line tables differ across versions (3.12 inlines comprehensions), so the
# budget holds only on the version it was measured on.
MEASURED_ON = (3, 11)

# Runs semiquantum.cli.main on the arguments and prints, as JSON, its exit
# code and the executable-line count of each package module then loaded.
_COUNT = """
import contextlib, io, json, sys, types
from semiquantum import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])

def lines(code):
    out = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= lines(const)
    return out

counts = {}
for name, module in sorted(sys.modules.items()):
    if name == "semiquantum" or name.startswith("semiquantum."):
        with open(module.__file__) as fh:
            counts[name] = len(lines(compile(fh.read(), module.__file__, "exec")))
print(json.dumps([code, counts]))
"""


@pytest.mark.skipif(
    sys.version_info[:2] != MEASURED_ON, reason="the compile budget was measured on CPython 3.11"
)
def test_transcript_run_compiles_within_budget():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", _COUNT, *ARGV], env=env, capture_output=True, text=True, check=True
    )
    code, counts = json.loads(out.stdout)
    assert code == 0
    assert sum(counts.values()) <= BUDGET, counts
