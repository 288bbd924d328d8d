"""A session's Python-level calls stay within a per-slot budget.

The slot stages call Python code only for lane ops and a protocol's own
per-slot hooks (a sampled measurement's ``qsim._pick`` is C code); a helper
frame per slot (a draw wrapper, an address or parity helper, a lambda per
decoy) shows here as calls per slot over the budget.  The counts come from ``sys.setprofile``
``call`` events over one warm session in a fresh interpreter, so lane states
interned by other tests do not change them.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semiquantum.qsim import BellKind

ROOT = Path(__file__).resolve().parents[1]

# Python calls per slot (n + m = 400) of one n=100 session, as measured on
# CPython 3.11 when the budget was set.  With a Python draw wrapper, Bell
# parity properties and a lambda per decoy in the slot stages the same
# sessions read 7.075, 16.3875 and 24.5775; with one call per slot in the
# single-party stages (the reads, the encoding and the spot check) 4.06,
# 8.375 and 18.0375; with a Python ``_sample`` frame per draw, a ``_read_z``
# frame per encoded wire and a merge or step frame per cross-slot op 3.3225,
# 4.16 and 17.3; with a join and a collapse frame for each of Eve's Bell
# measurements across slots, a lone qubit among them, 11.5525 for the third.
BUDGET = {"sqka-none": 1.5725, "cdssqc-ghz-spot-check": 0.9025, "sqka-intercept-resend": 9.2825}
# The count of profile call events depends on the interpreter (3.12 inlines
# comprehensions; Enum and record internals differ), so the budget holds
# only on the version it was measured on.
MEASURED_ON = (3, 11)

# Prints, as JSON, each case's calls per slot over a second run of the same
# seeded session, the first run having filled the lane memos.
_COUNT = """
import json, sys
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.protocols import CdssqcConfig, SqkaConfig, run_session

ir = AttackStrategy(kind=AttackKind.INTERCEPT_RESEND)
CASES = {
    "sqka-none": SqkaConfig(n=100, seed=5),
    "cdssqc-ghz-spot-check": CdssqcConfig(n=100, seed=5),
    "sqka-intercept-resend": SqkaConfig(
        n=100, seed=5, attack=ir, threshold=1.0, commitments_enabled=False
    ),
}
calls = 0

def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1

out = {}
for name, config in CASES.items():
    run_session(config)
    calls = 0
    sys.setprofile(count)
    outcome = run_session(config)
    sys.setprofile(None)
    assert not outcome.aborted
    out[name] = [calls / (config.n + config.decoy_count()), outcome.details["spot_checked"]]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def per_slot() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _COUNT], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.skipif(
    sys.version_info[:2] != MEASURED_ON, reason="the call budget was measured on CPython 3.11"
)
@pytest.mark.parametrize("case", BUDGET)
def test_calls_per_slot_stay_within_budget(per_slot, case):
    calls, spot_checked = per_slot[case]
    assert calls <= BUDGET[case], f"{case}: {calls:.4f} calls per slot"
    assert (spot_checked > 0) == (case == "cdssqc-ghz-spot-check")


@pytest.mark.parametrize("kind,parity,sign", [
    (BellKind.PSI_PLUS, 0, 0), (BellKind.PSI_MINUS, 0, 1),
    (BellKind.PHI_PLUS, 1, 0), (BellKind.PHI_MINUS, 1, 1),
])
def test_bell_parity_and_sign_are_plain_attributes(kind, parity, sign):
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    got = (kind.parity, kind.sign)
    sys.setprofile(None)
    assert got == (parity, sign)
    assert "call" not in events
