"""Byte-identical seeded sessions on the runner paths the CLI digests miss.

The golden CLI digests run every protocol with its defaults.  These digests
pin, per protocol family, the config fields the CLI never sets: permutation
and commitments off, threshold 1, spot checks of size 0 and of the whole
decoy budget, spot-check aborts, the "zz" dialogue measurement, the
controller's identity switch and non-default controller states, fixed
messages and keys, and a separate Eve seed.  Each family runs every attack
at n <= 3 over a few seeds.  A change to a draw, its order or a transcript
field breaks them.  A last digest pins the cross-slot registers at n=100,
with the wide-ket memo and without it.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import emit_transcript, trial_record
from semiquantum.protocols import (
    CdssqcConfig,
    CdssqcVariant,
    SqdConfig,
    SqkaConfig,
    run_session,
)
from semiquantum.qsim import HADAMARD, BellKind
from semiquantum.records import replace

SEEDS = (0, 1, 2)


def _variants(family: str) -> list:
    if family == "sqka":
        bases = [SqkaConfig(n=3, protocol=p) for p in ("sqka", "sqkd")]
        edits = [
            {},
            {"m": 1},
            {"n": 1, "m": 2},
            {"permutation_enabled": False},
            {"commitments_enabled": False, "threshold": 1.0},
            {"commitments_enabled": False, "permutation_enabled": False, "threshold": 1.0},
            {"fixed_k_a": (1, 0, 1), "fixed_k_b": (0, 1, 1), "threshold": 1.0},
            {"dishonest_k_a": (1, 1, 1), "threshold": 1.0},
            {"dishonest_pi_n": True, "threshold": 1.0},
        ]
    elif family == "cdssqc":
        bases = [CdssqcConfig(n=2, variant=v) for v in CdssqcVariant]
        edits = [
            {},
            {"spot_check_size": 0},
            {"spot_check_size": 6},
            {"spot_check_size": 0, "threshold": 1.0},
            {"threshold": 1.0, "permutation_enabled": False},
            {"threshold": 1.0, "charlie_permutation_enabled": False},
            {"threshold": 1.0, "charlie_permutation_enabled": False, "m": 1},
            {"threshold": 1.0, "psi1": BellKind.PHI_MINUS, "psi2": BellKind.PSI_MINUS,
             "controller_basis": HADAMARD, "switch_bell": BellKind.PHI_PLUS},
            {"threshold": 1.0, "message": (1, 0)},
        ]
    else:
        bases = [SqdConfig(n=2, final_measurement=f) for f in ("bell", "zz")]
        edits = [
            {},
            {"spot_check_size": 0},
            {"spot_check_size": 6},
            {"spot_check_size": 6, "threshold": 1.0},
            {"spot_check_size": 0, "threshold": 1.0, "permutation_enabled": False},
            {"threshold": 1.0, "m": 1},
            {"threshold": 1.0, "alice_message": (1, 1), "bob_message": (0, 1)},
        ]
    configs = []
    for base in bases:
        for edit in edits:
            for kind in AttackKind:
                for eve_seed in (None, 7):
                    attack = AttackStrategy(kind, eve_rng_seed=eve_seed)
                    configs.append(replace(base, attack=attack, **edit))
    return configs


def family_digest(family: str) -> str:
    h = hashlib.sha256()
    for config in _variants(family):
        for seed in SEEDS:
            out = run_session(replace(config, seed=seed))
            h.update(emit_transcript(out))
            h.update(json.dumps(trial_record(out), sort_keys=True).encode())
    return h.hexdigest()


FAMILY_DIGESTS = {
    "sqka": "a44ba8e405429300606814d3109eb14e8e167b585819488cb5f86f4e60760f64",
    "cdssqc": "32cc07de85a7bb5bcb312493da0c17463f20b46d645fb6efa73e233710e09754",
    "sqd": "ab5f3f19760d9020a40ab87ace4c48f020b603e7ff452f235e24958070dce5b8",
}


@pytest.mark.parametrize("family", sorted(FAMILY_DIGESTS))
def test_family_digest(family):
    assert family_digest(family) == FAMILY_DIGESTS[family]


# The permuted entangle-probe and intercept-resend cells of every protocol
# at n=100 with detection off, as run_trials stats: Eve's return-leg ops
# join slots into registers of up to six qubits, which the n <= 3 families
# barely reach.  Sets ``digest``.
_CROSS_SLOT = """
import hashlib
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import emit_stats, run_trials
from semiquantum.protocols import PROTOCOLS, make_config

h = hashlib.sha256()
for protocol in PROTOCOLS:
    for kind in (AttackKind.CNOT, AttackKind.INTERCEPT_RESEND):
        off = {"commitments_enabled": False} if protocol in ("sqka", "sqkd") else {}
        config = make_config(protocol, n=100, threshold=1.0, attack=AttackStrategy(kind), **off)
        h.update(emit_stats(run_trials(config, 8, 1)))
digest = h.hexdigest()
"""
CROSS_SLOT_DIGEST = "75768c59f53e32cf942ef53e516ac13c26dfca64c24bbb24e7435c99380b2ae9"


def test_cross_slot_digest():
    namespace: dict = {}
    exec(_CROSS_SLOT, namespace)
    assert namespace["digest"] == CROSS_SLOT_DIGEST


def test_cross_slot_digest_without_stored_wide_kets():
    # a process past the wide-ket cap recomputes every 5- and 6-qubit op
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "from semiquantum import qsim\nqsim.MAX_WIDE_KETS = 0\n" + _CROSS_SLOT + "print(digest, qsim._wide_stored)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [CROSS_SLOT_DIGEST, "0"]
