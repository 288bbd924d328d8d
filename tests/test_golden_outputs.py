"""Byte-identical seeded CLI output, pinned by SHA-256.

The digests were regenerated once, when RandomSource moved to the stdlib
Mersenne Twister (stream v2; the draw contract is in ``semiquantum.rng``).
Every measurement takes one uniform draw from its party's stream, in slot or
wire order, so any change to the engine that keeps the outcome rule keeps
these digests; a change to a draw, its order or a transcript field breaks
them.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semiquantum.cli import main

ROOT = Path(__file__).resolve().parents[1]

PROTOCOLS = ("sqka", "sqkd", "cdssqc-ghz", "cdssqc-switch", "sqd")
ATTACKS = ("none", "cnot", "intercept-resend", "measure-resend")

TRANSCRIPT_DIGESTS = {
    "sqka/none": "51f0f8c7e78e106efd6030e0e7befd403d499937916c4f23bdea5d72d2a29463",
    "sqka/cnot": "8f4f07fc90b8512b069f379b1510769e71c71a1817a1405dc457568f49c87281",
    "sqka/intercept-resend": "df9bc64e8ae984c29d956771a2f1e1f76a73cb41b2e06fccf2e8d888e963f101",
    "sqka/measure-resend": "c4920f733a0001fb7ba6ebcdc0d779d50d66029df3a8d2194692b8870d220d36",
    "sqkd/none": "2af92f1ceb20e53e809907fd6f02d6cf095e45027bd0e1f2481bafec5f978a58",
    "sqkd/cnot": "53d61bd142ecc3cae68fd5ea53ef5c70d475c0858462be933f8e276e2baebdb5",
    "sqkd/intercept-resend": "fe7211f53e73541ad84409bfee185849f06f3341629ab1fce9e69f37e20ada2d",
    "sqkd/measure-resend": "8c4746541d1e8eec784379a270a57b270c386dc056c84597f183bd3614f44ccb",
    "cdssqc-ghz/none": "4ae8dd538cf68841eaa31ead3b2441421cba5cdf01e2ccc6154c6444bb67dcee",
    "cdssqc-ghz/cnot": "6eb121c4de1d3c17e64d2fcca20580066f628966f9d26ce35c83f381a8d0f0cd",
    "cdssqc-ghz/intercept-resend": "9315b67023ba648b06b9913d1611060e285f74f745b1e3ade1491923387f8684",
    "cdssqc-ghz/measure-resend": "e67996965cbdf7994c18deace28a21794cb74d7b843e3af3b80239e8e16fdcb0",
    "cdssqc-switch/none": "a293001cadbc248c01bd0b55038f57a6be828537d6e76add5baa983631bb00b9",
    "cdssqc-switch/cnot": "696b12dc6d8b10a8a5f7e8f0d3528d43de9e58cf4c2f89ae4106ff00d8d471b7",
    "cdssqc-switch/intercept-resend": "0f581e6feada99944679ebdc376e5ec5b9e50f873cc97be81ffe7f413a3e9d8b",
    "cdssqc-switch/measure-resend": "40af890e04cd5a7feadbd291f571243d1dc57db18a81d7b6d252ab41c388e767",
    "sqd/none": "3593f8268a1a59a0f173027a72fa43fe5099c6fab18845329215091ff97379c8",
    "sqd/cnot": "edc217c71e88769c5b239c20de2f414ee8eb966f8e9c0fde579d30aa0778613e",
    "sqd/intercept-resend": "05886ecdfb01e3216db137e08c1a5427df662c6389fada9b5e463b225fa9f888",
    "sqd/measure-resend": "35c9a321a6a66a3f5f1ded3c3f0fc084a707383861b7342ae9d15487333e23e5",
}

BATCHES = {
    "csv": (
        ["--protocol", "sqka", "--n", "8", "--attack", "intercept-resend",
         "--trials", "20", "--format", "csv", "--seed", "3"],
        "32289c4c9a2868e2c8079e59b5940edbbebe32b8fe204e5627c6664252081fab",
    ),
    "json": (
        ["--protocol", "cdssqc-ghz", "--n", "8", "--attack", "cnot",
         "--trials", "20", "--format", "json", "--seed", "5"],
        "ecb2a391534f7e0c61b4b359fa9b4c841a6be5e911f101d151765615d122c770",
    ),
}


def _transcript_argv(protocol: str, attack: str) -> list[str]:
    return ["--protocol", protocol, "--n", "8", "--attack", attack, "--seed", "2017"]


def _stdout_digest(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("attack", ATTACKS)
def test_transcript_digest(protocol, attack, capsys):
    argv = _transcript_argv(protocol, attack)
    assert _stdout_digest(argv, capsys) == TRANSCRIPT_DIGESTS[f"{protocol}/{attack}"]


@pytest.mark.parametrize("fmt", sorted(BATCHES))
def test_stats_batch_digest(fmt, capsys):
    argv, digest = BATCHES[fmt]
    assert _stdout_digest(argv, capsys) == digest


# Runs each transcript case through ``main`` in one fresh process, which must
# not load numpy: the digests hold without it.
_DIGESTS_WITHOUT_NUMPY = """
import contextlib, hashlib, io, json, sys
from semiquantum.cli import main
digests = {}
for key, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    digests[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps({"digests": digests, "numpy_loaded": "numpy" in sys.modules}))
"""


def test_transcript_digests_without_numpy():
    cases = {f"{p}/{a}": _transcript_argv(p, a) for p in PROTOCOLS for a in ATTACKS}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS_WITHOUT_NUMPY, json.dumps(cases)],
        env=env, capture_output=True, text=True, check=True,
    )
    report = json.loads(proc.stdout)
    assert not report["numpy_loaded"]
    assert report["digests"] == TRANSCRIPT_DIGESTS
