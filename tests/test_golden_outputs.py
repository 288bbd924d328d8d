"""Byte-identical seeded CLI output, pinned by SHA-256.

The digests were generated at commit 6c7efe6e3386118fc1b4410fdc8561f747989533,
before the simulator moved from dense numpy vectors to sparse registers.
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
    "sqka/none": "cf959ddcd3ddd4da1b7bf271b5b3f2108c497ee2fa6b6fa63a285b5e09dc808c",
    "sqka/cnot": "ed92bcd2fcb072b6d00b6411b3f2c5d93bb95a10f55780e968edf788c8272174",
    "sqka/intercept-resend": "1890713768c58ba298baca54bf095ed50d904c8f17d585dc4631a73e95d58bbb",
    "sqka/measure-resend": "24a335f728a89d74f225b586567e2144de60873a5f626ceeb489a7e4d0d6ccd5",
    "sqkd/none": "47de63c91f8e60188be0295b64238c48051cec0330044c9a89de31b0270ad55e",
    "sqkd/cnot": "982fc2ca3e77f6b7dfb88c31ab523f8eef3dfcd6f8993e4a7e175ba8a96466f4",
    "sqkd/intercept-resend": "dfd5592fc9d437e187d23b9cb537e3f119703083a03be1835ad51d0765289daf",
    "sqkd/measure-resend": "bccd84fd13a8153c398717f38ef9480980c05d66ab385a83b8e1d3686633d48f",
    "cdssqc-ghz/none": "7fa541e9bd56fa3e4acd666021dd90cc6cc9a4632abb32e2bd853a55862f59ce",
    "cdssqc-ghz/cnot": "4ed86b5339757fe2b8c178d7be3e8a1357d5b1cca7388b5a328e1afcbdbe8530",
    "cdssqc-ghz/intercept-resend": "95d18d0e1740b8255d9e4431f057242032fbab40f425bc12a1404f0551e8b414",
    "cdssqc-ghz/measure-resend": "c3103e98c0a12357abe8283a8ae6ab5da057a3d6936ddeda2e7edd4d611286ed",
    "cdssqc-switch/none": "d091bf5a509f8e932e76ce2c27e8898fbaab4f7b2f2c9f20322d05f803683ae2",
    "cdssqc-switch/cnot": "b1f388c066a97198f3f290023e49ae64d335c511768d52bf4356f9a1a8711fbf",
    "cdssqc-switch/intercept-resend": "753b599612dd594ec8752db405c9352c6cc30c7cb5eaca50cbe28dbab028a212",
    "cdssqc-switch/measure-resend": "34e6d8fbe8375b9981f95fc6cd8eb054b7efc3ffd1e3c6eaf9cce2b35c35a49f",
    "sqd/none": "ec51cb11595f57b99c7b7baec024e2aeb60ed4064d9ec0f8afdb7de383d8a997",
    "sqd/cnot": "a2fa8ca73da3d48f37b2f737e2033013b60eb61bffd21670f4d33340bf78d436",
    "sqd/intercept-resend": "39de66345d31da2b88b9302a966319a0c2558a19f7edf38715a235f4af500f88",
    "sqd/measure-resend": "89d44d1aa5042085c80a79d0bb53910373f4fbbbae2dfe1bb5819f924f0fc094",
}

BATCHES = {
    "csv": (
        ["--protocol", "sqka", "--n", "8", "--attack", "intercept-resend",
         "--trials", "20", "--format", "csv", "--seed", "3"],
        "e4781ff2b9f62ed836e41737da640191b5876d167f81a8c59024decc60583b48",
    ),
    "json": (
        ["--protocol", "cdssqc-ghz", "--n", "8", "--attack", "cnot",
         "--trials", "20", "--format", "json", "--seed", "5"],
        "b83ba38551af01ee077d0acb11ec98b602a664f7d835181f5b2c9831c57ef693",
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
