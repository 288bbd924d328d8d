"""Command-line behavior: parsing, validation, output formats, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiquantum.adversary import AttackKind
from semiquantum.cli import EXIT_IO, EXIT_USAGE, CliConfig, main, parse_args, run
from semiquantum.protocols import bits_to_hex, hex_to_bits


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_hex_encoding_roundtrip(bits):
    bits = tuple(bits)
    assert hex_to_bits(bits_to_hex(bits), len(bits)) == bits


def test_parse_defaults():
    cfg = parse_args(["--protocol", "sqka", "--n", "8", "--seed", "42"])
    assert cfg == CliConfig(
        protocol="sqka",
        n=8,
        m=None,
        attack=AttackKind.NONE,
        trials=1,
        seed=42,
        threshold=0.0,
        permutation=True,
        commitments=True,
        out=None,
        format="json",
        messages=(),
    )


def test_parse_full_flags():
    cfg = parse_args(
        [
            "--protocol", "sqka", "--n", "8", "--m", "24",
            "--trials", "1000", "--seed", "42", "--attack", "measure-resend",
            "--permutation", "off", "--commitments", "off",
            "--format", "csv", "--threshold", "0.1",
        ]
    )
    assert cfg.m == 24 and cfg.trials == 1000
    assert cfg.attack is AttackKind.MEASURE_RESEND
    assert not cfg.permutation and not cfg.commitments


@pytest.mark.parametrize("protocol", ["sqka", "sqkd", "cdssqc-ghz", "cdssqc-switch", "sqd"])
@pytest.mark.parametrize("attack", ["none", "cnot", "intercept-resend", "measure-resend"])
def test_every_attack_applies_to_every_protocol(protocol, attack):
    argv = ["--protocol", protocol, "--n", "2", "--attack", attack, "--trials", "2"]
    cfg = parse_args(argv)
    assert run(cfg)  # produces output without raising


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("SEMIQ_SEED", "777")
    cfg = parse_args(["--protocol", "sqka", "--n", "2"])
    assert cfg.seed == 777
    monkeypatch.delenv("SEMIQ_SEED")
    cfg = parse_args(["--protocol", "sqka", "--n", "2"])
    assert cfg.seed == 0


def test_non_integer_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("SEMIQ_SEED", "abc")
    assert main(["--protocol", "sqka", "--n", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "SEMIQ_SEED" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("raw", [str(-(2**64)), str(2**64), "-1"])
def test_out_of_range_seed_env_exits_2(raw, monkeypatch, capsys):
    monkeypatch.setenv("SEMIQ_SEED", raw)
    assert main(["--protocol", "sqka", "--n", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "SEMIQ_SEED" in captured.err
    assert captured.out == ""


def test_seed_range_edges_accepted(monkeypatch):
    assert parse_args(["--protocol", "sqka", "--n", "2", "--seed", "0"]).seed == 0
    monkeypatch.setenv("SEMIQ_SEED", str(2**64 - 1))
    assert parse_args(["--protocol", "sqka", "--n", "2"]).seed == 2**64 - 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--protocol", "sqd", "--n", "4", "--messages", "a"],          # needs two
        ["--protocol", "sqd", "--n", "4", "--messages", "ff,b"],       # too long
        ["--protocol", "sqd", "--n", "4", "--messages", "zz,a"],       # not hex
        ["--protocol", "sqka", "--n", "4", "--messages", "a"],         # not accepted
        ["--protocol", "sqka", "--n", "0"],
        ["--protocol", "sqka", "--n", "4", "--format", "csv"],          # transcript is json
        ["--protocol", "sqka", "--n", "4", "--threshold", "2"],
        ["--protocol", "sqd", "--n", "8", "--messages=-1,0"],          # int() sign
        ["--protocol", "sqd", "--n", "8", "--messages", "+1,0"],
        ["--protocol", "sqd", "--n", "8", "--messages", "1_0,0"],      # int() separator
        ["--protocol", "sqd", "--n", "8", "--messages", "0x3,0"],      # int() prefix
        ["--protocol", "sqka", "--n", "2", "--seed", str(2**64)],      # aliased onto seed 0
        ["--protocol", "sqka", "--n", "2", "--seed=-5"],               # aliased onto 2**64-5
        ["--protocol", "sqka", "--n", "2", "--seed", str(-(2**64))],
    ],
)
def test_validation_errors_exit_2(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    assert main(["--protocol", "bogus", "--n", "1"]) == EXIT_USAGE
    capsys.readouterr()


def test_single_session_prints_transcript(capsys):
    assert main(["--protocol", "sqka", "--n", "2", "--m", "2", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    actions = [e["action"] for e in doc["events"]]
    assert actions.index("announce_K_A") < actions.index("reveal_Pi_n")
    assert doc["aborted"] is False


def test_sqd_message_combinations(capsys):
    # scripted single-bit dialogue: decoded messages match the inputs
    for m_a, m_b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        argv = [
            "--protocol", "sqd", "--n", "1", "--seed", "5",
            "--messages", f"{m_a:x},{m_b:x}",
        ]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["keys"]["bob_decoded"] == [m_a]
        assert doc["keys"]["alice_decoded"] == [m_b]


def test_cdssqc_scripted_message(capsys):
    argv = ["--protocol", "cdssqc-ghz", "--n", "4", "--seed", "2", "--messages", "a"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["keys"]["alice_sent"] == [1, 0, 1, 0]
    assert doc["keys"]["bob_decoded"] == [1, 0, 1, 0]


def test_batch_csv_row(capsys):
    argv = [
        "--protocol", "sqka", "--n", "4", "--trials", "200",
        "--seed", "42", "--format", "csv",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    header, row = out.strip().split("\n")
    cells = row.split(",")
    assert cells[5] == "0.000000"
    assert cells[9] == "0.100000"


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["--protocol", "sqd", "--n", "3", "--trials", "25", "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_out_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "stats.csv"
    argv = [
        "--protocol", "sqka", "--n", "2", "--trials", "20",
        "--seed", "1", "--format", "csv", "--out", str(target),
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text.startswith("protocol,")
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".semiquantum-")]
    assert leftovers == []


def test_out_file_io_error(capsys):
    argv = [
        "--protocol", "sqka", "--n", "2", "--trials", "2",
        "--seed", "1", "--out", "/nonexistent-dir/x/stats.json",
    ]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_exits_1_without_traceback():
    # a 100 KiB transcript overfills the pipe, so the write fails whether
    # the read end closes before or during it
    proc = subprocess.Popen(
        [sys.executable, "-m", "semiquantum.cli", "--protocol", "sqka", "--n", "400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == EXIT_IO
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_1_without_traceback():
    # every write to /dev/full fails with ENOSPC, at the flush in main
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "semiquantum.cli", "--protocol", "sqka", "--n", "2"],
            stdout=full, stderr=subprocess.PIPE, env=_src_env(), timeout=120,
        )
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_IO
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


# Imports the CLI, runs one transcript and then one batch through ``main``,
# and reports after each step whether numpy has been loaded.
_NUMPY_LOADS = """
import contextlib, io, json, sys
loaded = {}
from semiquantum.cli import main
loaded["import"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["--protocol", "cdssqc-ghz", "--n", "8", "--attack", "cnot"]) == 0
    loaded["transcript"] = "numpy" in sys.modules
    assert main(["--protocol", "sqka", "--n", "4", "--trials", "3"]) == 0
    loaded["batch"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_sessions_never_load_numpy():
    # numpy serves only the dense qsim helpers; neither a session nor a
    # batch may pay for its import
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_LOADS], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout) == {"import": False, "transcript": False, "batch": False}
