"""The seeded scripts under scripts/ give the same results in every process."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Loads reproduce_figures, swaps run_sqka for a recorder of the seeds it is
# handed, and prints them as JSON.
_RECORD_SEEDS = """
import contextlib, importlib.util, io, json, sys, types
spec = importlib.util.spec_from_file_location("reproduce_figures", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
seeds = []
def record(cfg):
    seeds.append(cfg.seed)
    return types.SimpleNamespace(aborted=False)
mod.run_sqka = record
with contextlib.redirect_stdout(io.StringIO()):
    mod.detection_stats(11)
print(json.dumps(seeds))
"""


def _detection_seeds(hash_seed: str) -> list[int]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _RECORD_SEEDS, str(ROOT / "scripts" / "reproduce_figures.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_detection_stats_seeds_ignore_string_hash_salt():
    first, second = _detection_seeds("1"), _detection_seeds("2")
    assert first == second
    assert len(first) == 3 * 3 * 400  # attacks x decoy counts x trials
    assert len(set(first)) == len(first)


# SHA-256 of the scripts' stdout with their default seed, the same under
# every PYTHONHASHSEED; the sweep's at --trials 10 --n 4.
ATTACK_SWEEP_SHA256 = "ca885ce74371e741f93b94b5b1594628d9c8e4351082ae759350868daa708c08"
REPRODUCE_FIGURES_SHA256 = "0632b845bde539b14033f0f582c6608b6c6559dbe8dd656698f93096b19120e2"


def test_reproduce_figures_output_is_pinned():
    env = dict(os.environ, PYTHONHASHSEED="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py")],
        env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(out.stdout).hexdigest() == REPRODUCE_FIGURES_SHA256


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_attack_sweep_output_is_pinned(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "attack_sweep.py"), "--trials", "10", "--n", "4"],
        env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(out.stdout).hexdigest() == ATTACK_SWEEP_SHA256


@pytest.mark.parametrize(
    "script, args",
    [
        ("attack_sweep.py", ["--trials", "0"]),
        ("attack_sweep.py", ["--n", "0", "--trials", "1"]),
        ("attack_sweep.py", ["--seed", "-1", "--trials", "1"]),
        ("attack_sweep.py", ["--seed", str(2**64), "--trials", "1"]),
        ("reproduce_figures.py", ["--seed", "-1"]),
    ],
)
def test_bad_arguments_exit_2_without_traceback(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "script, args",
    [("attack_sweep.py", ["--trials", "1"]), ("reproduce_figures.py", [])],
)
def test_closed_stdout_exits_1_without_traceback(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.splitlines()) == 1


# Runs a script as __main__ with ``Lanes.__init__`` raising MemoryError, as
# the lanes of a huge --n do, without allocating them.
_NO_MEMORY = """
import runpy, sys
from semiquantum.qsim import Lanes
def no_memory(self, size):
    raise MemoryError
Lanes.__init__ = no_memory
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_attack_sweep_out_of_memory_exits_1_without_traceback():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = ROOT / "scripts" / "attack_sweep.py"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MEMORY, str(script), "--n", "1000000000000", "--trials", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""  # no header-only table
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
