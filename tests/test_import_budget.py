"""A CLI run imports only what it runs: the one runner module its protocol
names, and neither the reference simulator nor the stats-only modules, nor
``dataclasses`` and the ``inspect`` it imports; a transcript run loads
neither ``semiquantum.analysis`` nor ``typing`` nor ``json``."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNNER_OF = {"sqka": "sqka", "sqkd": "sqka", "cdssqc-ghz": "cdssqc", "cdssqc-switch": "cdssqc", "sqd": "sqd"}
WATCHED = ["semiquantum.protocols.sqka", "semiquantum.protocols.cdssqc", "semiquantum.protocols.sqd",
           "semiquantum.qsim_reference", "semiquantum.analysis", "fractions", "csv", "dataclasses", "inspect",
           "tempfile", "typing", "json"]

# Runs semiquantum.cli.main on the arguments after the first, which lists
# modules to watch (comma-separated), and prints as a Python literal its exit
# code, the watched modules that the import and the run loaded, and those
# present at the end; it imports no json, which is watched.  The child runs
# without site (-S), whose .pth files may import a watched stdlib module
# before the CLI does.
_RUN_CLI = """
import contextlib, io, sys
before = set(sys.modules)
from semiquantum import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
present = sorted(m for m in sys.argv[1].split(",") if m in sys.modules)
print(repr([code, [m for m in present if m not in before], present]))
"""


def _run(*argv: str) -> tuple[list[str], list[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", _RUN_CLI, ",".join(WATCHED), *argv], env=env, capture_output=True, text=True, check=True
    )
    code, loaded, present = ast.literal_eval(out.stdout)
    assert code == 0
    return loaded, present


@pytest.mark.parametrize("protocol", RUNNER_OF)
def test_transcript_run_loads_only_its_runner(protocol):
    loaded, _ = _run("--protocol", protocol, "--n", "2")
    assert loaded == [f"semiquantum.protocols.{RUNNER_OF[protocol]}"]


def test_csv_stats_run_loads_csv():
    loaded, present = _run("--protocol", "sqd", "--n", "2", "--trials", "2", "--format", "csv")
    assert "csv" in present
    assert "semiquantum.protocols.sqd" in loaded and "semiquantum.qsim_reference" not in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_no_package_module_imports_dataclasses_or_inspect():
    for path in sorted((ROOT / "src" / "semiquantum").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            assert not {m.split(".")[0] for m in modules} & {"dataclasses", "inspect"}, f"{path}:{node.lineno}"
