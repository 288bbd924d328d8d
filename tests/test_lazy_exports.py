"""The packages' lazy exports and the names that moved from ``qsim`` to
``qsim_reference`` resolve to their defining module's objects, and are bound
where they were looked up, as the benchmark's tracer needs to patch them."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import semiquantum
from semiquantum import protocols, qsim

ROOT = Path(__file__).resolve().parents[1]

MOVED_FROM_QSIM = (
    "StateVector", "MeasurementRecord", "prepare_z", "prepare_bell", "prepare_ghz_like",
    "merge_registers", "apply_cnot", "apply_x", "reordered", "z_probabilities", "project_z",
    "measure_z", "bell_probabilities", "project_bell", "measure_bell", "ab_probabilities",
    "project_ab", "measure_ab",
)

DEFINED_IN = {
    "semiquantum": ("__version__",),
    "semiquantum.adversary": ("AttackKind", "AttackStrategy"),
    "semiquantum.qsim": ("BellKind", "OrthonormalPair"),
    "semiquantum.qsim_reference": MOVED_FROM_QSIM,
    "semiquantum.rng": ("RandomSource", "derive_seed"),
    "semiquantum.protocols": ("PROTOCOLS", "make_config", "run_session"),
    "semiquantum.protocols.common": (
        "AbortReason", "Bits", "RawKeys", "SessionConfig", "SessionOutcome",
        "SpotCheckedConfig", "Transcript", "bits_to_hex", "hex_to_bits", "xor_bits",
    ),
    "semiquantum.protocols.cdssqc": ("CdssqcConfig", "CdssqcVariant", "run_cdssqc_ghz", "run_cdssqc_switch"),
    "semiquantum.protocols.sqd": ("SqdConfig", "decode_dialogue", "run_sqd"),
    "semiquantum.protocols.sqka": ("SqkaConfig", "detection_disabled", "extract_bob_key_bit", "run_sqka", "run_sqkd"),
}
DEFINER = {name: module for module, names in DEFINED_IN.items() for name in names}

EXPORTS = [(semiquantum, name) for name in semiquantum.__all__]
EXPORTS += [(protocols, name) for name in protocols.__all__]
EXPORTS += [(qsim, name) for name in MOVED_FROM_QSIM]


@pytest.mark.parametrize("module, name", EXPORTS, ids=lambda x: getattr(x, "__name__", x))
def test_export_is_the_defining_modules_object_and_is_bound(module, name):
    value = getattr(module, name)
    assert value is getattr(importlib.import_module(DEFINER[name]), name)
    assert vars(module)[name] is value


@pytest.mark.parametrize("package", [semiquantum, protocols])
def test_star_import_and_dir_list_every_export(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))


def test_dir_of_qsim_lists_the_moved_names():
    assert set(MOVED_FROM_QSIM) <= set(dir(qsim))


@pytest.mark.parametrize("module", [semiquantum, protocols, qsim])
def test_unknown_attribute_is_named(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_run_session_calls_the_runner_bound_at_the_call(monkeypatch):
    calls = []
    runner = protocols.run_sqd
    monkeypatch.setattr(protocols, "run_sqd", lambda config: calls.append(config) or runner(config))
    config = protocols.make_config("sqd", n=2)
    assert protocols.run_session(config).protocol == "sqd"
    assert calls == [config]


# Loads scripts/reproduce_figures.py as a module in a fresh process, checks
# that the reference functions it imports through semiquantum.qsim are
# qsim_reference's, and runs one of its tables.
_LOAD_SCRIPT = """
import contextlib, importlib.util, io, sys
spec = importlib.util.spec_from_file_location("reproduce_figures", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
from semiquantum import qsim_reference
for name in ("apply_x", "bell_probabilities", "merge_registers", "prepare_bell", "prepare_z", "project_z"):
    assert getattr(mod, name) is getattr(qsim_reference, name), name
with contextlib.redirect_stdout(io.StringIO()):
    mod.extraction_table()
"""


def test_figure_script_imports_the_reference_layer_through_qsim():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", _LOAD_SCRIPT, str(ROOT / "scripts" / "reproduce_figures.py")],
        env=env, check=True,
    )
