"""Protocol session runners and their configuration records.

Every name here loads its module on first use and is bound here then:
``make_config`` and ``run_session`` import only the runner module their
protocol id names."""
from __future__ import annotations

from .. import lazy_exports

# The module that defines each exported name.
_EXPORTS = {
    **dict.fromkeys(
        ("AbortReason", "Bits", "RawKeys", "SessionConfig", "SessionOutcome", "SpotCheckedConfig",
         "TRANSCRIPT_SCHEMA", "Transcript", "emit_transcript", "hex_to_bits", "xor_bits"),
        "common",
    ),
    **dict.fromkeys(("CdssqcConfig", "CdssqcVariant", "run_cdssqc_ghz", "run_cdssqc_switch"), "cdssqc"),
    **dict.fromkeys(("SqdConfig", "decode_dialogue", "run_sqd"), "sqd"),
    **dict.fromkeys(("SqkaConfig", "detection_disabled", "extract_bob_key_bit", "run_sqka", "run_sqkd"), "sqka"),
}

# Each protocol id's config class, the fields that select the protocol in
# it, and its runner, by name.
PROTOCOLS: dict[str, tuple[str, dict, str]] = {
    "sqka": ("SqkaConfig", {"protocol": "sqka"}, "run_sqka"),
    "sqkd": ("SqkaConfig", {"protocol": "sqkd"}, "run_sqkd"),
    "cdssqc-ghz": ("CdssqcConfig", {"variant": "ghz"}, "run_cdssqc_ghz"),
    "cdssqc-switch": ("CdssqcConfig", {"variant": "switch"}, "run_cdssqc_switch"),
    "sqd": ("SqdConfig", {}, "run_sqd"),
}


__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)


def _bound(name: str):
    """What ``name`` is bound to here now, so a patch of it reaches the caller."""
    return globals()[name] if name in globals() else __getattr__(name)


def make_config(protocol: str, **fields) -> SessionConfig:
    """The config record that runs ``protocol``, with ``fields`` set."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    cls, selector, _ = PROTOCOLS[protocol]
    return _bound(cls)(**selector, **fields)


def run_session(config: SessionConfig) -> SessionOutcome:
    """Run the protocol a config record names.  Each runner is looked up by
    its module-level name at the call, so a patch of that name reaches it."""
    if config.protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {config.protocol!r}")
    return _bound(PROTOCOLS[config.protocol][2])(config)


__all__ = ["PROTOCOLS", "make_config", "run_session", *_EXPORTS]
