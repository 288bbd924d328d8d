"""Protocol session runners and their configuration records."""
from __future__ import annotations

from .cdssqc import CdssqcConfig, CdssqcVariant, run_cdssqc_ghz, run_cdssqc_switch
from .common import (
    AbortReason,
    Bits,
    Event,
    RawKeys,
    SessionConfig,
    SessionOutcome,
    SpotCheckedConfig,
    Transcript,
    bits_to_hex,
    hex_to_bits,
    xor_bits,
)
from .sqd import SqdConfig, decode_dialogue, run_sqd
from .sqka import SqkaConfig, detection_disabled, extract_bob_key_bit, run_sqka, run_sqkd

# Each protocol id's config class and the fields that select the protocol in it.
PROTOCOLS: dict[str, tuple[type[SessionConfig], dict]] = {
    "sqka": (SqkaConfig, {"protocol": "sqka"}),
    "sqkd": (SqkaConfig, {"protocol": "sqkd"}),
    "cdssqc-ghz": (CdssqcConfig, {"variant": CdssqcVariant.GHZ_LIKE}),
    "cdssqc-switch": (CdssqcConfig, {"variant": CdssqcVariant.SWITCH}),
    "sqd": (SqdConfig, {}),
}


def make_config(protocol: str, **fields) -> SessionConfig:
    """The config record that runs ``protocol``, with ``fields`` set."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    cls, selector = PROTOCOLS[protocol]
    return cls(**selector, **fields)


def run_session(config: SessionConfig) -> SessionOutcome:
    """Run the protocol a config record names.  Each runner is looked up by
    its module-level name at the call, so a patch of that name reaches it."""
    protocol = config.protocol
    if protocol == "sqka":
        return run_sqka(config)
    if protocol == "sqkd":
        return run_sqkd(config)
    if protocol == "cdssqc-ghz":
        return run_cdssqc_ghz(config)
    if protocol == "cdssqc-switch":
        return run_cdssqc_switch(config)
    if protocol == "sqd":
        return run_sqd(config)
    raise ValueError(f"unknown protocol {protocol!r}")


__all__ = [
    "PROTOCOLS",
    "AbortReason",
    "Bits",
    "CdssqcConfig",
    "CdssqcVariant",
    "Event",
    "RawKeys",
    "SessionConfig",
    "SessionOutcome",
    "SpotCheckedConfig",
    "SqdConfig",
    "SqkaConfig",
    "Transcript",
    "bits_to_hex",
    "decode_dialogue",
    "detection_disabled",
    "extract_bob_key_bit",
    "hex_to_bits",
    "make_config",
    "run_cdssqc_ghz",
    "run_cdssqc_switch",
    "run_session",
    "run_sqd",
    "run_sqka",
    "run_sqkd",
    "xor_bits",
]
