"""Shared session machinery: transcripts, outcomes, bit helpers."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

Bits = tuple[int, ...]


class AbortReason(Enum):
    NONE = "none"
    BELL_MISMATCH = "bell-mismatch"
    CORRELATION_MISMATCH = "correlation-mismatch"
    COMMITMENT_MISMATCH = "commitment-mismatch"
    THRESHOLD_EXCEEDED = "threshold-exceeded"


@dataclass(frozen=True)
class Event:
    index: int
    actor: str
    action: str
    payload: dict


class Transcript:
    """Ordered, append-only log of the session's public classical events."""

    def __init__(self):
        self.events: list[Event] = []

    def log(self, actor: str, action: str, **payload) -> Event:
        ev = Event(len(self.events), actor, action, payload)
        self.events.append(ev)
        return ev

    def actions(self) -> list[str]:
        return [e.action for e in self.events]

    def find(self, action: str) -> list[Event]:
        return [e for e in self.events if e.action == action]

    def index_of(self, action: str) -> int:
        """Index of the unique event with this action; raises if absent."""
        matches = self.find(action)
        if len(matches) != 1:
            raise ValueError(f"expected exactly one {action!r} event, found {len(matches)}")
        return matches[0].index


@dataclass(frozen=True)
class RawKeys:
    """Per-party raw material of a key-agreement session."""

    k_a: Bits
    k_b: Bits
    r_a: Bits
    r_b: Bits
    k_f: Bits


@dataclass
class SessionOutcome:
    """Final result of one protocol session, honest or attacked."""

    protocol: str
    aborted: bool
    abort_reason: AbortReason
    keys: dict[str, Bits]
    transcript: Transcript
    error_rate_observed: float
    eve_inferences: tuple[int | None, ...] | None = None
    raw: RawKeys | None = None
    details: dict = field(default_factory=dict)

    def eve_confidences(self) -> tuple[float, ...] | None:
        """1.0 for a committed inference, 0.5 for an unknown slot."""
        if self.eve_inferences is None:
            return None
        return tuple(1.0 if b is not None else 0.5 for b in self.eve_inferences)


def xor_bits(a: Bits, b: Bits) -> Bits:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return tuple(x ^ y for x, y in zip(a, b))


def bits_to_hex(bits: Bits) -> str:
    if not bits:
        return ""
    width = (len(bits) + 3) // 4
    return format(int("".join(map(str, bits)), 2), f"0{width}x")


def hex_to_bits(text: str, n: int) -> Bits:
    """The n-bit big-endian bits of a hex string of digits 0-9, a-f, A-F."""
    if not re.fullmatch(r"[0-9a-fA-F]+", text):
        raise ValueError(f"{text!r} is not a string of hex digits")
    value = int(text, 16)
    if value >= (1 << n):
        raise ValueError(f"hex value {text!r} does not fit in {n} bits")
    return tuple((value >> (n - 1 - i)) & 1 for i in range(n))
