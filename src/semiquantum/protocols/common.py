"""Shared session machinery: transcripts, outcomes, bit helpers, and the
session pipeline every protocol runs."""
from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from ..adversary import build_attack
from ..errors import ZeroCount
from ..parties import Capability, PartyContext, Permutation, random_permutation
from ..qsim import BellKind, RegisterBank
from ..rng import RandomSource, derive_seed

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



class Session:
    """One protocol run: its parties, register bank, transcript and channel
    attack, and the stages every protocol shares.

    All the protocols follow one orthogonal-state skeleton.  A quantum party
    hands out entangled states and keeps a home partner for each slot; the
    classical ``sender`` measures-and-resends the encoded slots, reflects the
    decoys and returns the sequence permuted; the quantum ``receiver``
    Bell-checks each decoy against its home partner.  The runners call the
    stages in protocol order and keep only what differs.  Each party draws
    from its own stream, derived from the session seed (alice 1, bob 2,
    charlie 4, Eve 3 unless the attack brings its own seed), so seeded output
    depends only on the order of each party's own draws.
    """

    def __init__(self, config, protocol: str, classical: str, controller: bool = False):
        self.n, self.m = config.n, config.decoy_count()
        if self.n < 1 or self.m < 1:
            raise ZeroCount(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        self.config = config
        self.protocol = protocol
        self.total = self.n + self.m
        self.transcript = Transcript()
        bank = RegisterBank()

        def party(name: str, stream: int) -> PartyContext:
            cap = Capability.CLASSICAL if name == classical else Capability.QUANTUM
            return PartyContext(name, cap, RandomSource(derive_seed(config.seed, stream)), bank)

        self.alice, self.bob = party("alice", 1), party("bob", 2)
        self.charlie = party("charlie", 4) if controller else None
        self.parties = [p for p in (self.alice, self.bob, self.charlie) if p is not None]
        self.sender, self.receiver = (
            (self.alice, self.bob) if classical == "alice" else (self.bob, self.alice)
        )
        eve_seed = config.attack.eve_rng_seed
        eve_rng = RandomSource(derive_seed(config.seed, 3) if eve_seed is None else eve_seed)
        eve = PartyContext("eve", Capability.QUANTUM, eve_rng, bank)
        self.attack = build_attack(config.attack, protocol, eve)
        self.slots = list(range(self.total))  # the positions still in play
        self.error_rate = 0.0
        self.details: dict = {
            "spot_checked": 0,
            "spot_mismatches": 0,
            "decoy_checked": 0,
            "decoy_mismatches": 0,
        }

    def psi_pairs(self) -> None:
        """Alice prepares psi+ pairs, keeps the H halves and sends the T halves."""
        total = self.total
        self.transcript.log("alice", "prepare_pairs", count=total, state=BellKind.PSI_PLUS.value)
        for i in range(total):
            self.alice.prepare_bell(BellKind.PSI_PLUS, f"H{i}", f"T{i}")
        self.transcript.log("alice", "send_travel", count=total)
        self.send([f"T{i}" for i in range(total)], [f"H{i}" for i in range(total)])

    def send(self, travel: list[str], home: list[str]) -> None:
        """Put the travel qubits on the forward leg; ``home[p]`` is slot p's partner."""
        self.home = home
        self.travel = self.attack.forward_leg(travel)

    def spot_check(
        self, chooser: PartyContext, mismatched: Callable[[int], bool]
    ) -> SessionOutcome | None:
        """Measure a random set of slots, drawn by ``chooser``, and compare.

        ``mismatched(p)`` measures slot p's qubits; the checked copies are
        consumed.  Returns the abort outcome if the mismatch rate is over the
        threshold; otherwise the unchecked slots stay in play.
        """
        s = self.config.spot_count()
        positions = sorted(chooser.rng.sample(self.total, s)) if s else []
        bad = sum(1 for p in positions if mismatched(p))
        self.transcript.log(
            "all", "correlation_check", positions=positions, mismatches=bad, checked=s
        )
        self.details.update(spot_checked=s, spot_mismatches=bad)
        if s and bad / s > self.config.threshold:
            self.error_rate = bad / s
            self.attack.finalize([])
            return self.abort(chooser.name, AbortReason.CORRELATION_MISMATCH)
        checked = set(positions)
        self.slots = [p for p in range(self.total) if p not in checked]
        self.attack.reindex(self.slots)
        return None

    def exchange(
        self,
        encoded: list[int],
        message: Bits,
        send_action: str,
        receive: Callable[[int, str], object],
    ) -> list[int]:
        """The sender's encoding and permuted return, then the per-wire readout.

        The sender measures each encoded slot (ascending) in Z and resends
        outcome XOR its message bit on a fresh qubit, reflects the other
        slots in play, and sends the sequence under a secret permutation.
        On each wire Eve's hook acts, then the receiver either reads encoded
        slot i through ``receive(i, qubit)`` into ``received[i]`` or
        Bell-measures a decoy against its home partner.  Records how Eve
        classified each wire and returns the sender's Z outcomes.
        """
        sender, travel, slots = self.sender, self.travel, self.slots
        index = {p: i for i, p in enumerate(encoded)}
        outcomes: list[int] = []
        seq: list[str] = []
        for p in slots:
            if p in index:
                bit = sender.measure_z(travel[p])
                outcomes.append(bit)
                seq.append(sender.prepare_z(bit ^ message[index[p]], f"S{p}"))
            else:
                seq.append(sender.reflect(travel[p]))
        self.transcript.log(sender.name, "encode", count=self.n)

        size = len(slots)
        pi = (
            random_permutation(size, sender.rng)
            if self.config.permutation_enabled
            else Permutation.identity(size)
        )
        wire = sender.permute(pi, seq)
        self.transcript.log(sender.name, send_action, count=size)
        self.wire_of = {p: pi.destination(k) for k, p in enumerate(slots)}
        self.encoded = encoded
        self.encoded_wires = [self.wire_of[p] for p in encoded]
        self.decoys = [p for p in slots if p not in index]

        # Per-wire processing: the eavesdropper hook, the receiving measurement
        # and the ancilla readout all act on disjoint qubits across wires, so
        # they commute with the later classical stages; sampling them in wire
        # order keeps every register within the qubit cap.
        origin = {w: p for p, w in self.wire_of.items()}
        self.received: list = [None] * len(encoded)
        self.bell: dict[int, BellKind] = {}
        for j in range(size):
            qubit = self.attack.wire(j, wire[j])
            p = origin[j]
            if p in index:
                self.received[index[p]] = receive(index[p], qubit)
            else:
                self.bell[p] = self.receiver.measure_bell(self.home[p], qubit)
            self.attack.after_wire(j)
        self.transcript.log(self.receiver.name, "ack_receipt")
        self.details["eve_wire_classifications"] = dict(self.attack.state.wire_classifications)
        return outcomes

    def decoy_wires(self) -> list[list[int]]:
        """The disclosed [slot, wire] pairs of the decoys."""
        return sorted([p, self.wire_of[p]] for p in self.decoys)

    def bell_check(self, expected: Callable[[int], BellKind]) -> SessionOutcome | None:
        """The receiver's decoy check; then Eve's inferences are fixed.

        Returns the abort outcome if the decoy mismatch rate is over the
        threshold.
        """
        bad = sum(1 for p in self.decoys if self.bell[p] is not expected(p))
        left = len(self.decoys)
        self.transcript.log(self.receiver.name, "bell_check", mismatches=bad, checked=left)
        self.attack.finalize(self.encoded_wires)
        self.details.update(
            decoy_checked=left,
            decoy_mismatches=bad,
            encoded_origins=list(self.encoded),
            encoded_wires=list(self.encoded_wires),
        )
        checked = self.details["spot_checked"] + left
        self.error_rate = (self.details["spot_mismatches"] + bad) / max(checked, 1)
        if left and bad / left > self.config.threshold:
            return self.abort(self.receiver.name, AbortReason.BELL_MISMATCH)
        return None

    def abort(self, actor: str, reason: AbortReason) -> SessionOutcome:
        self.transcript.log(actor, "abort", reason=reason.value)
        return self.finish({}, reason=reason)

    def finish(
        self, keys: dict, raw: RawKeys | None = None, reason: AbortReason = AbortReason.NONE
    ) -> SessionOutcome:
        self.details["party_ops"] = {p.name: sorted(p.ops_log) for p in self.parties}
        return SessionOutcome(
            protocol=self.protocol,
            aborted=reason is not AbortReason.NONE,
            abort_reason=reason,
            keys=keys,
            transcript=self.transcript,
            error_rate_observed=self.error_rate,
            eve_inferences=self.attack.state.inferred_bits,
            raw=raw,
            details=self.details,
        )


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
