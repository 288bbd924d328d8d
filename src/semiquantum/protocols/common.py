"""Shared session machinery: transcripts, outcomes, bit helpers, and the
session pipeline every protocol runs."""
from __future__ import annotations

import re
from collections.abc import Callable
from enum import Enum
from operator import is_not, xor

from ..adversary import AttackKind, AttackStrategy, build_attack
from ..errors import ZeroCount
from ..parties import Capability, PartyContext, Permutation, Step, random_permutation
from ..qsim import BellKind, Lanes
from ..records import Record
from ..rng import RandomSource, derive_seed

Bits = tuple[int, ...]

# A qubit's lane address packs its slot and its role, slot << 3 | role.
# HOME is the partner the distributing party keeps (H, B), TRAVEL the qubit
# it sends (T, A) and CONTROL the controller's third qubit.  Eve's qubits
# take roles 4 and 5 (adversary.KEPT and SENT).  A resend, the sender's or
# Eve's, takes the address of the qubit it replaces, so it stays in that
# qubit's lane.
HOME, TRAVEL, CONTROL = range(3)
_BIT_VALUES, _RETURN_ONLY = frozenset((0, 1)), frozenset({"return"})


def _require_int(name: str, value, optional: bool = False) -> None:  # bools are ints too
    if not (isinstance(value, int) and not isinstance(value, bool) or optional and value is None):
        raise TypeError(f"{name} must be an int{' or None' * optional}, got {value!r}")


class SessionConfig(Record):
    """The parameters every protocol takes; ``m=None`` defaults to the 3n
    decoy ratio.  Each protocol's config adds its own fields and says which
    protocol it runs as ``protocol``.  A config refuses, as it is built, any
    value no session can run; a subclass adds its rules after ``super()``'s."""

    MESSAGES = ()  # not a field: the message fields, in ``--messages`` order
    BITS = ()  # not a field: the fields that hold n bits, or None to draw them
    CONTROLLED = False  # not a field: whether a controller, charlie, takes part
    n: int
    m: int | None = None
    seed: int = 0
    attack: AttackStrategy = AttackStrategy()
    threshold: float = 0.0
    permutation_enabled: bool = True

    def __post_init__(self):
        n, m, attack = self.n, self.m, self.attack
        _require_int("n", n)
        _require_int("m", m, optional=True)
        _require_int("seed", self.seed)
        if not isinstance(attack, AttackStrategy):
            raise TypeError(f"attack must be an AttackStrategy, got {attack!r}")
        if n < 1 or m is not None and m < 1:
            raise ZeroCount(f"need n >= 1 and m >= 1, got n={n}, m={self.decoy_count()}")
        if not 0.0 <= self.threshold <= 1.0:  # NaN too
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        for name in self.BITS:
            bits = getattr(self, name)
            if bits is not None and (len(bits) != n or not _BIT_VALUES.issuperset(bits)):
                raise ValueError(f"{name} must be n={n} bits, each 0 or 1, got {bits!r}")
        if attack.legs == _RETURN_ONLY and attack.kind is AttackKind.INTERCEPT_RESEND and not self.CONTROLLED:
            raise ValueError("intercept-resend reads the return leg by the pairs it sends on the forward leg")

    def decoy_count(self) -> int:
        return 3 * self.n if self.m is None else self.m

    def reseeded(self, seed: int) -> SessionConfig:
        """This config with another seed; no rule reads the seed, so it is not checked again."""
        config = object.__new__(self.__class__)
        config.__dict__.update(self.__dict__, seed=seed)
        return config


class SpotCheckedConfig(SessionConfig):
    """A protocol that spot-checks ``spot_count()`` slots before the exchange;
    ``spot_check_size=None`` checks min(m, 2n), and a given size lies in [0, m]."""

    spot_check_size: int | None = None

    def __post_init__(self):
        _require_int("spot_check_size", self.spot_check_size, optional=True)  # types before values
        super().__post_init__()
        if self.spot_check_size is not None and not 0 <= self.spot_check_size <= self.decoy_count():
            raise ValueError("spot check size must lie within the decoy budget")

    def spot_count(self) -> int:
        s = self.spot_check_size
        return min(self.decoy_count(), 2 * self.n) if s is None else s


class AbortReason(Enum):
    NONE = "none"
    BELL_MISMATCH = "bell-mismatch"
    CORRELATION_MISMATCH = "correlation-mismatch"
    COMMITMENT_MISMATCH = "commitment-mismatch"
    THRESHOLD_EXCEEDED = "threshold-exceeded"


class Transcript(Record):
    """Ordered, append-only log of the session's public classical events,
    each held as the JSON object a transcript writes for it."""

    events: list[dict] = []

    def log(self, actor: str, action: str, **payload) -> None:
        self.events.append({"index": len(self.events), "actor": actor, "action": action, "payload": payload})


class RawKeys(Record):
    """Per-party raw material of a key-agreement session."""

    k_a: Bits
    k_b: Bits
    r_a: Bits
    r_b: Bits
    k_f: Bits


class SessionOutcome(Record):
    """Final result of one protocol session, honest or attacked."""

    protocol: str
    aborted: bool
    abort_reason: AbortReason
    keys: dict[str, Bits]
    transcript: Transcript
    error_rate_observed: float
    eve_inferences: tuple[int | None, ...] | None = None
    raw: RawKeys | None = None
    details: dict = {}


def _read_z(rx: Step, i: int, q: int) -> int:
    """The receiver's Z readout of an encoded wire, ``exchange``'s default."""
    return rx.measure_z(q)


def expect(config: SessionConfig, protocol: str) -> None:
    """Refuse a config that names another protocol than the runner's."""
    if config.protocol != protocol:
        raise ValueError(f"the {protocol} runner got a {config.protocol} config")


class Session:
    """One protocol run: its parties, slot lanes, transcript and channel
    attack, and the stages every protocol shares.

    All the protocols follow one orthogonal-state skeleton.  A quantum party
    hands out entangled states and keeps a home partner for each slot; the
    classical ``sender`` measures-and-resends the encoded slots, reflects the
    decoys and returns the sequence permuted; the quantum ``receiver``
    Bell-checks each decoy against its home partner.  The runners call the
    stages in protocol order and keep only what differs.  Each party draws
    from its own stream, derived from the session seed (alice 1, bob 2,
    charlie 4, Eve 3 unless the attack brings its own seed), so seeded output
    depends only on the order of each party's own draws.  Eve exists only
    while an attack is active.

    The registers live in ``lanes``, one lane per slot, with qubits
    addressed by ``slot << 3 | role``; a register within a slot is an
    interned state and each op a memoized transition of it (``qsim.Lanes``).
    A stage of one party's op on many slots (a preparation, a read-out, the
    encoding, a spot check) is one call of its step; the return wires loop
    over slots, since Eve's ops join slots in wire order.  A step is the
    party's only way to the ops it names; it is built, and so capability-
    checked, before the stage touches a register, and logged once it has run.
    """

    def __init__(self, config, classical: str):
        self.n, self.m = config.n, config.decoy_count()
        self.config = config
        self.total = self.n + self.m
        self.transcript = Transcript([])  # by position, the record's fast path
        self.lanes = lanes = Lanes(self.total)

        def party(name: str, stream: int) -> PartyContext:
            cap = Capability.CLASSICAL if name == classical else Capability.QUANTUM
            return PartyContext(name, cap, RandomSource(derive_seed(config.seed, stream)), lanes)

        self.alice, self.bob = party("alice", 1), party("bob", 2)
        self.charlie = party("charlie", 4) if config.CONTROLLED else None
        self.parties = [p for p in (self.alice, self.bob, self.charlie) if p is not None]
        self.sender, self.receiver = (self.alice, self.bob) if classical == "alice" else (self.bob, self.alice)
        eve = None
        if config.attack.kind is not AttackKind.NONE:
            eve_seed = config.attack.eve_rng_seed
            eve_rng = RandomSource(derive_seed(config.seed, 3) if eve_seed is None else eve_seed)
            eve = PartyContext("eve", Capability.QUANTUM, eve_rng, lanes)
        self.attack = build_attack(config.attack, config.CONTROLLED, eve)
        self.slots = list(range(self.total))  # the positions still in play
        self.error_rate = 0.0
        self.details: dict = {"spot_checked": 0, "spot_mismatches": 0,
                              "decoy_checked": 0, "decoy_mismatches": 0}

    def given_or_drawn(self, party: PartyContext, name: str) -> Bits:
        """The config's bits ``name``, or ``n`` bits ``party`` draws if it sets none."""
        bits = getattr(self.config, name)
        return party.rng.bits(self.n) if bits is None else bits

    def psi_pairs(self) -> None:
        """Alice prepares psi+ pairs, keeps the HOME halves and sends the TRAVEL halves."""
        total, step = self.total, self.alice.step("prepare_bell")
        self.transcript.log("alice", "prepare_pairs", count=total, state=BellKind.PSI_PLUS.value)
        step.prepare_bell(BellKind.PSI_PLUS, HOME, TRAVEL, total)
        step.log()
        self.transcript.log("alice", "send_travel", count=total)
        self.send()

    def send(self) -> None:
        """Put every slot's TRAVEL qubit on the forward leg; HOME stays behind."""
        self.travel = self.attack.forward_leg([p << 3 | TRAVEL for p in range(self.total)])

    def spot_check(
        self, chooser: PartyContext, mismatches: Callable[[list[int]], int], steps: list[Step]
    ) -> SessionOutcome | None:
        """Measure a random set of slots, drawn by ``chooser``, and compare.

        ``mismatches(positions)`` runs ``steps``, built by the runner, on the
        qubits of the slots at ``positions`` (ascending) and counts the slots
        that disagree; the checked copies are consumed.  Returns the abort
        outcome if the mismatch rate is over the threshold; otherwise the
        unchecked slots stay in play.
        """
        s = self.config.spot_count()
        positions = sorted(chooser.rng.sample(self.total, s)) if s else []
        bad = mismatches(positions)
        if positions:
            for step in steps:
                step.log()
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
        return None

    def exchange(
        self,
        encoded: list[int],
        message: Bits,
        send_action: str,
        receive: Callable[[Step, int, int], object] = _read_z,
        receive_ops: tuple[str, ...] = ("measure_z",),
    ) -> list[int]:
        """The sender's encoding and permuted return, then the per-wire readout.

        The sender measures each encoded slot (ascending) in Z and resends
        outcome XOR its message bit on a fresh qubit at the measured qubit's
        address, reflects the other slots in play, and sends the sequence
        under a secret permutation.
        On each wire Eve's hook acts, pairing wire j with the j-th slot in
        play, then the receiver either reads encoded slot i into
        ``received[i]`` by ``receive(step, i, qubit)``, where ``step`` is its
        step of ``receive_ops`` (a Z readout unless given), or Bell-measures
        a decoy against its home partner.  Records the message as Eve's
        target and how she classified each wire, and returns the sender's Z
        outcomes.
        """
        sender, receiver, srng = self.sender, self.receiver, self.sender.rng
        encode, reflect = sender.step("measure_z", "prepare_z"), sender.step("reflect")
        permute = sender.step("permute")
        check = receiver.step("measure_bell")
        rx = receiver.step(*receive_ops)

        travel, slots = self.travel, self.slots
        index: list[int | None] = [None] * self.total  # slot -> position in encoded
        for i, p in enumerate(encoded):
            index[p] = i
        outcomes = encode.resend_zs([travel[p] for p in encoded], message)  # each at the address it frees
        seq = [travel[p] for p in slots]
        self.decoys = [p for p in slots if index[p] is None]
        if encoded:
            encode.log()
        if self.decoys:
            reflect.log()
        self.transcript.log(sender.name, "encode", count=self.n)

        size = len(slots)
        pi = (
            random_permutation(size, srng)
            if self.config.permutation_enabled
            else Permutation.identity(size)
        )
        wire = permute.permute(pi, seq)
        permute.log()
        self.transcript.log(sender.name, send_action, count=size)
        self.wire_of = dict(zip(slots, pi.mapping))
        self.encoded_wires = [self.wire_of[p] for p in encoded]

        # Per-wire processing: the eavesdropper hook, the receiving measurement
        # and the ancilla readout all act on disjoint qubits across wires, so
        # they commute with the later classical stages; sampling them in wire
        # order keeps every register within the qubit cap.
        origin = pi.apply(slots)  # wire -> slot
        received: list = [None] * len(encoded)
        bell: dict[int, BellKind] = {}
        measure_bell = check.measure_bell
        self.attack.slots = slots
        attack = self.attack if "return" in self.attack.legs else None
        for j in range(size):
            q = wire[j]
            if attack is not None:
                q = attack.wire(j, q)
            p = origin[j]
            i = index[p]
            if i is None:
                bell[p] = measure_bell(p << 3 | HOME, q)
            else:
                received[i] = receive(rx, i, q)
            if attack is not None:
                attack.after_wire(j)
        if attack is not None:
            attack.wire_ops.log()
        if encoded:
            rx.log()
        if self.decoys:
            check.log()
        self.received, self.bell = received, bell
        self.transcript.log(receiver.name, "ack_receipt")
        self.details["eve_truth"] = tuple(message)
        self.details["eve_wire_classifications"] = self.attack.wire_classifications
        return outcomes

    def read(self, party: PartyContext, slots: list[int], role: int) -> list[int]:
        """``party`` measures each slot's ``role`` qubit in Z, in slot order."""
        step = party.step("measure_z")
        bits = step.measure_zs([p << 3 | role for p in slots])
        if bits:
            step.log()
        return bits

    def decoy_wires(self) -> list[list[int]]:
        """The disclosed [slot, wire] pairs of the decoys."""
        return [[p, self.wire_of[p]] for p in self.decoys]

    def bell_check(self, expected: list[BellKind]) -> SessionOutcome | None:
        """The receiver's decoy check; then Eve's inferences are fixed.

        ``expected`` lists the Bell state each decoy should show, in
        ``decoys`` order.  Returns the abort outcome if the decoy mismatch
        rate is over the threshold.
        """
        bad = sum(map(is_not, map(self.bell.__getitem__, self.decoys), expected))
        left = len(self.decoys)
        self.transcript.log(self.receiver.name, "bell_check", mismatches=bad, checked=left)
        self.attack.finalize(self.encoded_wires)
        self.details.update(
            decoy_checked=left, decoy_mismatches=bad, encoded_wires=list(self.encoded_wires)
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
        return SessionOutcome(  # every field by position, the record's fast path
            self.config.protocol, reason is not AbortReason.NONE, reason, keys, self.transcript,
            self.error_rate, self.attack.inferred_bits, raw, self.details,
        )


def xor_bits(a: Bits, b: Bits) -> Bits:
    return tuple(map(xor, a, b))


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
