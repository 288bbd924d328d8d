"""Pluggable eavesdropper strategies wired into channel legs.

Three attacks are modeled:

* entangle-probe (CNOT): Eve entangles a fresh |0> ancilla with each qubit
  on the distribution leg and applies the same CNOT again on the return
  leg, then reads the ancillas.
* intercept-resend with Bell pairs: Eve swaps her own Bell-pair halves into
  the distribution leg, Bell-measures her retained halves against the
  returned qubits to classify each slot, and resends reconstructed qubits.
* measure-resend: Eve measures every qubit on a leg in the computational
  basis and forwards a fresh copy of the outcome.

Eve has no access to the honest parties' secret permutations, so she pairs
return wire j with the j-th slot still in play, by arrival order.  That
pairing is the session's own list of slots in play, which the session writes
into her ``slots`` before the return leg; her qubits for a wire follow from
it by the lane packing ``slot << 3 | role``.  Her hooks run steps of a quantum
:class:`~semiquantum.parties.PartyContext` on the session's lanes, so her
work is capability-checked and norm-checked like everything else.
"""
from __future__ import annotations

from enum import Enum

from .parties import PartyContext
from .qsim import KEPT, SENT, TRAVEL, BellKind
from .records import Record, require_int


class AttackKind(Enum):
    NONE = "none"
    CNOT = "cnot"
    INTERCEPT_RESEND = "intercept-resend"
    MEASURE_RESEND = "measure-resend"


class AttackStrategy(Record):
    """Which adversary model is active and which channel legs it touches.

    ``kind`` is an ``AttackKind`` or its value, ``legs`` any collection of
    leg names, kept as a frozenset.  ``legs=None`` means ``default_legs`` for
    the kind and protocol family; kind none takes no leg, and entangle-probe
    and intercept-resend act on the return leg only through what their
    forward leg sent, so neither takes the return leg alone.
    ``eve_rng_seed=None`` derives Eve's stream from the session seed.
    """

    kind: AttackKind = AttackKind.NONE
    legs: frozenset[str] | None = None
    eve_rng_seed: int | None = None

    def __post_init__(self):
        require_int("eve_rng_seed", self.eve_rng_seed, optional=True)
        kind = self.__dict__["kind"] = AttackKind(self.kind)
        if self.legs is not None:
            legs = self.__dict__["legs"] = frozenset(self.legs)
            allowed = LEGS if kind is not AttackKind.NONE else frozenset()
            if not legs <= allowed:
                raise ValueError(f"{kind.value!r} takes legs in {sorted(allowed)}, got {sorted(legs)}")
            if legs == {"return"} and kind in (AttackKind.CNOT, AttackKind.INTERCEPT_RESEND):
                raise ValueError(f"{kind.value!r} acts on the return leg only through its forward leg")


# Channel legs: "forward" is the quantum-to-classical distribution leg,
# "return" the classical sender's outgoing leg.  The controller-to-receiver
# leg of the controlled protocols is secured by a separate subroutine and is
# not attackable here.
LEGS = frozenset({"forward", "return"})

# Each attack kind's default legs: (psi-pair protocols, controlled protocols).
_DEFAULT_LEGS: dict[AttackKind, tuple[frozenset[str], frozenset[str]]] = {
    AttackKind.NONE: (frozenset(), frozenset()),
    AttackKind.CNOT: (LEGS, LEGS),
    AttackKind.INTERCEPT_RESEND: (LEGS, frozenset({"forward"})),
    AttackKind.MEASURE_RESEND: (frozenset({"forward"}), LEGS),
}


def default_legs(kind: AttackKind, controlled: bool) -> frozenset[str]:
    """The legs ``kind`` attacks by default, with a controller or without."""
    return _DEFAULT_LEGS[kind][controlled]


# ---------------------------------------------------------------------------
# channel hooks used by the protocol session


class ChannelAttack:
    """Base hook: pass-through on every leg.

    ``forward_leg`` sees the distribution leg, the travel qubits of slots
    0, 1, ... in order, and runs ``forward`` if that leg is attacked.  If the
    return leg is attacked, the session hands ``return_leg`` the wires'
    qubits before the receiver reads any, then calls the hooks it returns,
    ``wire`` and ``after_wire``, on each wire in arrival order, before and
    after the receiver's measurement.  The hooks act only through Eve's
    steps, ``FORWARD`` and ``WIRE``, checked against her capability when the
    attack is built; ``forward`` logs its step, the session logs
    ``wire_ops`` once the return leg has run.  ``slots[j]`` is the slot Eve
    pairs with return wire j; the session writes its list of slots in play
    there before the return leg.
    Eve's own qubits for slot i are ``i << 3 | KEPT`` and ``SENT``; a hook
    that resends returns the address it was handed, which the resent qubit
    takes from the one it replaces.
    Her observations live on the attack too, and ``finalize`` turns them
    into ``inferred_bits``, one per encoded slot.
    """

    FORWARD: tuple[str, ...] = ()
    WIRE: tuple[str, ...] = ()

    def __init__(self, eve: PartyContext | None, legs: frozenset[str]):
        self.eve = eve
        self.legs = legs
        self.slots: list[int] = []
        self.forward_bits: dict[int, int] = {}  # by slot
        self.wire_bits: dict[int, int | None] = {}  # by wire
        self.wire_classifications: dict[int, str] = {}  # by wire
        self.inferred_bits: tuple[int | None, ...] | None = None
        if eve is not None:
            self.forward_ops, self.wire_ops = eve.step(*self.FORWARD), eve.step(*self.WIRE)

    def forward_leg(self, labels: list) -> list:
        return self.forward(labels) if "forward" in self.legs else labels

    def forward(self, labels: list) -> list:
        return labels

    def return_leg(self, wire: list) -> ChannelAttack | None:
        """Run what of the return leg is one stage over all wires; the per-wire hooks, or None."""
        return self

    def wire(self, j: int, label):
        return label

    def after_wire(self, j: int) -> None:
        pass

    def finalize(self, encoded_wires: list[int]) -> None:
        """Fix Eve's per-slot inferences once the wire roles are public."""
        self.inferred_bits = tuple(map(self.wire_bits.get, encoded_wires))


class NoAttack(ChannelAttack):
    def finalize(self, encoded_wires):
        pass  # no adversary, no inferences


class CnotAttack(ChannelAttack):
    """Entangle a fresh ancilla with each travel qubit, CNOT it again with the
    returning wire of the same index, then read the ancilla."""

    FORWARD = ("prepare_z", "apply_cnot")
    WIRE = ("apply_cnot", "measure_z")

    def forward(self, labels):
        ops = self.forward_ops  # labels are the travel qubits of slots 0, 1, ...
        ops.prepare_z(0, KEPT, len(labels))
        ops.apply_cnot(TRAVEL, KEPT, len(labels))
        ops.log()
        return labels

    def wire(self, j, label):
        self.wire_ops.apply_cnot(label, self.slots[j] << 3 | KEPT)
        return label

    def after_wire(self, j):
        self.wire_bits[j] = self.wire_ops.measure_z(self.slots[j] << 3 | KEPT)
        self.wire_classifications[j] = "unknown"


class InterceptResendAttack(ChannelAttack):
    """Keep the real travel qubits and forward halves of Eve's own Bell pairs;
    Bell-classify each returning wire against the retained half, then resend."""

    FORWARD = ("prepare_bell",)
    WIRE = ("measure_bell", "measure_z", "prepare_z")

    def forward(self, labels):
        ops = self.forward_ops
        ops.prepare_bell(BellKind.PSI_PLUS, KEPT, SENT, len(labels))
        ops.log()
        return [i << 3 | SENT for i in range(len(labels))]

    def wire(self, j, label):
        ops, base = self.wire_ops, self.slots[j] << 3
        outcome = ops.measure_bell(base | KEPT, label)
        if outcome is BellKind.PSI_MINUS:
            cls, bit = "measured", 0
        elif outcome.parity == 1:  # phi+/phi-
            cls, bit = "measured", 1
        else:  # psi+ is consistent with a reflection; recorded as unknown
            cls, bit = "unknown", None
        u = ops.measure_z(base | TRAVEL)
        # Identified wires are resent mimicking the sender's encoding; the
        # ambiguous psi+ wires are resent as the complement of the collapsed
        # original.
        ops.prepare_z(u ^ (bit if bit is not None else 1), label)
        self.wire_classifications[j] = cls
        self.wire_bits[j] = bit
        return label


class SubstituteSinglesAttack(ChannelAttack):
    """Distribution-leg intercept-resend: keep the originals, forward fresh
    random computational-basis singles.  Used against the controlled
    protocols, where the forwarded qubits have no partner in Eve's hands."""

    FORWARD = ("prepare_z",)

    def forward(self, labels):
        bit = self.eve.rng.bit  # one draw per slot, in slot order
        self.forward_ops.prepare_zs([bit() for _ in labels], SENT)
        self.forward_ops.log()
        return [i << 3 | SENT for i in range(len(labels))]


class MeasureResendAttack(ChannelAttack):
    """Measure each qubit of an attacked leg in Z and resend the outcome in its place."""

    FORWARD = WIRE = ("measure_z", "prepare_z")

    def forward(self, labels):
        ops = self.forward_ops
        self.forward_bits = dict(enumerate(ops.resend_zs(labels, [0] * len(labels))))
        ops.log()
        return labels

    def return_leg(self, wire):
        # a measure-resend stays in its wire's lane, so the stage gives what the wire loop gives
        self.wire_bits = dict(enumerate(self.wire_ops.resend_zs(wire, [0] * len(wire))))
        self.wire_classifications = dict.fromkeys(range(len(wire)), "unknown")

    def finalize(self, encoded_wires):
        # Wire-order decode guess: XOR the value seen on the return wire with
        # the distribution-leg outcome at the slot paired with that wire.
        wire_bits, forward_bits, slots = self.wire_bits, self.forward_bits, self.slots
        bits: list[int | None] = []
        for w in encoded_wires:
            v, r = wire_bits.get(w), forward_bits.get(slots[w])
            bits.append(None if v is None or r is None else v ^ r)
        self.inferred_bits = tuple(bits)


def build_attack(strategy: AttackStrategy, controlled: bool, eve: PartyContext | None) -> ChannelAttack:
    """Instantiate the channel hooks for a strategy in a protocol with a
    controller (``controlled``) or without; ``eve`` may be None only under
    ``AttackKind.NONE``."""
    kind = strategy.kind
    legs = strategy.legs if strategy.legs is not None else default_legs(kind, controlled)
    if kind is AttackKind.NONE:
        return NoAttack(eve, legs)
    if kind is AttackKind.CNOT:
        return CnotAttack(eve, legs)
    if kind is AttackKind.INTERCEPT_RESEND:
        return (SubstituteSinglesAttack if controlled else InterceptResendAttack)(eve, legs)
    return MeasureResendAttack(eve, legs)
