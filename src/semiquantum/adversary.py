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
from .qsim import BellKind
from .records import Record


class AttackKind(Enum):
    NONE = "none"
    CNOT = "cnot"
    INTERCEPT_RESEND = "intercept-resend"
    MEASURE_RESEND = "measure-resend"


class AttackStrategy(Record):
    """Which adversary model is active and which channel legs it touches.

    ``legs=None`` means ``default_legs`` for the kind and protocol family.
    ``eve_rng_seed=None`` derives Eve's stream from the session seed.
    """

    kind: AttackKind = AttackKind.NONE
    legs: frozenset[str] | None = None
    eve_rng_seed: int | None = None


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


# A session addresses slot i's qubits as i << 3 | role with roles 0-3, the
# travel qubit role 1 (see protocols.common.qubit).  Eve's qubits take roles
# 4-6 of the same packing: KEPT is the one she keeps for slot i (her CNOT
# ancilla or retained Bell half), SENT the one she forwards in slot i's
# place, and RESENT the one she returns on wire i.
_TRAVEL = 1
KEPT, SENT, RESENT = 4, 5, 6


class ChannelAttack:
    """Base hook: pass-through on every leg.

    ``forward_leg`` sees the distribution leg, the travel qubits of slots
    0, 1, ... in order, and runs ``forward`` if that leg is attacked.  The
    session calls ``wire`` and ``after_wire`` on each return wire in arrival
    order, before and after the receiver's measurement, if the return leg
    is attacked.  The hooks act only through Eve's steps, ``FORWARD`` and
    ``WIRE``, checked against her capability when the attack is built;
    ``forward`` logs its step, the session logs ``wire_ops`` once the return
    leg has run.  ``slots[j]`` is the slot Eve pairs with return wire j;
    the session writes its list of slots in play there before the return leg.
    Her observations live on the attack too, and ``finalize`` turns them
    into ``inferred_bits``, one per encoded slot.
    """

    kind = AttackKind.NONE
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

    def wire(self, j: int, label):
        return label

    def after_wire(self, j: int) -> None:
        pass

    def finalize(self, encoded_wires: list[int]) -> None:
        """Fix Eve's per-slot inferences once the wire roles are public."""
        self.inferred_bits = tuple(self.wire_bits.get(w) for w in encoded_wires)


class NoAttack(ChannelAttack):
    def finalize(self, encoded_wires):
        pass  # no adversary, no inferences


class CnotAttack(ChannelAttack):
    """Entangle a fresh ancilla with each travel qubit, CNOT it again with the
    returning wire of the same index, then read the ancilla."""

    kind = AttackKind.CNOT
    FORWARD = ("prepare_z", "apply_cnot")
    WIRE = ("apply_cnot", "measure_z")

    def forward(self, labels):
        ops = self.forward_ops
        cnot = ops.apply_cnot
        ops.prepare_z(0, KEPT, len(labels))
        for i, label in enumerate(labels):
            cnot(label, i << 3 | KEPT)
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

    kind = AttackKind.INTERCEPT_RESEND
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
        u = ops.measure_z(base | _TRAVEL)
        # Identified wires are resent mimicking the sender's encoding; the
        # ambiguous psi+ wires are resent as the complement of the collapsed
        # original.
        new = ops.prepare_z(u ^ (bit if bit is not None else 1), j << 3 | RESENT)
        self.wire_classifications[j] = cls
        self.wire_bits[j] = bit
        return new


class SubstituteSinglesAttack(ChannelAttack):
    """Distribution-leg intercept-resend: keep the originals, forward fresh
    random computational-basis singles.  Used against the controlled
    protocols, where the forwarded qubits have no partner in Eve's hands."""

    kind = AttackKind.INTERCEPT_RESEND
    FORWARD = ("prepare_z",)

    def forward(self, labels):
        ops, bit = self.forward_ops, self.eve.rng.bit
        out = [ops.prepare_z(bit(), i << 3 | SENT) for i in range(len(labels))]
        ops.log()
        return out


class MeasureResendAttack(ChannelAttack):
    """Measure each qubit of an attacked leg in Z and forward a fresh copy."""

    kind = AttackKind.MEASURE_RESEND
    FORWARD = WIRE = ("measure_z", "prepare_z")

    def forward(self, labels):
        ops, bits = self.forward_ops, self.forward_bits
        measure_z, prepare_z = ops.measure_z, ops.prepare_z
        out = []
        for i, label in enumerate(labels):
            u = bits[i] = measure_z(label)
            out.append(prepare_z(u, i << 3 | SENT))
        ops.log()
        return out

    def wire(self, j, label):
        ops = self.wire_ops
        u = self.wire_bits[j] = ops.measure_z(label)
        self.wire_classifications[j] = "unknown"
        return ops.prepare_z(u, j << 3 | RESENT)

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
    legs = strategy.legs if strategy.legs is not None else default_legs(strategy.kind, controlled)
    if not legs <= LEGS:
        raise ValueError(f"legs {sorted(legs)} not available: {sorted(LEGS)}")
    if strategy.kind is AttackKind.NONE:
        return NoAttack(eve, legs)
    if strategy.kind is AttackKind.CNOT:
        # the return-leg CNOT acts on the ancillas of the forward leg
        return CnotAttack(eve, legs if "forward" in legs else frozenset())
    if strategy.kind is AttackKind.INTERCEPT_RESEND:
        if controlled:
            return SubstituteSinglesAttack(eve, legs)
        if "return" in legs and "forward" not in legs:
            raise ValueError("intercept-resend classifies return wires against the Bell "
                             "pairs it swaps in on the forward leg, so it needs both legs")
        return InterceptResendAttack(eve, legs)
    if strategy.kind is AttackKind.MEASURE_RESEND:
        return MeasureResendAttack(eve, legs)
    raise ValueError(f"unhandled attack kind {strategy.kind}")
