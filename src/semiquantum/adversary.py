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
pairing is all she keeps: one slot list, from which her qubits for a wire
follow by the lane packing ``slot << 3 | role``, next to the outcomes she
has measured.  Her hooks run steps of a quantum
:class:`~semiquantum.parties.PartyContext` on the session's lanes, so her
work is capability-checked and norm-checked like everything else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .parties import PartyContext
from .qsim import BellKind


class AttackKind(Enum):
    NONE = "none"
    CNOT = "cnot"
    INTERCEPT_RESEND = "intercept-resend"
    MEASURE_RESEND = "measure-resend"


@dataclass(frozen=True)
class AttackStrategy:
    """Which adversary model is active and which channel legs it touches.

    ``legs=None`` means the protocol-specific default for the attack kind.
    ``eve_rng_seed=None`` derives Eve's stream from the session seed.
    """

    kind: AttackKind = AttackKind.NONE
    legs: frozenset[str] | None = None
    eve_rng_seed: int | None = None

    @staticmethod
    def none() -> "AttackStrategy":
        return AttackStrategy(AttackKind.NONE, frozenset())


# Channel legs: "forward" is the quantum-to-classical distribution leg,
# "return" the classical sender's outgoing leg.  The controller-to-receiver
# leg of the controlled protocols is secured by a separate subroutine and is
# not attackable here.
LEGS = frozenset({"forward", "return"})

_DEFAULT_LEGS: dict[AttackKind, dict[str, frozenset[str]]] = {
    AttackKind.NONE: {},
    AttackKind.CNOT: {
        p: LEGS for p in ("sqka", "sqkd", "sqd", "cdssqc-ghz", "cdssqc-switch")
    },
    AttackKind.INTERCEPT_RESEND: {
        "sqka": LEGS,
        "sqkd": LEGS,
        "sqd": LEGS,
        "cdssqc-ghz": frozenset({"forward"}),
        "cdssqc-switch": frozenset({"forward"}),
    },
    AttackKind.MEASURE_RESEND: {
        "sqka": frozenset({"forward"}),
        "sqkd": frozenset({"forward"}),
        "sqd": frozenset({"forward"}),
        "cdssqc-ghz": LEGS,
        "cdssqc-switch": LEGS,
    },
}


def default_legs(kind: AttackKind, protocol: str) -> frozenset[str]:
    if kind is AttackKind.NONE:
        return frozenset()
    return _DEFAULT_LEGS[kind][protocol]


@dataclass
class EveState:
    """Eve's outcomes and per-slot inferences; her qubits follow from her
    slot list (``ChannelAttack.slots``)."""

    forward_bits: dict[int, int] = field(default_factory=dict)  # by slot
    wire_bits: dict[int, int | None] = field(default_factory=dict)
    wire_classifications: dict[int, str] = field(default_factory=dict)
    inferred_bits: tuple[int | None, ...] | None = None


# ---------------------------------------------------------------------------
# channel hooks used by the protocol session


# A session addresses slot i's qubits as i << 3 | role with roles 0-3, the
# travel qubit role 1 (see protocols.common.qubit); Eve's qubits take roles
# 4-6 of the same packing, her resent ones indexed by wire instead of slot.
_TRAVEL, _KEPT, _SENT, _RESENT = 1, 4, 5, 6
_EVE_ROLES = dict(EA=_KEPT, ER=_KEPT, EF=_SENT, EX=_SENT, EM=_SENT, ES=_RESENT, EW=_RESENT)


def eve_qubit(role: str, i: int) -> int:
    """The lane address of Eve's ``role`` qubit for slot or wire ``i``."""
    return i << 3 | _EVE_ROLES[role]


class ChannelAttack:
    """Base hook: pass-through on every leg.

    ``forward_leg`` sees the distribution leg, the travel qubits of slots
    0, 1, ... in order, and runs ``forward`` if that leg is attacked.  The
    session calls ``wire`` and ``after_wire`` on each return wire in arrival
    order, before and after the receiver's measurement, if the return leg
    is attacked.  The hooks act only through Eve's steps, ``FORWARD`` and
    ``WIRE``, checked against her capability when the attack is built;
    ``forward`` logs its step, the session logs ``wire_ops`` once the return
    leg has run.  ``slots[j]`` is the slot Eve pairs with return wire j.
    """

    kind = AttackKind.NONE
    FORWARD: tuple[str, ...] = ()
    WIRE: tuple[str, ...] = ()

    def __init__(self, eve: PartyContext | None, legs: frozenset[str]):
        self.eve = eve
        self.legs = legs
        self.state = EveState()
        self.slots: list[int] = []
        if eve is not None:
            self.forward_ops, self.wire_ops = eve.step(*self.FORWARD), eve.step(*self.WIRE)

    def forward_leg(self, labels: list) -> list:
        self.slots = list(range(len(labels)))
        return self.forward(labels) if "forward" in self.legs else labels

    def forward(self, labels: list) -> list:
        return labels

    def wire(self, j: int, label):
        return label

    def after_wire(self, j: int) -> None:
        pass

    def reindex(self, remaining: list[int]) -> None:
        """Drop publicly checked positions from Eve's slot list.

        Spot-check positions are announced and never return, so a wire-order
        adversary pairs return wire j with the j-th slot left: new index j
        maps to old index ``remaining[j]``.
        """
        slots = self.slots
        self.slots = [slots[p] for p in remaining]

    def finalize(self, encoded_wires: list[int]) -> None:
        """Fix Eve's per-slot inferences once the wire roles are public."""
        self.state.inferred_bits = tuple(self.state.wire_bits.get(w) for w in encoded_wires)


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
        ops.prepare_z(0, eve_qubit("EA", 0), len(labels))
        for i, label in enumerate(labels):
            cnot(label, eve_qubit("EA", i))
        ops.log()
        return labels

    def wire(self, j, label):
        self.wire_ops.apply_cnot(label, self.slots[j] << 3 | _KEPT)
        return label

    def after_wire(self, j):
        st = self.state
        st.wire_bits[j] = self.wire_ops.measure_z(self.slots[j] << 3 | _KEPT)
        st.wire_classifications[j] = "unknown"


class InterceptResendAttack(ChannelAttack):
    """Keep the real travel qubits and forward halves of Eve's own Bell pairs;
    Bell-classify each returning wire against the retained half, then resend."""

    kind = AttackKind.INTERCEPT_RESEND
    FORWARD = ("prepare_bell",)
    WIRE = ("measure_bell", "measure_z", "prepare_z")

    def forward(self, labels):
        ops = self.forward_ops
        ops.prepare_bell(BellKind.PSI_PLUS, eve_qubit("ER", 0), eve_qubit("EF", 0), len(labels))
        ops.log()
        return [eve_qubit("EF", i) for i in range(len(labels))]

    def wire(self, j, label):
        st, ops, base = self.state, self.wire_ops, self.slots[j] << 3
        outcome = ops.measure_bell(base | _KEPT, label)
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
        new = ops.prepare_z(u ^ (bit if bit is not None else 1), j << 3 | _RESENT)
        st.wire_classifications[j] = cls
        st.wire_bits[j] = bit
        return new


class SubstituteSinglesAttack(ChannelAttack):
    """Distribution-leg intercept-resend: keep the originals, forward fresh
    random computational-basis singles.  Used against the controlled
    protocols, where the forwarded qubits have no partner in Eve's hands."""

    kind = AttackKind.INTERCEPT_RESEND
    FORWARD = ("prepare_z",)

    def forward(self, labels):
        ops, bit = self.forward_ops, self.eve.rng.bit
        out = [ops.prepare_z(bit(), eve_qubit("EX", i)) for i in range(len(labels))]
        ops.log()
        return out


class MeasureResendAttack(ChannelAttack):
    """Measure each qubit of an attacked leg in Z and forward a fresh copy."""

    kind = AttackKind.MEASURE_RESEND
    FORWARD = WIRE = ("measure_z", "prepare_z")

    def forward(self, labels):
        ops, bits = self.forward_ops, self.state.forward_bits
        measure_z, prepare_z = ops.measure_z, ops.prepare_z
        out = []
        for i, label in enumerate(labels):
            u = bits[i] = measure_z(label)
            out.append(prepare_z(u, eve_qubit("EM", i)))
        ops.log()
        return out

    def wire(self, j, label):
        ops, st = self.wire_ops, self.state
        u = st.wire_bits[j] = ops.measure_z(label)
        st.wire_classifications[j] = "unknown"
        return ops.prepare_z(u, j << 3 | _RESENT)

    def finalize(self, encoded_wires):
        # Wire-order decode guess: XOR the value seen on the return wire with
        # the distribution-leg outcome at the slot paired with that wire.
        st, slots = self.state, self.slots
        bits: list[int | None] = []
        for w in encoded_wires:
            v, r = st.wire_bits.get(w), st.forward_bits.get(slots[w])
            bits.append(None if v is None or r is None else v ^ r)
        st.inferred_bits = tuple(bits)


def build_attack(strategy: AttackStrategy, protocol: str, eve: PartyContext | None) -> ChannelAttack:
    """Instantiate the channel hooks for a strategy in a given protocol.

    ``eve`` may be None only under ``AttackKind.NONE``.
    """
    legs = strategy.legs if strategy.legs is not None else default_legs(strategy.kind, protocol)
    if not legs <= LEGS:
        raise ValueError(f"legs {sorted(legs)} not available in {protocol}: {sorted(LEGS)}")
    if strategy.kind is AttackKind.NONE:
        return NoAttack(eve, legs)
    if strategy.kind is AttackKind.CNOT:
        # the return-leg CNOT acts on the ancillas of the forward leg
        return CnotAttack(eve, legs if "forward" in legs else frozenset())
    if strategy.kind is AttackKind.INTERCEPT_RESEND:
        if protocol in ("cdssqc-ghz", "cdssqc-switch"):
            return SubstituteSinglesAttack(eve, legs)
        if "return" in legs and "forward" not in legs:
            raise ValueError("intercept-resend classifies return wires against the Bell "
                             "pairs it swaps in on the forward leg, so it needs both legs")
        return InterceptResendAttack(eve, legs)
    if strategy.kind is AttackKind.MEASURE_RESEND:
        return MeasureResendAttack(eve, legs)
    raise ValueError(f"unhandled attack kind {strategy.kind}")
