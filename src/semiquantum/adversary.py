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

Eve always pairs her bookkeeping by wire arrival order; she has no access
to the honest parties' secret permutations.  Her hooks run steps of a
quantum :class:`~semiquantum.parties.PartyContext` on the session's lanes,
so her work is capability-checked and norm-checked like everything else.
Her own qubits have lane addresses ``eve_qubit(role, i)``.
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
    """Eve's accumulated qubits and per-slot inferences."""

    ancillas: dict[int, str] = field(default_factory=dict)
    retained_travel: dict[int, str] = field(default_factory=dict)
    retained_pairs: dict[int, tuple[str, str]] = field(default_factory=dict)
    forward_bits: dict[int, int] = field(default_factory=dict)
    wire_bits: dict[int, int | None] = field(default_factory=dict)
    wire_classifications: dict[int, str] = field(default_factory=dict)
    inferred_bits: tuple[int | None, ...] | None = None


# ---------------------------------------------------------------------------
# channel hooks used by the protocol session


# A session addresses slot i's qubits as i << 3 | role with roles 0-3 (see
# protocols.common.qubit); Eve's qubits take roles 4-6 of the same packing,
# her resent ones indexed by wire instead of slot.
_EVE_ROLES = {"EA": 4, "ER": 4, "EF": 5, "EX": 5, "EM": 5, "ES": 6, "EW": 6}


def eve_qubit(role: str, i: int) -> int:
    """The lane address of Eve's ``role`` qubit for slot or wire ``i``."""
    return i << 3 | _EVE_ROLES[role]


class ChannelAttack:
    """Base hook: pass-through on every leg.

    ``forward_leg`` sees the whole distribution leg; ``wire`` and
    ``after_wire`` see each return-leg wire in arrival order, before and
    after the receiver's measurement.  The hooks act only through Eve's
    steps, ``FORWARD`` on the distribution leg and ``WIRE`` per return
    wire, which are checked against her capability when the attack is
    built.
    """

    kind = AttackKind.NONE
    FORWARD: tuple[str, ...] = ()
    WIRE: tuple[str, ...] = ()

    def __init__(self, eve: PartyContext | None, legs: frozenset[str]):
        self.eve = eve
        self.legs = legs
        self.state = EveState()
        if eve is not None:
            self.forward_ops, self.wire_ops = eve.step(*self.FORWARD), eve.step(*self.WIRE)

    def forward_leg(self, labels: list) -> list:
        return labels

    def wire(self, j: int, label):
        return label

    def after_wire(self, j: int) -> None:
        pass

    def reindex(self, remaining: list[int]) -> None:
        """Advance Eve's per-slot queues past publicly checked positions.

        Spot-check positions are announced and never return, so a wire-order
        adversary re-keys her ancillas and retained qubits to the surviving
        slots: new index j maps to old index ``remaining[j]``.
        """
        st = self.state
        for attr in ("ancillas", "retained_travel", "retained_pairs", "forward_bits"):
            old = getattr(st, attr)
            setattr(
                st,
                attr,
                {j: old[p] for j, p in enumerate(remaining) if p in old},
            )

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

    def forward_leg(self, labels):
        if "forward" in self.legs and labels:
            ops, ancillas = self.forward_ops, self.state.ancillas
            cnot = ops.apply_cnot
            ops.prepare_z(0, eve_qubit("EA", 0), len(labels))
            for i, label in enumerate(labels):
                anc = ancillas[i] = eve_qubit("EA", i)
                cnot(label, anc)
            ops.log()
        return labels

    def wire(self, j, label):
        if "return" in self.legs:
            anc = self.state.ancillas.get(j)
            if anc is not None:
                self.wire_ops.apply_cnot(label, anc)
        return label

    def after_wire(self, j):
        if "return" in self.legs:
            anc = self.state.ancillas.pop(j, None)
            if anc is not None:
                ops = self.wire_ops
                self.state.wire_bits[j] = ops.measure_z(anc)
                self.state.wire_classifications[j] = "unknown"
                ops.log()


class InterceptResendAttack(ChannelAttack):
    """Keep the real travel qubits and forward halves of Eve's own Bell pairs;
    Bell-classify each returning wire against the retained half, then resend."""

    kind = AttackKind.INTERCEPT_RESEND
    FORWARD = ("prepare_bell",)
    WIRE = ("measure_bell", "measure_z", "prepare_z")

    def forward_leg(self, labels):
        if "forward" not in self.legs or not labels:
            return labels
        st, ops = self.state, self.forward_ops
        ops.prepare_bell(BellKind.PSI_PLUS, eve_qubit("ER", 0), eve_qubit("EF", 0), len(labels))
        out = []
        for i, label in enumerate(labels):
            st.retained_travel[i] = label
            pair = st.retained_pairs[i] = eve_qubit("ER", i), eve_qubit("EF", i)
            out.append(pair[1])
        ops.log()
        return out

    def wire(self, j, label):
        if "return" not in self.legs:
            return label
        st, ops = self.state, self.wire_ops
        outcome = ops.measure_bell(st.retained_pairs[j][0], label)
        if outcome is BellKind.PSI_MINUS:
            cls, bit = "measured", 0
        elif outcome.parity == 1:  # phi+/phi-
            cls, bit = "measured", 1
        else:  # psi+ is consistent with a reflection; recorded as unknown
            cls, bit = "unknown", None
        u = ops.measure_z(st.retained_travel[j])
        # Identified wires are resent mimicking the sender's encoding; the
        # ambiguous psi+ wires are resent as the complement of the collapsed
        # original.
        new = ops.prepare_z(u ^ (bit if bit is not None else 1), eve_qubit("ES", j))
        st.wire_classifications[j] = cls
        st.wire_bits[j] = bit
        ops.log()
        return new


class SubstituteSinglesAttack(ChannelAttack):
    """Distribution-leg intercept-resend: keep the originals, forward fresh
    random computational-basis singles.  Used against the controlled
    protocols, where the forwarded qubits have no partner in Eve's hands."""

    kind = AttackKind.INTERCEPT_RESEND
    FORWARD = ("prepare_z",)

    def forward_leg(self, labels):
        if "forward" not in self.legs or not labels:
            return labels
        st, ops, rng = self.state, self.forward_ops, self.eve.rng
        out = []
        for i, label in enumerate(labels):
            st.retained_travel[i] = label
            bit = rng.bit()
            out.append(ops.prepare_z(bit, eve_qubit("EX", i)))
            st.forward_bits[i] = bit
        ops.log()
        return out


class MeasureResendAttack(ChannelAttack):
    """Measure each qubit of an attacked leg in Z and forward a fresh copy."""

    kind = AttackKind.MEASURE_RESEND
    FORWARD = WIRE = ("measure_z", "prepare_z")

    def forward_leg(self, labels):
        if "forward" not in self.legs or not labels:
            return labels
        st, ops = self.state, self.forward_ops
        measure_z, prepare_z = ops.measure_z, ops.prepare_z
        out = []
        for i, label in enumerate(labels):
            u = measure_z(label)
            st.forward_bits[i] = u
            out.append(prepare_z(u, eve_qubit("EM", i)))
        ops.log()
        return out

    def wire(self, j, label):
        if "return" not in self.legs:
            return label
        ops = self.wire_ops
        u = ops.measure_z(label)
        self.state.wire_bits[j] = u
        self.state.wire_classifications[j] = "unknown"
        ops.log()
        return ops.prepare_z(u, eve_qubit("EW", j))

    def finalize(self, encoded_wires):
        # Wire-order decode guess: XOR the value seen on the return wire with
        # the distribution-leg outcome at the same slot index.
        bits: list[int | None] = []
        for w in encoded_wires:
            v = self.state.wire_bits.get(w)
            r = self.state.forward_bits.get(w)
            bits.append(None if v is None or r is None else v ^ r)
        self.state.inferred_bits = tuple(bits)


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
        return CnotAttack(eve, legs)
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
