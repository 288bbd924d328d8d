"""Capability-enforced party model, permutations, and ideal commitments.

A classical party may only measure/prepare in the computational basis,
reflect qubits untouched, reorder sequences, and talk on the classical
channel.  Anything else raises :class:`CapabilityViolation` instead of
silently degrading.  Quantum parties get the full simulator surface.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .errors import CapabilityViolation, EmptyInput, ZeroCount
from .qsim import BellKind, OrthonormalPair, RegisterBank
from .rng import RandomSource


class Capability(Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


_CLASSICAL_ALLOWED = frozenset(
    {"prepare_z", "measure_z", "reflect", "permute", "send_classical"}
)
# Each capability's allowed party ops: a quantum party adds the quantum surface.
_ALLOWED = {
    Capability.CLASSICAL: _CLASSICAL_ALLOWED,
    Capability.QUANTUM: _CLASSICAL_ALLOWED
    | {"prepare_bell", "prepare_ghz_like", "measure_bell", "measure_ab", "apply_cnot", "apply_x"},
}


def restrict(capability: Capability, op: str) -> None:
    """Raise CapabilityViolation unless ``op`` is allowed for the capability."""
    if capability is Capability.QUANTUM:
        return
    if op not in _CLASSICAL_ALLOWED:
        raise CapabilityViolation(op)


class ClassicalAction(Enum):
    REFLECT = "reflect"
    MEASURE_AND_PREPARE = "measure"


def choose_actions(n_encode: int, m_decoy: int, rng: RandomSource) -> list[ClassicalAction]:
    """Uniformly random arrangement of n measure-and-prepare and m reflect slots."""
    if n_encode < 1 or m_decoy < 1:
        raise ZeroCount(f"need n_encode >= 1 and m_decoy >= 1, got {n_encode}, {m_decoy}")
    actions = [ClassicalAction.MEASURE_AND_PREPARE] * n_encode + [
        ClassicalAction.REFLECT
    ] * m_decoy
    rng.shuffle(actions)
    return actions


@dataclass(frozen=True)
class Permutation:
    """Bijection on sequence positions; element i of the input moves to mapping[i]."""

    size: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("permutation size must be positive")
        if sorted(self.mapping) != list(range(self.size)):
            raise ValueError(f"mapping is not a bijection on 0..{self.size - 1}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n)))

    def apply(self, seq: list) -> list:
        if len(seq) != self.size:
            raise ValueError(f"sequence length {len(seq)} != permutation size {self.size}")
        out = [None] * self.size
        for i, x in enumerate(seq):
            out[self.mapping[i]] = x
        return out

    def destination(self, i: int) -> int:
        return self.mapping[i]


def random_permutation(size: int, rng: RandomSource) -> Permutation:
    """Uniform draw from the symmetric group S_size."""
    if size < 1:
        raise ValueError("permutation size must be positive")
    return Permutation(size, tuple(rng.permutation(size)))


@dataclass
class Commitment:
    """Ideal commitment: binding and hiding by construction.

    The digest is an opaque random token; the committed bits are sealed in a
    private field that adversary code never reads.  ``verify`` succeeds only
    on the exact committed string.
    """

    digest: bytes
    opened: bool = False
    _sealed: tuple[int, ...] = field(default=(), repr=False)


def commit(bits: tuple[int, ...], rng: RandomSource) -> Commitment:
    if len(bits) == 0:
        raise EmptyInput("cannot commit to an empty bitstring")
    return Commitment(digest=rng.token(16), _sealed=tuple(bits))


def verify(commitment: Commitment, bits: tuple[int, ...]) -> bool:
    commitment.opened = True
    return tuple(bits) == commitment._sealed


class PartyContext:
    """A protocol participant: capability-checked access to the register bank.

    Every op name the party calls is recorded in ``ops_log``, so tests can
    assert that no execution path lets a classical party reach a forbidden
    operation.
    Each op checks its name against the party's allowed set, one membership
    test per call.
    """

    def __init__(self, name: str, capability: Capability, rng: RandomSource, bank: RegisterBank):
        self.name = name
        self.capability = capability
        self.rng = rng
        self.bank = bank
        self.ops_log: set[str] = set()
        self._allowed = _ALLOWED[capability]

    # classical surface -----------------------------------------------------

    def prepare_z(self, bit: int, label: str) -> str:
        if "prepare_z" not in self._allowed:
            raise CapabilityViolation("prepare_z")
        self.ops_log.add("prepare_z")
        return self.bank.prepare_z(bit, label)

    def measure_z(self, label: str) -> int:
        if "measure_z" not in self._allowed:
            raise CapabilityViolation("measure_z")
        self.ops_log.add("measure_z")
        return self.bank.measure_z(label, self.rng)

    def reflect(self, label: str) -> str:
        if "reflect" not in self._allowed:
            raise CapabilityViolation("reflect")
        self.ops_log.add("reflect")
        return label

    def permute(self, perm: Permutation, seq: list) -> list:
        if "permute" not in self._allowed:
            raise CapabilityViolation("permute")
        self.ops_log.add("permute")
        return perm.apply(seq)

    # quantum surface -------------------------------------------------------

    def prepare_bell(self, kind: BellKind, l1: str, l2: str) -> tuple[str, str]:
        if "prepare_bell" not in self._allowed:
            raise CapabilityViolation("prepare_bell")
        self.ops_log.add("prepare_bell")
        return self.bank.prepare_bell(kind, l1, l2)

    def prepare_ghz_like(
        self, psi1: BellKind, psi2: BellKind, basis: OrthonormalPair, labels: tuple[str, str, str]
    ) -> tuple[str, str, str]:
        if "prepare_ghz_like" not in self._allowed:
            raise CapabilityViolation("prepare_ghz_like")
        self.ops_log.add("prepare_ghz_like")
        return self.bank.prepare_ghz_like(psi1, psi2, basis, labels)

    def measure_bell(self, q1: str, q2: str) -> BellKind:
        if "measure_bell" not in self._allowed:
            raise CapabilityViolation("measure_bell")
        self.ops_log.add("measure_bell")
        return self.bank.measure_bell(q1, q2, self.rng)

    def measure_ab(self, label: str, basis: OrthonormalPair) -> int:
        if "measure_ab" not in self._allowed:
            raise CapabilityViolation("measure_ab")
        self.ops_log.add("measure_ab")
        return self.bank.measure_ab(label, basis, self.rng)

    def cnot(self, control: str, target: str) -> None:
        if "apply_cnot" not in self._allowed:
            raise CapabilityViolation("apply_cnot")
        self.ops_log.add("apply_cnot")
        self.bank.cnot(control, target)

    def x(self, label: str) -> None:
        if "apply_x" not in self._allowed:
            raise CapabilityViolation("apply_x")
        self.ops_log.add("apply_x")
        self.bank.x(label)


__all__ = [
    "Capability",
    "ClassicalAction",
    "Commitment",
    "PartyContext",
    "Permutation",
    "choose_actions",
    "commit",
    "random_permutation",
    "restrict",
    "verify",
]
