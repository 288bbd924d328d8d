"""Capability-enforced party model, permutations, and ideal commitments.

A classical party may only measure/prepare in the computational basis,
reflect qubits untouched, reorder sequences, and talk on the classical
channel.  Anything else raises :class:`CapabilityViolation` instead of
silently degrading.  Quantum parties get the full simulator surface.

A protocol session runs each stage as slot steps on its slot lanes.  A
step names the ops one party applies to the slots and is the only way
the party reaches them: it exposes each named op, bound to the session's
lanes and, for a measurement, to the party's random source, and no other.
The names are checked against the party's allowed set when the step is
built, once per process for each capability, and added to the party's
``ops_log`` when the step has run.
"""
from __future__ import annotations

import functools
from enum import Enum

from .errors import CapabilityViolation, EmptyInput, ZeroCount
from .qsim import COMPUTATIONAL, BellKind, Lanes, OrthonormalPair
from .records import Record, ints
from .rng import RandomSource


class Capability(Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"

    # singletons compared by identity; a C-level hash for each step's ``_checked``
    __hash__ = object.__hash__


_CLASSICAL_ALLOWED = frozenset(
    {"prepare_z", "measure_z", "reflect", "permute", "send_classical"}
)


def restrict(capability: Capability, op: str) -> None:
    """Raise CapabilityViolation unless ``op`` is allowed for the capability."""
    if capability is Capability.QUANTUM:
        return
    if op not in _CLASSICAL_ALLOWED:
        raise CapabilityViolation(op)


@functools.lru_cache(maxsize=None)
def _checked(capability: Capability, ops: tuple[str, ...]) -> tuple[str, ...]:
    for op in ops:
        restrict(capability, op)
    return ops


def _reflect(label):
    return label


def _permute(perm: Permutation, seq: list) -> list:
    return perm.apply(seq)


# what each op of a step reaches, given the session's lanes and the party's
# measurements on them (``PartyContext.measurements``)
_BIND = {
    "prepare_z": lambda lanes, ms: lanes.prepare_z,
    "prepare_bell": lambda lanes, ms: lanes.prepare_bell,
    "prepare_ghz_like": lambda lanes, ms: lanes.prepare_ghz_like,
    "apply_cnot": lambda lanes, ms: lanes.cnot,
    "apply_x": lambda lanes, ms: lanes.x,
    "measure_z": lambda lanes, ms: ms[0],
    "measure_bell": lambda lanes, ms: ms[1],
    "measure_ab": lambda lanes, ms: functools.partial(ms[2], flips=None),  # over a list of addresses
    "reflect": lambda lanes, ms: _reflect,
    "permute": lambda lanes, ms: _permute,
}


class Step:
    """The ops ``names`` of one party, bound for one session.

    Each named op that acts is an attribute of the same name (``apply_cnot``
    is the lanes' ``cnot``, ``measure_bell(q1, q2)`` draws from the party's
    rng); an op the step does not name is not there.  A stage runs an op on
    many slots in one call: ``prepare_*`` and ``apply_cnot`` take a lane
    count, ``measure_ab`` a list of addresses, and so do ``measure_zs``,
    bound with ``measure_z``, and ``resend_zs(addresses, flips)``, with
    ``prepare_z`` too; ``prepare_zs(bits, a)``, with ``prepare_z``, prepares
    one bit in each lane from ``a``'s.  ``log`` records the names in the
    party's ``ops_log``; a stage calls it once the step has run.
    """

    __slots__ = ("party", "names", "measure_zs", "resend_zs", "prepare_zs", *_BIND)

    def __init__(self, party: PartyContext, names: tuple[str, ...]):
        self.party, self.names = party, names
        lanes, ms = party.lanes, party.measurements
        for op in names:
            bind = _BIND.get(op)
            if bind is not None:
                setattr(self, op, bind(lanes, ms))
        if "prepare_z" in names:
            self.prepare_zs = lanes.prepare_zs
        if "measure_z" in names:  # the lanes' measure_each in Z
            self.measure_zs = lambda addresses: ms[2](addresses, COMPUTATIONAL)
            if "prepare_z" in names:
                self.resend_zs = lambda addresses, flips: ms[2](addresses, COMPUTATIONAL, flips)

    def log(self) -> None:
        self.party.ops_log.update(self.names)


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


class Permutation(Record):
    """Bijection on sequence positions; element i of the input moves to
    mapping[i].  ``mapping`` is any sequence of ints, kept as a tuple."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = self.__dict__["mapping"] = ints("mapping", self.mapping)
        size = len(mapping)
        if size < 1:
            raise ValueError("permutation size must be positive")
        if sorted(mapping) != list(range(size)):
            raise ValueError(f"mapping is not a bijection on 0..{size - 1}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._unchecked(tuple(range(n)))

    @classmethod
    def _unchecked(cls, mapping: tuple[int, ...]) -> "Permutation":
        """A mapping that is a bijection by construction, not checked again."""
        perm = object.__new__(cls)
        perm.__dict__["mapping"] = mapping
        return perm if mapping else cls(mapping)  # size 0 raises, as from a caller

    def apply(self, seq: list) -> list:
        mapping = self.mapping
        if len(seq) != len(mapping):
            raise ValueError(f"sequence length {len(seq)} != permutation size {len(mapping)}")
        out = [None] * len(mapping)
        for i, x in zip(mapping, seq):
            out[i] = x
        return out


def random_permutation(size: int, rng: RandomSource) -> Permutation:
    """Uniform draw from the symmetric group S_size."""
    return Permutation._unchecked(tuple(rng.permutation(size)))


class Commitment:
    """Ideal commitment: binding and hiding by construction.

    The digest is an opaque random token; the committed bits are sealed in a
    private field that adversary code never reads.  ``verify`` succeeds only
    on the exact committed string.
    """

    def __init__(self, digest: bytes, opened: bool = False, _sealed: tuple[int, ...] = ()):
        self.digest, self.opened, self._sealed = digest, opened, _sealed


def commit(bits: tuple[int, ...], rng: RandomSource) -> Commitment:
    if len(bits) == 0:
        raise EmptyInput("cannot commit to an empty bitstring")
    return Commitment(digest=rng.token(16), _sealed=tuple(bits))


def verify(commitment: Commitment, bits: tuple[int, ...]) -> bool:
    commitment.opened = True
    return tuple(bits) == commitment._sealed


class PartyContext:
    """A protocol participant: capability-checked access to the slot lanes.

    Every op name the party runs is recorded in ``ops_log``, so tests can
    assert that no execution path lets a classical party reach a forbidden
    operation.  A session's stage loops build their steps (``step``) before
    they run and log each once the loop has run it; the single ops below
    log a one-op step and run it.
    """

    def __init__(self, name: str, capability: Capability, rng: RandomSource, lanes: Lanes):
        self.name = name
        self.capability = capability
        self.rng = rng
        self.lanes = lanes
        # the lanes' measure_z, measure_bell and measure_each drawing from rng,
        # built once for every step of the party
        self.measurements = lanes.measurements(rng)
        self.ops_log: set[str] = set()

    def step(self, *ops: str) -> Step:
        """The step of ``ops``; raises CapabilityViolation if any is not allowed."""
        return Step(self, _checked(self.capability, ops))

    def _op(self, op: str):
        step = self.step(op)
        step.log()
        return getattr(step, op)

    # single ops, each one step ------------------------------------------

    def prepare_z(self, bit: int, a: int) -> int:
        return self._op("prepare_z")(bit, a)

    def measure_z(self, a: int) -> int:
        return self._op("measure_z")(a)

    def reflect(self, a: int) -> int:
        return self._op("reflect")(a)

    def permute(self, perm: Permutation, seq: list) -> list:
        return self._op("permute")(perm, seq)

    def prepare_bell(self, kind: BellKind, a1: int, a2: int) -> tuple[int, int]:
        return self._op("prepare_bell")(kind, a1, a2)

    def prepare_ghz_like(
        self, psi1: BellKind, psi2: BellKind, basis: OrthonormalPair, qubits: tuple[int, int, int]
    ) -> tuple[int, int, int]:
        return self._op("prepare_ghz_like")(psi1, psi2, basis, qubits)

    def measure_bell(self, a1: int, a2: int) -> BellKind:
        return self._op("measure_bell")(a1, a2)

    def measure_ab(self, a: int, basis: OrthonormalPair) -> int:
        return self._op("measure_ab")((a,), basis)[0]

    def cnot(self, control: int, target: int) -> None:
        self._op("apply_cnot")(control, target)

    def x(self, a: int) -> None:
        self._op("apply_x")(a)


__all__ = [
    "Capability",
    "ClassicalAction",
    "Commitment",
    "PartyContext",
    "Permutation",
    "Step",
    "choose_actions",
    "commit",
    "random_permutation",
    "restrict",
    "verify",
]
