"""Sparse state-vector simulation of small labeled qubit registers.

The simulator covers exactly what the protocol runners and attack models
need: Bell-state and computational-basis preparation, a three-qubit
controlled-branch state, CNOT and X gates, and destructive measurements in
the Z basis, the Bell basis, and an arbitrary orthonormal single-qubit
basis.

Conventions
-----------
A register holds a map from basis index to complex amplitude with exact
zeros dropped; the protocols never put more than a few nonzero amplitudes
in one register, so every primitive is a short loop over the live entries.
Indices are big-endian in label order: index ``i`` names ``|b0 b1 ...
b_{k-1}>`` where ``b0`` is the qubit at ``labels[0]`` and
``i = sum(b_j << (k-1-j))``.  Measured qubits are removed from the
register; measuring the last qubit leaves ``post_state=None``.  Registers
are hard-capped at ``MAX_QUBITS`` so an accidental global-state blowup
fails loudly instead of silently going quadratic.

Every sampled measurement takes exactly one ``rng.random()`` draw and
returns the first outcome, in a fixed order (Z: 0, 1; Bell: ``BELL_ORDER``;
basis: a, b), whose running probability sum exceeds the draw.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DuplicateLabel,
    EqualBellKinds,
    NonOrthonormalBasis,
    RegisterTooLarge,
    UnknownLabel,
    ZeroProbabilityOutcome,
)
from .rng import RandomSource

NORM_TOL = 1e-12
MAX_QUBITS = 6
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class BellKind(Enum):
    """The four Bell states. psi = equal bits, phi = unequal bits."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    @property
    def parity(self) -> int:
        """0 for the equal-bits (psi) class, 1 for the unequal-bits (phi) class."""
        return 0 if self in (BellKind.PSI_PLUS, BellKind.PSI_MINUS) else 1

    @property
    def sign(self) -> int:
        """0 for the + superposition, 1 for the - superposition."""
        return 0 if self in (BellKind.PSI_PLUS, BellKind.PHI_PLUS) else 1


BELL_ORDER: tuple[BellKind, ...] = (
    BellKind.PSI_PLUS,
    BellKind.PSI_MINUS,
    BellKind.PHI_PLUS,
    BellKind.PHI_MINUS,
)

# Nonzero amplitudes of each Bell state over |b0 b1>, index 2*b0 + b1.
_BELL_ENTRIES: dict[BellKind, dict[int, complex]] = {
    BellKind.PSI_PLUS: {0b00: complex(_INV_SQRT2), 0b11: complex(_INV_SQRT2)},
    BellKind.PSI_MINUS: {0b00: complex(_INV_SQRT2), 0b11: complex(-_INV_SQRT2)},
    BellKind.PHI_PLUS: {0b01: complex(_INV_SQRT2), 0b10: complex(_INV_SQRT2)},
    BellKind.PHI_MINUS: {0b01: complex(_INV_SQRT2), 0b10: complex(-_INV_SQRT2)},
}

# For each pair index 2*b0 + b1: (position in BELL_ORDER, <bell|b0 b1>) for
# every Bell outcome the basis state overlaps.
_BELL_BRAS: tuple[tuple[tuple[int, complex], ...], ...] = tuple(
    tuple(
        (o, _BELL_ENTRIES[kind][r].conjugate())
        for o, kind in enumerate(BELL_ORDER)
        if r in _BELL_ENTRIES[kind]
    )
    for r in range(4)
)


@dataclass(frozen=True)
class OrthonormalPair:
    """An orthonormal single-qubit basis {|a>, |b>} for controller measurements."""

    a: np.ndarray
    b: np.ndarray
    # (a, b) components as Python complex numbers, and for each bit value v the
    # nonzero bras as (outcome, conj(component v)); both derived, not compared.
    _kets: tuple = field(init=False, repr=False, compare=False)
    _bras: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex).reshape(-1)
        b = np.asarray(self.b, dtype=complex).reshape(-1)
        if a.shape != (2,) or b.shape != (2,):
            raise NonOrthonormalBasis("basis vectors must be single-qubit (length 2)")
        if (
            abs(np.vdot(a, a) - 1.0) > NORM_TOL
            or abs(np.vdot(b, b) - 1.0) > NORM_TOL
            or abs(np.vdot(a, b)) > NORM_TOL
        ):
            raise NonOrthonormalBasis("basis vectors must be orthonormal within 1e-12")
        kets = (tuple(a.tolist()), tuple(b.tolist()))
        bras = tuple(
            tuple((o, ket[v].conjugate()) for o, ket in enumerate(kets) if ket[v])
            for v in (0, 1)
        )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_kets", kets)
        object.__setattr__(self, "_bras", bras)


COMPUTATIONAL = OrthonormalPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
HADAMARD = OrthonormalPair(
    np.array([_INV_SQRT2, _INV_SQRT2]), np.array([_INV_SQRT2, -_INV_SQRT2])
)


class StateVector:
    """Complex amplitudes over an ordered, labeled register of 1..6 qubits.

    ``amplitudes`` is a dense vector of ``2**k`` values or a dict from basis
    index to amplitude; either way only the nonzero entries are kept.
    Treated as immutable after construction; every operation returns a new
    value and re-checks the norm invariant.
    """

    __slots__ = ("_entries", "labels")

    def __init__(self, amplitudes, labels):
        labels = tuple(labels)
        k = len(labels)
        if k < 1 or k > MAX_QUBITS:
            raise RegisterTooLarge(f"register size {k} outside [1, {MAX_QUBITS}]")
        if len(set(labels)) != k:
            raise DuplicateLabel(f"labels not unique: {labels}")
        size = 1 << k
        if isinstance(amplitudes, dict):
            items = amplitudes.items()
        else:
            dense = np.asarray(amplitudes, dtype=complex).reshape(-1)
            if dense.size != size:
                raise ValueError(f"need {size} amplitudes for {k} qubits, got {dense.size}")
            items = enumerate(dense.tolist())
        entries = {}
        norm2 = 0.0
        for i, amp in items:
            if not 0 <= i < size:
                raise ValueError(f"basis index {i!r} outside [0, {size}) for {k} qubits")
            if amp:
                entries[i] = amp
                norm2 += amp.real * amp.real + amp.imag * amp.imag
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm2!r}")
        self._entries = entries
        self.labels = labels

    def __repr__(self):
        return f"StateVector(labels={self.labels!r})"

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense read-only copy of the amplitudes, built on each access."""
        dense = np.zeros(1 << len(self.labels), dtype=complex)
        for i, amp in self._entries.items():
            dense[i] = amp
        dense.setflags(write=False)
        return dense

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def norm(self) -> float:
        return math.sqrt(_weight(self._entries))


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of a destructive measurement with its Born probability."""

    outcome: object  # int bit, BellKind, or basis index 0/1
    probability: float
    post_state: StateVector | None


# ---------------------------------------------------------------------------
# preparation


def prepare_z(bit: int, label: str = "q0") -> StateVector:
    """Single qubit |0> or |1>."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return StateVector({bit: 1.0 + 0j}, (label,))


def prepare_bell(kind: BellKind, labels: tuple[str, str] = ("q0", "q1")) -> StateVector:
    """Two-qubit Bell state of the requested kind."""
    return StateVector(_BELL_ENTRIES[kind], labels)


def prepare_ghz_like(
    psi1: BellKind,
    psi2: BellKind,
    basis: OrthonormalPair = COMPUTATIONAL,
    labels: tuple[str, str, str] = ("q0", "q1", "q2"),
) -> StateVector:
    """Three-qubit state (|psi1>|a> + |psi2>|b>)/sqrt(2).

    Qubits 1 and 2 carry the Bell component, qubit 3 is the controller slot.
    The two Bell kinds must differ or the controller bit would be inert.
    """
    if psi1 is psi2:
        raise EqualBellKinds("psi1 and psi2 must be distinct Bell states")
    entries: dict[int, complex] = {}
    for kind, ket in ((psi1, basis._kets[0]), (psi2, basis._kets[1])):
        for r, amp in _BELL_ENTRIES[kind].items():
            for j in (0, 1):
                i = (r << 1) | j
                entries[i] = entries.get(i, 0j) + amp * ket[j]
    return StateVector({i: amp * _INV_SQRT2 for i, amp in entries.items()}, labels)


def merge_registers(s1: StateVector, s2: StateVector) -> StateVector:
    """Tensor product of two disjoint registers; s1's labels become the high bits."""
    if not set(s1.labels).isdisjoint(s2.labels):
        common = sorted(set(s1.labels) & set(s2.labels))
        raise DuplicateLabel(f"labels shared between registers: {common}")
    k = s1.num_qubits + s2.num_qubits
    if k > MAX_QUBITS:
        raise RegisterTooLarge(f"merged register would hold {k} > {MAX_QUBITS} qubits")
    shift = s2.num_qubits
    right = s2._entries.items()
    return StateVector(
        {(i << shift) | j: a * b for i, a in s1._entries.items() for j, b in right},
        s1.labels + s2.labels,
    )


# ---------------------------------------------------------------------------
# gates


def _mask(state: StateVector, label: str) -> int:
    return 1 << (len(state.labels) - 1 - state.position(label))


def apply_cnot(state: StateVector, control: str, target: str) -> StateVector:
    """Standard CNOT; a pure index permutation, so exactly norm-preserving."""
    cm = _mask(state, control)
    tm = _mask(state, target)
    if cm == tm:
        raise ValueError("control and target must differ")
    return StateVector(
        {(i ^ tm if i & cm else i): a for i, a in state._entries.items()}, state.labels
    )


def apply_x(state: StateVector, label: str) -> StateVector:
    """Pauli X on one qubit."""
    tm = _mask(state, label)
    return StateVector({i ^ tm: a for i, a in state._entries.items()}, state.labels)


def reordered(state: StateVector, new_labels: tuple[str, ...]) -> StateVector:
    """The same physical state with register slots listed in a new order."""
    if set(new_labels) != set(state.labels) or len(new_labels) != state.num_qubits:
        raise UnknownLabel(f"{new_labels} is not a reordering of {state.labels}")
    k = state.num_qubits
    moves = [(_mask(state, l), 1 << (k - 1 - j)) for j, l in enumerate(new_labels)]
    return StateVector(
        {sum(new for old, new in moves if i & old): a for i, a in state._entries.items()},
        tuple(new_labels),
    )


# ---------------------------------------------------------------------------
# projections (deterministic branches) and sampled measurements
#
# A measurement splits the live entries into one branch per outcome, keyed by
# the index of the unmeasured qubits, and returns the branches with the labels
# that remain; a branch's Born weight is the sum of its squared magnitudes.


@functools.lru_cache(maxsize=None)
def _split_plan(k: int, positions: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """How a measurement of ``positions`` splits a k-qubit register.

    Returns, for each basis index, the measured bits packed in ``positions``
    order and the index of the unmeasured qubits; then the unmeasured
    positions.  Only single qubits and pairs are measured, so at most 91
    plans exist.
    """
    if len(set(positions)) != len(positions):
        raise DuplicateLabel(f"measured positions not distinct: {positions}")
    keep = tuple(p for p in range(k) if p not in positions)

    def pack(i: int, ps: tuple[int, ...]) -> int:
        return sum(((i >> (k - 1 - p)) & 1) << (len(ps) - 1 - n) for n, p in enumerate(ps))

    return tuple((pack(i, positions), pack(i, keep)) for i in range(1 << k)), keep


def _split(
    state: StateVector, measured: tuple[str, ...], bras: tuple
) -> tuple[tuple[dict, ...], tuple[str, ...]]:
    """Branches of a measurement of the ``measured`` qubits.

    ``bras[pattern]`` lists ``(outcome, <outcome|bits>)`` for every outcome
    overlapping the measured bits ``pattern`` (packed in ``measured`` order).
    """
    labels = state.labels
    table, keep = _split_plan(len(labels), tuple([state.position(l) for l in measured]))
    branches = tuple([{} for _ in bras])
    for i, a in state._entries.items():
        pattern, j = table[i]
        for o, bra in bras[pattern]:
            branch = branches[o]
            branch[j] = branch.get(j, 0j) + bra * a
    return branches, tuple([labels[p] for p in keep])


def _weight(entries: dict) -> float:
    total = 0.0
    for a in entries.values():
        total += abs(a) ** 2
    return total


def _collapse(branch: dict, prob: float, remaining: tuple[str, ...]) -> StateVector | None:
    """The renormalized branch, or None once no qubit remains."""
    if prob <= 0.0:
        raise ZeroProbabilityOutcome("cannot collapse onto a zero-probability branch")
    if not remaining:
        return None
    scale = 1.0 / math.sqrt(prob)
    return StateVector({j: a * scale for j, a in branch.items()}, remaining)


def _project(split, outcome: int) -> tuple[float, StateVector | None]:
    branches, remaining = split
    prob = _weight(branches[outcome])
    return prob, _collapse(branches[outcome], prob, remaining)


def _measure(split, rng: RandomSource) -> tuple[int, float, StateVector | None]:
    branches, remaining = split
    probs = list(map(_weight, branches))
    i = _sample(probs, rng)
    return i, probs[i], _collapse(branches[i], probs[i], remaining)


def z_probabilities(state: StateVector, label: str) -> np.ndarray:
    return np.array([_weight(b) for b in _split(state, (label,), COMPUTATIONAL._bras)[0]])


def project_z(state: StateVector, label: str, outcome: int) -> tuple[float, StateVector | None]:
    """Born probability of a Z outcome and the collapsed remainder."""
    return _project(_split(state, (label,), COMPUTATIONAL._bras), outcome)


def measure_z(state: StateVector, label: str, rng: RandomSource) -> MeasurementRecord:
    """Sample a computational-basis measurement of one qubit."""
    return MeasurementRecord(*_measure(_split(state, (label,), COMPUTATIONAL._bras), rng))


def bell_probabilities(state: StateVector, q1: str, q2: str) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on (q1, q2), in BELL_ORDER."""
    return np.array([_weight(b) for b in _split(state, (q1, q2), _BELL_BRAS)[0]])


def project_bell(state: StateVector, q1: str, q2: str, kind: BellKind) -> tuple[float, StateVector | None]:
    return _project(_split(state, (q1, q2), _BELL_BRAS), BELL_ORDER.index(kind))


def measure_bell(state: StateVector, q1: str, q2: str, rng: RandomSource) -> MeasurementRecord:
    """Sample a Bell-basis measurement of two qubits; both leave the register."""
    i, prob, post = _measure(_split(state, (q1, q2), _BELL_BRAS), rng)
    return MeasurementRecord(BELL_ORDER[i], prob, post)


def ab_probabilities(state: StateVector, label: str, basis: OrthonormalPair) -> np.ndarray:
    return np.array([_weight(b) for b in _split(state, (label,), basis._bras)[0]])


def project_ab(
    state: StateVector, label: str, basis: OrthonormalPair, outcome: int
) -> tuple[float, StateVector | None]:
    return _project(_split(state, (label,), basis._bras), outcome)


def measure_ab(
    state: StateVector, label: str, basis: OrthonormalPair, rng: RandomSource
) -> MeasurementRecord:
    """Sample a measurement in an arbitrary orthonormal basis; outcome 0=|a>, 1=|b>."""
    return MeasurementRecord(*_measure(_split(state, (label,), basis._bras), rng))


def _sample(probs, rng: RandomSource) -> int:
    r = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    # fp shortfall: the draw lies above the summed weights
    for i in range(len(probs) - 1, -1, -1):
        if probs[i] > 0.0:
            return i
    raise ZeroProbabilityOutcome("no outcome has nonzero probability")


# ---------------------------------------------------------------------------
# register bookkeeping


class RegisterBank:
    """Tracks disjoint registers addressed by qubit label.

    Operations that span registers merge them first (subject to the qubit
    cap); measurements drop consumed labels.  This is where travel qubits,
    home qubits, ancillas and fresh preparations all live during a session.
    """

    def __init__(self):
        self._states: dict[str, StateVector] = {}

    def labels(self) -> set[str]:
        return set(self._states)

    def state_of(self, label: str) -> StateVector:
        try:
            return self._states[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def add(self, state: StateVector) -> None:
        for l in state.labels:
            if l in self._states:
                raise DuplicateLabel(l)
        for l in state.labels:
            self._states[l] = state

    def prepare_z(self, bit: int, label: str) -> str:
        self.add(prepare_z(bit, label))
        return label

    def prepare_bell(self, kind: BellKind, l1: str, l2: str) -> tuple[str, str]:
        self.add(prepare_bell(kind, (l1, l2)))
        return l1, l2

    def prepare_ghz_like(
        self, psi1: BellKind, psi2: BellKind, basis: OrthonormalPair, labels: tuple[str, str, str]
    ) -> tuple[str, str, str]:
        self.add(prepare_ghz_like(psi1, psi2, basis, labels))
        return labels

    def _merged(self, *labels: str) -> StateVector:
        first = merged = self.state_of(labels[0])
        for l in labels[1:]:
            if l not in merged.labels:
                merged = merge_registers(merged, self.state_of(l))
        if merged is not first:
            self._replace(merged)
        return merged

    def _replace(self, state: StateVector | None, removed: tuple[str, ...] = ()) -> None:
        for l in removed:
            self._states.pop(l, None)
        if state is not None:
            for l in state.labels:
                self._states[l] = state

    def cnot(self, control: str, target: str) -> None:
        state = apply_cnot(self._merged(control, target), control, target)
        self._replace(state)

    def x(self, label: str) -> None:
        self._replace(apply_x(self.state_of(label), label))

    def measure_z(self, label: str, rng: RandomSource) -> int:
        rec = measure_z(self.state_of(label), label, rng)
        self._replace(rec.post_state, removed=(label,))
        return int(rec.outcome)

    def measure_bell(self, q1: str, q2: str, rng: RandomSource) -> BellKind:
        rec = measure_bell(self._merged(q1, q2), q1, q2, rng)
        self._replace(rec.post_state, removed=(q1, q2))
        return rec.outcome

    def measure_ab(self, label: str, basis: OrthonormalPair, rng: RandomSource) -> int:
        rec = measure_ab(self.state_of(label), label, basis, rng)
        self._replace(rec.post_state, removed=(label,))
        return int(rec.outcome)
