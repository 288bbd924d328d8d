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
fails loudly instead of silently going quadratic.  The package needs no
numpy: dense values are tuples, and any sequence (a 1-D array too) is read
by iteration.

Memo
----
A ``StateVector`` is its labels plus a ket: the qubit count and the exact
amplitude entries in insertion order, range- and norm-checked once when
built.  Stored kets are interned, and each primitive keeps its result on the
input ket: a gate or merge its output ket, a measurement its step.  Every
ket of at most 4 qubits is stored; of the 5- and 6-qubit kets (cross-slot
registers of permuted attacks) only the first ``MAX_WIDE_KETS``.  A step
holds its branch probabilities, their running sums and each branch's post
ket, collapsed when the branch is first taken.

A session's registers live in ``Lanes``, addressed by slot and role.  A
register within one slot is an interned lane state, a ket plus the role of
each qubit, and each op is one memoized transition of it: a gate or
preparation maps it to the next state, a measurement to a ``_LaneStep``
whose posts are states, so a measurement is one lookup, one ``_sample`` and
the stores.  Up to ``MAX_LANE_STATES`` states are stored; a register
spanning slots is a shared record run on its ket's memo.  A stored ket's or
state's memo refers only to stored ones, later ones take the same code
unstored, and every result is the value the computation gives the first
time, so the memo changes no draw.  Every sampled measurement takes
exactly one ``rng.random()`` draw in ``_sample`` and returns the first
outcome, in a fixed order (Z: 0, 1; Bell: ``BELL_ORDER``; basis: a, b),
whose running probability sum exceeds the draw.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

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
# at most this many kets of 5-6 qubits are stored with their memo (see Memo)
MAX_WIDE_KETS = 512
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class BellKind(Enum):
    """The four Bell states. psi = equal bits, phi = unequal bits."""

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    # members are singletons compared by identity; the C-level hash keeps
    # the per-slot ket lookups off Enum's Python-level one
    __hash__ = object.__hash__

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


class _Bras(tuple):
    """A bra table for ``_Step``: ``table[pattern]`` lists ``(outcome,
    <outcome|bits>)`` for every outcome overlapping the measured bits
    ``pattern``.  It hashes by identity, so it is a cheap memo key; two
    equal tables built apart are two keys, which costs only a recomputation.
    """

    __slots__ = ()
    __hash__ = object.__hash__


# For each pair index 2*b0 + b1: (position in BELL_ORDER, <bell|b0 b1>) for
# every Bell outcome the basis state overlaps.
_BELL_BRAS = _Bras(
    tuple(
        (o, _BELL_ENTRIES[kind][r].conjugate())
        for o, kind in enumerate(BELL_ORDER)
        if r in _BELL_ENTRIES[kind]
    )
    for r in range(4)
)


def _vdot(u: tuple[complex, ...], v: tuple[complex, ...]) -> complex:
    return sum((x.conjugate() * y for x, y in zip(u, v)), 0j)


@dataclass(frozen=True)
class OrthonormalPair:
    """An orthonormal single-qubit basis {|a>, |b>} for controller measurements.

    ``a`` and ``b`` are kept as given, any sequence of two numbers.  Two
    bases are equal, and hash alike, when their components are exactly equal.
    """

    a: Sequence[complex] = field(compare=False)
    b: Sequence[complex] = field(compare=False)
    # (a, b) components as Python complex numbers, their hash, and for each
    # bit value v the nonzero bras as (outcome, conj(component v)).
    _kets: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _bras: _Bras = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        return self._hash

    def __post_init__(self):
        kets = a, b = tuple(map(complex, self.a)), tuple(map(complex, self.b))
        if len(a) != 2 or len(b) != 2:
            raise NonOrthonormalBasis("basis vectors must be single-qubit (length 2)")
        if (
            abs(_vdot(a, a) - 1.0) > NORM_TOL
            or abs(_vdot(b, b) - 1.0) > NORM_TOL
            or abs(_vdot(a, b)) > NORM_TOL
        ):
            raise NonOrthonormalBasis("basis vectors must be orthonormal within 1e-12")
        bras = _Bras(
            tuple((o, ket[v].conjugate()) for o, ket in enumerate(kets) if ket[v])
            for v in (0, 1)
        )
        object.__setattr__(self, "_kets", kets)
        object.__setattr__(self, "_hash", hash(kets))
        object.__setattr__(self, "_bras", bras)


COMPUTATIONAL = OrthonormalPair((1.0, 0.0), (0.0, 1.0))
HADAMARD = OrthonormalPair((_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2))


# ---------------------------------------------------------------------------
# kets: validated register contents with memoized transitions


class _Ket:
    """A register's content without labels: qubit count and nonzero entries.

    ``memo`` maps a primitive's arguments to its result on this ket:
    ``("cnot", c, t)`` and ``("x", t)`` to the output ket, the right-hand
    ket of a merge to the merged ket, and ``(bras, positions)`` to the
    measurement's ``_Step``.  ``stored`` tells whether the ket is interned.
    """

    __slots__ = ("k", "entries", "memo", "stored")

    def __init__(self, k: int, entries: dict[int, complex]):
        self.k = k
        self.entries = entries
        self.memo: dict = {}
        self.stored = False


# Interned kets, keyed by content; at most MAX_WIDE_KETS of them are wide.
_KETS: dict[tuple, _Ket] = {}
_NARROW_QUBITS = 4
_wide_stored = 0


def _intern(k: int, amplitudes) -> _Ket:
    """The ket of ``amplitudes``, pairs of basis index and amplitude.

    Exact zeros are dropped.  A content seen before returns its interned
    ket; a new one is norm-checked and stored if it is narrow or the wide
    kets are still under their cap.
    """
    global _wide_stored
    size = 1 << k
    entries = {}
    for i, amp in amplitudes:
        if not 0 <= i < size:
            raise ValueError(f"basis index {i!r} outside [0, {size}) for {k} qubits")
        if amp:
            entries[i] = amp
    key = (k, tuple(entries.items()))
    ket = _KETS.get(key)
    if ket is None:
        norm2 = 0.0
        for amp in entries.values():
            norm2 += amp.real * amp.real + amp.imag * amp.imag
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm2!r}")
        ket = _Ket(k, entries)
        if k <= _NARROW_QUBITS or _wide_stored < MAX_WIDE_KETS:
            if k > _NARROW_QUBITS:
                _wide_stored += 1
            ket.stored = True
            _KETS[key] = ket
    return ket


class StateVector:
    """Complex amplitudes over an ordered, labeled register of 1..6 qubits.

    ``amplitudes`` is a dense vector of ``2**k`` values, a dict from basis
    index to amplitude, or the ``_ket`` of another StateVector; only the
    nonzero entries are kept.  Treated as immutable after construction;
    every operation returns a new value over a checked ket.
    """

    __slots__ = ("_ket", "labels")

    def __init__(self, amplitudes, labels):
        labels = tuple(labels)
        k = len(labels)
        if k < 1 or k > MAX_QUBITS:
            raise RegisterTooLarge(f"register size {k} outside [1, {MAX_QUBITS}]")
        if len(set(labels)) != k:
            raise DuplicateLabel(f"labels not unique: {labels}")
        if type(amplitudes) is _Ket:
            if amplitudes.k != k:
                raise ValueError(f"a {amplitudes.k}-qubit ket cannot carry {k} labels")
            self._ket = amplitudes
        else:
            if isinstance(amplitudes, dict):
                items = amplitudes.items()
            else:
                dense = tuple(map(complex, amplitudes))
                if len(dense) != 1 << k:
                    raise ValueError(f"need {1 << k} amplitudes for {k} qubits, got {len(dense)}")
                items = enumerate(dense)
            self._ket = _intern(k, items)
        self.labels = labels

    def __repr__(self):
        return f"StateVector(labels={self.labels!r})"

    @property
    def amplitudes(self) -> tuple[complex, ...]:
        """The ``2**k`` amplitudes as a tuple, built on each access."""
        entries = self._ket.entries
        return tuple(complex(entries.get(i, 0)) for i in range(1 << len(self.labels)))

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(label) from None

    def norm(self) -> float:
        return math.sqrt(_weight(self._ket.entries))


class MeasurementRecord(NamedTuple):
    """Outcome of a destructive measurement with its Born probability."""

    outcome: object  # int bit, BellKind, or basis index 0/1
    probability: float
    post_state: StateVector | None


# ---------------------------------------------------------------------------
# preparation

_Z_KETS = tuple(_intern(1, [(bit, 1.0 + 0j)]) for bit in (0, 1))
_BELL_KETS = {kind: _intern(2, entries.items()) for kind, entries in _BELL_ENTRIES.items()}


def prepare_z(bit: int, label: str = "q0") -> StateVector:
    """Single qubit |0> or |1>."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return StateVector(_Z_KETS[bit], (label,))


def prepare_bell(kind: BellKind, labels: tuple[str, str] = ("q0", "q1")) -> StateVector:
    """Two-qubit Bell state of the requested kind."""
    return StateVector(_BELL_KETS[kind], labels)


@functools.lru_cache(maxsize=None)
def _ghz_like_ket(psi1: BellKind, psi2: BellKind, basis: OrthonormalPair) -> _Ket:
    entries: dict[int, complex] = {}
    for kind, ket in ((psi1, basis._kets[0]), (psi2, basis._kets[1])):
        for r, amp in _BELL_ENTRIES[kind].items():
            for j in (0, 1):
                i = (r << 1) | j
                entries[i] = entries.get(i, 0j) + amp * ket[j]
    return _intern(3, [(i, amp * _INV_SQRT2) for i, amp in entries.items()])


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
    return StateVector(_ghz_like_ket(psi1, psi2, basis), labels)


def merge_registers(s1: StateVector, s2: StateVector) -> StateVector:
    """Tensor product of two disjoint registers; s1's labels become the high bits."""
    if not set(s1.labels).isdisjoint(s2.labels):
        common = sorted(set(s1.labels) & set(s2.labels))
        raise DuplicateLabel(f"labels shared between registers: {common}")
    return StateVector(_merge(s1._ket, s2._ket), s1.labels + s2.labels)


def _merge(left: _Ket, right: _Ket) -> _Ket:
    """The ket of ``left`` and ``right`` side by side, ``left`` in the high bits."""
    k = left.k + right.k
    if k > MAX_QUBITS:
        raise RegisterTooLarge(f"merged register would hold {k} > {MAX_QUBITS} qubits")
    ket = left.memo.get(right)
    if ket is None:
        shift = right.k
        pairs = right.entries.items()
        ket = _intern(k, [((i << shift) | j, a * b) for i, a in left.entries.items() for j, b in pairs])
        if ket.stored and right.stored:
            left.memo[right] = ket
    return ket


# ---------------------------------------------------------------------------
# gates


def _mask(k: int, position: int) -> int:
    return 1 << (k - 1 - position)


def _cnot(ket: _Ket, c: int, t: int) -> _Ket:
    """``ket`` after a CNOT from position ``c`` onto position ``t``."""
    if c == t:
        raise ValueError("control and target must differ")
    key = ("cnot", c, t)
    out = ket.memo.get(key)
    if out is None:
        cm, tm = _mask(ket.k, c), _mask(ket.k, t)
        out = _intern(ket.k, [(i ^ tm if i & cm else i, a) for i, a in ket.entries.items()])
        if out.stored:
            ket.memo[key] = out
    return out


def _x(ket: _Ket, t: int) -> _Ket:
    """``ket`` after an X on position ``t``."""
    key = ("x", t)
    out = ket.memo.get(key)
    if out is None:
        tm = _mask(ket.k, t)
        out = _intern(ket.k, [(i ^ tm, a) for i, a in ket.entries.items()])
        if out.stored:
            ket.memo[key] = out
    return out


def apply_cnot(state: StateVector, control: str, target: str) -> StateVector:
    """Standard CNOT; a pure index permutation, so exactly norm-preserving."""
    return StateVector(_cnot(state._ket, state.position(control), state.position(target)), state.labels)


def apply_x(state: StateVector, label: str) -> StateVector:
    """Pauli X on one qubit."""
    return StateVector(_x(state._ket, state.position(label)), state.labels)


def reordered(state: StateVector, new_labels: tuple[str, ...]) -> StateVector:
    """The same physical state with register slots listed in a new order."""
    if set(new_labels) != set(state.labels) or len(new_labels) != state.num_qubits:
        raise UnknownLabel(f"{new_labels} is not a reordering of {state.labels}")
    k = state.num_qubits
    moves = [(_mask(k, state.position(l)), _mask(k, j)) for j, l in enumerate(new_labels)]
    return StateVector(
        _intern(k, [(sum(new for old, new in moves if i & old), a) for i, a in state._ket.entries.items()]),
        tuple(new_labels),
    )


# ---------------------------------------------------------------------------
# projections (deterministic branches) and sampled measurements


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


def _weight(entries: dict) -> float:
    total = 0.0
    for a in entries.values():
        total += abs(a) ** 2
    return total


class _Step:
    """A measurement of the qubits at ``positions`` of one ket.

    The live entries split into one branch per outcome, keyed by the index
    of the unmeasured qubits (``keep``); a branch's Born weight is the sum
    of its squared magnitudes.  ``cuts`` pairs each possible outcome with
    the running sum of the weights up to it, the sums ``_sample`` compares
    the draw with; the last bound is infinite, so a draw above the summed
    weights takes the last possible outcome.  ``posts[o]`` holds branch
    ``o`` as a dict until it is first used, then its renormalized ket if
    that is stored; it is None once no qubit remains.  ``pick(labels)``
    gives the labels at ``keep`` as a tuple.
    """

    __slots__ = ("probs", "keep", "posts", "cuts", "pick")

    def __init__(self, ket: _Ket, positions: tuple[int, ...], bras: _Bras):
        table, keep = _split_plan(ket.k, positions)
        branches = [{} for _ in bras]
        for i, a in ket.entries.items():
            pattern, j = table[i]
            for o, bra in bras[pattern]:
                branch = branches[o]
                branch[j] = branch.get(j, 0j) + bra * a
        self.probs = tuple(map(_weight, branches))
        self.keep = keep
        self.posts = [b if keep or p <= 0.0 else None for b, p in zip(branches, self.probs)]
        self.cuts = _cuts(self.probs)
        if len(keep) == 1:  # a slice, so that one label stays a tuple
            self.pick = operator.itemgetter(slice(keep[0], keep[0] + 1))
        else:
            self.pick = operator.itemgetter(*keep) if keep else None

    def post(self, outcome: int) -> _Ket | None:
        """The renormalized ket of branch ``outcome``, or None."""
        prob = self.probs[outcome]
        if prob <= 0.0:
            raise ZeroProbabilityOutcome("cannot collapse onto a zero-probability branch")
        post = self.posts[outcome]
        if type(post) is dict:
            scale = 1.0 / math.sqrt(prob)
            post = _intern(len(self.keep), [(j, a * scale) for j, a in post.items()])
            if post.stored:
                self.posts[outcome] = post
        return post

    def post_state(self, state: StateVector, outcome: int) -> StateVector | None:
        """The renormalized branch over ``state``'s remaining labels, or None."""
        post = self.post(outcome)
        if post is None:
            return None
        return StateVector(post, self.pick(state.labels))


def _cuts(probs) -> tuple[tuple[float, int], ...]:
    """(running sum, outcome) for each outcome of nonzero weight, the last
    sum replaced by infinity."""
    cuts, acc = [], 0.0
    for i, p in enumerate(probs):
        acc += p
        if p > 0.0:
            cuts.append((acc, i))
    if cuts:
        cuts[-1] = (math.inf, cuts[-1][1])
    return tuple(cuts)


def _step(ket: _Ket, positions: tuple[int, ...], bras: _Bras) -> _Step:
    key = (bras, positions)
    step = ket.memo.get(key)
    if step is None:
        step = ket.memo[key] = _Step(ket, positions, bras)
    return step


def _project(state: StateVector, step: _Step, outcome: int) -> tuple[float, StateVector | None]:
    return step.probs[outcome], step.post_state(state, outcome)


def _measure(state: StateVector, step: _Step, rng: RandomSource) -> tuple[int, float, StateVector | None]:
    i = _sample(step, rng)
    return i, step.probs[i], step.post_state(state, i)


def _qubit_step(state: StateVector, label: str, basis: OrthonormalPair) -> _Step:
    return _step(state._ket, (state.position(label),), basis._bras)


def _bell_step(state: StateVector, q1: str, q2: str) -> _Step:
    return _step(state._ket, (state.position(q1), state.position(q2)), _BELL_BRAS)


def z_probabilities(state: StateVector, label: str) -> tuple[float, float]:
    return _qubit_step(state, label, COMPUTATIONAL).probs


def project_z(state: StateVector, label: str, outcome: int) -> tuple[float, StateVector | None]:
    """Born probability of a Z outcome and the collapsed remainder."""
    return _project(state, _qubit_step(state, label, COMPUTATIONAL), outcome)


def measure_z(state: StateVector, label: str, rng: RandomSource) -> MeasurementRecord:
    """Sample a computational-basis measurement of one qubit."""
    return MeasurementRecord(*_measure(state, _qubit_step(state, label, COMPUTATIONAL), rng))


def bell_probabilities(state: StateVector, q1: str, q2: str) -> tuple[float, ...]:
    """Born probabilities of the four Bell outcomes on (q1, q2), in BELL_ORDER."""
    return _bell_step(state, q1, q2).probs


def project_bell(state: StateVector, q1: str, q2: str, kind: BellKind) -> tuple[float, StateVector | None]:
    return _project(state, _bell_step(state, q1, q2), BELL_ORDER.index(kind))


def measure_bell(state: StateVector, q1: str, q2: str, rng: RandomSource) -> MeasurementRecord:
    """Sample a Bell-basis measurement of two qubits; both leave the register."""
    i, prob, post = _measure(state, _bell_step(state, q1, q2), rng)
    return MeasurementRecord(BELL_ORDER[i], prob, post)


def ab_probabilities(state: StateVector, label: str, basis: OrthonormalPair) -> tuple[float, float]:
    return _qubit_step(state, label, basis).probs


def project_ab(
    state: StateVector, label: str, basis: OrthonormalPair, outcome: int
) -> tuple[float, StateVector | None]:
    return _project(state, _qubit_step(state, label, basis), outcome)


def measure_ab(
    state: StateVector, label: str, basis: OrthonormalPair, rng: RandomSource
) -> MeasurementRecord:
    """Sample a measurement in an arbitrary orthonormal basis; outcome 0=|a>, 1=|b>."""
    return MeasurementRecord(*_measure(state, _qubit_step(state, label, basis), rng))


def _sample(step: _Step, rng: RandomSource) -> int:
    """The outcome of one ``rng.random()`` draw against ``step.cuts``."""
    r = rng.random()
    for cut, outcome in step.cuts:
        if r < cut:
            return outcome
    raise ZeroProbabilityOutcome("no outcome has nonzero probability")


# ---------------------------------------------------------------------------
# slot lanes: a session's registers as interned per-slot states

# at most this many lane states are stored with their memo (see Lanes)
MAX_LANE_STATES = 512


class _State:
    """A register within one lane: its ket and ``layout``, the role of each
    qubit in ket order.  ``memo`` maps an op's key (see ``_key``) to the next
    state or a measurement's ``_LaneStep``, and another state of the lane to
    the two registers joined.  ``_NONE`` marks a free address; its memo maps
    a preparation's key to the prepared state."""

    __slots__ = ("ket", "layout", "memo", "stored")

    def __init__(self, ket: _Ket | None, layout: tuple):
        self.ket, self.layout = ket, layout
        self.memo: dict = {}
        self.stored = False


# Interned lane states, keyed by ket and layout; at most MAX_LANE_STATES.
_STATES: dict[tuple, _State] = {}


def _state(ket: _Ket, layout: tuple) -> _State:
    """The lane state of ``ket`` over the roles ``layout``, interned if the
    ket is stored and the table is under its cap."""
    state = _STATES.get((ket, layout))
    if state is None:
        state = _State(ket, layout)
        if ket.stored and len(_STATES) < MAX_LANE_STATES:
            state.stored = True
            _STATES[ket, layout] = state
    return state


_NONE = _State(None, ())
_NONE.stored = True


class _LaneStep:
    """A measurement on a lane state: the ket step's ``probs`` and ``cuts``,
    and in ``posts`` each branch's next state once it has been taken
    (``_NONE`` if no qubit is left)."""

    __slots__ = ("probs", "cuts", "posts", "step", "layout")

    def __init__(self, layout: tuple, step: _Step):
        self.probs, self.cuts = step.probs, step.cuts
        self.posts: list = [None] * len(step.probs)
        self.step, self.layout = step, layout

    def post(self, outcome: int) -> _State:
        ket = self.step.post(outcome)  # raises on a zero-probability branch
        state = _NONE if ket is None else _state(ket, self.step.pick(self.layout))
        if state.stored:
            self.posts[outcome] = state
        return state


class _Shared:
    """A register whose qubits lie in several lanes: its ket and its
    qubits' addresses, rewritten in place."""

    __slots__ = ("ket", "qubits")
    memo: dict = {}  # never written: ops on a shared register take the general path

    def __init__(self, ket: _Ket, qubits: tuple):
        self.ket, self.qubits = ket, qubits


# Op codes of the integer memo keys (see _key).  A preparation of |bit> has
# the code _PREP_Z + bit, a Bell-pair preparation BELL_ORDER index << 3 |
# _PREP_BELL.
_Z, _X, _PREP_Z, _CNOT, _BELL, _PREP_BELL = 1, 2, 3, 5, 6, 7
_BELL_INDEX = {kind: i for i, kind in enumerate(BELL_ORDER)}


def _key(code, roles: tuple):
    """The memo key of the op ``code`` on ``roles``: ``r << 3 | code`` on one
    role, ``(r1 << 16 | r2) << 5 | code`` on two; a basis's bras in place of
    the code key the tuple ``(bras, r)``."""
    if type(code) is not int:
        return code, roles[0]
    return roles[0] << 3 | code if len(roles) == 1 else (roles[0] << 16 | roles[1]) << 5 | code


def _addresses(layout: tuple, base: int) -> tuple:
    """The addresses of the roles ``layout`` in the lane at ``base``."""
    if len(layout) == 3:  # a session's usual register, spelled out
        return base | layout[0], base | layout[1], base | layout[2]
    return tuple([base | r for r in layout])


class Lanes:
    """A session's registers as slot lanes.

    A qubit's address packs its lane (its slot) and its role there, ``lane
    << 3 | role``; ``cells[address]`` holds its register.  A register within
    one lane is an interned ``_State`` under each of its addresses, and an
    op on it is a memoized transition: a gate or preparation stores the next
    state, a measurement samples its ``_LaneStep`` with ``_sample`` and
    stores the branch's state.  A register spanning lanes (Eve's return-leg
    ops join slots under the permutation) is one ``_Shared`` record under
    each of its addresses, run on its ket's memo until its last qubit is
    measured.  Either way its ket and qubit order are a label-addressed
    register's: an op across registers joins them, the first operand's in
    the high bits, and a measured qubit leaves.
    """

    def __init__(self, size: int):
        self.cells: list = [_NONE] * (size << 3)  # one list for good: closures hold it

    def _advance(self, step: _LaneStep, qubits: tuple, rng: RandomSource) -> int:
        """Sample ``step`` on the lane state holding ``qubits`` and store the
        branch taken."""
        outcome = _sample(step, rng)
        post = step.posts[outcome]
        if post is None:
            post = step.post(outcome)
        cells = self.cells
        for a in qubits:
            cells[a] = _NONE
        base = qubits[0] & -8
        for r in post.layout:
            cells[base | r] = post
        return outcome

    def _join(self, a: int, b: int) -> _Shared:
        """The shared record holding ``a`` and ``b``: their registers joined,
        ``a``'s in the high bits, unless one record holds both."""
        cells = self.cells
        rec, other = cells[a], cells[b]
        if other is rec and type(rec) is _Shared:
            return rec
        if rec is _NONE or other is _NONE:
            raise UnknownLabel(a if rec is _NONE else b)
        held = rec.qubits if type(rec) is _Shared else _addresses(rec.layout, a & -8)
        more = other.qubits if type(other) is _Shared else _addresses(other.layout, b & -8)
        ket = _merge(rec.ket, other.ket)  # raises before anything changes
        if type(rec) is _Shared:  # keep a record, and move the other side's qubits to it
            rec.ket, rec.qubits = ket, held + more
        elif type(other) is _Shared:
            other.ket, other.qubits, more, rec = ket, held + more, held, other
        else:
            rec = _Shared(ket, held + more)
            more = rec.qubits
        for q in more:
            cells[q] = rec
        return rec

    def _collapse(self, rec: _Shared, qubits: tuple, bras: _Bras, rng: RandomSource) -> int:
        """Sample the measurement ``bras`` of ``qubits`` in the record ``rec``,
        which keeps what is left."""
        held, ket, a = rec.qubits, rec.ket, qubits[0]
        positions = (held.index(a),) if len(qubits) == 1 else (held.index(a), held.index(qubits[1]))
        step = ket.memo.get((bras, positions))
        if step is None:
            step = _step(ket, positions, bras)
        outcome = _sample(step, rng)
        post = step.posts[outcome]
        if type(post) is dict:  # not yet collapsed; raises if impossible
            post = step.post(outcome)
        cells = self.cells
        for a in qubits:
            cells[a] = _NONE
        if post is not None:
            rec.ket, rec.qubits = post, step.pick(held)
        return outcome

    def _slow(self, code, qubits: tuple, op, rng: RandomSource | None = None):
        """The op ``code`` (see _key) past the fast paths: ``op`` is the gate
        (``_x`` or ``_cnot``) or, with ``rng``, the measurement's bras."""
        cells, a, b = self.cells, qubits[0], qubits[-1]
        state, other = cells[a], cells[b]
        if state is _NONE or other is _NONE:
            raise UnknownLabel(a if state is _NONE else b)
        if type(state) is _Shared or type(other) is _Shared or a >> 3 != b >> 3:
            rec = self._join(a, b)
            if rng is not None:
                return self._collapse(rec, qubits, op, rng)
            held = rec.qubits
            rec.ket = op(rec.ket, *map(held.index, qubits))
            return None
        if other is not state:  # two registers of one lane, joined
            joined = state.memo.get(other)
            if joined is None:
                joined = _state(_merge(state.ket, other.ket), state.layout + other.layout)
                if state.stored and other.stored and joined.stored:
                    state.memo[other] = joined
            state = joined
        key = _key(code, tuple([q & 7 for q in qubits]))
        nxt = state.memo.get(key)
        if nxt is None:
            layout = state.layout
            positions = tuple([layout.index(q & 7) for q in qubits])
            if rng is None:
                nxt = _state(op(state.ket, *positions), layout)
            else:
                nxt = _LaneStep(layout, _step(state.ket, positions, op))
            if state.stored and (rng is not None or nxt.stored):
                state.memo[key] = nxt
        if rng is not None:
            return self._advance(nxt, qubits, rng)
        base = a & -8
        for r in nxt.layout:
            cells[base | r] = nxt
        return None

    def _prepare(self, code, ket: _Ket, qubits: tuple, count: int = 1) -> None:
        """Prepare ``ket`` on ``qubits`` past the fast paths (memoized under
        ``code`` unless None), and on their roles in the next ``count - 1``
        lanes (qubits of one lane), one store per role; raises before
        anything changes unless all of them are free."""
        cells = self.cells
        if len(qubits) != ket.k:
            raise ValueError(f"a {ket.k}-qubit ket cannot carry {len(qubits)} labels")
        if len(set(qubits)) != len(qubits):
            raise DuplicateLabel(f"labels not unique: {qubits}")
        for a in qubits:
            if cells[a : a + (count << 3) : 8].count(_NONE) != count:
                raise DuplicateLabel(a)
        base = qubits[0] & -8
        if any(a & -8 != base for a in qubits):
            rec = _Shared(ket, qubits)
            for a in qubits:
                cells[a] = rec
            return
        roles = tuple([a & 7 for a in qubits])
        state = _state(ket, roles)
        if state.stored and code is not None:
            _NONE.memo[_key(code, roles)] = state
        fill, stop = [state] * count, base + (count << 3)
        for r in roles:
            cells[base | r : stop : 8] = fill

    # A preparation puts its state on the qubits and, with a count, on their
    # roles in the next count - 1 lanes too; it returns the qubits.

    def prepare_z(self, bit: int, a: int, count: int = 1) -> int:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        cells = self.cells
        state = None
        if count == 1 and cells[a] is _NONE:
            state = _NONE.memo.get((a & 7) << 3 | _PREP_Z + bit)
        if state is None:
            self._prepare(_PREP_Z + bit, _Z_KETS[bit], (a,), count)
        else:
            cells[a] = state
        return a

    def prepare_bell(self, kind: BellKind, a1: int, a2: int, count: int = 1) -> tuple:
        cells = self.cells
        code = _BELL_INDEX[kind] << 3 | _PREP_BELL
        state = None
        if count == 1 and a1 >> 3 == a2 >> 3 and cells[a1] is _NONE is cells[a2]:
            state = _NONE.memo.get(((a1 & 7) << 16 | a2 & 7) << 5 | code)
        if state is None:
            self._prepare(code, _BELL_KETS[kind], (a1, a2), count)
        else:
            cells[a1] = cells[a2] = state
        return a1, a2

    def prepare_ghz_like(
        self, psi1: BellKind, psi2: BellKind, basis: OrthonormalPair, qubits, count: int = 1
    ) -> tuple:
        if psi1 is psi2:
            raise EqualBellKinds("psi1 and psi2 must be distinct Bell states")
        self._prepare(None, _ghz_like_ket(psi1, psi2, basis), tuple(qubits), count)
        return tuple(qubits)

    def cnot(self, c: int, t: int) -> None:
        cells = self.cells
        reg, other = cells[c], cells[t]
        nxt = None
        if c >> 3 == t >> 3:
            state = reg if other is reg else reg.memo.get(other)  # two registers joined
            if state is not None:
                nxt = state.memo.get(((c & 7) << 16 | t & 7) << 5 | _CNOT)
        if nxt is None:
            if type(reg) is _State is type(other) and c >> 3 == t >> 3:
                self._slow(_CNOT, (c, t), _cnot)
            else:  # Eve's return-leg CNOT joins slots: straight to the shared record
                rec = self._join(c, t)
                held = rec.qubits
                rec.ket = _cnot(rec.ket, held.index(c), held.index(t))
        else:
            base = c & -8
            for r in nxt.layout:
                cells[base | r] = nxt

    def x(self, a: int) -> None:
        self._slow(_X, (a,), _x)

    def measurements(self, rng: RandomSource) -> tuple:
        """``measure_z(a)``, ``measure_bell(a1, a2)`` and ``measure_ab(a,
        basis)`` on these lanes, each sample drawn from ``rng``."""
        cells, collapse, slow, advance = self.cells, self._collapse, self._slow, self._advance
        z_bras = COMPUTATIONAL._bras

        def measure_z(a: int) -> int:
            reg = cells[a]
            step = reg.memo.get((a & 7) << 3 | _Z)
            if step is None:
                if type(reg) is _Shared:
                    return collapse(reg, (a,), z_bras, rng)
                return slow(_Z, (a,), z_bras, rng)
            # advance, spelled out on the most frequent op
            outcome = _sample(step, rng)
            post = step.posts[outcome]
            if post is None:
                post = step.post(outcome)
            cells[a] = _NONE
            base = a & -8
            for r in post.layout:
                cells[base | r] = post
            return outcome

        def measure_bell(a1: int, a2: int) -> BellKind:
            reg, other = cells[a1], cells[a2]
            step = None
            if a1 >> 3 == a2 >> 3:
                state = reg if other is reg else reg.memo.get(other)  # two registers joined
                if state is not None:
                    step = state.memo.get(((a1 & 7) << 16 | a2 & 7) << 5 | _BELL)
            if step is None:
                if other is reg and type(reg) is _Shared:
                    return BELL_ORDER[collapse(reg, (a1, a2), _BELL_BRAS, rng)]
                return BELL_ORDER[slow(_BELL, (a1, a2), _BELL_BRAS, rng)]
            outcome = _sample(step, rng)  # advance, spelled out
            post = step.posts[outcome]
            if post is None:
                post = step.post(outcome)
            cells[a1] = cells[a2] = _NONE
            base = a1 & -8
            for r in post.layout:
                cells[base | r] = post
            return BELL_ORDER[outcome]

        def measure_ab(a: int, basis: OrthonormalPair) -> int:
            bras, reg = basis._bras, cells[a]
            step = reg.memo.get((bras, a & 7))
            if step is None:
                if type(reg) is _Shared:
                    return collapse(reg, (a,), bras, rng)
                return slow(bras, (a,), bras, rng)
            return advance(step, (a,), rng)

        return measure_z, measure_bell, measure_ab

    def measure_z(self, a: int, rng: RandomSource) -> int:
        return self.measurements(rng)[0](a)

    def measure_bell(self, a1: int, a2: int, rng: RandomSource) -> BellKind:
        return self.measurements(rng)[1](a1, a2)

    def measure_ab(self, a: int, basis: OrthonormalPair, rng: RandomSource) -> int:
        return self.measurements(rng)[2](a, basis)

    # snapshots

    def state_of(self, a: int) -> StateVector:
        """The current content of ``a``'s register, over the addresses."""
        reg = self.cells[a]
        if reg is _NONE:
            raise UnknownLabel(a)
        if type(reg) is _Shared:
            return StateVector(reg.ket, reg.qubits)
        return StateVector(reg.ket, _addresses(reg.layout, a & -8))

    def labels(self) -> set:
        """The addresses of every qubit in the lanes."""
        cells = self.cells
        return set(itertools.compress(range(len(cells)), map(operator.is_not, cells, itertools.repeat(_NONE))))


# bench/tracer.py wraps the ops of RegisterBank, the label-keyed register
# store that the lanes replaced; the lanes carry the same op names
RegisterBank = Lanes
