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
fails loudly instead of silently going quadratic.  numpy is imported only
by the dense helpers (dense input, ``.amplitudes``, ``*_probabilities``,
array input to ``OrthonormalPair``), so a session never loads it.

Memo
----
A ``StateVector`` is its labels plus a ket: the qubit count and the exact
amplitude entries in insertion order, range- and norm-checked once when
built.  Stored kets are interned, so a content that recurs is one object,
and each primitive keeps its result on the input ket: a gate or merge its
output ket, a measurement its step (see below).  A recurring content thus repeats
no arithmetic.  Every ket of at most 4 qubits is stored; of the 5- and
6-qubit kets (the cross-slot registers of permuted attacks) only the first
``MAX_WIDE_KETS``, so the table stays bounded.  Later wide kets go through
the same code but are not stored, and a stored ket's memo refers only to
stored kets.  Results are the values the computation gives the first time,
so the memo changes no draw.

A measurement's step holds its branch probabilities, their running sums
and each branch's post-measurement ket, collapsed only when that branch is
first sampled or projected.  Every sampled measurement takes exactly one
``rng.random()`` draw and returns the first outcome, in a fixed order (Z:
0, 1; Bell: ``BELL_ORDER``; basis: a, b), whose running probability sum
exceeds the draw.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import (
    DuplicateLabel,
    EqualBellKinds,
    NonOrthonormalBasis,
    RegisterTooLarge,
    UnknownLabel,
    ZeroProbabilityOutcome,
)
from .rng import RandomSource

if TYPE_CHECKING:
    import numpy as np

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


def _components(vector) -> tuple[complex, ...]:
    """A vector's components as Python complex numbers.

    A tuple or list is read as it is; anything else as a flat complex numpy
    array, which loads numpy.
    """
    if isinstance(vector, (tuple, list)):
        return tuple(map(complex, vector))
    import numpy as np

    return tuple(np.asarray(vector, dtype=complex).reshape(-1).tolist())


def _vdot(u: tuple[complex, ...], v: tuple[complex, ...]) -> complex:
    return sum((x.conjugate() * y for x, y in zip(u, v)), 0j)


@dataclass(frozen=True)
class OrthonormalPair:
    """An orthonormal single-qubit basis {|a>, |b>} for controller measurements.

    ``a`` and ``b`` are kept as given, a sequence or an array.  Two bases
    are equal, and hash alike, when their components are exactly equal.
    """

    a: Sequence[complex] | np.ndarray = field(compare=False)
    b: Sequence[complex] | np.ndarray = field(compare=False)
    # (a, b) components as Python complex numbers, and for each bit value v the
    # nonzero bras as (outcome, conj(component v)).
    _kets: tuple = field(init=False, repr=False)
    _bras: _Bras = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kets = a, b = _components(self.a), _components(self.b)
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
                dense = _components(amplitudes)
                if len(dense) != 1 << k:
                    raise ValueError(f"need {1 << k} amplitudes for {k} qubits, got {len(dense)}")
                items = enumerate(dense)
            self._ket = _intern(k, items)
        self.labels = labels

    def __repr__(self):
        return f"StateVector(labels={self.labels!r})"

    @property
    def amplitudes(self) -> np.ndarray:
        """Dense read-only copy of the amplitudes, built on each access."""
        import numpy as np

        dense = np.zeros(1 << len(self.labels), dtype=complex)
        for i, amp in self._ket.entries.items():
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


def _array(probs: tuple[float, ...]) -> np.ndarray:
    import numpy as np

    return np.array(probs)


def z_probabilities(state: StateVector, label: str) -> np.ndarray:
    return _array(_qubit_step(state, label, COMPUTATIONAL).probs)


def project_z(state: StateVector, label: str, outcome: int) -> tuple[float, StateVector | None]:
    """Born probability of a Z outcome and the collapsed remainder."""
    return _project(state, _qubit_step(state, label, COMPUTATIONAL), outcome)


def measure_z(state: StateVector, label: str, rng: RandomSource) -> MeasurementRecord:
    """Sample a computational-basis measurement of one qubit."""
    return MeasurementRecord(*_measure(state, _qubit_step(state, label, COMPUTATIONAL), rng))


def bell_probabilities(state: StateVector, q1: str, q2: str) -> np.ndarray:
    """Born probabilities of the four Bell outcomes on (q1, q2), in BELL_ORDER."""
    return _array(_bell_step(state, q1, q2).probs)


def project_bell(state: StateVector, q1: str, q2: str, kind: BellKind) -> tuple[float, StateVector | None]:
    return _project(state, _bell_step(state, q1, q2), BELL_ORDER.index(kind))


def measure_bell(state: StateVector, q1: str, q2: str, rng: RandomSource) -> MeasurementRecord:
    """Sample a Bell-basis measurement of two qubits; both leave the register."""
    i, prob, post = _measure(state, _bell_step(state, q1, q2), rng)
    return MeasurementRecord(BELL_ORDER[i], prob, post)


def ab_probabilities(state: StateVector, label: str, basis: OrthonormalPair) -> np.ndarray:
    return _array(_qubit_step(state, label, basis).probs)


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
# register bookkeeping

# the memo key of a Z measurement at each position
_Z_KEYS = tuple((COMPUTATIONAL._bras, (p,)) for p in range(MAX_QUBITS))


class _Register:
    """A bank-private register: its current ket and qubits, updated in place.

    ``view`` caches the immutable ``StateVector`` of the current content
    until the register next changes.
    """

    __slots__ = ("_ket", "labels", "view")

    def __init__(self, ket: _Ket, labels: tuple, view: StateVector | None = None):
        self._ket = ket
        self.labels = labels
        self.view = view


class RegisterBank:
    """Tracks disjoint registers, each qubit addressed by a hashable key.

    An address may be a label string; a protocol session addresses a qubit
    by its slot and role, packed in one integer.  Each
    address maps to a mutable register record that the bank alone owns; an
    operation advances that record's ket in place by the ket's memoized
    step instead of building a new ``StateVector``.  Operations that span
    registers first join them (subject to the qubit cap), the first
    address's register in the high bits, and re-bind the other register's
    addresses to it; measurements drop consumed addresses.  ``state_of``
    hands out an immutable snapshot, so nothing a caller holds changes
    afterwards.
    """

    def __init__(self):
        self._states: dict = {}

    def labels(self) -> set:
        return set(self._states)

    def _record(self, label) -> _Register:
        try:
            return self._states[label]
        except KeyError:
            raise UnknownLabel(label) from None

    def state_of(self, label) -> StateVector:
        """The current content of ``label``'s register, one object per content."""
        reg = self._record(label)
        view = reg.view
        if view is None:
            view = reg.view = StateVector(reg._ket, reg.labels)
        return view

    def _bind(self, ket: _Ket, labels: tuple, view: StateVector | None = None) -> None:
        if len(labels) != ket.k:
            raise ValueError(f"a {ket.k}-qubit ket cannot carry {len(labels)} labels")
        states = self._states
        if len(set(labels)) != len(labels):
            raise DuplicateLabel(f"labels not unique: {labels}")
        for l in labels:
            if l in states:
                raise DuplicateLabel(l)
        reg = _Register(ket, labels, view)
        for l in labels:
            states[l] = reg

    def add(self, state: StateVector) -> None:
        self._bind(state._ket, state.labels, state)

    # prepare_z and prepare_bell bind inline: routed through _bind they took
    # about 10% more time per complete-n100 session (see CHANGES.md)
    def prepare_z(self, bit: int, label):
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        states = self._states
        if label in states:
            raise DuplicateLabel(label)
        states[label] = _Register(_Z_KETS[bit], (label,))
        return label

    def prepare_bell(self, kind: BellKind, l1, l2) -> tuple:
        ket, states = _BELL_KETS[kind], self._states
        if l1 == l2:
            raise DuplicateLabel(f"labels not unique: {(l1, l2)}")
        for l in (l1, l2):
            if l in states:
                raise DuplicateLabel(l)
        states[l1] = states[l2] = _Register(ket, (l1, l2))
        return l1, l2

    def prepare_ghz_like(self, psi1: BellKind, psi2: BellKind, basis: OrthonormalPair, labels: tuple) -> tuple:
        if psi1 is psi2:
            raise EqualBellKinds("psi1 and psi2 must be distinct Bell states")
        labels = tuple(labels)
        self._bind(_ghz_like_ket(psi1, psi2, basis), labels)
        return labels

    def _joined(self, l1, l2) -> _Register:
        """The one register holding ``l1`` and ``l2``, joining l2's into l1's."""
        states = self._states
        try:
            reg, other = states[l1], states[l2]
        except KeyError as err:
            raise UnknownLabel(err.args[0]) from None
        if other is not reg:
            reg._ket = _merge(reg._ket, other._ket)
            reg.labels += other.labels
            reg.view = None
            for l in other.labels:
                states[l] = reg
        return reg

    def cnot(self, control, target) -> None:
        reg = self._joined(control, target)
        labels = reg.labels
        reg._ket = _cnot(reg._ket, labels.index(control), labels.index(target))
        reg.view = None

    def x(self, label) -> None:
        reg = self._record(label)
        reg._ket = _x(reg._ket, reg.labels.index(label))
        reg.view = None

    def measure_z(self, label, rng: RandomSource) -> int:
        reg = self._record(label)
        return self._collapse(reg, (label,), _Z_KEYS[reg.labels.index(label)], rng)

    def _collapse(self, reg: _Register, measured: tuple, key: tuple, rng: RandomSource) -> int:
        """Sample the measurement ``key``, a ``(bras, positions)`` memo key,
        of ``measured`` in ``reg``; drop their addresses and keep the rest."""
        ket = reg._ket
        step = ket.memo.get(key)
        if step is None:
            step = _step(ket, key[1], key[0])
        outcome = _sample(step, rng)
        post = step.posts[outcome]
        # a dict is a branch not yet collapsed; post() raises on an impossible one
        if type(post) is dict:
            post = step.post(outcome)
        states = self._states
        for l in measured:
            del states[l]
        if post is not None:
            reg._ket = post
            reg.labels = step.pick(reg.labels)
            reg.view = None
        return outcome

    def measure_bell(self, q1, q2, rng: RandomSource) -> BellKind:
        reg = self._joined(q1, q2)
        key = (_BELL_BRAS, (reg.labels.index(q1), reg.labels.index(q2)))
        return BELL_ORDER[self._collapse(reg, (q1, q2), key, rng)]

    def measure_ab(self, label, basis: OrthonormalPair, rng: RandomSource) -> int:
        reg = self._record(label)
        return self._collapse(reg, (label,), (basis._bras, (reg.labels.index(label),)), rng)
