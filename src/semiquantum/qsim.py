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
register; measuring the last qubit leaves none (``post_state=None`` in
the reference layer).  Registers
are hard-capped at ``MAX_QUBITS`` so an accidental global-state blowup
fails loudly instead of silently going quadratic.  The package needs no
numpy: dense values are tuples, and any sequence (a 1-D array too) is read
by iteration.

Memo
----
A register's content is a ket: the qubit count and the exact amplitude
entries in insertion order, range- and norm-checked once when built.  The
label-addressed ``StateVector`` layer over kets, the oracle the lanes are
tested against, is ``qsim_reference``, which no session imports; its names
resolve here too, loading it on first use.  Every ket is interned, and
each primitive keeps its result on the input ket: a gate or merge its
output ket, a measurement its step.  A step holds its branch
probabilities, the running sums of its possible outcomes and each
branch's post ket, collapsed when the branch is first taken.

A session's registers live in ``Lanes``, addressed by slot and role.  A
register within one slot is an interned lane state, a ket plus the role of
each qubit, and each op is one memoized transition of it: a gate maps it
to the next state, a measurement to a ``_LaneStep`` whose posts are states,
so a measurement is one lookup, one ``_pick`` and the stores; a fresh |0>
or |1> is a state of one table, ``_Z_STATES``.  A stage of one op on many
slots is one call: a preparation or a CNOT with a lane count runs its
transition once and stores the result into every lane by slice (a CNOT
only where every lane holds the same states, else lane by lane), and
``measure_each`` runs the measurements of a list of addresses, each resent
on request, in one loop.  Every lane state is interned too.  A register
spanning slots is a shared record run on its ket's memo, keyed as the lane
memo is but by ket positions, one step per measurement by either route.  A
lone qubit is never a record: a record left with one turns into its lane
state, and a lone qubit Bell-measured against another lane's register
joins its state there as role ``_VISITOR`` (8, no address's), in the order
a join gives.  Neither table is capped, since sessions reach few
contents: after 1,000 rounds of either Monte Carlo workload of the
benchmark one process holds 1,450-1,510 kets (1,020-1,080 of 5 or 6
qubits) and 85-92 lane states, and 1,000 more rounds of ``sweep-n8`` add
40 kets.
Every memo entry is the value the computation gives the first time, so the
memo changes no draw.  Every sampled measurement takes exactly one
``rng.random()`` draw and one ``_pick`` call, ``bisect_right`` on the
step's ``sums``, and returns the first possible outcome, in a fixed order
(Z: 0, 1; Bell: ``BELL_ORDER``; basis: a, b), whose running probability sum
exceeds the draw.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys
from collections.abc import Sequence
from enum import Enum

from . import lazy_exports
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
    """The four Bell states. psi = equal bits, phi = unequal bits.

    ``parity`` is 0 for the equal-bits (psi) class and 1 for the unequal-bits
    (phi) class, ``sign`` 0 for the + superposition and 1 for the - one:
    psi+ 0/0, psi- 0/1, phi+ 1/0, phi- 1/1; ``symbol`` is the value.  All
    three are plain member attributes, so reading one runs no Python code.
    """

    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"

    def __init__(self, value: str):
        self.parity = int(value.startswith("phi"))
        self.sign = int(value.endswith("-"))
        self.symbol = value

    # members are singletons compared by identity; the C-level hash keeps
    # the per-slot ket lookups off Enum's Python-level one
    __hash__ = object.__hash__


BELL_ORDER: tuple[BellKind, ...] = tuple(BellKind)

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


class OrthonormalPair:
    """An orthonormal single-qubit basis {|a>, |b>} for controller measurements.

    ``a`` and ``b`` are kept as given, any sequence of two numbers.  Two
    bases are equal, and hash alike, when their components are exactly equal.
    """

    # (a, b) components as Python complex numbers, their hash, and for each
    # bit value v the nonzero bras as (outcome, conj(component v)).
    __slots__ = ("a", "b", "_kets", "_hash", "_bras")

    def __init__(self, a: Sequence[complex], b: Sequence[complex]):
        self.a, self.b = a, b
        kets = a, b = tuple(map(complex, a)), tuple(map(complex, b))
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
        self._kets, self._hash, self._bras = kets, hash(kets), bras

    def __eq__(self, other) -> bool:
        return self._kets == other._kets if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"OrthonormalPair(a={self.a!r}, b={self.b!r})"


COMPUTATIONAL = OrthonormalPair((1.0, 0.0), (0.0, 1.0))
HADAMARD = OrthonormalPair((_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2))


# ---------------------------------------------------------------------------
# kets: validated register contents with memoized transitions


class _Ket:
    """A register's content without labels: qubit count and nonzero entries.

    ``memo`` maps a primitive's arguments to its result on this ket: an op's
    key (see ``_key``, on positions) to the output ket or ``_Step``, and the
    right-hand ket of a merge to the merged ket.  Every ket is interned, so
    each content is one object and its memo is filled once.
    """

    __slots__ = ("k", "entries", "memo")

    def __init__(self, k: int, entries: dict[int, complex]):
        self.k = k
        self.entries = entries
        self.memo: dict = {}


# Interned kets, keyed by content.
_KETS: dict[tuple, _Ket] = {}


def _intern(k: int, amplitudes) -> _Ket:
    """The ket of ``amplitudes``, pairs of basis index and amplitude.

    Exact zeros are dropped.  A content seen before returns its interned
    ket; a new one is norm-checked and interned.
    """
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
        ket = _KETS[key] = _Ket(k, entries)
    return ket


# ---------------------------------------------------------------------------
# preparation

_Z_KETS = tuple(_intern(1, [(bit, 1.0 + 0j)]) for bit in (0, 1))
_BELL_KETS = {kind: _intern(2, entries.items()) for kind, entries in _BELL_ENTRIES.items()}


@functools.lru_cache(maxsize=None)
def _ghz_like_ket(psi1: BellKind, psi2: BellKind, basis: OrthonormalPair) -> _Ket:
    entries: dict[int, complex] = {}
    for kind, ket in ((psi1, basis._kets[0]), (psi2, basis._kets[1])):
        for r, amp in _BELL_ENTRIES[kind].items():
            for j in (0, 1):
                i = (r << 1) | j
                entries[i] = entries.get(i, 0j) + amp * ket[j]
    return _intern(3, [(i, amp * _INV_SQRT2) for i, amp in entries.items()])


def _merge(left: _Ket, right: _Ket) -> _Ket:
    """The ket of ``left`` and ``right`` side by side, ``left`` in the high bits."""
    k = left.k + right.k
    if k > MAX_QUBITS:
        raise RegisterTooLarge(f"merged register would hold {k} > {MAX_QUBITS} qubits")
    ket = left.memo.get(right)
    if ket is None:
        shift, pairs = right.k, right.entries.items()
        ket = _intern(k, [((i << shift) | j, a * b) for i, a in left.entries.items() for j, b in pairs])
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
    key = (c << 16 | t) << 5 | _CNOT
    out = ket.memo.get(key)
    if out is None:
        cm, tm = _mask(ket.k, c), _mask(ket.k, t)
        out = ket.memo[key] = _intern(ket.k, [(i ^ tm if i & cm else i, a) for i, a in ket.entries.items()])
    return out


def _x(ket: _Ket, t: int) -> _Ket:
    """``ket`` after an X on position ``t``."""
    key = t << 3 | _X
    out = ket.memo.get(key)
    if out is None:
        tm = _mask(ket.k, t)
        out = ket.memo[key] = _intern(ket.k, [(i ^ tm, a) for i, a in ket.entries.items()])
    return out


# ---------------------------------------------------------------------------
# measurement steps and sampling


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
    # Each basis index's bits, reordered to positions + keep: the table of
    # k bits doubles once per bit of the index, from its lowest.
    order, packed = positions + keep, [0]
    for w in [1 << k - 1 - order.index(p) for p in reversed(range(k))]:
        packed += [c | w for c in packed]
    return tuple(divmod(c, 1 << len(keep)) for c in packed), keep


def _weight(entries: dict) -> float:
    total = 0.0
    for a in entries.values():
        total += abs(a) ** 2
    return total


class _Step:
    """A measurement of the qubits at ``positions`` of one ket.

    The live entries split into one branch per outcome, keyed by the index
    of the unmeasured qubits (``keep``); a branch's Born weight is the sum
    of its squared magnitudes.  ``sums`` and ``outs`` are the draw bounds
    of its possible outcomes and those outcomes (see ``_sums``).  ``posts[o]``
    holds branch ``o`` as a dict until it is first used, then its
    renormalized ket; it is None once no qubit remains.
    ``pick(labels)`` gives the labels at ``keep`` as a tuple.
    """

    __slots__ = ("probs", "keep", "posts", "sums", "outs", "pick")

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
        self.sums, self.outs = _sums(self.probs)
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
            post = self.posts[outcome] = _intern(len(self.keep), [(j, a * scale) for j, a in post.items()])
        return post


class _Last(float):
    """The infinite last entry of a step's ``sums``, carrying its ``probs``
    and ``outs``: a chooser in place of ``_pick`` weighs possible outcome i
    by ``probs[outs[i]]``.  (A tuple subclass could carry them, but ``bisect``
    reads its items 2.6x slower on CPython 3.11.)"""

    __slots__ = ("probs", "outs")


def _sums(probs: tuple[float, ...]) -> tuple[tuple, tuple]:
    """The running sums of ``probs`` at its outcomes of nonzero weight, the
    last infinite (a draw above them all takes the last), and those outcomes."""
    outs, acc = tuple(i for i, p in enumerate(probs) if p > 0.0), tuple(itertools.accumulate(probs))
    if not outs:
        raise ZeroProbabilityOutcome("no outcome has nonzero probability")
    last = _Last(math.inf)
    last.probs, last.outs = probs, outs
    return (*[acc[i] for i in outs[:-1]], last), outs


def _step(ket: _Ket, positions: tuple[int, ...], code, bras: _Bras) -> _Step:
    """The measurement ``code`` (see _key), of bras ``bras``, of ``positions``
    of ``ket``: one step per measurement, whichever route reaches the ket."""
    key = _key(code, positions)
    step = ket.memo.get(key)
    if step is None:
        step = ket.memo[key] = _Step(ket, positions, bras)
    return step


# The index in a step's ``sums`` of a draw's outcome, the first sum above the
# draw; every sampled measurement calls it once, so a chooser put here sees all.
_pick = bisect.bisect_right


def _sample(step: _Step, rng: RandomSource) -> int:
    return step.outs[_pick(step.sums, rng.random())]


# ---------------------------------------------------------------------------
# slot lanes: a session's registers as interned per-slot states

# The roles of a slot's qubits, addressed ``slot << 3 | role``.  HOME is the
# partner the distributing party keeps (H, B), TRAVEL the qubit it sends
# (T, A) and CONTROL the controller's third qubit.  Eve's are KEPT, the one
# she keeps for the slot (her CNOT ancilla or retained Bell half), and SENT,
# the one she forwards in its place.  A resend, the sender's or Eve's, takes
# the address of the qubit it replaces, so it stays in that qubit's lane.
HOME, TRAVEL, CONTROL, KEPT, SENT = 0, 1, 2, 4, 5
_VISITOR = 8  # a lone qubit's role in another lane's state (measure_bell); no address's


class _State:
    """A register within one lane: its ket and ``layout``, the role of each
    qubit in ket order.  ``memo`` maps an op's key (see ``_key``) to the next
    state or a measurement's ``_LaneStep``, and another state of the lane to
    the two registers joined.  ``_NONE`` marks a free address."""

    __slots__ = ("ket", "layout", "memo")

    def __init__(self, ket: _Ket | None, layout: tuple):
        self.ket, self.layout = ket, layout
        self.memo: dict = {}


# Interned lane states, keyed by ket and layout.
_STATES: dict[tuple, _State] = {}


def _state(ket: _Ket, layout: tuple) -> _State:
    """The interned lane state of ``ket`` over the roles ``layout``."""
    state = _STATES.get((ket, layout))
    if state is None:
        state = _STATES[ket, layout] = _State(ket, layout)
    return state


_NONE = _State(None, ())
# The prepared |bit> on one qubit of role r, _Z_STATES[bit][r]; a Z preparation
# or resend on a free address stores one.
_Z_STATES = tuple(tuple(_state(ket, (r,)) for r in range(8)) for ket in _Z_KETS)


class _LaneStep:
    """A measurement on a lane state: the ket step's ``probs``, ``sums`` and
    ``outs``, and in ``posts`` each branch's next state once it has been
    taken (``_NONE`` if no qubit is left)."""

    __slots__ = ("probs", "sums", "outs", "posts", "step", "layout")

    def __init__(self, layout: tuple, step: _Step):
        self.probs, self.sums, self.outs = step.probs, step.sums, step.outs
        self.posts: list = [None] * len(step.probs)
        self.step, self.layout = step, layout

    def post(self, outcome: int) -> _State:
        ket = self.step.post(outcome)  # raises on a zero-probability branch
        state = self.posts[outcome] = _NONE if ket is None else _state(ket, self.step.pick(self.layout))
        return state


class _Shared:
    """A register whose qubits lie in several lanes: its ket and its
    qubits' addresses, rewritten in place; its ket's memo keys its ops."""

    __slots__ = ("ket", "qubits")
    memo: dict = {}  # never written: ops on a shared register take the general path

    def __init__(self, ket: _Ket, qubits: tuple):
        self.ket, self.qubits = ket, qubits


# Op codes of the integer memo keys (see _key).
_Z, _X, _CNOT, _BELL = 1, 2, 5, 6
_Z_KEYS = tuple(r << 3 | _Z for r in range(8))  # a Z measurement's key, by role


def _key(code, roles: tuple):
    """The memo key of the op ``code`` on ``roles`` (or on ket positions):
    ``r << 3 | code`` on one role, ``(r1 << 16 | r2) << 5 | code`` on two; a
    basis's bras in place of the code key the tuple ``(bras, r)``."""
    if type(code) is not int:
        return code, roles[0]
    return roles[0] << 3 | code if len(roles) == 1 else (roles[0] << 16 | roles[1]) << 5 | code


def _addresses(layout: tuple, base: int) -> tuple:
    """The addresses of the roles ``layout`` in the lane at ``base``."""
    if len(layout) == 3:  # a session's usual register, spelled out
        return base | layout[0], base | layout[1], base | layout[2]
    return tuple([base | r for r in layout])


def _past_end(size: int, qubits: tuple) -> UnknownLabel:
    """The error of an op on ``qubits`` and their roles in later lanes that
    runs past ``size`` cells: the first address past them, lane by lane."""
    k = max(0, size - max(qubits) + 7 >> 3)  # the first lane, counted from qubits', past the end (0: theirs)
    return UnknownLabel(next(a + (k << 3) for a in qubits if a + (k << 3) >= size))


class Lanes:
    """A session's registers as slot lanes.

    A qubit's address packs its lane (its slot) and its role there, ``lane
    << 3 | role``; ``cells[address]`` holds its register.  A register within
    one lane is an interned ``_State`` under each of its addresses, and an
    op on it is a memoized transition: a gate or preparation stores the next
    state, a measurement samples its ``_LaneStep`` with ``_pick`` and
    stores the branch's state.  ``prepare_*`` and ``cnot`` take a count of
    lanes, and ``measurements`` gives ``measure_each`` over a list of
    addresses.  A register spanning lanes (Eve's return-leg
    ops join slots under the permutation) is one ``_Shared`` record under
    each of its addresses, run on its ket's memo while it holds two qubits
    or more; a lone qubit Bell-measured against another lane's register
    joins that lane's state as ``_VISITOR`` instead.  Either way its ket and qubit order are a label-addressed
    register's: an op across registers joins them, the first operand's in
    the high bits, and a measured qubit leaves.  An op on a free address or
    on one past the last lane raises ``UnknownLabel``, and a count below 1
    ``ValueError``, before it changes a cell (``measure_each`` keeps the
    outcomes of the addresses listed before it).
    """

    def __init__(self, size: int):
        if size << 3 > sys.maxsize:  # past what a list can index: too large for memory too
            raise MemoryError(f"{size} lanes do not fit in memory")
        self.cells: list = [_NONE] * (size << 3)  # one list for good: closures hold it

    def _join(self, a: int, b: int) -> _Shared:
        """The shared record holding ``a`` and ``b``: their registers joined,
        ``a``'s in the high bits, unless one record holds both."""
        cells = self.cells
        rec, other = cells[a], cells[b]
        if other is rec and type(rec) is _Shared:
            return rec
        if rec is _NONE or other is _NONE:
            raise UnknownLabel(a if rec is _NONE else b)
        ket = rec.ket.memo.get(other.ket) or _merge(rec.ket, other.ket)  # raises before anything changes
        held = rec.qubits if type(rec) is _Shared else _addresses(rec.layout, a & -8)
        more = other.qubits if type(other) is _Shared else _addresses(other.layout, b & -8)
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

    def _collapse(self, rec: _Shared, qubits: tuple, code, bras: _Bras, rng: RandomSource) -> int:
        """Sample the measurement ``code`` (see _key), of bras ``bras``, of
        ``qubits`` in the record ``rec``, which keeps what is left; a lone
        qubit left becomes a lane state, so a record holds two qubits or more."""
        held, ket = rec.qubits, rec.ket
        p = held.index(qubits[0])
        if len(qubits) == 2:  # _step's key, spelled out
            key = (p << 16 | held.index(qubits[1])) << 5 | code
        else:
            key = p << 3 | code if type(code) is int else (code, p)
        step = ket.memo.get(key)
        if step is None:
            step = ket.memo[key] = _Step(ket, tuple(map(held.index, qubits)), bras)
        outcome = step.outs[_pick(step.sums, rng.random())]  # _sample, spelled out
        post = step.posts[outcome]
        if type(post) is dict:  # not yet collapsed; raises if impossible
            post = step.post(outcome)
        cells = self.cells
        for a in qubits:
            cells[a] = _NONE
        if post is not None:
            left = step.pick(held)
            if post.k == 1:
                cells[left[0]] = _state(post, (left[0] & 7,))
            else:
                rec.ket, rec.qubits = post, left
        return outcome

    def _slow(self, code, qubits: tuple, op, rng: RandomSource | None = None):
        """The op ``code`` (see _key) past the fast paths: ``op`` is the gate
        (``_x`` or ``_cnot``) or, with ``rng``, the measurement's bras."""
        cells, a, b = self.cells, qubits[0], qubits[-1]
        try:
            state, other = cells[a], cells[b]
        except IndexError:
            raise _past_end(len(cells), qubits) from None
        if state is _NONE or other is _NONE:
            raise UnknownLabel(a if state is _NONE else b)
        if type(state) is _Shared or type(other) is _Shared or a >> 3 != b >> 3:
            rec = self._join(a, b)
            if rng is not None:
                return self._collapse(rec, qubits, code, op, rng)
            held = rec.qubits
            rec.ket = op(rec.ket, *map(held.index, qubits))
            return None
        if other is not state:  # two registers of one lane, joined
            joined = state.memo.get(other)
            if joined is None:
                joined = state.memo[other] = _state(_merge(state.ket, other.ket), state.layout + other.layout)
            state = joined
        key = _key(code, tuple([q & 7 for q in qubits]))
        nxt = state.memo.get(key)
        if nxt is None:
            layout = state.layout
            positions = tuple([layout.index(q & 7) for q in qubits])
            if rng is None:
                nxt = state.memo[key] = _state(op(state.ket, *positions), layout)
            else:
                nxt = state.memo[key] = _LaneStep(layout, _step(state.ket, positions, code, op))
        outcome = None
        if rng is not None:  # sample the step; the branch taken is the next state
            outcome = _sample(nxt, rng)
            for q in qubits:
                cells[q] = _NONE
            nxt = nxt.posts[outcome] or nxt.post(outcome)
        base = a & -8
        for r in nxt.layout:
            cells[base | r] = nxt
        return outcome

    def _prepare(self, ket: _Ket, qubits: tuple, count: int = 1) -> None:
        """Prepare ``ket`` on ``qubits`` past the fast paths, and on their
        roles in the next ``count - 1`` lanes (qubits of one lane), one store
        per role; raises before anything changes unless all of them are free
        and, with a count, in one lane."""
        cells = self.cells
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count!r}")
        if len(qubits) != ket.k:
            raise ValueError(f"a {ket.k}-qubit ket cannot carry {len(qubits)} labels")
        if len(set(qubits)) != len(qubits):
            raise DuplicateLabel(f"labels not unique: {qubits}")
        if max(qubits) + (count - 1 << 3) >= len(cells):
            raise _past_end(len(cells), qubits)
        for a in qubits:
            if cells[a : a + (count << 3) : 8].count(_NONE) != count:
                raise DuplicateLabel(a)
        base = qubits[0] & -8
        if any(a & -8 != base for a in qubits):
            if count != 1:  # a count repeats one lane's roles, which qubits of two lanes have not
                raise ValueError(f"a counted preparation takes qubits of one lane, got {qubits}")
            rec = _Shared(ket, qubits)
            for a in qubits:
                cells[a] = rec
            return
        roles = tuple([a & 7 for a in qubits])
        state = _state(ket, roles)
        fill, stop = [state] * count, base + (count << 3)
        for r in roles:
            cells[base | r : stop : 8] = fill

    # A preparation puts its state on the qubits and, with a count, on their
    # roles in the next count - 1 lanes too; it returns the qubits.

    def prepare_z(self, bit: int, a: int, count: int = 1) -> int:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        cells = self.cells
        try:
            free = count == 1 and cells[a] is _NONE
        except IndexError:
            raise _past_end(len(cells), (a,)) from None
        if free:
            cells[a] = _Z_STATES[bit][a & 7]
        else:
            self._prepare(_Z_KETS[bit], (a,), count)
        return a

    def prepare_zs(self, bits: list, a: int) -> None:
        """|bits[i]> on ``a``'s role in the i-th lane from ``a``'s, all or none."""
        cells, stop = self.cells, a + (len(bits) << 3)
        if not {0, 1}.issuperset(bits):
            raise ValueError(f"bits must be 0 or 1, got {bits!r}")
        if stop - 8 >= len(cells):
            raise _past_end(len(cells), (a,))
        if cells[a:stop:8].count(_NONE) != len(bits):
            raise DuplicateLabel(a)
        cells[a:stop:8] = map((_Z_STATES[0][a & 7], _Z_STATES[1][a & 7]).__getitem__, bits)

    def prepare_bell(self, kind: BellKind, a1: int, a2: int, count: int = 1) -> tuple:
        self._prepare(_BELL_KETS[kind], (a1, a2), count)
        return a1, a2

    def prepare_ghz_like(
        self, psi1: BellKind, psi2: BellKind, basis: OrthonormalPair, qubits, count: int = 1
    ) -> tuple:
        if psi1 is psi2:
            raise EqualBellKinds("psi1 and psi2 must be distinct Bell states")
        self._prepare(_ghz_like_ket(psi1, psi2, basis), tuple(qubits), count)
        return tuple(qubits)

    def cnot(self, c: int, t: int, count: int = 1) -> None:
        cells = self.cells
        try:
            reg, other = cells[c], cells[t]
        except IndexError:
            raise _past_end(len(cells), (c, t)) from None
        if count != 1:  # one transition if every lane holds reg and other, else lane by lane
            if count < 1:
                raise ValueError(f"count must be at least 1, got {count!r}")
            if max(c, t) + (count - 1 << 3) >= len(cells):
                raise _past_end(len(cells), (c, t))
            stop = count << 3
            if (c >> 3 == t >> 3 and type(reg) is _State is type(other) and _NONE not in (reg, other)
                    and cells[c : c + stop : 8].count(reg) == count == cells[t : t + stop : 8].count(other)):
                self.cnot(c, t)
                nxt, base = cells[c], c & -8
                for r in nxt.layout:
                    cells[base | r : base + stop : 8] = [nxt] * count
            else:
                for k in range(0, stop, 8):
                    self.cnot(c + k, t + k)
            return
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
                held, ket = rec.qubits, rec.ket
                c, t = held.index(c), held.index(t)
                rec.ket = ket.memo.get((c << 16 | t) << 5 | _CNOT) or _cnot(ket, c, t)
        else:
            base = c & -8
            for r in nxt.layout:
                cells[base | r] = nxt

    def x(self, a: int) -> None:
        self._slow(_X, (a,), _x)

    def measurements(self, rng: RandomSource) -> tuple:
        """``measure_z(a)``, ``measure_bell(a1, a2)`` and ``measure_each(addresses,
        basis, flips=None)``, which measures each address in turn and, given
        bits ``flips``, resends ``|outcome ^ flips[i]>`` there; draws from ``rng``."""
        cells, collapse, slow, join = self.cells, self._collapse, self._slow, self._join
        z_bras, draw = COMPUTATIONAL._bras, rng.random

        def measure_z(a: int) -> int:
            try:
                reg = cells[a]
            except IndexError:
                raise _past_end(len(cells), (a,)) from None
            step = reg.memo.get((a & 7) << 3 | _Z)
            if step is None:
                if type(reg) is _Shared:
                    return collapse(reg, (a,), _Z, z_bras, rng)
                return slow(_Z, (a,), z_bras, rng)
            # the sample and stores of _slow, spelled out on the most frequent op
            outcome = step.outs[_pick(step.sums, draw())]
            post = step.posts[outcome]
            if post is None:
                post = step.post(outcome)
            cells[a] = _NONE
            base = a & -8
            for r in post.layout:
                cells[base | r] = post
            return outcome

        def measure_bell(a1: int, a2: int) -> BellKind:
            try:
                reg, other = cells[a1], cells[a2]
            except IndexError:
                raise _past_end(len(cells), (a1, a2)) from None
            step, base = None, a1 & -8
            if a1 >> 3 == a2 >> 3:
                state = reg if other is reg else reg.memo.get(other)  # two registers joined
                if state is not None:
                    step = state.memo.get(((a1 & 7) << 16 | a2 & 7) << 5 | _BELL)
            elif (type(reg) is _State is type(other) and reg is not _NONE is not other
                    and (len(other.layout) == 1 or len(reg.layout) == 1)):
                # a lone qubit joins the other register's lane as role _VISITOR, in _join's order
                if len(other.layout) == 1:  # a2 in the low bits, keyed on the host a1 by its ket
                    host, key, r1, r2 = reg, other.ket, a1 & 7, _VISITOR
                else:  # a1 in the high bits, keyed on the host a2 by a 1-tuple of its ket
                    host, key, r1, r2, base = other, (reg.ket,), _VISITOR, a2 & 7, a2 & -8
                state = host.memo.get(key)
                if state is None:
                    layout = reg.layout + (_VISITOR,) if host is reg else (_VISITOR,) + other.layout
                    state = _state(_merge(reg.ket, other.ket), layout)  # raises before anything changes
                    host.memo[key] = state
                key = (r1 << 16 | r2) << 5 | _BELL
                step = state.memo.get(key)
                if step is None:
                    layout = state.layout
                    step = _LaneStep(layout, _step(state.ket, (layout.index(r1), layout.index(r2)), _BELL, _BELL_BRAS))
                    state.memo[key] = step
            if step is None:
                if type(reg) is _Shared and other is reg:  # two qubits of one record
                    return BELL_ORDER[collapse(reg, (a1, a2), _BELL, _BELL_BRAS, rng)]
                if type(reg) is _Shared or type(other) is _Shared or a1 >> 3 != a2 >> 3:  # as in _slow
                    return BELL_ORDER[collapse(join(a1, a2), (a1, a2), _BELL, _BELL_BRAS, rng)]
                return BELL_ORDER[slow(_BELL, (a1, a2), _BELL_BRAS, rng)]
            outcome = step.outs[_pick(step.sums, draw())]  # spelled out, as in measure_z
            post = step.posts[outcome]
            if post is None:
                post = step.post(outcome)
            cells[a1] = cells[a2] = _NONE
            for r in post.layout:
                cells[base | r] = post
            return BELL_ORDER[outcome]

        def measure_each(addresses, basis: OrthonormalPair, flips=None) -> list:
            bras = basis._bras
            code, keys = (_Z, _Z_KEYS) if bras is z_bras else (bras, [(bras, r) for r in range(8)])  # by role
            if flips is not None and not {0, 1}.issuperset(flips):
                raise ValueError(f"flips must be bits, got {flips!r}")
            outcomes = [None] * len(addresses)
            for i, a in enumerate(addresses):
                try:
                    reg = cells[a]
                except IndexError:
                    raise _past_end(len(cells), (a,)) from None
                step = reg.memo.get(keys[a & 7])
                if step is None:
                    outcome = collapse(reg, (a,), code, bras, rng) if type(reg) is _Shared else slow(code, (a,), bras, rng)
                else:  # spelled out, as in measure_z
                    outcome = step.outs[_pick(step.sums, draw())]
                    post = step.posts[outcome] or step.post(outcome)
                    cells[a] = _NONE
                    base = a & -8
                    for r in post.layout:
                        cells[base | r] = post
                outcomes[i] = outcome
                if flips is not None:  # prepare_z(outcome ^ flip, a) on the address just freed
                    cells[a] = _Z_STATES[outcome ^ flips[i]][a & 7]
            return outcomes

        return measure_z, measure_bell, measure_each

    def measure_z(self, a: int, rng: RandomSource) -> int:
        return self.measurements(rng)[0](a)

    def measure_bell(self, a1: int, a2: int, rng: RandomSource) -> BellKind:
        return self.measurements(rng)[1](a1, a2)

    def measure_ab(self, a: int, basis: OrthonormalPair, rng: RandomSource) -> int:
        return self.measurements(rng)[2]((a,), basis)[0]


# bench/tracer.py wraps the ops of RegisterBank, the label-keyed register
# store that the lanes replaced; the lanes carry the same op names
RegisterBank = Lanes


# The StateVector reference layer lives in qsim_reference, which sessions
# never import; its names still resolve here, bound on first use.
__getattr__, __dir__ = lazy_exports(globals(), dict.fromkeys((
    "StateVector", "MeasurementRecord", "prepare_z", "prepare_bell", "prepare_ghz_like", "merge_registers",
    "apply_cnot", "apply_x", "reordered", "z_probabilities", "project_z", "measure_z", "bell_probabilities",
    "project_bell", "measure_bell", "ab_probabilities", "project_ab", "measure_ab",
), "qsim_reference"))
