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
resolve here too, loading it on first use.  Stored kets are interned, and
each primitive keeps its result on the input ket: a gate or merge its
output ket, a measurement its step.  Every ket of at most 4 qubits is
stored; of the 5- and 6-qubit kets (cross-slot registers of permuted
attacks) only the first ``MAX_WIDE_KETS``.  A step holds its branch
probabilities, their running sums and each branch's post ket, collapsed
when the branch is first taken.

A session's registers live in ``Lanes``, addressed by slot and role.  A
register within one slot is an interned lane state, a ket plus the role of
each qubit, and each op is one memoized transition of it: a gate or
preparation maps it to the next state, a measurement to a ``_LaneStep``
whose posts are states, so a measurement is one lookup, one ``_sample`` and
the stores.  A stage of one op on many slots is one call: a preparation or
a CNOT with a lane count runs its transition once and stores the result
into every lane by slice (a CNOT only where every lane holds the same
states, else lane by lane), and ``measure_each`` runs the measurements of a
list of addresses, each resent on request, in one loop.  Up to
``MAX_LANE_STATES`` states are stored; a register spanning slots is a
shared record run on its ket's memo.  A stored ket's or state's memo refers
only to stored ones, later ones take the same code unstored, and every
result is the value the computation gives the first time, so the memo
changes no draw.  Every sampled measurement takes exactly one
``rng.random()`` draw in ``_sample`` and returns the first outcome, in a
fixed order (Z: 0, 1; Bell: ``BELL_ORDER``; basis: a, b), whose running
probability sum exceeds the draw.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from typing import Sequence

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
# at most this many kets of 5-6 qubits are stored with their memo (see Memo)
MAX_WIDE_KETS = 512
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
# the code _PREP_Z + bit.
_Z, _X, _PREP_Z, _CNOT, _BELL = 1, 2, 3, 5, 6
_Z_KEYS = tuple(r << 3 | _Z for r in range(8))  # a Z measurement's key, by role


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
    stores the branch's state.  ``prepare_*`` and ``cnot`` take a count of
    lanes, and ``measurements`` gives ``measure_each`` over a list of
    addresses.  A register spanning lanes (Eve's return-leg
    ops join slots under the permutation) is one ``_Shared`` record under
    each of its addresses, run on its ket's memo until its last qubit is
    measured.  Either way its ket and qubit order are a label-addressed
    register's: an op across registers joins them, the first operand's in
    the high bits, and a measured qubit leaves.
    """

    def __init__(self, size: int):
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
        self._prepare(None, _BELL_KETS[kind], (a1, a2), count)
        return a1, a2

    def prepare_ghz_like(
        self, psi1: BellKind, psi2: BellKind, basis: OrthonormalPair, qubits, count: int = 1
    ) -> tuple:
        if psi1 is psi2:
            raise EqualBellKinds("psi1 and psi2 must be distinct Bell states")
        self._prepare(None, _ghz_like_ket(psi1, psi2, basis), tuple(qubits), count)
        return tuple(qubits)

    def cnot(self, c: int, t: int, count: int = 1) -> None:
        cells = self.cells
        reg, other = cells[c], cells[t]
        if count != 1:  # one transition if every lane holds reg and other, else lane by lane
            stop = count << 3
            if (count > 1 and c >> 3 == t >> 3 and type(reg) is _State is type(other) and _NONE not in (reg, other)
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
                held = rec.qubits
                rec.ket = _cnot(rec.ket, held.index(c), held.index(t))
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
        cells, collapse, slow, prepare = self.cells, self._collapse, self._slow, self._prepare
        z_bras = COMPUTATIONAL._bras

        def measure_z(a: int) -> int:
            reg = cells[a]
            step = reg.memo.get((a & 7) << 3 | _Z)
            if step is None:
                if type(reg) is _Shared:
                    return collapse(reg, (a,), z_bras, rng)
                return slow(_Z, (a,), z_bras, rng)
            # the sample and stores of _slow, spelled out on the most frequent op
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
            outcome = _sample(step, rng)  # spelled out, as in measure_z
            post = step.posts[outcome]
            if post is None:
                post = step.post(outcome)
            cells[a1] = cells[a2] = _NONE
            base = a1 & -8
            for r in post.layout:
                cells[base | r] = post
            return BELL_ORDER[outcome]

        def measure_each(addresses, basis: OrthonormalPair, flips=None) -> list:
            bras = basis._bras
            code, keys = (_Z, _Z_KEYS) if bras is z_bras else (bras, [(bras, r) for r in range(8)])  # by role
            if flips is not None and not {0, 1}.issuperset(flips):
                raise ValueError(f"flips must be bits, got {flips!r}")
            outcomes = []
            for i, a in enumerate(addresses):
                reg = cells[a]
                step = reg.memo.get(keys[a & 7])
                if step is None:
                    outcome = collapse(reg, (a,), bras, rng) if type(reg) is _Shared else slow(code, (a,), bras, rng)
                else:  # spelled out, as in measure_z
                    outcome = _sample(step, rng)
                    post = step.posts[outcome] or step.post(outcome)
                    cells[a] = _NONE
                    base = a & -8
                    for r in post.layout:
                        cells[base | r] = post
                outcomes.append(outcome)
                if flips is not None:  # prepare_z(outcome ^ flip, a), spelled out
                    bit = outcome ^ flips[i]
                    state = _NONE.memo.get((a & 7) << 3 | _PREP_Z + bit)
                    if state is None:
                        prepare(_PREP_Z + bit, _Z_KETS[bit], (a,))
                    else:
                        cells[a] = state
            return outcomes

        return measure_z, measure_bell, measure_each

    def measure_z(self, a: int, rng: RandomSource) -> int:
        return self.measurements(rng)[0](a)

    def measure_bell(self, a1: int, a2: int, rng: RandomSource) -> BellKind:
        return self.measurements(rng)[1](a1, a2)

    def measure_ab(self, a: int, basis: OrthonormalPair, rng: RandomSource) -> int:
        return self.measurements(rng)[2]((a,), basis)[0]

    # snapshots

    def state_of(self, a: int) -> StateVector:
        """The current content of ``a``'s register, over the addresses."""
        from .qsim_reference import StateVector

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


# The StateVector reference layer lives in qsim_reference, which sessions
# never import; its names still resolve here, bound on first use.
__getattr__, __dir__ = lazy_exports(globals(), dict.fromkeys((
    "StateVector", "MeasurementRecord", "prepare_z", "prepare_bell", "prepare_ghz_like", "merge_registers",
    "apply_cnot", "apply_x", "reordered", "z_probabilities", "project_z", "measure_z", "bell_probabilities",
    "project_bell", "measure_bell", "ab_probabilities", "project_ab", "measure_ab",
), "qsim_reference"))
