"""The label-addressed reference simulator: immutable ``StateVector``
registers and the public prepare, merge, gate, measure, project and
probability functions over them.

Sessions run on ``qsim.Lanes``; this layer is the oracle the lanes are
tested against, and what the figure script and ``Lanes.state_of`` use.  It
runs on ``qsim``'s interned kets and their memo (see ``qsim``), with the same
conventions, and every sampled measurement takes its one draw in
``qsim._sample``.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from . import qsim
from .errors import DuplicateLabel, EqualBellKinds, RegisterTooLarge, UnknownLabel
from .qsim import _BELL_BRAS, _BELL_KETS, _Z_KETS, BELL_ORDER, COMPUTATIONAL, MAX_QUBITS, BellKind, OrthonormalPair
from .qsim import _cnot, _ghz_like_ket, _intern, _Ket, _mask, _merge, _step, _Step, _weight, _x
from .rng import RandomSource


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


def prepare_z(bit: int, label: str = "q0") -> StateVector:
    """Single qubit |0> or |1>."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    return StateVector(_Z_KETS[bit], (label,))


def prepare_bell(kind: BellKind, labels: tuple[str, str] = ("q0", "q1")) -> StateVector:
    """Two-qubit Bell state of the requested kind."""
    return StateVector(_BELL_KETS[kind], labels)


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


# ---------------------------------------------------------------------------
# gates


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


def _post_state(step: _Step, state: StateVector, outcome: int) -> StateVector | None:
    """The renormalized branch over ``state``'s remaining labels, or None."""
    post = step.post(outcome)
    if post is None:
        return None
    return StateVector(post, step.pick(state.labels))


def _project(state: StateVector, step: _Step, outcome: int) -> tuple[float, StateVector | None]:
    return step.probs[outcome], _post_state(step, state, outcome)


def _measure(state: StateVector, step: _Step, rng: RandomSource) -> tuple[int, float, StateVector | None]:
    i = qsim._sample(step, rng)
    return i, step.probs[i], _post_state(step, state, i)


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
