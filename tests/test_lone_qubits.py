"""Lone qubits stay lane states.

A Bell measurement across lanes where one side is a lone qubit runs in the
other register's lane: the lone qubit joins that state under the role
``qsim._VISITOR``, in the order ``Lanes._join`` gives, so the outcome, the
step, the draw and what is left are what the shared-record route
(``_join`` then ``_collapse``) gives.  A shared record left with one qubit
becomes that qubit's lane state, so no record holds fewer than two, and a
measurement of one ket takes one step whichever route reaches it.
"""
import math

import pytest

from semiquantum import qsim
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.errors import UnknownLabel
from semiquantum.protocols import PROTOCOLS, make_config, run_session
from semiquantum.qsim import BELL_ORDER, COMPUTATIONAL, HADAMARD, MAX_QUBITS, BellKind, Lanes, OrthonormalPair
from semiquantum.qsim import measure_z as reference_measure_z
from semiquantum.qsim import prepare_ghz_like as reference_ghz_like
from semiquantum.rng import RandomSource


@pytest.fixture
def samples(monkeypatch) -> list:
    """The ``sums`` of every ``qsim._pick`` call, in order."""
    calls, pick = [], qsim._pick
    monkeypatch.setattr(qsim, "_pick", lambda sums, draw: calls.append(sums) or pick(sums, draw))
    return calls


def _snapshot(lanes: Lanes) -> dict:
    """Each address's register: its ket's content (a wide ket past the cap
    is not interned, so not compared by identity), its qubits in ket order
    and, for a shared record, its size (None for a lane state)."""
    out = {}
    for a in sorted(lanes.labels()):
        view, cell = lanes.state_of(a), lanes.cells[a]
        ket = view._ket.k, tuple(view._ket.entries.items())
        out[a] = (ket, view.labels, len(cell.qubits) if type(cell) is qsim._Shared else None)
    return out


def _contents(lanes: Lanes) -> dict:
    """As ``_snapshot``, without the register kinds, which the two routes may differ in."""
    return {a: (ket, labels) for a, (ket, labels, _) in _snapshot(lanes).items()}


# Hosts: lane 0's registers, and the host address measured.  "full" fills
# every role 0-7 of lane 0, so no free role is left for a visitor.
HOSTS = {
    "pair": (lambda l: l.prepare_bell(BellKind.PHI_MINUS, 1, 3), 3),
    "ghz": (lambda l: l.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_MINUS, HADAMARD, (2, 0, 6)), 0),
    "full": (lambda l: [l.prepare_bell(kind, r, r + 1) for r, kind in zip((0, 2, 4, 6), BELL_ORDER)], 7),
    "lone": (lambda l: l.prepare_z(1, 5), 5),  # both sides lone: nothing is left of either
}


def _lanes(host: str) -> tuple[Lanes, int, int]:
    """Three lanes: the host in lane 0, a lone |-> or |+> (the half of a
    pair whose partner was read in the Hadamard basis) on role 7 of lane 1,
    and a |1> on role 4 of lane 2; returns them with the host and lone addresses."""
    lanes = Lanes(3)
    prepare, a = HOSTS[host]
    prepare(lanes)
    lanes.prepare_bell(BellKind.PSI_MINUS, 8 | 7, 8 | 2)
    lanes.measure_ab(8 | 2, HADAMARD, RandomSource(3))
    lanes.prepare_z(1, 16 | 4)
    return lanes, a, 8 | 7


def _next_ops(lanes: Lanes, rng: RandomSource) -> list:
    """A fixed program over what a measurement left: a CNOT from each qubit
    onto lane 2's qubit in turn, where their registers fit in one, then a Z
    readout of every qubit, in address order."""
    out = []
    for a in sorted(lanes.labels() - {16 | 4}):
        if len({*lanes.state_of(a).labels, *lanes.state_of(16 | 4).labels}) <= MAX_QUBITS:
            lanes.cnot(a, 16 | 4)
            out.append(_contents(lanes))
    measure_z = lanes.measurements(rng)[0]
    for a in sorted(lanes.labels()):
        out.append((measure_z(a), _contents(lanes)))
    return out


@pytest.mark.parametrize("host", list(HOSTS))
@pytest.mark.parametrize("lone_first", [False, True], ids=["host-first", "lone-first"])
@pytest.mark.parametrize("seed", range(4))
def test_lone_qubit_bell_measured_in_its_partners_lane_matches_the_shared_route(samples, host, lone_first, seed):
    lanes, a, lone = _lanes(host)
    twin, _, _ = _lanes(host)
    a1, a2 = (lone, a) if lone_first else (a, lone)
    rng, twin_rng = RandomSource(seed), RandomSource(seed)
    samples.clear()
    shared = []
    init = qsim._Shared.__init__
    qsim._Shared.__init__ = lambda rec, *args: shared.append(args) or init(rec, *args)
    try:
        kind = lanes.measurements(rng)[1](a1, a2)
    finally:
        qsim._Shared.__init__ = init
    assert shared == []  # the visitor route: no shared record
    want = BELL_ORDER[twin._collapse(twin._join(a1, a2), (a1, a2), qsim._BELL, qsim._BELL_BRAS, twin_rng)]
    assert kind is want
    assert len(samples) == 2 and samples[0] is samples[1]  # one draw each, from one step
    assert _contents(lanes) == _contents(twin)
    assert all(size is None for _, _, size in _snapshot(lanes).values())  # all lane states
    if host == "full":  # the host lane's other registers are untouched
        assert {lanes.state_of(r).labels for r in range(6)} == {(0, 1), (2, 3), (4, 5)}
    assert _next_ops(lanes, rng) == _next_ops(twin, twin_rng)
    assert rng.random() == twin_rng.random()


@pytest.mark.parametrize("lone_first", [False, True])
def test_an_empty_address_still_raises_before_any_draw(samples, lone_first):
    lanes, a, lone = _lanes("pair")
    empty = 16 | 1  # _NONE, a lane state with no qubits
    before = _snapshot(lanes)
    samples.clear()
    for other in (a, lone):
        a1, a2 = (other, empty) if lone_first else (empty, other)
        with pytest.raises(UnknownLabel) as err:
            lanes.measurements(RandomSource(1))[1](a1, a2)
        assert err.value.args == (empty,)
    assert _snapshot(lanes) == before and samples == []


def test_a_record_left_with_one_qubit_becomes_its_lane_state():
    lanes = Lanes(3)
    lanes.prepare_bell(BellKind.PSI_PLUS, 0, 8 | 1)
    lanes.prepare_z(1, 16 | 2)
    lanes.cnot(8 | 1, 16 | 2)  # one record over three lanes
    assert type(lanes.cells[0]) is qsim._Shared
    lanes.measure_z(16 | 2, RandomSource(4))
    assert type(lanes.cells[0]) is qsim._Shared and len(lanes.cells[0].qubits) == 2
    outcome = lanes.measure_z(0, RandomSource(4))
    cell = lanes.cells[8 | 1]
    assert cell is qsim._Z_STATES[outcome][1]  # the interned |outcome> on role 1
    assert lanes.labels() == {8 | 1}


def test_two_qubits_of_one_record_are_measured_without_a_join(monkeypatch):
    lanes = Lanes(2)
    lanes.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_PLUS, COMPUTATIONAL, (0, 8, 9))
    monkeypatch.setattr(Lanes, "_join", lambda *args: pytest.fail("joined"))
    lanes.measure_bell(8, 0, RandomSource(2))
    assert lanes.labels() == {9}


def test_one_step_per_measurement_of_a_ket_whichever_route_reaches_it(samples):
    # a ket no other test builds: a GHZ-like state over a basis of its own
    angle = 0.3141
    basis = OrthonormalPair((math.cos(angle), math.sin(angle)), (-math.sin(angle), math.cos(angle)))
    kinds = BellKind.PSI_MINUS, BellKind.PHI_PLUS
    in_lane, shared = Lanes(3), Lanes(3)
    in_lane.prepare_ghz_like(*kinds, basis, (0, 1, 2))
    shared.prepare_ghz_like(*kinds, basis, (0, 8, 16))
    ket = in_lane.state_of(0)._ket
    assert shared.state_of(0)._ket is ket and type(shared.cells[0]) is qsim._Shared
    samples.clear()
    in_lane.measure_z(0, RandomSource(1))  # the lane path
    shared.measure_z(0, RandomSource(1))  # _collapse
    reference_measure_z(reference_ghz_like(*kinds, basis, ("a", "b", "c")), "a", RandomSource(1))
    assert len(samples) == 3 and samples[0] is samples[1] is samples[2]
    assert sum(type(v) is qsim._Step for v in ket.memo.values()) == 1


# ---------------------------------------------------------------------------
# the invariant over every cell

OPS = ("prepare_z", "prepare_zs", "prepare_bell", "prepare_ghz_like", "cnot", "x")


def _check(lanes: Lanes) -> None:
    for cell in lanes.cells:
        if type(cell) is qsim._Shared:
            assert len(cell.qubits) >= 2, cell.qubits
            assert all(lanes.cells[q] is cell for q in cell.qubits)


def _checked(op):
    def run(lanes, *args, **kwargs):
        out = op(lanes, *args, **kwargs)
        _check(lanes)
        return out

    return run


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
@pytest.mark.parametrize("attack", list(AttackKind), ids=lambda k: k.value)
@pytest.mark.parametrize("permutation", [True, False], ids=["pi", "nopi"])
def test_no_shared_record_holds_fewer_than_two_qubits_after_any_op(monkeypatch, protocol, attack, permutation):
    for name in OPS:
        monkeypatch.setattr(Lanes, name, _checked(getattr(Lanes, name)))
    measurements = Lanes.measurements

    def checked_measurements(lanes, rng):
        return tuple(
            (lambda *args, op=op, **kwargs: (op(*args, **kwargs), _check(lanes))[0])
            for op in measurements(lanes, rng)
        )

    monkeypatch.setattr(Lanes, "measurements", checked_measurements)
    records = []
    init = qsim._Shared.__init__
    monkeypatch.setattr(qsim._Shared, "__init__", lambda rec, *args: records.append(args) or init(rec, *args))
    for n in range(2, 9):
        config = make_config(
            protocol, n=n, seed=n, attack=AttackStrategy(attack), threshold=1.0, permutation_enabled=permutation,
        )
        run_session(config)
    if permutation and attack in (AttackKind.CNOT, AttackKind.INTERCEPT_RESEND) and not protocol.startswith("cdssqc"):
        assert records  # the return leg joins slots, so the invariant is tested on records
