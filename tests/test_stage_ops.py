"""The stage-wide lane ops give what the per-op loop gives.

A stage that applies one op to many slots makes one call: a measurement
over a list of addresses (``measure_each``, a step's ``measure_zs``,
``measure_ab`` and ``resend_zs``) and a CNOT with a lane count.  On equal
lanes each must give the same outcomes, the same cells and the same number
of ``qsim._pick`` calls, one per sampled measurement, as the loop of
single ops it replaces, whether the lanes hold one state or several, and
with a register spanning lanes among them.
"""
import sys

import pytest

from semiquantum import qsim
from semiquantum.errors import CapabilityViolation, DuplicateLabel, UnknownLabel
from semiquantum.parties import Capability, PartyContext
from semiquantum.qsim import COMPUTATIONAL, HADAMARD, BellKind, Lanes
from semiquantum.rng import RandomSource

LANES = 6


def _content(lanes: Lanes) -> list:
    """Each cell's register by value: None where the address is free."""
    out = []
    for cell in lanes.cells:
        if cell is qsim._NONE:
            out.append(None)
        else:
            where = cell.qubits if type(cell) is qsim._Shared else cell.layout
            out.append((type(cell).__name__, cell.ket.k, tuple(cell.ket.entries.items()), where))
    return out


@pytest.fixture
def samples(monkeypatch) -> list:
    """A record of every ``qsim._pick`` call, in order."""
    calls, pick = [], qsim._pick
    monkeypatch.setattr(qsim, "_pick", lambda sums, draw: calls.append(sums) or pick(sums, draw))
    return calls


def _lanes(layout: str) -> Lanes:
    """psi+ pairs on roles 0 and 1 of every lane, then ``layout``'s changes:
    ``mixed`` flips lane 2's role 1 and measures lane 3's role 0, ``shared``
    joins lanes 4 and 5 into one register, ``ancilla`` flips lane 2's role 4."""
    lanes = Lanes(LANES)
    lanes.prepare_bell(BellKind.PSI_PLUS, 0, 1, LANES)
    lanes.prepare_z(0, 4, LANES)  # an ancilla on role 4 of every lane
    if layout == "ancilla":
        lanes.x(2 << 3 | 4)
    if layout in ("mixed", "shared"):
        lanes.x(2 << 3 | 1)
        lanes.measure_z(3 << 3, RandomSource(9))
    if layout == "shared":
        lanes.cnot(4 << 3 | 1, 5 << 3 | 0)
    return lanes


MEASURED = [p << 3 | 1 for p in range(LANES)]


def _per_op(lanes: Lanes, rng, basis, flips):
    measure_z, _, measure_each = lanes.measurements(rng)
    outcomes = []
    for i, a in enumerate(MEASURED):
        if basis is None:
            outcomes.append(measure_z(a))
        else:
            outcomes += measure_each((a,), basis)
        if flips is not None:
            lanes.prepare_z(outcomes[-1] ^ flips[i], a)
    return outcomes


@pytest.mark.parametrize("layout", ["uniform", "mixed", "shared"])
@pytest.mark.parametrize("basis, flips", [
    (None, None), (HADAMARD, None), (COMPUTATIONAL, None), (None, [1, 0, 1, 1, 0, 0]),
], ids=["z", "hadamard", "computational", "resend"])
def test_measurement_over_addresses_matches_the_per_op_loop(samples, layout, basis, flips):
    seed = 3
    by_op, by_stage = _lanes(layout), _lanes(layout)
    samples.clear()
    want = _per_op(by_op, RandomSource(seed), basis, flips)
    per_op_samples = len(samples)
    got = by_stage.measurements(RandomSource(seed))[2](MEASURED, basis or COMPUTATIONAL, flips)
    assert got == want
    assert _content(by_stage) == _content(by_op)
    assert len(samples) == 2 * per_op_samples == 2 * LANES


@pytest.mark.parametrize("layout, count", [
    ("uniform", LANES), ("uniform", 1), ("mixed", LANES), ("shared", LANES), ("ancilla", LANES),
    ("uniform", 3), ("uniform", 0),
])
def test_counted_cnot_matches_the_op_lane_by_lane(samples, layout, count):
    by_op, by_stage = _lanes(layout), _lanes(layout)
    for k in range(count):
        by_op.cnot(k << 3 | 1, k << 3 | 4)
    by_stage.cnot(1, 4, count)
    assert _content(by_stage) == _content(by_op)
    # and the lanes read out alike afterwards
    ancillas = [p << 3 | 4 for p in range(LANES)]
    assert by_op.measurements(RandomSource(5))[2](ancillas, COMPUTATIONAL) == \
        by_stage.measurements(RandomSource(5))[2](ancillas, COMPUTATIONAL)
    assert _content(by_stage) == _content(by_op)


def test_uniform_counted_cnot_runs_one_transition(monkeypatch):
    lanes = _lanes("uniform")
    calls = []
    single = Lanes.cnot
    monkeypatch.setattr(Lanes, "cnot", lambda self, c, t, count=1: calls.append(count) or single(self, c, t, count))
    lanes.cnot(1, 4, LANES)
    assert calls == [LANES, 1]
    calls.clear()
    lanes = _lanes("mixed")
    lanes.cnot(1, 4, LANES)
    assert calls == [LANES] + [1] * LANES


def test_an_unknown_address_raises_as_the_per_op_loop_does(samples):
    addresses = [1, 3 << 3, 2 << 3 | 1]  # lane 3's role 0 was measured
    by_op, by_stage = _lanes("mixed"), _lanes("mixed")
    samples.clear()
    measure_z = by_op.measurements(RandomSource(1))[0]
    with pytest.raises(UnknownLabel) as per_op:
        for a in addresses:
            measure_z(a)
    with pytest.raises(UnknownLabel) as stage:
        by_stage.measurements(RandomSource(1))[2](addresses, COMPUTATIONAL)
    assert stage.value.args == per_op.value.args == (3 << 3,)
    assert _content(by_stage) == _content(by_op)
    assert len(samples) == 2
    # a lane of a counted CNOT with a free qubit
    with pytest.raises(UnknownLabel) as per_op:
        for k in range(LANES):
            by_op.cnot(k << 3, k << 3 | 4)
    with pytest.raises(UnknownLabel) as stage:
        by_stage.cnot(0, 4, LANES)
    assert stage.value.args == per_op.value.args
    assert _content(by_stage) == _content(by_op)


def test_flips_must_be_bits_and_refused_before_any_measurement(samples):
    lanes = _lanes("uniform")
    before = _content(lanes)
    with pytest.raises(ValueError):
        lanes.measurements(RandomSource(1))[2](MEASURED, COMPUTATIONAL, [0, 2, 0, 0, 0, 0])
    assert _content(lanes) == before and samples == []


def test_bits_prepared_over_lanes_match_the_per_op_loop_all_or_none():
    bits = [1, 0, 0, 1, 1, 0]
    by_op, by_stage = _lanes("uniform"), _lanes("uniform")
    for p, bit in enumerate(bits):
        by_op.prepare_z(bit, p << 3 | 5)
    by_stage.prepare_zs(bits, 5)
    assert _content(by_stage) == _content(by_op)
    before = _content(by_stage)
    with pytest.raises(DuplicateLabel):  # role 5 is taken in every lane
        by_stage.prepare_zs([0, 1], 4 << 3 | 5)
    with pytest.raises(ValueError, match="bits"):
        by_stage.prepare_zs([0, 2], 6)
    assert _content(by_stage) == before


def test_stage_forms_follow_the_ops_a_step_names():
    lanes = _lanes("uniform")
    bob = PartyContext("bob", Capability.CLASSICAL, RandomSource(2), lanes)
    with pytest.raises(CapabilityViolation) as err:
        bob.step("apply_cnot")
    assert err.value.op == "apply_cnot"
    with pytest.raises(CapabilityViolation):
        bob.step("measure_ab")
    read = bob.step("measure_z")
    assert not hasattr(read, "resend_zs")  # a resend also prepares
    assert read.measure_zs([1, 1 << 3 | 1]) in ([0, 0], [0, 1], [1, 0], [1, 1])
    resend = bob.step("measure_z", "prepare_z")
    bits = resend.resend_zs([2 << 3 | 1], [1])
    assert dict(lanes.state_of(2 << 3 | 1)._ket.entries) == {bits[0] ^ 1: 1}  # |outcome ^ 1>
    assert bob.ops_log == set()  # run, not yet logged
    charlie = PartyContext("charlie", Capability.QUANTUM, RandomSource(4), lanes)
    step = charlie.step("measure_ab")
    assert not hasattr(step, "measure_zs")
    assert len(step.measure_ab([3 << 3, 4 << 3], HADAMARD)) == 2


@pytest.mark.parametrize("kind", list(BellKind))
def test_bell_symbol_is_a_plain_attribute(kind):
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    symbol = kind.symbol
    sys.setprofile(None)
    assert symbol == kind.value
    assert "call" not in events


# Each counted op on lanes 0 and 1 of two, past the last lane: the args and
# the first address past the end, lane by lane.
PAST_THE_END = {
    "cnot": (lambda l: l.cnot(1, 4, 5), 17),
    "cnot-second-operand-first": (lambda l: l.cnot(1, 12, 3), 20),
    "prepare_z": (lambda l: l.prepare_z(0, 5, 3), 21),
    "prepare_zs": (lambda l: l.prepare_zs([0, 1, 1], 6), 22),
    "prepare_bell": (lambda l: l.prepare_bell(BellKind.PHI_PLUS, 2, 3, 3), 18),
    "prepare_bell-across-lanes": (lambda l: l.prepare_bell(BellKind.PHI_PLUS, 3, 10, 2), 18),
    "prepare_ghz_like": (
        lambda l: l.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_MINUS, HADAMARD, (6, 2, 3), 4), 22,
    ),
}


@pytest.mark.parametrize("case", list(PAST_THE_END))
def test_a_count_past_the_last_lane_is_an_unknown_address_before_any_change(case):
    op, first = PAST_THE_END[case]
    lanes = Lanes(2)
    lanes.prepare_bell(BellKind.PSI_PLUS, 0, 1, 2)
    lanes.prepare_z(0, 4, 2)
    before = _content(lanes)
    with pytest.raises(UnknownLabel) as err:
        op(lanes)
    assert err.value.args == (first,)
    assert _content(lanes) == before


@pytest.mark.parametrize("op", [
    lambda l: l.prepare_bell(BellKind.PSI_PLUS, 3, 10, 2),
    lambda l: l.prepare_ghz_like(BellKind.PSI_PLUS, BellKind.PHI_MINUS, HADAMARD, (5, 6, 9), 2),
], ids=["prepare_bell", "prepare_ghz_like"])
def test_a_counted_preparation_across_lanes_is_refused_before_any_change(op):
    # a count repeats the roles of one lane; it used to prepare the first lane only
    lanes = Lanes(3)
    lanes.prepare_z(1, 20)
    before = _content(lanes)
    with pytest.raises(ValueError, match="one lane"):
        op(lanes)
    assert _content(lanes) == before
    lanes.prepare_bell(BellKind.PSI_PLUS, 3, 10)  # one preparation across lanes is a shared record
    assert type(lanes.cells[3]) is qsim._Shared and lanes.cells[3] is lanes.cells[10]
