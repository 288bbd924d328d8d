"""The transcript writer gives the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline, for every session and for the edge values
a JSON writer must get right, and refuses what ``json.dumps`` refuses."""
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.protocols import PROTOCOLS, TRANSCRIPT_SCHEMA, emit_transcript, make_config, run_session
from semiquantum.protocols.common import json_text
from semiquantum.qsim import BellKind


def _json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_transcript_is_the_bytes_json_dumps_writes(protocol):
    for attack in AttackKind:
        for n in (1, 8, 100):
            for threshold in (0.0, 1.0):
                for seed in (1, 2, 3):
                    config = make_config(protocol, n=n, seed=seed, threshold=threshold,
                                         attack=AttackStrategy(attack))
                    out = run_session(config)
                    doc = {
                        "schema": TRANSCRIPT_SCHEMA, "protocol": out.protocol, "aborted": out.aborted,
                        "abort_reason": out.abort_reason.value,
                        "error_rate_observed": out.error_rate_observed, "keys": out.keys,
                        "eve_inferences": out.eve_inferences, "events": out.transcript.events,
                    }
                    assert emit_transcript(out) == (_json(doc) + "\n").encode(), config


class _Level(enum.IntEnum):
    LOW = 1


EDGE_VALUES = [
    {}, [], (), [[]], [[1, 2], [], [[3]], ()], {"b": [], "a": {"c": ()}, "": {}},
    [1, None, 0], (None,), [True, False, 1], [1, True], True, False, None, 0,
    -5, 2**70, [-(2**70), 7], [_Level.LOW], _Level.LOW,
    -0.0, 1e-07, 1e16, 1 / 3, 0.5, [1, 0.5], {"x": 1e300},
    '"', "\\", "\n", "\x00", "é", "😀", "", 'a"b\\c\nd\x00eéf\U0001f600',
    {'"': 1, "\\": 2, "\n": 3, "é": 4, "😀": 5}, ["x", "y"], [["a", 1], {"k": [True]}],
]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_edge_value_is_written_as_json_dumps_writes_it(value):
    assert json_text(value) == _json(value)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_any_json_value_is_written_as_json_dumps_writes_it(value):
    assert json_text(value) == _json(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), [1.0, float("nan")]], ids=repr)
def test_non_finite_float_is_written_as_the_json_token(value):
    assert json_text(value) == _json(value)


@pytest.mark.parametrize("value", [{1, 2}, frozenset(), BellKind.PSI_PLUS, [BellKind.PHI_PLUS], {"k": object()},
                                   1j, b"bytes"], ids=repr)
def test_value_json_dumps_refuses_raises_type_error(value):
    with pytest.raises(TypeError):
        _json(value)
    with pytest.raises(TypeError):
        json_text(value)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 0}, {"a": {2.5: 0}}], ids=repr)
def test_non_str_key_raises_type_error(value):
    # json.dumps would write such a key as a string; a transcript's keys are keyword names
    with pytest.raises(TypeError):
        json_text(value)
