"""The value records keep the constructors, equality, hashing and
immutability that the package's callers rely on (``semiquantum.records``)."""
import pytest

from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import ProtocolCostRow, TrialStats, run_trials
from semiquantum.cli import CliConfig
from semiquantum.parties import Permutation
from semiquantum.protocols import (
    AbortReason,
    CdssqcConfig,
    CdssqcVariant,
    RawKeys,
    SessionConfig,
    SessionOutcome,
    SpotCheckedConfig,
    SqdConfig,
    SqkaConfig,
    Transcript,
    make_config,
)
from semiquantum.qsim import COMPUTATIONAL, HADAMARD, BellKind, OrthonormalPair
from semiquantum.records import Record, fields, replace

REQUIRED = object()
SESSION = [("n", REQUIRED), ("m", None), ("seed", 0), ("attack", AttackStrategy()),
           ("threshold", 0.0), ("permutation_enabled", True)]
SPOT = [*SESSION, ("spot_check_size", None)]
# Each record's fields in constructor order, with their defaults.
RECORDS = {
    SessionConfig: SESSION,
    SpotCheckedConfig: SPOT,
    SqkaConfig: [*SESSION, ("commitments_enabled", True), ("protocol", "sqka"), ("fixed_k_a", None),
                 ("fixed_k_b", None), ("dishonest_k_a", None), ("dishonest_pi_n", False)],
    CdssqcConfig: [*SPOT, ("variant", CdssqcVariant.GHZ_LIKE), ("psi1", BellKind.PSI_PLUS),
                   ("psi2", BellKind.PHI_PLUS), ("controller_basis", COMPUTATIONAL),
                   ("switch_bell", BellKind.PSI_PLUS), ("charlie_permutation_enabled", True), ("message", None)],
    SqdConfig: [*SPOT, ("alice_message", None), ("bob_message", None), ("final_measurement", "bell")],
    Transcript: [("events", [])],
    RawKeys: [(name, REQUIRED) for name in ("k_a", "k_b", "r_a", "r_b", "k_f")],
    SessionOutcome: [*[(name, REQUIRED) for name in ("protocol", "aborted", "abort_reason", "keys", "transcript",
                                                     "error_rate_observed")],
                     ("eve_inferences", None), ("raw", None), ("details", {})],
    AttackStrategy: [("kind", AttackKind.NONE), ("legs", None), ("eve_rng_seed", None)],
    Permutation: [("mapping", REQUIRED)],
    ProtocolCostRow: [(name, REQUIRED) for name in ("protocol", "c", "q_c", "d", "b")],
    TrialStats: [(name, REQUIRED) for name in ("protocol", "attack", "n", "m", "trials", "failures", "abort_rate",
                                               "key_match_rate", "eve_accuracy", "eve_position_id_rate",
                                               "decoy_detection_rate", "halfwidth99")],
    CliConfig: [(name, REQUIRED) for name in ("session", "trials", "format", "out")],
}
# A valid value for each required field, by name.
SAMPLE = {
    "n": 2,
    "k_a": (0, 1), "k_b": (1, 1), "r_a": (0, 0), "r_b": (1, 0), "k_f": (1, 0),
    "protocol": "sqka", "aborted": False, "abort_reason": AbortReason.NONE, "keys": {"alice": (1,)},
    "transcript": Transcript(), "error_rate_observed": 0.25, "mapping": (2, 0, 1),
    "c": 1, "q_c": 2, "d": 3, "b": 5, "attack": "none", "m": 6, "trials": 4, "failures": 0,
    "abort_rate": 0.5, "key_match_rate": 1.0, "eve_accuracy": 0.0, "eve_position_id_rate": 0.0,
    "decoy_detection_rate": 0.0, "halfwidth99": {"abort_rate": 0.1}, "session": SqkaConfig(n=2),
    "format": "json", "out": None,
}
HASHABLE = (SessionConfig, SpotCheckedConfig, SqkaConfig, CdssqcConfig, SqdConfig, RawKeys, AttackStrategy,
            Permutation, ProtocolCostRow, CliConfig)


def _required(cls) -> dict:
    return {name: SAMPLE[name] for name, default in RECORDS[cls] if default is REQUIRED}


def _values(cls) -> list:
    return [SAMPLE[name] if default is REQUIRED else default for name, default in RECORDS[cls]]


def test_every_record_is_listed():
    import semiquantum.records as records

    def subclasses(cls):
        return {cls, *(s for sub in cls.__subclasses__() for s in subclasses(sub))}

    assert subclasses(Record) - {Record} - set(RECORDS) == set()
    assert records.fields(SqkaConfig) is fields(SqkaConfig(n=1))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_keep_their_order_and_defaults(cls):
    assert [f.name for f in fields(cls)] == [name for name, _ in RECORDS[cls]]
    record = cls(**_required(cls))
    for name, default in RECORDS[cls]:
        if default is not REQUIRED:
            assert getattr(record, name) == default, name


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    names, values = [name for name, _ in RECORDS[cls]], _values(cls)
    by_position = cls(*values)
    assert by_position == cls(**dict(zip(names, values)))
    assert [getattr(by_position, name) for name in names] == values
    first_required = len([d for _, d in RECORDS[cls] if d is REQUIRED])
    if first_required:  # the required fields by position, the rest by keyword
        assert cls(*values[:first_required]) == cls(**_required(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equal_values_compare_equal_and_hash_alike(cls):
    a, b = cls(*_values(cls)), cls(*_values(cls))
    assert a == b and not a != b
    if cls in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:  # a dict or list field, as with a frozen dataclass
        with pytest.raises(TypeError):
            hash(a)
    name = RECORDS[cls][0][0]
    # another valid value of the first field, which the config rules accept
    other_value = {"n": 3, "kind": AttackKind.CNOT}.get(name, "other")
    other = Permutation((0, 1, 2)) if cls is Permutation else replace(a, **{name: other_value})
    assert other != a


def test_records_of_two_classes_differ():
    assert SqkaConfig(n=2) != SqdConfig(n=2)
    assert SessionConfig(n=2) != SpotCheckedConfig(n=2)
    assert SqkaConfig(n=2) == SqkaConfig(n=2) != SqkaConfig(n=3)
    assert SqkaConfig(n=2) != (2,) and SqkaConfig(n=2) != {"n": 2}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_assigning_to_a_record_raises(cls):
    record = cls(*_values(cls))
    name = RECORDS[cls][0][0]
    with pytest.raises(AttributeError, match=name):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == _values(cls)[0]


def test_mutable_defaults_are_not_shared():
    first, second = Transcript(), Transcript()
    first.log("alice", "encode", count=1)
    assert second.events == [] and len(first.events) == 1
    required = _required(SessionOutcome)
    assert SessionOutcome(**required).details is not SessionOutcome(**required).details
    assert SessionConfig(n=1).attack == AttackStrategy()


def test_replace_validates_anew():
    config = SqkaConfig(n=2, seed=5)
    with pytest.raises(ValueError, match="sqd"):
        replace(config, protocol="sqd")
    switched = replace(make_config("cdssqc-ghz", n=2), variant="switch")
    assert switched.variant is CdssqcVariant.SWITCH and switched.protocol == "cdssqc-switch"
    assert replace(config, seed=6) == SqkaConfig(n=2, seed=6)
    assert replace(config) == config and replace(config) is not config
    with pytest.raises(ValueError, match="bijection"):
        replace(Permutation((2, 0, 1)), mapping=(0, 0, 1))
    with pytest.raises(TypeError, match="bogus"):
        replace(config, bogus=1)


@pytest.mark.parametrize(
    "build, word",
    [
        (lambda: SqkaConfig(), "got 0 by position and none by keyword"),
        (lambda: SqkaConfig(n=1, bogus=2), "got 0 by position and n, bogus by keyword"),
        (lambda: Permutation((0,), 1, 3), "got 3 by position"),
        (lambda: Permutation((0,), size=1), "got 1 by position and size by keyword"),
        (lambda: RawKeys((0,), (1,), (0,)), "takes the fields k_a, k_b, r_a, r_b, k_f; got 3 by position"),
    ],
)
def test_bad_constructor_calls_raise_type_error(build, word):
    with pytest.raises(TypeError, match=word):
        build()


def test_repr_names_every_field_in_order():
    assert repr(RawKeys((0,), (1,), (0,), (1,), (1,))) == "RawKeys(k_a=(0,), k_b=(1,), r_a=(0,), r_b=(1,), k_f=(1,))"
    assert repr(SqkaConfig(n=2)) == (
        "SqkaConfig(n=2, m=None, seed=0, attack=AttackStrategy(kind=<AttackKind.NONE: 'none'>, legs=None, "
        "eve_rng_seed=None), threshold=0.0, permutation_enabled=True, commitments_enabled=True, protocol='sqka', "
        "fixed_k_a=None, fixed_k_b=None, dishonest_k_a=None, dishonest_pi_n=False)"
    )


def test_orthonormal_pair_is_positional_and_compares_by_components():
    basis = OrthonormalPair((1.0, 0.0), (0.0, 1.0))
    assert basis == COMPUTATIONAL and hash(basis) == hash(COMPUTATIONAL) and basis != HADAMARD
    assert OrthonormalPair(b=(0, 1), a=(1, 0)) == COMPUTATIONAL
    assert repr(basis) == "OrthonormalPair(a=(1.0, 0.0), b=(0.0, 1.0))"
    assert basis != (1.0, 0.0)


def test_trial_stats_to_dict_is_pinned():
    config = make_config("sqka", n=4, attack=AttackStrategy(AttackKind.INTERCEPT_RESEND))
    row = run_trials(config, 20, 7).to_dict()
    assert row == {
        "protocol": "sqka", "attack": "intercept-resend", "n": 4, "m": 12, "trials": 20, "failures": 0,
        "abort_rate": 1.0, "key_match_rate": 0.0, "eve_accuracy": 0.44375, "eve_position_id_rate": 0.8125,
        "decoy_detection_rate": 0.8041666666666667,
        "halfwidth99": {"abort_rate": 0.0, "key_match_rate": 0.0, "eve_accuracy": 0.14307912682885626,
                        "eve_position_id_rate": 0.11240468345790942, "decoy_detection_rate": 0.06598235324323908},
        "eta": 0.1,
    }
    assert list(row) == [*(f.name for f in fields(TrialStats)), "eta"]
