"""The config records say what a valid session is (``protocols``' config
classes and ``AttackStrategy``): a value no session can run is refused as
the record is built, and every config that is built runs to an outcome or a
``SemiQuantumError``.  The runners and ``Session`` check nothing again."""
import ast
import inspect
import math
import textwrap

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from semiquantum import adversary
from semiquantum.adversary import AttackKind, AttackStrategy
from semiquantum.analysis import emit_transcript, reseeded, run_trials
from semiquantum.errors import SemiQuantumError, ZeroCount
from semiquantum.protocols import (
    CdssqcConfig,
    CdssqcVariant,
    SessionConfig,
    SpotCheckedConfig,
    SqdConfig,
    SqkaConfig,
    run_session,
)
from semiquantum.protocols import cdssqc, common, sqd, sqka
from semiquantum.qsim import COMPUTATIONAL, HADAMARD, BellKind
from semiquantum.records import fields, replace

# Typed edge values: counts around 0 (n stays at most 3, so a session is
# small), seeds past 64 bits, thresholds past [0, 1] and NaN.
COUNTS = st.integers(-1, 3)
SEEDS = COUNTS | st.sampled_from([2**63, 2**64 - 1, 2**64, -(2**64), 2**100])
BOOLS = st.booleans()
THRESHOLDS = st.floats(0.0, 1.0) | st.sampled_from(
    [-0.0, -1e-9, 1.0 + 1e-9, 2.0, math.nan, math.inf, -math.inf]
)
BELL = st.sampled_from(BellKind)
ATTACK_FIELDS = {
    "kind": st.sampled_from(AttackKind),
    "legs": st.none() | st.frozensets(st.sampled_from(["forward", "return", "sideways"])),
    "eve_rng_seed": st.none() | SEEDS,
}


def field_draws(n: int) -> dict:
    """Each config class's fields, each with the values drawn for it at ``n``;
    ``attack`` draws the fields of its ``AttackStrategy``."""
    bits = (  # n bits, or a tuple of another length or with a 2 in it
        st.none()
        | st.lists(st.integers(0, 1), min_size=max(n, 0), max_size=max(n, 0)).map(tuple)
        | st.lists(st.integers(0, 2), max_size=4).map(tuple)
    )
    session = {
        "n": st.just(n),
        "m": st.none() | COUNTS,
        "seed": SEEDS,
        "attack": st.fixed_dictionaries(ATTACK_FIELDS),
        "threshold": THRESHOLDS,
        "permutation_enabled": BOOLS,
    }
    spot = {**session, "spot_check_size": st.none() | SEEDS}
    return {
        SessionConfig: session,
        SpotCheckedConfig: spot,
        SqkaConfig: {
            **session,
            "commitments_enabled": BOOLS,
            "protocol": st.sampled_from(["sqka", "sqkd", "sqd"]),
            "fixed_k_a": bits,
            "fixed_k_b": bits,
            "dishonest_k_a": bits,
            "dishonest_pi_n": BOOLS,
        },
        CdssqcConfig: {
            **spot,
            "variant": st.sampled_from([*CdssqcVariant, "ghz", "switch"]),
            "psi1": BELL,
            "psi2": BELL,
            "controller_basis": st.sampled_from([COMPUTATIONAL, HADAMARD]),
            "switch_bell": BELL,
            "charlie_permutation_enabled": BOOLS,
            "message": bits,
        },
        SqdConfig: {
            **spot,
            "alice_message": bits,
            "bob_message": bits,
            "final_measurement": st.sampled_from(["bell", "zz", "ZZ"]),
        },
    }


RUNNABLE = (SqkaConfig, CdssqcConfig, SqdConfig)


def _config_classes(cls=SessionConfig) -> set:
    return {cls, *(c for sub in cls.__subclasses__() for c in _config_classes(sub))}


def test_every_field_of_every_config_class_is_drawn():
    draws = field_draws(1)
    assert set(draws) == _config_classes()
    for cls, table in draws.items():
        assert list(table) == [f.name for f in fields(cls)], cls.__name__
    assert list(ATTACK_FIELDS) == [f.name for f in fields(AttackStrategy)]


@settings(max_examples=400)
@given(st.data())
def test_a_built_config_runs_to_an_outcome_or_a_session_error(data):
    cls = data.draw(st.sampled_from(RUNNABLE), label="class")
    n = data.draw(COUNTS, label="n")
    values = {name: data.draw(draw, label=name) for name, draw in field_draws(n)[cls].items()}
    try:
        config = cls(**{**values, "attack": AttackStrategy(**values["attack"])})
    except (ValueError, TypeError):
        event("refused as it is built")
        return
    event("built and run")
    try:
        run_session(config)
    except SemiQuantumError:
        pass
    seed = data.draw(SEEDS, label="master seed")
    run_trials(config, 2, seed)
    # run_trials reseeds the built config without checking it again
    assert reseeded(config, seed) == replace(config, seed=seed)


# Wrongly typed values for the int fields and ``attack``: integral floats
# (2.0) and bools (True == 1) among them; for the bool fields, ints, None
# and words; for the threshold, bools, None and numbers as text.  None is
# wrong where it is not optional.
NOT_INT = st.floats(-2.0, 4.0) | st.sampled_from([2.0, True, False]) | st.text(max_size=2)
NOT_BOOL = st.sampled_from([None, 0, 1, 1.0, "off", "on", ""])
WRONG = {
    "n": st.none() | NOT_INT,
    "m": NOT_INT,
    "seed": st.none() | NOT_INT,
    "attack": st.none() | NOT_INT,
    "threshold": st.sampled_from([None, True, False, "0.5", "", 0.5j, (0.5,)]),
    "permutation_enabled": NOT_BOOL,
    "spot_check_size": NOT_INT,
    "commitments_enabled": NOT_BOOL,
    "dishonest_pi_n": NOT_BOOL,
    "controller_basis": st.sampled_from([((1, 0), (0, 1)), None, "computational"]),
    "charlie_permutation_enabled": NOT_BOOL,
    "eve_rng_seed": NOT_INT,  # a field of the attack
}


@settings(max_examples=300)
@given(st.data())
def test_one_wrongly_typed_field_is_refused_as_a_type_error(data):
    """The type rules run before any value rule, so whatever the other
    fields hold, a wrong type in one field is the error raised."""
    cls = data.draw(st.sampled_from(RUNNABLE), label="class")
    n = data.draw(COUNTS, label="n")
    draws = field_draws(n)[cls]
    values = {name: data.draw(draw, label=name) for name, draw in draws.items()}
    kind = data.draw(st.sampled_from(AttackKind), label="attack kind")
    values["attack"] = AttackStrategy(kind)
    wrong = data.draw(st.sampled_from([name for name in WRONG if name in {*draws, *ATTACK_FIELDS}]), label="field")
    value = data.draw(WRONG[wrong], label=f"wrong {wrong}")
    with pytest.raises(TypeError):
        if wrong in ATTACK_FIELDS:
            values["attack"] = AttackStrategy(kind, **{wrong: value})
        else:
            values[wrong] = value
        cls(**values)


NONE_ON_RETURN = dict(kind=AttackKind.NONE, legs=frozenset({"return"}))
RETURN_ONLY_IR = dict(kind=AttackKind.INTERCEPT_RESEND, legs=frozenset({"return"}))


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: SqkaConfig(n=2, seed=1, attack=AttackStrategy(**NONE_ON_RETURN)), id="none-on-a-leg"),
        pytest.param(lambda: SqkaConfig(n=2, threshold=math.nan), id="nan-threshold"),
        pytest.param(lambda: SqkaConfig(n=2, threshold=1.5), id="threshold-past-1"),
        pytest.param(lambda: SqdConfig(n=2, alice_message=(2, 0)), id="a-2-in-bits"),
        pytest.param(lambda: SqdConfig(n=2, bob_message=(1, 0, 1)), id="bits-too-long"),
        pytest.param(lambda: SqkaConfig(n=2, dishonest_k_a=(1,)), id="announced-key-too-short"),
        pytest.param(lambda: SqkaConfig(n=2, attack=AttackStrategy(**RETURN_ONLY_IR)), id="return-only-ir"),
        pytest.param(lambda: CdssqcConfig(n=2, attack=AttackStrategy(**RETURN_ONLY_IR)),
                     id="controlled-return-only-ir"),
        pytest.param(lambda: AttackStrategy(AttackKind.CNOT, legs={"return"}), id="return-only-cnot"),
        pytest.param(lambda: CdssqcConfig(n=2, psi1="psi-", psi2=BellKind.PSI_MINUS), id="ghz-equal-bell-values"),
        pytest.param(lambda: SqdConfig(n=2, m=3, spot_check_size=4), id="spot-check-past-m"),
        pytest.param(lambda: CdssqcConfig(n=2, psi1=BellKind.PHI_MINUS, psi2=BellKind.PHI_MINUS),
                     id="ghz-equal-bell-states"),
        pytest.param(lambda: SqdConfig(n=2, final_measurement="bogus"), id="final-measurement"),
        pytest.param(lambda: AttackStrategy(AttackKind.CNOT, legs=frozenset({"sideways"})), id="unknown-leg"),
        pytest.param(lambda: AttackStrategy("sideways"), id="unknown-kind"),
    ],
)
def test_refused_as_it_is_built(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: SqkaConfig(n=2, seed=None), id="seed-none"),
        pytest.param(lambda: SqkaConfig(n=2, seed=1.5), id="seed-float"),
        pytest.param(lambda: SqkaConfig(n=2.5), id="n-float"),
        pytest.param(lambda: SqkaConfig(n=2, m=2.0), id="m-integral-float"),
        pytest.param(lambda: SqkaConfig(n=True), id="n-bool"),
        pytest.param(lambda: SqkaConfig(n=2, m=False), id="m-bool"),
        pytest.param(lambda: SqkaConfig(n="2"), id="n-str"),
        pytest.param(lambda: SqkaConfig(n=2, attack=None), id="attack-none"),
        pytest.param(lambda: CdssqcConfig(n=2, attack="cnot"), id="attack-str"),
        pytest.param(lambda: SqdConfig(n=2, spot_check_size=1.5), id="spot-float"),
        pytest.param(lambda: SqdConfig(n=2, spot_check_size=True), id="spot-bool"),
        pytest.param(lambda: AttackStrategy("cnot", eve_rng_seed="7"), id="eve-seed-str"),
        pytest.param(lambda: AttackStrategy("cnot", eve_rng_seed=True), id="eve-seed-bool"),
        pytest.param(lambda: SqkaConfig(n=2, commitments_enabled="off"), id="commitments-str"),
        pytest.param(lambda: SqkaConfig(n=2, permutation_enabled=None), id="permutation-none"),
        pytest.param(lambda: SqkaConfig(n=2, dishonest_pi_n=1), id="dishonest-pi-int"),
        pytest.param(lambda: CdssqcConfig(n=2, charlie_permutation_enabled=0), id="charlie-permutation-int"),
        pytest.param(lambda: SqkaConfig(n=2, threshold="0.5"), id="threshold-str"),
        pytest.param(lambda: SqkaConfig(n=2, threshold=True), id="threshold-bool"),
        pytest.param(lambda: CdssqcConfig(n=2, controller_basis=((1, 0), (0, 1))), id="basis-tuple"),
        pytest.param(lambda: SqdConfig(n=2, alice_message=(1.0, 0.0)), id="bits-float"),
        pytest.param(lambda: SqdConfig(n=2, alice_message="10"), id="bits-str"),
    ],
)
def test_wrong_types_are_refused_as_type_errors(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("fields_", [dict(n=0), dict(n=-1), dict(n=1, m=0)])
def test_zero_counts_are_refused_as_zero_count(fields_):
    with pytest.raises(ZeroCount):
        SqkaConfig(**fields_)


def test_rules_that_depend_on_the_protocol_admit_the_other_protocols():
    # only the GHZ-like variant needs two Bell states
    CdssqcConfig(n=2, variant="switch", psi1=BellKind.PHI_MINUS, psi2=BellKind.PHI_MINUS)
    assert AttackStrategy("cnot").kind is AttackKind.CNOT
    assert SqkaConfig(n=2, attack=AttackStrategy(AttackKind.NONE, legs=frozenset())).n == 2


# The stages that run a session; the config has checked their inputs.
GUARDED = (
    sqka._run_keyed,
    sqd.run_sqd,
    cdssqc._run,
    common.Session.__init__,
    common.Session.given_or_drawn,
    adversary.build_attack,
)


@pytest.mark.parametrize("function", GUARDED, ids=lambda f: f.__qualname__)
def test_runners_and_session_raise_nothing(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    raises = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert not raises, f"{function.__qualname__} raises at its lines {raises}"


# Each value a field takes in one form: a bits field as a tuple of ints,
# ``legs`` as a frozenset.  A config given another form equals, hashes like
# and runs like its twin given that form.
BITS_FORMS = ([1, 0], np.array([1, 0]), (True, False), [np.int64(1), np.uint8(0)], range(1, -1, -1))
LEGS_FORMS = ({"forward", "return"}, ["forward", "return"], ("return", "forward", "return"))


def _same_config(given, twin) -> None:
    assert given == twin and hash(given) == hash(twin)
    assert emit_transcript(run_session(given)) == emit_transcript(run_session(twin))


@pytest.mark.parametrize("form", BITS_FORMS, ids=lambda f: type(f).__name__)
def test_a_bits_field_is_kept_as_a_tuple_of_ints(form):
    for cls, name in ((CdssqcConfig, "message"), (SqdConfig, "alice_message"), (SqdConfig, "bob_message"),
                      (SqkaConfig, "fixed_k_a"), (SqkaConfig, "dishonest_k_a")):
        config = cls(n=2, seed=3, **{name: form})
        value = getattr(config, name)
        assert value == (1, 0) and type(value) is tuple and all(type(b) is int for b in value)
        _same_config(config, cls(n=2, seed=3, **{name: (1, 0)}))


@pytest.mark.parametrize("form", LEGS_FORMS, ids=lambda f: type(f).__name__)
def test_legs_are_kept_as_a_frozenset(form):
    strategy = AttackStrategy("cnot", legs=form)
    assert type(strategy.legs) is frozenset
    twin = AttackStrategy(AttackKind.CNOT, legs=frozenset({"forward", "return"}))
    assert strategy == twin and hash(strategy) == hash(twin)
    _same_config(SqkaConfig(n=2, seed=3, attack=strategy), SqkaConfig(n=2, seed=3, attack=twin))


def test_bell_states_are_taken_by_their_values():
    for variant in ("ghz", "switch"):
        given = CdssqcConfig(n=2, seed=4, variant=variant, psi1="psi-", psi2="phi-", switch_bell="phi+")
        assert (given.psi1, given.psi2, given.switch_bell) == (BellKind.PSI_MINUS, BellKind.PHI_MINUS,
                                                               BellKind.PHI_PLUS)
        _same_config(given, CdssqcConfig(n=2, seed=4, variant=variant, psi1=BellKind.PSI_MINUS,
                                         psi2=BellKind.PHI_MINUS, switch_bell=BellKind.PHI_PLUS))
    with pytest.raises(ValueError):
        CdssqcConfig(n=2, psi1="psi")
