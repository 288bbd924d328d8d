"""Every argv the CLI grammar admits ends in an exit code, never in an
exception: ``cli.main`` returns 0, 1 (a session too large, an unwritable
``--out``) or 2 (a usage error, a value a config record refuses), whatever
each flag and ``SEMIQ_SEED`` hold."""
import contextlib
import io
import os
import stat
import sys
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from semiquantum.adversary import AttackKind
from semiquantum.cli import main
from semiquantum.protocols import PROTOCOLS, make_config

# Counts are drawn either small or past the bound of ``Lanes(size)``
# (``size << 3 > sys.maxsize``), which refuses a session before it allocates
# anything, never in between, so that no case runs a large session.
PAST_LANES = st.integers((sys.maxsize >> 3) + 1, 10**30).map(str)
# int() refuses each of these but the ints below 1 and the Arabic-Indic digit 3
REFUSED = ["-3", "0", "-1", str(-(10**30)), "", "-", "0x8", "8.0", "1e3", "1_000", "eight", "٣", "--", " "]


def ints(low: int, high: int):
    return st.integers(low, high).map(str)


def among(*values):
    return st.sampled_from(values)


def draws(protocol: str, out_paths: list[str]) -> dict:
    """Each option's values, as a pair of strategies: values a session of
    ``protocol`` runs with, and edge values."""
    writable, *unwritable = out_paths
    seeds = ints(0, 2**64 - 1), ints(2**64, 10**30) | among(*REFUSED[3:])
    messages = len(make_config(protocol, n=1).MESSAGES) if protocol in PROTOCOLS else 1
    return {
        "--n": (ints(1, 8), among(*REFUSED)),
        "--m": (ints(1, 8), among(*REFUSED)),
        "--trials": (ints(1, 3), among(*REFUSED)),
        "--seed": seeds,
        "SEMIQ_SEED": seeds,
        "--threshold": (st.floats(0.0, 1.0).map(repr),
                        among("nan", "NaN", "inf", "-inf", "1e400", "-0.0", "1.0000001", "-1e-9", "0x1", "",
                              "half")),
        "--messages": (st.lists(among("0", "1"), min_size=messages, max_size=messages).map(",".join),
                       among("", ",", "zz", "é", "٣", "0,0,0", " a , b ", "ffffffffffffffffffff")
                       | st.text(max_size=4)),
        "--out": (st.just(writable), among(*unwritable)),
        "--attack": (among(*(a.value for a in AttackKind)), among("bogus", "")),
        "--permutation": (among("on", "off"), among("maybe", "")),
        "--commitments": (among("on", "off"), among("ON", "")),
        "--format": (among("json", "csv"), among("xml", "")),
    }


OPTIONS = ("--protocol", *draws("sqka", ["", "", ""]))  # every option drawn, and SEMIQ_SEED


@pytest.fixture(scope="module")
def out_paths(tmp_path_factory):
    """``--out`` targets: in a writable directory, a missing one and a
    read-only one (writable all the same when the tests run as root)."""
    root = tmp_path_factory.mktemp("out")
    read_only = root / "read-only"
    read_only.mkdir()
    read_only.chmod(stat.S_IRUSR | stat.S_IXUSR)
    yield [str(root / "stats"), str(root / "missing" / "stats"), str(read_only / "stats")]
    read_only.chmod(stat.S_IRWXU)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_argv_ends_in_an_exit_code(out_paths, data):
    # a few options take an edge value, each other one is left out or runs,
    # and in a fifth of the cases --n or --m is past Lanes' bound
    edges = data.draw(st.sets(among(*OPTIONS), max_size=3), "edge options")
    protocol = data.draw(among("bb84", "", "SQKA") if "--protocol" in edges else among(*PROTOCOLS), "--protocol")
    options = draws(protocol, out_paths)
    values = {"--protocol": protocol}
    for name, (runs, edge) in options.items():
        if name in edges:
            values[name] = data.draw(edge, name)
        elif name == "--n" or data.draw(st.booleans(), f"has {name}"):
            values[name] = data.draw(runs, name)
    huge = data.draw(among(None, None, None, "--n", "--m"), "past Lanes")
    if huge is not None:
        values[huge] = data.draw(PAST_LANES, huge)
    seed_env = values.pop("SEMIQ_SEED", None)
    argv = [arg for name, value in values.items() for arg in (name, value)]
    with (mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO()) as err):
        os.environ.pop("SEMIQ_SEED", None)
        if seed_env is not None:
            os.environ["SEMIQ_SEED"] = seed_env
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, seed_env, err.getvalue())
