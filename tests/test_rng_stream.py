"""The RandomSource stream: repeatable across processes, pinned, in range
and uniform.

Python promises only that ``random()`` repeats for a seed across versions;
the other draws are written in the package on ``getrandbits``.  The first
draws of two edge seeds are pinned as literals, so a change to CPython's
``getrandbits`` or to one of those algorithms fails here first.
"""
import _random
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiquantum.rng import RandomSource, derive_seed, splitmix64

ROOT = Path(__file__).resolve().parents[1]
EDGE_SEEDS = (0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1)


def draw(src: RandomSource, op: str, arg):
    """One call of ``op`` as JSON; a ValueError becomes the string "ValueError"."""
    try:
        if op == "shuffle":
            items = list(range(arg))
            src.shuffle(items)
            return items
        if op == "sample":
            return src.sample(*arg)
        method = getattr(src, op)
        value = method() if arg is None else method(arg)
    except ValueError:
        return "ValueError"
    return value.hex() if isinstance(value, bytes) else value


def run(seed: int, calls) -> list:
    src = RandomSource(seed)
    return [draw(src, op, arg) for op, arg in calls]


def edge_calls() -> list:
    calls = [("random", None), ("bit", None), ("random", None)]
    for size in (0, 1):
        calls += [("bits", size), ("permutation", size), ("shuffle", size), ("token", size),
                  ("integer", size + 1), ("sample", (size, size)), ("sample", (1, size))]
    return calls + [("bit", None), ("token", 3), ("integer", 1 << 63), ("random", None)]


# the sizes a session at n=100 draws: 100-bit messages, 400-slot
# permutations and shuffles, 100 of 400 spot-check positions
SESSION_CALLS = [("bits", 101), ("permutation", 400), ("bit", None), ("shuffle", 400),
                 ("bits", 100), ("sample", (400, 100)), ("shuffle", 399), ("random", None),
                 ("token", 16)]


def random_call(r: random.Random):
    op = r.choice(("random", "bit", "bits", "integer", "permutation", "sample", "shuffle", "token"))
    if op in ("random", "bit"):
        return op, None
    if op == "integer":
        return op, r.choice((1, 2, 3, 5, 6, 1 << 31, (1 << 32) + 1, r.randrange(1, 1 << 63), 1 << 63))
    if op == "sample":
        n = r.randrange(0, 500)
        return op, (n, r.randrange(0, min(n, 120) + 1))
    return op, r.randrange(0, 80)


def interleavings() -> list:
    """250 sources of assorted seeds, 40 assorted calls each."""
    r = random.Random(20170419)
    out = []
    for _ in range(250):
        seed = r.choice((r.randrange(1 << 64), r.randrange(1 << 32), r.randrange(64)))
        calls = [random_call(r) for _ in range(40)]
        out.append([seed, [list(c) for c in calls], run(seed, calls)])
    return out


def all_draws() -> dict:
    return {
        "edge": {str(s): run(s, edge_calls()) for s in EDGE_SEEDS},
        "interleavings": interleavings(),
        "session": run(2017, SESSION_CALLS),
    }


_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("stream", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(module.all_draws()))
"""


@pytest.fixture(scope="module")
def processes():
    """``all_draws`` here and in fresh processes under PYTHONHASHSEED 1 and 2."""
    out = [json.loads(json.dumps(all_draws()))]
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, __file__],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        out.append(json.loads(proc.stdout))
    return out


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_and_sizes_match(seed, processes):
    here, first, second = (p["edge"][str(seed)] for p in processes)
    assert here == first == second


def test_seeded_interleavings_match(processes):
    here, first, second = (p["interleavings"] for p in processes)
    assert sum(len(calls) for _, calls, _ in here) == 10_000
    assert here == first == second


def test_session_sized_draws_match(processes):
    here, first, second = (p["session"] for p in processes)
    assert here == first == second
    bits, perm, bit, shuffled, message, positions, shuffled_399, u, token = here
    assert len(bits) == 101 and len(message) == 100 and set(bits + message) <= {0, 1}
    assert sorted(perm) == sorted(shuffled) == list(range(400)) != perm
    assert sorted(shuffled_399) == list(range(399))
    assert len(set(positions)) == 100 and all(0 <= p < 400 for p in positions)
    assert bit in (0, 1) and 0.0 <= u < 1.0 and len(bytes.fromhex(token)) == 16


PIN_CALLS = [("random", None)] * 3 + [("bits", 70), ("permutation", 10), ("sample", (400, 16)),
                                      ("token", 16)]

PINNED = {
    0: [
        0.8444218515250481, 0.7579544029403025, 0.420571580830845,
        "1000001111011100101000101101001111101001000010010010000101111000111010",
        [0, 4, 5, 1, 3, 2, 8, 9, 6, 7],
        [111, 259, 73, 147, 75, 391, 54, 323, 136, 281, 371, 319, 87, 171, 64, 388],
        "b2c8e0121c441ae614a7b8d92a9219af",
    ],
    (1 << 64) - 1: [
        0.021825695401270107, 0.3380953268613758, 0.21196748656082065,
        "1110100001100001010011000100010111111010011101011110001110010111000011",
        [8, 3, 2, 6, 4, 7, 1, 9, 0, 5],
        [40, 169, 249, 137, 146, 306, 24, 167, 158, 160, 394, 304, 9, 327, 269, 206],
        "298f93c6c0e04224e7f28e5aa26c7d88",
    ],
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_first_draws_are_pinned(seed):
    got = run(seed, PIN_CALLS)
    got[3] = "".join(map(str, got[3]))
    assert got == PINNED[seed]


def test_every_draw_lies_in_range():
    r = random.Random(7)
    for seed in range(200):
        src = RandomSource(seed)
        assert 0.0 <= src.random() < 1.0
        assert src.bit() in (0, 1)
        k = r.randrange(0, 200)
        bits = src.bits(k)
        assert len(bits) == k and set(bits) <= {0, 1}
        for n in (1, 2, 3, 6, 7, 400, (1 << 32) + 1, 1 << 63, r.randrange(1, 1 << 63)):
            assert 0 <= src.integer(n) < n
        n = r.randrange(0, 60)
        assert sorted(src.permutation(n)) == list(range(n))
        k = r.randrange(0, n + 1)
        picked = src.sample(n, k)
        assert len(picked) == len(set(picked)) == k and all(0 <= p < n for p in picked)
        nbytes = r.randrange(0, 40)
        assert len(src.token(nbytes)) == nbytes


def test_integer_is_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    src = RandomSource(11)
    counts = Counter(src.integer(6) for _ in range(6000))
    assert scipy_stats.chisquare([counts[v] for v in range(6)]).pvalue > 0.001


def test_shuffle_positions_are_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    src = RandomSource(12)
    table = [[0] * 5 for _ in range(5)]  # table[item][position]
    for _ in range(5000):
        items = list(range(5))
        src.shuffle(items)
        for position, item in enumerate(items):
            table[item][position] += 1
    # every row and column sums to 5000: 16 degrees of freedom
    flat = [c for row in table for c in row]
    assert scipy_stats.chisquare(flat, ddof=8).pvalue > 0.001


def test_sample_is_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    src = RandomSource(13)
    table = [[0] * 6 for _ in range(3)]  # table[place][value]
    for _ in range(6000):
        for place, value in enumerate(src.sample(6, 3)):
            table[place][value] += 1
    # every row sums to 6000: 15 degrees of freedom
    flat = [c for row in table for c in row]
    assert scipy_stats.chisquare(flat, ddof=2).pvalue > 0.001


@pytest.mark.parametrize(
    "op,arg",
    [
        ("integer", 0),
        ("integer", -5),
        ("integer", (1 << 63) + 1),
        ("integer", 1 << 64),
        ("bits", -1),
        ("sample", (5, 6)),
        ("sample", (5, -1)),
        ("sample", (0, 1)),
        ("sample", (-1, 0)),
        ("token", -7),
    ],
)
def test_source_rejects_what_numpy_rejects(op, arg):
    # the sizes numpy's generator rejected, which the source still rejects
    assert draw(RandomSource(4), op, arg) == "ValueError"


def test_seed_is_taken_modulo_2_64():
    assert RandomSource(-1).seed == (1 << 64) - 1
    assert run(-1, PIN_CALLS) == run((1 << 64) - 1, PIN_CALLS)
    assert RandomSource(1 << 64).random() == RandomSource(0).random()


@pytest.mark.parametrize("n,k", [(10_001, 201), (10_050, 10_050), (12_000, 3_000), (10_001, 200)])
def test_large_samples_are_distinct_and_in_range(n, k):
    src = RandomSource(n * k)
    got = src.sample(n, k)
    assert len(set(got)) == k and all(0 <= v < n for v in got)


def test_wide_integers_take_one_draw_of_their_width():
    # a bound of 2**w takes one w-bit draw: no rejection, no other draw
    for w in (33, 40, 63):
        src, mt = RandomSource(99), random.Random(99)
        assert [src.integer(1 << w) for _ in range(5)] == [mt.getrandbits(w) for _ in range(5)]
        assert src.random() == mt.random()


MASK64 = (1 << 64) - 1


@pytest.mark.parametrize("seed", EDGE_SEEDS + (1 << 63, (1 << 64) + 5, -1))
def test_source_draws_the_stream_of_the_stdlib_generator(seed):
    # a source is the C type random.Random extends, seeded with the seed mod 2**64
    src, mt = RandomSource(seed), random.Random(seed & MASK64)
    assert [src.random() for _ in range(100)] == [mt.random() for _ in range(100)]
    for k in (1, 31, 32, 33, 64, 65, 128):
        assert src.bits(k) == tuple(map(int, format(mt.getrandbits(k), f"0{k}b")))


def splitmix64_chain(master: int, *path: int) -> int:
    h = splitmix64(master & MASK64)
    for p in path:
        h = splitmix64(h ^ splitmix64(p & MASK64))
    return h


@given(
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.lists(st.one_of(st.integers(min_value=0, max_value=9), st.sampled_from((MASK64, -1)),
                       st.integers(min_value=-(1 << 70), max_value=1 << 70)), max_size=4),
)
def test_derive_seed_is_the_splitmix64_chain(master, path):
    # path elements inside the table of small scrambles (0-7) and outside it
    assert derive_seed(master, *path) == splitmix64_chain(master, *path)


# Fisher-Yates written plainly, one rejection draw per place on the bit
# length of that place's bound: the source must take the same draws and make
# the same swaps, so seeded permutations and samples do not move.
def reference_shuffle(mt: random.Random, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        width = i.bit_length()
        j = mt.getrandbits(width)
        while j > i:
            j = mt.getrandbits(width)
        items[i], items[j] = items[j], items[i]


def reference_sample(mt: random.Random, n: int, k: int) -> list[int]:
    items = list(range(n))
    for i in range(k):
        width = (n - i - 1).bit_length()
        j = mt.getrandbits(width)
        while j >= n - i:
            j = mt.getrandbits(width)
        j += i
        items[i], items[j] = items[j], items[i]
    return items[:k]


# sizes at and around the edges of the draw widths
WIDTH_EDGES = [*range(1, 10), 15, 16, 17, 31, 32, 33, 255, 256, 257, 400]


@pytest.mark.parametrize("seed", [0, 3, 11, 1 << 40, MASK64])
def test_fisher_yates_equals_the_reference_loop(seed):
    src, mt = RandomSource(seed), random.Random(seed & MASK64)
    for size in WIDTH_EDGES:
        expected = list(range(size))
        reference_shuffle(mt, expected)
        assert src.permutation(size) == expected, size
        items, expected = [f"x{v}" for v in range(size)], [f"x{v}" for v in range(size)]
        src.shuffle(items)
        reference_shuffle(mt, expected)
        assert items == expected, size
        for k in sorted({0, 1, size // 2, size - 1, size}):
            assert src.sample(size, k) == reference_sample(mt, size, k), (size, k)
        assert src.random() == mt.random()  # the same number of draws taken


@pytest.mark.parametrize("seed", EDGE_SEEDS + (-1, (1 << 64) + 5))
def test_source_is_the_c_generator(seed):
    src = RandomSource(seed)
    assert isinstance(src, _random.Random)
    assert "random" in RandomSource.__dict__ and type(RandomSource.random) is type(_random.Random.random)
    mt = random.Random(seed & MASK64)
    assert [src.random() for _ in range(50)] == [mt.random() for _ in range(50)]
    assert src.seed == seed & MASK64
