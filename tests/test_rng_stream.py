"""RandomSource draws exactly what numpy's ``default_rng`` does.

numpy is the reference: each ``RandomSource`` method is driven on a source
and on :class:`NumpySource`, the same calls on ``default_rng`` of the same
seed, and each output must be equal, including the generator state that
carries from one call to the next (the saved 32-bit half, rejection loops).
"""
import random

import numpy as np
import pytest

from semiquantum.rng import RandomSource


class NumpySource:
    """RandomSource's methods as calls on numpy's ``default_rng(seed)``."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed & ((1 << 64) - 1))

    def random(self) -> float:
        return float(self._gen.random())

    def bit(self) -> int:
        return int(self._gen.integers(0, 2))

    def bits(self, k: int) -> tuple[int, ...]:
        return tuple(int(b) for b in self._gen.integers(0, 2, size=k))

    def integer(self, n: int) -> int:
        return int(self._gen.integers(0, n))

    def permutation(self, n: int) -> list[int]:
        return [int(i) for i in self._gen.permutation(n)]

    def sample(self, n: int, k: int) -> list[int]:
        return [int(i) for i in self._gen.choice(n, size=k, replace=False)]

    def shuffle(self, items: list) -> None:
        self._gen.shuffle(items)

    def token(self, nbytes: int = 16) -> bytes:
        return self._gen.bytes(nbytes)


def sources(seed: int) -> tuple[RandomSource, NumpySource]:
    return RandomSource(seed), NumpySource(seed)


def draw(src, op: str, arg):
    """One call of ``op``; what it returns, or the class of what it raised."""
    try:
        if op == "shuffle":
            items = list(range(arg))
            src.shuffle(items)
            return items
        if op == "sample":
            return src.sample(*arg)
        method = getattr(src, op)
        return method() if arg is None else method(arg)
    except ValueError:
        return ValueError


def random_call(r: random.Random):
    op = r.choice(("random", "bit", "bits", "integer", "permutation", "sample", "shuffle", "token"))
    if op in ("random", "bit"):
        return op, None
    if op == "integer":
        return op, r.choice((1, 2, 3, 5, 1 << 31, (1 << 32) - 1, 1 << 32, (1 << 32) + 1,
                             r.randrange(1, 1 << 32), r.randrange(1 << 32, 1 << 63), 1 << 63))
    if op == "sample":
        n = r.choice((r.randrange(0, 60), r.randrange(10_001, 11_000)))
        return op, (n, r.randrange(0, min(n, 400) + 1))
    return op, r.randrange(0, 40)


def test_seeded_interleavings_match():
    r = random.Random(20170419)
    ops = 0
    for _ in range(250):
        seed = r.choice((r.randrange(1 << 64), r.randrange(1 << 32), r.randrange(64)))
        pure, ref = sources(seed)
        for _ in range(40):
            op, arg = random_call(r)
            assert draw(pure, op, arg) == draw(ref, op, arg), (seed, op, arg)
            ops += 1
    assert ops == 10_000


@pytest.mark.parametrize("seed", [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1])
def test_edge_seeds_and_sizes_match(seed):
    pure, ref = sources(seed)
    calls = [("random", None), ("bit", None), ("random", None)]
    for size in (0, 1):
        calls += [("bits", size), ("permutation", size), ("shuffle", size), ("token", size),
                  ("integer", size + 1), ("sample", (size, size)), ("sample", (1, size))]
    calls += [("bit", None), ("token", 3), ("bit", None), ("random", None)]
    for op, arg in calls:
        assert draw(pure, op, arg) == draw(ref, op, arg), (op, arg)


@pytest.mark.parametrize("n,k", [(10_001, 201), (10_050, 10_050), (12_000, 3_000), (10_001, 200)])
def test_sample_tail_shuffle_branch_matches(n, k):
    # numpy switches from Floyd's algorithm to a partial shuffle when
    # n > 10000 and k > n // 50; (10001, 200) stays on Floyd's side
    pure, ref = sources(n * k)
    got = pure.sample(n, k)
    assert got == ref.sample(n, k)
    assert len(set(got)) == k
    assert pure.random() == ref.random()


def test_wide_integers_use_64_bit_draws():
    # ranges past 2**32 take whole 64-bit outputs and leave a saved 32-bit
    # half untouched, so the bit after them still uses it
    pure, ref = sources(99)
    for n in ((1 << 32) + 1, (1 << 40) + 7, 1 << 63):
        assert pure.bit() == ref.bit()
        assert pure.integer(n) == ref.integer(n)
        assert pure.bit() == ref.bit()


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
    for src in sources(4):
        assert draw(src, op, arg) is ValueError


def test_seed_is_taken_modulo_2_64():
    assert RandomSource(-1).seed == (1 << 64) - 1
    assert draw(RandomSource(-1), "bits", 70) == draw(NumpySource((1 << 64) - 1), "bits", 70)
    assert RandomSource(1 << 64).random() == RandomSource(0).random()


def test_session_sized_draws_match():
    # the sizes a session at n=100 draws: 100-bit messages, 400-slot
    # permutations and shuffles, 100 of 400 spot-check positions
    pure, ref = sources(2017)
    for op, arg in [("bits", 101), ("permutation", 400), ("bit", None), ("shuffle", 400),
                    ("bits", 100), ("sample", (400, 100)), ("shuffle", 399), ("random", None)]:
        assert draw(pure, op, arg) == draw(ref, op, arg), (op, arg)
