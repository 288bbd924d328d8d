"""Seeded randomness with deterministic substream derivation.

Every random draw in a session flows through a :class:`RandomSource`, so a
64-bit master seed pins the whole run.  Substreams (one per party, one per
Monte Carlo trial) are derived with a portable splitmix64 chain.

A source subclasses CPython's C-coded Mersenne Twister (MT19937, Matsumoto
and Nishimura 1998), the ``_random.Random`` type, seeded with the 64-bit
seed, and its ``random`` is the type's C method, so a draw is one C call.
``random.Random`` extends the same type and hands it an int seed unchanged,
so both draw the same stream for a seed.  A source's ``seed`` slot holds
that seed and shadows the type's ``seed()`` method, which only
``__init__`` calls.
Python promises only that ``random()`` repeats for a seed across versions,
so every other draw is written here on ``getrandbits``, bounded integers by
rejection, and none uses the stdlib's ``shuffle``, ``sample``, ``randrange``
or ``randbytes``.

Draw contract of seeded output (stream v2), which later changes keep:

* a session's sources are ``RandomSource(derive_seed(seed, k))``, k = 1 for
  alice, 2 for bob, 3 for Eve (unless the attack brings its own seed) and
  4 for charlie; trial t of a batch has seed ``derive_seed(master_seed, t)``;
* every sampled measurement takes exactly one ``random()`` from the source
  of the party that measures;
* every other draw (keys, messages, commitments, actions, permutations,
  spot-check positions, Eve's substitutes) comes from its owner's source,
  in the order the runners make them today.
"""
from __future__ import annotations

import _random

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def splitmix64(x: int) -> int:
    """One splitmix64 scramble step on a 64-bit word."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# the scramble of each small path element (the party streams 1-4); none is 0
_SMALL = {p: splitmix64(p) for p in range(8)}


def derive_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and an integer path.

    Deterministic and collision-resistant enough for desk-scale Monte Carlo:
    distinct paths give independent-looking streams.
    """
    h = splitmix64(master & _MASK64)
    for p in path:
        h = splitmix64(h ^ (_SMALL.get(p) or splitmix64(p & _MASK64)))
    return h


class RandomSource(_random.Random):
    """Seeded random stream used for all protocol and simulator sampling."""

    __slots__ = ("seed",)

    # the simulator's per-measurement draw, a uniform float in [0, 1): the C
    # method, set in this class so a tracer can wrap it here
    random = _random.Random.random

    def __init__(self, seed: int):
        self.seed = seed = seed & _MASK64
        _random.Random.seed(self, seed)  # not __init__, which before 3.11 is object's

    def bit(self) -> int:
        return self.getrandbits(1)

    def bits(self, k: int) -> tuple[int, ...]:
        """k fair bits, the binary digits of one k-bit draw, most significant first."""
        if k < 0:
            raise ValueError(f"cannot draw {k} bits")
        if not k:
            return ()  # format pads a 0-bit draw to one digit
        return tuple(format(self.getrandbits(k), f"0{k}b").encode().translate(_BIT_VALUES))

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n), 1 <= n <= 2**63, by rejection on (n-1)-bit draws."""
        if not 1 <= n <= 1 << 63:
            raise ValueError(f"integer bound {n} is outside [1, 2**63]")
        width = (n - 1).bit_length()
        j = self.getrandbits(width)
        while j >= n:
            j = self.getrandbits(width)
        return j

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        self._shuffle(items)
        return items

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices drawn uniformly from range(n), in random order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n} without replacement")
        # the first k places of a Fisher-Yates shuffle run front to back: place
        # i takes i + a draw below n - i, by rejection on (n-1-i)-bit draws
        items = list(range(n))
        getrandbits = self.getrandbits
        for i in range(k):
            width = (n - 1 - i).bit_length()
            j = getrandbits(width)
            while j >= n - i:
                j = getrandbits(width)
            j += i
            items[i], items[j] = items[j], items[i]
        return items[:k]

    def shuffle(self, items: list) -> None:
        self._shuffle(items)

    def _shuffle(self, items: list) -> None:
        """Fisher-Yates, back to front; position i takes an index in [0, i]."""
        getrandbits = self.getrandbits
        for i in range(len(items) - 1, 0, -1):
            width = i.bit_length()
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            items[i], items[j] = items[j], items[i]

    def token(self, nbytes: int = 16) -> bytes:
        """``nbytes`` random bytes: one 8*nbytes-bit draw, little-endian."""
        if nbytes < 0:
            raise ValueError(f"cannot draw {nbytes} bytes")
        return self.getrandbits(8 * nbytes).to_bytes(nbytes, "little")
