"""Seeded randomness with deterministic substream derivation.

Every random draw in a session flows through a :class:`RandomSource`, so a
64-bit master seed pins the whole run.  Substreams (one per party, one per
Monte Carlo trial) are derived with a splitmix64 chain rather than numpy's
SeedSequence so the derivation is trivially portable and stable.

A source draws numpy's ``default_rng(seed)`` stream, bit for bit, in pure
Python, so no session needs numpy; the tests hold it to numpy as reference.
"""
from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_TWO_M53 = 1.0 / (1 << 53)


def splitmix64(x: int) -> int:
    """One splitmix64 scramble step on a 64-bit word."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and an integer path.

    Deterministic and collision-resistant enough for desk-scale Monte Carlo:
    distinct paths give independent-looking streams.
    """
    h = splitmix64(master & _MASK64)
    for p in path:
        h = splitmix64(h ^ splitmix64(p & _MASK64))
    return h


# numpy.random.SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG_DEFAULT_MULTIPLIER_128 (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8, np.uint32)`` for 0 <= seed < 2**64."""
    # hashmix written out in each loop: seeding runs once per source
    entropy = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    # the entropy (at most two words) fits the pool, so no word is left over
    entropy += [0] * (_POOL_SIZE - len(entropy))
    h = _INIT_A
    pool = []
    for value in entropy:
        value ^= h
        h = (h * _MULT_A) & _MASK32
        value = (value * h) & _MASK32
        pool.append(value ^ (value >> 16))
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value = pool[src] ^ h
                h = (h * _MULT_A) & _MASK32
                value = (value * h) & _MASK32
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
                pool[dst] = mixed ^ (mixed >> 16)
    h = _INIT_B
    words = []
    for value in pool + pool:
        value ^= h
        h = (h * _MULT_B) & _MASK32
        value = (value * h) & _MASK32
        words.append(value ^ (value >> 16))
    return words


class RandomSource:
    """Seeded random stream used for all protocol and simulator sampling.

    numpy's ``default_rng(seed)`` in pure Python, bit for bit: PCG64
    (XSL-RR output on a 128-bit LCG, O'Neill 2014) seeded through
    SeedSequence, drawing as numpy 2.x's ``Generator`` does.  ``random``
    takes the top 53 bits of one 64-bit output; 32-bit draws use the two
    halves of a 64-bit output in turn (numpy's ``has_uint32``), while 64-bit
    draws leave a saved half in place; bounded integers use Lemire's
    multiply-and-reject, and ``shuffle``/``permutation`` numpy's masked
    rejection (``random_interval``).
    """

    __slots__ = ("seed", "_state", "_inc", "_half")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        w = _seed_words(self.seed)
        init = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        seq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        self._inc = ((seq << 1) | 1) & _MASK128
        self._state = ((self._inc + init) * _PCG_MULT + self._inc) & _MASK128
        self._half = None  # the saved upper half of a 64-bit output, if any

    def spawn(self, *path: int) -> "RandomSource":
        """A new independent source derived from this seed and ``path``."""
        return RandomSource(derive_seed(self.seed, *path))

    def _next64(self) -> int:
        self._state = s = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def _bounded(self, top: int) -> int:
        """A uniform integer in [0, top], 0 <= top < 2**63 (Lemire 2019)."""
        if top == 0:
            return 0
        if top < _MASK32:
            draw, bits, mask = self._next32, 32, _MASK32
        elif top == _MASK32:
            return self._next32()
        else:
            draw, bits, mask = self._next64, 64, _MASK64
        span = top + 1
        m = draw() * span
        if m & mask < span:
            threshold = (mask - top) % span
            while m & mask < threshold:
                m = draw() * span
        return m >> bits

    def _lemire_shuffle(self, items: list, stop: int) -> None:
        for i in range(len(items) - 1, stop - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]

    def random(self) -> float:
        # _next64 written out: this is the simulator's per-measurement draw
        self._state = s = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        return ((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11) * _TWO_M53

    def bit(self) -> int:
        # Lemire on span 2 never rejects: the top bit of one 32-bit draw
        return self._next32() >> 31

    def bits(self, k: int) -> tuple[int, ...]:
        """k fair bits, each the top bit of a 32-bit draw, as ``bit`` takes them."""
        if k < 0:
            raise ValueError("negative dimensions are not allowed")
        out = []
        if k and self._half is not None:
            out.append(self._half >> 31)
            self._half = None
            k -= 1
        s, inc = self._state, self._inc
        x = 0
        for _ in range((k + 1) // 2):
            s = (s * _PCG_MULT + inc) & _MASK128
            x = ((s >> 64) ^ s) & _MASK64
            rot = s >> 122
            x = ((x >> rot) | (x << (64 - rot))) & _MASK64
            out += ((x >> 31) & 1, x >> 63)
        self._state = s
        if k & 1:
            out.pop()
            self._half = x >> 32
        return tuple(out)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n), 1 <= n <= 2**63 as numpy's int64 allows."""
        if n < 1:
            raise ValueError(f"low >= high: 0 >= {n}")
        if n > 1 << 63:
            raise ValueError(f"high {n} is out of bounds for int64")
        return self._bounded(n - 1)

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        self._masked_shuffle(items)
        return items

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices drawn uniformly from range(n)."""
        if k > n:
            raise ValueError("Cannot take a larger sample than population when replace is False")
        if k < 0:
            raise ValueError("negative dimensions are not allowed")
        if n > 10000 and k > n // 50:
            # tail shuffle: the last k places of a partial Fisher-Yates
            items = list(range(n))
            self._lemire_shuffle(items, max(n - k, 1))
            return items[n - k:]
        # Floyd's algorithm, then a shuffle of the chosen values
        chosen: set[int] = set()
        items = []
        for j in range(n - k, n):
            value = self._bounded(j)
            if value in chosen:
                value = j
            chosen.add(value)
            items.append(value)
        self._lemire_shuffle(items, 1)
        return items

    def shuffle(self, items: list) -> None:
        self._masked_shuffle(items)

    def _masked_shuffle(self, items: list) -> None:
        """Fisher-Yates by masked rejection on 32-bit draws.

        numpy switches to 64-bit draws past 2**32 items, a list no session
        builds, so that branch is left out.
        """
        s, inc, half = self._state, self._inc, self._half
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if half is None:
                    s = (s * _PCG_MULT + inc) & _MASK128
                    x = ((s >> 64) ^ s) & _MASK64
                    rot = s >> 122
                    x = ((x >> rot) | (x << (64 - rot))) & _MASK64
                    j, half = x & mask, x >> 32
                else:
                    j, half = half & mask, None
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        self._state, self._half = s, half

    def token(self, nbytes: int = 16) -> bytes:
        """``nbytes`` bytes of little-endian 32-bit draws."""
        # numpy computes (nbytes - 1) / 4 + 1 in C, truncating toward zero,
        # so even nbytes 0 draws one word
        words = (nbytes - 1) // 4 + 1 if nbytes > 0 else 1 - (1 - nbytes) // 4
        if words < 0:
            raise ValueError("negative dimensions are not allowed")
        return b"".join(self._next32().to_bytes(4, "little") for _ in range(words))[:nbytes]
