"""Seed-substream derivation and the package's own random stream.

Every random draw in a run descends from one root seed through
``SeedSequence`` spawn keys, with one namespace per concern:

    (0,)                 network construction seed
    (1, round)           partner pairing for a round
    (2, round, agent)    per-agent backend draws within a round

Keeping the namespaces separate means adding rounds never perturbs the
network, and per-agent draws are independent of dispatch order, which is
what makes parallel and serial runs byte-identical.

The draws come from :class:`Stream`, a pure-Python PCG64 generator
(O'Neill 2014, https://www.pcg-random.org/paper.html) seeded by numpy's
``SeedSequence`` mixing algorithm. Its contract is numpy equality:
``Stream(entropy, spawn_key)`` gives exactly the values of
``numpy.random.default_rng(numpy.random.SeedSequence(entropy,
spawn_key=spawn_key))`` for every call it offers (``random()``,
``integers(high)`` and ``permutation(n)``), and refuses with
``ValueError`` the arguments for which numpy would take a code path it
does not implement. So every transcript stays the same bytes it was when
the run drew from numpy, and no run imports numpy.

A stream builds its state on its first draw. Most backend calls never
draw (remote, replay and constant-mock calls, and imitate calls that
already have a table), so they pay nothing for their per-agent stream.
"""

from __future__ import annotations

_TOPOLOGY_STREAM = 0
_PAIRING_STREAM = 1
_AGENT_STREAM = 2

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / (1 << 53)


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, ``[0]`` for zero."""
    if value < 0:
        raise ValueError(f"seed entropy must be a non-negative integer, got {value!r}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """numpy's ``hashmix``: the hashed value and the constant that follows
    ``const``. The constants run from ``_INIT_A`` whatever the data."""
    value ^= const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> _XSHIFT), const


def generate_state(entropy: int, spawn_key: tuple[int, ...], n_words: int) -> list[int]:
    """numpy's ``SeedSequence(entropy, spawn_key=spawn_key).generate_state(
    n_words, numpy.uint32)``, as ints. Two consecutive words, low first,
    make one of numpy's ``uint64`` words."""
    run = _words(entropy)
    key = [word for part in spawn_key for word in _words(part)]
    # numpy pads a short run entropy only when there is a spawn key; the
    # pool fill treats missing words as zeros either way.
    if key and len(run) < _POOL_SIZE:
        run += [0] * (_POOL_SIZE - len(run))
    data = run + key
    const = _INIT_A
    pool = []
    for word in data[:_POOL_SIZE] + [0] * (_POOL_SIZE - len(data)):
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in data[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)

    out = []
    const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ (value >> _XSHIFT))
    return out


class Stream:
    """numpy's ``default_rng(SeedSequence(entropy, spawn_key=spawn_key))``:
    a PCG64 (XSL-RR) generator, built on its first draw. One stream serves
    one consumer on one thread."""

    __slots__ = ("_seed", "_state", "_inc", "_half")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()):
        self._seed = (entropy, spawn_key)
        self._state: int | None = None
        self._inc = 0
        # The high half of the last 64-bit draw, kept for the next 32-bit one.
        self._half: int | None = None

    def _build(self) -> int:
        """Seed PCG64 from eight state words, as numpy's ``pcg64_set_seed``
        does, and return the state."""
        w = generate_state(*self._seed, 8)
        initstate = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        initseq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        self._inc = inc = ((initseq << 1) | 1) & _MASK128
        self._state = state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        return state

    def _next64(self) -> int:
        state = self._state
        if state is None:
            state = self._build()
        self._state = state = (state * _PCG_MULT + self._inc) & _MASK128
        # XSL-RR: fold the halves, then rotate right by the top six bits.
        x = (state >> 64) ^ (state & _MASK64)
        return ((x | (x << 64)) >> (state >> 122)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        draw = self._next64()
        self._half = draw >> 32
        return draw & _MASK32

    def random(self) -> float:
        """A float in ``[0, 1)`` from the top 53 bits of one 64-bit draw."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, high: int) -> int:
        """An int in ``[0, high)`` by Lemire's method over 32-bit draws
        (arXiv:1805.10941); ``integers(1)`` draws nothing. ``high`` above
        ``2**32``, which numpy serves from 64-bit draws, is refused."""
        if high == 1:
            return 0
        if not 1 < high <= 1 << 32:
            raise ValueError(f"high must lie in [1, 2**32], got {high!r}")
        if high == 1 << 32:
            return self._next32()
        m = self._next32() * high
        if m & _MASK32 < high:
            threshold = (1 << 32) % high
            while m & _MASK32 < threshold:
                m = self._next32() * high
        return m >> 32

    def permutation(self, n: int) -> list[int]:
        """A shuffled ``list(range(n))``: Fisher-Yates from the top, each
        index drawn by masked rejection over 32-bit draws (numpy's
        ``random_interval``). The state step is inlined, since a
        permutation makes about ``n`` draws. ``n`` above ``2**32``, whose
        top index numpy draws from 64-bit draws, is refused."""
        if n > 1 << 32:
            raise ValueError(f"n must be at most 2**32, got {n!r}")
        items = list(range(n))
        state, inc, half = self._state, self._inc, self._half
        if state is None and n > 1:
            state, inc = self._build(), self._inc
        mult, mask64, mask128 = _PCG_MULT, _MASK64, _MASK128
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if half is None:
                    state = (state * mult + inc) & mask128
                    x = (state >> 64) ^ (state & mask64)
                    draw = ((x | (x << 64)) >> (state >> 122)) & mask64
                    half = draw >> 32
                    j = draw & mask
                else:
                    j = half & mask
                    half = None
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        self._state, self._half = state, half
        return items


def topology_seed(root_seed: int) -> int:
    """Derive the integer seed a :class:`~hashnet.topology.TopologySpec` stores."""
    low, high = generate_state(root_seed, (_TOPOLOGY_STREAM,), 2)
    return (high << 32) | low


def pairing_rng(root_seed: int, round_index: int) -> Stream:
    """Stream driving the partner matching for one round."""
    return Stream(root_seed, (_PAIRING_STREAM, round_index))


def agent_stream(root_seed: int, round_index: int, agent_id: int) -> Stream:
    """Stream owned by one agent's backend call within one round."""
    return Stream(root_seed, (_AGENT_STREAM, round_index, agent_id))


def agent_rng(root_seed: int, round_index: int, agent_id: int):
    """numpy ``Generator`` over the same substream as :func:`agent_stream`,
    for callers that need numpy's wider API. Needs numpy, which it imports."""
    import numpy as np

    seq = np.random.SeedSequence(root_seed, spawn_key=(_AGENT_STREAM, round_index, agent_id))
    return np.random.default_rng(seq)
