"""Patients' `np.random.default_rng([seed, index])` streams, drawn for
many patients at once.

`_pcg64_states` ports numpy's SeedSequence and PCG64 seeding to a column
of patient indices; `_Streams` ports numpy's samplers (Generator.random
and Lemire's bounded integers, from numpy/random/src/distributions) to
blocks of PCG64's raw outputs.  Every Poisson count it leaves to numpy's
own Generator, one patient at a time.  Each is checked against numpy in
tests/test_synthgen.py, on the oldest numpy the package allows as well
as the latest.
"""

from __future__ import annotations

import numpy as np

from .store import run_starts

_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# uint64 constants of the samplers: mixing an int64 with a uint64 gives
# float64 on numpy 1 and 2 alike
_U11, _U32 = np.uint64(11), np.uint64(32)
_LOW32, _2_32 = np.uint64(_MASK32), np.uint64(2 ** 32)
# the most runs of equal rates that a `_Streams.poisson` call draws a run
# at a time, at a scalar mean
_SCALAR_RUNS = 4


def _hasher(init: int, mult: int):
    """numpy SeedSequence's hash over uint32 columns: each call XORs in
    the running constant, steps it by mult and multiplies by it."""
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hash_


def _mix(x, y):
    """numpy SeedSequence's mix of two uint32 columns."""
    value = np.uint32(0xca01f9dd) * x - np.uint32(0x4973f715) * y
    return value ^ value >> np.uint32(16)


def _pcg64_states(seed: int, n: int) -> list[tuple[int, int]]:
    """(state, inc) of `np.random.default_rng([seed, i]).bit_generator`
    for each patient index i < n, derived in one pass.

    A port of numpy's SeedSequence (`_coerce_to_uint32_array`,
    `mix_entropy`, `generate_state(4, np.uint64)`) to wrapping uint32
    arithmetic on a column of indices, then of `pcg64_set_seed`'s two
    128-bit LCG steps on Python ints.  The entropy is the seed's 32-bit
    words, least significant first, then the index (one word, as n <
    2**32); past the 4-word pool each further word is mixed into every
    pool word.
    """
    entropy = []
    while True:
        entropy.append(np.full(n, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(np.arange(n, dtype=np.uint32))
    hashmix = _hasher(0x43b0d7e5, 0x931e8875)
    pool = [hashmix(entropy[k] if k < len(entropy)
                    else np.zeros(n, dtype=np.uint32)) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: 8 words from the cycled pool, read pairwise as
    # little-endian uint64 (seed high, seed low, inc high, inc low)
    hash_state = _hasher(0x8b51f9dd, 0x58f38ded)
    words = [hash_state(pool[k % 4]).astype(np.uint64) for k in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[k] | words[k + 1] << np.uint64(32)).tolist()
        for k in range(0, 8, 2))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # from state 0: step, add the seed, step
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


class _Streams:
    """The `default_rng([seed, index])` streams of a block of patients,
    drawn as numpy's Generator draws them, for many patients at once.

    Each patient's PCG64 (state, inc) is one of states, a copy that a
    restarted row changes (`poisson`), and its `width` PCG64 outputs
    from there (raws) are one row of a flat buffer.  pos is each
    patient's next raw as a position in that buffer, and held the high
    half of a raw whose low half numpy's next_uint32 returned
    (has_held).  Each method takes an array of patients (rows) and makes,
    for each, the draws of one Generator call; the samplers are numpy's
    (numpy/random/src/distributions), computed on the raws, except the
    Poisson counts that numpy's Generator draws from the states.  A
    patient who reads past its row reads raws that are not its own:
    `overflowed` says so, and the block must be drawn again with wider
    rows.
    """

    def __init__(self, states: list[tuple[int, int]], width: int):
        n = len(states)
        bit_generator = np.random.PCG64(0)
        pcg = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg,
                 "has_uint32": 0, "uinteger": 0}
        rows = np.empty((n, width), dtype=np.uint64)
        for row, (pcg["state"], pcg["inc"]) in zip(rows, states):
            bit_generator.state = state
            row[:] = bit_generator.random_raw(width)
        self.states, self.raws, self.width = list(states), rows.ravel(), width
        self.row_start = np.arange(n) * width
        self.pos = self.row_start.copy()
        self.held = np.zeros(n, dtype=np.uint64)
        self.has_held = np.zeros(n, dtype=bool)

    def overflowed(self) -> bool:
        return bool((self.pos > self.row_start + self.width).any())

    def _take(self, pos):
        # past the buffer's end wraps to its start, so a loop that
        # overflows still sees varied raws and ends
        return self.raws.take(pos, mode="wrap")

    def _doubles(self, pos):
        """numpy's next_double of the raws at pos: their top 53 bits."""
        raw = self._take(pos)
        raw >>= _U11
        return raw * 2.0 ** -53

    def random(self, rows):
        """Generator.random(): one double each."""
        pos = self.pos[rows]
        self.pos[rows] = pos + 1
        return self._doubles(pos)

    def _uint32(self, rows):
        """next_uint32: the held half, else a fresh raw's low half,
        holding its high half.  random() neither reads nor clears it."""
        has = self.has_held[rows]
        pos = self.pos[rows]
        raw = self._take(pos)
        out = np.where(has, self.held[rows], raw & _LOW32)
        self.held[rows] = raw >> _U32
        self.has_held[rows] = ~has
        self.pos[rows] = pos + ~has
        return out

    def integers(self, rows, top):
        """Generator.integers(low, low + top + 1) less low, each top (an
        int or one per row) in [0, 2**32 - 1]: 0 with no draw for a top
        of 0, else Lemire's method on next_uint32."""
        top = np.broadcast_to(np.asarray(top, dtype=np.uint64), rows.shape)
        out = np.zeros(len(rows), dtype=np.uint64)
        draw = np.flatnonzero(top)
        while draw.size:
            excl = top[draw] + np.uint64(1)
            m = self._uint32(rows[draw]) * excl
            out[draw] = m >> _U32
            draw = draw[(m & _LOW32) < _2_32 % excl]
        return out.astype(np.int64)

    def integers_each(self, rows, sizes, top):
        """Generator.integers(low, low + top + 1, size) less low, for
        sizes[i] values of [0, top[i]] for row i with top[i] > 0, in flat
        passes: a row's values, in row order, are its held half and then
        both halves of its next raws.  A row keeps its values before the
        first one Lemire rejects and reads that one's half; the next pass
        draws the rest from there."""
        out = np.empty(int(sizes.sum()), dtype=np.int64)
        # each row's next value in out, and the values it has still to draw
        start, left = np.cumsum(sizes) - sizes, sizes.copy()
        todo = np.flatnonzero(sizes)
        while todo.size:
            r, need = rows[todo], left[todo]
            first = np.cumsum(need) - need
            owner = np.repeat(np.arange(len(todo)), need)
            nth = np.arange(len(owner)) - first[owner]
            # the half each value reads: -1 the held half, then 0, 1, ...
            # the low and high halves of the raws from pos on
            has = self.has_held[r]
            half = nth - has[owner]
            pos = self.pos[r]
            raw = self._take(pos[owner] + (half >> 1))
            excl = top[todo].astype(np.uint64)[owner] + np.uint64(1)
            m = excl * np.where(half < 0, self.held[r][owner],
                                np.where(half & 1, raw >> _U32, raw & _LOW32))
            rejected = np.flatnonzero((m & _LOW32) < _2_32 % excl)
            kept = need.copy()
            # rejected is in order: each row's first starts its run
            bad = owner[rejected]
            at = run_starts(bad)
            kept[bad[at]] = nth[rejected[at]]
            keep = nth < kept[owner]
            out[start[todo][owner[keep]] + nth[keep]] = (m[keep] >> _U32)
            # the halves read: the kept values' and a rejected one's; a
            # row holds the last raw's high half when it read an odd
            # number of fresh halves
            fresh = kept + (kept < need) - has
            used = (fresh + 1) >> 1
            self.held[r] = self._take(pos + used - 1) >> _U32
            self.has_held[r] = fresh & 1
            self.pos[r] = pos + used
            start[todo] += kept
            left[todo] -= kept
            todo = todo[left[todo] > 0]
        return out

    def poisson(self, rows, scale, rates):
        """Generator.poisson(scale[i] * rates) for each row i: a count for
        each rate, in order, drawn by numpy's own Generator from a PCG64
        at the row's position.  A call of at most _SCALAR_RUNS runs of
        equal rates draws each run with one call at a scalar mean, a
        cheaper call than one at an array of means; a call of more runs
        draws each row with one call at its array.

        The call reads no raw for a mean of 0 and the count plus one below
        10, and the row moves on by those.  From 10 on it reads two a try,
        and the row starts again where the call left its PCG64: that state
        is the row's, its raws are drawn again from it and its position is
        their first.  A row already past its raws stays there, for
        `overflowed`.  Poisson reads whole raws only, so the held half
        stays as it was.
        """
        bit_generator = np.random.PCG64(0)
        generator = np.random.Generator(bit_generator)
        pcg = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg,
                 "has_uint32": 0, "uinteger": 0}
        means = np.multiply.outer(scale, rates)
        starts = np.flatnonzero(np.diff(rates, prepend=np.nan)).tolist()
        # (means, size) of each call a row makes: a run's means as floats,
        # one per row, and its length; or the rows' arrays of means
        if len(starts) <= _SCALAR_RUNS:
            runs = [(means[:, a].tolist(), b - a)
                    for a, b in zip(starts, [*starts[1:], len(rates)])]
        else:
            runs = [(means, None)]
        done = self.pos[rows] - self.row_start[rows]
        restart = (means >= 10).any(axis=1) & (done <= self.width)
        raws = self.raws.reshape(-1, self.width)
        # an empty start, so that a call of no rows or no rates joins
        draws = [np.zeros(0, dtype=np.int64)]
        for i, (row, n, again) in enumerate(zip(
                rows.tolist(), done.tolist(), restart.tolist())):
            pcg["state"], pcg["inc"] = self.states[row]
            bit_generator.state = state
            bit_generator.advance(n)
            draws += [generator.poisson(mean[i], size) for mean, size in runs]
            if again:
                self.states[row] = (bit_generator.state["state"]["state"],
                                    pcg["inc"])
                raws[row] = bit_generator.random_raw(self.width)
        counts = np.concatenate(draws).reshape(len(rows), len(rates))
        read = np.where((means > 0) & (means < 10), counts + 1, 0).sum(axis=1)
        self.pos[rows] = np.where(restart, self.row_start[rows],
                                  self.pos[rows] + read)
        return counts
