"""Patients' `np.random.default_rng([seed, index])` streams, drawn for
many patients at once without a Generator.

`_pcg64_states` ports numpy's SeedSequence and PCG64 seeding to a column
of patient indices; `_Streams` ports numpy's samplers (Generator.random,
Lemire's bounded integers, Poisson by multiplication and by Hörmann's
PTRS, from numpy/random/src/distributions) to blocks of PCG64's raw
outputs.  Each is checked against numpy in tests/test_synthgen.py, on
the oldest numpy the package allows as well as the latest.
"""

from __future__ import annotations

import math

import numpy as np

_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# uint64 constants of the samplers: mixing an int64 with a uint64 gives
# float64 on numpy 1 and 2 alike
_U11, _U32 = np.uint64(11), np.uint64(32)
_LOW32, _2_32 = np.uint64(_MASK32), np.uint64(2 ** 32)
# above any draw's top 53 bits, and the largest raw
_NEVER, _RAW_MAX = 2 ** 62, np.uint64(2 ** 64 - 1)
# listed raws, and codes of Poisson means of 10 and more, a row of
# `_Streams._count_codes` reads at once
_WINDOW = 8
# equal Poisson columns that `_Streams.poisson` counts on their own
_RUN_CODES = 4
# a relative gap under which numpy's exp or log and the C library's
# (at most an ulp apart) could order two values differently, and the
# same gap between a draw's top 53 bits and a cut, floor(exp(-mean) *
# 2**53), in units
_NEAR, _NEAR_CUT = 2.0 ** -40, 2


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


# Stirling series coefficients of numpy's random_loggam
_LOGGAM = (8.333333333333333e-02, -2.777777777777778e-03,
           7.936507936507937e-04, -5.952380952380952e-04,
           8.417508417508418e-04, -1.917526917526918e-03,
           6.410256410256410e-03, -2.955065359477124e-02,
           1.796443723688307e-01, -1.39243221690590e+00)


def _loggam(x: float) -> float:
    """numpy's random_loggam: log(gamma(x)) as PTRS computes it."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM[9]
    for a in _LOGGAM[8::-1]:
        gl0 *= x2
        gl0 += a
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


class _Streams:
    """The `default_rng([seed, index])` streams of a block of patients,
    drawn as numpy's Generator draws them, for many patients at once.

    Each patient's first `width` PCG64 outputs (raws) are one row of a
    flat buffer.  pos is each patient's next raw as a position in that
    buffer, and held the high half of a raw whose low half numpy's
    next_uint32 returned (has_held).  Each method takes an array of
    patients (rows) and makes, for each, the draws of one Generator call;
    the samplers are numpy's (numpy/random/src/distributions), computed
    on the raws.  A patient who reads past its row reads raws that are
    not its own: `overflowed` says so, and the block must be drawn again
    with wider rows.
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
        self.raws, self.width = rows.ravel(), width
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
            # rejected is in order, so np.unique finds each row's first
            bad, at = np.unique(owner[rejected], return_index=True)
            kept[bad] = nth[rejected[at]]
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

    def poisson(self, rows, means, group, cols):
        """Generator.poisson(means[group[i], cols]) for each row i: a count
        for each column of cols, in order, at the mean of that column in
        the row's group of the means table.

        numpy draws a mean of 0 as 0 from no raw; one from 10 on by PTRS
        tries of two raws each; one below 10 by multiplication, as 0 from
        one raw when that draw is at or below exp(-mean).  A run of at
        least _RUN_CODES equal columns whose means are all below 10 (and
        above 0) is counted on its own (`_count_run`); the codes between
        such runs together (`_count_codes`).
        """
        k = len(cols)
        counts = np.zeros((len(rows), k), dtype=np.int64)
        # the segments of cols: (first, past the last, whether a run)
        segments, done = [], 0
        starts = np.flatnonzero(np.diff(cols, prepend=-1)).tolist()
        for a, b in zip(starts, [*starts[1:], k]):
            mean = means[:, cols[a]]
            if b - a >= _RUN_CODES and ((mean > 0) & (mean < 10)).all():
                segments += [(done, a, False), (a, b, True)]
                done = b
        segments.append((done, k, False))
        for a, b, run in segments:
            if a == b:
                continue
            mean = means[:, cols[a]] if run else means[:, cols[a:b]]
            if run:
                # math.exp's exp(-mean), as numpy's sampler computes it
                exp_neg = np.array(list(map(math.exp, (-mean).tolist())))
            # the draws of most rows fit in this many: b - a counts of 0,
            # with a few standard deviations of the draws that make counts
            # above 0 (a PTRS count reads about 2 raws, as a mean of 2 does)
            extra = (b - a) * min(float(mean.max()), 10)
            reach = int(b - a + extra + 3 * math.sqrt(extra)) + 8
            walk = np.arange(len(rows))
            while walk.size:
                counts[walk, a:b], again = (
                    self._count_run(rows[walk], exp_neg[group[walk]], b - a,
                                    reach) if run else
                    self._count_codes(rows[walk], means, group[walk],
                                      cols[a:b], reach))
                walk = walk[again]
                reach *= 2
        return counts

    def _count_codes(self, rows, means, group, cols, reach):
        """`poisson`'s counts for codes of any means, in one pass over
        them.  A count above 0 by multiplication starts at a draw above
        the lowest exp(-mean) of the row's codes, so the raws above it
        are listed; each row reads its next _WINDOW listed raws, each as
        the first draw of the code it falls to had every count since been
        0, and jumps to the first above its code's exp(-mean), whose
        count `_count_products` makes.  Runs of codes of mean 10 or more
        are tried _WINDOW at a time (`_ptrs_tries`), each as though the
        try before were taken.

        exp(-mean) is np.exp's, which may be an ulp from the C library's
        exp that numpy's sampler calls; a draw near enough to an entry for
        that ulp to matter makes the entry math.exp's, and the step is
        made again.

        The raws listed are those of each row's next `reach` raws at
        least; returns the counts, and the positions in rows of those
        whose draws went past them, which it leaves as they were.
        """
        k = len(cols)
        counts = np.zeros((len(rows), k), dtype=np.int64)
        # the table, with a column after the last that ends the codes
        width = means.shape[1] + 1
        means = np.column_stack((means, np.zeros(len(means))))
        by_group = (np.arange(len(means)) * width)[:, None] + cols
        means = means.ravel()
        mult = (means > 0) & (means < 10)
        exp_neg = np.exp(-means)
        # a code counts above 0 when its first draw's top 53 bits are above
        # its cut (-1 at the end); near is the cut of the entries whose
        # exp(-mean) is np.exp's, and -3 for the others
        cut = np.where(mult, np.floor(exp_neg * 2.0 ** 53), 0).astype(np.int64)
        cut[width - 1::width] = -1
        near = np.where(mult, cut, -3)
        tables = means, exp_neg, cut, near
        # the raws each row lists, in order: those whose top 53 bits are
        # above the lowest cut of its codes (less 2), then one past all
        # in the columns from the first row's draw to reach past the last
        # (a row that read past its own raws lists none)
        lowest = np.where(mult[by_group], cut[by_group], _NEVER).min(axis=1)
        floor = np.full(len(self.pos), _RAW_MAX)
        floor[rows] = np.where(lowest < _NEVER, lowest - 2, 0).astype(
            np.uint64)[group] << _U11 | np.uint64(2047)
        floor[rows[lowest[group] == _NEVER]] = _RAW_MAX
        col = self.pos[rows] - self.row_start[rows]
        lo = min(int(col.min()), self.width)
        hi = int(min(self.width, (col + reach).max()))
        listing = np.flatnonzero(
            self.raws.reshape(len(floor), -1)[:, lo:hi] > floor[:, None])
        span = max(hi - lo, 1)
        listing = np.append(listing // span * self.width + lo
                            + listing % span, _NEVER)
        del floor
        # each row's first raw not listed; its code stops the row, which
        # counts again unless its draws run past the buffer
        unlisted = self.row_start[rows] + (hi if hi < self.width else _NEVER)
        again = np.zeros(len(rows), dtype=bool)
        # for each group and code, the group's next code of mean 0 or
        # from 10 on, and the next of mean below 10, from it on (k if none)
        stops = runs = None
        if not mult[by_group].all():
            stops, runs = (_next_each(m) for m in (~mult[by_group],
                                                   means[by_group] < 10))
        steps = np.arange(_WINDOW)
        cols = np.append(cols, width - 1)

        # each row's (index in rows, first entry of its group, start,
        # code): its codes from `code` on are drawn from the raws from
        # start + code on, had every count between been 0
        state = np.stack((np.arange(len(rows)), group * width,
                          self.pos[rows], np.zeros(len(rows), np.int64)))
        while state.shape[1]:
            live, base, start, code = state
            limit = k if stops is None else stops[
                base // width * (k + 1) + code]
            # codes from lim on are drawn otherwise, or past the listing
            lim = np.minimum(limit, np.maximum(unlisted[live] - start, code))
            drawn = listing.take(np.searchsorted(listing, start + code)[
                :, None] + steps, mode="clip")
            j = drawn - start[:, None]
            entry = base[:, None] + cols.take(np.where(j < lim[:, None], j, k))
            gap = (self.raws.take(drawn, mode="clip") >> _U11).view(
                np.int64) - cut.take(entry)
            close = entry[np.abs(gap) <= _NEAR_CUT]
            close = close[near[close] != -3]
            if close.size:
                self._settle(close, *tables)
                continue
            # the first listed draw above its code's cut, or at the limit
            first = (gap > 0).argmax(axis=1)
            last = np.arange(len(live)), first
            at = j[last]
            hit = at < lim
            seen = gap[last] > 0
            h = np.flatnonzero(hit & seen)
            if h.size:
                e = entry[last][h]
                count, close = self._count_products(
                    start[h] + at[h], exp_neg[e], float(means[e].max()))
                if (close & (near[e] != -3)).any():
                    self._settle(e[close], *tables)
                    continue
                counts[live[h], at[h]] = count
                start[h] += count
            # past the listed draws each at or below its code's cut
            code[:] = np.where(seen, np.minimum(at + hit, lim), j[:, -1] + 1)
            paused = (code == lim) & (lim < limit)
            if stops is not None:
                self._draw_stops(live, start, code, limit, counts, means,
                                 base, cols, runs[base // width * (k + 1)
                                                  + np.minimum(code, k)],
                                 steps)
            done = code >= k
            self.pos[rows[live[done]]] = start[done] + k
            again[live[paused]] = True
            if (done | paused).any():
                state = state[:, ~(done | paused)]
        return counts, np.flatnonzero(again)

    def _draw_stops(self, live, start, code, limit, counts, means, base,
                    cols, run_end, steps):
        """`poisson`'s step for the rows at a code of mean 0 or of 10 and
        more (code == limit), the next of mean below 10 at run_end."""
        at = np.flatnonzero((code == limit) & (code < len(counts[0])))
        entry = base[at] + cols[code[at]]
        zero = means[entry] == 0
        start[at[zero]] -= 1
        code[at[zero]] += 1
        at = at[~zero]
        # a try for each of the next codes of mean 10 or more, as though
        # each try before were taken: two raws after the one before
        run = np.minimum(run_end[at] - code[at], len(steps))
        tried = steps < run[:, None]
        row = np.repeat(at, run)
        c = (code[at][:, None] + steps)[tried]
        taken, k = self._ptrs_tries(
            (start[at][:, None] + code[at][:, None] + 2 * steps)[tried],
            means[base[row] + cols[c]])
        ok = np.zeros(tried.shape, dtype=bool)
        ok[tried] = taken
        # the codes before the first try not taken drew their counts; that
        # one tries again after its two raws
        n = np.where(ok.all(axis=1), run, (~ok).argmax(axis=1))
        got = (steps < n[:, None])[tried]
        counts[live[row[got]], c[got]] = k[got]
        start[at] += n + 2 * (n < run)
        code[at] += n

    @staticmethod
    def _settle(entry, means, exp_neg, cut, near):
        """math.exp's exp(-mean) for the table entries `entry`."""
        exp_neg[entry] = list(map(math.exp, (-means[entry]).tolist()))
        cut[entry] = np.floor(exp_neg[entry] * 2.0 ** 53)
        near[entry] = -3

    def _count_run(self, rows, exp_neg, k, reach):
        """numpy's Poisson multiplication method, k counts a row at one
        mean (below 10) a row: a count is the number of draws whose
        running product stays above exp(-mean), so a count that starts at
        or below it is 0 after one draw.  Lists the draws above exp(-mean) in each row's next
        `reach` raws at least, the count each would start, and jumps
        from one to the next.  Returns the counts, and the positions in
        rows of those whose draws went past the listed raws, which it
        leaves as they were."""
        width = self.width
        pos0 = self.pos[rows]
        col = pos0 - self.row_start[rows]
        # the columns listed: from the first row's draw, for reach past
        # the last (a row that read past its own raws lists none)
        lo = min(int(col.min()), width)
        hi = int(min(width, (col + reach).max()))
        # a draw is above e when its raw is above its row's limit
        cut = np.minimum(np.floor(exp_neg * 2.0 ** 53), 2.0 ** 53 - 1)
        limit = np.full(len(self.pos), _RAW_MAX)
        limit[rows] = cut.astype(np.uint64) << _U11 | np.uint64(2047)
        listed = self.raws.reshape(-1, width)[:, lo:hi] > limit[:, None]
        if len(rows) < len(listed):
            listed = listed[rows]
        del limit
        col -= lo
        span = hi - lo
        # listed draws as cells r * span + c of `listed` (int32, as are the
        # positions, sizes and indices below: a dense run lists most of
        # the block's raws), and their positions
        cell = np.flatnonzero(listed).astype(np.int32)
        row = cell // np.int32(span)
        e = exp_neg[row]
        above = (self.row_start[rows] + lo).astype(np.int32)[row] \
            + cell % np.int32(span)
        del row
        # the count each listed draw starts: its draws past the first
        count = np.ones(len(above), dtype=np.int32)
        prod = self._doubles(above)
        prod *= self._doubles(above + np.int32(1))
        live = np.flatnonzero(prod > e).astype(np.int32)
        prod, draw, e = prod[live], above[live] + np.int32(2), e[live]
        while live.size:
            count[live] += 1
            prod *= self._doubles(draw)
            more = prod > e
            live, prod, draw, e = (live[more], prod[more], draw[more] + 1,
                                   e[more])
        del prod, draw, e
        # first[r * span + c]: the index in `above` of the first listed
        # draw of row r at or after column lo + c, for c up to span; after:
        # that of the first listed draw past each one's count
        first = np.zeros(listed.size + 1, dtype=np.int32)
        np.cumsum(listed, dtype=np.int32, out=first[1:])
        del listed
        cell += np.minimum(count + np.int32(1), span - cell % np.int32(span))
        after = first[cell]
        at = first[np.arange(len(rows)) * span + np.minimum(col, span)]
        del first, cell
        above = np.append(above, np.int32(np.iinfo(np.int32).max))

        counts = np.zeros((len(rows), k), dtype=np.int64)
        # the position of each row's count 0, had every count before the
        # next listed draw been 0
        start = pos0.copy()
        live = np.arange(len(rows))
        while live.size:
            code = above[at] - start[live]
            more = code < k
            if not more.all():
                live, at, code = live[more], at[more], code[more]
            counts[live, code] = count[at]
            start[live] += count[at]
            at = after[at]
        # past column hi the draws were not listed: such rows count again,
        # unless their draws run past the buffer, which overflowed tells
        again = (col + start - pos0 + k > span) & (hi < width)
        self.pos[rows[~again]] = (start + k)[~again]
        return counts, np.flatnonzero(again)

    def _count_products(self, pos, exp_neg, most):
        """numpy's Poisson multiplication method from each position pos
        whose draw is above exp_neg: the number of draws whose running
        product stays above it (the count reads one more draw), and
        whether a product came within _NEAR of exp_neg.  The
        products are np.cumprod's over the next draws, enough for most of
        the counts at means up to most; the counts that run past them
        multiply on."""
        reach = int(most + 4 * math.sqrt(most)) + 4
        e = exp_neg[:, None]
        prod = np.cumprod(self._doubles(pos[:, None] + np.arange(reach)),
                          axis=1)
        count = (prod > e).sum(axis=1)
        near = (np.abs(prod - e) <= e * _NEAR).any(axis=1)
        live = np.flatnonzero(count == reach)
        prod, draw = prod[live, -1], pos[live] + reach
        while live.size:
            prod *= self._doubles(draw)
            e = exp_neg[live]
            near[live[np.abs(prod - e) <= e * _NEAR]] = True
            more = prod > e
            count[live[more]] += 1
            live, prod, draw = live[more], prod[more], draw[more] + 1
        return count, near

    def _ptrs_tries(self, pos, lam):
        """One try of numpy's random_poisson_ptrs (Hörmann's PTRS, for
        lam >= 10) from each position pos, reading two doubles: whether
        it is taken, and the count it gives if so.  The logarithms of
        the tries the first test neither takes nor rejects are np.log's,
        which may be an ulp from the C library's log; where that could
        change the outcome, the try is decided with math.log instead
        (`_ptrs_takes`)."""
        b = 0.931 + 2.53 * np.sqrt(lam)
        a = -0.059 + 0.02483 * b
        u = self._doubles(pos) - 0.5
        v = self._doubles(pos + 1)
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.floor((2 * a / us + b) * u + lam + 0.43)
        taken = (us >= 0.07) & (v <= 0.9277 - 3.6224 / (b - 2))
        # an us of 0 makes numpy's k negative
        maybe = np.flatnonzero(~taken & (us > 0) & (k >= 0)
                               & ~((us < 0.013) & (v > us)))
        lam, a, b, km, us, v = (x[maybe] for x in (lam, a, b, k, us, v))
        loglam = np.log(lam)
        with np.errstate(divide="ignore"):
            lhs = np.log(v) + np.log(1.1239 + 1.1328 / (b - 3.4)) \
                - np.log(a / (us * us) + b)
        rhs = -lam + km * loglam - _loggam_each(km + 1)
        # numpy's log(0) is -inf, which takes the try
        taken[maybe] = lhs <= rhs
        scale = np.abs(lhs) + np.abs(rhs) + lam + km * loglam + 1
        for j in np.flatnonzero(~(np.abs(lhs - rhs) > scale * _NEAR)):
            taken[maybe[j]] = _ptrs_takes(*(float(x[j])
                                            for x in (lam, km, us, v)))
        return taken, k


def _ptrs_takes(lam: float, k: float, us: float, v: float) -> bool:
    """numpy's random_poisson_ptrs' last test of a try, with math.log."""
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    return v == 0 or (math.log(v) + math.log(invalpha)
                      - math.log(a / (us * us) + b)
                      <= -lam + k * math.log(lam) - _loggam(k + 1))


def _next_each(marked):
    """For each row of a boolean table and each column up to its width,
    the first marked column from that one on (the width if none), as one
    flat array of rows of width + 1."""
    k = marked.shape[1]
    first = np.where(marked, np.arange(k), k)
    first = np.minimum.accumulate(first[:, ::-1], axis=1)[:, ::-1]
    return np.column_stack((first, np.full(len(first), k))).ravel()


def _loggam_each(x):
    """_loggam of each of an array of values of at least 1, with np.log."""
    n = np.where(x < 7, 7 - x, 0).astype(np.int64)
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = np.full(len(x), _LOGGAM[9])
    for a in _LOGGAM[8::-1]:
        gl0 *= x2
        gl0 += a
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * np.log(x0) - x0
    for step in range(1, 7):
        gl -= np.where(n >= step, np.log(np.maximum(x0 - step, 1.0)), 0.0)
    return np.where((x == 1.0) | (x == 2.0), 0.0, gl)
