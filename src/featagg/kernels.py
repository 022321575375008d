"""Hot numeric kernels over raw CSR arrays.

Each kernel has one numpy implementation, and its Python loops run per item
or per bounded chunk:
- per item: ``ova_sgd`` takes its sequential SGD steps one at a time (it
  gathers their entries a chunk of steps at a time), ``sample_orders``
  sets its generator to each label's stream in turn and shuffles each
  epoch's order, and ``score_rows`` makes one matmul per stack of rows of one stored
  length (the rows' values with the contiguous rows of column-major weights
  at their indices);
- per bounded chunk: ``product_pairs`` (and so ``product_chunks``,
  ``sparse_product`` and ``mi_accumulate``), ``gather_dots``,
  ``cooc_accumulate`` and ``format_floats`` do array work on chunks whose
  scratch a fixed budget bounds, so their loop count is the input's size
  divided by that budget;
- the rest loop a number of times that does not grow with the input: the
  attempts of ``pivot_attempts``, the digit words of the number parsers, the
  rounds of seeding, and the redraws of a rejected bounded draw.

``product_pairs`` expands the products of A B a chunk of rows at a time;
``product_chunks`` sums each chunk into its CSR triple, and
``sparse_product`` joins them: they carry representatives, label sums, the
co-occurrence product and label mutual information. Rerank affinities read
their shortlisted dots from each chunk's key table (``key_sums``), or
gather them from dense prototypes (``gather_dots``).
``_PRODUCT_CHUNK_PAIRS`` is the budget of the product, gather and SGD
chunks, ``_COOC_CHUNK_NNZ`` that of ``cooc_accumulate`` and ``_FORMAT_ROWS``
that of ``format_floats``.
``parse_ints`` and ``parse_floats`` read numbers from the bytes of the
dataset reader's chunks, and ``format_floats`` writes repr() of doubles as
bytes for the dataset writer. ``tests/kernel_reference.py`` holds a plain-Python loop per
kernel that spells out the same arithmetic, and the tests compare the two;
the ordering kernels (``rank_within``, ``group_order``, ``group_repeats``)
are compared with ``np.lexsort`` and Python's sets instead, and
``pivot_attempts``, the tree's per-node draws, and ``sample_orders``, the
per-label SGD orders, with numpy's own generators.

The sparse kernels take (indptr, indices, values) CSR triples with int64
indices and float64 values; callers are responsible for dtype discipline.
"""

from __future__ import annotations

import functools

import numpy as np


def backend_name() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenate [starts[i], ends[i]) into one flat index array."""
    lens = ends - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # entry t of the output, in range i, is t + starts[i] - (entries before range i)
    shift = starts - (np.cumsum(lens) - lens)
    return np.arange(total, dtype=np.int64) + np.repeat(shift, lens)


def chunk_ranges(ends, budget):
    """Consecutive ranges [lo, hi) of rows, each the widest whose cost
    ends[hi] - ends[lo] is at most budget, or one row; ends holds the
    cumulative cost before each row and after the last, like an indptr."""
    lo = 0
    while lo < ends.shape[0] - 1:
        hi = max(int(np.searchsorted(ends, ends[lo] + budget, "right")) - 1, lo + 1)
        yield lo, hi
        lo = hi


def take_rows(
    indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract a row subset as a compact CSR triple (row order preserved)."""
    starts = indptr[rows]
    ends = indptr[rows + 1]
    flat = concat_ranges(starts, ends)
    sub_indptr = np.concatenate(
        ([0], np.cumsum(ends - starts, dtype=np.int64))
    )
    return sub_indptr, indices[flat], values[flat]


# ---------------------------------------------------------------------------
# rank_within / group_order / group_repeats: the ordering kernels, exact
# replacements for np.lexsort on two keys
# ---------------------------------------------------------------------------


def rank_within(group, values):
    """Positions by ascending group, then decreasing value, ties in position
    order, as np.lexsort((-values, group)) gives them; -0.0 ties 0.0 and a
    NaN value ranks last in its group, tied with the group's other NaNs.

    group is an int64 array, or a scalar for one group. The key -values
    only flips sign bits, and everything after it compares: no float
    arithmetic touches the values, so a signalling NaN raises no warning.
    The comparisons tie -0.0 with 0.0 and sort every NaN last. Three steps,
    each on numpy's fastest sort: a default-kind (SIMD quicksort) argsort of
    the key, a stable argsort of the groups in that order, narrowed to
    the smallest unsigned type (a radix sort for spans below 2**16), and a
    tie pass that sorts the (run, position) pairs of the entries in runs of
    equal (group, value). When over an eighth of the values are exact zeros
    (empty rows score 0), the quicksort takes only the others and the zeros
    join in position order, which the stable group sort keeps, so their
    runs need no tie pass.
    """
    key = np.negative(values)
    n = key.shape[0]
    zero = key == 0.0
    zeros_apart = 8 * np.count_nonzero(zero) > n
    if zeros_apart:
        rest = np.flatnonzero(~zero)
        rest = rest[np.argsort(key[rest])]
        cut = np.count_nonzero(key < 0.0)
        order = np.concatenate((rest[:cut], np.flatnonzero(zero), rest[cut:]))
    else:
        order = np.argsort(key)
    if n < 2:
        return order
    nan = np.isnan(key[order[-1]])
    group = np.asarray(group)
    same = None
    if group.ndim:
        lo, hi = int(group.min()), int(group.max())
        if hi > lo:
            g = group[order]
            if lo:
                g = g - lo
            g = g.astype(np.min_scalar_type(hi - lo))
            by = np.argsort(g, kind="stable")
            order, g = order[by], g[by]
            same = g[1:] == g[:-1]
    key = key[order]
    tie = key[1:] == key[:-1]
    if zeros_apart:
        tie &= key[1:] != 0.0
    if nan:
        isnan = np.isnan(key)
        tie |= isnan[1:] & isnan[:-1]
    if same is not None:
        tie &= same
    if not tie.any():
        return order
    # runs are numbered in ranked order, so sorting run * n + position over
    # the tied entries puts each run's positions in ascending order in place
    run = np.concatenate(([0], np.cumsum(~tie)))
    tied = np.zeros(n, dtype=bool)
    tied[1:] = tie
    tied[:-1] |= tie
    at = np.flatnonzero(tied)
    base = run[at] * n
    order[at] = np.sort(base + order[at]) - base
    return order


def _composite(group, key):
    """(composite, span, g_lo): the key (group - g_lo) * span + (key - min)
    that orders positions by group, then key, cast to the narrowest unsigned
    type that holds it; None when it would overflow int64. group may be a
    scalar; key is a non-empty int64 array."""
    k_lo, k_hi = int(key.min()), int(key.max())
    g_lo, g_hi = (int(group.min()), int(group.max())) if group.ndim else (0, 0)
    span = k_hi - k_lo + 1
    top = (g_hi - g_lo) * span + span - 1
    if top > np.iinfo(np.int64).max:
        return None
    composite = np.subtract(key, k_lo, dtype=np.int64)
    if g_hi > g_lo:
        composite += (group - g_lo) * span
    return composite.astype(np.min_scalar_type(top)), span, g_lo


def group_order(group, key):
    """Positions by ascending group, then ascending key, ties in position
    order, as np.lexsort((key, group)) gives them, for int64 arrays (group
    may be a scalar, for one group).

    One stable argsort of the composite key (group - min) * span + (key -
    min), cast to the narrowest unsigned type that holds it: composite keys
    below 2**16 take numpy's radix sort. np.lexsort runs only when that key
    would overflow int64.
    """
    key = np.asarray(key)
    if key.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    group = np.asarray(group)
    composite = _composite(group, key)
    if composite is None:
        return np.lexsort((key, np.broadcast_to(group, key.shape)))
    return np.argsort(composite[0], kind="stable")


def group_repeats(group, key):
    """The group of every (group, key) pair that repeats an earlier one, in
    ascending order, for int64 arrays: one sort of group_order's composite
    key, or group_order itself when that key would overflow."""
    if key.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    composite = _composite(group, key)
    if composite is None:
        order = group_order(group, key)
        group, key = group[order], key[order]
        return group[1:][(group[1:] == group[:-1]) & (key[1:] == key[:-1])]
    composite, span, g_lo = composite
    composite.sort()
    repeat = composite[1:][composite[1:] == composite[:-1]]
    # one group's span may be 2**63, which int64 cannot hold
    return (repeat.astype(np.uint64) // np.uint64(span)).astype(np.int64) + g_lo


# ---------------------------------------------------------------------------
# pivot_attempts and sample_orders: the tree's initial-centre draws for every
# node of a tree at once, and the one-vs-rest sample orders for every label of
# a block, bit for bit those of numpy's default_rng(SeedSequence([seed, key]))
# ---------------------------------------------------------------------------

_U32 = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(1 << 32)


def _hash_constants(init, mult, n):
    """The (xor, multiplier) pairs of SeedSequence's first n hashes, in turn."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & 0xFFFFFFFF
        mults.append(init)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


# 4 hashes take the entropy into the pool and 12 mix it; 8 draw the state
_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_PCG_MUL = 0x2360ED051FC65DA44385DF649FCCF645
_MUL_HI, _MUL_LO = np.uint64(_PCG_MUL >> 64), np.uint64(_PCG_MUL & 0xFFFFFFFFFFFFFFFF)
_MUL_0, _MUL_1 = np.uint64(_PCG_MUL & 0xFFFFFFFF), np.uint64(_PCG_MUL >> 32 & 0xFFFFFFFF)


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ value >> np.uint32(16)


def _seed_state(seed, keys):
    """SeedSequence([seed, key]).generate_state(4, np.uint64) per uint64 key,
    for a seed in [0, 2**64): the entropy is the 32-bit words of seed (one
    for 0) then of key, low word first, and a pool of 4 words pads it with
    zeros."""
    words = np.zeros((keys.shape[0], 4), dtype=np.uint32)
    at = 2 if seed >> 32 else 1
    words[:, :at] = [seed & 0xFFFFFFFF, seed >> 32][:at]
    words[:, at] = keys & _LOW
    words[:, at + 1] = keys >> _U32
    pool = _hashmix(words, _MIX_XOR[:4], _MIX_MUL[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashes = slice(4 + 3 * src, 7 + 3 * src)
        mixed = (np.uint32(0xCA01F9DD) * pool[:, dst] - np.uint32(0x4973F715)
                 * _hashmix(pool[:, src, None], _MIX_XOR[hashes], _MIX_MUL[hashes]))
        pool[:, dst] = mixed ^ mixed >> np.uint32(16)
    state = _hashmix(np.tile(pool, 2), _STATE_XOR, _STATE_MUL)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * MUL + inc mod 2**128, on (hi, lo) uint64
    halves; the high half of lo * MUL's low half comes from 32-bit limbs."""
    a0, a1 = lo & _LOW, lo >> _U32
    p01, p10 = a0 * _MUL_1, a1 * _MUL_0
    mid = (a0 * _MUL_0 >> _U32) + (p01 & _LOW) + (p10 & _LOW)
    carry = a1 * _MUL_1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    low = lo * _MUL_LO
    new_lo = low + inc_lo
    return carry + hi * _MUL_LO + lo * _MUL_HI + inc_hi + (new_lo < low), new_lo


class _Streams:
    """One PCG64 per key, seeded as default_rng(SeedSequence([seed, key]))
    seeds it: the LCG state and increment in (hi, lo) halves, and the spare
    high half that next_uint32 keeps from each 64-bit output."""

    def __init__(self, seed, keys):
        words = _seed_state(seed, keys)
        # state 0 and inc (w2:w3) << 1 | 1; step; add (w0:w1); step
        self.inc_hi = words[:, 2] << np.uint64(1) | words[:, 3] >> np.uint64(63)
        self.inc_lo = words[:, 3] << np.uint64(1) | np.uint64(1)
        lo = self.inc_lo + words[:, 1]
        hi = self.inc_hi + words[:, 0] + (lo < words[:, 1])
        self.hi, self.lo = _pcg_step(hi, lo, self.inc_hi, self.inc_lo)
        self.spare = np.zeros(keys.shape[0], dtype=np.uint64)
        self.has_spare = np.zeros(keys.shape[0], dtype=bool)

    def next_uint32(self, take):
        """The next 32-bit draw of the streams in take (a mask): the spare
        half, or the low half of a fresh XSL-RR output."""
        fresh = take & ~self.has_spare
        value = self.spare
        if fresh.any():
            hi, lo = _pcg_step(self.hi, self.lo, self.inc_hi, self.inc_lo)
            self.hi, self.lo = np.where(fresh, hi, self.hi), np.where(fresh, lo, self.lo)
            x, rot = hi ^ lo, hi >> np.uint64(58)
            out = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
            value = np.where(fresh, out & _LOW, value)
            self.spare = np.where(fresh, out >> _U32, self.spare)
        self.has_spare = self.has_spare ^ take
        return value

    def bounded(self, excl, take):
        """Lemire's draw in [0, excl) for the streams in take, excl at most
        2**32; a rejected draw is redrawn. Streams outside take give
        (spare * excl) >> 32, which is 0 for excl 1."""
        threshold = _TWO32 % excl
        prod = self.next_uint32(take) * excl
        redo = take & ((prod & _LOW) < threshold)
        while redo.any():
            prod = np.where(redo, self.next_uint32(redo) * excl, prod)
            redo &= (prod & _LOW) < threshold
        return prod >> _U32


def pivot_attempts(seed, keys, sizes, attempts):
    """The pairs (a, b) of the first attempts calls of
    rng.choice(sizes[k], 2, replace=False) per node k, rng being
    np.random.default_rng(np.random.SeedSequence([seed % 2**63, keys[k]])),
    as an int64 array of shape (len(keys), attempts, 2).

    Keys are below 2**64 and sizes between 2 and 2**32. Every node's
    stream takes each attempt's draws in lockstep: Floyd's algorithm, a in
    [0, m - 2] (no draw when m is 2) and b in [0, m - 1], with b = m - 1
    when it equals a, then a two-element shuffle that swaps them when one
    more draw is 0; every draw is Lemire's bounded next_uint32, as numpy
    makes them.
    """
    streams = _Streams(seed % 2**63, np.asarray(keys).astype(np.uint64))
    m = np.asarray(sizes).astype(np.uint64)
    every = np.ones(m.shape[0], dtype=bool)
    pairs = np.empty((m.shape[0], attempts, 2), dtype=np.int64)
    for t in range(attempts):
        a = streams.bounded(m - np.uint64(1), m > 2)
        b = streams.bounded(m, every)
        b = np.where(b == a, m - np.uint64(1), b)
        # Lemire on 2 values never rejects, and (u * 2) >> 32 is u's top bit
        swap = streams.next_uint32(every) >> np.uint64(31) == 0
        pairs[:, t, 0] = np.where(swap, b, a)
        pairs[:, t, 1] = np.where(swap, a, b)
    return pairs


def sample_orders(seed, keys, n, epochs):
    """The first epochs calls of rng.permutation(n) per key k, rng being
    np.random.default_rng(np.random.SeedSequence([seed % 2**63, k])), as an
    int64 array of shape (len(keys), epochs, n); keys are below 2**64.

    Every key's PCG64 state is seeded in one pass; one generator then takes
    each key's state in turn and shuffles its copies of arange(n) in place,
    as permutation does.
    """
    streams = _Streams(seed % 2**63, np.asarray(keys).astype(np.uint64))
    bitgen = np.random.PCG64()
    shuffle = np.random.Generator(bitgen).shuffle
    orders = np.empty((streams.hi.shape[0], epochs, n), dtype=np.int64)
    orders[...] = np.arange(n)
    states = zip(streams.hi.tolist(), streams.lo.tolist(), streams.inc_hi.tolist(),
                 streams.inc_lo.tolist())
    for key_orders, (hi, lo, inc_hi, inc_lo) in zip(orders, states):
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
                        "has_uint32": 0, "uinteger": 0}
        for order in key_orders:
            shuffle(order)
    return orders


# ---------------------------------------------------------------------------
# parse_ints / parse_floats: numbers written in ASCII digits, read straight
# from the bytes of a text: integers, and decimals without a sign or an
# exponent, the form of a dataset's values. Each returns (values, ok); ok
# marks the tokens it converted, and every other token is the caller's to
# convert.
# ---------------------------------------------------------------------------

# Zero bytes put before a buffer, so that the up to 24 bytes read before a
# token's end stay in range
_PAD = 24
# _FIRST[c + 24]: the low bytes of a little-endian word, which hold its first
# clip(c, 0, 8) characters
_FIRST = np.array([(1 << 8 * min(max(c, 0), 8)) - 1 for c in range(-24, 25)],
                  dtype=np.uint64)
_ZEROS = 0x3030303030303030  # eight ASCII '0'


def _digits(buf, ends, n, dot_at=None):
    """(value, ok) of the n characters (at most 19) before ends in the uint8
    buffer buf, read as decimal digits into a uint64; ok is False where any
    of them is not an ASCII digit. With dot_at (at most 24), the characters
    at distance dot_at or more from the end are read one byte earlier, which
    skips a dot.

    The 8 * width bytes before each end are gathered at once, through an
    unaligned, stride-1 view of the buffer, and read as width little-endian
    words of eight characters, each folded by SWAR (SIMD within a register):
    adjacent digits, then pairs, then fours combine by one multiply, shift
    and mask. The steps run in place, so scratch stays at a few words per
    token.
    """
    # words of the characters up to 8 * width before the end, with one more
    # for a dot: the first word's first character is never a digit
    width = max(-(-(int(n.max(initial=0)) + (dot_at is not None)) // 8), 1)
    o = 8 * np.arange(width, 0, -1)[:, None]  # distance from the end to each word
    padded = np.zeros(_PAD + buf.shape[0], dtype=np.uint8)
    padded[_PAD:] = buf
    spans = np.ndarray((padded.shape[0] + 1 - 8 * width,), f"V{8 * width}", padded,
                       strides=(1,))
    # width rows of words, so that each operation runs along the tokens
    v = spans[ends + (_PAD - 8 * width)].view("<u8").reshape(-1, width).T.copy()
    del padded, spans
    if dot_at is not None:
        moved = _FIRST[(o + 24) - dot_at]
        earlier = v << 8  # each word read one byte earlier
        earlier[1:] |= v[:-1] >> 56
        earlier &= moved
        np.invert(moved, out=moved)
        v &= moved
        del moved
        v |= earlier
        del earlier
    # characters before the digits read as '0': set to all ones, then
    # cleared to '0'
    junk = _FIRST[(o + 24) - n]
    v |= junk
    junk &= ~np.uint64(_ZEROS)
    np.invert(junk, out=junk)
    v &= junk
    del junk
    v -= _ZEROS
    # every byte of v at most 9; a byte below '0' borrows, setting its top bit
    bad = v + 0x7676767676767676
    bad |= v
    bad &= 0x8080808080808080
    ok = ~bad.any(axis=0)
    del bad
    v *= 2561  # 10 * digit + next digit
    v >>= 8
    v &= 0x00FF00FF00FF00FF
    v *= 6553601  # 100 * pair + next pair
    v >>= 16
    v &= 0x0000FFFF0000FFFF
    v *= 42949672960001  # 10000 * four + next four
    v >>= 32
    value = v[0]
    for eight in v[1:]:
        value = value * 100000000 + eight
    return value, ok


def parse_ints(buf, starts, ends):
    """(values, ok) for the tokens buf[starts[i]:ends[i]] of a uint8 buffer:
    ok marks tokens of 1 to 18 ASCII digits, and values holds int() of each
    of them as int64 (0 elsewhere)."""
    n = ends - starts
    value, ok = _digits(buf, ends, np.minimum(n, 18))
    ok &= (n >= 1) & (n <= 18)
    return np.where(ok, value, 0).astype(np.int64), ok


# x87 extended precision, which parse_floats and format_floats need: a 64-bit
# significand, stored in 16 bytes, with arithmetic carried out at 64 bits
EXACT_FLOATS = bool(np.finfo(np.longdouble).nmant == 63
                    and np.dtype(np.longdouble).itemsize == 16
                    and np.longdouble(2**63) + 1 != np.longdouble(2**63))
# 10**k for 0 <= k <= _MAX_POW, each exact in extended precision, as
# 5**27 < 2**63
_MAX_POW = 27
_POW10 = np.cumprod(np.concatenate(([1], np.full(_MAX_POW, 10))).astype(np.longdouble))


def _scale(x, k):
    """x * 10**k in extended precision for integers -27 <= k <= 27, rounded
    once: one of the two operations is by 1 where k mixes signs."""
    if k.min(initial=0) >= 0:
        return x * _POW10[k]
    if k.max(initial=0) <= 0:
        return x / _POW10[-k]
    return x * _POW10[np.maximum(k, 0)] / _POW10[np.maximum(-k, 0)]


def parse_floats(buf, starts, ends, dots):
    """(values, ok) for the tokens buf[starts[i]:ends[i]] of a uint8 buffer:
    ok marks tokens of the form digits[.digits] (.5 and 5. included) with 1
    to 19 ASCII digits, leading zeros counted, and values holds float() of
    each of them (0.0 elsewhere). dots[i] is the position of a dot in token
    i, or -1 where it has none. A sign, an exponent or a 20th digit leaves a
    token out of ok.

    The digits make an exact uint64 w, with k of them after the dot. w and
    10**k are exact in x87 extended precision, whose division rounds once to
    64 bits; rounding that to a double is correctly rounded unless the
    extended quotient is a midpoint of two doubles, and those tokens are
    left out of ok. Without EXACT_FLOATS, ok is all False.
    """
    m = starts.shape[0]
    if not EXACT_FLOATS:
        return np.zeros(m), np.zeros(m, dtype=bool)
    has_dot = dots >= 0
    frac = np.where(has_dot, ends - 1 - dots, 0)
    n = ends - starts - has_dot
    dot_at = np.where(has_dot, np.minimum(frac, 24), 24) if has_dot.any() else None
    del has_dot
    # token-sized scratch is freed as soon as it is used
    value, ok = _digits(buf, ends, np.minimum(n, 19), dot_at)
    del dot_at
    ok &= (n >= 1) & (n <= 19)
    del n
    quotient = value.astype(np.longdouble)
    del value
    quotient /= _POW10[np.minimum(frac, 19)]
    del frac
    # rounding to a double is a second rounding, which may differ from
    # rounding the exact value once where the extended quotient lies halfway
    # between two doubles: its low 11 significand bits are 0x400
    ok &= quotient.view(np.uint64)[0::2] & 0x7FF != 0x400
    return np.where(ok, quotient.astype(np.float64), 0.0), ok


# the longest repr of a double, -1.2345678901234567e-308
_FLOAT_CHARS = 24
# the decimal-point positions (the value is 0.d1d2... * 10**decpt) of the
# values format_floats formats itself: 10**(16 - E) must be within 10**27
_DECPT_MIN, _DECPT_MAX = -10, 45
_U64_POW10 = 10 ** np.arange(20, dtype=np.uint64)
# 10.0**k for -27 <= k <= 27, at index k + 27
_F64_POW10 = np.array([10.0**k for k in range(-_MAX_POW, _MAX_POW + 1)])
# 2.0**-b for 0 <= b < 64
_F64_HALVES = 0.5 ** np.arange(64)
# format_floats works on this many values at a time, so that its scratch,
# about 200 bytes per value, stays small beside the values' and in cache
_FORMAT_ROWS = 1 << 12
# how far apart the distances that _shortest compares must be for it to
# decide, in units of the 17th digit: more than the 0.0055 by which its
# extended product may miss
_MARGIN = 2.0**-6


def _eight_digits(v, zeros=_ZEROS):
    """Turn each uint64 of the contiguous array v below 10**8, in place, into
    its eight ASCII digits, first digit in the lowest byte, adding zeros,
    ASCII '0' in each byte (or an array of it, with NULs for digits to
    leave out as NULs) to the digits 0 to 9: SWAR splits it
    in 32-bit lanes into two numbers below 10**4, those in 16-bit lanes into
    numbers below 100, and those in bytes into digits, dividing by multiply
    and shift (x // 100 == x * 5243 >> 19 for x < 10**4, and x // 10 ==
    x * 103 >> 10 for x < 100)."""
    high = v // 10000
    v -= high * 10000
    v <<= 32
    v |= high
    for times, shift, mask, base, lane in ((5243, 19, 0x0000007F0000007F, 100, 16),
                                           (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(v, times, out=high)
        high >>= shift
        high &= mask
        v -= high * base
        v <<= lane
        v |= high
    v += zeros


def _repr_sources(negative, p, decpt):
    """The source of each character of repr() for p significant digits with
    decimal point position decpt: digit j as j, any other character as its
    byte (every byte of repr() is above 16).

    repr() writes fixed notation for -4 < decpt <= 16, and d.ddde+XX
    otherwise, as Python's float_repr_style 'short' does.
    """
    digits = list(range(p))
    if -4 < decpt <= 0:
        sources = list(b"0." + b"0" * -decpt) + digits
    elif 0 < decpt < p:
        sources = digits[:decpt] + list(b".") + digits[decpt:]
    elif p <= decpt <= 16:
        sources = digits + list(b"0" * (decpt - p) + b".0")
    else:
        sources = digits[:1] + (list(b".") + digits[1:] if p > 1 else [])
        sources += list(b"e%+03d" % (decpt - 1))
    return list(b"-") * negative + sources


@functools.cache
def _layout():
    """Ten uint64 rows, one column per (sign, p, decpt), at column (sign *
    17 + p - 1) * n_decpt + decpt - _DECPT_MIN: 10**(7 - t), for the
    position t of the first digit in repr(); then three masks, each of three
    words, for format_floats' 24 bytes: the digits that stay where they are,
    the digits one byte further on, and the other characters. Built on
    first use, as it takes milliseconds."""
    columns = []
    for negative in (0, 1):
        for p in range(1, 18):
            for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
                sources = _repr_sources(negative, p, decpt)
                t = sources.index(0)
                masks = np.zeros((3, _FLOAT_CHARS), dtype=np.uint8)
                for at, source in enumerate(sources):
                    if source > 16:
                        masks[2, at] = source
                    else:  # the digits come after t zeros, one byte later past a dot
                        assert at - t - source in (0, 1)
                        masks[at - t - source, at] = 0xFF
                columns.append([10 ** (7 - t), *masks.view(np.uint64).ravel().tolist()])
    return np.array(columns, dtype=np.uint64).T.copy()


def _rounded(w, d, h, unit):
    """(r, passed, unsure): the 17-digit integers w rounded to a multiple r
    of unit, d breaking a tie, whether r reads back, with the distance t
    from y = w + d to r below half the gap between doubles h by more than
    _MARGIN, and whether that cannot be decided (t within _MARGIN of h, or
    a tie that d cannot break)."""
    cut = w // unit
    rest = w - cut * unit
    tie = rest == unit // 2
    cut += (rest > unit // 2) | tie & (d > 0)
    cut *= unit
    t = np.abs(cut.view(np.int64) - w.view(np.int64) - d)
    passed = t < h - _MARGIN
    unsure = ~passed & (t <= h + _MARGIN) | tie & (d == 0)
    passed &= ~unsure
    return cut, passed, unsure


def _fixed(y):
    """(m, b): the 64-bit significands m of the positive extended-precision
    y and the number b of their bits below the binary point, y = m / 2**b,
    as unsigned; b lies in [4, 14] for y in [10**15, 10**18)."""
    words = y.view(np.uint64).reshape(-1, 2)  # significand, then sign and exponent
    return words[:, 0], np.uint64(16383 + 63) - (words[:, 1] & 0x7FFF)


def _shortest(a):
    """(sure, w, p, e) for positive doubles a whose significand is not a
    power of two: where sure, a reads back from its p significant digits,
    the correctly rounded ones, with p as small as it can be; w holds them
    followed by 17 - p zeros, a 17-digit integer, or 10**17 for a value
    that rounds up to a power of ten, and e is floor(log10(a)). sure leaves
    out the values the arithmetic below cannot decide; w, p and e mean
    nothing there.

    One extended-precision product gives the 17 digits W17 = rint(y) of
    y = a * 10**(16 - e) and their error d = y - W17, exact but for the
    rounding of y to 64 bits (half an ulp of y < 10**17: below
    10**17 / 2**64 < 0.0055); both come from y's significand bits, which
    also tell whether y has 17 digits before its point. Rounding
    W17 to p < 17 digits, with d breaking a tie, gives the correctly rounded
    p-digit decimal; it reads back when its distance t to y is below half
    the gap to the next double, h, both in units of W17's last digit. A
    tie that d cannot break, and t within _MARGIN of h, are left out.
    Since h < 12, a rounding to 10**2 that reads back lies within 12 of
    W17: it is also the rounding to 10**k for every k up to its trailing
    zeros, and the rounding to the next power of ten is 10**k - 12 or more
    away from y, so it never reads back, and is left out only on a tie.
    """
    e = np.floor(np.log10(a)).astype(np.int64)
    sure = np.abs(16 - e) <= _MAX_POW
    # the other values become 1.5, so that the arithmetic stays in range
    a = np.where(sure, a, 1.5)
    e[~sure] = 0
    y = _scale(a.astype(np.longdouble), 16 - e)
    m, b = _fixed(y)
    # e from log10 may be off by one: y must have 17 digits
    whole = m >> b
    off = (whole >= _U64_POW10[17]).astype(np.int64) - (whole < _U64_POW10[16])
    if off.any():
        e += off
        sure &= np.abs(16 - e) <= _MAX_POW
        redo = np.flatnonzero(off.astype(bool) & sure)
        y[redo] = _scale(a[redo].astype(np.longdouble), 16 - e[redo])
        e[~sure] = 0
        m, b = _fixed(y)
        whole = m >> b
    # rint(y): the bits below the point, rounded half up (a tie is left out)
    rest = m - (whole << b)
    up = rest >= np.left_shift(1, b - 1)
    w17 = whole + up
    b = b.view(np.int64)
    d = (rest.view(np.int64) - (up.astype(np.int64) << b)) * _F64_HALVES[b]
    del y, m, b, whole, rest, up
    # half the gap above a in units of W17's last digit: a normal double's
    # gap is 2**(E - 1075) for its biased exponent E, and 2**(E - 1076) is
    # the double of biased exponent E - 53
    h = ((a.view(np.int64) >> 52) - 53 << 52).view(np.float64)
    h *= _F64_POW10[16 - e + _MAX_POW]
    # 17 correctly rounded digits always read back, unless rint had a tie
    # to break
    sure &= np.abs(d) != 0.5
    w1, one, unsure = _rounded(w17, d, h, _U64_POW10[1])
    sure &= ~unsure
    w2, two, unsure = _rounded(w17, d, h, _U64_POW10[2])
    sure &= ~(one & unsure)
    two &= one
    w = np.where(two, w2, np.where(one, w1, w17))
    p = 17 - one.astype(np.int64) - two
    # the trailing zeros of the roundings to 10**2 that read back
    two = np.flatnonzero(two)
    if two.shape[0]:
        x = w2[two] // 100
        k = np.full(two.shape[0], 2)
        for s in (8, 4, 2, 1):
            cut = x // _U64_POW10[s]
            whole = cut * _U64_POW10[s] == x
            x = np.where(whole, cut, x)
            k += s * whole
        np.minimum(k, 16, out=k)
        p[two] = 17 - k
        unit = _U64_POW10[np.minimum(k + 1, 16)]
        tie = (k < 16) & (w17[two] % unit == unit // 2) & (d[two] == 0)
        sure[two[tie]] = False
    return sure, w, p, e


def format_floats(values, out=None):
    """(chars, ok): chars[i] holds repr(float(values[i])) as ASCII bytes,
    NUL-padded to 24 columns, where ok[i]; the other rows are all NUL and
    the caller's to format. out, if given, is a uint8 array of
    (len(values), 24) with contiguous rows to write chars into, such as a
    view of columns of a larger byte matrix.

    The shortest digits that read back come from _shortest; among the
    strings of that length, repr() prints the correctly rounded one, which
    _shortest gives. Left out of ok: what _shortest cannot decide (a tie in
    the 17-digit rounding or in a shorter one, a distance too close to half
    the gap between doubles), a significand that is a power of two (the
    values that read back lie unevenly about it), a power of ten beyond
    10**27, zero and non-finite values, and every value without
    EXACT_FLOATS. Each value's characters are three uint64 words: SWAR
    (_eight_digits) writes its 17 digits, shifted by a power of ten so
    that the first lands where repr() puts it, and three masks from one
    column of a layout table, indexed by sign, digit count and
    decimal-point position, keep the digits before a dot, the digits after
    it (read one byte earlier) and add the other characters. Every value
    goes through the same passes; the rows left out are cleared at the end.
    """
    x = np.asarray(values, dtype=np.float64)
    chars = np.empty((x.shape[0], _FLOAT_CHARS), dtype=np.uint8) if out is None else out
    ok = np.zeros(x.shape[0], dtype=bool)
    if not EXACT_FLOATS:
        chars[...] = 0
        return chars, ok
    for lo in range(0, x.shape[0], _FORMAT_ROWS):
        ok[lo:lo + _FORMAT_ROWS] = _format_rows(x[lo:lo + _FORMAT_ROWS],
                                                chars[lo:lo + _FORMAT_ROWS])
    return chars, ok


def _format_rows(x, chars):
    """format_floats' ok for the doubles x, writing their rows of chars."""
    # finite values whose significand is not a power of two (nor zero);
    # the others become 1.5, and are left out
    nice = np.isfinite(x) & (x.view(np.uint64) << 12 != 0)
    ok, w, p, e = _shortest(np.where(nice, np.abs(x), 1.5))
    ok &= nice
    # a carry to 10**17 is the digit '1' of the next power of ten
    carry = w == _U64_POW10[17]
    w[carry] = _U64_POW10[16]
    e += carry
    masks = np.take(_layout(), (np.signbit(x) * 17 + p - 1)
                    * (_DECPT_MAX - _DECPT_MIN + 1) + e + 1 - _DECPT_MIN,
                    axis=1, mode="clip")
    # the 24 digits of w * 10**(7 - t), in three words of eight: t zeros,
    # the 17 digits of w and 7 - t zeros. For w = high * 10**8 + low, low
    # * 10**(7 - t) < 10**15 gives the last word and a carry, and high *
    # 10**(7 - t) plus the carry, below 10**16, the first two
    eight = _U64_POW10[8]
    words = np.empty((3, x.shape[0]), dtype=np.uint64)
    high = w // eight
    low = (w - high * eight) * masks[0]
    over = low // eight
    words[2] = low - over * eight
    high *= masks[0]
    high += over
    words[0] = high // eight
    words[1] = high - words[0] * eight
    del w, high, low, over
    _eight_digits(words)
    later = words << 8  # each character one byte later
    later[1:] |= words[:-1] >> 56
    later &= masks[4:7]
    words &= masks[1:4]
    words |= later
    del later
    np.bitwise_or(words, masks[7:], out=chars.view(np.uint64).T)
    chars[np.flatnonzero(~ok)] = 0
    return ok


# ---------------------------------------------------------------------------
# row_dots: per-row dot product with a dense vector
# ---------------------------------------------------------------------------


def row_dots(indptr, indices, values, dense):
    nrows = indptr.shape[0] - 1
    out = np.zeros(nrows, dtype=np.float64)
    if indices.shape[0] == 0:
        return out
    prods = values * dense[indices]
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if nonempty.shape[0]:
        out[nonempty] = np.add.reduceat(prods, indptr[nonempty])
    return out


# ---------------------------------------------------------------------------
# sum_rows / weighted_sum_rows: dense accumulation of selected rows
# ---------------------------------------------------------------------------


def sum_rows(indptr, indices, values, rows, dim):
    flat = concat_ranges(indptr[rows], indptr[rows + 1])
    if flat.shape[0] == 0:
        return np.zeros(dim, dtype=np.float64)
    return np.bincount(indices[flat], weights=values[flat], minlength=dim)


def weighted_sum_rows(indptr, indices, values, rows, weights, dim):
    starts = indptr[rows]
    ends = indptr[rows + 1]
    flat = concat_ranges(starts, ends)
    if flat.shape[0] == 0:
        return np.zeros(dim, dtype=np.float64)
    wrep = np.repeat(weights, ends - starts)
    return np.bincount(indices[flat], weights=values[flat] * wrep, minlength=dim)


# ---------------------------------------------------------------------------
# transpose_csr: CSR -> CSR of the transpose (counting sort on columns)
# ---------------------------------------------------------------------------


def transpose_csr(indptr, indices, values, nrows, ncols):
    # column ids narrowed as group_order narrows keys: radix sort below 2**16
    cols = indices.astype(np.min_scalar_type(max(ncols - 1, 0)))
    order = np.argsort(cols, kind="stable")
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    counts = np.bincount(indices, minlength=ncols)
    t_indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    return t_indptr, row_of[order], values[order]


# ---------------------------------------------------------------------------
# coalesce: CSR from (row, column) keys, equal keys summed
# ---------------------------------------------------------------------------


# Keyed sums take a dense array over the key range when it holds at most this
# many slots per key, and sort the keys otherwise, so they cost O(keys) either
# way.
_DENSE_SLOTS_PER_KEY = 4


def key_slots(keys, size):
    """(unique, slot) as np.unique(keys, return_inverse=True) gives them, for
    int64 keys in [0, size): a presence mask and its running count when the
    range is dense enough, a sort otherwise."""
    if size > _DENSE_SLOTS_PER_KEY * keys.shape[0]:
        return np.unique(keys, return_inverse=True)
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    slot_of = np.cumsum(present)
    slot_of -= 1
    return np.flatnonzero(present), slot_of[keys]


def key_table(keys, values, size):
    """(present, sums): the values at each int64 key in [0, size) summed in
    input order. When the range is dense enough present is None and sums has
    one bin per key of the range (0.0 where no key falls); otherwise present
    holds the distinct keys ascending and sums their sums."""
    if size > _DENSE_SLOTS_PER_KEY * keys.shape[0]:
        present, slot = np.unique(keys, return_inverse=True)
        return present, np.bincount(slot, weights=values, minlength=present.shape[0])
    return None, np.bincount(keys, weights=values, minlength=size)


def key_sums(keys, values, size, at):
    """The key_table sums at the keys at, 0.0 at a key no value falls on."""
    present, sums = key_table(keys, values, size)
    if present is None:
        return sums[at]
    if present.shape[0] == 0:
        return np.zeros(at.shape[0])
    pos = np.minimum(np.searchsorted(present, at), present.shape[0] - 1)
    return np.where(present[pos] == at, sums[pos], 0.0)


def coalesce(keys, values, nrows, ncols):
    """CSR triple of the entries at keys = row * ncols + column: the values at
    one key are summed in input order, exact zeros dropped."""
    keys_at, sums = key_table(keys, values, nrows * ncols)
    keep = sums != 0.0
    # in a dense table a key that never occurs sums to 0.0, and goes with the
    # exact zeros
    keys_at = np.flatnonzero(keep) if keys_at is None else keys_at[keep]
    sums = sums[keep]
    counts = np.bincount(keys_at // ncols, minlength=nrows)
    return np.concatenate(([0], np.cumsum(counts))), keys_at % ncols, sums


# ---------------------------------------------------------------------------
# product_pairs / product_chunks / sparse_product: A B from the CSR triples
# of A and B
# ---------------------------------------------------------------------------


# (A entry, B row entry) pairs a chunk of rows of A B expands (a chunk always
# holds at least one row); bounds the product's scratch whatever the sizes
# of A and B.
_PRODUCT_CHUNK_PAIRS = 1 << 14


def product_pairs(a_indptr, a_indices, a_values, b_indptr, b_indices, b_values,
                  ncols):
    """(lo, hi, keys, values) for consecutive ranges [lo, hi) of the rows of
    A: every product a[r, i] * b[i, c] of those rows, keyed (r - lo) * ncols
    + c, in the stored order of row r's entries, then of B's row i; B has
    ncols columns."""
    # expanded pairs before each row of A
    ends = np.concatenate(
        ([0], np.cumsum(b_indptr[a_indices + 1] - b_indptr[a_indices])))[a_indptr]
    for lo, hi in chunk_ranges(ends, _PRODUCT_CHUNK_PAIRS):
        s, e = a_indptr[lo], a_indptr[hi]
        starts, stops = b_indptr[a_indices[s:e]], b_indptr[a_indices[s:e] + 1]
        flat = concat_ranges(starts, stops)
        row = np.repeat(np.arange(hi - lo), np.diff(ends[lo : hi + 1]))
        yield (lo, hi, row * ncols + b_indices[flat],
               np.repeat(a_values[s:e], stops - starts) * b_values[flat])


def product_chunks(a_indptr, a_indices, a_values, b_indptr, b_indices, b_values,
                   ncols):
    """(lo, hi, indptr, indices, values) for the product_pairs ranges [lo, hi)
    of the rows of A: the CSR triple of those rows of A B. Entry (r, c) sums
    a[r, i] * b[i, c] over row r's stored entries in stored order (see
    coalesce, which also drops exact zeros)."""
    for lo, hi, keys, values in product_pairs(
            a_indptr, a_indices, a_values, b_indptr, b_indices, b_values, ncols):
        yield lo, hi, *coalesce(keys, values, hi - lo, ncols)


def sparse_product(a_indptr, a_indices, a_values, b_indptr, b_indices, b_values,
                   ncols):
    """CSR triple of A B, as product_chunks gives it a chunk at a time."""
    counts, cols, sums = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for _, _, indptr, indices, values in product_chunks(
            a_indptr, a_indices, a_values, b_indptr, b_indices, b_values, ncols):
        counts.append(np.diff(indptr))
        cols.append(indices)
        sums.append(values)
    return (np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
            np.concatenate(cols), np.concatenate(sums))


def gather_dots(indptr, indices, values, rows, dense, labels):
    """dense[labels[t]] dotted with CSR row rows[t], for every t: each dot
    adds values * dense[labels[t], indices] to 0.0 in the row's stored order,
    at most _PRODUCT_CHUNK_PAIRS gathered entries (or one dot) at a time."""
    dots = np.zeros(rows.shape[0])
    flat_dense = dense.reshape(-1)
    starts, stops = indptr[rows], indptr[rows + 1]
    lengths = stops - starts
    ends = np.concatenate(([0], np.cumsum(lengths)))
    for lo, hi in chunk_ranges(ends, _PRODUCT_CHUNK_PAIRS):
        flat = concat_ranges(starts[lo:hi], stops[lo:hi])
        dot = np.repeat(np.arange(hi - lo), lengths[lo:hi])
        gathered = flat_dense[np.repeat(labels[lo:hi] * dense.shape[1], lengths[lo:hi])
                              + indices[flat]]
        gathered *= values[flat]
        dots[lo:hi] = np.bincount(dot, weights=gathered, minlength=hi - lo)
    return dots


# ---------------------------------------------------------------------------
# agglomerate_csr: merge columns by cluster id, summing (or averaging) values
# ---------------------------------------------------------------------------
# divisors: per-cluster denominators for AVERAGE mode; length-0 array means SUM.


def agglomerate_csr(indptr, indices, values, cluster_of, n_clusters, divisors):
    nrows = indptr.shape[0] - 1
    row_of = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    out = coalesce(row_of * n_clusters + cluster_of[indices], values, nrows, n_clusters)
    if divisors.shape[0]:
        # a quotient can underflow to 0: drop it
        out_indptr, cols, sums = out
        sums = sums / divisors[cols]
        keep = sums != 0.0
        kept = np.concatenate(([0], np.cumsum(keep)))
        out = kept[out_indptr], cols[keep], sums[keep]
    return out


# ---------------------------------------------------------------------------
# cooc_accumulate: the co-occurrence blocks in one flat array;
# cluster k's starts at block_start[k], feature j is row/column offset_of[j]
# ---------------------------------------------------------------------------


# Nonzeros per chunk of rows (a chunk always holds at least one row); bounds
# the scratch to this many entries times the largest cluster size, whatever
# the number of rows or features.
_COOC_CHUNK_NNZ = 1 << 11


def cooc_accumulate(
    indptr, indices, values, cluster_of, offset_of, block_start, sizes, flat
):
    # Per chunk of rows: sort the nonzeros by (row, cluster), expand every
    # within-group pair (a, b) and add v_a * v_b at its block entry in flat.
    # A row holds each feature once, so each entry gets at most one update per
    # row; np.add.at applies them in order, i.e. row by row as the
    # reference loop does.
    for lo, hi in chunk_ranges(indptr, _COOC_CHUNK_NNZ):
        s, e = indptr[lo], indptr[hi]
        row = np.repeat(np.arange(hi - lo), np.diff(indptr[lo : hi + 1]))
        cl = cluster_of[indices[s:e]]
        order = group_order(row, cl)  # stable: stored order within a group
        row, cl = row[order], cl[order]
        off = offset_of[indices[s:e]][order]
        val = values[s:e][order]
        new = np.ones(row.shape[0], dtype=bool)
        new[1:] = (row[1:] != row[:-1]) | (cl[1:] != cl[:-1])
        first = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        starts, ends = first[seg], np.append(first[1:], row.shape[0])[seg]
        b = concat_ranges(starts, ends)
        reps = ends - starts
        base = block_start[cl] + off * sizes[cl]
        np.add.at(flat, np.repeat(base, reps) + off[b], np.repeat(val, reps) * val[b])


# ---------------------------------------------------------------------------
# ova_sgd: per-sample logistic SGD for a block of B binary labels, L2 via the
# scale trick. sign is (B, n): +1/-1 per label and sample. order holds each
# label's sample order, flattened label-major (label l's steps are
# order[l*T:(l+1)*T] with T = len(order) // B), so len(order) stays the number
# of SGD steps. The learning rate decays per epoch, lr_e = lr / (1 + decay * e),
# with epoch_len samples per epoch. Returns (weights (B, dim), bias (B,)).
# Every label follows the reference loop's arithmetic exactly, so results are
# bit-identical to it (but for the sign bit of a NaN, which numpy's array and
# scalar operations set differently).
# ---------------------------------------------------------------------------


def ova_sgd(indptr, indices, values, sign, order, dim, lr, l2, decay,
            epoch_len):
    # One iteration per step p, updating all B labels at once: lr, l2 and
    # decay do not depend on the label, so the L2 scale is one shared scalar.
    # The entries of consecutive steps are gathered a chunk at a time (a step
    # costs its entries plus B, and a chunk is at most _PRODUCT_CHUNK_PAIRS
    # or one step), so a step itself runs only its arithmetic.
    n_labels = sign.shape[0]
    w = np.zeros((n_labels, dim), dtype=np.float64)
    bias = np.zeros(n_labels, dtype=np.float64)
    wflat = w.reshape(-1)
    rows_at = order.reshape(n_labels, -1)
    labels = np.arange(n_labels)
    row_len = np.diff(indptr)
    g = np.empty(n_labels)  # the margins, then the gradients
    scale = 1.0
    # chunks are cut within windows of steps, each at least a budget's worth,
    # so the scratch does not grow with the number of steps; a window's signs,
    # row starts and step offsets are gathered once
    window = max(_PRODUCT_CHUNK_PAIRS // n_labels, 1)
    for w0 in range(0, rows_at.shape[1], window):
        at = rows_at[:, w0:w0 + window].T  # (steps, B): step-major
        lens = row_len[at]
        sgn = sign[labels, at]
        neg = -sgn
        step_nnz = lens.sum(axis=1)
        ends = np.concatenate(([0], np.cumsum(step_nnz + n_labels)))
        off = np.concatenate(([0], np.cumsum(step_nnz))).tolist()
        # entry t of the window, in (step, label) range i, is t + shift[i]
        lens = lens.ravel()
        shift = indptr[at].ravel() - (np.cumsum(lens) - lens)
        for lo, hi in chunk_ranges(ends, _PRODUCT_CHUNK_PAIRS):
            lens_c = lens[lo * n_labels:hi * n_labels]
            flat = np.repeat(shift[lo * n_labels:hi * n_labels], lens_c)
            flat += np.arange(off[lo], off[hi])
            lab = np.repeat(np.broadcast_to(labels, (hi - lo, n_labels)).ravel(), lens_c)
            key = lab * dim
            key += indices[flat]
            val = values[flat]
            for i in range(lo, hi):
                p = w0 + i
                step_lr = lr / (1.0 + decay * (p // epoch_len))
                a, b = off[i] - off[lo], off[i + 1] - off[lo]
                k, v, lb = key[a:b], val[a:b], lab[a:b]
                # one gather serves the dot and the update: (label, feature)
                # keys within one step are unique (CSR rows hold each column
                # once)
                old = wflat[k]
                # bincount adds each row's products in stored order, as the
                # reference loop does
                np.multiply(np.bincount(lb, old * v, n_labels), scale, out=g)
                g += bias
                g *= sgn[i]
                # clipping only changes margins above 35, whose gradient is
                # taken as 0 and which make no update; a NaN margin fails the
                # test too, and is not clipped
                clip = None
                if not np.maximum.reduce(g) <= 35.0:
                    clip = g > 35.0
                    np.minimum(g, 35.0, out=g)
                np.exp(g, out=g)
                g += 1.0
                np.divide(neg[i], g, out=g)
                if clip is not None:
                    g[clip] = 0.0
                scale *= 1.0 - step_lr * l2
                if scale < 1e-9:
                    w *= scale
                    old *= scale
                    scale = 1.0
                g *= step_lr
                # a clipped label's g is +0.0, and b - 0.0 is b bit for bit
                bias -= g
                g /= scale
                if clip is not None:
                    keep = ~clip[lb]
                    k, v, lb, old = k[keep], v[keep], lb[keep], old[keep]
                step = g[lb]
                step *= v
                old -= step
                wflat[k] = old
    return w * scale, bias


# ---------------------------------------------------------------------------
# score_rows: dense (n_labels x dim) weight matrix applied to every CSR row
# ---------------------------------------------------------------------------

# Gathered weights (rows x stored length x labels) per stack of rows that
# score_rows multiplies at once, at least one row: 256 KB of float64.
_SCORE_STACK_WEIGHTS = 1 << 15


def score_rows(indptr, indices, values, weights, bias):
    """Rows of values @ weights.T + bias. Rows of equal stored length are
    scored in stacks: each row's scores are one BLAS product (a gemv) of its
    values with the rows of weights.T at its indices, rows that are
    contiguous when weights is column-major, and each stack is one matmul of
    those products, which numpy makes item by item."""
    nrows = indptr.shape[0] - 1
    n_labels = weights.shape[0]
    wt = weights.T
    out = np.empty((nrows, n_labels), dtype=np.float64)
    if nrows == 0 or n_labels == 0:
        return out
    lens = np.diff(indptr)
    order = group_order(lens, np.zeros(nrows, dtype=np.int64))
    lens = lens[order]
    cuts = np.flatnonzero(lens[1:] != lens[:-1]) + 1
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), nrows]):
        length = int(lens[lo])
        if length == 0:
            out[order[lo:hi]] = bias
            continue
        step = max(1, _SCORE_STACK_WEIGHTS // (length * n_labels))
        for s in range(lo, hi, step):
            rows = order[s:s + step]
            at = indptr[rows, None] + np.arange(length)
            prod = np.matmul(values[at][:, None, :], wt[indices[at]])
            prod += bias
            out[rows] = prod[:, 0]
    return out


# ---------------------------------------------------------------------------
# mi_accumulate: mutual-information sum over the nonzeros of the joint matrix
# ---------------------------------------------------------------------------


def _mi_terms(p, rows, cols, row_sums, col_sums, total):
    """The sum of p * (ln(p * total) - ln(row_sums[rows] * col_sums[cols]))
    over the entries with p > 0 whose row has mass."""
    nz = (p > 0.0) & (row_sums[rows] != 0.0)
    p, rows, cols = p[nz], rows[nz], cols[nz]
    return float(np.sum(p * (np.log(p * total) - np.log(row_sums[rows] * col_sums[cols]))))


def mi_accumulate(zt_indptr, zt_indices, zt_values, y_indptr, y_indices, row_sums, col_sums,
                  total, groups=None):
    """Mutual information of the joint J = Z^T Y (Y as its 0/1 pattern),
    given J's row sums, column sums and total, from the product_chunks
    chunks of J's rows.

    With groups = (ptr, divisors, row sums, column sums, total) it returns
    the pair (J's, G's) from the same pass, G's row k being the sum of J's
    rows ptr[k]:ptr[k + 1] divided by divisors[k] (not divided when
    divisors is empty), and the sums and total being G's. Each chunk is
    summed per (group, column) with coalesce; a group cut by a chunk
    boundary carries its partial sums into the next chunk as leading
    entries, so every sum adds J's rows in order whatever the chunk budget.
    """
    n_labels = col_sums.shape[0]
    mi = g_mi = 0.0
    if groups is not None:
        ptr, divisors, *g_margins = groups
        owner = np.repeat(np.arange(ptr.shape[0] - 1), np.diff(ptr))
        carry_l, carry_p = np.zeros(0, dtype=np.int64), np.zeros(0)
    for lo, hi, indptr, l, p in product_chunks(
            zt_indptr, zt_indices, zt_values, y_indptr, y_indices,
            np.ones(y_indices.shape[0]), n_labels):
        j = np.repeat(np.arange(lo, hi), np.diff(indptr))
        mi += _mi_terms(p, j, l, row_sums, col_sums, total)
        if groups is None:
            continue
        k0, k1 = owner[lo], owner[hi - 1] + 1
        indptr, l, p = coalesce(np.concatenate((carry_l, (owner[j] - k0) * n_labels + l)),
                                np.concatenate((carry_p, p)), k1 - k0, n_labels)
        # the chunk's last group is closed unless it goes on past hi
        closed = k1 - k0 - (ptr[k1] > hi)
        end = indptr[closed]
        carry_l, carry_p = l[end:], p[end:]
        k = np.repeat(np.arange(k0, k0 + closed), np.diff(indptr[:closed + 1]))
        p = p[:end] / divisors[k] if divisors.shape[0] else p[:end]
        g_mi += _mi_terms(p, k, l[:end], *g_margins)
    if groups is None:
        return mi / total
    return mi / total, g_mi / g_margins[2]
