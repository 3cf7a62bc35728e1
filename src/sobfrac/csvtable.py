"""Exact `%.17g` CSV tables written from numpy arrays.

`write_table` writes the lines "head,label,value" of a (heads x labels)
float block, time-major, byte for byte as `'%.17g' % value` would.
Seventeen digits lie past the fast path of Python's dtoa, so per-value
conversion is bignum work; here the rounding is a numpy kernel:

- the sign and binary exponent pick a slot: the decimal exponent x of
  |v| rounded to 17 digits is floor(E log10 2) or one more, decided by
  one comparison against the smallest double that rounds to 10^(x+1);
- |v| 10^(16-x) is a Dekker two-product (Numer. Math. 18, 1971) against a
  double-double power of ten, then rounded half-even to a 17-digit int64;
  the computed sum is within about 1e-13 of the exact product;
- the digits come from a 4-digit ASCII table as little-endian words;
  masks and bytes from small tables, indexed by the layout of the
  exponent's class and the count of trailing zeros, lay them out with
  the point, sign, prefix, exponent and newline in a NUL-padded field.

A value within 1e-6 of a rounding tie, with x outside [-44, 36], or that
is nan, inf or subnormal is written with `'%.17g' % v` itself.  Lines are
laid out in a NUL-padded word matrix per block of rows and compacted, so
no copy of the whole text is held; every block reuses one line matrix and
one scratch array, which the kernel writes through `out=`.  The words are
int64: ASCII bytes never set a sign bit, and one integer type keeps the
kernel to few numpy loops.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# exponents the double-double powers serve: k = 16 - x in [-20, 60]
_X_MIN, _X_MAX = -44, 36
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitter
# |e - rint(e)| above this is within 1e-6 of a tie
_TIE_LIMIT = 0.5 - 1e-6
_CAP = 1e300   # |v| is capped: nan and inf turn finite, the splitter cannot overflow
# fewer values per block pay more numpy calls per value; 3,200 to 4,800
# measured fastest, and 4,800 takes the README trajectory table's peak
# memory past 1 MB
_BLOCK_VALUES = 3200
# head and label columns one process keeps: the CLI writes each table's
# time heads twice per run, and often the same ones run after run
_COLUMN_MEMO = 8
_SCRATCH_ROWS = 12
_DIGITS = 17
_BODY_WORDS = 3
_FIELD_WORDS = 1 + _BODY_WORDS


def _ratio(k: int) -> tuple:
    """10^k as (numerator, denominator)."""
    return (10 ** k, 1) if k >= 0 else (1, 10 ** -k)


def _pow10_double_double(k: int) -> tuple:
    """(hi, lo, hi's Veltkamp halves): hi + lo is 10^k to about 2^-106."""
    num, den = _ratio(k)
    hi = num / den
    h_num, h_den = hi.as_integer_ratio()
    lo = (num * h_den - h_num * den) / (den * h_den)
    c = _SPLIT * hi
    hi_high = c - (c - hi)
    return hi, lo, hi_high, hi - hi_high


def _rounds_up_to(x: int) -> float:
    """The smallest double that rounds half-even to 17 digits at or above
    10^x: at or above (10^18 - 5) 10^(x-18), where the tie rounds up to
    the even 10^17 10^(x-17)."""
    num, den = _ratio(x - 18)
    num *= 10 ** 18 - 5
    f = num / den
    f_num, f_den = f.as_integer_ratio()
    return f if f_num * den >= num * f_den else math.nextafter(f, math.inf)


def _placed(size: int, *pieces) -> bytes:
    """`size` bytes holding each (offset, text) piece, NUL elsewhere."""
    data = bytearray(size)
    for at, text in pieces:
        data[at:at + len(text)] = text
    return bytes(data)


def _word_table(rows: list, words: int) -> np.ndarray:
    """(words, len(rows)) int64: column i holds the words of rows[i]."""
    table = np.frombuffer(b"".join(rows), "<i8").reshape(len(rows), words)
    return np.ascontiguousarray(table.T)


# 4-digit groups as ASCII words: bytes 0-3 of _DIGIT_WORDS[n] are
# "%04d" % n, and byte 7 counts that text's trailing zeros; assembled from
# 100 two-digit pieces
_pairs = np.frombuffer(b"".join(b"%02d" % n for n in range(100)), np.uint8).reshape(100, 2)
_zeros = [2] + [int(n % 10 == 0) for n in range(1, 100)]
_DIGIT_WORDS = np.zeros((100, 100, 8), np.uint8)
_DIGIT_WORDS[:, :, :2] = _pairs[:, None]
_DIGIT_WORDS[:, :, 2:4] = _pairs
_DIGIT_WORDS[:, :, 7] = _zeros
_DIGIT_WORDS[:, 0, 7] = [2 + z for z in _zeros]
_DIGIT_WORDS = _DIGIT_WORDS.view("<i8").ravel()
del _pairs, _zeros

# layout codes p of the body, with the count t of trailing zeros
_PREFIXED, _ZERO, _EXPONENT = 0, _DIGITS + 1, _DIGITS + 2
_BODY = 8 * _BODY_WORDS


def _body_tables() -> tuple:
    """Masks for the digit words, their copy shifted one byte up, and the
    other bytes of a field's 24-byte body, per (p, t): column p 18 + t.

    p in [1, 17] is the fixed notation with p digits before the point:
    those digits unshifted, then a point and the shifted digits up to
    the last significant one, 17 - t, when any remain, then the newline.
    p = 0 (_PREFIXED) follows the "0.000" prefix: the significant digits
    and the newline.  _ZERO writes "0".  _EXPONENT is p = 1 without the
    newline: the slot's last word brings the exponent and the newline in
    bytes 19-23.  So the text runs from byte 0 without gaps but before
    an exponent, and compaction meets few runs of NUL bytes.
    """
    nothing, everything = bytes(_BODY), b"\xff" * _BODY

    def keep(start: int, stop: int) -> bytes:
        return nothing[:start] + everything[start:stop] + nothing[stop:]

    before, after, extra = [], [], []
    for p in range(_EXPONENT + 1):
        head = 1 if p == _EXPONENT else p
        newline = b"" if p == _EXPONENT else b"\n"
        for t in range(_DIGITS + 1):
            s = _DIGITS - t
            if p == _PREFIXED:
                rows = keep(0, s), nothing, _placed(_BODY, (s, b"\n"))
            elif p == _ZERO:
                rows = nothing, nothing, _placed(_BODY, (0, b"0\n"))
            elif s > head:
                rows = (keep(0, head), keep(head + 1, s + 1),
                        _placed(_BODY, (head, b"."), (s + 1, newline)))
            else:
                rows = keep(0, head), nothing, _placed(_BODY, (head, newline))
            for table, row in zip((before, after, extra), rows):
                table.append(row)
    return tuple(_word_table(t, _BODY_WORDS) for t in (before, after, extra))


# (3, 20 * 18) each; byte 0 is the leading digit, which the digit words
# hold as a number, or zero's "0"
_KEEP_BEFORE, _KEEP_AFTER, _EXTRA = _body_tables()
_EXTRA[0] |= ord("0")

# Slots: 0 is zero, 1 every value written with `%` (subnormal, x outside
# the window, inf, nan), x - _X_MIN + 2 the decimal exponent x in
# [_X_MIN, _X_MAX + 1], where x = _X_MAX + 1 falls back too.  A set sign
# bit adds _SLOTS.
_SLOTS = _X_MAX - _X_MIN + 4


def _exponent_table() -> np.ndarray:
    """(2, 4096) int64 over a double's sign and biased exponent b: the
    slot of x = floor((b - 1023) log10 2), and the bits of the smallest
    double that rounds to 10^(x+1), from which a value takes the next
    slot (inf where none does; at b = 0 the subnormals leave zero's for
    slot 1).  Built in Python: numpy's array functions would map more of
    its code into memory at import."""
    thresholds = [_rounds_up_to(k) for k in range(_X_MIN, _X_MAX + 2)]
    slot, up = [0], [5e-324]
    for b in range(1, 2048):
        x = ((b - 1023) * 78913) >> 18
        served = _X_MIN - 1 <= x <= _X_MAX
        slot.append(x - _X_MIN + 2 if served else 1)
        up.append(thresholds[x + 1 - _X_MIN] if served else math.inf)
    return np.array([slot + [s + _SLOTS for s in slot], np.array(up * 2).view(np.int64)])


def _slot_table() -> np.ndarray:
    """(8, 2 _SLOTS) int64 per slot: the bits of hi, lo, hi_high, hi_low
    (10^(16-x) as in _pow10_double_double, 0 where `%` writes) and of the
    tie limit (-1 there); the first word (the "-" of a set sign bit and
    the "0.000" prefix, ending at byte 7); the layout code times 18; and
    the body's last word (exponent and newline)."""
    table = np.zeros((8, 2, _SLOTS), np.int64)
    floats = table[:5].view(np.float64)
    floats[4] = -1.0
    floats[4, :, 0] = _TIE_LIMIT
    table[5:7, :, 0] = [[0, ord("-") << 56], [_ZERO * (_DIGITS + 1)] * 2]
    for x in range(_X_MIN, _X_MAX + 1):
        slot, fixed = x - _X_MIN + 2, -4 <= x <= 16
        lead = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        floats[:, :, slot] = np.array([*_pow10_double_double(16 - x), _TIE_LIMIT])[:, None]
        table[5, :, slot] = np.frombuffer(
            lead.rjust(8, b"\0") + (b"-" + lead).rjust(8, b"\0"), "<i8")
        code = x + 1 if fixed and x >= 0 else _PREFIXED if fixed else _EXPONENT
        table[6, :, slot] = code * (_DIGITS + 1)
        table[7, :, slot] = _word_table([_placed(8, (3, b"" if fixed else b"e%+03d\n" % x))], 1)
    return table.reshape(8, -1)


_EXPONENTS = _exponent_table()
_SLOT_TABLE = _slot_table()


def _round17(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Round |v| half-even to n 10^(x-16), n a 17-digit int64 left in w[4],
    with the slot's first word, layout code and last word in w[9:12]; `w`
    is (_SCRATCH_ROWS, v.size) scratch.  Returns the flat indices of the
    values to write with `%`: ties, and the slots that fall back, where n
    is a placeholder."""
    ints = w.view(np.int64)
    key = ints[0]
    np.right_shift(v.view(np.uint64), 52, out=key.view(np.uint64).reshape(v.shape))
    np.take(_EXPONENTS, key, axis=1, out=ints[1:3], mode="clip")
    a = w[3]
    np.abs(v, out=a.reshape(v.shape))
    np.fmin(a, _CAP, out=a)
    ints[1] += np.greater_equal(a, w[2], out=key.view(np.bool_)[:a.size])
    # the index is in range; mode="clip" lets take write to `out` unbuffered
    np.take(_SLOT_TABLE, ints[1], axis=1, out=ints[4:12], mode="clip")
    p, lo, hi_h, hi_l, tie_limit = w[4:9]
    p *= a
    # |v| 10^(16-x) = p + e: p an even integer in [1e16 - 2, 1e17 + 16]
    # (0 where `%` writes), |e| < 20, and
    # e = (((a_h hi_h - p) + a_h hi_l + a_l hi_h) + a_l hi_l) + a lo
    a_h, a_l, e = w[0:3]
    np.multiply(a, _SPLIT, out=a_h)
    np.subtract(a_h, a, out=a_l)
    a_h -= a_l
    np.subtract(a, a_h, out=a_l)
    np.multiply(a_h, hi_h, out=e)
    e -= p
    for term, factor in ((a_h, hi_l), (hi_h, a_l), (hi_l, a_l), (lo, a)):
        term *= factor
        e += term
    r = np.rint(e, out=lo)
    e -= r
    np.abs(e, out=e)
    fallback = np.flatnonzero(np.greater(e, tie_limit, out=a.view(np.bool_)[:a.size]))
    n = ints[4]
    np.copyto(n, p, casting="unsafe")
    np.copyto(ints[6], r, casting="unsafe")
    n += ints[6]
    return fallback


def _digit_words(w: np.ndarray) -> None:
    """From n in w[4], the 17 digits as three little-endian words in
    w[0:3] (the leading one as a number, the others ASCII), the same one
    byte up in w[4:7], and the layout code plus n's trailing zeros, the
    masks' column, in w[10]."""
    ints, uints = w.view(np.int64), w.view(np.uint64)
    n, halves, lead = ints[4], ints[5:7], ints[8]
    # n = lead, then two 8-digit halves of two 4-digit groups each; all
    # are nonnegative, and unsigned division is the faster
    np.floor_divide(uints[4], 10 ** 8, out=uints[5])
    np.multiply(halves[0], 10 ** 8, out=halves[1])
    np.subtract(n, halves[1], out=halves[1])
    np.floor_divide(uints[5], 10 ** 8, out=uints[8])
    np.multiply(lead, 10 ** 8, out=n)
    halves[0] -= n
    quads, groups = ints[0:4:2], ints[1:4:2]
    np.floor_divide(uints[5:7], 10 ** 4, out=uints[0:4:2])
    np.multiply(quads, 10 ** 4, out=groups)
    np.subtract(halves, groups, out=groups)
    words = ints[4:8]
    np.take(_DIGIT_WORDS, ints[0:4], out=words, mode="clip")
    digits = ints[0:3]
    np.left_shift(words[0::2], 8, out=digits[:2])
    np.left_shift(words[1::2], 40, out=ints[2:4])
    digits[:2] |= ints[2:4]
    # the last byte of each 8-digit half: row 3 for digits[1], row 2 is digits[2]
    np.right_shift(words[1::2], 24, out=ints[3:1:-1])
    ints[2:4] &= 0xFF
    digits[1] |= ints[3]
    digits[0] |= lead
    # trailing zeros of each half, then of n; z >> 2 (z >> 3) is 1 just
    # when a group (a half) is all zeros
    words >>= 56
    spare = ints[3:9:5]
    np.right_shift(words[1::2], 2, out=spare)
    spare *= words[0::2]
    words[1::2] += spare
    np.right_shift(words[3], 3, out=ints[3])
    ints[3] *= words[1]
    ints[10] += words[3]
    ints[10] += ints[3]
    shifted = ints[4:7]
    np.left_shift(digits, 8, out=shifted)
    np.right_shift(digits[:2], 56, out=ints[7:9])
    shifted[1:] |= ints[7:9]


def _value_words(v: np.ndarray, out: np.ndarray, w: np.ndarray) -> None:
    """Write into `out`, (v.size, 4) int64, the little-endian bytes of
    '%.17g' % v and a newline for each value of v, NUL-padded; `w` is
    (_SCRATCH_ROWS, v.size) scratch."""
    fallback = _round17(v, w)
    ints = w.view(np.int64)
    np.copyto(out[:, 0], ints[9])
    _digit_words(w)
    digits, shifted, pair = ints[0:3], ints[4:7], ints[10]
    body = np.take(_KEEP_BEFORE, pair, axis=1, out=ints[7:10], mode="clip")
    body &= digits
    after = np.take(_KEEP_AFTER, pair, axis=1, out=digits, mode="clip")
    after &= shifted
    body |= after
    extra = np.take(_EXTRA, pair, axis=1, out=shifted, mode="clip")
    extra[2] |= ints[11]
    np.bitwise_or(body, extra, out=out[:, 1:].T)
    for i in fallback.tolist():
        text = ("%.17g\n" % v.flat[i]).encode("ascii")
        out[i] = np.frombuffer(text.rjust(8 * _FIELD_WORDS, b"\0"), "<i8")


@functools.lru_cache(maxsize=_COLUMN_MEMO)
def _column(texts: tuple, align) -> np.ndarray:
    """(len(texts), words) little-endian int64 words, read-only: each text
    and a comma, padded with NUL by `align` (bytes.ljust or bytes.rjust)."""
    encoded = [f"{t},".encode("utf-8") for t in texts]
    width = -(-max(map(len, encoded)) // 8) * 8
    return np.frombuffer(b"".join(align(t, width, b"\0") for t in encoded),
                         "<i8").reshape(len(encoded), width // 8)


def write_table(out, heads, labels, values: np.ndarray) -> None:
    """Write "head,label,value\\n" for every cell of `values`, time-major.

    `heads` (one per row) and `labels` (one per column) are strings
    without NUL; `out` is a binary file.  A table without rows or columns
    writes nothing.  Rows are written in as few blocks of whole rows as
    hold at most _BLOCK_VALUES values each (one row at least), all of one
    size but the last; the line matrix and the kernel's scratch are
    allocated once, for one block.  Heads are right-aligned, so a line's
    text is few runs between NUL bytes: the padding after one line's
    value joins the padding before the next head.  The head and label
    words are memoized per (texts, alignment), so tables that share a
    column build it once.
    """
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    if not rows or not cols:
        return
    head_words = _column(tuple(heads), bytes.rjust)
    label_words = _column(tuple(labels), bytes.ljust)
    h_w = head_words.shape[1]
    l_w = h_w + label_words.shape[1]
    width = l_w + _FIELD_WORDS
    blocks = -(-rows // max(1, _BLOCK_VALUES // cols))
    step = -(-rows // blocks)
    lines = np.empty((step, cols, width), "<i8")
    lines[:, :, h_w:l_w] = label_words
    # the kernel's rows, and afterwards the compaction's mask
    scratch = np.empty(max(_SCRATCH_ROWS, width) * lines.shape[0] * cols)
    for start in range(0, rows, step):
        block = values[start:start + step]
        size = block.size
        block_lines = lines[:len(block)]
        block_lines[:, :, :h_w] = head_words[start:start + step, None, :]
        _value_words(block, block_lines.reshape(size, width)[:, l_w:],
                     scratch[:_SCRATCH_ROWS * size].reshape(_SCRATCH_ROWS, size))
        text = block_lines.view(np.uint8).reshape(-1)
        keep = np.not_equal(text, 0, out=scratch.view(np.bool_)[:text.size])
        out.write(text[keep])
