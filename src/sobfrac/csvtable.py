"""Exact `%.17g` CSV tables written from numpy arrays.

`write_table` writes the lines "head,label,value" of a (heads x labels)
float block, time-major, byte for byte as `'%.17g' % value` would.
Seventeen digits lie past the fast path of Python's dtoa, so per-value
conversion is bignum work; here the rounding is a numpy kernel:

- the decimal exponent x = floor(log10 |v|) comes from the binary
  exponent and one comparison against the smallest double at or above
  10^(x+1);
- |v| 10^(16-x) is a Dekker two-product (Numer. Math. 18, 1971) against a
  double-double power of ten, then rounded half-even to a 17-digit int64;
  the computed sum is within about 1e-13 of the exact product;
- the digits come from a 4-digit ASCII table as little-endian words;
  masks and bytes from small tables, indexed by the layout of the
  exponent's class and the count of trailing zeros, lay them out with
  the point, sign, prefix, exponent and newline in a NUL-padded field.

A value within 1e-6 of a rounding tie, with x outside [-44, 36], or that
is nan or inf is written with `'%.17g' % v` itself.  Lines are laid out in
a NUL-padded word matrix per block of rows and compacted, so no copy of
the whole text is held.  The words are int64: ASCII bytes never set a
sign bit, and one integer type keeps the kernel to few numpy loops.
"""

from __future__ import annotations

import math

import numpy as np

# exponents the double-double powers serve: k = 16 - x in [-20, 60]
_X_MIN, _X_MAX = -44, 36
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitter
_TIE_WIDTH = 1e-6
_BLOCK_BYTES = 1 << 17
_DIGITS = 17
_BODY_WORDS = 3
_FIELD_WORDS = 1 + _BODY_WORDS


def _split(a: float) -> tuple:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _ratio(k: int) -> tuple:
    """10^k as (numerator, denominator)."""
    return (10 ** k, 1) if k >= 0 else (1, 10 ** -k)


def _pow10_double_double(k: int) -> tuple:
    """(hi, lo, hi's Veltkamp halves): hi + lo is 10^k to about 2^-106."""
    num, den = _ratio(k)
    hi = num / den
    h_num, h_den = hi.as_integer_ratio()
    lo = (num * h_den - h_num * den) / (den * h_den)
    return (hi, lo, *_split(hi))


def _ceil_pow10(x: int) -> float:
    """The smallest double >= 10^x."""
    num, den = _ratio(x)
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
    """(words, len(rows)) int64: column i holds the little-endian words of
    the bytes rows[i]."""
    table = np.frombuffer(b"".join(rows), "<i8").reshape(len(rows), words)
    return np.ascontiguousarray(table.T)


# rows hi, lo, hi_high, hi_low; column _X_MAX - x holds 10^(16 - x)
_POW10 = np.array([v for row in zip(*(_pow10_double_double(16 - x)
                                      for x in range(_X_MAX, _X_MIN - 1, -1)))
                   for v in row]).reshape(4, -1)
# index x - _CEIL_X0: the smallest double >= 10^x, for x up to one past
# every floor(E log10 2) of a binary exponent E in [-1023, 1024]; only the
# window's x in [_X_MIN, _X_MAX + 1] decide a value the kernel writes, the
# others are placeholders
_CEIL_X0 = -307
_CEIL_POW10 = np.full(310 - _CEIL_X0, math.inf)
_CEIL_POW10[_X_MIN - _CEIL_X0:_X_MAX + 2 - _CEIL_X0] = [
    _ceil_pow10(x) for x in range(_X_MIN, _X_MAX + 2)]

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


# (3, 20 * 18) each
_KEEP_BEFORE, _KEEP_AFTER, _EXTRA = _body_tables()


def _slot_tables() -> tuple:
    """Per slot x - _X_MIN, x in [_X_MIN, _X_MAX + 1], and a last slot for
    zero: the layout code, the first word (the prefix, and the "-" that
    the sign bit multiplies, both ending at byte 7 against the body) and
    the body's last word (exponent and newline)."""
    code, prefix, minus, last = [], [], [], []
    for x in range(_X_MIN, _X_MAX + 2):
        fixed = -4 <= x <= 16
        lead = b"0." + b"0" * (-x - 1) if fixed and x < 0 else b""
        code.append(x + 1 if fixed and x >= 0 else _PREFIXED if fixed else _EXPONENT)
        prefix.append(_placed(8, (8 - len(lead), lead)))
        minus.append(_placed(8, (7 - len(lead), b"-")))
        last.append(_placed(8, (3, b"" if fixed else b"e%+03d\n" % x)))
    code.append(_ZERO)
    prefix.append(_placed(8))
    minus.append(_placed(8, (7, b"-")))
    last.append(_placed(8))
    return (np.array(code), *(_word_table(t, 1)[0] for t in (prefix, minus, last)))


_ZERO_SLOT = _X_MAX + 2 - _X_MIN
_LAYOUT, _PREFIX, _MINUS, _LAST_WORD = _slot_tables()


def _round17(v: np.ndarray) -> tuple:
    """(n, x, regular): |v| rounded half-even to n 10^(x-16), n a 17-digit
    int64 and x = floor(log10 |v|) after rounding.  Where regular is False
    (nan, inf, zero, x outside the window, within _TIE_WIDTH of a tie),
    n and x are placeholders."""
    a = np.abs(v)
    # nan, inf, zero and the values outside the window fail both tests
    regular = ((a >= _CEIL_POW10[_X_MIN - _CEIL_X0])
               & (a < _CEIL_POW10[_X_MAX + 1 - _CEIL_X0]))
    # floor(E log10 2) for the binary exponent E is x or x - 1
    x = a.view(np.int64) >> 52
    x -= 1023
    x *= 78913
    x >>= 18
    x += a >= np.take(_CEIL_POW10, x + (1 - _CEIL_X0))
    # the products see only values inside the window
    irregular = ~regular
    a[irregular] = 1.0
    x[irregular] = 0

    hi, lo, hi_h, hi_l = np.take(_POW10, _X_MAX - x, axis=1)
    p = a * hi
    a_h = _SPLIT * a
    a_h -= a_h - a
    a_l = a - a_h
    # |v| 10^(16-x) = p + e: p is an even integer in [1e16, 1e17], |e| < 20;
    # e = (((a_h hi_h - p) + a_h hi_l + a_l hi_h) + a_l hi_l) + a lo
    e = a_h * hi_h
    e -= p
    e += a_h * hi_l
    e += a_l * hi_h
    e += a_l * hi_l
    e += a * lo
    r = np.rint(e)
    # a value that rounds up to 10^17 is 10^16 at the next exponent
    carry = r >= 1e17 - p
    n = p.astype(np.int64)
    n += r.astype(np.int64)
    n -= carry * (9 * 10 ** 16)
    x += carry
    e -= r
    regular &= np.abs(np.abs(e) - 0.5) >= _TIE_WIDTH
    return n, x, regular


def _digit_words(n: np.ndarray) -> tuple:
    """(digits, shifted, trailing): the 17 digits of n as ASCII in bytes
    0-16 of three little-endian words, the same one byte up, and the
    count of n's trailing zeros."""
    # n = lead, then two 8-digit halves of two 4-digit groups each
    halves = np.empty((2, n.size), np.int64)
    np.floor_divide(n, 10 ** 8, out=halves[0])
    np.subtract(n, halves[0] * 10 ** 8, out=halves[1])
    lead = halves[0] // 10 ** 8
    halves[0] -= lead * 10 ** 8
    quads = halves // 10 ** 4
    halves -= quads * 10 ** 4
    w_hi, w_lo = np.take(_DIGIT_WORDS, quads), np.take(_DIGIT_WORDS, halves)
    del halves, quads
    digits = np.empty((_BODY_WORDS, n.size), np.int64)
    digits[0] = lead + ord("0") | w_hi[0] << 8 | w_lo[0] << 40
    digits[1] = w_lo[0] >> 24 & 0xFF | w_hi[1] << 8 | w_lo[1] << 40
    digits[2] = w_lo[1] >> 24 & 0xFF
    # trailing zeros of each half, then of n; z >> 2 (z >> 3) is 1 just
    # when a group (a half) is all zeros
    w_lo >>= 56
    w_hi >>= 56
    w_lo += (w_lo >> 2) * w_hi
    trailing = w_lo[1] + (w_lo[1] >> 3) * w_lo[0]
    del w_hi, w_lo
    shifted = digits << 8
    shifted[1:] |= digits[:2] >> 56
    return digits, shifted, trailing


def _value_words(v: np.ndarray) -> np.ndarray:
    """(4, n) int64: the little-endian bytes of '%.17g' % v and a newline
    for each of the n values, NUL-padded."""
    n, x, regular = _round17(v)
    digits, shifted, trailing = _digit_words(n)
    del n
    zero = v == 0.0
    slot = np.where(zero, _ZERO_SLOT, x - _X_MIN)
    pair = np.take(_LAYOUT, slot) * (_DIGITS + 1) + trailing
    words = np.empty((_FIELD_WORDS, v.size), np.int64)
    words[0] = np.take(_PREFIX, slot) | np.signbit(v) * np.take(_MINUS, slot)
    body = words[1:]
    # the indices are in range; mode="clip" lets take write to `out` unbuffered
    np.take(_KEEP_BEFORE, pair, axis=1, out=body, mode="clip")
    body &= digits
    after = np.take(_KEEP_AFTER, pair, axis=1, out=digits, mode="clip")
    after &= shifted
    body |= after
    body |= np.take(_EXTRA, pair, axis=1, out=shifted, mode="clip")
    body[2] |= np.take(_LAST_WORD, slot)
    for i in np.flatnonzero(~(regular | zero)).tolist():
        text = ("%.17g\n" % v[i]).encode("ascii")
        words[:, i] = np.frombuffer(text.rjust(8 * _FIELD_WORDS, b"\0"), "<i8")
    return words


def _column(texts, align) -> np.ndarray:
    """(len(texts), words) little-endian int64 words: each text and a
    comma, padded with NUL by `align` (bytes.ljust or bytes.rjust)."""
    encoded = [f"{t},".encode("utf-8") for t in texts]
    width = -(-max(map(len, encoded)) // 8) * 8
    return np.frombuffer(b"".join(align(t, width, b"\0") for t in encoded),
                         "<i8").reshape(len(encoded), width // 8)


def write_table(out, heads, labels, values: np.ndarray) -> None:
    """Write "head,label,value\\n" for every cell of `values`, time-major.

    `heads` (one per row) and `labels` (one per column) are strings
    without NUL; `out` is a binary file.  Rows are written in blocks of
    about 128 KiB of padded text.  Heads are right-aligned, so a line's
    text is few runs between NUL bytes: the padding after one line's
    value joins the padding before the next head.
    """
    values = np.asarray(values, dtype=float)
    rows, cols = values.shape
    head_words, label_words = _column(heads, bytes.rjust), _column(labels, bytes.ljust)
    h_w = head_words.shape[1]
    l_w = h_w + label_words.shape[1]
    width = l_w + _FIELD_WORDS
    step = max(1, _BLOCK_BYTES // (8 * cols * width))
    for start in range(0, rows, step):
        block = values[start:start + step]
        lines = np.empty((len(block), cols, width), "<i8")
        lines[:, :, :h_w] = head_words[start:start + step, None, :]
        lines[:, :, h_w:l_w] = label_words
        lines[:, :, l_w:] = _value_words(block.ravel()).T.reshape(len(block), cols, -1)
        text = lines.view(np.uint8)
        out.write(text[text != 0])
