"""Byte-exact ``'%.17g' % x`` for arrays of finite doubles.

`write_cells` spells each value of a float64 array into a row of a uint8
matrix, with the bytes Python's ``%`` gives it, by array operations and no
Python call per value.

- **Exponent.**  k = floor(log10 |x|) from `np.log10`, corrected by one
  step from the *unrounded* scaled value, so that |x| * 10^(16 - k) lies
  in [1e16, 1e17).  (`np.log10(1e-280)` is exactly -280, yet the double
  1e-280 lies below 10^-280.)
- **Digits.**  The 17 significant digits are round(|x| * 10^(16 - k)).
  10^p, p = 16 - k, is the unevaluated sum hi + lo of two doubles, from
  exact integer arithmetic, and |x| * hi is split exactly into a double
  and its rounding error by Dekker's product (Numer. Math. 18, 224
  (1971)).  The scaled value is y = P + E, where P is a double >= 2^53,
  so an integer, and E carries the rest.  Its error is below 4e-15 in
  absolute terms: lo is off 10^p - hi by at most 2^-106 hi, and |x| * lo
  and the sum E are each rounded once, with |x| * |lo| <= y 2^-53 < 12
  and |E| < 20.
- **Fallback.**  A value whose E lies within `_MARGIN` = 2^-32, far above
  that error, of a rounding half (exact ties included: Python rounds them
  half to even), whose magnitude lies outside [1e-280, 1e280] (10^p is
  tabled for the exponents of that range), or whose 17 digits do not
  land in [10^16, 10^17], is spelled by ``%`` itself.

Cells are laid out by one int16 class key (k, significant digits after
trailing zeros are stripped, sign).  A stable argsort of an int16 key is
numpy's radix sort; each class then takes one gather, by a cached index
list, from rows that hold its values' digits and the constant bytes of
``%g``'s two forms.  The tables are built on first use; importing this
module computes nothing.
"""

from __future__ import annotations

import functools

import numpy as np

# the longest cell: "-" + 17 digits + "." + "e-" + a 3-digit exponent
WIDTH = 24

_LO, _HI = 1e-280, 1e280
# exponents k whose 10^(16 - k) is tabled: those of [_LO, _HI], the least
# -281 (the double 1e-280 lies below 10^-280), and one more on each side,
# where log10 may miss
_KMIN, _KMAX = -282, 281
_MARGIN = 2.0**-32
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter
# a source row is 32 bytes: the 17 digit bytes, then the constant bytes
# that the index lists take (among them the zeros of "0.000ddd" and the
# exponent's digits)
_TAIL = b"-.e+0123456789\0"
_AT = {c: 17 + i for i, c in enumerate(_TAIL[:14].decode())}


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLIT
    upper = c - (c - v)
    return upper, v - upper


@functools.cache
def _pow10() -> tuple[np.ndarray, np.ndarray]:
    """hi and lo of p = 16 - k, indexed by k - _KMIN: hi is 10^p rounded
    and lo the exact remainder 10^p - hi rounded (a normal double for
    every p here), so that hi + lo is 10^p to within 2^-106 of it."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        p = 16 - k
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den  # int true division rounds correctly
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    return np.array(hi), np.array(lo)


@functools.cache
def _words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The source words of a row: for g in [0, 10^4), the four ASCII digits
    of g as the low and as the high half of a little-endian uint64; and the
    two words that end a row, `_TAIL` after its last digit."""
    g = np.arange(10**4, dtype=np.uint16)
    text = np.empty((10**4, 4), dtype=np.uint8)
    for i, power in enumerate((1000, 100, 10, 1)):
        text[:, i] = g // power % 10 + ord("0")
    low = text.view("<u4").ravel().astype(np.uint64)
    tail = np.frombuffer(b"\0" + _TAIL, dtype="<u8").astype(np.uint64)
    return low, low << np.uint64(32), tail


@functools.cache
def _layout(key: int) -> np.ndarray:
    """The index list of class `key`: the source byte of each byte of a
    cell with exponent k, s significant digits and the key's sign."""
    rest, neg = divmod(key, 2)
    k, s = divmod(rest, 17)
    k, s = k + _KMIN, s + 1
    digits = list(range(s))
    sign = [_AT["-"]] if neg else []
    if -4 <= k < 17:  # %g's fixed form
        if k < 0:
            body = [_AT["0"], _AT["."]] + [_AT["0"]] * (-k - 1) + digits
        elif s <= k + 1:
            body = list(range(k + 1))  # the digits past s are zeros
        else:
            body = digits[: k + 1] + [_AT["."]] + digits[k + 1 :]
    else:
        mantissa = digits[:1] + ([_AT["."]] + digits[1:] if s > 1 else [])
        body = mantissa + [_AT[c] for c in "e%+03d" % k]
    return np.array(sign + body, dtype=np.intp)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - k) as P + E, P its rounded double."""
    hi, lo = (t[k - _KMIN] for t in _pow10())
    p = a * hi
    ah, al = _split(a)
    hh, hl = _split(hi)
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    return p, e


def classify(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int16 class key of each finite double of `x` (-1: spelled by
    ``%``) and its 17 significant digits as an integer (0 for zero, and a
    placeholder where the key is -1)."""
    n = len(x)
    a = np.abs(x)
    fast = (a >= _LO) & (a <= _HI)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    p, e = _scaled(a, k)
    # y = P + E below 1e16 or from 1e17 up: log10 missed k by one
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], e[fix] = _scaled(a[fix], k[fix])
    r = np.rint(e)
    fast &= np.abs(e - r) < 0.5 - _MARGIN
    d = p.astype(np.int64) + r.astype(np.int64)
    fast &= (d >= 10**16) & (d <= 10**17)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    d[~fast] = 1  # digits that no cell takes, in the tables' range
    zero = x == 0
    d[zero] = 0
    k[zero] = 0
    fast |= zero
    # trailing zeros: tz = j where d is a multiple of 10^j (zero's digit 0
    # is its one significant digit)
    tz = np.where(zero, 16, 0)
    more = np.flatnonzero((d % 10 == 0) & ~zero)
    for j in range(1, 17):
        if not more.size:
            break
        tz[more] = j
        more = more[d[more] % 10 ** (j + 1) == 0]
    key = (((k - _KMIN) * 17 + (16 - tz)) * 2 + np.signbit(x)).astype(np.int16)
    key[~fast] = -1
    return key, d


def write_cells(x: np.ndarray, dest: np.ndarray, rows: np.ndarray) -> None:
    """Write the ASCII bytes of ``'%.17g' % x[i]`` for a finite float64
    array `x` into ``dest[rows[i]]`` from its first byte.  `dest` is a uint8
    matrix at least `WIDTH` wide whose first `WIDTH` bytes of those rows
    are zero; they stay zero past each cell, and the bytes past `WIDTH` are
    left as they are."""
    n = len(x)
    if not n:
        return
    key, d = classify(x)
    order = np.argsort(key, kind="stable")
    key = key[order]
    d = d[order]
    # the 17 digits in four groups of four and the last digit
    upper, rest = np.divmod(d, 10**9)
    middle, last = np.divmod(rest, 10)
    low, high, tail = _words()
    src = np.empty((n, 4), dtype="<u8")
    for i, group in enumerate((upper, middle)):
        first, second = np.divmod(group, 10**4)
        src[:, i] = low[first] | high[second]
    src[:, 2] = tail[0] | last.astype(np.uint64) + np.uint64(ord("0"))
    src[:, 3] = tail[1]
    src = src.view(np.uint8)
    at = rows[order]
    edges = np.flatnonzero(key[1:] != key[:-1]) + 1
    starts = [0, *edges.tolist()]
    stops = [*starts[1:], n]
    for c, i, j in zip(key[starts].tolist(), starts, stops):
        if c < 0:
            text = ["%.17g" % v for v in x[order[i:j]].tolist()]
            cells = np.array(text, dtype="S%d" % WIDTH).view(np.uint8).reshape(-1, WIDTH)
            dest[at[i:j], :WIDTH] = cells
        else:
            idx = _layout(c)
            dest[at[i:j], : len(idx)] = src[i:j][:, idx]
