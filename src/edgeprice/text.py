"""Text output: each float format, written once, and one writer of rows.

``format_rows`` writes a batch of rows in bulk with numpy when its row
template holds only ``%d`` and ``%.<P>g`` conversions (1 <= P <= 17) and
every cell is in the domain below; the text is what ``%`` writes, byte for
byte. The rest goes through ``%`` whole (``_percent``).

- ``%d``: a bool, an int, or a finite float below 2**64 in magnitude,
  truncated as ``int`` truncates. Its text is the decimal digits of the
  uint64 magnitude, nine places to a uint32 group.
- ``%.<P>g``: ±0, ±inf and nan are written as ``%`` writes them. A finite
  nonzero x is exactly M * 2**(e - 53) by ``np.frexp``, with M < 2**53 an
  integer. ``log10`` estimates its decimal exponent X, taken one lower
  within 1e-9 of an integer, so X is floor(log10 x) or one less. The digits
  are N = x * 10**q rounded half to even, q = P - 1 - X, that is
  M * 5**q / 2**(53 - e - q). For 0 <= q <= 27, 5**q fits one uint64 and
  M * 5**q < 2**116 is formed exactly in two uint64 halves, then shifted
  with its round and sticky bits: the one rounding ``%`` makes, so N is
  exact. N >= 10**P means X was one short, or the rounding carried to
  10**P; that cell is scaled again at q - 1, which gives its digits and
  the exponent ``%e`` would show. The layout is ``%g``'s: fixed notation
  for -4 <= X < P, else d.ddde-XX, with trailing zeros stripped. The
  domain is 0 <= q <= 27 for the X that ``%e`` shows: q >= 0 keeps X below
  P, so no exponent is positive, and q <= 27 keeps X at P - 28 or above,
  so the exponent has two digits.
- Outside the domain: a template with another conversion (a ``%s``, say)
  or a ``%`` or NUL in its text, a column that is no bool, int or float,
  or a cell the two rules above do not take.

No uint64 array meets an int64 one, in arithmetic or comparison: numpy 1.x
promotes that mix to float64, which is inexact beyond 2**53, and the
package allows numpy >= 1.24. uint64 values meet only uint64 arrays and
scalars and small nonnegative Python ints. Exponents and shift counts stay
int64 until they are bounded to [0, 63] and cast.

Each cell is laid out as a table of characters, one row per place and one
column per row of the batch, NUL where a row's text has no character, so
every operation runs along the batch. The tables and the literal text
between them are stacked, turned row major, and stripped of their NULs.
"""

import re
from collections.abc import Iterator, Sequence

import numpy as np

EXACT = "%.17g"   # reads back bit for bit: the sweep CSV and the trace
SHOWN = "%.9g"    # for people to read: the lines ``edgeprice run`` prints
_BATCH = 1 << 14   # rows per batch in ``format_rows``: bounds a batch's text

_CONVERSION = re.compile(r"(%d|%\.\d+g)")
_U1, _U63 = np.uint64(1), np.uint64(63)
_LOW32 = np.uint64(0xFFFFFFFF)
_POW5 = np.array([5 ** q for q in range(28)], dtype=np.uint64)
_PLACE = np.arange(32, dtype=np.uint8)[:, None]   # a character's row
# the words ``%`` writes for 0, inf and nan, by a %g cell's kind 1, 2 and 3
_WORDS = np.frombuffer(b"\0\0\0" b"0\0\0" b"inf" b"nan", np.uint8).reshape(4, 3)


def _chars(text: str) -> np.ndarray:
    """``text`` as a column of characters, one row each."""
    return np.frombuffer(text.encode("ascii"), np.uint8)[:, None]


def _digits(mag: np.ndarray, width: int) -> np.ndarray:
    """The ASCII digits of uint64 ``mag``, one row per place, ``width``
    places, zero padded on the left: nine places to a uint32 group."""
    groups = -(-width // 9)
    part = np.empty((groups, len(mag)), np.uint32)
    for g in range(groups - 1, 0, -1):
        quot = mag // 10**9
        part[g] = mag - quot * 10**9
        mag = quot
    part[0] = mag
    chars = np.empty((groups * 9, len(mag)), np.uint8)
    for j in range(8, 8 - min(width, 9), -1):   # the places that are kept
        quot = part // 10
        chars[j::9] = part - quot * 10
        part = quot
    chars += ord("0")
    return chars[groups * 9 - width:]


def _int_chars(column: np.ndarray) -> np.ndarray | None:
    """A ``%d`` cell's characters: its sign and its digits."""
    kind = column.dtype.kind
    if kind == "f":
        whole = np.trunc(column)
        if not (np.isfinite(whole) & (np.abs(whole) < 2.0**64)).all():
            return None
        neg = whole < 0
        mag = np.abs(whole).astype(np.uint64)
    elif kind == "i":
        signed = column.astype(np.int64)
        neg = signed < 0
        mag = signed.view(np.uint64)
        if neg.any():
            mag = np.where(neg, ~mag + _U1, mag)   # |INT64_MIN| is 2**63
    elif kind in "bu":
        neg, mag = None, column.astype(np.uint64)
    else:
        return None
    width = len(str(int(mag.max())))
    digits = _digits(mag, width)
    digits[:-1] *= ~np.logical_and.accumulate(digits[:-1] == ord("0"))
    if neg is None or not neg.any():
        return digits
    return np.concatenate([(neg * np.uint8(ord("-")))[None], digits])


def _scaled(m: np.ndarray, e: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """m * 10**q * 2**(e - 53) rounded half to even, for uint64 m < 2**53;
    None if some q is outside [0, 27]."""
    if not ((q >= 0) & (q <= 27)).all():
        return None
    f = _POW5[q]
    mh, ml, fh, fl = m >> 32, m & _LOW32, f >> 32, f & _LOW32
    low = ml * fl
    mid = ml * fh + mh * fl + (low >> 32)   # < 2**63 + 2**53 + 2**32
    lo = (mid << 32) | (low & _LOW32)       # m * 5**q is hi * 2**64 + lo
    hi = mh * fh + (mid >> 32)
    s = 53 - e - q   # bits below the point, at most 116
    sticky = False
    far = s > 64
    if far.any():   # the low half holds only bits below the round bit
        sticky = far & (lo != 0)
        lo, hi = np.where(far, hi, lo), hi * ~far
        s = s - 64 * far
    near = np.maximum(s - 1, 0).astype(np.uint64)   # s <= 64 here
    t = (lo >> near) | ((hi << _U1) << (_U63 - near))   # 2x, floored
    sticky = sticky | ((lo & ((_U1 << near) - _U1)) != 0)
    n = t >> _U1
    n += t & (sticky | n) & _U1   # half up if odd or above
    exact = s <= 0   # x * 10**q is an integer: no bit below the point
    if exact.any():
        n = np.where(exact, lo << np.clip(-s, 0, 63).astype(np.uint64), n)
    return n


def _float_chars(column: np.ndarray, p: int) -> np.ndarray | None:
    """A ``%.<p>g`` cell's characters: sign, word, leading "0.000", the
    digits with their point, and the exponent."""
    if column.dtype.kind != "f" or column.dtype.itemsize > 8:
        return None
    x = np.abs(column).astype(np.float64)
    number = np.isfinite(x) & (x != 0)
    x[~number] = 1.0
    mantissa, e = np.frexp(x)
    m = (mantissa * 2.0**53).astype(np.uint64)
    ex = np.floor(np.log10(x) - 1e-9).astype(np.int64)
    n = _scaled(m, e, p - 1 - ex)
    if n is None:
        return None
    short = np.flatnonzero(n >= 10**p)   # ex one short, or rounded up to 10**p
    if len(short):
        ex[short] += 1
        again = _scaled(m[short], e[short], p - 1 - ex[short])
        if again is None:
            return None
        n[short] = again
    digits = _digits(n, p)
    place = _PLACE[:p + 1]
    sig = ((digits != ord("0")) * place[1:]).max(axis=0) * number
    fixed = ex >= -4   # ex < p holds for every cell in the domain
    below_one = fixed & (ex < 0)
    whole = (np.where(fixed, np.maximum(ex + 1, 0), 1) * number).astype(np.uint8)
    dot = ((sig > whole) & ~below_one) * np.uint8(ord("."))
    padded = np.zeros((p + 2, len(x)), np.uint8)
    padded[1:-1] = digits
    chars = [padded[1:] * (place < whole)
             + padded[:-1] * ((place > whole) & (place <= sig))
             + (place == whole) * dot]
    lead = ((1 - ex) * below_one).astype(np.uint8)   # "0." and -ex - 1 zeros
    if lead.any():
        chars.insert(0, (_PLACE[:5] < lead) * _chars("0.000"))
    if not number.all():
        kind = np.select([column == 0, np.isinf(column), np.isnan(column)], [1, 2, 3])
        chars.insert(0, _WORDS[kind].T)
    sign = np.signbit(column) & ~np.isnan(column)
    if sign.any():
        chars.insert(0, (sign * np.uint8(ord("-")))[None])
    tail = ~fixed & number
    if tail.any():
        tens, ones = np.divmod(np.abs(ex), 10)
        chars.append(np.stack([np.full(len(x), ord("e")), np.full(len(x), ord("-")),
                               tens + ord("0"), ones + ord("0")]).astype(np.uint8)
                     * tail)
    return np.concatenate(chars)


def _bulk(literals: list[str], precisions: list, columns: Sequence) -> str | None:
    """The batch's text from its character tables, or None if a cell is
    outside the domain."""
    tables, cells = [_chars(literals[0])], {}
    for p, column, literal in zip(precisions, columns, literals[1:]):
        key = (id(column), p)   # a column written twice is rendered once
        if key not in cells:
            cells[key] = (_int_chars(column) if p is None
                          else _float_chars(column, p))
        if cells[key] is None:
            return None
        tables += [cells[key], _chars(literal)]
    rows = len(columns[0])
    text = np.ascontiguousarray(np.concatenate(
        [np.broadcast_to(t, (len(t), rows)) for t in tables]).T)
    return text[text != 0].tobytes().decode("ascii")


def _percent(row: str, columns: Sequence) -> str:
    """``row`` applied by ``%`` to each row of the batch, in one ``%``. A
    cell is its column's ``tolist`` item."""
    width = len(columns)
    cells = [None] * (len(columns[0]) * width)
    for j, column in enumerate(columns):
        cells[j::width] = column.tolist()
    return row * (len(cells) // width) % tuple(cells)


def format_rows(row: str, columns: Sequence) -> Iterator[str]:
    """The text of ``row % (c[i] for c in columns)`` for each row i of the
    numpy ``columns``, one block per ``_BATCH`` rows: in bulk when the
    template and the batch are in the module's domain, else by ``%``
    (``_percent``). ``%d`` takes an int, a bool or a float."""
    pieces = _CONVERSION.split(row)
    literals, conversions = pieces[0::2], pieces[1::2]
    precisions = [None if c == "%d" else int(c[2:-1]) for c in conversions]
    bulk = (len(precisions) == len(columns) and row.isascii()
            and not any("%" in literal or "\0" in literal
                        for literal in literals)
            and all(p is None or 1 <= p <= 17 for p in precisions))
    length = len(columns[0])
    for start in range(0, length, _BATCH):
        part = {id(c): c[start:start + _BATCH] for c in columns}
        batch = [part[id(c)] for c in columns]   # a column twice, one slice
        text = _bulk(literals, precisions, batch) if bulk else None
        yield _percent(row, batch) if text is None else text
