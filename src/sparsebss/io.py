"""CSV reading and writing for multichannel records.

Layout: one header row naming the channels, then one row per time sample
with one column per channel, ``,``-separated, each line ending in a
newline.  Each value is written as ``%.17g`` formats it (``-0`` for
negative zero), so a write/read round trip reproduces every double
exactly.  Rows are formatted and written a block at a time, a block
holding whole rows and at most 8192 values, so the writer's memory is
bounded by one block, not by the record.

How the writer gets ``%.17g`` without a ``%`` per value
-------------------------------------------------------
``%.17g`` prints the 17-digit integer D = round(|x| * 10**(16 - E)),
rounded half to even, where the exponent E puts D in [1e16, 1e17).  For
1e-280 <= |x| < 1e280, where every partial product below stays normal
and finite, each block forms that product as a double-double hi + lo
(Dekker, "A floating-point technique for extending the available
precision", Numer. Math. 18, 1971).  10**(16 - E) is held as a (hi, lo)
pair of doubles, built once from Python integers; the product of |x| and
its leading double is exact, split by Veltkamp's method.  E starts as
floor(log10|x|) and moves by one where the product falls outside
[1e16, 1e17).

Exactness: hi >= 1e16 > 2**53 is an integer, so D = hi + round(lo), with
|lo| <= 8.  hi + lo misses the exact product by less than 1e-14: the
10**k pair's relative error of 2**-106 gives at most 1.3e-15, and the
two roundings of terms below 20 at most 1.8e-15 each.  An error that
small can change round(lo) only when the fraction of lo lies within it of
1/2.  Every value whose fraction lies within 1e-6 of 1/2 is therefore
formatted by ``'%.17g' %`` itself, one element at a time; exact ties,
such as 1000000000000000.25 -> ``1000000000000000.2``, are among them.
So is every nonzero value outside the range above, subnormals included.
Zeros become ``0`` or ``-0`` directly.  A D that rounds up to 10**17 is
10**16 with E + 1.

Text: %g prints E < -4 and E >= 17 as d.ddde+XX (two exponent digits at
least) and the rest in fixed notation, trailing zeros and a bare point
dropped.  Each piece of that text has a fixed row in a uint8 matrix with
one column per value: sign, the "0.000" lead, 17 digits with room for
the point after any of them, the exponent, the separator.  A slot that a
value does not use holds NUL, and the NUL-free bytes of the transposed
matrix are the block's text.

The reader finds the header with one line scan and hands the path to
``np.loadtxt``, which then parses the rest of the file in large chunks.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .signals import as_signal_matrix

_BLOCK_ROWS = 4096  # samples formatted and written per write() call, up to 2 channels

_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |x| range of the vectorized path
_K_MIN, _K_MAX = -270, 300  # powers of ten that range can need, 10**(16 - E)
_TIE_BAND = 1e-6  # lo's fraction this close to 1/2 goes to '%.17g' %
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant for doubles

# Rows of the byte matrix that holds a block's text, one column per value, in
# the order the text reads; NUL marks a slot that a value does not use.
_SIGN = 0
_LEAD = 1  # "0." and up to three zeros: fixed form below 1
_DIGITS = 6  # 17 digits, with room for a decimal point after any of them
_EXP = _DIGITS + 18  # "e", its sign, three digits
_SEP = _EXP + 5  # "," or "\n"
_WIDTH = _SEP + 1


def write_csv(path, data, names: list[str] | None = None) -> None:
    """Write an (n_channels, n_samples) matrix as columns under ``names``.

    Raises ``ValueError`` before the file is opened when the names do not
    match the channels or could not be read back: a header that is blank,
    a name containing a comma or a line break, or a name with spaces
    around it (``read_csv`` strips them).
    """
    x = as_signal_matrix(data)
    n_channels = x.shape[0]
    if names is None:
        names = [f"channel_{i + 1}" for i in range(n_channels)]
    if len(names) != n_channels:
        raise ValueError(f"{len(names)} names for {n_channels} channels")
    header = ",".join(names)
    if not header.strip():
        raise ValueError("a blank header cannot be read back")
    for name in names:
        if any(c in name for c in ",\n\r"):
            raise ValueError(f"channel name {name!r} contains a comma or a line break")
        if name != name.strip():
            raise ValueError(f"channel name {name!r} has spaces around it, which read_csv strips")
    rows = x.T
    block_rows = _BLOCK_ROWS  # halved until a block holds 2 * _BLOCK_ROWS values at most
    while block_rows > 1 and block_rows * n_channels > 2 * _BLOCK_ROWS:
        block_rows //= 2
    text = np.empty((_WIDTH, min(len(rows), block_rows) * n_channels), np.uint8)
    text[_SEP].reshape(-1, n_channels)[:] = np.frombuffer(b"," * (n_channels - 1) + b"\n", np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(rows), block_rows):
            values = rows[start:start + block_rows].ravel()
            block = text[:, : len(values)]
            _lay_out_g17(values, block)
            fh.write(block.T.tobytes().translate(None, b"\0"))


def _lay_out_g17(x: np.ndarray, text: np.ndarray) -> None:
    """Put ``'%.17g' % v`` for the finite values v of ``x`` in the columns of ``text``.

    Every row but the separators' is overwritten.
    """
    d, e, slow = _decimal(x)
    digits = _digit_rows(d)
    rank = np.arange(1, 18, dtype=np.uint8)[:, None]  # 1-based place of each digit row
    n_sig = np.max(rank * (digits != 0).view(np.uint8), axis=0)  # to the last nonzero digit
    fixed = (e >= -4) & (e < 17)
    shown = n_sig.copy()  # trailing zeros go, but the integer part is shown whole
    np.maximum(n_sig, e + 1, out=shown, where=fixed & (e > 0), casting="unsafe")
    digits += ord("0")
    digits *= (rank <= shown).view(np.uint8)
    point = np.where(fixed, e, 0)  # the decimal point follows this digit, if digits do
    dotted = np.flatnonzero((point >= 0) & (n_sig > point + 1))
    dot_row = np.full(len(d), 18, np.uint8)  # 18: no point
    dot_row[dotted] = point[dotted] + 1
    region = text[_DIGITS:_EXP]
    region[:17] = digits
    region[17] = 0
    moved = (rank > dot_row).view(np.uint8)  # rows past the point take the digit above
    region[1:] -= region[1:] * moved
    region[1:] += digits * moved
    region[dot_row[dotted], dotted] = ord(".")

    np.multiply(np.signbit(x), ord("-"), out=text[_SIGN], casting="unsafe")
    below_one = fixed & (e < 0)
    text[_LEAD] = below_one
    text[_LEAD] *= ord("0")
    text[_LEAD + 1] = below_one
    text[_LEAD + 1] *= ord(".")
    for row in range(_LEAD + 2, _DIGITS):  # -e - 1 zeros after "0."
        text[row] = fixed & (e <= _LEAD - row)
        text[row] *= ord("0")
    text[_EXP:_SEP] = 0
    sci = np.flatnonzero(~fixed)
    if sci.size:
        mag_e = np.abs(e[sci])
        text[_EXP, sci] = ord("e")
        text[_EXP + 1, sci] = np.where(e[sci] < 0, ord("-"), ord("+"))
        text[_EXP + 2, sci] = np.where(mag_e >= 100, mag_e // 100 + ord("0"), 0)
        text[_EXP + 3, sci] = mag_e // 10 % 10 + ord("0")
        text[_EXP + 4, sci] = mag_e % 10 + ord("0")

    text[_DIGITS] -= x == 0  # zeros were formatted as 1 above
    slow = np.flatnonzero(slow & (x != 0))
    if slow.size:
        exact = b"".join(("%.17g" % v).encode().ljust(_SEP, b"\0") for v in x[slow].tolist())
        text[:_SEP, slow] = np.frombuffer(exact, np.uint8).reshape(-1, _SEP).T


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D, E and the values to leave to ``'%.17g' %``: |x| = D * 10**(E - 16) to 17 digits.

    Zeros and the values outside the fast range are among the last, with
    D = 10**16 and E = 0, the digits of 1.
    """
    mag = np.abs(x)
    slow = (mag < _FAST_MIN) | (mag >= _FAST_MAX)
    mag[slow] = 1.0
    e = np.floor(np.log10(mag)).astype(np.intp)
    hi, lo = _scaled(mag, e)
    off = np.flatnonzero(_misplaced(hi, lo))  # log10 missed E by one
    for _ in range(2):
        if not off.size:
            break
        e[off] += np.where(hi[off] >= 1e17, 1, -1)
        hi[off], lo[off] = _scaled(mag[off], e[off])
        off = off[_misplaced(hi[off], lo[off])]
    slow[off] = True
    whole = np.floor(lo)
    frac = lo - whole
    slow |= np.abs(frac - 0.5) < _TIE_BAND
    d = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    return d, e, slow


def _digit_rows(d: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each d in [1e16, 1e17), as rows of a (17, n) uint8 array."""
    top = d // 10**8
    low = (d - top * 10**8).astype(np.uint32)
    top = top.astype(np.uint32)
    digits = np.empty((17, len(d)), np.uint8)
    digits[0] = top // np.uint32(10**8)
    quads = np.empty((4, len(d)), np.uint16)  # digits 1-4, 5-8, 9-12, 13-16
    upper = top // np.uint32(10**4)
    quads[0] = upper - digits[0] * np.uint32(10**4)
    quads[1] = top - upper * np.uint32(10**4)
    quads[2] = low // np.uint32(10**4)
    quads[3] = low - quads[2] * np.uint32(10**4)
    places = digits[1:].reshape(4, 4, -1)
    for q, scale in enumerate(np.array([1000, 100, 10], np.uint16)):
        lead = quads // scale
        places[:, q] = lead
        quads -= lead * scale
    places[:, 3] = quads
    return digits


def _misplaced(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Where hi + lo lies outside [1e16, 1e17), up to rounding at the edges."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < -_TIE_BAND))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return below | above


def _scaled(mag: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``mag * 10**(16 - e)`` as a normalized double-double (hi, lo)."""
    k = 16 - _K_MIN - e
    t_hi, t_lo, t_hi_hi, t_hi_lo = (row.take(k) for row in _powers_of_ten())
    p = mag * t_hi
    m_hi, m_lo = _split(mag)
    err = ((m_hi * t_hi_hi - p) + m_hi * t_hi_lo + m_lo * t_hi_hi) + m_lo * t_hi_lo
    s = err + mag * t_lo
    hi = p + s
    return hi, s - (hi - p)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a == hi + lo exactly, each half holding 26 bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """hi, lo, and hi's Veltkamp halves, of 10**k for k in [_K_MIN, _K_MAX].

    hi is 10**k rounded to a double and lo the rest rounded to one, both
    from exact integer arithmetic (``int / int`` is correctly rounded).
    """
    his, los = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        top, bottom = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * bottom - top * den) / (den * bottom))
    hi = np.array(his)
    tables = (hi, np.array(los), *_split(hi))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a channels-as-columns CSV back into (names, (N, L) matrix)."""
    with open(path) as fh:
        for n_lines, header in enumerate(fh, 1):
            if header.strip():
                break
        else:
            raise ValueError(f"{path}: empty file")
    names = [c.strip() for c in header.split(",")]
    try:
        with warnings.catch_warnings():
            # a header-only file is reported below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=n_lines)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    if data.shape[0] == 0 or data.shape[1] != len(names):
        raise ValueError(f"{path}: ragged or empty table")
    return names, data.T
