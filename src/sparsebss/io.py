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

How the reader gets the doubles without strtod
----------------------------------------------
The header is the first non-blank line, decoded as UTF-8 without a
byte-order mark.  If it is the file's first line, the rows are parsed in
blocks of whole lines, about 128 kB each.  Each block's values go
straight into a channel-major (channels, samples) table, one contiguous
row per channel, which is what ``read_csv`` returns.  The table is sized
from the file at the first block's density.  When the file holds more
rows than that, or fewer, the table is resized in place: its buffer is
grown or cut with ``ndarray.resize``, and each channel row moves within
it to its new start, so no second table is made.  A field in the
writer's grammar is an optional ``-``, digits with at most one ``.``,
and an optional ``e``, sign and 1-3 digits; fields are
``,``-separated and each row ends in a newline.  One scan finds the bytes
that are neither digits nor ``-``.  Their positions check the grammar and
the row widths, and give each field's fraction digits.  Signs and points
are dropped, each ``e`` and newline becomes a comma, and ``np.fromstring``
reads the digits of each field, and of each exponent after it, as int64s.
The field's value is D * 10**k, D its digits and k its exponent less its
fraction digits.

Exactness: D = D_hi + D_lo exactly, D_hi its nearest double, and
``_scaled`` forms (D_hi + D_lo) * 10**k as hi + lo from the writer's
tables.  For D < 10**18 and -270 <= k <= 282 every partial product is
normal and finite, and hi + lo misses the exact product by less than
10 * 2**-106 of it: 2**-106 from the 10**k pair, as much from the dropped
product of D_lo and the pair's low part, the rest from four roundings.
So hi is the correctly rounded double unless the product lies that close
to a midpoint between two doubles.  Every field where
hi + (lo +- 2**-100 * hi) does not round back to hi is parsed by
``float`` itself, and so is every field outside those bounds
(``fromstring`` saturates at 2**63 - 1).  ``float`` rounds correctly, as
``np.loadtxt`` does.  A block outside the grammar sends the
whole file to ``np.loadtxt``, whose (rows, channels) table is copied
into the channel-major layout.
"""

from __future__ import annotations

import functools
import os
import warnings

import numpy as np

from .signals import as_signal_matrix

_BLOCK_ROWS = 4096  # samples formatted and written per write() call, up to 2 channels

_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # |x| range of the vectorized path
_K_MIN, _K_MAX = -270, 300  # powers of ten that range can need, 10**(16 - E)
_TIE_BAND = 1e-6  # lo's fraction this close to 1/2 goes to '%.17g' %
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant for doubles
_READ_BYTES = 1 << 17  # text the reader parses per block, whole lines
_READ_TIE = 2.0**-100  # relative distance from a rounding midpoint that goes to float()

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

    A matrix in any layout but C order is first copied into it, as
    :func:`~sparsebss.signals.as_signal_matrix` does for every input.

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
    hi, lo = _scaled(mag, 16 - e)
    off = np.flatnonzero(_misplaced(hi, lo))  # log10 missed E by one
    for _ in range(2):
        if not off.size:
            break
        e[off] += np.where(hi[off] >= 1e17, 1, -1)
        hi[off], lo[off] = _scaled(mag[off], 16 - e[off])
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


def _scaled(mag: np.ndarray, k: np.ndarray, mag_lo=0.0) -> tuple[np.ndarray, np.ndarray]:
    """``(mag + mag_lo) * 10**k`` as a normalized double-double (hi, lo), k in the tables."""
    t_hi, t_lo, t_hi_hi, t_hi_lo = (row.take(k - _K_MIN) for row in _powers_of_ten())
    p = mag * t_hi
    m_hi, m_lo = _split(mag)
    err = ((m_hi * t_hi_hi - p) + m_hi * t_hi_lo + m_lo * t_hi_hi) + m_lo * t_hi_lo
    s = err + mag * t_lo + mag_lo * t_hi
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
    """Read a channels-as-columns CSV back into (names, (N, L) matrix).

    The matrix is C-contiguous and owns its data, the layout every
    function of the package computes on: each channel is one contiguous
    row, as in an array built in memory.
    """
    with open(path, encoding="utf-8-sig") as fh:
        for n_lines, header in enumerate(fh, 1):
            if header.strip():
                break
        else:
            raise ValueError(f"{path}: empty file")
    names = [c.strip() for c in header.split(",")]
    data = _read_rows(path, len(names)) if n_lines == 1 else None
    if data is None:
        try:
            with warnings.catch_warnings():
                # a header-only file is reported below, not warned about
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(path, delimiter=",", ndmin=2, skiprows=n_lines, encoding="utf-8")
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
        if rows.shape[0] == 0 or rows.shape[1] != len(names):
            raise ValueError(f"{path}: ragged or empty table")
        data = rows.T.copy()
    return names, data


def _read_rows(path, n_cols: int) -> np.ndarray | None:
    """The (n_cols, rows) table below the first line, or None if any of it
    leaves the writer's grammar or there is none."""
    with open(path, "rb") as fh:
        if b"\r" in fh.readline():  # a text-mode read ends the header there
            return None
        size = os.fstat(fh.fileno()).st_size
        table = np.empty((n_cols, 0))
        filled = 0
        while text := fh.read(_READ_BYTES):
            text += fh.readline()
            rows = _parse_rows(text, n_cols)
            if rows is None:
                return None
            end = filled + len(rows)
            if end > table.shape[1]:  # room for the rest of the file at this block's density
                more = max(size - fh.tell(), 0) * len(rows) // len(text)
                _set_width(table, filled, end + more + more // 64 + 1)
            table[:, filled:end] = rows.T
            filled = end
    _set_width(table, filled, filled)
    return table if filled else None


def _set_width(table: np.ndarray, filled: int, width: int) -> None:
    """Resize the (n_cols, capacity) ``table`` to (n_cols, ``width``) in place,
    keeping the first ``filled`` values of each channel row.

    The rows move within the one buffer, so no second table is made.
    """
    n_cols, capacity = table.shape
    if width == capacity:
        return
    if width > capacity:
        table.resize((n_cols, width), refcheck=False)
    flat = table.reshape(-1)
    # rows move right from the last when the table widens, left from the second when it narrows
    for i in range(n_cols - 1, 0, -1) if width > capacity else range(1, n_cols):
        flat[i * width : i * width + filled] = flat[i * capacity : i * capacity + filled]
    del flat
    if width < capacity:
        table.resize((n_cols, width), refcheck=False)


def _parse_rows(text: bytes, n_cols: int) -> np.ndarray | None:
    """The values of whole lines in the writer's grammar as (rows, n_cols), else None."""
    if not text.endswith(b"\n"):
        return None
    b = np.frombuffer(text, np.uint8)
    marks = np.flatnonzero(((b < 48) & (b != 45)) | (b > 57))  # every byte but digits and "-"
    kind = b[marks]
    minus = 0  # the "-" of exponents
    if has_exp := b"e" in text:  # an "e" and its "+" leave the marks
        e_at = np.flatnonzero(kind == 101)
        e_pos = marks[e_at]
        plus = (kind[e_at + 1] == 43) & (marks[e_at + 1] == e_pos + 1)
        after = marks[e_at + 1 + plus]  # the exponent's end, its field's separator if valid
        keep = np.ones(len(marks), bool)
        keep[e_at] = keep[e_at[plus] + 1] = False
        marks, kind = marks[keep], kind[keep]
        exp_neg = b[e_pos + 1] == 45
        n_exp = after - e_pos - 1 - (plus | exp_neg)  # its digits
        minus = np.count_nonzero(exp_neg)
    at = np.flatnonzero(kind != 46)  # the marks that end a field
    seps = marks[at]
    starts = np.concatenate(([0], seps[:-1] + 1))
    neg = b[starts] == 45
    dots = np.diff(at, prepend=-1) - 1  # points in each field
    stop = seps  # where each field's digits end
    if has_exp:
        fields = np.searchsorted(seps, e_pos)
        if (after != seps[fields]).any() or (n_exp < 1).any() or (n_exp > 3).any():
            return None
        stop = seps.copy()
        stop[fields] = e_pos
    row_end = np.frombuffer(b"," * (n_cols - 1) + b"\n", np.uint8)
    if (len(seps) % n_cols or (kind[at].reshape(-1, n_cols) != row_end).any() or (dots > 1).any()
            or np.count_nonzero(b == 45) != np.count_nonzero(neg) + minus
            or (stop - starts - neg - dots < 1).any()):
        return None
    # each field's digits, and each exponent's after its field's, as integers
    digits = np.fromstring(text.translate(bytes.maketrans(b"\ne", b",,"), b".-+"), np.int64, sep=",")
    k = np.where(dots, marks[at - 1] + 1 - stop, 0)  # minus the fraction digits
    if has_exp:
        exp_at = fields + np.arange(1, len(fields) + 1)
        k[fields] += np.where(exp_neg, -digits[exp_at], digits[exp_at])
        digits = np.delete(digits, exp_at)
    del marks, kind, at, dots, stop  # the scaling below holds a dozen arrays of this size
    # D < 10**18 keeps D * 10**k below 1e300 and every partial product normal
    slow = (digits >= 10**18) | (k < _K_MIN) | (k > _K_MAX - 18)
    digits[slow] = k[slow] = 0
    d_hi = digits.astype(float)
    hi, lo = _scaled(d_hi, k, (digits - d_hi.astype(np.int64)).astype(float))
    tie = hi * _READ_TIE
    slow |= (hi + (lo + tie) != hi) | (hi + (lo - tie) != hi)
    np.copysign(hi, 0.5 - neg, out=hi)
    for j in np.flatnonzero(slow).tolist():
        hi[j] = float(text[starts[j] : seps[j]])
    return hi.reshape(-1, n_cols)
