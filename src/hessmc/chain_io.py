"""Chain and table serialization.

The chain file format is a contract: ``bench/checks.py`` and any other
reader parse it as text, so every byte is fixed.

- Header lines, each ending in ``\n``: ``# method=<name>``, then
  ``# <key>=<int>`` for each of seed, chain_id, n, r, l, start_index and
  partial that the chain's meta holds, in that order. Only a chain flushed
  by a failed run holds ``partial`` (written ``# partial=1``).
- A column line ``k,accepted,log_post,cum_solves,m_1,...,m_n``.
- One row per step: k (1-based), accepted (0/1), log_post, cum_solves,
  then the n entries of the state.

Fields are separated by commas with no quoting or padding, and every line
after the header lines ends in ``\r\n``. Floats are written with ``%.17g``
(``-0``, ``nan``, ``inf``, ``-inf`` as Python prints them), so a read-back
is bit-exact and every diagnostic recomputed from disk matches the
in-memory value.

One function owns the number format: ``_cells`` returns ``',' + '%.17g' % v``
for every entry of a float64 array, as fixed-width cells whose NUL padding
one ``bytes.translate`` removes. For |v| in [1e-4, 1e15), where ``%.17g``
writes fixed notation, the text is computed in numpy. With v = f 2^e
(integer f < 2^53) and a decimal exponent E from ``np.log10``, corrected by
one wherever the digit integer falls outside [10^16, 10^17) (a carry of
the rounding to 10^17 bumps E), the 17 digits are
D = round-half-even(f 5^(16-E) 2^(e+16-E)), exact from a two-limb uint64
product and a right shift with a remainder test (the fixed-precision idea
of Ryu printf, Adams 2019). The four-digit groups of the integer part and
of the fraction come from a 10 000-entry table, with the integer part's
leading and the fraction's trailing zeros as NUL. Every other value (±0,
nan, ±inf, subnormals, |v| < 1e-4 and |v| >= 1e15), and every value of
an array too small to repay the numpy path's fixed cost, goes through
Python's ``'%.17g' %``. ``tests/test_chain_io.py`` holds the two to the
same bytes on over a million values.

``write_chain`` and the array body of ``write_table`` format and write a
block of rows (``WRITE_BLOCK_VALUES`` values) at a time, so their working
memory beyond the data stays under 2 MB at any length; the bytes are those
of a formatter that writes one row at a time. ``write_chain`` hashes each
block as it writes it and returns the file's sha256, so a caller can
record the file without reading it back.

``read_chain`` and ``read_table`` parse the body a block of rows
(``READ_BLOCK_VALUES`` values) at a time. A row must hold as many fields as
the column line, or the read refuses the file. Each block is one
``np.fromstring`` into long doubles, which numpy reads with the C library's
correctly rounded ``strtold``, then rounded to float64. Rounding twice
gives the correctly rounded double, ``float(field)``, except where the long
double lands exactly on a midpoint between two doubles: a midpoint is a
long double, so a decimal on either side of it stays on that side, and
only a decimal that rounds onto it can round on to the wrong double
(Clinger 1990; Boldo & Melquiond 2008). A field whose long double has the
bits below double precision 100...0, or lies below the normal doubles
(where that bit position moves), is parsed again by ``float()``, and so
is a nan, whose sign numpy's long double parse drops. A
``%.17g`` field lies at least 0.05 ulp from any midpoint, so no field a
chain file holds takes that path, and a read is what ``float()`` and
``np.loadtxt`` return, bit for bit, at about half of ``float()``'s cost
for 17 digits (dtoa's bignum path). The guard is derived from the long
double's format at import (x87 extended, IEEE binary128, or double itself,
which needs none); on any other format a read raises.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import os
import sys

import numpy as np

from .samplers import Chain

_META_INT = ("seed", "chain_id", "n", "r", "l", "start_index", "partial")
_COLUMNS = ("k", "accepted", "log_post", "cum_solves")
WRITE_BLOCK_VALUES = 1 << 13   # values formatted per block of rows
READ_BLOCK_VALUES = 1 << 13    # values parsed per block of rows

_BAND = (1e-4, 1e15)           # |v| where %.17g writes fixed notation
CELL_BYTES = 44                # one cell: eleven 4-byte words
PYTHON_CELLS_BELOW = 160       # the two formatters cost the same near 170-200 values (2-core Xeon)
_U = np.uint64                 # scalars as numpy's, not Python's, keep small calls cheap
_POW5 = [5 ** p for p in range(22)]
_POW5_LO = np.array([a & 0xFFFFFFFF for a in _POW5], dtype=_U)
_POW5_HI = np.array([a >> 32 for a in _POW5], dtype=_U)
# per decimal exponent E = -4..14 (row E + 4): the divisor that splits the
# integer part off the 17 digits, and the factors that lay the fraction's
# 16 - E digits out as 16 + 4
_SPLIT = np.array([[10 ** min(16 - E, 19), 10 ** max(E, 0), 10 ** max(-E, 0),
                    10 ** (4 - max(-E, 0))] for E in range(-4, 15)], dtype=_U).T
_M32, _32, _52, _64, _1 = _U(0xFFFFFFFF), _U(32), _U(52), _U(64), _U(1)
_FRACTION, _HIDDEN = _U((1 << 52) - 1), _U(1 << 52)
_E4, _E8, _E16, _E17 = _U(10 ** 4), _U(10 ** 8), _U(10 ** 16), _U(10 ** 17)


def _word(text: bytes) -> np.uint32:
    return np.frombuffer(text.ljust(4, b"\0"), dtype=np.uint32)[0]


def _group_table() -> np.ndarray:
    """The four ASCII digits of 0..9999 as one uint32 word each, in four
    variants: as they are, trailing zeros as NUL, leading zeros as NUL, and
    leading zeros as NUL but for the last digit."""
    chars = (np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + 48
             ).astype(np.uint8)
    nonzero = chars != ord("0")
    rstrip = chars * (np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] > 0)
    lstrip = chars * (np.cumsum(nonzero, axis=1) > 0)
    last = lstrip.copy()
    last[0, 3] = ord("0")
    return np.stack([chars, rstrip, lstrip, last]).view(np.uint32).ravel()


_GROUPS = _group_table()
_RSTRIP, _LSTRIP, _LAST = (_U(k * 10_000) for k in (1, 2, 3))   # variant offsets
_COMMA, _POINT = _word(b","), _word(b".")
_MINUS = _word(b",-") - _COMMA

# the bytes of a decimal float, inf or nan; every other byte becomes "!",
# which no field parses, so the read refuses whitespace (numpy reads a
# whitespace-only field as 0), hex floats and nan payloads, as float() does
_FIELD_BYTES = bytes(c if c in b"0123456789+-.eEnNaAiIfFtTyY," else ord("!")
                     for c in range(256))
_LONG_DOUBLES = {52: "double", 63: "x87 extended", 112: "IEEE binary128"}


def _guard_bits(nmant: int) -> int | None:
    """The significand bits of a long double with ``nmant`` fraction bits
    that lie below double precision: 11 for x87 extended, 60 for IEEE
    binary128, 0 when long double is double (one rounding, nothing to
    guard); None for any other format, such as IBM double-double."""
    return nmant - 52 if nmant in _LONG_DOUBLES else None


_NMANT = np.finfo(np.longdouble).nmant
_GUARD_BITS = _guard_bits(_NMANT)
# the byte offset of the low 64 significand bits within a long double
_LOW_WORD = 0 if sys.byteorder == "little" else np.dtype(np.longdouble).itemsize - 8
_TINY = np.finfo(np.float64).tiny


def _digits(f: np.ndarray, e16: np.ndarray, E: np.ndarray) -> np.ndarray:
    """round-half-even(f 2^(e16 - 16) 10^(16 - E)) for integers f < 2^53 and
    1 <= 16 - E <= 21, exactly: the product f 5^(16-E) < 2^102 in two
    uint64 limbs, shifted right by q = E - e16, which is 1..63 here. The
    remainder plus half of 2^q, less one, plus the kept integer's last bit
    carries into bit q exactly when the rounding goes up."""
    p = 16 - E
    a_lo, a_hi = _POW5_LO[p], _POW5_HI[p]
    f_lo, f_hi = f & _M32, f >> _32
    low = f_lo * a_lo
    mid = f_hi * a_lo + f_lo * a_hi
    lo = low + (mid << _32)
    hi = f_hi * a_hi + (mid >> _32) + (lo < low)
    q = (E - e16).astype(_U)
    d = (lo >> q) | (hi << (_64 - q))
    mask = (_1 << q) - _1
    return d + (((lo & mask) + (mask >> _1) + (d & _1)) >> q)


def _quads(x: np.ndarray) -> tuple:
    """The four-digit groups of integers x < 10^16, most significant first
    (floor division by a scalar is the fast path, divmod is not)."""
    hi = x // _E8
    lo = x - hi * _E8
    a, c = hi // _E4, lo // _E4
    return a, hi - a * _E4, c, lo - c * _E4


def _python_cells(cells: np.ndarray, rows, values: np.ndarray) -> None:
    """Fills ``cells[rows]`` (uint32 words) with ``',' + '%.17g' % v`` for
    the values, formatted by Python."""
    text = np.array(["%.17g" % y for y in values.tolist()], dtype="S24")
    cells[rows, 0] = _COMMA
    cells[rows, 1:7] = text.view(np.uint32).reshape(-1, 6)
    cells[rows, 7:] = 0


def _cells(values: np.ndarray) -> np.ndarray:
    """``',' + '%.17g' % v`` for every entry v of a float64 array, as an
    (N, CELL_BYTES) uint8 array whose rows, with their NUL bytes removed,
    are those strings. Fewer than ``PYTHON_CELLS_BELOW`` values are all
    formatted by Python, which is then faster than the numpy path's fixed
    cost of some 140 calls."""
    v = np.ravel(values)
    if v.size < PYTHON_CELLS_BELOW:
        cells = np.empty((v.size, CELL_BYTES // 4), dtype=np.uint32)
        _python_cells(cells, slice(None), v)
        return cells.view(np.uint8)
    mag = np.abs(v)
    band = (mag >= _BAND[0]) & (mag < _BAND[1])
    x = np.where(band, mag, 1.0)
    bits = x.view(_U)
    f = (bits & _FRACTION) | _HIDDEN
    e16 = (bits >> _52).astype(np.int64) - 1059           # e + 16, x = f 2^e
    # the decimal exponent E of the 17 digits d: log10 may round across a
    # power of ten, and the rounding of d may carry to 10^17
    E = np.floor(np.log10(x)).astype(np.int64)
    d = _digits(f, e16, E)
    redo = np.flatnonzero((d < _E16) | (d >= _E17))
    while redo.size:
        E[redo] += np.where(d[redo] < _E16, -1, 1)
        d[redo] = _digits(f[redo], e16[redo], E[redo])
        redo = redo[(d[redo] < _E16) | (d[redo] >= _E17)]
    # fixed notation: the integer part (up to 15 digits) and the fraction
    # (16 - E digits, up to 20), in four-digit groups
    split, up, down, scale = _SPLIT[:, E + 4]
    whole, frac = np.divmod(d, split)
    head, tail = np.divmod(frac * up, down)
    tail *= scale
    i1, i2, i3, i4 = _quads(whole)
    f1, f2, f3, f4 = _quads(head)
    cells = np.empty((v.size, CELL_BYTES // 4), dtype=np.uint32)
    np.multiply(v < 0, _MINUS, out=cells[:, 0])
    cells[:, 0] += _COMMA
    # leading zeros of the integer part are NUL, but for its last digit
    zero = i1 == 0
    cells[:, 1] = _GROUPS[_LSTRIP + i1]
    cells[:, 2] = _GROUPS[i2 + zero * _LSTRIP]
    zero &= i2 == 0
    cells[:, 3] = _GROUPS[i3 + zero * _LSTRIP]
    zero &= i3 == 0
    cells[:, 4] = _GROUPS[i4 + zero * _LAST]
    np.multiply(frac != 0, _POINT, out=cells[:, 5])
    # trailing zeros of the fraction are NUL
    zero = tail == 0
    cells[:, 10] = _GROUPS[_RSTRIP + tail]
    for col, g in ((9, f4), (8, f3), (7, f2), (6, f1)):
        cells[:, col] = _GROUPS[g + zero * _RSTRIP]
        zero &= g == 0
    out = np.flatnonzero(~band)
    if out.size:
        # +-0, nan, +-inf, subnormals and |v| outside the band
        _python_cells(cells, out, v[out])
    return cells.view(np.uint8)


def _text(cells: np.ndarray) -> bytes:
    """The bytes of an array of cells, NUL bytes removed."""
    return cells.tobytes().translate(None, b"\0")


def _lines(cells: np.ndarray) -> bytes:
    """The lines that the rows of a 2-D array of cells make, each ended by
    CRLF."""
    lines = np.empty((cells.shape[0], cells.shape[1] + 2), dtype=np.uint8)
    lines[:, :-2] = cells
    lines[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    return _text(lines)


def write_chain(chain: Chain, path: str) -> str:
    """Write ``chain`` in the format above, one block of rows at a time;
    returns the file's sha256, hashed block by block as it is written."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    samples = chain.samples
    count, n = samples.shape
    lines = [f"# method={chain.meta.get('method', '')}\n"]
    lines += [f"# {key}={int(chain.meta[key])}\n" for key in _META_INT if key in chain.meta]
    lines.append(",".join([*_COLUMNS, *(f"m_{j + 1}" for j in range(n))]) + "\r\n")
    # a rejected step repeats its state bit for bit, so the state part of a
    # row is formatted once per distinct state; bits, not float equality,
    # keep -0 and 0 apart. A block's first row is compared with the last
    # row of the block before it, whose tail it may reuse.
    bits = samples.view(np.uint64)
    step = max(1, WRITE_BLOCK_VALUES // max(n, 1))
    tail = None
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def write(text: bytes) -> None:
            digest.update(text)
            fh.write(text)

        write("".join(lines).encode())
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            first = max(lo, 1)
            new_state = np.ones(hi - lo, dtype=bool)
            new_state[first - lo:] = (bits[first:hi] != bits[first - 1:hi - 1]).any(axis=1)
            states = samples[lo:hi][new_state]
            cells = _cells(np.concatenate([chain.log_post[lo:hi], states.ravel()]))
            log_post = _text(cells[:hi - lo]).split(b",")[1:]
            tails = [tail, *_lines(cells[hi - lo:].reshape(len(states), n * CELL_BYTES))
                     .splitlines(keepends=True)]
            heads = zip(range(lo + 1, hi + 1), chain.accepted[lo:hi].tolist(), log_post,
                        chain.cum_solves[lo:hi].tolist())
            write(b"".join([b"%d,%d,%b,%d" % head + tails[i]
                            for head, i in zip(heads, np.cumsum(new_state).tolist())]))
            tail = tails[-1]
    return digest.hexdigest()


def _parse(text: bytes) -> np.ndarray:
    """``float(field)`` for every comma-separated field of ``text``, bit for
    bit: one ``strtold`` pass, rounded to float64, and ``float()`` on the
    fields where that double rounding can differ (module docstring)."""
    wide = np.fromstring(text, dtype=np.longdouble, sep=",")
    with np.errstate(over="ignore"):
        values = wide.astype(np.float64)
    redo = np.isnan(values)     # numpy's long double parse drops the sign of "-nan"
    if _GUARD_BITS:
        low = np.ndarray(wide.shape, dtype=np.uint64, buffer=wide, offset=_LOW_WORD,
                         strides=wide.strides)
        redo |= (low & np.uint64((1 << _GUARD_BITS) - 1)) == np.uint64(1 << (_GUARD_BITS - 1))
        redo |= np.abs(values) <= _TINY
    redo = np.flatnonzero(redo)
    redo = redo[wide[redo] != 0]    # a zero is exact
    if redo.size:
        fields = text.split(b",")
        values[redo] = [float(fields[i]) for i in redo.tolist()]
    return values


def _read(path: str) -> tuple[list[bytes], np.ndarray]:
    """The ``#`` lines of a file in the format above, and its body as an
    (N, columns) float64 array, the columns counted on the column line.
    Lines may end in CRLF or LF, the last one in neither; a row with another
    field count (a blank line too) or a field that is empty or not a number
    raises ``ValueError`` naming the file."""
    if _GUARD_BITS is None:
        raise NotImplementedError(
            f"{path}: cannot read exactly through a long double with {_NMANT} fraction bits "
            f"(not {', '.join(_LONG_DOUBLES.values())}; IBM double-double?)")
    comments = []
    with open(path, "rb") as fh:
        line = fh.readline()
        while line.startswith(b"#"):
            comments.append(line)
            line = fh.readline()
        commas = line.count(b",")
        step = max(1, READ_BLOCK_VALUES // (commas + 1))
        blocks = [np.empty((0, commas + 1))]
        first = len(comments) + 2           # the line number of the block's first row
        while lines := [row.rstrip(b"\r\n") for row in itertools.islice(fh, step)]:
            for lineno, row in enumerate(lines, first):
                if row.count(b",") != commas:
                    raise ValueError(f"{path}: line {lineno} holds {row.count(b',') + 1} "
                                     f"fields, not {commas + 1}")
            try:
                values = _parse(b",".join(lines).translate(_FIELD_BYTES))
                blocks.append(values.reshape(len(lines), commas + 1))
            except ValueError:
                raise ValueError(f"{path}: a field in lines {first}-{first + len(lines) - 1} "
                                 "is empty or not a number") from None
            first += len(lines)
    return comments, np.concatenate(blocks)


def read_chain(path: str) -> Chain:
    """Read a chain file: the ``#`` header lines into meta, the body as in
    ``_read``."""
    comments, data = _read(path)
    meta: dict = {}
    for line in comments:
        key, _, value = line[1:].decode().strip().partition("=")
        key = key.strip()
        meta[key] = int(value) if key in _META_INT else value
    return Chain(samples=np.ascontiguousarray(data[:, len(_COLUMNS):]),
                 accepted=data[:, 1] != 0, log_post=data[:, 2].copy(),
                 cum_solves=data[:, 3].astype(np.int64), meta=meta)


def read_table(path: str) -> np.ndarray:
    """The body of a table whose fields are all numbers (``write_table`` with
    an array body) as a 2D float64 array, read as ``read_chain`` reads."""
    return _read(path)[1]


def write_table(path: str, header: list[str], rows, comments: list[str] | None = None) -> None:
    """CSV writer for every non-chain artifact, in the chain files' number
    format: floats as ``%.17g``, lines ending in ``\r\n`` after the
    ``# `` comment lines. A 2D float array body is written a block of rows
    at a time: each distinct value of the block is formatted once (distinct
    by bits, so ``-0`` and ``0`` stay apart and every NaN prints ``nan``),
    and the block's lines are laid out from those cells; a list of rows
    holding ints or strings goes through ``csv.writer``, with its floats
    formatted in one call. Both give the same bytes for float rows."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            # contour grids repeat each coordinate once per cell of the
            # other axis, and a Gaussian reference column is symmetric
            rows = np.asarray(rows, dtype=np.float64)
            step = max(1, WRITE_BLOCK_VALUES // max(rows.shape[1], 1))
            for lo in range(0, len(rows), step):
                block = rows[lo:lo + step]
                bits, index = np.unique(block.view(np.uint64), return_inverse=True)
                cells = _cells(bits.view(np.float64))[index.ravel()].reshape(len(block), -1)
                cells[:, :1] = 0    # no comma before a line's first field
                fh.write(_lines(cells).decode())
        else:
            floats = [v for row in rows for v in row if isinstance(v, float)]
            text = iter(_text(_cells(np.array(floats, dtype=np.float64))).decode()
                        .split(",")[1:])
            for row in rows:
                writer.writerow([next(text) if isinstance(v, float) else v for v in row])
