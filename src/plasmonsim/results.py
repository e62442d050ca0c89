"""Deterministic result tables: CSV with a metadata comment block, or JSON.

A table's rows are read block by block, each block a numpy structured array
with a typed field per column, and written a chunk of about CHUNK_CELLS
cells at a time, so no table's text is held whole.
Float cells are serialized with 9 significant digits, byte for byte as
Python's "%.9g" prints them; integer and boolean cells as integers and
string cells as text; metadata values keep full repr precision so a
re-parsed metadata block reconstructs the exact resolved scenario.  Output
is byte-identical across runs: no timestamps, no environment-dependent
content, sorted metadata keys.

The CSV writer formats an all-float64 chunk in numpy: each cell becomes a
NUL-padded 16-byte field of two little-endian words (decimal exponent from
log10, nine digits from one rounding, digit groups from a 10**4-entry ASCII
table, masks that drop trailing zeros and a bare point, "%g"'s choice of
fixed or exponent notation), written straight into the chunk's line buffer
beside its separators; deleting the NUL bytes gives the chunk's text.  A
cell near a rounding tie, inf, nan and a cell under 1e-299 are printed by
Python's own "%.9g".  Any other chunk (optq's str and int columns) is
printed row by row with one %-template per row, a CELL_FORMATS entry per
column.  The JSON writer prints json.dumps(indent=1) of the table byte for
byte, a chunk at a time through json's C encoder.
"""

import functools
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import ConfigError

#: %-template of a data cell per dtype kind; an all-float64 chunk's cells are
#: printed by _float_fields as "%.9g" prints them, inf, nan and -0.0 included
CELL_FORMATS = {"f": "%.9g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}

#: data cells per chunk of CSV or JSON text: a CSV chunk of float cells peaks
#: at about 92 B per cell (0.75 MB)
CHUNK_CELLS = 8192

_WORD = np.dtype("<i8")
#: bytes of a float cell's NUL-padded field: "-1.23456789e-100" is the longest
FIELD = 16
#: the lowest decimal exponent of a normal double: the tables' index offset
_X_MIN = -308
#: the lowest decimal exponent X whose 10**(8 - X) is a finite double: a cell
#: below it (under 1e-299, subnormals included) is printed by Python
_X_SCALED = -299
#: a scaled value this close to a .5 tie may round the other way in float
#: arithmetic (its error is below 1e-6), so its cell is printed by Python
_TIE_MARGIN = 1e-5


@functools.cache
def _tables():
    """The float formatter's lookup tables, built on the first write: built at
    import, they paged in numpy code that added ~1 MB to every command's peak.

    A cell's field is two little-endian words: byte 0 holds the sign, the
    rest one of three layouts chosen by the decimal exponent X as "%g"
    chooses (d0..d8 the nine digits, f the significant digits after d0):
    exponent notation "d0.d1..df" at bytes 1.. and "e+XX" at byte 11;
    fixed with X >= 0, "d0..dX.d(X+1)..df" at bytes 1..; fixed with X < 0,
    "0." and -X-1 zeros at bytes 1..5 and "d0..df" at bytes 6..
    """
    # per 4-digit group g, broadcast from one axis per digit: its ASCII, and
    # the place of its last nonzero digit counted from 1 (d1..d4) or 5 (d5..d8)
    digit = np.arange(10, dtype=_WORD) + 48
    places = [np.arange(10).reshape((10,) + (1,) * (3 - i)) for i in range(4)]
    ascii4 = (digit[places[0]] | digit[places[1]] << 8 | digit[places[2]] << 16
              | digit[places[3]] << 24).ravel()
    sig = functools.reduce(np.maximum, [(p > 0) * (i + 1) for i, p in enumerate(places)]).ravel()

    # per decimal exponent X of a normal double: 10**(8 - X) from _X_SCALED
    # up (nan below, so the cell is printed by Python), the exponent suffix
    # "e+XX" and 9 times the layout (X clipped to -5..9)
    x = np.arange(_X_MIN, 309)
    scale = np.full(x.size, np.nan)
    scale[_X_SCALED - _X_MIN:] = [10.0 ** (8 - k) for k in range(_X_SCALED, 309)]
    e = np.abs(x)
    tail = (0x65 | np.where(x < 0, 0x2D, 0x2B) << 8
            | ascii4[e] >> np.where(e < 100, 16, 8) << 16) << 24
    tail[(x >= -4) & (x < 9)] = 0
    t = SimpleNamespace(ascii4=ascii4, sig_hi=sig.astype(np.int8), tail=tail,
                        sig_lo=np.where(sig > 0, sig + 4, 0).astype(np.int8),
                        scale=scale, layout=9 * (np.minimum(np.maximum(x, -5), 9) + 5))

    # per layout (X clipped to -5..9) and f, three pairs: which of d1..d8 stand before the
    # point and which after it; the shifts that place d0 and the digits before the point; the
    # "0" of d0's ASCII, the "0." prefix and the point, unless X < 0 or no digit follows it
    x, f = np.arange(-5, 10)[:, None], np.arange(9)
    low = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64).view(_WORD)  # low n bytes
    lead = (x >= -4) & (x < 0)
    xp = np.where((x >= 0) & (x < 9), x, 0)  # digits after d0 before the point
    before = low[np.where(lead, f, xp)]
    zeros = 0x3030303030303030 & low[np.where(lead, 2 - x, 3)] & ~low[3]  # bytes 3..1-X
    head = np.where(lead, 0x2E3000 | zeros, 0)
    point = np.where((f > xp) & ~lead, 0x2E << 8 * ((2 + xp) % 8), 0)
    far = 2 + xp >= 8  # the point falls in word 1
    s0 = np.where(lead, 48, 8) + 0 * f  # the shift that places d0
    t.by_lf = np.stack([before, low[f] & ~before, s0, 56 - s0, 0x30 << s0 | head
                        | np.where(far, 0, point), np.where(far, point, 0)], -1)
    t.by_lf = t.by_lf.reshape(-1, 3, 2).transpose(1, 0, 2).copy()
    return t


def _float_fields(x, out):
    """(2, len(x)) words, in out: each float64 of contiguous x as "%.9g" prints it, a
    NUL-padded field.

    Word 0 holds bytes 0..7 of a cell's field and word 1 bytes 8..15.  A
    normal value a of decimal exponent X prints the nine digits of
    m = round(a * 10**(8 - X)), laid out by lookup tables (_tables).
    A cell whose scaled value lies within _TIE_MARGIN of a .5 tie, inf, nan
    and a cell of exponent below _X_SCALED are printed by Python's own "%.9g"
    instead: inf and nan stay inf and nan through the scaling, and take any
    table entry until then.
    To keep the working set small, steps work in place and one buffer holds
    each pair.
    """
    t = _tables()
    scaled = np.abs(x)
    zero = scaled == 0
    scaled[zero] = 1.0  # a zero's stand-in, which prints as "0" once d0 is cleared
    with np.errstate(invalid="ignore"):  # inf and nan cast to any index
        j = np.log10(scaled)
        j -= _X_MIN  # >= 0 for a normal value, so the cast floors it
        j = j.astype(np.intp)
        scaled *= np.take(t.scale, j, mode="clip")
        m = np.rint(scaled)
        # a near-tie, inf, nan, or nan from the scale of a cell under 1e-299
        python = ~(np.abs(scaled - m) <= 0.5 - _TIE_MARGIN)
        # rounding can carry to 10**9, and the exponent can fall one short just
        # above a power of ten; just below one, where it can overshoot, m rounds
        # to 10**8 at the same exponent that the exact digits carry to
        high = m >= 1e9
        if high.any():
            j += high
            scaled[high] /= 10.0
            m = np.rint(scaled)
            python |= np.abs(scaled - m) > 0.5 - _TIE_MARGIN
        rest = m.astype(np.intp)
    del scaled, m

    lo, hi = words = np.empty((2, len(x)), _WORD)
    np.floor_divide(rest, 100_000_000, out=lo)  # d0
    rest -= lo * 100_000_000
    lo[zero] = 0
    g1 = rest // 10_000
    rest -= g1 * 10_000  # now g2
    frac = np.take(t.ascii4, rest, mode="clip")
    frac <<= 32
    frac |= np.take(t.ascii4, g1, mode="clip")  # d1..d8
    lf = np.take(t.layout, j, mode="clip")
    lf += np.maximum(np.take(t.sig_hi, g1, mode="clip"), np.take(t.sig_lo, rest, mode="clip"))
    np.take(t.tail, j, out=hi, mode="clip")  # "raise" would fill out through a buffer
    del g1, rest, j
    pair = np.take(t.by_lf[0], lf, axis=0, mode="clip")
    after = frac & pair[:, 1]
    before = np.bitwise_and(frac, pair[:, 0], out=frac)
    hi |= after >> 40
    after <<= 24
    np.take(t.by_lf[1], lf, axis=0, out=pair, mode="clip")
    hi |= before >> pair[:, 1]
    before <<= 8
    before |= lo  # d0 just below the digits before the point
    before <<= pair[:, 0]
    np.bitwise_or(before, after, out=lo)
    del before, after
    lo |= x.view(_WORD) >> 63 & 0x2D  # "-" where the sign bit is set
    out = np.bitwise_or(words, np.take(t.by_lf[2], lf, axis=0, out=pair, mode="clip").T, out=out)
    for i in np.flatnonzero(python):
        out[:, i] = np.frombuffer((b"%.9g" % x[i]).ljust(FIELD, b"\0"), _WORD)
    return out


@functools.lru_cache(maxsize=16)
def _layout(dtype):
    """How _csv_block prints a row dtype, worked out once per table: the "," or newline
    after each cell if every column is a packed float64, else None and the row's %-template."""
    names = dtype.names
    if dtype == np.dtype([(c, np.float64) for c in names]):
        return np.frombuffer(b"," * (len(names) - 1) + b"\n", np.uint8), None
    return None, ",".join(CELL_FORMATS[dtype[c].kind] for c in names) + "\n"


def _csv_block(rows):
    """The CSV text of a structured array's rows.

    A contiguous all-float64 block is read through a view, and its cells'
    NUL-padded fields (from _float_fields) and their "," or newline fill one
    line buffer through strided views: its lines are the cells' FIELD + 1
    byte slots end to end, and deleting its NUL bytes gives the text.  Any
    other block is printed row by row with its %-template.
    """
    seps, template = _layout(rows.dtype)
    if template:
        return "".join(map(template.__mod__, rows.tolist())).encode()
    values, slot = rows.view(np.float64), FIELD + 1
    text = bytearray(len(values) * slot)
    _float_fields(values, np.ndarray((2, len(values)), _WORD, text, 0, (8, slot)))
    np.ndarray((len(rows), len(seps)), np.uint8, text, FIELD, (slot * len(seps), slot))[...] = seps
    return text.translate(None, b"\0")


def _format_meta(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


class ResultTable:
    """A named table of typed columns, read block by block, plus a flat metadata mapping.

    blocks() returns a new iterator over structured arrays of the table's
    dtype, one field per column, that hold its rows in order.  from_arrays
    builds a table of one block; a steady-state sweep's table solves a block
    as the writer reads it, so it is never held whole.
    """

    def __init__(self, name, dtype, blocks, metadata):
        self.name = name
        self.dtype = np.dtype(dtype)
        self.columns = self.dtype.names
        self.blocks = blocks
        self.metadata = dict(metadata or {})

    @property
    def rows(self):
        """Every row in one structured array, joined from the blocks on each call."""
        return np.concatenate([np.empty(0, self.dtype), *self.blocks()])

    @classmethod
    def from_arrays(cls, name, columns, arrays, metadata=None):
        """The table whose columns are `arrays`, one equal-length array per name in `columns`."""
        if len(arrays) != len(columns):
            raise ConfigError(f"{len(arrays)} arrays for {len(columns)} columns in {name}")
        if len({len(a) for a in arrays}) > 1:
            raise ConfigError(f"column length mismatch in {name}")
        arrays = [np.asarray(a) for a in arrays]
        rows = np.empty(len(arrays[0]), [(c, a.dtype) for c, a in zip(columns, arrays)])
        for c, a in zip(columns, arrays):
            rows[c] = a
        return cls(name, rows.dtype, lambda: iter((rows,)), metadata)

    def _chunks(self):
        """The rows, each block cut into the fewest equal chunks of about CHUNK_CELLS cells."""
        for block in self.blocks():
            parts = -(-len(block) * len(self.columns) // CHUNK_CELLS)
            yield from np.array_split(block, parts) if parts else ()

    def _csv_chunks(self):
        """The CSV bytes: the header, then the data chunk by chunk."""
        header = [f"# plasmonsim {__version__}", f"# table = {self.name}"]
        header += [f"# {key} = {_format_meta(self.metadata[key])}" for key in sorted(self.metadata)]
        header.append(",".join(self.columns))
        yield ("\n".join(header) + "\n").encode()
        yield from map(_csv_block, self._chunks())

    def _json_chunks(self):
        """The bytes of json.dumps(indent=1) of the table, its rows encoded chunk by chunk.

        The header is the payload with no rows, cut before its "[]".  Each
        chunk goes through json's C encoder (which takes no indent), its
        separators those of a row's cells, and its row brackets spliced in:
        an encoded string holds no raw newline, so "],\n   [" is always one.
        """
        import json  # only a JSON table needs it: a CSV command does not load it

        payload = {
            "tool": f"plasmonsim {__version__}",
            "table": self.name,
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "columns": list(self.columns),
            "rows": [],
        }
        head, tail = json.dumps(payload, indent=1).rsplit("[]", 1)
        yield head.encode()
        encode = json.JSONEncoder(separators=(",\n   ", ": ")).encode
        opening = "[\n"
        for rows in self._chunks():
            text = encode(rows.tolist())[2:-2].replace("],\n   [", "\n  ],\n  [\n   ")
            yield f"{opening}  [\n   {text}\n  ]".encode()
            opening = ",\n"
        yield (("[]" if opening == "[\n" else "\n ]") + tail + "\n").encode()

    def write(self, path, fmt="csv"):
        chunks = self._csv_chunks() if fmt == "csv" else self._json_chunks()
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return path


def scenario_metadata(scenario):
    """Flatten a Scenario into metadata entries with provenance tags and calibration diagnostics."""
    meta = {"scenario": scenario.name}
    for key in sorted(scenario.params):
        meta[f"param.{key}"] = scenario.params[key]
    for key in sorted(scenario.provenance):
        meta[f"provenance.{key}"] = scenario.provenance[key]
    for key in sorted(scenario.calibration):
        meta[f"calibration.{key}"] = scenario.calibration[key]
    for i, note in enumerate(scenario.notes):
        meta[f"note.{i}"] = note
    return meta
