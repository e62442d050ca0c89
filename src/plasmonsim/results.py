"""Deterministic result tables: CSV with a metadata comment block, or JSON.

A table's rows are one numpy record array with a typed field per column.
Float cells are serialized with 9 significant digits, byte for byte as
Python's "%.9g" prints them; integer and boolean cells as integers and
string cells as text; metadata values keep full repr precision so a
re-parsed metadata block reconstructs the exact resolved scenario.  Output
is byte-identical across runs: no timestamps, no environment-dependent
content, sorted metadata keys.

The CSV writer formats a block of about CHUNK_CELLS cells at a time, column
by column in numpy rather than cell by cell: each float becomes a
NUL-padded 16-byte field built from two little-endian words (its decimal
exponent from log10, nine digits from one rounding, digit groups from a
10**4-entry ASCII table, masks that drop trailing zeros and a bare point,
and fixed or exponent notation chosen by the "%g" rule), and one compress
of the block's non-NUL bytes gives its text.  The rounding is exact unless
the scaled value lies within _TIE_MARGIN of a .5 tie; such cells, and
subnormals, are printed by Python's own "%.9g".
"""

import functools
import json
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import ConfigError

#: %-template of a non-float data cell per dtype kind; float cells are
#: printed by _float_fields as "%.9g" prints them, inf, nan and -0.0 included
CELL_FORMATS = {"i": "%d", "u": "%d", "b": "%d", "U": "%s"}

#: data cells per block of CSV text: a block's working set stays under 1 MB,
#: so a large table's text is never held whole
CHUNK_CELLS = 4096

_WORD = np.dtype("<u8")
#: bytes of a float cell's NUL-padded field: "-1.23456789e-100" is the longest
FIELD = 16
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max
#: the lowest decimal exponent of a normal double: the tables' index offset
_X_MIN = -308
#: a scaled value this close to a .5 tie may round the other way in float
#: arithmetic (its error is below 1e-6), so its cell is printed by Python
_TIE_MARGIN = 1e-5


@functools.cache
def _tables():
    """The float formatter's lookup tables, built on the first write.

    Not at import: the first use of each numpy loop pages in its code, and
    building the tables at import added about 1 MB to every command's peak
    memory.  The 10**4-entry tables use the loops that formatting uses; the
    135 per-layout entries are plain Python.

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

    def last_nonzero(first):
        at = [np.array([0] + [first + i] * 9, np.int8)[p] for i, p in enumerate(places)]
        return np.maximum(np.maximum(at[0], at[1]), np.maximum(at[2], at[3])).ravel()

    # per decimal exponent X of a normal double: 10**(8 - X) in two halves,
    # the exponent suffix "e+XX" and the layout (X clipped to -5..9)
    x = np.arange(_X_MIN, 309)
    pow10 = np.array([10.0**k for k in range(-150, 159)])
    k = 8 - x
    scale_a, scale_b = pow10[k // 2 + 150], pow10[k - k // 2 + 150]
    e = np.abs(x)
    tail = (0x65 | np.where(x < 0, 0x2D, 0x2B).astype(_WORD) << 8
            | ascii4[e] >> np.where(e < 100, 16, 8).astype(_WORD) << 16) << 24
    tail[(x >= -4) & (x < 9)] = 0
    layout = np.clip(x, -5, 9) + 5

    # per layout and f: which of d1..d8 stand before the point and which after
    # it, the point unless X < 0 or no digit follows it, and the "0." prefix
    low = [(1 << 8 * n) - 1 for n in range(9)]  # the low n bytes set
    rows = []
    for x in range(-5, 10):
        lead = -4 <= x < 0
        xp = x if 0 <= x < 9 else 0  # digits after d0 before the point
        head = int.from_bytes(b"\0" + b"0." + b"0" * (-x - 1), "little") if lead else 0
        for f in range(9):
            before = low[f if lead else xp]
            point = 0x2E << 8 * (2 + xp) if f > xp and not lead else 0
            rows.append((before, low[f] & ~before, head | point & low[8], point >> 64,
                         48 if lead else 8))
    before, after, lo, hi, d0_shift = np.array(rows, _WORD).T.copy()
    return SimpleNamespace(
        ascii4=ascii4, sig_hi=last_nonzero(1), sig_lo=last_nonzero(5), digit=digit,
        scale_a=scale_a, scale_b=scale_b, tail=tail, layout=layout,
        d0_shift=d0_shift, before=before, after=after, lo=lo, hi=hi)


_ZERO, _INF, _NAN = (int.from_bytes(b"\0" + s, "little") for s in (b"0", b"inf", b"nan"))


def _float_fields(x):
    """(len(x), FIELD) uint8: each float64 of x as "%.9g" prints it, NUL-padded.

    A normal value a of decimal exponent X prints the nine digits of
    m = round(a * 10**(8 - X)), laid out by lookup tables (_tables).
    A cell whose scaled value lies within _TIE_MARGIN of a .5 tie, and a
    subnormal, is printed by Python's own "%.9g" instead.
    """
    t = _tables()
    a = np.abs(x)
    normal = (a >= _TINY) & (a <= _HUGE)
    scaled = np.where(normal, a, 1.0)
    j = np.floor(np.log10(scaled)).astype(np.intp) - _X_MIN
    scaled *= t.scale_a[j]
    scaled *= t.scale_b[j]
    m = np.rint(scaled)
    python = np.abs(scaled - m) > 0.5 - _TIE_MARGIN
    # rounding can carry to 10**9, and floor(log10) can fall one short just
    # above a power of ten; just below one, where it can overshoot, m rounds
    # to 10**8 at the same exponent that the exact digits carry to
    high = m >= 1e9
    if high.any():
        j += high
        scaled[high] /= 10.0
        m = np.rint(scaled)
        python |= np.abs(scaled - m) > 0.5 - _TIE_MARGIN

    d0, rest = np.divmod(m.astype(np.intp), 100_000_000)
    g1, g2 = np.divmod(rest, 10_000)
    frac = t.ascii4[g1] | t.ascii4[g2] << 32  # d1..d8
    lf = t.layout[j] * 9 + np.maximum(t.sig_hi[g1], t.sig_lo[g2])
    before = frac & t.before[lf]
    after = frac & t.after[lf]
    shift = t.d0_shift[lf]
    words = np.empty((len(x), 2), _WORD)
    words[:, 0] = ((x < 0).view(np.uint8) * 0x2D | t.lo[lf] | t.digit[d0] << shift
                   | before << (shift + 8) | after << 24)
    words[:, 1] = before >> (56 - shift) | after >> 40 | t.hi[lf] | t.tail[j]
    if not normal.all():
        odd = ~normal
        python |= odd & (a > 0) & (a < _TINY)
        nan = np.isnan(x)
        text = np.where(nan, _NAN, np.where(np.isinf(x), _INF, _ZERO))
        words[odd, 0] = (text | (np.signbit(x) & ~nan) * 0x2D)[odd]
        words[odd, 1] = 0
    fields = words.view(np.uint8).reshape(len(x), FIELD)
    for i in np.flatnonzero(python):
        fields[i] = np.frombuffer((b"%.9g" % x[i]).ljust(FIELD, b"\0"), np.uint8)
    return fields


def _csv_block(rows):
    """The CSV text of a structured array's rows, as uint8.

    Each column becomes a NUL-padded fixed-width field per row, followed by
    its "," or newline; one compress of the non-NUL bytes gives the text.
    Float columns go through _float_fields together, other kinds through
    their CELL_FORMATS template.
    """
    names = rows.dtype.names
    floats = [c for c in names if rows.dtype[c].kind == "f"]
    if floats:
        with np.errstate(invalid="ignore"):  # a float32 signalling NaN widens quietly
            values = np.stack([rows[c] for c in floats], axis=1).astype(np.float64)
        float_fields = _float_fields(values.ravel()).reshape(len(rows), len(floats), FIELD)
    fields = []
    for c in names:
        if c in floats:
            fields.append(float_fields[:, floats.index(c)])
        else:
            template = CELL_FORMATS[rows.dtype[c].kind]
            text = np.array([(template % v).encode() for v in rows[c].tolist()], dtype=bytes)
            fields.append(text.view(np.uint8).reshape(len(rows), -1))
    ends = np.cumsum([field.shape[1] + 1 for field in fields])
    buf = np.zeros((len(rows), ends[-1]), np.uint8)
    for field, end in zip(fields, ends):
        buf[:, end - 1 - field.shape[1]:end - 1] = field
    buf[:, ends - 1] = ord(",")
    buf[:, -1] = ord("\n")
    flat = buf.ravel()
    return flat.compress(flat != 0)


def _format_meta(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


class ResultTable:
    """A named record array, one typed field per column, plus a flat metadata mapping.

    Build one with from_arrays.
    """

    def __init__(self, name, rows, metadata):
        self.name = name
        self.rows = rows
        self.columns = rows.dtype.names
        self.metadata = dict(metadata or {})

    @classmethod
    def from_arrays(cls, name, columns, arrays, metadata=None):
        """The table whose columns are `arrays`, one equal-length array per name in `columns`."""
        if len(arrays) != len(columns):
            raise ConfigError(f"{len(arrays)} arrays for {len(columns)} columns in {name}")
        if len({len(a) for a in arrays}) > 1:
            raise ConfigError(f"column length mismatch in {name}")
        return cls(name, np.rec.fromarrays(arrays, names=list(columns)), metadata)

    def _csv_chunks(self):
        """The CSV bytes: the header, then the data in blocks of about CHUNK_CELLS cells."""
        header = [f"# plasmonsim {__version__}", f"# table = {self.name}"]
        header += [f"# {key} = {_format_meta(self.metadata[key])}" for key in sorted(self.metadata)]
        header.append(",".join(self.columns))
        yield ("\n".join(header) + "\n").encode()
        rows = self.rows.view(np.ndarray)
        block_rows = max(1, CHUNK_CELLS // len(self.columns))
        for start in range(0, len(rows), block_rows):
            yield _csv_block(rows[start:start + block_rows])

    def to_json(self):
        payload = {
            "tool": f"plasmonsim {__version__}",
            "table": self.name,
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "columns": list(self.columns),
            "rows": self.rows.tolist(),
        }
        return json.dumps(payload, indent=1, sort_keys=False) + "\n"

    def write(self, path, fmt="csv"):
        chunks = self._csv_chunks() if fmt == "csv" else (self.to_json().encode(),)
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
