"""Deterministic result tables: CSV with a metadata comment block, or JSON.

A table's rows are one numpy record array with a typed field per column.
Float cells are serialized with 9 significant digits, integer and boolean
cells as integers and string cells as text; metadata values keep full repr
precision so a re-parsed metadata block reconstructs the exact resolved
scenario.  Output is byte-identical across runs: no timestamps, no
environment-dependent content, sorted metadata keys.
"""

import json

import numpy as np

from . import __version__
from .errors import ConfigError

#: %-template of a data cell per dtype kind; "%.9g" prints what
#: format(x, ".9g") does, inf, nan and -0.0 included
CELL_FORMATS = {"f": "%.9g", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


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

    def to_csv(self):
        return "".join(self._csv_chunks())

    def _csv_chunks(self, rows_per_chunk=4096):
        """The CSV text in blocks of rows, so a large table's text is never held whole."""
        header = [f"# plasmonsim {__version__}", f"# table = {self.name}"]
        header += [f"# {key} = {_format_meta(self.metadata[key])}" for key in sorted(self.metadata)]
        header.append(",".join(self.columns))
        yield "\n".join(header) + "\n"
        formats = (CELL_FORMATS[self.rows.dtype[c].kind] for c in self.columns)
        line = (",".join(formats) + "\n").__mod__
        for start in range(0, len(self.rows), rows_per_chunk):
            yield "".join(map(line, self.rows[start:start + rows_per_chunk].tolist()))

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
        chunks = self._csv_chunks() if fmt == "csv" else (self.to_json(),)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        return path


def read_metadata(text):
    """Parse the '#' metadata block of an emitted CSV back into a dict.

    Values are restored with float() when they parse as numbers, so the
    round trip through repr is exact.
    """
    meta = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" not in body:
            continue
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        try:
            as_float = float(value)
        except ValueError:
            meta[key] = value
            continue
        if value.lstrip("+-").isdigit():
            meta[key] = int(value)
        else:
            meta[key] = as_float
    return meta


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
