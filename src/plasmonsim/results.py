"""Deterministic result tables: CSV with a metadata comment block, or JSON.

Data cells are serialized with 9 significant digits; metadata values keep
full repr precision so a re-parsed metadata block reconstructs the exact
resolved scenario.  Output is byte-identical across runs: no timestamps,
no environment-dependent content, sorted metadata keys.
"""

import json
from operator import itemgetter

import numpy as np

from . import __version__
from .errors import ConfigError


def format_cell(value):
    """Serialize one data cell: floats at 9 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _format_meta(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


class ResultTable:
    """Column-ordered table plus a flat metadata mapping."""

    def __init__(self, name, columns, rows, metadata=None):
        self.name = name
        self.columns = tuple(columns)
        self.rows = [tuple(row) for row in rows]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ConfigError(
                    f"row width {len(row)} != column count {len(self.columns)} in {name}")
        self.metadata = dict(metadata or {})

    @classmethod
    def from_arrays(cls, name, columns, arrays, metadata=None):
        stacked = [np.asarray(a) for a in arrays]
        n = stacked[0].shape[0]
        for a in stacked:
            if a.shape[0] != n:
                raise ConfigError(f"column length mismatch in {name}")
        rows = list(zip(*(a.tolist() for a in stacked)))
        return cls(name, columns, rows, metadata)

    def to_csv(self):
        return "".join(self._csv_chunks())

    def _csv_chunks(self, rows_per_chunk=4096):
        """The CSV text in blocks of rows, so a large table's text is never held whole."""
        header = [f"# plasmonsim {__version__}", f"# table = {self.name}"]
        header += [f"# {key} = {_format_meta(self.metadata[key])}" for key in sorted(self.metadata)]
        header.append(",".join(self.columns))
        yield "\n".join(header) + "\n"
        # one %-template per table: "%.9g" on a float column prints what
        # format(x, ".9g") does, inf, nan and -0.0 included; a column holding
        # any other type is converted by format_cell first and printed by "%s"
        formats, convert = [], []
        for i in range(len(self.columns)):
            types = set(map(type, map(itemgetter(i), self.rows)))
            formats.append("%.9g" if types <= {float} else "%s")
            if not (types <= {float} or types <= {str}):
                convert.append(i)
        line = (",".join(formats) + "\n").__mod__
        for start in range(0, len(self.rows), rows_per_chunk):
            rows = self.rows[start:start + rows_per_chunk]
            if convert:
                rows = [tuple(format_cell(v) if i in convert else v for i, v in enumerate(row))
                        for row in rows]
            yield "".join(map(line, rows))

    def to_json(self):
        payload = {
            "tool": f"plasmonsim {__version__}",
            "table": self.name,
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "columns": list(self.columns),
            "rows": [[_json_cell(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=1, sort_keys=False) + "\n"

    def write(self, path, fmt="csv"):
        chunks = self._csv_chunks() if fmt == "csv" else (self.to_json(),)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        return path


def _json_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return str(value)


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
