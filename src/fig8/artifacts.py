"""The artifact format: fig8 writes every file, and reads every solution
record back, through this module.

JSON: `stamp(cfg)` merged with the payload, indent=2, a trailing newline.
CSV: `# key: value` comment lines, a header row, then cells that are empty
for None, a string as it is, or a number as `.17g` text (exact for floats).
It imports nothing from fig8 but the version, so `fig8.config` can use it.
"""

import json
from pathlib import Path

from . import __version__

__all__ = ["stamp", "comment_lines", "json_text", "write_json", "write_csv",
           "read_record"]


def stamp(cfg) -> dict:
    """The version and run configuration that every artifact carries."""
    return {"version": __version__, "config": cfg.to_json_dict()}


def comment_lines(fields: dict) -> tuple[str, ...]:
    """CSV header lines `key: value`; values other than strings as JSON."""
    return tuple(f"{key}: {value if isinstance(value, str) else json.dumps(value)}"
                 for key, value in fields.items())


def json_text(payload) -> str:
    """The one JSON layout of fig8's files and printed summaries."""
    return json.dumps(payload, indent=2)


def write_json(path, payload: dict):
    with open(path, "w") as fh:
        fh.write(json_text(payload) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.17g}"


def write_csv(path, header_lines, columns, rows):
    """`# line` for each header line, the column row, then one line per row."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def read_record(path) -> dict:
    """The solution-record dict of a record JSON or of an orbit CSV's
    `# record:` line; ValueError if there is none. Fields are not checked."""
    path = Path(path)
    with open(path) as fh:
        if path.suffix != ".csv":
            return json.load(fh)
        for line in fh:
            if line.startswith("# record:"):
                return json.loads(line.split(":", 1)[1])
            if not line.startswith("#"):
                break
    raise ValueError(f"{path} carries no embedded solution record")
