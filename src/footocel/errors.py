"""Error taxonomy shared across the pipeline, and the one JSON-file reader.

Three failure families map onto the CLI exit codes: malformed input files
(ParseError, exit 1), queries that reference things the data does not contain
(QueryError, exit 1), and violated cross-file or internal invariants
(ConsistencyError, exit 2).
"""

from __future__ import annotations

import json


class ParseError(ValueError):
    """A file is syntactically or structurally malformed.

    Carries enough context (source name, line number or JSON path) in the
    message to point at the offending location.
    """

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        loc = ""
        if source is not None:
            loc += source
        if line is not None:
            loc += f":{line}" if loc else f"line {line}"
        super().__init__(f"{loc}: {message}" if loc else message)


def shown(value) -> str:
    """An input value as an error message echoes it: its repr, cut to 80
    characters with a trailing "..." when longer."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


class ConsistencyError(ValueError):
    """Individually well-formed data that contradicts itself or an invariant."""


class QueryError(ValueError):
    """A filter or lookup references an id/attribute absent from the data."""


def read_json(path):
    """Parse a JSON file; every error names it.  Non-UTF-8 bytes are invalid
    JSON, and NaN and Infinity are refused: JSON has no such numbers.  Arrays
    or objects nested deeper than the parser's recursion limit are invalid."""
    def reject(token: str):
        raise ParseError(f"$: {token} is not a JSON number", source=str(path))

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except ParseError:
        raise
    except ValueError as exc:  # bad syntax or encoding, or an integer too long to convert
        raise ParseError(f"$: invalid JSON: {exc}", source=str(path)) from None
    except RecursionError:
        raise ParseError("$: invalid JSON: nesting too deep", source=str(path)) from None
