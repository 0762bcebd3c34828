"""The byte format of every file a run writes, and the readers of every
file the package reads.

Text is utf-8. CSV files use the csv module's default dialect, so each row
ends in \\r\\n, and a float cell is written as its `repr`, the shortest text
that reads back to the same double. JSON documents are canonical: keys
sorted, two-space indent, one final newline. `read_csv` and `read_json` read
utf-8 text and raise a file that cannot be opened, decoded or parsed as the
caller's error class, with a message that names the file (and the line).
`make_dir` and `write_text` make every output and raise `WriteError`.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence


class WriteError(Exception):
    """An output directory or file that cannot be made or written."""


def make_dir(path: str | Path) -> None:
    """Make the directory at `path` and its missing parents."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    write_text(path, buf.getvalue())


def write_json(path: str | Path, doc: Any) -> None:
    write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_text(path: str | Path, text: str) -> None:
    """Write `text` to `path` as utf-8, untranslated, making its directory."""
    make_dir(Path(path).parent)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteError(f"cannot write {path}: {exc.strerror}") from None


def read_csv(path: str | Path, error: Callable) -> Iterator[tuple[int, list[str]]]:
    """Each record of the CSV file at `path`, header first, with the line it
    ends on. A file that cannot be opened or decoded, or a record the csv
    module refuses (a cell over `csv.field_size_limit()`), raises `error`."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for record in reader:
                yield reader.line_num, record
    except FileNotFoundError:
        raise error(f"no such file: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        # the text layer decodes ahead of the reader: find the bad byte's line
        text = path.read_bytes().decode("utf-8", "surrogateescape")
        line = len(re.findall("\r\n?|\n", re.match("[^\udc80-\udcff]*", text)[0])) + 1
        raise error(f"line {line} of {path} is not utf-8 text") from None
    except csv.Error as exc:
        raise error(f"line {reader.line_num} of {path}: {exc}") from None


def _non_finite(word: str) -> Any:
    raise ValueError(f"{word} is not a JSON number")


def read_json(path: str | Path, error: Callable) -> Any:
    """The JSON document at `path`. A file that cannot be opened or
    decoded, or text that is not one JSON value (RFC 8259, so NaN,
    Infinity and -Infinity are refused), raises `error`."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=_non_finite)
    except FileNotFoundError:
        raise error(f"no such file: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad utf-8, syntax or depth
        raise error(f"{path} is not valid JSON: {exc}") from None
