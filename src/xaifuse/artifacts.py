"""The byte format of every file a run writes.

Text is utf-8. CSV files use the csv module's default dialect, so each row
ends in \\r\\n, and a float cell is written as its `repr`, the shortest text
that reads back to the same double. JSON documents are canonical: keys
sorted, two-space indent, one final newline.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Iterable, Sequence


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def write_json(path: str | Path, doc: Any) -> None:
    write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
