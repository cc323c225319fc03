"""The one CSV writer behind every report and artifact ``to_csv``.

Numbers are written with repr of the float (the shortest round-trip
form), so identical data serialise to identical bytes. Strings pass
through unchanged and None becomes an empty cell.
"""

from __future__ import annotations

import csv


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return repr(float(x))


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)
