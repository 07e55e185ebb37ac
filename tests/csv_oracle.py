"""A second CSV reader, built on the stdlib `csv` module, as the test oracle
of `datasets.loads_csv`.

It reads rows one at a time, in the simplest way the file format allows, and
applies each rule in the order the format states: the line rules, then each
row's cells, then primality, order, finiteness and the header's X over the
whole columns.  It shares only the header step with the reader.
"""

import csv
import io
import math
from array import array

from heckebound.datasets import MAX_P, _head
from heckebound.errors import DatasetFormatError


def oracle(text: str):
    """What loads_csv should make of text: (header, p, a_re, a_im, a_raw), the
    three columns as the bytes of int64 and float64 arrays, or
    (DatasetFormatError, message) for its first fault."""
    try:
        return _read(text)
    except DatasetFormatError as exc:
        return DatasetFormatError, str(exc)


def _read(text):
    data = text.encode("utf-8", "surrogatepass").replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise DatasetFormatError(f"not UTF-8 text: {exc.reason}", line=line) from None
    head, _, body = text.partition("\n")
    header, _ = _head(head.encode("utf-8"))
    rows, lines, width = [], [], None
    reader = csv.reader(io.StringIO(body, newline=""), delimiter=",", quoting=csv.QUOTE_NONE)
    for cells in reader:
        line = reader.line_num + 1  # the header is line 1
        text = ",".join(cells)
        if not text.strip():
            continue
        width = width or (len(cells) if len(cells) in (3, 4) else None)
        if len(cells) != width:
            raise DatasetFormatError(f"expected {width or '3 or 4'} columns, got {len(cells)}", line=line)
        if "_" in text:
            raise DatasetFormatError(f"'_' in a number: {text!r}", line=line)
        if not text.isascii():
            raise DatasetFormatError(f"non-ASCII character in a number: {text!r}", line=line)
        try:
            row = [int(cells[0]), float(cells[1]), float(cells[2])] + [int(c) for c in cells[3:]]
        except ValueError as exc:
            raise DatasetFormatError(str(exc), line=line) from None
        if not 2 <= row[0] <= MAX_P:
            raise DatasetFormatError(f"p = {row[0]} is outside 2..{MAX_P}", line=line)
        rows.append(row)
        lines.append(line)
    top = max((row[0] for row in rows), default=2)
    prime = [False, False] + [True] * (top - 1)  # Eratosthenes, as a list of flags
    for d in range(2, math.isqrt(top) + 1):
        if prime[d]:
            prime[d * d :: d] = [False] * len(range(d * d, top + 1, d))
    for (p, *_), line in zip(rows, lines):
        if not prime[p]:
            raise DatasetFormatError(f"p = {p} is not prime", line=line)
    for before, (p, *_), line in zip([1] + [row[0] for row in rows], rows, lines):
        if p <= before:
            raise DatasetFormatError("records must be sorted strictly increasing in p >= 2", line=line)
    for (p, re, im, *_), line in zip(rows, lines):
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DatasetFormatError(f"eigenvalue at p = {p} is not finite", line=line)
    for (p, *_), line in zip(rows, lines):
        if p > header.X:
            raise DatasetFormatError(f"record prime {p} exceeds header X={header.X}", line=line)
    columns = [array(code, [row[i] for row in rows]).tobytes() for i, code in enumerate("qdd")]
    return (header, *columns, tuple(row[3] for row in rows) if width == 4 else None)
