"""CSV ingestion, artifact writers, and the run manifest format.

All floats are written with repr, i.e. the shortest string that round-trips
to the same double, so identical computations produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
from math import isfinite

import numpy as np

from .errors import NonFiniteError, ParseError, ZeroVarianceError
from .graphs import MAX_P, hex_value, id_width, n_candidate_edges
from .hiw import DatasetStats
from .saem import TRACE_COLUMNS


def ingest_csv(path, center=True, standardize=True):
    """Read a rectangular numeric CSV into (DatasetStats, raw matrix).

    A first row none of whose cells parses as a number is a header, and a
    row that mixes numbers and text is data.  An unparseable or non-finite
    cell raises ParseError with its row and column, and more than MAX_P
    columns raise ValueError naming the file.  Processing follows the model
    conventions: subtract column means when center, then divide by the
    sample standard deviation (n-1 denominator) when standardize.  Its
    ZeroVarianceError and NonFiniteError (DatasetStats.from_data) name the
    file and the column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a BOM is not a cell
        raw_rows = [row for row in csv.reader(fh)
                    if row and any(cell.strip() for cell in row)]
    if not raw_rows:
        raise ParseError(f"{path}: file contains no data")
    start = 1  # row number of data_rows[0]
    for cell in raw_rows[0]:
        try:
            float(cell)
            break
        except ValueError:
            pass
    else:  # no cell of the first row is a number: it is a header
        start = 2
    data_rows = raw_rows[start - 1:]
    if not data_rows:
        raise ParseError(f"{path}: header only, no data rows")
    width = len(data_rows[0])
    if width > MAX_P:
        raise ValueError(f"{path}: {width} columns, but at most {MAX_P} "
                         "variables are supported")
    values = []
    for offset, cells in enumerate(data_rows):
        rownum = start + offset
        if len(cells) != width:
            raise ParseError(
                f"{path}: row {rownum}: expected {width} columns, got {len(cells)}")
        parsed = []
        for col, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {rownum}, column {col + 1}: "
                    f"cannot parse {cell.strip()!r} as a number") from None
            if not isfinite(value):
                raise ParseError(
                    f"{path}: row {rownum}, column {col + 1}: "
                    f"non-finite value {cell.strip()!r}")
            parsed.append(value)
        values.append(parsed)
    raw = np.asarray(values, dtype=float)
    if raw.shape[0] < 2:
        raise ParseError(f"{path}: need at least 2 data rows, got {raw.shape[0]}")
    try:
        stats = DatasetStats.from_data(raw, center=center, standardize=standardize)
    except (NonFiniteError, ZeroVarianceError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return stats, raw


def fmt(value):
    """Deterministic text form: shortest round-trip repr for floats."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    _write_lines(path, header, (",".join(map(fmt, row)) + "\r\n" for row in rows))


def write_data_csv(path, data):
    data = np.asarray(data)
    header = [f"x{j + 1}" for j in range(data.shape[1])]
    write_csv(path, header, data)


def _write_lines(path, header, lines):
    """Write a CSV whose rows come formatted, each ending in \\r\\n as
    csv.writer ends them; none of them needs quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def write_visit_log(path, log):
    """One row per step: step, graph_id, k_edges, log_score, accepted.  A
    rejected step repeats the graph ID and the score object of the step
    before, so a row whose ID and score are the very objects of the row
    before reuses that row's middle text; any other row, such as a -0.0
    after a 0.0, formats its own."""
    _write_lines(path, ("step", "graph_id", "k_edges", "log_score", "accepted"),
                 _visit_rows(log))


def _visit_rows(log):
    middle = f"%0{id_width(log.p)}x,%d,%r"
    last_id = last_score = text = None
    for step, gid, score, accepted in zip(log.steps.tolist(), log.graph_ids,
                                          log.log_scores, log.accepted.tolist()):
        if gid is not last_id or score is not last_score:
            text = middle % (gid, gid.bit_count(), float(score))
            last_id, last_score = gid, score
        yield "%d,%s,%d\r\n" % (step, text, accepted)


def write_acceptance_trace(path, log):
    rates = log.running_acceptance()
    _write_lines(path, ("step", "acceptance_rate"),
                 ("%d,%r\r\n" % t for t in zip(log.steps.tolist(), rates.tolist())))


def write_posterior_csv(path, table):
    row = f"%d,%0{id_width(table.p)}x,%d,%r,%r\r\n"
    ids = table.graph_ids
    _write_lines(path, ("rank", "graph_id", "k_edges", "prob", "log_score"),
                 (row % t for t in zip(range(1, len(ids) + 1), ids,
                                       [gid.bit_count() for gid in ids],
                                       table.probs.tolist(), table.log_scores.tolist())))


def read_posterior_csv(path, p):
    """Read (graph_id, weight) pairs from a posterior table or a visit log.

    A table with a prob column (write_posterior_csv) gives each graph's
    probability, which must be finite and nonnegative; a visit log
    (write_visit_log) gives each graph's visit count.  Graphs come in order
    of first appearance.  Every graph_id must have the hex width of a
    p-vertex ID and no edge beyond p's, so a table written for another p is
    rejected, with its row.
    """
    width = id_width(p)
    weights = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty table")
        if "graph_id" not in header:
            raise ParseError(f"{path}: missing graph_id/prob columns")
        id_col = header.index("graph_id")
        pr_col = header.index("prob") if "prob" in header else None
        for rownum, cells in enumerate(reader, start=2):
            try:
                text = cells[id_col].strip()
                gid = hex_value(text)
                w = 1.0 if pr_col is None else float(cells[pr_col])
            except (ValueError, IndexError):
                raise ParseError(f"{path}: row {rownum}: malformed entry") from None
            if len(text) != width:
                fits = " or ".join(f"p={q}" for q in range(1, 8 * len(text) + 2)
                                   if id_width(q) == len(text)) or "no p"
                raise ParseError(f"{path}: row {rownum}: graph_id {text!r} has "
                                 f"{len(text)} hex digits, as for {fits}, not p={p}")
            if gid >> n_candidate_edges(p):  # a ValueError, as Graph(p, gid) raises
                raise ValueError(f"{path}: row {rownum}: graph_id {text!r} is "
                                 f"out of range for p={p}")
            if not (isfinite(w) and w >= 0.0):
                raise ParseError(
                    f"{path}: row {rownum}, column {pr_col + 1}: probability "
                    f"{cells[pr_col].strip()!r} is not finite and nonnegative")
            weights[gid] = weights.get(gid, 0.0) + w
    return list(weights.items())


def write_saem_trace(path, result):
    rows = ((int(row[0]),) + tuple(float(v) for v in row[1:]) for row in result.trace)
    write_csv(path, TRACE_COLUMNS, rows)


def write_manifest(path, mapping):
    with open(path, "w") as fh:
        for key in sorted(mapping):
            fh.write(f"{key}={fmt(mapping[key])}\n")


def read_manifest(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
