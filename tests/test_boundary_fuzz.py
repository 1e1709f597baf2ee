"""Boundary fuzz of CSV ingestion through the command line: small generated
files with numbers up to the ends of the double range, constant and
near-constant columns, blanks, quotes, a byte-order mark, CRLF, ragged rows
and header rows, each run as a short `sample` with and without
--no-standardize."""

import contextlib
import io
import math
import os
import re
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ebggm.cli import main

EXPONENTS = st.integers(-308, 308)
NUMBERS = st.one_of(
    st.builds(lambda m, e: f"{m:.4f}e{e}", st.floats(-9.9999, 9.9999), EXPONENTS),
    st.integers(-3, 3).map(str),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
)
CELLS = st.one_of(NUMBERS, NUMBERS.map(lambda s: f'"{s}"'))
ODD_CELLS = st.sampled_from(["", " ", "x", '"1,5"', "nan", "1e999", "-1e-999"])


@st.composite
def csv_texts(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    columns = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["free", "free", "constant", "near"]))
        if kind == "free":
            columns.append(draw(st.lists(CELLS, min_size=n_rows, max_size=n_rows)))
        elif kind == "constant":
            columns.append([draw(NUMBERS)] * n_rows)
        else:  # a few ulps apart at one scale
            e = draw(EXPONENTS)
            digits = draw(st.lists(st.integers(0, 9), min_size=n_rows, max_size=n_rows))
            columns.append([f"1.00000000000000{d}e{e}" for d in digits])
    rows = [list(row) for row in zip(*columns)]
    if draw(st.booleans()):  # one blank, text or out-of-range cell
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, n_cols - 1))] = \
            draw(ODD_CELLS)
    if draw(st.booleans()):  # one ragged row
        i = draw(st.integers(0, n_rows - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    if draw(st.booleans()):
        rows.insert(0, draw(st.sampled_from([[f"x{j + 1}" for j in range(n_cols)],
                                             [f'"v {j}"' for j in range(n_cols)]])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(row) for row in rows) + draw(st.sampled_from(["", newline]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


def numbers_in(path):
    with open(path, encoding="utf-8") as fh:
        for token in re.split(r"[\s,=:()\[\]]+", fh.read()):
            try:
                yield token, float(token)
            except ValueError:
                pass


@settings(max_examples=40, deadline=5000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts())
def test_sample_on_boundary_csv_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        for extra in ([], ["--no-standardize"]):
            out = os.path.join(tmp, "out" + "".join(extra))
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = main(["sample", "--data", path, "--n-steps", "20", "--n-burn", "0",
                             "--seed", "1", "--out-dir", out, *extra])
            assert not caught, [str(w.message) for w in caught]
            lines = err.getvalue().splitlines()
            if code == 2:
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
                assert path in lines[0] or "--" in lines[0], lines
                continue
            assert code == 0 and lines == [], (code, lines)
            for name in sorted(os.listdir(out)):
                for token, value in numbers_in(os.path.join(out, name)):
                    assert math.isfinite(value), (name, token)
