"""Replay the committed report goldens through ``cli.main``.

Exit codes and every non-float field must match exactly, floats within
1e-12 absolute (they may move at roundoff when the order of a sum
changes).  CSV reports of exact results and of ``poly`` match byte for
byte; the float suites' CSV matches row by row, float cells within the
same 1e-12 and every other cell, the header included, exactly.
``tests/capture_golden_reports.py`` captures goldens for new argvs.
"""

import csv
import io
import json

import pytest

from capture_golden_reports import EXACT_SUITES, GOLDEN_PATH, golden_argvs, run

FLOAT_TOLERANCE = 1e-12

GOLDENS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["reports"]


def flatten(value, path: str = "") -> tuple[dict[str, object], dict[str, float]]:
    """Split a report into its non-float and float fields, keyed by path."""
    exact: dict[str, object] = {}
    floats: dict[str, float] = {}
    if isinstance(value, dict):
        items = ((f"{path}.{key}", value[key]) for key in sorted(value))
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    elif isinstance(value, float):
        return exact, {path: value}
    else:
        return {path: value}, floats
    for sub_path, item in items:
        sub_exact, sub_floats = flatten(item, sub_path)
        exact.update(sub_exact)
        floats.update(sub_floats)
    return exact, floats


def test_flatten_splits_floats():
    exact, floats = flatten({"a": [1, 0.5, "x"], "b": {"c": True, "d": 2.0}})
    assert exact == {".a[0]": 1, ".a[2]": "x", ".b.c": True}
    assert floats == {".a[1]": 0.5, ".b.d": 2.0}


def is_float_cell(cell: str) -> bool:
    """A CSV cell written from a float: it parses as one and shows a point,
    an exponent or an infinity, unlike integers, fractions and booleans."""
    try:
        float(cell)
    except ValueError:
        return False
    return any(mark in cell for mark in (".", "e", "inf"))


def test_is_float_cell():
    assert [is_float_cell(c) for c in ("0.5", "1e-16", "-inf", "0", "192/325", "True", "2,1")] == [
        True, True, True, False, False, False, False,
    ]


def assert_csv_close(out: str, golden: str, argv: list[str]) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    golden_rows = list(csv.reader(io.StringIO(golden)))
    assert len(rows) == len(golden_rows), argv
    for row, golden_row in zip(rows, golden_rows):
        assert len(row) == len(golden_row), (argv, golden_row)
        for cell, golden_cell in zip(row, golden_row):
            if is_float_cell(golden_cell):
                expected = pytest.approx(float(golden_cell), rel=0, abs=FLOAT_TOLERANCE)
                assert float(cell) == expected, (argv, golden_row)
            else:
                assert cell == golden_cell, (argv, golden_row)


def test_golden_reports_replay():
    assert len(GOLDENS) >= 40
    # every argv has its golden: the capture script adds a new one
    assert sorted(map(json.dumps, golden_argvs())) == sorted(json.dumps(g["argv"]) for g in GOLDENS)
    for golden in GOLDENS:
        argv = golden["argv"]
        code, out = run(argv)
        assert code == golden["exit"], argv
        if "csv" in argv:
            if argv[0] == "poly" or argv[1] in EXACT_SUITES:
                assert out == golden["stdout"], argv
            else:
                assert_csv_close(out, golden["stdout"], argv)
            continue
        exact, floats = flatten(json.loads(out))
        golden_exact, golden_floats = flatten(json.loads(golden["stdout"]))
        assert exact == golden_exact, argv
        assert floats.keys() == golden_floats.keys(), argv
        for key, value in floats.items():
            assert value == pytest.approx(golden_floats[key], rel=0, abs=FLOAT_TOLERANCE), (argv, key)
