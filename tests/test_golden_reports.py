"""Replay the committed report goldens through ``cli.main``.

Exit codes and every non-float field must match exactly, floats within
1e-12 absolute (they may move at roundoff when the order of a sum
changes), and CSV reports, which the goldens hold only for exact
results, byte for byte.  Regenerate the goldens with
``tests/capture_golden_reports.py``.
"""

import json

import pytest

from capture_golden_reports import GOLDEN_PATH, run

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


def test_golden_reports_replay():
    assert len(GOLDENS) >= 40
    for golden in GOLDENS:
        argv = golden["argv"]
        code, out = run(argv)
        assert code == golden["exit"], argv
        if "csv" in argv:
            assert out == golden["stdout"], argv
            continue
        exact, floats = flatten(json.loads(out))
        golden_exact, golden_floats = flatten(json.loads(golden["stdout"]))
        assert exact == golden_exact, argv
        assert floats.keys() == golden_floats.keys(), argv
        for key, value in floats.items():
            assert value == pytest.approx(golden_floats[key], rel=0, abs=FLOAT_TOLERANCE), (argv, key)
