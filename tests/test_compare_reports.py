"""scripts/compare_reports.py --rtol: numbers may move by rtol, all other text must match."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", ROOT / "scripts" / "compare_reports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_numbers_move_within_rtol_and_the_largest_move_is_returned(compare):
    this = '{\n  "re": "2.4041136917110992",\n  "tail": "1e-3"\n}\n'
    other = '{\n  "re": "2.4041136917111015",\n  "tail": "1e-3"\n}\n'
    move, _, mismatch = compare._moved(this, other, 1e-12)
    assert mismatch is None
    assert move == pytest.approx(2.3e-15 / 2.4041136917111015, rel=0.05)
    line = "zeta(y) = 1.5 + 2.000000000001i (tail 3e-4)"
    move, _, mismatch = compare._moved(line, line.replace("2.000000000001i", "2i"), 1e-12)
    assert mismatch is None and move == pytest.approx(5e-13, rel=1e-3)


def test_a_difference_moves_far_relative_by_one_rounding_and_reads_small_absolute(compare):
    # a series value moved by a few ulps, 2.2e-15, and the difference of it
    # and another sum (a corollary delta) moved by the same 2.2e-15
    this = "series_side 2.4041138063191885 delta 1.53e-07"
    other = "series_side 2.4041138063191907 delta 1.530000022e-07"
    move, absolute, mismatch = compare._moved(this, other, 1e-6)
    assert mismatch is None
    assert move == pytest.approx(2.2e-15 / 1.53e-7, rel=1e-2)
    assert absolute == pytest.approx(2.2e-15, rel=1e-2)


@pytest.mark.parametrize(
    "other",
    [
        '{"re": "2.41"}',  # a move over rtol
        '{"im": "2.4"}',  # a word
        '{"re": "2.4" }',  # a separator
        '{"re": "nan"}',  # a number against a non-finite one
        '{"re": "2.4"}\n{}',  # a line
    ],
)
def test_everything_else_must_match(compare, other):
    *_, mismatch = compare._moved('{"re": "2.4"}', other, 1e-3)
    assert mismatch is not None
