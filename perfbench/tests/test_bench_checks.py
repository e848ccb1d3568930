import statistics

import pytest

import checks

HEADER = "theorem,t,R,r,d,lhs,rhs,slack,valid,pass"
ROW = "full_lrb,0.5,,,4,1.456089709654193e-09,251.03033123431086,251.03,true,true"


def csv(*rows):
    return "\n".join((HEADER,) + rows) + "\n"


def test_identical_output_has_no_failed_rows():
    assert checks.failed_rows(csv(ROW, ROW), csv(ROW, ROW)) == []


@pytest.mark.parametrize("got_lhs, ok", [
    ("1.456089709654193e-09", True),
    ("1.9e-09", True),            # within abs 1e-9
    ("2.5e-09", False),           # beyond abs 1e-9
    ("", False),                  # empty against a number
    ("nan", False),               # nan against a number
])
def test_numeric_cells_within_absolute_tolerance(got_lhs, ok):
    got = ROW.replace("1.456089709654193e-09", got_lhs)
    assert checks.row_matches(got, ROW) is ok


def test_empty_and_nan_cells_match_only_themselves():
    want = "strong_lrb,0.5,,,4,nan,nan,nan,false,false"
    assert checks.row_matches(want, want)
    assert not checks.row_matches(want.replace(",,,4", ",1,,4"), want)
    assert not checks.row_matches(want.replace("4,nan", "4,0"), want)


def test_flags_and_theorem_must_be_identical():
    assert not checks.row_matches(ROW.replace("true,true", "true,false"), ROW)
    assert not checks.row_matches(ROW.replace("full_lrb", "strong_lrb"), ROW)


def test_valid_row_that_does_not_pass_fails_even_when_it_matches():
    failing = ROW.replace("true,true", "true,false")
    invalid = ROW.replace("true,true", "false,false")
    assert checks.failed_rows(csv(ROW, failing, invalid),
                              csv(ROW, failing, invalid)) == [1]


def test_header_or_row_count_mismatch_fails_every_row():
    assert checks.failed_rows(csv(ROW).replace("slack", "gap"), csv(ROW, ROW)) == [0, 1]
    assert checks.failed_rows(csv(ROW), csv(ROW, ROW)) == [0, 1]
    assert checks.failed_rows("", csv(ROW)) == [0]


def test_summary_quartiles_follow_statistics_quantiles():
    values = [5.2, 4.9, 5.0, 5.6, 5.1, 7.3, 5.0, 4.8, 5.3, 5.2]
    s = checks.summarize(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (s.median, s.q1, s.q3, s.n) == (q2, q1, q3, 10)
    assert "n=10" in s.describe("s")


def test_summary_of_one_sample_is_its_own_quartiles():
    assert checks.summarize([2.5]) == checks.Summary(2.5, 2.5, 2.5, 1)
    with pytest.raises(ValueError):
        checks.summarize([])
