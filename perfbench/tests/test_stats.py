import pytest

from wallbench.stats import percentile, tail_percentile


@pytest.mark.parametrize(
    "samples, expected",
    [
        (5, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_rule_picks_highest_percentile_with_ten_beyond(samples, expected):
    assert tail_percentile(samples) == expected


def test_percentile_interpolates():
    assert percentile([], 50.0) == 0.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
