"""SVG scatter: input checks, and marker placement when scores or years do not vary."""

import re

import numpy as np
import pytest

from creanet.svgplot import HEIGHT, MARGIN, WIDTH, scatter_svg


def markers(svg):
    """(cx, cy) of every circle, as floats."""
    return [(float(x), float(y)) for x, y in re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)]


@pytest.mark.parametrize("years, scores", [([1500, 1600], [1.0]), ([], []),
                                           ([[1500, 1600]], [[0.4, 0.6]])],
                         ids=["unequal", "empty", "two_dim"])
def test_rejects_years_and_scores_that_do_not_pair(years, scores):
    with pytest.raises(ValueError, match="equal-length non-empty 1-D"):
        scatter_svg(np.array(years), np.array(scores))


def test_constant_scores_sit_mid_height():
    points = markers(scatter_svg(np.array([1500, 1600, 1700]), np.full(3, 1 / 3)))
    assert [x for x, _ in points] == [MARGIN, WIDTH / 2, WIDTH - MARGIN]
    assert [y for _, y in points] == [HEIGHT / 2] * 3


def test_single_year_sits_mid_width():
    points = markers(scatter_svg(np.array([1600, 1600]), np.array([0.25, 0.75])))
    assert [x for x, _ in points] == [WIDTH / 2] * 2
    assert [y for _, y in points] == [HEIGHT - MARGIN, MARGIN]
