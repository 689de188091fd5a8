"""Nearest-rank percentile edge cases."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchlib.stats import beyond, median, nearest_rank  # noqa: E402


def test_single_sample_is_every_percentile():
    assert nearest_rank([4.0], 1) == nearest_rank([4.0], 50) == nearest_rank([4.0], 100) == 4.0


def test_ranks_are_exact_at_the_boundaries():
    samples = list(range(1, 101))  # 1..100, shuffled order must not matter
    samples.reverse()
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 90) == 90
    assert nearest_rank(samples, 100) == 100
    assert nearest_rank(list(range(1, 11)), 90) == 9
    assert nearest_rank([1, 2], 50) == 1
    assert nearest_rank([1, 2, 3], 50) == 2


def test_ties_and_unsorted_input():
    assert nearest_rank([3, 1, 3, 3, 2], 50) == 3
    assert nearest_rank([5, 5, 5], 90) == 5


@pytest.mark.parametrize("bad", [0, 101, -5])
def test_percent_out_of_range_raises(bad):
    with pytest.raises(ValueError):
        nearest_rank([1, 2, 3], bad)


@pytest.mark.parametrize("bad", [0.5, 50.0, True])
def test_percent_must_be_an_int(bad):
    with pytest.raises(TypeError):
        nearest_rank([1, 2, 3], bad)


def test_empty_sample_raises():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        median([])


def test_samples_beyond_the_rank():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(101, 90) == 10
    assert beyond(1, 50) == 0
    assert beyond(1000, 50) == 500
