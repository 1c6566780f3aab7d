import pytest

import stats


def test_nearest_rank_picks_the_ceiling_rank():
    values = list(range(1, 21))  # 1..20
    assert stats.nearest_rank(values, 0.50) == 10
    assert stats.nearest_rank(values, 0.95) == 19  # 0.95 * 20 is exact
    assert stats.nearest_rank(values, 0.951) == 20
    assert stats.nearest_rank(values, 1.0) == 20
    assert stats.nearest_rank([7.0], 0.5) == 7.0
    assert stats.nearest_rank([1.0, 2.0], 0.501) == 2.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(300, 0.95) == 15
    assert stats.samples_beyond(200, 0.95) == 10
    stats.require_supported(200, 0.95)
    assert stats.samples_beyond(199, 0.95) == 9
    with pytest.raises(ValueError, match="leaves 9 beyond"):
        stats.require_supported(199, 0.95)
    with pytest.raises(ValueError):
        stats.require_supported(300, 0.99)  # only 3 beyond


def test_per_index_best_aggregates_across_passes_not_within():
    passes = [
        [1.0, 50.0, 3.0],   # query 1 met a burst in this pass only
        [1.2, 5.0, 3.3],
        [0.9, 5.5, 9.0],
    ]
    assert stats.per_index_best(passes) == [0.9, 5.0, 3.0]
    with pytest.raises(ValueError, match="disagree on length"):
        stats.per_index_best([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        stats.per_index_best([])


def test_undisturbed_wall_sums_slot_minima_and_the_least_remainder():
    per_query = [[1.0, 50.0, 3.0], [1.2, 5.0, 3.3], [0.9, 5.5, 9.0]]
    pass_walls = [55.0, 10.0, 17.4]  # remainders 1.0, 0.5, 2.0
    assert stats.undisturbed_wall(pass_walls, per_query) == pytest.approx(
        0.9 + 5.0 + 3.0 + 0.5
    )
    # A single pass is its own undisturbed pass.
    assert stats.undisturbed_wall([10.0], [[1.2, 5.0, 3.3]]) == pytest.approx(10.0)


def test_self_time_subtracts_children_siblings_and_zero_length_spans():
    spans = [
        (0, -1, 0.0, 10.0),  # 0 root
        (1, 0, 1.0, 4.0),    # 1 child
        (1, 0, 4.0, 4.0),    # 2 zero-length sibling
        (2, 0, 5.0, 9.0),    # 3 sibling with a child of its own
        (1, 3, 6.0, 8.0),    # 4 grandchild
        (0, -1, 10.0, 11.0),  # 5 second root, no children
    ]
    own = stats.self_times(spans)
    assert own == [3.0, 3.0, 0.0, 2.0, 2.0, 1.0]
    # Self times partition the roots' wall exactly.
    assert sum(own) == pytest.approx(11.0)
    seconds, calls = stats.layer_totals(spans, 3)
    assert seconds == [4.0, 5.0, 2.0]
    assert calls == [2, 3, 1]


def test_failed_share_counts_against_attempted():
    assert stats.failed_share(0, 0, 300) == 0.0
    assert stats.failed_share(2, 1, 300) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        stats.failed_share(0, 0, 0)


def test_worsening_follows_the_metric_direction():
    assert stats.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worsening(100.0, 85.0, "higher") == pytest.approx(0.15)
    assert stats.worsening(0.0, 0.0, "lower") == 0.0
    assert stats.worsening(0.0, 0.01, "lower") == float("inf")
