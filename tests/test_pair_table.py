"""The pair table behind every cross-culture number: its pair order and
its undefined entries."""

import numpy as np
import pytest

from crossmoji.analytics import UndefinedCorrelationError, pair_table, pearson, spearman


def test_pairs_keep_group_order_within_and_west_outer_across():
    rng = np.random.default_rng(4)
    groups = {g: rng.uniform(-1, 1, (2, 5)) for g in ["JP", "US", "CN", "GB"]}
    culture_of = {"US": "West", "GB": "West", "JP": "East", "CN": "East"}
    table = pair_table(groups, culture_of)
    assert {bucket: [(a, b) for a, b, _ in rows] for bucket, rows in table.items()} == {
        "in_west": [("US", "GB")],
        "in_east": [("JP", "CN")],
        "cross": [("US", "JP"), ("US", "CN"), ("GB", "JP"), ("GB", "CN")],
    }
    for rows in table.values():
        for a, b, rhos in rows:
            assert rhos == [spearman(x, y) for x, y in zip(groups[a], groups[b])]


def test_undefined_correlation_is_none_for_its_item_only():
    west = np.array([[0.1, 0.4, 0.2, 0.9], [0.5, 0.5, 0.5, 0.5]])  # item 1 constant
    east = np.array([[0.3, 0.1, 0.2, 0.8], [0.2, 0.7, 0.1, 0.4]])
    table = pair_table({"W": west, "E": east}, {"W": "West", "E": "East"}, pearson)
    assert table["in_west"] == table["in_east"] == []
    assert table["cross"] == [("W", "E", [pearson(west[0], east[0]), None])]


def test_a_group_of_another_culture_is_refused():
    groups = {g: np.arange(4.0)[None] for g in ["US", "JP", "IN"]}
    with pytest.raises(UndefinedCorrelationError, match="West or East"):
        pair_table(groups, {"US": "West", "JP": "East", "IN": "South"})
