"""The oracle against counts worked out by hand on an eight-row graph.

    python3 -m pytest perfbench/test_oracle.py -q

Graph (subject -predicate-> object)::

    1 -10-> 2   1 -10-> 3   1 -11-> 4   2 -11-> 4
    2 -10-> 3   3 -11-> 5   5 -10-> 6   4 -10-> 6
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import Oracle  # noqa: E402

ROWS = [
    (1, 10, 2), (1, 10, 3), (1, 11, 4), (2, 11, 4),
    (2, 10, 3), (3, 11, 5), (5, 10, 6), (4, 10, 6),
]

CASES = [
    # single patterns
    (((("?s", 10, "?o"),)), 5),
    (((1, 10, "?o"),), 2),
    ((("?s", 11, 4),), 2),
    (((1, 10, 2),), 1),
    (((1, 10, 6),), 0),
    (((1, "?p", "?o"),), 3),
    ((("?x", 11, "?x"),), 0),
    # stars: s=1 gives 2*1, s=2 gives 1*1
    ((("?s", 10, "?a"), ("?s", 11, "?b")), 3),
    ((("?s", 10, 3), ("?s", 11, "?b")), 2),
    (((1, 10, "?a"), (1, 11, "?b")), 2),
    # size 3 with a repeated predicate: s=1 gives 2*2*1, s=2 gives 1
    ((("?s", 10, "?a"), ("?s", 10, "?b"), ("?s", 11, "?c")), 5),
    # chains: 1-2-4, 1-3-5, 2-3-5
    ((("?a", 10, "?b"), ("?b", 11, "?c")), 3),
    ((("?a", 10, "?b"), ("?b", 11, "?c"), ("?c", 10, "?d")), 3),
    ((("?a", 10, 3), (3, 11, "?c")), 2),
    ((("?a", 10, "?b"), ("?b", 11, 5)), 2),
    # a disconnected compound is the product of its parts: 3 * 3
    (
        (
            ("?s", 10, "?a"), ("?s", 11, "?b"),
            ("?x", 10, "?y"), ("?y", 11, "?z"),
        ),
        9,
    ),
]


@pytest.mark.parametrize("query,expected", CASES)
def test_hand_counts(query, expected):
    assert Oracle(ROWS).count(query) == expected


def test_duplicate_rows_count_once():
    oracle = Oracle(ROWS + ROWS[:3])
    assert len(oracle) == len(ROWS)
    assert oracle.count((("?s", 10, "?a"), ("?s", 11, "?b"))) == 3


def test_added_rows_are_counted():
    oracle = Oracle(ROWS)
    chain = (("?a", 10, "?b"), ("?b", 11, "?c"))
    assert oracle.count(chain) == 3
    oracle.add([(6, 11, 6)])
    # 5-6-6 and 4-6-6 join through the new loop; a loop matches ?x 11 ?x
    assert oracle.count(chain) == 5
    assert oracle.count((("?x", 11, "?x"),)) == 1
    assert oracle.count(chain + (("?c", 10, "?d"),)) == 3
