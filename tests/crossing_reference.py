"""Independent reference for segment crossings: test every pair.

The package prunes candidate pairs by bounding box
(``curves.crossing_pairs``); this runs the same exact predicate on all
n x m pairs, 256 rows at a time, so the tests can check that the two
return the same pairs in the same order.
"""

import numpy as np

from caratheodory.geometry import curves
from caratheodory.geometry.curves import _segments_properly_cross


def all_pairs_crossings(a0, a1, b0, b1):
    """Index arrays (i, j) of properly crossing segment pairs, row-major."""
    found_i = [np.empty(0, dtype=np.intp)]
    found_j = [np.empty(0, dtype=np.intp)]
    for i0 in range(0, len(a0), 256):
        idx = np.arange(i0, min(i0 + 256, len(a0)))
        hit_i, hit_j = np.nonzero(
            _segments_properly_cross(
                a0[idx, None], a1[idx, None], b0[None, :], b1[None, :]
            )
        )
        found_i.append(idx[hit_i])
        found_j.append(hit_j)
    return np.concatenate(found_i), np.concatenate(found_j)


def count_tested_pairs(monkeypatch):
    """Wrap the exact predicate so every segment pair it tests is counted.

    Returns a list that receives the pair count of each call.
    """
    counts = []

    def counting(a0, a1, b0, b1):
        counts.append(np.broadcast(a0, a1, b0, b1).size)
        return _segments_properly_cross(a0, a1, b0, b1)

    monkeypatch.setattr(curves, "_segments_properly_cross", counting)
    return counts
