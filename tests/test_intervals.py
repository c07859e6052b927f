import math

import pytest

from tcconsensus import IntervalSet


class TestCanonicalization:
    def test_merge_overlapping(self):
        s = IntervalSet.from_pieces([(0, 2), (1, 3), (5, 6)])
        assert s.pieces == ((0.0, 3.0), (5.0, 6.0))

    def test_sorts(self):
        s = IntervalSet.from_pieces([(5, 6), (0, 1)])
        assert s.pieces == ((0.0, 1.0), (5.0, 6.0))

    def test_drops_inverted(self):
        assert IntervalSet.from_pieces([(2, 1)]).is_empty

    def test_touching_pieces_merge(self):
        s = IntervalSet.from_pieces([(0, 1), (1, 2)])
        assert s.pieces == ((0.0, 2.0),)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet.from_pieces([(math.nan, 1)])


class TestQueries:
    def test_contains(self):
        s = IntervalSet.from_pieces([(0, 1), (3, 3)])
        assert s.contains(0.5) and s.contains(3.0)
        assert not s.contains(2.0)
        assert s.contains(2.999, slack=1e-2)

    def test_hull(self):
        assert IntervalSet.from_pieces([(0, 1), (4, 5)]).hull() == (0.0, 5.0)
        with pytest.raises(ValueError):
            IntervalSet.empty().hull()

    def test_boundedness(self):
        assert IntervalSet.closed(0, 1).is_bounded
        assert not IntervalSet.reals().is_bounded
        assert IntervalSet.empty().is_bounded

    def test_point_and_iter(self):
        s = IntervalSet.closed(2.0, 2.0)
        assert s.pieces == ((2.0, 2.0),)


class TestSetOperations:
    def test_intersect(self):
        a = IntervalSet.from_pieces([(0, 2), (4, 6)])
        b = IntervalSet.closed(1, 5)
        assert a.intersect(b).pieces == ((1.0, 2.0), (4.0, 5.0))

    def test_intersect_disjoint(self):
        assert IntervalSet.closed(0, 1).intersect(IntervalSet.closed(2, 3)).is_empty

    def test_intersect_respects_tolerances(self):
        # an outer set of a root that float evaluation puts at 8.9e-17,
        # padded by its tolerance, meets the exact root {0} at 0 itself
        exact = IntervalSet.closed(0.0, 0.0)
        outer = IntervalSet.closed(8.9e-17 - 1e-8, 8.9e-17 + 1e-8)
        assert exact.intersect(outer).pieces == ((0.0, 0.0),)

    def test_exact_intersection_stays_exact(self):
        meet = IntervalSet.closed(0, 2).intersect(IntervalSet.closed(1, 3))
        assert meet.pieces == ((1.0, 2.0),)

    def test_intersect_with_reals_is_identity(self):
        a = IntervalSet.from_pieces([(0, 1), (2, 3)])
        assert a.intersect(IntervalSet.reals()).pieces == a.pieces
