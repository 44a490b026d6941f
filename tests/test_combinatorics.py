"""Partition and subset enumeration against counting oracles.

The partition stream is the backbone of every update engine in the
package, so the checks here are deliberately exhaustive at small m:
counts against an independently computed Bell recurrence, canonical-form
validation of every yielded partition, and pruned counts against a brute
filter of the unpruned stream.
"""

import itertools
import math

import pytest

from mobayes import bell, partitions
from mobayes.combinatorics import (
    BELL_MAX,
    Partition,
    SubsetSplit,
    partition_count,
    subsets,
)


def bell_by_binomial_recurrence(m: int) -> int:
    """B(n+1) = sum_k C(n,k) B(k), seeded with B(0)=1.

    Independent of the partition_count recurrence used by bell().
    """
    b = [1]
    for n in range(m):
        b.append(sum(math.comb(n, k) * b[k] for k in range(n + 1)))
    return b[m]


class TestPartitions:
    def test_empty_set_has_one_partition_with_zero_blocks(self):
        parts = list(partitions(0))
        assert parts == [Partition(())]

    def test_singleton(self):
        assert list(partitions(1)) == [Partition(((0,),))]

    def test_three_elements_enumerated_exactly(self):
        got = {p.blocks for p in partitions(3)}
        expected = {
            ((0, 1, 2),),
            ((0, 1), (2,)),
            ((0, 2), (1,)),
            ((0,), (1, 2)),
            ((0,), (1,), (2,)),
        }
        assert got == expected

    def test_counts_match_bell_up_to_eight(self):
        for m in range(9):
            assert sum(1 for _ in partitions(m)) == bell(m)

    def test_canonical_form_and_no_duplicates(self):
        for m in range(7):
            seen = set()
            for part in partitions(m):
                assert part.is_canonical()
                assert part.blocks not in seen
                seen.add(part.blocks)
                covered = sorted(i for block in part.blocks for i in block)
                assert covered == list(range(m))

    def test_max_block_one_forces_singletons(self):
        for m in range(1, 9):
            only = list(partitions(m, max_block=1))
            assert len(only) == 1
            assert only[0].blocks == tuple((i,) for i in range(m))

    def test_max_block_m_equals_unpruned(self):
        for m in range(8):
            assert sum(1 for _ in partitions(m, max_block=max(m, 1))) == bell(m)

    def test_partition_count_matches_the_walk(self):
        for m in range(9):
            for cap in [None, *range(1, m + 1)]:
                walked = sum(1 for _ in partitions(m, max_block=cap))
                assert partition_count(m, cap) == walked

    def test_partition_count_past_the_walk(self):
        assert partition_count(BELL_MAX) == bell_by_binomial_recurrence(BELL_MAX)
        assert partition_count(BELL_MAX, 1) == 1

    @pytest.mark.parametrize("m,cap", [(4, 2), (5, 2), (5, 3), (6, 3)])
    def test_pruned_counts_match_brute_filter(self, m, cap):
        pruned = {p.blocks for p in partitions(m, max_block=cap)}
        brute = {
            p.blocks
            for p in partitions(m)
            if all(len(b) <= cap for b in p.blocks)
        }
        assert pruned == brute

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(partitions(-1))
        with pytest.raises(ValueError):
            list(partitions(3, max_block=0))


class TestSubsets:
    def test_zero_elements(self):
        assert list(subsets(0)) == [SubsetSplit((), ())]

    def test_counts_and_complements(self):
        for m in range(7):
            splits = list(subsets(m))
            assert len(splits) == 2**m
            assert len({s.kept for s in splits}) == 2**m
            for s in splits:
                merged = sorted(s.kept + s.dropped)
                assert merged == list(range(m))
                assert not set(s.kept) & set(s.dropped)

    def test_kept_and_dropped_ascend(self):
        for s in subsets(5):
            assert list(s.kept) == sorted(s.kept)
            assert list(s.dropped) == sorted(s.dropped)

    def test_each_index_in_exactly_one_side(self):
        for s in subsets(3):
            for i in range(3):
                assert (i in s.kept) != (i in s.dropped)


class TestBell:
    def test_small_values(self):
        assert [bell(m) for m in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]

    def test_matches_binomial_recurrence(self):
        for m in range(BELL_MAX + 1):
            assert bell(m) == bell_by_binomial_recurrence(m)

    def test_eight_elements(self):
        # the pruning headroom quoted all over the package
        assert bell(8) == 4140

    def test_range_guard(self):
        bell(BELL_MAX)
        with pytest.raises(ValueError):
            bell(BELL_MAX + 1)
        with pytest.raises(ValueError):
            bell(-2)


class TestStreamingBehaviour:
    """The enumerations are generators; consuming a prefix is cheap."""

    def test_prefix_of_large_stream(self):
        stream = partitions(12)
        first = [next(stream) for _ in range(100)]
        assert len({p.blocks for p in first}) == 100

    def test_two_streams_are_independent(self):
        s1, s2 = partitions(4), partitions(4)
        a = [next(s1), next(s1)]
        b = list(s2)
        assert len(b) == bell(4)
        assert a[0].blocks == b[0].blocks
