"""Streaming enumeration of set partitions and subset splits.

Partitions are produced in canonical form: blocks ordered by their least
element, elements ascending inside each block. The enumeration walks
restricted growth strings iteratively, so memory stays O(m) no matter how
many partitions are produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

BELL_MAX = 20


@dataclass(frozen=True)
class Partition:
    """A set partition of {0, ..., m-1} in canonical block order."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.blocks)

    def is_canonical(self) -> bool:
        seen: set[int] = set()
        prev_least = -1
        for block in self.blocks:
            if not block or list(block) != sorted(block):
                return False
            if block[0] <= prev_least:
                return False
            prev_least = block[0]
            if seen & set(block):
                return False
            seen |= set(block)
        return seen == set(range(len(seen)))


@dataclass(frozen=True)
class SubsetSplit:
    """One way to split {0, ..., m-1} into kept and dropped indices."""

    kept: tuple[int, ...]
    dropped: tuple[int, ...]


def partitions(m: int, max_block: int | None = None) -> Iterator[Partition]:
    """Yield every partition of {0..m-1}, optionally capping block sizes.

    With max_block set, partitions containing any block larger than
    max_block are skipped during the walk rather than filtered afterwards.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if max_block is not None and max_block < 1:
        raise ValueError("max_block must be at least 1")
    if m == 0:
        yield Partition(())
        return
    cap = m if max_block is None else max_block
    a = [0] * m          # a[i]: block label of element i
    top = [0] * m        # top[i]: largest label used among elements 0..i
    sizes = [0] * (m + 1)
    sizes[0] = 1
    nxt = [0] * (m + 1)  # nxt[i]: next label to try when (re)visiting i
    i = 1
    nxt[1] = 0
    while i >= 1:
        if i == m:
            nblocks = top[m - 1] + 1
            grouped: list[list[int]] = [[] for _ in range(nblocks)]
            for elem in range(m):
                grouped[a[elem]].append(elem)
            yield Partition(tuple(tuple(g) for g in grouped))
            i -= 1
            sizes[a[i]] -= 1
            nxt[i] = a[i] + 1
            continue
        limit = top[i - 1] + 1  # labels 0..limit are legal; limit opens a block
        b = nxt[i]
        while b < limit and sizes[b] >= cap:
            b += 1
        if b > limit:
            nxt[i] = 0
            i -= 1
            if i >= 1:
                sizes[a[i]] -= 1
                nxt[i] = a[i] + 1
            continue
        a[i] = b
        sizes[b] += 1
        top[i] = limit if b == limit else top[i - 1]
        i += 1
        nxt[i] = 0
    return


def subsets(m: int) -> Iterator[SubsetSplit]:
    """Yield all 2**m kept/dropped splits, ordered by kept-set bitmask."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    universe = range(m)
    for mask in range(1 << m):
        kept = tuple(i for i in universe if mask >> i & 1)
        dropped = tuple(i for i in universe if not mask >> i & 1)
        yield SubsetSplit(kept, dropped)


def partition_count(m: int, max_block: int | None = None) -> int:
    """How many partitions partitions(m, max_block) yields, without the walk.

    p[0] = 1, and p[i] sums C(i-1, j) p[i-1-j] over j < max_block, the
    number of other elements in the block of the first element.
    """
    cap = m if max_block is None else max_block
    p = [1]
    for i in range(1, m + 1):
        p.append(sum(math.comb(i - 1, j) * p[i - 1 - j] for j in range(min(cap, i))))
    return p[m]


def bell(m: int) -> int:
    """Bell number B(m), the uncapped partition_count; refuses m > BELL_MAX."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > BELL_MAX:
        raise ValueError(
            f"bell({m}) exceeds the supported range (m <= {BELL_MAX}); "
            "partition counts this large are outside desk scale"
        )
    return partition_count(m)
