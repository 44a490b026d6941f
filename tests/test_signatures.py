"""The update's recursion and the counting reference against the
set-partition walk.

bayes._signature_counts walks partitions of the measurement multiset and
counts in closed form; oracles.signature_counts_by_set_partitions walks every
(subset, set partition) pair. They must agree as Counters on every
label-count pattern up to nine measurements on four labels. The recursion
the updates run (bayes._plan, _levels, _partition_sums) lists no term; with
every block value and clutter value set to one, its sums are counts of
terms, and they must equal the walk's, capped as the updates cap them.

The walk over m distinct labels lists each pair once, keyed by positions.
Relabeling those keys through a pattern's labels, and dropping the keys a
block cap or a missing clutter process rules out, is what the oracle computes
for that pattern; so one walk per m serves every pattern and cap. The
shortcut is itself checked against the oracle called directly on small m.
"""

import functools
import itertools
import math

import numpy as np
import pytest

import mobayes.bayes
from mobayes import (
    poisson_posterior,
    poisson_posterior_intensity,
    posterior_intensity_clutter,
    posterior_partition_clutter,
)
from mobayes.bayes import _levels, _partition_sums, _plan, _signature_counts
from mobayes.instances import random_density, random_kernel, random_poisson_clutter, space
from mobayes.oracles import signature_counts_by_set_partitions

M_TOP = 9
CAPS = (None, 0, 1, 2, 3)


def label_patterns(m: int, labels: int = 4):
    """Every label-count pattern of m measurements: counts descending."""

    def walk(left, most, counts):
        if not left:
            yield tuple(counts)
        elif len(counts) < labels:
            for k in range(min(left, most), 0, -1):
                yield from walk(left - k, k, counts + [k])

    for counts in walk(m, m, []):
        yield tuple(z for z, k in enumerate(counts) for _ in range(k))


@functools.lru_cache(maxsize=1)
def _walk_by_position(m: int):
    return signature_counts_by_set_partitions(tuple(range(m)), None)


@functools.cache
def _relabeled(z: tuple[int, ...]):
    # z is non-decreasing and positions ascend inside every key, so the
    # relabeled clutter part and blocks come out sorted; only the order of
    # the blocks changes
    relabel = {
        part: tuple(z[i] for i in part)
        for k in range(len(z) + 1)
        for part in itertools.combinations(range(len(z)), k)
    }
    counts = {}
    for (dropped, blocks), n in _walk_by_position(len(z)).items():
        key = (relabel[dropped], tuple(sorted(map(relabel.__getitem__, blocks))))
        counts[key] = counts.get(key, 0) + n
    return counts


def expected(z, m_cap, with_clutter):
    return {
        (dropped, blocks): n
        for (dropped, blocks), n in _relabeled(z).items()
        if (with_clutter or not dropped)
        and all(len(b) <= (len(z) if m_cap is None else m_cap) for b in blocks)
    }


@pytest.mark.parametrize("m", range(7))
def test_the_shortcut_is_the_oracle(m):
    for z in label_patterns(m):
        for cap in CAPS:
            for wc in (True, False):
                assert expected(z, cap, wc) == signature_counts_by_set_partitions(z, cap, wc)


@pytest.mark.parametrize("m", range(M_TOP + 1))
def test_counts_match_the_set_partition_walk(m):
    for z in label_patterns(m):
        for cap in CAPS:
            for wc in (True, False):
                got = _signature_counts(z, cap, wc)
                assert got == expected(z, cap, wc), (z, cap, wc)
                assert all(type(n) is int and n > 0 for n in got.values())


def unit_plan(z, m_cap, c_cap):
    """The plan of z's label-count pattern with both caps cut to |z|, as the
    updates cut them, and a vector of ones on a one-point space per block."""
    m = len(z)
    plan = _plan(
        tuple(z.count(i) for i in sorted(set(z))),
        m if m_cap is None else min(m_cap, m),
        m if c_cap is None else min(c_cap, m),
    )
    return plan, np.ones((sum(map(len, plan.blocks)), 1))


@pytest.mark.parametrize("m", range(M_TOP + 1))
def test_pruned_walk_is_the_filtered_walk(m):
    """The value pass capped at `top` blocks and `c_top` clutter labels is
    the walk's terms filtered by those caps. On one state with unit block
    vectors, a partition into k blocks adds k! to level k's one entry."""
    for z in label_patterns(m):
        for cap in CAPS:
            for wc in (True, False):
                full = _signature_counts(z, cap, wc)
                for top, c_top in ((0, 0), (2, 1), (3, None), (None, 2)):
                    plan, ones = unit_plan(z, cap, c_top if wc else 0)
                    k_top = m if top is None else min(top, m)
                    levels = _levels(plan, ones, np.ones(len(plan.part_coef)), k_top)
                    want = [0] * (k_top + 1)
                    for (dropped, blocks), n in full.items():
                        if len(blocks) <= k_top and (c_top is None or len(dropped) <= c_top):
                            want[len(blocks)] += n
                    got = [level[0] / math.factorial(k) for k, level in enumerate(levels)]
                    assert got == want, (z, cap, wc, top, c_top)


@pytest.mark.parametrize("m", range(M_TOP + 1))
def test_scalar_pass_counts_the_walk(m):
    """With every block value set to one, f(S) counts the set partitions of
    S and g(S) their blocks; over the clutter parts they sum the walk's
    counts, and those counts times each term's block count."""
    for z in label_patterns(m):
        for cap in CAPS:
            for wc in (True, False):
                plan, ones = unit_plan(z, cap, None if wc else 0)
                f, g = _partition_sums(plan, ones[:, 0], ones)
                walk = _signature_counts(z, cap, wc)
                assert plan.part_coef @ f[plan.part_rest] == sum(walk.values())
                assert plan.part_coef @ g[plan.part_rest, 0] == sum(
                    n * len(blocks) for (_, blocks), n in walk.items()
                )


def test_updates_walk_no_set_partition(monkeypatch):
    """No update entry point walks set partitions or signatures, even with
    its plan and likelihood built cold."""

    def refuse(*args, **kwargs):
        raise AssertionError("set partitions or signatures walked")

    for name in ("partitions", "subsets", "_signature_counts"):
        monkeypatch.setattr(mobayes.bayes, name, refuse)
    mobayes.bayes._plan.cache_clear()
    mobayes.bayes._likelihood.cache_clear()
    rng = np.random.default_rng(12)
    X, Zs = space(2), space(2, "z")
    prior = random_density(rng, X, 3)
    kernel = random_kernel(rng, X, Zs, 2)
    clutter = random_poisson_clutter(rng, Zs, n_max=2)
    Z = ["za", "zb", "za", "za"]
    post = posterior_partition_clutter(prior, kernel, clutter, Z)
    assert abs(post.density.total_mass() - 1.0) < 1e-12
    intensity = posterior_intensity_clutter(prior, kernel, None, Z, prune=False)
    assert np.all(np.isfinite(intensity))
    assert np.isfinite(poisson_posterior([0.4, 0.3], kernel, Z).log_evidence)
    assert np.all(np.isfinite(poisson_posterior_intensity([0.4, 0.3], kernel, Z)))
