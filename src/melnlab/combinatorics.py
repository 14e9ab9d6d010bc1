"""Partition and composition sets entering the higher-order chain rule."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

from .errors import DomainError

__all__ = ["partitions", "compositions"]

_MAX_PARTITION_ORDER = 12


def _partition_weight(b: tuple[int, ...]) -> float:
    denom = 1
    for m, bm in enumerate(b, start=1):
        denom *= math.factorial(bm) * math.factorial(m) ** bm
    return 1.0 / denom


@lru_cache(maxsize=None)
def partitions(l: int) -> tuple[tuple[tuple[int, ...], int, float], ...]:
    """Sorted triples (b, L_b, weight) over the l-tuples b = (b_1, ..., b_l) of
    non-negative integers with sum m*b_m = l: L_b = b_1 + ... + b_l and weight
    is the chain-rule weight 1/(b_1! 1!^b_1 b_2! 2!^b_2 ... b_l! l!^b_l)."""
    if not 1 <= l <= _MAX_PARTITION_ORDER:
        raise DomainError(f"partition order must be in [1, {_MAX_PARTITION_ORDER}], got {l}")
    tuples = []

    def rec(remaining, part, prefix):
        if part == l + 1:
            if remaining == 0:
                tuples.append(tuple(prefix))
            return
        for bm in range(remaining // part + 1):
            rec(remaining - part * bm, part + 1, prefix + [bm])

    rec(l, 1, [])
    return tuple((b, sum(b), _partition_weight(b)) for b in sorted(tuples))


@lru_cache(maxsize=None)
def compositions(q: int, l: int) -> tuple[tuple[int, ...], ...]:
    """S_{q,l}, sorted: ordered l-tuples of positive integers summing to q
    (empty when q < l)."""
    if q < 1 or l < 1:
        raise DomainError(f"compositions need q, l >= 1, got q={q}, l={l}")
    # cut points of a length-q segment into l positive parts
    bounds = ((0,) + cuts + (q,) for cuts in combinations(range(1, q), l - 1))
    return tuple(sorted(tuple(b[i + 1] - b[i] for i in range(l)) for b in bounds))
