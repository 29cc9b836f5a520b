"""Brute-force combinatorial counters used to cross-check every generating
function by direct enumeration at small n.  No series arithmetic in here;
these are the independent side of every oracle comparison."""

from __future__ import annotations

from functools import lru_cache

from .errors import ComplexityGuard, InvalidParameter
from .periods import PartMultiset

PLANE_CAP = 30
OVERPLANE_CAP = 12
OVERPARTITION_CAP = 50
COUNT_CAP = 10**7  # table entries plus updates of one coin-change count


def _guard(n: int, cap: int, what: str):
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    if n > cap:
        raise ComplexityGuard(f"{what} enumeration capped at n <= {cap} (got {n})")


def _guard_count(n: int, entries):
    """Refuse a coin-change count above COUNT_CAP: its table of n + 1 entries
    plus mult * (n - value + 1) updates for each (value, mult) entry."""
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    work = n + 1
    for value, mult in entries:
        if work > COUNT_CAP:
            break
        work += mult * max(0, n - value + 1)
    if work > COUNT_CAP:
        raise ComplexityGuard(
            f"partition count capped at {COUNT_CAP} table updates (n = {n} needs more)"
        )


def count_partitions_multiset(n: int, multiset: PartMultiset) -> int:
    """Partitions of n with parts drawn from the multiset, each repeated value
    treated as an independently usable part type (classic coin-change count
    over the labelled copies, each usable any number of times)."""
    _guard_count(n, multiset)
    ways = [0] * (n + 1)
    ways[0] = 1
    for value, mult in multiset:
        if value > n:
            break  # entries ascend by value
        for _ in range(mult):
            for total in range(value, n + 1):
                ways[total] += ways[total - value]
    return ways[n]


def count_partitions(n: int) -> int:
    """p(n), via the multiset {1..n}."""
    return count_partitions_max_part(n, max(n, 1))


def count_partitions_max_part(n: int, max_part: int) -> int:
    """Partitions of n with every part at most max_part."""
    if max_part < 1:
        raise InvalidParameter("max_part must be >= 1")
    parts = range(1, min(max_part, n) + 1)
    _guard_count(n, ((v, 1) for v in parts))  # before the multiset is built
    return count_partitions_multiset(n, PartMultiset.from_values(parts))


def _rows_below(prev, remaining, max_cols):
    """All nonempty weakly decreasing rows that fit cellwise under prev
    (or under no constraint when prev is None) with sum <= remaining."""
    width = len(prev) if prev is not None else max_cols
    out = []

    def extend(row, col, budget):
        if row:
            out.append(tuple(row))
        if col >= width or budget < 1:
            return
        high = budget
        if prev is not None:
            high = min(high, prev[col])
        if row:
            high = min(high, row[-1])
        for v in range(high, 0, -1):
            row.append(v)
            extend(row, col + 1, budget - v)
            row.pop()

    extend([], 0, remaining)
    return out


def count_plane_partitions_rowed(
    n: int, max_rows: int, max_cols: int | None = None, cap: int = PLANE_CAP
) -> int:
    """Plane partitions of n with at most max_rows rows (and max_cols columns
    when given), by generating rows top-down, each dominated by the one above.
    """
    if max_rows < 1:
        raise InvalidParameter("max_rows must be >= 1")
    if max_cols is not None and max_cols < 1:
        raise InvalidParameter("max_cols must be >= 1")
    _guard(n, cap, "plane partition")
    if n == 0:
        return 1
    width = max_cols if max_cols is not None else n

    @lru_cache(maxsize=None)
    def count(remaining, prev, rows_left):
        if remaining == 0:
            return 1
        if rows_left == 0:
            return 0
        total = 0
        for row in _rows_below(prev, remaining, width):
            total += count(remaining - sum(row), row, rows_left - 1)
        return total

    result = count(n, None, max_rows)
    count.cache_clear()
    return result


def count_plane_partitions(n: int, cap: int = PLANE_CAP) -> int:
    """pl(n): row count saturates once it reaches n."""
    _guard(n, cap, "plane partition")
    if n == 0:
        return 1
    return count_plane_partitions_rowed(n, n, cap=cap)


def _partitions_of(n):
    """All partitions of n as weakly decreasing tuples."""

    def gen(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return gen(n, n)


def count_overpartitions(n: int, cap: int = OVERPARTITION_CAP) -> int:
    """Partitions of n with any subset of the distinct part values overlined."""
    _guard(n, cap, "overpartition")
    if n == 0:
        return 1
    total = 0
    for part in _partitions_of(n):
        total += 2 ** len(set(part))
    return total


def _plane_partitions_rowed(n, max_rows):
    """Yield filled shapes (tuples of rows) of every plane partition of n
    with at most max_rows rows."""

    def extend(shape, remaining, rows_left):
        if remaining == 0:
            yield tuple(shape)
            return
        if rows_left == 0:
            return
        prev = shape[-1] if shape else None
        for row in _rows_below(prev, remaining, n if prev is None else len(prev)):
            shape.append(row)
            yield from extend(shape, remaining - sum(row), rows_left - 1)
            shape.pop()

    yield from extend([], n, max_rows)


def _marking_count(shape) -> int:
    """Number of valid overline markings of a filled plane partition.

    Row rule: only the last occurrence of a value in its row may be overlined.
    Column rule: the first occurrence of a value in its column is free, every
    later occurrence in that column must be overlined.  A cell forced by the
    column rule but forbidden by the row rule kills the whole shape.
    """
    total = 1
    for i, row in enumerate(shape):
        for j, v in enumerate(row):
            row_last = j + 1 >= len(row) or row[j + 1] != v
            col_first = i == 0 or j >= len(shape[i - 1]) or shape[i - 1][j] != v
            if row_last and col_first:
                total *= 2
            elif not row_last and not col_first:
                return 0
            # otherwise exactly one choice is forced
    return total


def count_plane_overpartitions_rowed(
    n: int, max_rows: int, cap: int = OVERPLANE_CAP
) -> int:
    """Plane overpartitions of n with at most max_rows rows, by enumerating
    every plane partition shape and counting its valid markings."""
    if max_rows < 1:
        raise InvalidParameter("max_rows must be >= 1")
    _guard(n, cap, "plane overpartition")
    if n == 0:
        return 1
    return sum(_marking_count(s) for s in _plane_partitions_rowed(n, max_rows))


def count_plane_overpartitions(n: int, cap: int = OVERPLANE_CAP) -> int:
    _guard(n, cap, "plane overpartition")
    if n == 0:
        return 1
    return count_plane_overpartitions_rowed(n, n, cap=cap)
