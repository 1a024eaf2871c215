"""Covers of the figure-eight graph and the cycle data they carry.

A transitive rank-2 permutation action is the deck data of a pointed cover
of a wedge of two circles.  The cycles of the first generator are the
circles the cover stacks over the first loop; a power of that loop lifts
closed at a point exactly when the cycle length through the point divides
the exponent.  On top sit the finite experiments: scanning covers for
non-closing lifts, and witnesses for power sets together with the range
of quotient orders that provably kill them.
"""

import itertools
import math
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceError, _checked_int

# obstruction_scan's top index, so that every scan it accepts ends: by
# Hall's counts F2 has 306,432 subgroups of index at most 8 (seconds to
# enumerate), 3,135,757 up to 9 and about 3.3 * 10^14 up to 16
SCAN_DEGREE_CAP = 8


def lcm_upto(n: int) -> int:
    """lcm(1..n), the product of the largest power of each prime p <= n,
    with the primes read off a sieve: linear in the size of the result,
    where folding math.lcm over 1..n is quadratic."""
    _checked_int(n, "n")
    composite = bytearray(n + 1)
    value = 1
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, n + 1, p))
            power = p
            while power * p <= n:
                power *= p
            value *= power
    return value


def chebyshev(n: int) -> tuple[int, float]:
    """lcm(1..n) exactly, and its natural log."""
    value = lcm_upto(n)
    return value, math.log(value)


def pnt_window(max_n: int) -> dict:
    """log lcm(1..n) / n against [0.5, 1.5] for every n up to max_n.

    `verified_from` is the first threshold from which the ratio stays in
    the window all the way to max_n, or None if even max_n misses it.
    """
    _checked_int(max_n, "max_n")
    rows = []
    acc = 1
    for n in range(1, max_n + 1):
        acc = math.lcm(acc, n)
        log = math.log(acc)
        rows.append(
            {
                "n": n,
                "lcm": acc,
                "log_lcm": log,
                "ratio": log / n,
                "in_window": 0.5 <= log / n <= 1.5,
            }
        )
    verified_from = None
    for row in reversed(rows):
        if not row["in_window"]:
            break
        verified_from = row["n"]
    return {"lo": 0.5, "hi": 1.5, "rows": rows, "verified_from": verified_from}


class CoverAnalysis(NamedTuple):
    """Cycle data of the first loop in one cover."""

    cover: "PermQuotient"
    cycles: tuple[tuple[int, ...], ...]
    x_cycle_lengths: tuple[int, ...]
    basepoint_cycle_length: int


def _loop_cycles(q: "PermQuotient") -> list[tuple[int, ...]]:
    """The first loop's 0-based cycles in a cover, checked to cover every point."""
    from .permrep import row_cycles

    if q.rank != 2:
        raise InputError(f"covers of the figure eight have rank 2, got {q.rank}")
    cycles = row_cycles(q.fwd[0])
    if sum(map(len, cycles)) != q.degree:
        raise InternalError("cycle lengths must add up to the degree")
    return cycles


def analyze_cover(q: "PermQuotient") -> CoverAnalysis:
    """Cycle decomposition of the first generator, longest cycles first."""
    from .permrep import is_transitive

    cycles = sorted(_loop_cycles(q), key=lambda c: (-len(c), c[0]))
    if not is_transitive(q):
        raise InputError("cover must be connected (transitive action)")
    cycles = tuple(tuple(p + 1 for p in c) for c in cycles)
    lengths = tuple(len(c) for c in cycles)
    basepoint = next(len(c) for c in cycles if q.basepoint in c)
    return CoverAnalysis(
        cover=q,
        cycles=cycles,
        x_cycle_lengths=lengths,
        basepoint_cycle_length=basepoint,
    )


def lift_closed(q: "PermQuotient", point: int, exponent: int) -> bool:
    """Does the lift of the first loop's exponent-th power close at point?

    Closure happens exactly when the cycle length through the point
    divides the exponent, so huge exponents cost one modular reduction
    and never get flattened.
    """
    cycles = _loop_cycles(q)
    _checked_int(point, "point")
    if point > q.degree:
        raise InputError(f"point {point} outside 1..{q.degree}")
    _checked_int(exponent, "exponent", None)
    length = next(len(c) for c in cycles if point - 1 in c)
    return exponent % length == 0


def obstruction_scan(m: int, max_degree: int) -> dict:
    """Confirm every non-closing lift of x^lcm(1..m) sits on a long cycle.

    Cycle lengths up to m divide lcm(1..m), so a cycle whose lift fails to
    close must be longer than m; a counterexample is an internal error,
    and the report carries the counts that back the claim.  A cover's
    count depends only on the row of x, which covers share heavily (354
    distinct rows among the 29,093 covers of index 7), so each distinct
    row is read and checked once and its count reused.
    """
    from .lowindex import enumerate_subgroups

    _checked_int(m, "m")
    _checked_int(max_degree, "index")
    if max_degree > SCAN_DEGREE_CAP:  # before any degree runs
        raise ResourceError(f"index {max_degree} exceeds the declared cap {SCAN_DEGREE_CAP}")
    ell = lcm_upto(m)
    rows = []
    # row of x -> its non-closing point count, for this scan only
    counted: dict[tuple[int, ...], int] = {}
    for degree in range(1, max_degree + 1):
        covers = 0
        non_closing = 0
        for q in enumerate_subgroups(2, degree):
            covers += 1
            row = q.fwd[0]
            count = counted.get(row)
            if count is None:
                count = 0
                for length in map(len, _loop_cycles(q)):
                    if ell % length == 0:
                        continue
                    count += length
                    if length <= m:
                        raise InternalError(
                            f"non-closing lift on a cycle of length {length} <= {m}"
                        )
                counted[row] = count
            non_closing += count
        rows.append(
            {
                "degree": degree,
                "covers": covers,
                "points": degree * covers,
                "non_closing_points": non_closing,
            }
        )
    return {
        "m": m,
        "lcm": ell,
        "max_degree": max_degree,
        "covers": sum(r["covers"] for r in rows),
        "points_checked": sum(r["points"] for r in rows),
        "non_closing_points": sum(r["non_closing_points"] for r in rows),
        "violations": [],
        "rows": rows,
    }


def theorem4_experiment(n: int, *, order_cap: int = 8) -> list[dict]:
    """Power-set witness rows for each j up to n.

    Row j builds the witness for {x, ..., x^lcm(1..j)} and scans quotient
    orders upward for the first one where it survives.  Each distinct
    witness is built and scanned once, on its own (`_power_set_scan`), and
    each order is searched once per process, so a later witness replays
    the orders an earlier one read.  Any group of order at most lcm(1..j)
    sends x to an element of such an order, killing a target and the
    witness with it, so a survivor below that is an internal error.  The
    row resolves when the witness is known nontrivial and the scan
    certifies divisibility at least lcm(1..j) + 1.
    """
    from .lcmlib import _check_flat_targets, _power_set_scan

    _checked_int(n, "n")
    _checked_int(order_cap, "order cap")
    # refuse on lcm(1..n) alone, before the rows keep every lcm(1..j)
    _check_flat_targets(lcm_upto(n))
    ells = list(itertools.accumulate(range(1, n + 1), math.lcm))
    rows = []
    for j, ell, (cert, value) in zip(range(1, n + 1), ells, _power_set_scan(2, ells, order_cap)):
        lower = value or order_cap + 1
        rows.append(
            {
                "n": j,
                "lcm": ell,
                "witness_bound": cert.declared_bound,
                "dnormal_lower": lower,
                "resolved": cert.nontrivial_verified and lower >= ell + 1,
            }
        )
    return rows
