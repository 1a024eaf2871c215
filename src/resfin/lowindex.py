"""Exhaustive enumeration of finite-index subgroups and normal subgroups.

Subgroups of index d in F_m are enumerated as pointed transitive actions on
d points, normal subgroups of index q as regular actions on q points. The
search fills a partial permutation table slot by slot in a fixed scan order
(point by point, each generator forward then backward), introducing fresh
points only at their first reference. It is one loop over these slots
with an explicit stack of one frame per branching slot: the slot, the
candidate in place, the points in use and the length of the trail that
records what regular mode's deductions changed. A frame holds no
candidate list: its next candidate is the next point in use, after the
one in place, that is free in the opposite row, and then the fresh point.
After a branch the cursor resumes the scan just past its slot, since
every slot before it stays filled in the whole subtree; a backtrack
clears the frame's own entry and trims the points it introduced. That
discipline makes every finished table its own canonical form, so each
subgroup and each kernel is produced exactly once, with no
abstract-group catalog anywhere. Plain mode keeps no point words and no
trail, since only regular mode's deductions read them.

Regular mode adds sound pruning devices on top:
  - every table entry that joins two known points yields a word fixing the
    basepoint (a relator), which in a regular action must act trivially.
    A new entry (a, g, b) off the spanning tree of point words closes the
    walk u v^-1 (u: a's word then g, v: b's word), which past their common
    prefix is its cyclic core: v never ends in g (b's tree parent would be
    a) nor runs through a g (that tree edge fills the same slot), and once
    v is used up the rest never cancels cyclically (the tree edge from b
    by g^-1 would fill the slot of the new entry's inverse).
    A relator u c u^-1 with c cyclically reduced acts trivially exactly
    when its core c does, and every rotation of c walks the same closed
    walks, so the search stores one core per rotation class and indexes
    each of its distinct rotations once. Deductions run Felsch-style off
    a queue of scans: a new core is walked once from every point, and a
    new entry (a, g, b) only along the stored rotations that start with
    g from a or with g^-1 from b.
    A closed walk that misses its start cuts the branch, and a walk with
    a single gap forces that entry, which is queued in turn. The
    fixpoint is the same as a rescan of every relator from every point,
    so the emitted sequence does not depend on the queue order,
  - a closed generator cycle must have a length dividing the degree
    (Lagrange: a cycle of right translation by g is a coset of <g>),
  - with a kernel radius r > 0, a relator whose cyclic reduction has
    length <= r cuts the branch: it is a nontrivial kernel element of
    every completion, so no completion is injective on the radius r/2
    ball,
  - with rank >= 2 and a kernel radius r >= 4, `enumerate_normal` skips
    the whole order n, with no search, when no quotient of that order
    has a kernel missing the radius-r ball (`_whole_order_cut`). By
    Lagrange each generator's order divides n, and it must exceed r, or
    the generator's power of that length is a kernel element of length
    <= r. An abelian quotient is out too, since its kernel holds the
    commutator of the first two generators, of length 4 <= r. So the
    order is skipped when every divisor of n above r is n itself (a
    generator of order n alone generates the group, which is then
    cyclic), when every group of order n is abelian (`all_abelian`), and
    when every divisor d of n with r < d < n is a power of one prime p,
    n is not, and no divisor m > 1 of n / p^k is 1 mod p, p^k being the
    p-part of n. In that last case no generator has order n (the
    quotient would be cyclic), so each has p-power order and lies in a
    Sylow p-subgroup; their number divides n / p^k and is 1 mod p, so
    it is 1 and that subgroup is normal. The generators then lie in one
    subgroup of order p^k < n and cannot generate the quotient (Sylow's
    theorems; Robinson, *A Course in the Theory of Groups*, ch. 1.6).
    This Sylow rule skips 21 and 22 at r = 4, and 55, 57, 58 and 62 at
    r = 6,
  - every finished table, plain or regular, is checked before emission
    on the search's own live rows (`_check_rows`, handed the interleaved
    rows and the point list that each search sets up once): a
    breadth-first walk from the basepoint meets the points in label
    order (the table is its own canonical form) and reaches all of them
    (the action is transitive), and every backward row inverts its
    forward row. A regular table must then have image order equal to its
    degree.

Regularity does not rest on the cuts: every entry off the tree stores the
core of its Schreier generator, and at a finished table every stored core
closes from every point, so the basepoint stabilizer acts trivially and
the action is regular. A cut only prunes earlier; dropping one loses no
table and lets no irregular table reach `build()`, whose image-order
check stays as the check of this invariant.

`enumerate_normal` with no kernel radius searches each order at most
once per process, and only as far as it is read (`_materialized`).

`_first_survivals` skips whole orders by derived length: a word in
F^(d), the d-th derived subgroup of F_rank, maps into G^(d), which is
trivial in every group G of derived length at most d. Each group of an
order has derived length 1 where all are abelian (Pakianathan and
Shankar, "Nilpotent numbers", Amer. Math. Monthly 107, 2000), and at
most 2, 3 or 4 below 24, 48 or 60 (D. J. S. Robinson, *A Course in the
Theory of Groups*, ch. 5).

`_search` is a generator that returns, once exhausted, what it did: the
frames it pushed, the candidates it placed (by then every candidate of
every frame), the candidates a deduction cut, the tables it emitted and
the scans it drained from the queue. These counts do not depend on the
queue order, since every deduction is forced and the fixpoint is unique.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
from typing import Generator, Iterator

from .errors import InternalError, _checked_int
from .permrep import PermQuotient, _glued, eval_word, image_order
from .words import FreeWord, SLWord, sl_eval

# actions glued into one disjoint union, for the ball walk and for
# straight-line words, which bounds the union however many actions an
# order has
_WALK_BATCH = 2048


def _check_rows(rows: list[list[int]], points: list[int]) -> None:
    """Check a finished table on its own rows, or raise InternalError.

    `rows` interleaves the table as (g1 forward, g1 backward, g2 forward,
    ...) and `points` is [0, 1, ..., degree - 1].  Every entry is filled
    and each backward row inverts its forward row.  A breadth-first walk
    from point 0, scanning each point's entries in row order, meets the
    points in label order, so the table is its own canonical form, and
    reaches all of them, so the action is transitive.
    """
    for f, b in zip(rows[::2], rows[1::2]):
        # with no -1 in f, b undoing f makes f a bijection and b its inverse
        if -1 in f or [b[x] for x in f] != points:
            raise InternalError("search produced a backward row that misses its inverse")
    met = 1  # points 0 .. met-1 have been met, in label order
    for p in points:
        if p == met:
            raise InternalError("search produced an intransitive table")
        for row in rows:
            nxt = row[p]
            if nxt >= met:
                if nxt != met:
                    raise InternalError("search produced a non-canonical table")
                met += 1


def _search(
    rank: int, degree: int, regular: bool, kernel_radius: int = 0
) -> Generator[PermQuotient, None, dict[str, int]]:
    m = rank
    fwd = [[-1] * degree for _ in range(m)]
    bwd = [[-1] * degree for _ in range(m)]
    # step[x][p]: p moved by the letter x; a negative x indexes from the
    # end, where the backward rows sit in reverse order
    step = [None, *fwd, *reversed(bwd)]
    # the same live rows as _check_rows reads them, and its point list
    rows = [row for f, b in zip(fwd, bwd) for row in (f, b)]
    points = list(range(degree))
    bfs_word: list[tuple[int, ...]] = [()]  # one word per point in use, basepoint first
    # every rotation of every stored relator core, and the same rotations
    # by the letter they start with
    relator_set: set[tuple[int, ...]] = set()
    rotations: dict[int, list[tuple[int, ...]]] = {
        x: [] for g in range(1, m + 1) for x in (g, -g)
    }
    pending: list[tuple[tuple[int, ...], int]] = []  # (relator, start) to scan
    # regular mode: what deductions changed, undone on backtrack
    trail: list[tuple] = []
    # what the search did, returned when it is exhausted: frames pushed,
    # candidates placed, candidates cut, tables emitted and scans
    # drained from the queue
    nodes = tries = cuts = tables = scans = 0

    def link(a: int, g: int, b: int) -> bool:
        """Queue the scans through the new entry (a, g, b); False if it
        closes a generator cycle whose length does not divide the degree."""
        nonlocal scans
        ahead, back = rotations[g + 1], rotations[-g - 1]
        pending.extend(zip(ahead, itertools.repeat(a)))
        pending.extend(zip(back, itertools.repeat(b)))
        scans += len(ahead) + len(back)
        # Lagrange: a cycle of right translation by g is a coset of <g>
        length = 1
        cur = b
        while cur != a and fwd[g][cur] >= 0:
            cur = fwd[g][cur]
            length += 1
        return cur != a or degree % length == 0

    def add_relator(a: int, g: int, b: int) -> bool:
        nonlocal scans
        # past their common prefix the closed walk is its core (see above)
        u = bfs_word[a] + (g + 1,)
        v = bfs_word[b]
        k = 0
        while k < len(v) and u[k] == v[k]:
            k += 1
        core = u[k:] + tuple(-letter for letter in reversed(v[k:]))
        if len(core) <= kernel_radius:
            return False
        if core in relator_set:  # its rotation class is stored
            return True
        # a proper power repeats its rotations; keep the first of each
        n = len(core)
        doubled = core + core
        rots = list(dict.fromkeys([doubled[t : t + n] for t in range(n)]))
        relator_set.update(rots)
        trail.append(("rel", rots))
        for rot in rots:
            rotations[rot[0]].append(rot)
        pending.extend(zip(itertools.repeat(core), range(len(bfs_word))))
        scans += len(bfs_word)
        return True

    def deduce(letter: int, src: int, dst: int) -> bool:
        """Force the gap step: letter carries src to dst."""
        if step[-letter][dst] >= 0:  # step[letter][src] is the gap itself
            return False
        if letter > 0:
            a, g, b = src, letter - 1, dst
        else:
            a, g, b = dst, -letter - 1, src
        fwd[g][a] = b
        bwd[g][b] = a
        trail.append(("edge", a, g, b))
        return link(a, g, b) and add_relator(a, g, b)

    def propagate() -> bool:
        """Drain the scan queue; False on a contradiction."""
        while pending:
            rel, start = pending.pop()
            n = len(rel)
            cur = start
            pos = 0
            while pos < n:
                nxt = step[rel[pos]][cur]
                if nxt < 0:
                    break
                cur = nxt
                pos += 1
            if pos == n:
                if cur != start:
                    return False
                continue
            # walk backward from the endpoint to bracket the gap
            end = start
            j = n - 1
            while j > pos:
                prv = step[-rel[j]][end]
                if prv < 0:
                    break
                end = prv
                j -= 1
            if j > pos:
                continue  # two gaps, nothing to deduce
            if not deduce(rel[pos], cur, end):
                return False
        return True

    def build() -> PermQuotient:
        _check_rows(rows, points)
        q = PermQuotient._trusted(tuple(map(tuple, fwd)), tuple(map(tuple, bwd)))
        # _check_rows proved transitivity, so regular means order == degree
        if regular and image_order(q, cap=degree + 1) != degree:
            raise InternalError("relator propagation let an irregular table through")
        return q

    # slot s is entry slot_point[s] = s // (2m) of slot_row[s], the row of
    # generator g = s // 2 % m, forward at even s and backward at odd s; a
    # branch there to r sets that entry to r and slot_opposite[s][r] to
    # the point
    slot_row = rows * degree
    slot_opposite = [row for f, b in zip(fwd, bwd) for row in (b, f)] * degree
    slot_point = [p for p in range(degree) for _ in range(2 * m)]
    # one frame per branching slot: [slot, candidate in place (-1 before
    # the first), points in use, trail length]
    stack: list[list[int]] = []
    s = 0
    used = 1
    while True:
        end = 2 * m * used
        while s < end and slot_row[s][slot_point[s]] >= 0:
            s += 1
        if s < end:
            stack.append([s, -1, used, len(trail)])
            nodes += 1
        elif used == degree:
            tables += 1
            yield build()
        # place the next candidate of the innermost frame that has one
        while stack:
            frame = stack[-1]
            s, r, used, mark = frame
            row = slot_row[s]
            opposite = slot_opposite[s]
            p = slot_point[s]
            if r >= 0:  # take back the candidate in place
                row[p] = -1
                opposite[r] = -1
                if regular:
                    del bfs_word[used:]
                    while len(trail) > mark:
                        entry = trail.pop()
                        if entry[0] == "edge":
                            _, ea, eg, eb = entry
                            fwd[eg][ea] = -1
                            bwd[eg][eb] = -1
                        else:
                            rots = entry[1]
                            relator_set.difference_update(rots)
                            for rot in rots:
                                rotations[rot[0]].pop()
            # the candidates: each point in use that is free in the
            # opposite row, then the fresh point
            r += 1
            while r < used and opposite[r] >= 0:
                r += 1
            if r > used or r == degree:
                stack.pop()
                continue
            frame[1] = r
            tries += 1
            row[p] = r
            opposite[r] = p
            if regular:
                g = s // 2 % m
                a, b = (r, p) if s & 1 else (p, r)
                ok = link(a, g, b)
                if ok and r < used:
                    ok = add_relator(a, g, b)
                elif ok:
                    bfs_word.append(bfs_word[p] + (-(g + 1) if s & 1 else g + 1,))
                    # link queued the scans through the new entry; any
                    # other scan from the fresh point meets a gap at both
                    # ends, one and the same only for a one-letter relator
                    ones = [(x,) for x in rotations if (x,) in relator_set]
                    pending.extend(zip(ones, itertools.repeat(r)))
                    scans += len(ones)
                ok = ok and propagate()
                scans -= len(pending)  # queued but never drained
                pending.clear()
                if not ok:
                    cuts += 1
                    continue
            if r == used:
                used += 1
            # every slot before this one stays filled in the whole subtree
            s += 1
            break
        else:
            return {"nodes": nodes, "tries": tries, "cuts": cuts, "tables": tables, "scans": scans}


@functools.lru_cache(maxsize=None)
def _materialized(rank: int, order: int) -> Iterator[PermQuotient]:
    """The one regular search of an order, as a tee never advanced itself:
    each copy replays the tables earlier copies pulled, then reads on.  A
    search that stops with an exception clears the cache, so its prefix is
    never replayed as the whole order."""

    def search() -> Iterator[PermQuotient]:
        try:
            yield from _search(rank, order, True)
        # GeneratorExit, a paused search being dropped, is no failure
        except (Exception, KeyboardInterrupt):
            _materialized.cache_clear()
            raise

    return itertools.tee(search(), 1)[0]


def enumerate_subgroups(rank: int, index: int) -> Iterator[PermQuotient]:
    """One pointed transitive action per index-`index` subgroup of F_rank.

    Deterministic order; every action is transitive of degree exactly
    `index`.
    """
    _checked_int(rank, "rank")
    _checked_int(index, "index")
    return _search(rank, index, False)


def _prime_exponents(n: int) -> dict[int, int]:
    """Each prime dividing n, with its exponent in n."""
    exponents: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        exponents[n] = exponents.get(n, 0) + 1
    return exponents


def all_abelian(order: int) -> bool:
    """Whether every group of this order is abelian.

    By Dickson's criterion that holds exactly when the order is cube-free
    and p^k is not 1 mod q for any primes p, q dividing it and any k up to
    the exponent of p in it (OEIS A051532; Pakianathan and Shankar,
    "Nilpotent numbers", Amer. Math. Monthly 107, 2000).
    """
    _checked_int(order, "order")
    exponents = _prime_exponents(order)
    return all(e <= 2 for e in exponents.values()) and not any(
        pow(p, k, q) == 1 for p, e in exponents.items() for q in exponents for k in range(1, e + 1)
    )


def _whole_order_cut(order: int, kernel_radius: int) -> bool:
    """Whether no regular quotient of F_rank of this order, rank >= 2, has
    a kernel missing the ball of radius kernel_radius >= 4 (the whole-order
    cut in the module docstring): every quotient is abelian, or the
    generators' usable orders all lie in one normal Sylow subgroup."""
    if all_abelian(order):
        return True
    usable = [d for d in range(kernel_radius + 1, order) if order % d == 0]
    primes = {p for d in usable for p in _prime_exponents(d)}
    if not primes:  # every quotient is cyclic
        return True
    if len(primes) > 1:
        return False
    (p,) = primes
    # the p'-part of the order: every Sylow p-count divides it and is 1 mod p
    rest = order // p ** _prime_exponents(order)[p]
    return rest > 1 and not any(rest % m == 0 and m % p == 1 for m in range(2, rest + 1))


def enumerate_normal(rank: int, order: int, *, kernel_radius: int = 0) -> Iterator[PermQuotient]:
    """One regular action per normal subgroup of F_rank with quotient size
    `order` (equivalently, per kernel of a surjection onto a group of that
    order).

    With `kernel_radius` r > 0, kernels holding a nontrivial word of length
    <= r may be skipped: the result is a subsequence of the full one that
    still contains every kernel missing the radius-r ball, in the same
    order.  At rank >= 2 and r >= 4 a whole order is skipped, with no
    search, when every divisor of it above r is the order itself (its
    largest proper divisor, order // least prime, is <= r), when every
    group of that order is abelian, or when its divisors strictly between
    r and the order are powers of one prime p, the order is not, and the
    Sylow p-subgroup is normal in every group of that order: see the
    whole-order cut in the module docstring.
    """
    _checked_int(rank, "rank")
    _checked_int(order, "order")
    _checked_int(kernel_radius, "kernel_radius", 0)
    if kernel_radius:
        if rank >= 2 and kernel_radius >= 4 and _whole_order_cut(order, kernel_radius):
            return iter(())
        return _search(rank, order, True, kernel_radius)
    # a copy, not a tee of the tee, whose semantics differ across Pythons
    return copy.copy(_materialized(rank, order))


def _exponent_sums(w: FreeWord | SLWord) -> tuple[int, ...]:
    """w's image in the abelianization Z^rank, as one exponent sum per
    generator; a straight-line word is evaluated there on integer vectors."""
    if isinstance(w, SLWord):
        return sl_eval(
            w,
            gen=lambda i: tuple(int(g == i) for g in range(1, w.rank + 1)),
            mul=lambda a, b: tuple(map(operator.add, a, b)),
            inv=lambda a: tuple(map(operator.neg, a)),
            ident=(0,) * w.rank,
        )
    sums = [0] * w.rank
    for letter in w.letters:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(sums)


def _derived_depth(w: FreeWord | SLWord) -> float:
    """A lower bound d with w in F^(d), the d-th derived subgroup of F_rank.

    A straight-line word is read in one pass over its nodes up to the root:
    a commutator is one deeper than the shallower of its operands, a
    product is as deep as the shallower of its factors, an inverse, a
    conjugate and a nonzero power are as deep as their operand, and a zero
    power is the identity, of depth infinity, which dies in every
    quotient.  Any word whose exponent sums all vanish lies in the
    commutator subgroup F^(1); for a flat word that is the only rule.
    """
    depth: float = 0
    if isinstance(w, SLWord):
        depths: list[float] = []
        for node in w.nodes[: w.root + 1]:
            op = node[0]
            if op == "gen":
                d = 0
            elif op == "comm":
                d = min(depths[node[1]], depths[node[2]]) + 1
            elif op == "mul":
                d = min(depths[node[1]], depths[node[2]])
            elif op == "pow" and not node[2]:
                d = math.inf
            else:  # inv, conj and a nonzero pow
                d = depths[node[1]]
            depths.append(d)
        depth = depths[-1]
    return depth or int(not any(_exponent_sums(w)))


def _derived_length_bound(order: int) -> float:
    """An upper bound on the derived length of every group of this order.

    1 where every group of the order is abelian (`all_abelian`).  Else 2
    below 24, since S4 and SL(2,3) are the smallest non-metabelian groups;
    3 below 48 and 4 below 60, since a solvable group of derived length
    k + 1 has a proper derived subgroup of derived length k, so the least
    order at least doubles from 24, and A5, of order 60, is the smallest
    non-solvable group.  No bound (infinity) from 60 on.
    """
    if all_abelian(order):
        return 1
    return next((k for k, below in ((2, 24), (3, 48), (4, 60)) if order < below), math.inf)


def _first_survivals(
    rank: int, w: FreeWord | SLWord, cap: int, recheck: int = 1
) -> tuple[int, PermQuotient] | None:
    """The least order up to cap of a regular quotient where w survives and
    the first such quotient, or None if w dies in all.

    An order past `recheck` is not enumerated at all when its bound on the
    derived length of its groups (`_derived_length_bound`) is at most w's
    derived-series depth (`_derived_depth`): a word in F^(d) dies in every
    group of derived length at most d (see the module docstring;
    Pakianathan and Shankar, "Nilpotent numbers", 2000, for the abelian
    orders, and Robinson, *A Course in the Theory of Groups*, ch. 5, for
    the derived series).  So a witness nested k commutators deep skips
    every order below 24, 48 or 60 for k = 2, 3 or 4, and every order
    where all groups are abelian for k >= 1.  Every order up to `recheck`
    is enumerated and evaluated regardless, which lets a caller check a
    claim there against the quotient lists.

    w is evaluated once per batch of tables, with `eval_word` on the
    batch's disjoint union (`_glued`): it survives in a table exactly when
    it moves that table's basepoint.  A batch is `_WALK_BATCH` tables for a
    straight-line word, so each of its row compositions serves many tables,
    and one table for a flat word, so its first survivor ends the
    enumeration there.
    """
    depth = _derived_depth(w)
    size = _WALK_BATCH if isinstance(w, SLWord) else 1
    for order in range(2, cap + 1):
        if order > recheck and _derived_length_bound(order) <= depth:
            continue
        tables = enumerate_normal(rank, order)
        while batch := list(itertools.islice(tables, size)):
            glued, offsets = _glued(batch)
            row = eval_word(glued, w)
            for p, q in zip(offsets, batch):
                if row[p] != p:
                    return order, q
    return None


def subgroup_count(rank: int, index: int) -> int:
    return sum(1 for _ in enumerate_subgroups(rank, index))


def hall_counts(rank: int) -> Iterator[int]:
    """Subgroup counts of F_rank at index 1, 2, ..., without enumerating:
    Hall's recursion a_n = n (n!)^(rank-1) - sum_{k<n} ((n-k)!)^(rank-1) a_k.
    a_n is how many actions `enumerate_subgroups(rank, n)` yields.
    """
    _checked_int(rank, "rank")
    powers, counts = [1], []  # powers[m] = (m!)^(rank-1)
    for n in itertools.count(1):
        powers.append(powers[-1] * n ** (rank - 1))
        counts.append(n * powers[n] - sum(powers[n - k] * a for k, a in enumerate(counts, 1)))
        yield counts[-1]


def normal_count(rank: int, order: int) -> int:
    return sum(1 for _ in enumerate_normal(rank, order))


def normal_subgroup_growth(rank: int, n: int) -> int:
    """Number of normal subgroups of index at most n."""
    _checked_int(rank, "rank")
    _checked_int(n, "n")
    return sum(normal_count(rank, q) for q in range(1, n + 1))
