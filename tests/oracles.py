"""Reference functions that only the tests use.

`canonical_key` names a pointed transitive action up to relabelling, and
`kernel_fingerprint` records which words of a fixed battery an action
kills; the tests compare the search's output through them and freeze
digests of their bytes.  `permutation_eval` evaluates words by
multiplying 0-based row tuples node by node with `compose` and `invert`,
the reference for the row evaluation.  `prefix_sl_eval` is the
straight-line interpreter that walks every node before the root, the
reference for `sl_eval`.  `per_table_obstruction_scan` reads the cycles
of x in every cover, the reference for `obstruction_scan`, which reads
each distinct row of x once.  `per_table_first_survivals` evaluates
every word on every table of each order, the reference for
`_first_survivals`, which skips orders by derived length and evaluates
every word once per batch of tables; it reads survival with
`permutation_eval`, so it shares no evaluator with the code it checks.
`derived_length` reads the derived length of a quotient's image off its
elements, the second route to `lowindex._derived_length_bound`.
`_ball_cells` walks the Heisenberg ball image, the reference for the
closed form in `nilpotent.entry_bound`: `_cells_max_entry` reads its
exact maximum, checked against the envelope n(n+1)/2 + 1, and
`_fold_collides` checks that reduction mod the girth modulus keeps the
images apart.

`level_overhead`, `sl_build` and `ball_images` are helpers that only the
tests call: the slack of the pairing tree, a flat word as a straight-line
word, and the Heisenberg ball image read off `_ball_cells`.
"""

from typing import Callable

from resfin.covers import lcm_upto
from resfin.errors import InputError, InternalError, ResourceError, _checked_int
from resfin.lowindex import enumerate_normal, enumerate_subgroups
from resfin.permrep import PermQuotient, eval_word, row_cycles
from resfin.words import FreeWord, SLBuilder, SLWord, enumerate_ball


# the most points whose labels 0, 1, ..., degree - 1 are each one byte
_BYTE_LABELS = 256


def canonical_key(q: PermQuotient) -> bytes:
    """Canonical form of a pointed transitive action.

    Relabels points by breadth-first discovery order from the basepoint,
    scanning each point's neighbors as (g1 forward, g1 backward, g2
    forward, ...). Two transitive quotients get equal keys exactly when
    some relabeling fixing the basepoint carries one to the other. The
    same pass decides transitivity.
    """
    if q.degree > _BYTE_LABELS:
        raise InputError(f"degree {q.degree} past {_BYTE_LABELS}, whose labels are not all bytes")
    rows = [row for f, b in zip(q.fwd, q.bwd) for row in (f, b)]
    label = [0] + [-1] * (q.degree - 1)
    order = [0]
    for p in order:  # order grows while it is walked
        for row in rows:
            nxt = row[p]
            if label[nxt] < 0:
                label[nxt] = len(order)
                order.append(nxt)
    if len(order) != q.degree:
        raise InputError("canonical_key needs a transitive quotient")
    return b"".join(bytes(label[f[p]] for p in order) for f in q.fwd)


def word_battery(rank: int, order: int) -> tuple[FreeWord, ...]:
    """All reduced words of length up to 2*ceil(log2(order)) + 2.

    Evaluation patterns on this battery separate distinct kernels at the
    orders used here; the tests cross-check that against canonical keys.
    """
    if order < 1:
        raise InputError(f"order must be positive, got {order}")
    radius = 2 * (order - 1).bit_length() + 2
    return tuple(enumerate_ball(rank, radius))


def kernel_fingerprint(q: PermQuotient, battery: tuple[FreeWord, ...] | None = None) -> bytes:
    """Which battery words the action kills, one byte each."""
    if battery is None:
        battery = word_battery(q.rank, q.degree)
    one = tuple(range(q.degree))
    return bytes(1 if eval_word(q, w) == one else 0 for w in battery)


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a then b, acting on the right."""
    return tuple(b[p] for p in a)


def invert(a: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse row: the points sorted by their images."""
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def permutation_eval(q: PermQuotient, w: FreeWord | SLWord) -> tuple[int, ...]:
    """Image of a word as a 0-based row, from products of plain tuples.

    A straight-line word is evaluated node by node up to its root, every
    node kept, with its own square-and-multiply; nothing is shared with
    `sl_eval`, with `eval_word` or with the quotient's inverse rows.
    """
    gens = q.fwd
    one = tuple(range(q.degree))
    if isinstance(w, FreeWord):
        out = one
        for letter in w.letters:
            out = compose(out, gens[letter - 1] if letter > 0 else invert(gens[-letter - 1]))
        return out
    vals = []
    for op, *args in w.nodes[: w.root + 1]:
        if op == "gen":
            vals.append(gens[args[0] - 1])
        elif op == "inv":
            vals.append(invert(vals[args[0]]))
        elif op == "mul":
            vals.append(compose(vals[args[0]], vals[args[1]]))
        elif op == "pow":
            base, e = vals[args[0]], args[1]
            if e < 0:
                base, e = invert(base), -e
            acc = one
            while e:
                if e & 1:
                    acc = compose(acc, base)
                base = compose(base, base)
                e >>= 1
            vals.append(acc)
        elif op == "conj":
            a, b = vals[args[0]], vals[args[1]]
            vals.append(compose(compose(b, a), invert(b)))
        else:
            assert op == "comm", op
            a, b = vals[args[0]], vals[args[1]]
            vals.append(compose(compose(compose(a, b), invert(a)), invert(b)))
    return vals[w.root]


def relabel(q: PermQuotient, s: tuple[int, ...]) -> PermQuotient:
    """The quotient with point p renamed s[p]: each row g becomes s^-1 g s."""
    return PermQuotient([[p + 1 for p in compose(compose(invert(s), g), s)] for g in q.fwd])


def prefix_sl_eval(w: SLWord, *, gen: Callable, mul: Callable, inv: Callable, ident: object):
    """The straight-line interpreter that reads every node up to the root.

    A backward pass over the whole prefix `nodes[: root + 1]` counts the
    reads of the nodes the root depends on, and a forward pass evaluates
    them; values are dropped at their last read.  It is the reference for
    `words.sl_eval`, which walks only what the root reads: both give the
    same value from the same products.
    """

    def powered(base, e: int):
        if e < 0:
            base, e = inv(base), -e
        acc = ident
        while e:
            if e & 1:
                acc = mul(acc, base)
            e >>= 1
            if e:
                base = mul(base, base)
        return acc

    def commutator(pair: list):
        # [u, v] = (uv)(vu)^-1; the operands are cleared from the caller's
        # list and vu rebound, so the last product sees only uv and (vu)^-1
        uv, vu = mul(pair[0], pair[1]), mul(pair[1], pair[0])
        pair.clear()
        vu = inv(vu)
        return mul(uv, vu)

    # a backward pass counts the reads of each node the root depends on;
    # nodes past the root (SLWord._rooted keeps them) are never read
    nodes, root = w.nodes[: w.root + 1], w.root
    refs = [() if x[0] == "gen" else x[1:2] if x[0] == "pow" else x[1:] for x in nodes]
    readers = [0] * root + [1]  # the caller reads the root
    for idx in range(root, -1, -1):
        if readers[idx]:
            for ref in refs[idx]:
                readers[ref] += 1
    vals: list = [None] * (root + 1)
    for idx, node in enumerate(nodes):
        if not readers[idx]:
            continue
        args = [vals[ref] for ref in refs[idx]]
        for ref in refs[idx]:
            readers[ref] -= 1
            if not readers[ref]:
                vals[ref] = None
        op = node[0]
        if op == "gen":
            vals[idx] = gen(node[1])
        elif op == "inv":
            vals[idx] = inv(args[0])
        elif op == "mul":
            vals[idx] = mul(args[0], args[1])
        elif op == "pow":
            vals[idx] = powered(args[0], node[2])
        elif op == "conj":
            vals[idx] = mul(mul(args[1], args[0]), inv(args[1]))
        else:
            vals[idx] = commutator(args)
    return vals[root]


def per_table_obstruction_scan(m: int, max_degree: int) -> dict:
    """`covers.obstruction_scan`'s report, from the cycles of x in every cover.

    Each cover's row of x is decomposed and checked on its own, however
    many covers share it.
    """
    ell = lcm_upto(m)
    rows = []
    total_points = 0
    total_non_closing = 0
    total_covers = 0
    for degree in range(1, max_degree + 1):
        covers = 0
        non_closing = 0
        for q in enumerate_subgroups(2, degree):
            covers += 1
            lengths = [len(c) for c in row_cycles(q.fwd[0])]
            if sum(lengths) != degree:
                raise InternalError("cycle lengths must add up to the degree")
            for length in lengths:
                if ell % length == 0:
                    continue
                non_closing += length
                if length <= m:
                    raise InternalError(
                        f"non-closing lift on a cycle of length {length} <= {m}"
                    )
        rows.append(
            {
                "degree": degree,
                "covers": covers,
                "points": degree * covers,
                "non_closing_points": non_closing,
            }
        )
        total_covers += covers
        total_points += degree * covers
        total_non_closing += non_closing
    return {
        "m": m,
        "lcm": ell,
        "max_degree": max_degree,
        "covers": total_covers,
        "points_checked": total_points,
        "non_closing_points": total_non_closing,
        "violations": [],
        "rows": rows,
    }


def derived_length(q: PermQuotient) -> int:
    """The derived length of q's image, from its elements: the image is
    closed from the generator rows, then each derived subgroup is closed
    from the commutators of the one before, until it is trivial."""

    def closure(gens: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
        # in a finite group the products of generators already hold every inverse
        elements = {tuple(range(q.degree))}
        frontier = list(elements)
        while frontier:
            fresh = {compose(x, g) for x in frontier for g in gens} - elements
            elements |= fresh
            frontier = list(fresh)
        return elements

    group = closure(set(q.fwd))
    length = 0
    while len(group) > 1:
        group = closure(
            {compose(compose(x, y), invert(compose(y, x))) for x in group for y in group}
        )
        length += 1
    return length


def per_table_first_survivals(
    rank: int, words: list[FreeWord | SLWord], cap: int
) -> list[tuple[int, PermQuotient] | None]:
    """`lowindex._first_survivals`'s answer with no order skipped: every
    order up to the last one a word needs is enumerated, and every word
    still dying is evaluated on each table on its own."""
    found: list[tuple[int, PermQuotient] | None] = [None] * len(words)
    left = list(range(len(words)))
    for order in range(2, cap + 1):
        if not left:
            break
        for q in enumerate_normal(rank, order):
            for i in left:
                if permutation_eval(q, words[i])[0]:
                    found[i] = (order, q)
            left = [i for i in left if found[i] is None]
            if not left:
                break
    return found


def level_overhead(k: int) -> int:
    """Additive slack of the pairing tree after k levels.

    One level turns bounds b_u, b_v into 2 b_u + 2 (b_v + 2), so the slack
    obeys a_k = 4 a_{k-1} + 4, giving (4^{k+1} - 4) / 3.
    """
    _checked_int(k, "level count", 0)
    return (4 ** (k + 1) - 4) // 3


def sl_build(u: FreeWord) -> SLWord:
    """The flat word u as a straight-line word."""
    builder = SLBuilder(u.rank)
    return builder.build(builder.word(u))


# the most window bits, (2n^2+2n+1) cells of 2n^2+1 central entries each,
# that the ball walk may span: radius 90 fits, radius 91 does not
_WINDOW_LIMIT = 1 << 28


def _shift(bits: int, s: int) -> int:
    """bits moved by s places (c to c + s); a set bit shifted out is an error."""
    if s >= 0:
        return bits << s
    if bits & ((1 << -s) - 1):
        raise InternalError("a central entry fell below the ball's window")
    return bits >> -s


def _ball_cells(n: int) -> dict:
    """The radius-n ball image as a map from (a, b) to a bitset of c + n^2.

    Walked by layers: x^+-1 carries a cell's new bits to (a +- 1, b), y^+-1
    shifts them by +-a into (a, b +- 1), and only unseen bits go on.  A
    window past `_WINDOW_LIMIT` bits raises ResourceError up front.
    """
    window = (2 * n * n + 2 * n + 1) * (2 * n * n + 1)
    if window > _WINDOW_LIMIT:
        raise ResourceError(
            f"the radius-{n} ball spans a window of {window} bits,"
            f" past the limit {_WINDOW_LIMIT}"
        )
    seen = {(0, 0): 1 << (n * n)}
    frontier = seen.copy()
    for _ in range(n):
        reach = {}
        for (a, b), bits in frontier.items():
            for cell, moved in (
                ((a + 1, b), bits),
                ((a - 1, b), bits),
                ((a, b + 1), _shift(bits, a)),
                ((a, b - 1), _shift(bits, -a)),
            ):
                reach[cell] = reach.get(cell, 0) | moved
        frontier = {}
        for cell, bits in reach.items():
            old = seen.get(cell, 0)
            new = bits & ~old
            if new:
                frontier[cell] = new
                seen[cell] = old | new
    return seen


def _cells_max_entry(cells: dict, n: int) -> int:
    """Max |entry| over the cells, from |a|, |b| and each bitset's end bits;
    the unit diagonal counts, so the identity alone reads 1.  A maximum past
    the analytic envelope n(n+1)/2 + 1 raises InternalError."""
    off = n * n
    exact = max(
        max(1, abs(a), abs(b), off - (bits & -bits).bit_length() + 1, bits.bit_length() - 1 - off)
        for (a, b), bits in cells.items()
    )
    analytic = n * (n + 1) // 2 + 1
    if exact > analytic:
        raise InternalError(f"ball entry maximum {exact} exceeds the analytic envelope {analytic}")
    return exact


def _fold_collides(cells: dict, m: int) -> bool:
    """Whether reducing mod m merges two images of the cells.

    The offset n^2 shifts every cell alike, so folding each bitset m bits
    at a time into its residue cell (a mod m, b mod m) meets a set bit
    exactly where two images collide.
    """
    mask = (1 << m) - 1
    residues = {}
    for (a, b), bits in cells.items():
        key = (a % m, b % m)
        acc = residues.get(key, 0)
        while bits:
            if acc & bits & mask:
                return True
            acc |= bits & mask
            bits >>= m
        residues[key] = acc
    return False


def ball_images(n: int) -> set:
    """Distinct Heisenberg images of the radius-n ball as (a, b, c)."""
    out = set()
    for (a, b), bits in _ball_cells(n).items():
        while bits:
            low = bits & -bits
            out.add((a, b, low.bit_length() - 1 - n * n))
            bits ^= low
    return out
