"""Heisenberg elements as integer triples, evaluation, modular girth bounds.

The integer Heisenberg group is the group of 3x3 upper unitriangular
integer matrices; an element is stored as its three upper entries
(a, b, c) at (0,1), (1,2) and (0,2).  Sending the two generators to the
elementary matrices E12 and E23 embeds words into it.  Ball images have
small entries, so reducing mod a modulus larger than twice the maximum
keeps distinct images distinct.  The finite Heisenberg group mod M, of
order M^3, then witnesses a polynomial upper bound for residual girth on
the nilpotent side.

The exact maximum comes from walking distinct elements, not words.  Right
multiplication by a letter moves a or b by one and, for y^+-1, moves c by
+-a; so |a| + |b| <= n and |c| <= n^2 on the radius-n ball.  The walk
keeps one cell per (a, b): a Python-int bitset whose bit c + n^2 (the
offset) marks the element (a, b, c).  A y-letter is then a shift of the
whole cell.  The collapse check mod M folds each cell into its residue
cell (a mod M, b mod M), M bits at a time; an overlapping bit is two
images that reduce to one.  The exact maximum is read in one place, which
checks it against the analytic envelope n(n+1)/2 + 1, so entry_bound and
the girth bound raise the same InternalError past it.
"""

from .errors import InputError, InternalError, ResourceError, _checked_int

# upper entries (a, b, c) of x, x^-1, y, y^-1 under x to E12, y to E23
_GENERATOR_TRIPLES = {1: (1, 0, 0), -1: (-1, 0, 0), 2: (0, 1, 0), -2: (0, -1, 0)}


def _mul(u: tuple, v: tuple) -> tuple:
    """(a, b, c)(a', b', c') = (a + a', b + b', c + c' + ab')."""
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + u[0] * v[1])


def heisenberg_eval(w: "FreeWord") -> tuple:
    """Image (a, b, c) of a rank-2 word under x to E12, y to E23."""
    from .words import FreeWord

    if not isinstance(w, FreeWord):
        raise InputError(f"need a FreeWord, got {type(w).__name__}")
    if w.rank != 2:
        raise InputError(f"the Heisenberg embedding takes rank-2 words, got rank {w.rank}")
    out = (0, 0, 0)
    for letter in w.letters:
        out = _mul(out, _GENERATOR_TRIPLES[letter])
    return out


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


def entry_bound(n: int) -> int:
    """Exact max absolute entry over the radius-n ball image."""
    _checked_int(n, "radius", 0)
    return _cells_max_entry(_ball_cells(n), n)


def girth_upper_bound_nilpotent(n: int) -> tuple:
    """(modulus, finite group order, injectivity verdict) at radius n.

    The modulus exceeds twice the exact entry maximum, so distinct integer
    images stay distinct mod M; the fold check still runs.  The order is
    the exact count of Heisenberg elements over Z/M, M^3.
    """
    _checked_int(n, "radius")
    cells = _ball_cells(n)
    m = 2 * _cells_max_entry(cells, n) + 1
    if _fold_collides(cells, m):
        raise InternalError(f"reduction mod {m} collapsed distinct ball images")
    return (m, m ** 3, True)
