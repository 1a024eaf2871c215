"""Heisenberg elements as integer triples, evaluation, modular girth bounds.

The integer Heisenberg group is the group of 3x3 upper unitriangular
integer matrices; an element is stored as its three upper entries
(a, b, c) at (0,1), (1,2) and (0,2).  Sending the two generators to the
elementary matrices E12 and E23 embeds words into it.  Ball images have
small entries, so reducing mod a modulus larger than twice the maximum
keeps distinct images distinct.  The finite Heisenberg group mod M, of
order M^3, then witnesses a polynomial upper bound for residual girth on
the nilpotent side.

The maximum is in closed form.  Right multiplication by x^+-1 moves a by
one; by y^+-1 it moves b by one and c by +-a.  A word of length at most n
with k x-letters has at most n - k y-letters, so |a| <= k <= n and
|b| <= n - k <= n, and since |a| <= k all along, each y-letter moves c
by at most k: |c| <= k(n - k) <= floor(n^2/4).  x^n reaches a = n and
x^floor(n/2) y^ceil(n/2) reaches c = floor(n^2/4), and the unit diagonal
counts, so the maximum is max(1, n, floor(n^2/4)).
"""

from .errors import InputError, _checked_int

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


def entry_bound(n: int) -> int:
    """Exact max absolute entry over the radius-n ball image,
    max(1, n, floor(n^2/4)); the 1 is the unit diagonal, the value at 0."""
    _checked_int(n, "radius", 0)
    return max(1, n, n * n // 4)


def girth_upper_bound_nilpotent(n: int) -> tuple:
    """(modulus, finite group order, injectivity verdict) at radius n.

    The modulus m = 2M + 1, with M = entry_bound(n), keeps the ball
    injective: two distinct images with entries at most M differ in some
    entry by d with 0 < |d| <= 2M < m, so m does not divide d.  The order
    is the exact count of Heisenberg elements over Z/m, m^3.
    """
    _checked_int(n, "radius")
    m = 2 * entry_bound(n) + 1
    return (m, m ** 3, True)
