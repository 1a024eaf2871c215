"""Heisenberg elements as integer triples, evaluation, modular girth bounds.

The integer Heisenberg group is the group of 3x3 upper unitriangular
integer matrices; an element is stored as its three upper entries
(a, b, c) at (0,1), (1,2) and (0,2).  Sending the two generators to the
elementary matrices E12 and E23 embeds words into it.  Ball images have
small entries (the exact maximum is found by walking distinct elements,
not words), so reducing mod a modulus larger than twice that maximum
keeps distinct images distinct.  The finite Heisenberg group mod M, of
order M^3, then witnesses a polynomial upper bound for residual girth on
the nilpotent side.
"""

from .errors import InputError, InternalError
from .words import FreeWord

# upper entries (a, b, c) of x, x^-1, y, y^-1 under x to E12, y to E23
_GENERATOR_TRIPLES = {1: (1, 0, 0), -1: (-1, 0, 0), 2: (0, 1, 0), -2: (0, -1, 0)}


def _mul(u: tuple, v: tuple) -> tuple:
    """(a, b, c)(a', b', c') = (a + a', b + b', c + c' + ab')."""
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + u[0] * v[1])


def _max_entry(t: tuple) -> int:
    # the unit diagonal counts, so the identity reads 1
    return max(1, abs(t[0]), abs(t[1]), abs(t[2]))


def _reduce(t: tuple, m: int) -> tuple:
    if m < 2:
        raise InputError(f"modulus must be at least 2, got {m}")
    return (t[0] % m, t[1] % m, t[2] % m)


class UnipotentMatrix:
    """3x3 upper unitriangular integer matrix, a Heisenberg group element.

    Built from its rows; `triple` holds the upper entries (a, b, c) at
    (0,1), (1,2) and (0,2), which determine it.  Immutable and hashable.
    """

    __slots__ = ("triple",)

    def __init__(self, entries):
        rows = tuple(tuple(int(v) for v in row) for row in entries)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise InputError("entries must form a 3x3 matrix")
        for i in range(3):
            if rows[i][i] != 1:
                raise InputError(f"diagonal entry at {i} is {rows[i][i]}, not 1")
            for j in range(i):
                if rows[i][j] != 0:
                    raise InputError(f"entry below the diagonal at ({i},{j}) is nonzero")
        object.__setattr__(self, "triple", (rows[0][1], rows[1][2], rows[0][2]))

    @classmethod
    def _from_triple(cls, triple: tuple) -> "UnipotentMatrix":
        m = object.__new__(cls)
        object.__setattr__(m, "triple", triple)
        return m

    @classmethod
    def identity(cls) -> "UnipotentMatrix":
        return cls._from_triple((0, 0, 0))

    def __setattr__(self, name, value):
        raise AttributeError("UnipotentMatrix is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, UnipotentMatrix) and self.triple == other.triple

    def __hash__(self) -> int:
        return hash(self.triple)

    def __repr__(self) -> str:
        return f"UnipotentMatrix(triple={self.triple!r})"

    @property
    def entries(self) -> tuple:
        a, b, c = self.triple
        return ((1, a, c), (0, 1, b), (0, 0, 1))

    @property
    def is_identity(self) -> bool:
        return self.triple == (0, 0, 0)

    def __mul__(self, other: "UnipotentMatrix") -> "UnipotentMatrix":
        return UnipotentMatrix._from_triple(_mul(self.triple, other.triple))

    def inverse(self) -> "UnipotentMatrix":
        a, b, c = self.triple
        return UnipotentMatrix._from_triple((-a, -b, a * b - c))

    def reduce_mod(self, m: int) -> "UnipotentMatrix":
        return UnipotentMatrix._from_triple(_reduce(self.triple, m))


def heisenberg_eval(w: FreeWord, *, modulus: int | None = None) -> UnipotentMatrix:
    """Image of a rank-2 word under x to E12, y to E23.

    With a modulus, every product is reduced as it happens; the result
    equals the integer image reduced at the end.
    """
    if not isinstance(w, FreeWord):
        raise InputError(f"need a FreeWord, got {type(w).__name__}")
    if w.rank != 2:
        raise InputError(f"the Heisenberg embedding takes rank-2 words, got rank {w.rank}")
    table = _GENERATOR_TRIPLES
    if modulus is not None:
        table = {k: _reduce(v, modulus) for k, v in table.items()}
    out = (0, 0, 0)
    for letter in w.letters:
        out = _mul(out, table[letter])
        if modulus is not None:
            out = _reduce(out, modulus)
    return UnipotentMatrix._from_triple(out)


def _ball_images(n: int) -> set:
    """Distinct Heisenberg images of the radius-n ball as (a, b, c), by BFS."""
    steps = tuple(_GENERATOR_TRIPLES.values())
    seen = {(0, 0, 0)}
    frontier = list(seen)
    for _ in range(n):
        nxt = []
        for t in frontier:
            for s in steps:
                img = _mul(t, s)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def entry_bound(n: int) -> int:
    """Exact max absolute entry over the radius-n ball image."""
    if n < 0:
        raise InputError(f"radius must be nonnegative, got {n}")
    exact = max(map(_max_entry, _ball_images(n)))
    analytic = n * (n + 1) // 2 + 1
    if exact > analytic:
        raise InternalError(
            f"ball entry maximum {exact} exceeds the analytic envelope {analytic}"
        )
    return exact


def girth_upper_bound_nilpotent(n: int) -> tuple:
    """(modulus, finite group order, injectivity verdict) at radius n.

    The modulus exceeds twice the exact entry maximum, so distinct integer
    images stay distinct mod M; the check is still run pairwise.  The
    order is the exact count of Heisenberg elements over Z/M, M^3.
    """
    if n < 1:
        raise InputError(f"radius must be positive, got {n}")
    images = _ball_images(n)
    m = 2 * max(map(_max_entry, images)) + 1
    reduced = {_reduce(t, m) for t in images}
    if len(reduced) != len(images):
        raise InternalError(f"reduction mod {m} collapsed distinct ball images")
    return (m, m ** 3, True)
