"""Finite permutation quotients of free groups, held as table rows.

A PermQuotient is a homomorphism F_m -> Sym(d) given by one permutation per
generator, stored as a 0-based row: `row[p]` is the image of point p.
Points are 1..d where a quotient is built, printed or recorded (`"gens"`,
`orbit`) and the basepoint is point 1; rows, and the helpers reading them
(`eval_word`, `inverse_row`, `row_cycles`, `basepoint_image`), are 0-based.
Permutations act on the right: evaluating a word walks its letters left to
right, so eval(uv) applies u first, then v.

`eval_word` is the one evaluator of words, flat or straight-line, and
`inverse_row` the one row inverse; a survival test reads the basepoint of
each action in a disjoint union (`_glued`) off one evaluation.

A pointed transitive quotient of degree d encodes an index-d subgroup (the
basepoint stabilizer); a regular one (image order equal to the degree)
encodes a normal subgroup, its kernel.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, _checked_int
from .words import FreeWord, SLWord, sl_eval

DEFAULT_ORDER_CAP = 10_000


def inverse_row(row: Sequence[int]) -> tuple[int, ...]:
    """The 0-based row of the inverse permutation, filled with the row's own
    ints (`out[row[p]] = p`), so the rows of a glued union (`_glued`) and
    their inverses share one set of ints rather than each holding its own."""
    out = [0] * len(row)
    for p in row:
        out[row[p]] = p
    return tuple(out)


def row_cycles(row: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint cycles of a 0-based row, fixed points included.

    Each cycle starts at its minimal point; cycles ordered by that point.
    """
    seen = [False] * len(row)
    out = []
    for start in range(len(row)):
        if seen[start]:
            continue
        cycle = []
        p = start
        while not seen[p]:
            seen[p] = True
            cycle.append(p)
            p = row[p]
        out.append(tuple(cycle))
    return out


class PermQuotient:
    """m permutations of common degree; the image of each generator.

    Stored as table rows: `fwd[g]` lists the 0-based image of each point
    under generator g + 1, and `bwd[g]` under its inverse.
    """

    __slots__ = ("rank", "degree", "fwd", "bwd")

    def __init__(self, gens: Sequence[Sequence[int]]):
        """gens lists, per generator, the image of each point 1..d, 1-based."""
        fwd = []
        for images in gens:
            images = tuple(images)
            d = len(images)
            if d < 1:
                raise InputError("a permutation needs at least one point")
            # a bool or a float is no point, even where it equals one
            points = list(range(1, d + 1))
            if any(type(p) is not int for p in images) or sorted(images) != points:
                raise InputError(f"images {images} are not a bijection of 1..{d}")
            fwd.append(tuple(p - 1 for p in images))
        if not fwd:
            raise InputError("need at least one generator image")
        degree = len(fwd[0])
        if any(len(row) != degree for row in fwd):
            raise InputError("generator images must share a degree")
        object.__setattr__(self, "rank", len(fwd))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "fwd", tuple(fwd))
        object.__setattr__(self, "bwd", tuple(inverse_row(row) for row in fwd))

    @classmethod
    def _trusted(
        cls, fwd: tuple[tuple[int, ...], ...], bwd: tuple[tuple[int, ...], ...]
    ) -> "PermQuotient":
        """Trusted constructor for forward rows and their inverse rows, one
        shared degree, that the caller has checked."""
        q = object.__new__(cls)
        _SET_RANK(q, len(fwd))
        _SET_DEGREE(q, len(fwd[0]))
        _SET_FWD(q, fwd)
        _SET_BWD(q, bwd)
        return q

    def __setattr__(self, name, value):
        raise AttributeError("PermQuotient is immutable")

    @property
    def basepoint(self) -> int:
        return 1

    def __eq__(self, other) -> bool:
        return isinstance(other, PermQuotient) and self.fwd == other.fwd

    def __hash__(self) -> int:
        return hash(self.fwd)

    def __repr__(self) -> str:
        shown = ", ".join(" ".join(str(p + 1) for p in row) for row in self.fwd)
        return f"PermQuotient(degree={self.degree}, gens=[{shown}])"


# the slots' own setters, bound once: object.__setattr__ looks each name up
# on every call, which cost about a third of a trusted construction
_SET_RANK, _SET_DEGREE, _SET_FWD, _SET_BWD = (
    getattr(PermQuotient, name).__set__ for name in PermQuotient.__slots__
)


def _glued(actions: Sequence[PermQuotient]) -> tuple[PermQuotient, range]:
    """The disjoint union of actions of one rank and one degree d, and
    where each starts.

    Point p of the k-th action is point k d + p of the union, so that
    action's basepoint is offset k d.  One more point after them all,
    the last, is fixed by every generator.
    """
    degree = actions[0].degree
    fixed = degree * len(actions)
    offsets = range(0, fixed, degree)
    points = list(range(fixed + 1))

    def glue(rows):
        return tuple([points[offset + p] for offset, row in zip(offsets, rows) for p in row] + [fixed])

    fwd = tuple(glue(rows) for rows in zip(*(q.fwd for q in actions)))
    bwd = tuple(glue(rows) for rows in zip(*(q.bwd for q in actions)))
    return PermQuotient._trusted(fwd, bwd), offsets


def eval_word(q: PermQuotient, w: FreeWord | SLWord) -> tuple[int, ...]:
    """Image of a word, flat or straight-line, as a 0-based row like q.fwd[g].

    This is the one evaluator of words on a quotient.  A flat word
    composes one row per letter; a straight-line word composes one row per
    node through `sl_eval`, inverting with `inverse_row`, and is never
    flattened.
    """
    if w.rank > q.rank:
        raise InputError(f"word rank {w.rank} exceeds quotient rank {q.rank}")
    fwd, bwd = q.fwd, q.bwd
    ident = tuple(range(q.degree))
    if isinstance(w, SLWord):
        return sl_eval(
            w,
            gen=lambda i: fwd[i - 1],
            mul=lambda a, b: tuple([b[p] for p in a]),
            inv=inverse_row,
            ident=ident,
        )
    state = ident
    for letter in w.letters:
        table = fwd[letter - 1] if letter > 0 else bwd[-letter - 1]
        state = tuple([table[p] for p in state])
    return state


def basepoint_image(q: PermQuotient, w: FreeWord | SLWord) -> int:
    """0-based image of the basepoint (point 0) under a word: entry 0 of
    `eval_word`'s row.

    In a regular action g -> 0.g is a bijection from the image group onto
    the points, so w dies exactly when this is 0, and words have equal
    images exactly when their basepoint images agree.
    """
    return eval_word(q, w)[0]


def orbit(q: PermQuotient, point: int) -> frozenset[int]:
    """The set of points reachable from point under the generators."""
    _checked_int(point, "point")
    if point > q.degree:
        raise InputError(f"point {point} out of range 1..{q.degree}")
    tables = q.fwd + q.bwd
    seen = {point - 1}
    frontier = [point - 1]
    while frontier:
        p = frontier.pop()
        for table in tables:
            nxt = table[p]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(p + 1 for p in seen)


def is_transitive(q: PermQuotient) -> bool:
    return len(orbit(q, 1)) == q.degree


def image_order(q: PermQuotient, cap: int = DEFAULT_ORDER_CAP) -> int | None:
    """Order of the group the generators span; None once it exceeds cap."""
    _checked_int(cap, "cap")
    ident = tuple(range(q.degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        state = frontier.pop()
        for table in q.fwd:
            nxt = tuple([table[p] for p in state])
            if nxt not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def is_regular(q: PermQuotient) -> bool:
    """Transitive with image order equal to the degree (trivial stabilizer)."""
    return is_transitive(q) and image_order(q, cap=q.degree + 1) == q.degree


def to_record(q: PermQuotient) -> dict:
    """JSON-ready description of the quotient."""
    order = image_order(q)
    transitive = is_transitive(q)
    return {
        "degree": q.degree,
        "gens": [[p + 1 for p in row] for row in q.fwd],
        "transitive": transitive,
        # None is an order past the cap, which a degree past the cap may equal
        "regular": is_regular(q) if order is None else transitive and order == q.degree,
        "order": order,
    }


def from_record(record: dict) -> PermQuotient:
    try:
        q = PermQuotient(record["gens"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed quotient record: {exc}") from exc
    if q.degree != record.get("degree", q.degree):
        raise InputError("record degree disagrees with its generators")
    return q
