"""Permutation images of free groups.

A PermQuotient is a homomorphism F_m -> Sym(d) given by one permutation per
generator. Points are 1..d in the public interface and the basepoint is
point 1; table rows, and the helpers reading them (`inverse_row`,
`row_cycles`, `basepoint_image`), are 0-based. Permutations act on the
right: evaluating a word walks its letters left to right, so eval(uv)
applies u first, then v.

A pointed transitive quotient of degree d encodes an index-d subgroup (the
basepoint stabilizer); a regular one (image order equal to the degree)
encodes a normal subgroup, its kernel.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, _checked_int
from .words import FreeWord, SLWord, sl_eval

DEFAULT_ORDER_CAP = 10_000


class Permutation:
    __slots__ = ("_map",)

    def __init__(self, images: Sequence[int]):
        """images lists the image of each point 1..d, 1-based."""
        d = len(images)
        if d < 1:
            raise InputError("a permutation needs at least one point")
        zero = tuple(p - 1 for p in images)
        if sorted(zero) != list(range(d)):
            raise InputError(f"images {tuple(images)} are not a bijection of 1..{d}")
        object.__setattr__(self, "_map", zero)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _from_zero(cls, zero: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)
        object.__setattr__(p, "_map", zero)
        return p

    @property
    def degree(self) -> int:
        return len(self._map)

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(p + 1 for p in self._map)

    def apply(self, point: int) -> int:
        if not 1 <= point <= len(self._map):
            raise InputError(f"point {point} out of range 1..{len(self._map)}")
        return self._map[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other, matching the left-to-right path convention."""
        if len(self._map) != len(other._map):
            raise InputError("degree mismatch")
        o = other._map
        return Permutation._from_zero(tuple(o[p] for p in self._map))

    def inverse(self) -> "Permutation":
        return Permutation._from_zero(inverse_row(self._map))

    @property
    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self._map))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles covering every point, fixed points included.

        Each cycle starts at its minimal point; cycles ordered by that point.
        """
        return [tuple(p + 1 for p in c) for c in row_cycles(self._map)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(self._map)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def inverse_row(row: Sequence[int]) -> tuple[int, ...]:
    """The 0-based row of the inverse permutation."""
    out = [0] * len(row)
    for i, p in enumerate(row):
        out[p] = i
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


def identity_perm(degree: int) -> Permutation:
    return Permutation._from_zero(tuple(range(degree)))


def _point(tok: str, text: str) -> int:
    # ASCII digits only: int() would also read "1_0", "+2" and "２"
    if not (tok.isascii() and tok.isdigit()):
        raise InputError(f"bad point {tok!r} in permutation {text!r}")
    return int(tok)


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Accepts an image list "2 3 1 5 4" or cycle notation "(1 2 3)(4 5)"."""
    text = text.strip()
    if not text:
        raise InputError("empty permutation text")
    if "(" in text:
        body = text.replace(",", " ")
        cycles = []
        while body:
            body = body.strip()
            if not body.startswith("("):
                raise InputError(f"bad cycle notation {text!r}")
            close = body.find(")")
            if close < 0:
                raise InputError(f"missing ')' in cycle notation {text!r}")
            cycles.append([_point(tok, text) for tok in body[1:close].split()])
            body = body[close + 1 :]
        points = [p for c in cycles for p in c]
        maxpoint = max(points, default=1)
        d = degree if degree is not None else maxpoint
        if maxpoint > d:
            raise InputError(f"cycle point {maxpoint} beyond degree {d}")
        if min(points, default=1) < 1:
            raise InputError(f"cycle point {min(points)} out of range 1..{d}")
        images = list(range(1, d + 1))
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise InputError(f"repeated point in cycle {cycle}")
            for i, p in enumerate(cycle):
                images[p - 1] = cycle[(i + 1) % len(cycle)]
        return Permutation(images)
    images = [_point(tok, text) for tok in text.split()]
    if degree is not None and len(images) != degree:
        raise InputError(f"expected degree {degree}, got {len(images)} images")
    return Permutation(images)


def format_permutation(p: Permutation) -> str:
    return " ".join(str(q) for q in p.images)


class PermQuotient:
    """m permutations of common degree; the image of each generator.

    Stored as table rows: `fwd[g]` lists the 0-based image of each point
    under generator g + 1, and `bwd[g]` under its inverse.
    """

    __slots__ = ("rank", "degree", "fwd", "bwd")

    def __init__(self, gens: Sequence[Permutation]):
        gens = tuple(gens)
        if not gens:
            raise InputError("need at least one generator image")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise InputError("generator images must share a degree")
        object.__setattr__(self, "rank", len(gens))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "fwd", tuple(g._map for g in gens))
        object.__setattr__(self, "bwd", tuple(inverse_row(g._map) for g in gens))

    @classmethod
    def _trusted(
        cls, fwd: tuple[tuple[int, ...], ...], bwd: tuple[tuple[int, ...], ...]
    ) -> "PermQuotient":
        """Trusted constructor for forward rows and their inverse rows, one
        shared degree, that the caller has checked."""
        q = object.__new__(cls)
        object.__setattr__(q, "rank", len(fwd))
        object.__setattr__(q, "degree", len(fwd[0]))
        object.__setattr__(q, "fwd", fwd)
        object.__setattr__(q, "bwd", bwd)
        return q

    def __setattr__(self, name, value):
        raise AttributeError("PermQuotient is immutable")

    @property
    def gens(self) -> tuple[Permutation, ...]:
        return tuple(Permutation._from_zero(row) for row in self.fwd)

    @property
    def basepoint(self) -> int:
        return 1

    def __eq__(self, other) -> bool:
        return isinstance(other, PermQuotient) and self.fwd == other.fwd

    def __hash__(self) -> int:
        return hash(self.fwd)

    def __repr__(self) -> str:
        shown = ", ".join(format_permutation(g) for g in self.gens)
        return f"PermQuotient(degree={self.degree}, gens=[{shown}])"


def eval_word(q: PermQuotient, w: FreeWord | SLWord) -> Permutation:
    """Image of a word, flat or straight-line, under the quotient.

    Both kinds are evaluated on 0-based rows, a straight-line word by
    composing one row per node, and wrapped in a Permutation once.
    """
    if w.rank > q.rank:
        raise InputError(f"word rank {w.rank} exceeds quotient rank {q.rank}")
    if isinstance(w, SLWord):
        return Permutation._from_zero(_sl_row(q, w))
    fwd, bwd = q.fwd, q.bwd
    state = tuple(range(q.degree))
    for letter in w.letters:
        table = fwd[letter - 1] if letter > 0 else bwd[-letter - 1]
        state = tuple(table[p] for p in state)
    return Permutation._from_zero(state)


def _sl_row(q: PermQuotient, w: SLWord) -> tuple[int, ...]:
    fwd = q.fwd
    return sl_eval(
        w,
        gen=lambda i: fwd[i - 1],
        mul=lambda a, b: tuple([b[p] for p in a]),
        inv=inverse_row,
        ident=tuple(range(q.degree)),
    )


def basepoint_image(q: PermQuotient, w: FreeWord | SLWord) -> int:
    """0-based image of the basepoint (point 0) under a word.

    In a regular action g -> 0.g is a bijection from the image group onto
    the points, so w dies exactly when this is 0, and words have equal
    images exactly when their basepoint images agree.  A flat word walks
    one lookup per letter; a straight-line word is composed on rows and
    never flattened.
    """
    if w.rank > q.rank:
        raise InputError(f"word rank {w.rank} exceeds quotient rank {q.rank}")
    if isinstance(w, SLWord):
        return _sl_row(q, w)[0]
    fwd, bwd = q.fwd, q.bwd
    p = 0
    for letter in w.letters:
        p = fwd[letter - 1][p] if letter > 0 else bwd[-letter - 1][p]
    return p


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
            nxt = tuple(table[p] for p in state)
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
        gens = [Permutation(images) for images in record["gens"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed quotient record: {exc}") from exc
    q = PermQuotient(gens)
    if q.degree != record.get("degree", q.degree):
        raise InputError("record degree disagrees with its generators")
    return q
