"""Free-group word algebra.

Words in the free group F_m are stored freely reduced, as tuples of signed
generator indices: +i is the i-th generator, -i its inverse. The textual
syntax used by the CLI and the tests writes generators as lowercase letters
and inverses as uppercase, so "abAB" is x y x^-1 y^-1 and "" is the
identity; the table _LETTER_OF ('a'..'z' -> 1..26, 'A'..'Z' -> -1..-26) is
that alphabet. parse_word translates whole texts through _LETTER_BYTES, the
same alphabet as a byte table (each letter a signed byte). Input is
checked once, where it enters (parse_word, reduce, FreeWord(), generator);
words made from checked ones use the trusted FreeWord._reduced. reduce and
FreeWord() share one letter check, generator and SLBuilder.gen one index
check, and both check the rank first. power judges its exponent with
errors._checked_int and no lower bound, so a bool or a float is refused,
as in a straight-line ("pow", a, e) node.

Alongside flat words this module provides straight-line words (SLWord): a
DAG of build instructions that can describe words whose flat length is
astronomically large while staying cheap to evaluate in any target group.
One interpreter, sl_eval, reads them: flattening under an explicit length
cap (sl_flatten), length bounds (sl_length_bound) and images in a quotient
(permrep.eval_word) each only supply the group it evaluates in.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError, ResourceError, _checked_int

DEFAULT_FLAT_CAP = 1_000_000

Letters = tuple[int, ...]

_LETTER_OF = {chr(ord("a") - 1 + i): i for i in range(1, 27)}
_LETTER_OF |= {ch.upper(): -i for ch, i in _LETTER_OF.items()}
_CHAR_OF = {letter: ch for ch, letter in _LETTER_OF.items()}
# the same alphabet as a byte table: ASCII code -> letter as a signed byte
_LETTER_BYTES = bytes(_LETTER_OF.get(chr(b), 0) % 256 for b in range(256))


def _free_reduce(raw: Iterable[int]) -> Letters:
    """Cancel adjacent inverse pairs; the letters themselves are not checked."""
    stack: list[int] = []
    for letter in raw:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _checked_letters(rank: int, letters: Iterable[int]) -> Letters:
    """The letters as a tuple, each a nonzero int of size at most rank, the
    rank checked first; whether they are reduced is not checked."""
    _checked_int(rank, "rank")
    letters = tuple(letters)
    for letter in letters:
        if type(letter) is not int or letter == 0 or abs(letter) > rank:
            raise InputError(f"letter {letter!r} out of range for rank {rank}")
    return letters


class FreeWord:
    """A freely reduced word in F_rank. Immutable and hashable.

    Operators: u * v multiplies, ~u inverts, u ** k is the k-th power.
    """

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: Sequence[int]):
        letters = _checked_letters(rank, letters)
        if any(x == -y for x, y in zip(letters, letters[1:])):
            raise InputError("letters are not freely reduced; build words via reduce()")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _reduced(cls, rank: int, letters: Letters) -> "FreeWord":
        """Trusted constructor for a tuple already reduced and in range."""
        u = object.__new__(cls)
        object.__setattr__(u, "rank", rank)
        object.__setattr__(u, "letters", letters)
        return u

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeWord)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.letters))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return multiply(self, other)

    def __invert__(self) -> "FreeWord":
        return inverse(self)

    def __pow__(self, k: int) -> "FreeWord":
        return power(self, k)

    def __repr__(self) -> str:
        if self.rank <= 26:
            return f"FreeWord({self.rank}, {format_word(self)!r})"
        return f"FreeWord({self.rank}, {self.letters})"

    @property
    def is_identity(self) -> bool:
        return not self.letters


def identity(rank: int) -> FreeWord:
    return FreeWord(rank, ())


def _checked_generator(rank: int, i: int) -> None:
    """Refuse all but a generator index 1..rank, the rank checked first."""
    _checked_int(rank, "rank")
    if type(i) is not int or not 1 <= i <= rank:
        raise InputError(f"generator index {i!r} out of range for rank {rank}")


def generator(rank: int, i: int) -> FreeWord:
    """The i-th generator (1-based) as a word."""
    _checked_generator(rank, i)
    return FreeWord._reduced(rank, (i,))


def reduce(rank: int, raw: Iterable[int]) -> FreeWord:
    """Freely reduce a raw letter sequence. Idempotent."""
    return FreeWord._reduced(rank, _free_reduce(_checked_letters(rank, raw)))


def multiply(u: FreeWord, v: FreeWord) -> FreeWord:
    if u.rank != v.rank:
        raise InputError(f"rank mismatch: {u.rank} vs {v.rank}")
    a, b = u.letters, v.letters
    # slicing copies nothing when nothing cancels (a full slice is the tuple)
    i, n = 0, min(len(a), len(b))
    while i < n and a[-1 - i] == -b[i]:
        i += 1
    return FreeWord._reduced(u.rank, a[: len(a) - i] + b[i:])


def inverse(u: FreeWord) -> FreeWord:
    return FreeWord._reduced(u.rank, tuple(map(operator.neg, reversed(u.letters))))


def conjugate(u: FreeWord, v: FreeWord) -> FreeWord:
    """v u v^-1."""
    return multiply(multiply(v, u), inverse(v))


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    """[u, v] = u v u^-1 v^-1."""
    return multiply(multiply(u, v), multiply(inverse(u), inverse(v)))


def _cyclic_split(letters: Letters) -> tuple[Letters, Letters]:
    """Split a reduced word p c p^-1 with c cyclically reduced; returns (p, c)."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i += 1
        j -= 1
    return letters[:i], letters[i:j]


def power(u: FreeWord, k: int) -> FreeWord:
    """u^k, its length checked against DEFAULT_FLAT_CAP before it is built.

    A longer power raises ResourceError; keep it straight-line instead.
    """
    _checked_int(k, "exponent", None)
    if k == 0 or u.is_identity:
        return identity(u.rank)
    base = u if k > 0 else inverse(u)
    prefix, core = _cyclic_split(base.letters)
    # p c p^-1 to the |k| is p c^|k| p^-1 and c^|k| is already reduced.
    projected = 2 * len(prefix) + abs(k) * len(core)
    if projected > DEFAULT_FLAT_CAP:
        raise ResourceError(
            f"power of length {projected} exceeds cap {DEFAULT_FLAT_CAP}; keep it straight-line"
        )
    body = core * abs(k)
    return FreeWord._reduced(u.rank, prefix + body + tuple(-x for x in reversed(prefix)))


def _ball_sizes(rank: int, n: int) -> Iterator[int]:
    """Number of reduced words of length <= r for r = 0..n, in one running
    pass of 1 + sum 2m(2m-1)^(k-1)."""
    _checked_int(rank, "rank")
    _checked_int(n, "radius", 0)
    total, term = 1, 2 * rank
    yield total
    for _ in range(n):
        total += term
        term *= 2 * rank - 1
        yield total


def word_growth(rank: int, n: int) -> int:
    """Number of reduced words of length <= n: the last of _ball_sizes."""
    for total in _ball_sizes(rank, n):
        pass
    return total


def _ordered_letters(rank: int) -> list[int]:
    return [x for i in range(1, rank + 1) for x in (i, -i)]


def enumerate_ball(rank: int, n: int) -> Iterator[FreeWord]:
    """Yield every reduced word of length <= n once, in (length, lex) order."""
    _checked_int(rank, "rank")
    _checked_int(n, "radius", 0)
    if rank == 1:
        # x^k before X^k at each length, the odometer's order without its
        # n^2 steps
        yield FreeWord._reduced(1, ())
        for k in range(1, n + 1):
            yield FreeWord._reduced(1, (1,) * k)
            yield FreeWord._reduced(1, (-1,) * k)
        return
    alphabet = _ordered_letters(rank)
    # follow[p]: the letters that may come after p, in order (p = 0 before
    # the first letter); after[p][x]: the one that comes next after x
    follow = {p: [x for x in alphabet if x != -p] for p in (0, *alphabet)}
    after = {p: dict(zip(xs, xs[1:])) for p, xs in follow.items()}

    def exact(length: int) -> Iterator[Letters]:
        if not length:
            yield ()
            return
        # an odometer over every position but the last letter: bump the
        # rightmost one that has a later letter and refill the rest with
        # the least ones, so no Python frame is held per letter
        word = [0] * (length - 1)
        j = -1
        while True:
            for i in range(j + 1, length - 1):
                word[i] = follow[word[i - 1] if i else 0][0]
            head = tuple(word)
            for x in follow[word[-1] if word else 0]:
                yield head + (x,)
            j = length - 2
            while j >= 0:
                nxt = after[word[j - 1] if j else 0].get(word[j])
                if nxt is not None:
                    break
                j -= 1
            else:
                return
            word[j] = nxt

    for length in range(n + 1):
        for letters in exact(length):
            yield FreeWord._reduced(rank, letters)


class Ball:
    """The radius-n ball in F_rank, enumerable in a fixed order.

    size may be huge; iteration is streaming. nontrivial() is the
    identity-free view of the same ball.
    """

    __slots__ = ("rank", "radius")

    def __init__(self, rank: int, radius: int):
        _checked_int(rank, "rank")
        _checked_int(radius, "radius", 0)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "radius", radius)

    def __setattr__(self, name, value):
        raise AttributeError("Ball is immutable")

    @property
    def size(self) -> int:
        return word_growth(self.rank, self.radius)

    def __iter__(self) -> Iterator[FreeWord]:
        return enumerate_ball(self.rank, self.radius)

    def nontrivial(self) -> Iterator[FreeWord]:
        return itertools.islice(self, 1, None)  # the identity comes first

    def __repr__(self) -> str:
        return f"Ball(rank={self.rank}, radius={self.radius})"


def parse_word(text: str, rank: int | None = None) -> FreeWord:
    """Parse "abAB"-style syntax. Lowercase generator, uppercase inverse."""
    stripped = text.strip()
    if not (stripped.isascii() and stripped.isalpha()):
        # only ASCII letters pass; the first other character is named
        # (the empty text fails isalpha too and finds none)
        for ch in stripped:
            if ch not in _LETTER_OF:
                raise InputError(f"unexpected character {ch!r} in word {text!r}")
    # one substring search per letter is faster than set() on long text
    chars = [ch for ch in _LETTER_OF if ch in stripped]
    inferred = max((abs(_LETTER_OF[ch]) for ch in chars), default=0)
    if rank is None:
        rank = inferred or 1
    elif isinstance(rank, int) and inferred > rank:  # a non-integer rank is refused below
        raise InputError(f"word {text!r} uses generator {inferred} beyond rank {rank}")
    _checked_int(rank, "rank")
    letters = tuple(memoryview(stripped.encode("ascii").translate(_LETTER_BYTES)).cast("b"))
    # only text with a letter beside its inverse needs reducing
    if any(ch + ch.swapcase() in stripped for ch in chars):
        letters = _free_reduce(letters)
    return FreeWord._reduced(rank, letters)


def format_word(u: FreeWord) -> str:
    if u.rank > 26:
        raise InputError("textual syntax covers ranks up to 26")
    return "".join(map(_CHAR_OF.__getitem__, u.letters))


# ---------------------------------------------------------------------------
# Straight-line words


_SL_OPS = {"gen": 1, "inv": 1, "mul": 2, "pow": 2, "conj": 2, "comm": 2}


class SLWord:
    """A word given as a DAG of build instructions.

    Instructions, each referring only to strictly earlier nodes:
      ("gen", i)      the i-th generator
      ("inv", a)      inverse of node a
      ("mul", a, b)   node a times node b
      ("pow", a, e)   node a to the integer e (e may be huge or negative)
      ("conj", a, b)  b-conjugate of a, evaluating to v u v^-1
      ("comm", a, b)  [u, v] = u v u^-1 v^-1
    """

    __slots__ = ("rank", "nodes", "root")

    def __init__(self, rank: int, nodes: Sequence[tuple], root: int):
        _checked_int(rank, "rank")
        nodes = tuple(tuple(node) for node in nodes)
        # type(x) is int refuses bool, an int subclass, in every int field
        for idx, node in enumerate(nodes):
            if not node or node[0] not in _SL_OPS or len(node) != _SL_OPS[node[0]] + 1:
                raise InputError(f"malformed instruction {node!r} at node {idx}")
            if node[0] == "gen" and not (type(node[1]) is int and 1 <= node[1] <= rank):
                raise InputError(f"generator {node[1]!r} out of range at node {idx}")
            for ref in _refs(node):
                if not (type(ref) is int and 0 <= ref < idx):
                    raise InputError(f"bad reference in {node!r} at node {idx}")
            if node[0] == "pow" and type(node[2]) is not int:
                raise InputError(f"exponent must be an integer at node {idx}")
        if not (nodes and type(root) is int and 0 <= root < len(nodes)):
            raise InputError(f"root {root!r} out of range")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "root", root)

    @classmethod
    def _rooted(cls, w: "SLWord", root: int) -> "SLWord":
        """Trusted constructor: w's checked nodes, read from another in-range root."""
        u = object.__new__(cls)
        object.__setattr__(u, "rank", w.rank)
        object.__setattr__(u, "nodes", w.nodes)
        object.__setattr__(u, "root", root)
        return u

    def __setattr__(self, name, value):
        raise AttributeError("SLWord is immutable")

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"SLWord(rank={self.rank}, nodes={len(self.nodes)}, root={self.root})"


class SLBuilder:
    """Incremental SLWord constructor with structural sharing."""

    def __init__(self, rank: int):
        _checked_int(rank, "rank")
        self.rank = rank
        self._nodes: list[tuple] = []
        self._memo: dict[tuple, int] = {}

    def _emit(self, node: tuple) -> int:
        got = self._memo.get(node)
        if got is not None:
            return got
        self._nodes.append(node)
        idx = len(self._nodes) - 1
        self._memo[node] = idx
        return idx

    def gen(self, i: int) -> int:
        _checked_generator(self.rank, i)
        return self._emit(("gen", i))

    def inv(self, a: int) -> int:
        return self._emit(("inv", a))

    def mul(self, a: int, b: int) -> int:
        return self._emit(("mul", a, b))

    def pow(self, a: int, e: int) -> int:
        return self._emit(("pow", a, e))

    def conj(self, a: int, b: int) -> int:
        return self._emit(("conj", a, b))

    def comm(self, a: int, b: int) -> int:
        return self._emit(("comm", a, b))

    def word(self, u: FreeWord) -> int:
        """Embed a flat word; single-generator powers stay symbolic."""
        if u.rank != self.rank:
            raise InputError(f"rank mismatch: {u.rank} vs {self.rank}")
        if u.is_identity:
            return self.pow(self.gen(1), 0)
        letters = u.letters
        if len(set(letters)) == 1:
            letter = letters[0]
            node = self.gen(abs(letter))
            e = len(letters) if letter > 0 else -len(letters)
            return node if e == 1 else self.pow(node, e)

        def tree(lo: int, hi: int) -> int:
            if hi - lo == 1:
                letter = letters[lo]
                node = self.gen(abs(letter))
                return node if letter > 0 else self.inv(node)
            mid = (lo + hi) // 2
            return self.mul(tree(lo, mid), tree(mid, hi))

        return tree(0, len(letters))

    def build(self, root: int) -> SLWord:
        return SLWord(self.rank, self._nodes, root)


def _refs(node: tuple) -> tuple:
    """The nodes an instruction reads (a gen's index and a pow's exponent are not nodes)."""
    op = node[0]
    return () if op == "gen" else node[1:2] if op == "pow" else node[1:]


def sl_eval(w: SLWord, *, gen: Callable, mul: Callable, inv: Callable, ident: object):
    """Evaluate an SLWord in any group given by gen/mul/inv/identity.

    This is the one interpreter of the instruction set: flattening
    (sl_flatten), length bounds (sl_length_bound) and images in a quotient
    (permrep.eval_word) are all instances of it.  A walk from the root
    visits only the nodes the root reads, directly or through others, so
    nodes it does not reach and nodes past the root are never touched and
    the cost follows the root's subtree, not its index.  They are evaluated
    in ascending order, and each value is dropped at its last read, before
    the node reading it is computed.  Powers run in O(log e)
    multiplications with no squaring past the top bit of e, so exponents
    like lcm(1..n) stay cheap and no operand grows beyond the power itself.
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

    # a walk from the root visits each node it depends on once and counts
    # its reads; nodes it never reaches, past the root or not, are never read
    nodes, root = w.nodes, w.root
    readers = [0] * root + [1]  # the caller reads the root
    order = [root]
    for idx in order:  # order grows while it is walked
        for ref in _refs(nodes[idx]):
            if not readers[ref]:
                order.append(ref)
            readers[ref] += 1
    order.sort()  # every reference points to a smaller index
    vals: list = [None] * (root + 1)
    for idx in order:
        node = nodes[idx]
        refs = _refs(node)
        args = [vals[ref] for ref in refs]
        for ref in refs:
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


def sl_length_bound(w: SLWord) -> int:
    """Upper bound on the flat reduced length: w evaluated over the
    integers, a generator counting 1 and a product the sum of its parts."""
    return sl_eval(w, gen=lambda i: 1, mul=operator.add, inv=lambda b: b, ident=0)


def sl_flatten(w: SLWord, cap: int) -> FreeWord | None:
    """Reduced flat form if its length fits cap, else None (overflow).

    w is evaluated over FreeWord with a working budget of
    max(cap, DEFAULT_FLAT_CAP): any product longer than the budget reports
    overflow, even if the root would have been short, which no witness
    built here comes close to.
    """
    _checked_int(cap, "cap", 0)
    budget = max(cap, DEFAULT_FLAT_CAP)

    def bounded(u: FreeWord, v: FreeWord) -> FreeWord:
        uv = multiply(u, v)
        if len(uv) > budget:
            raise ResourceError(f"product of length {len(uv)} exceeds {budget}")
        return uv

    try:
        flat = sl_eval(
            w,
            gen=lambda i: generator(w.rank, i),
            mul=bounded,
            inv=inverse,
            ident=identity(w.rank),
        )
    except ResourceError:
        return None
    return flat if len(flat) <= cap else None
