"""Word algebra tests.

The ball oracle here is deliberately independent of the library: it
generates every raw letter string up to the radius, reduces with its own
two-line stack, and dedups. Counts and contents must then agree with the
library's enumeration and the closed-form growth.
"""

import hashlib
import itertools
import operator
import random
import string

import pytest

import resfin.permrep
import resfin.words
from resfin import (
    Ball,
    FreeWord,
    InputError,
    ResourceError,
    SLBuilder,
    SLWord,
    commutator,
    conjugate,
    enumerate_ball,
    format_word,
    generator,
    identity,
    inverse,
    multiply,
    parse_word,
    power,
    reduce,
    sl_eval,
    sl_flatten,
    sl_length_bound,
    word_growth,
)
from resfin.covers import lift_closed
from resfin.errors import _checked_int
from resfin.permrep import PermQuotient, eval_word
from resfin.words import _LETTER_OF, _free_reduce
from oracles import prefix_sl_eval, sl_build


def oracle_reduce(raw):
    stack = []
    for letter in raw:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def oracle_ball(rank, n):
    alphabet = [i for g in range(1, rank + 1) for i in (g, -g)]
    seen = set()
    for length in range(n + 1):
        for raw in itertools.product(alphabet, repeat=length):
            seen.add(oracle_reduce(raw))
    return seen


def random_word(rng, rank, max_len):
    raw = [rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
           for _ in range(rng.randrange(max_len + 1))]
    return reduce(rank, raw)


def test_reduce_examples():
    w = reduce(2, [1, 2, -2, 1])
    assert w.letters == (1, 1)
    assert reduce(2, []).is_identity
    comm = reduce(2, [1, 2, -1, -2])
    assert comm.letters == (1, 2, -1, -2)


def test_reduce_idempotent_and_matches_oracle():
    rng = random.Random(20260819)
    for _ in range(300):
        rank = rng.choice([1, 2, 3])
        raw = [rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
               for _ in range(rng.randrange(12))]
        w = reduce(rank, raw)
        assert w.letters == oracle_reduce(raw)
        assert reduce(rank, w.letters) == w


def test_constructor_rejects_unreduced():
    with pytest.raises(InputError):
        FreeWord(2, (1, -1))
    with pytest.raises(InputError):
        FreeWord(2, (3,))
    with pytest.raises(InputError):
        reduce(2, [0])


def test_bool_and_float_letters_are_refused():
    # True == 1 and 1.0 == 1, but neither is a letter or a generator index
    for bad in (True, 1.0):
        with pytest.raises(InputError):
            generator(2, bad)
        with pytest.raises(InputError):
            FreeWord(2, (bad, 2))
        with pytest.raises(InputError):
            reduce(2, [bad])
        with pytest.raises(InputError):
            SLBuilder(2).gen(bad)


def test_ranks_and_exponents_are_judged_by_one_rule():
    # a rank is checked before any letter; an exponent is an integer of
    # any sign, and a bool is none, as in a straight-line ("pow", a, e) node
    x = generator(2, 1)
    q = PermQuotient([[2, 3, 1], [1, 2, 3]])
    entries = {
        "rank": [lambda v: reduce(v, [1]), lambda v: FreeWord(v, [1]), lambda v: generator(v, 1)],
        "exponent": [lambda v: power(x, v), lambda v: x**v, lambda v: lift_closed(q, 1, v)],
    }
    for what, calls in entries.items():
        kind = "a positive" if what == "rank" else "an"
        for call in calls:
            for bad in (None, "2", 2.0, True):
                with pytest.raises(InputError) as err:
                    call(bad)
                assert str(err.value) == f"{what} must be {kind} integer, got {bad!r}"
    assert power(x, -2) == x**-2 == reduce(2, [-1, -1])
    assert lift_closed(q, 1, -3) and not lift_closed(q, 1, 2)
    # the letters still name themselves once the rank is good
    with pytest.raises(InputError, match="letter 3 out of range for rank 2"):
        reduce(2, [1, 3])


def test_group_operations():
    x, y = generator(2, 1), generator(2, 2)
    assert len(commutator(x, y)) == 4
    assert commutator(x, x * x).is_identity
    assert len(power(x, 3)) == 3
    assert conjugate(x, y) == y * x * ~y
    assert (x * y) * ~(x * y) == identity(2)
    with pytest.raises(InputError):
        multiply(x, generator(3, 1))
    with pytest.raises(InputError, match="rank mismatch: 3 vs 2"):
        SLBuilder(2).word(generator(3, 1))


def test_operation_properties():
    rng = random.Random(7)
    for _ in range(200):
        rank = rng.choice([2, 3])
        u = random_word(rng, rank, 8)
        v = random_word(rng, rank, 8)
        assert multiply(u, inverse(u)).is_identity
        assert len(multiply(u, v)) <= len(u) + len(v)
        assert inverse(inverse(u)) == u
        assert multiply(conjugate(u, v), conjugate(inverse(u), v)).is_identity
        # [u,v] agrees with its definition by plain multiplication
        assert commutator(u, v) == u * v * ~u * ~v


def test_power_matches_repeated_multiplication():
    rng = random.Random(11)
    for _ in range(100):
        u = random_word(rng, 2, 6)
        k = rng.randrange(-6, 7)
        acc = identity(2)
        step = u if k >= 0 else ~u
        for _ in range(abs(k)):
            acc = acc * step
        assert power(u, k) == acc


def test_power_cap():
    x = generator(2, 1)
    with pytest.raises(ResourceError):
        power(x, 10**7)  # past DEFAULT_FLAT_CAP
    # conjugates of a generator stay short under powering: (yxY)^k via the
    # cyclic core has length 2 + k, not 3k
    w = conjugate(x, generator(2, 2))
    assert len(power(w, 100)) == 102


def test_word_growth_values():
    assert [word_growth(2, n) for n in range(5)] == [1, 5, 17, 53, 161]
    assert word_growth(2, 0) == 1
    assert word_growth(1, 2) == 5


def test_ball_matches_oracle():
    for rank, n in [(1, 4), (2, 3), (3, 2)]:
        got = list(enumerate_ball(rank, n))
        assert len(got) == word_growth(rank, n)
        assert len(set(got)) == len(got)
        assert {w.letters for w in got} == oracle_ball(rank, n)


def test_ball_enumeration_order():
    got = list(enumerate_ball(2, 2))
    assert got[0].is_identity
    assert [format_word(w) for w in got[:5]] == ["", "a", "A", "b", "B"]
    # length first, then letters in the order a < A < b < B < ...
    assert got == sorted(got, key=lambda w: (len(w), [(abs(x), x < 0) for x in w.letters]))
    assert len(got) == 17


def test_enumeration_count_matches_closed_form():
    # ranks 1..3 up to radius 8, counted by streaming the enumerator
    for rank in (1, 2, 3):
        for n in range(9):
            assert sum(1 for _ in enumerate_ball(rank, n)) == word_growth(rank, n)


def test_ball_order_is_frozen():
    # sha256 of every word of the ball, one per line, in enumeration order
    expect = {
        (2, 6): "b0aba21dfb061626a9feddaac1aa858603a158deddf89a46fdc075ff20807527",
        (3, 4): "b4149d5a27c2dd0f67d09bc3b2dfa176e3992d0c092fe9d66ace82af64069012",
    }
    for (rank, n), digest in expect.items():
        text = "".join(format_word(w) + "\n" for w in Ball(rank, n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def reference_ball(rank, n):
    """The ball in (length, lex) order, each length extending the last.

    Words of one length, sorted, are their sorted prefixes each followed
    by the letters that may come next in alphabet order (a, A, b, B, ...).
    """
    alphabet = [i for g in range(1, rank + 1) for i in (g, -g)]
    level = [()]
    out = [()]
    for _ in range(n):
        level = [w + (x,) for w in level for x in alphabet if not (w and w[-1] == -x)]
        out += level
    return out


def test_ball_order_matches_the_reference():
    # rank 1 has its own route; rank 2 runs the odometer, validating the reference
    for n in range(41):
        assert [w.letters for w in enumerate_ball(1, n)] == reference_ball(1, n)
    for n in range(6):
        assert [w.letters for w in enumerate_ball(2, n)] == reference_ball(2, n)
    assert [w.rank for w in enumerate_ball(1, 3)] == [1] * 7


def test_deep_ball_streams_without_recursion():
    # one letter per step of depth must not cost a Python frame
    assert sum(1 for _ in enumerate_ball(1, 2000)) == 4001


def test_ball_object():
    ball = Ball(2, 2)
    assert ball.size == 17
    assert sum(1 for _ in ball) == 17
    assert sum(1 for _ in ball.nontrivial()) == 16
    assert all(not w.is_identity for w in ball.nontrivial())


def test_parse_format_roundtrip():
    assert parse_word("abAB").letters == (1, 2, -1, -2)
    assert parse_word("", rank=2) == identity(2)
    assert format_word(parse_word("xyXY")) == "xyXY"
    with pytest.raises(InputError):
        parse_word("a1b")
    with pytest.raises(InputError):
        parse_word("abc", rank=2)
    rng = random.Random(3)
    for _ in range(100):
        w = random_word(rng, 3, 10)
        assert parse_word(format_word(w), rank=3) == w


def _message(fn, *args):
    with pytest.raises(InputError) as info:
        fn(*args)
    return str(info.value)


def per_character_parse(text, rank=None):
    """parse_word as it read its input one character at a time."""
    stripped = text.strip()
    letters = tuple(map(_LETTER_OF.get, stripped))
    if None in letters:
        ch = stripped[letters.index(None)]
        raise InputError(f"unexpected character {ch!r} in word {text!r}")
    inferred = max(map(abs, letters), default=0)
    if rank is None:
        rank = inferred or 1
    elif isinstance(rank, int) and inferred > rank:
        raise InputError(f"word {text!r} uses generator {inferred} beyond rank {rank}")
    _checked_int(rank, "rank")
    if 0 in map(operator.add, letters, letters[1:]):
        letters = _free_reduce(letters)
    return FreeWord._reduced(rank, letters)


def _parsed(parse, *args):
    try:
        w = parse(*args)
    except InputError as exc:
        return str(exc)
    return w.rank, w.letters


def test_parse_word_matches_the_per_character_route():
    rng = random.Random(25)
    raw = rng.choices([s * g for g in range(1, 27) for s in (1, -1)], k=320_000)
    long_word = FreeWord._reduced(26, reduce(26, raw).letters[:300_000])  # a prefix stays reduced
    text = format_word(long_word)
    assert len(text) == 300_000
    assert parse_word(text) == long_word == per_character_parse(text)
    k = 1000
    cases = [
        text,
        "aAbc", "bcaA", "abBA", "a" * k + "A" * k, "a" * k + "A" * (k - 1) + "b",
        "c" + "a" * k + "A" * k + "C", "zZ", "Zz" + text + "aA",
        "  ", "", "\t\n", " abAB\n",
        "a1b", "3", "ab cd", "a\tb", "aé", "éa", "ß", "abß", "a-b", "a_b",
    ]
    for case in cases:
        for rank in (None, 2, 26):
            assert _parsed(parse_word, case, rank) == _parsed(per_character_parse, case, rank)
    # é and ß are letters to isalpha() but not ASCII; only whitespace is the identity
    assert _message(parse_word, "aß") == "unexpected character 'ß' in word 'aß'"
    assert _message(parse_word, "a b") == "unexpected character ' ' in word 'a b'"
    assert _message(parse_word, "ab7") == "unexpected character '7' in word 'ab7'"
    assert parse_word(" \t\n ", 3) == identity(3)
    assert parse_word("a" * k + "A" * k).letters == ()


def test_parse_word_boundary_messages():
    # the message quotes the text as given, surrounding spaces included
    assert _message(parse_word, " a1b ") == "unexpected character '1' in word ' a1b '"
    assert _message(parse_word, "aé") == "unexpected character 'é' in word 'aé'"
    assert _message(parse_word, "abc", 2) == "word 'abc' uses generator 3 beyond rank 2"
    assert _message(parse_word, "a", 0) == "word 'a' uses generator 1 beyond rank 0"
    assert _message(parse_word, "", 0) == "rank must be a positive integer, got 0"
    assert _message(parse_word, "aa", True) == "rank must be a positive integer, got True"
    assert _message(parse_word, "ab", 2.0) == "rank must be a positive integer, got 2.0"
    assert _message(parse_word, "ab", "2") == "rank must be a positive integer, got '2'"
    assert _message(reduce, 2.0, [1]) == "rank must be a positive integer, got 2.0"
    assert _message(reduce, 0, []) == "rank must be a positive integer, got 0"
    assert _message(reduce, 2, [3]) == "letter 3 out of range for rank 2"


def test_every_letter_round_trips_at_rank_26():
    text = string.ascii_lowercase + string.ascii_uppercase
    w = parse_word(text)
    assert w.rank == 26
    assert w.letters == tuple(range(1, 27)) + tuple(range(-1, -27, -1))
    assert format_word(w) == text
    for ch, letter in zip(text, w.letters):
        assert parse_word(ch, 26).letters == (letter,)
    assert format_word(FreeWord(26, (26, -25))) == "zY"
    assert _message(format_word, generator(27, 1)) == "textual syntax covers ranks up to 26"


def test_parse_and_reduce_skip_the_checking_constructor(monkeypatch):
    # both check their input themselves, so they build with the trusted
    # constructor; FreeWord() keeps its checks for outside callers
    def refuse(self, rank, letters):
        raise AssertionError("FreeWord.__init__ called")

    monkeypatch.setattr(FreeWord, "__init__", refuse)
    assert parse_word(" abBAc ").letters == (3,)
    assert parse_word("aA", 2).rank == 2
    assert reduce(3, [1, 2, -2, -3]).letters == (1, -3)


def test_sl_build_flatten_roundtrip():
    rng = random.Random(5)
    for _ in range(100):
        w = random_word(rng, 2, 12)
        slw = sl_build(w)
        assert sl_flatten(slw, cap=len(w)) == w
        assert sl_length_bound(slw) >= len(w)


def test_sl_flatten_examples():
    b = SLBuilder(2)
    node = b.comm(b.gen(1), b.gen(2))
    assert sl_flatten(b.build(node), cap=10) == parse_word("abAB")

    b = SLBuilder(2)
    node = b.pow(b.gen(1), 10**6)
    assert sl_flatten(b.build(node), cap=10) is None
    # the same power fits when the cap allows it
    assert len(sl_flatten(b.build(node), cap=10**6)) == 10**6


def test_sl_power_stays_symbolic():
    w = power(generator(2, 1), 9)
    slw = sl_build(w)
    assert ("pow", 0, 9) in slw.nodes
    assert sl_flatten(slw, cap=9) == w


def test_sl_identity_word():
    slw = sl_build(identity(2))
    assert sl_flatten(slw, cap=0) == identity(2)


def test_sl_length_bound_rules():
    b = SLBuilder(2)
    x, y = b.gen(1), b.gen(2)
    slw = b.build(b.comm(b.pow(x, 5), b.conj(y, x)))
    # comm(pow, conj): 2*5 + 2*(1 + 2) = 16
    assert sl_length_bound(slw) == 16


def test_sl_eval_integers():
    # abelianized evaluation: each generator a vector over Z
    b = SLBuilder(2)
    node = b.mul(b.pow(b.gen(1), 40), b.inv(b.gen(2)))
    val = sl_eval(
        b.build(node),
        gen=lambda i: (1, 0) if i == 1 else (0, 1),
        mul=lambda u, v: (u[0] + v[0], u[1] + v[1]),
        inv=lambda u: (-u[0], -u[1]),
        ident=(0, 0),
    )
    assert val == (40, -1)


def oracle_expand(nodes, idx):
    """Raw letters of node idx, spelled out letter by letter."""
    node = nodes[idx]
    if node[0] == "gen":
        return [node[1]]
    u = oracle_expand(nodes, node[1])
    u_inv = [-x for x in reversed(u)]
    if node[0] == "inv":
        return u_inv
    if node[0] == "pow":
        return (u if node[2] > 0 else u_inv) * abs(node[2])
    v = oracle_expand(nodes, node[2])
    v_inv = [-x for x in reversed(v)]
    if node[0] == "mul":
        return u + v
    if node[0] == "conj":
        return v + u + v_inv
    return u + v + u_inv + v_inv


def test_sl_eval_agrees_with_letter_expansion():
    rng = random.Random(13)
    for _ in range(60):
        b = SLBuilder(2)
        nodes = [b.gen(1), b.gen(2)]
        for _ in range(rng.randrange(1, 8)):
            op = rng.choice(["inv", "mul", "pow", "conj", "comm"])
            a = rng.choice(nodes)
            c = rng.choice(nodes)
            if op == "inv":
                nodes.append(b.inv(a))
            elif op == "pow":
                nodes.append(b.pow(a, rng.randrange(-4, 5)))
            else:
                nodes.append(getattr(b, op)(a, c))
        slw = b.build(nodes[-1])
        expect = reduce(2, oracle_expand(slw.nodes, slw.root))
        assert sl_flatten(slw, cap=10**5) == expect
        via_eval = sl_eval(
            slw,
            gen=lambda i: generator(2, i),
            mul=multiply,
            inv=inverse,
            ident=identity(2),
        )
        assert via_eval == expect


def test_sl_eval_skips_nodes_the_root_does_not_use():
    slw = SLWord(2, [("gen", 1), ("gen", 2), ("pow", 0, 10**30), ("comm", 0, 1)], 3)
    assert sl_flatten(slw, cap=4) == parse_word("abAB")
    assert sl_length_bound(slw) == 4
    calls = []

    def counting_mul(u, v):
        calls.append((u, v))
        return u + v

    assert sl_eval(slw, gen=lambda i: 1, mul=counting_mul, inv=lambda u: u, ident=0) == 4
    # the commutator takes three products; the power would take about 200
    assert len(calls) == 3


def random_sl_word(rng, rank, size):
    """Instructions with repeated operands, zero, negative and huge
    exponents, and nodes that no later node reads."""
    nodes = [("gen", i) for i in range(1, rank + 1)]
    while len(nodes) < size:
        a = rng.randrange(len(nodes))
        b = a if rng.random() < 0.3 else rng.randrange(len(nodes))
        op = rng.choice(["inv", "mul", "pow", "conj", "comm"])
        if op == "inv":
            nodes.append(("inv", a))
        elif op == "pow":
            nodes.append(("pow", a, rng.choice([0, -1, -3, 2, 5, 10**20 + 1])))
        else:
            nodes.append((op, a, b))
    return SLWord(rank, nodes, rng.randrange(len(nodes)))


def test_sl_eval_matches_the_prefix_interpreter(monkeypatch):
    rng = random.Random(2025)
    quotients = [
        PermQuotient([[2, 3, 1], [2, 1, 3]]),
        PermQuotient([[2, 3, 4, 5, 1], [1, 3, 2, 5, 4]]),
    ]

    def images(slw, interpret):
        log = []

        def mul(u, v):
            log.append((u, v))
            return u + v

        value = interpret(slw, gen=lambda i: i, mul=mul, inv=lambda u: -u, ident=0)
        return (
            sl_flatten(slw, cap=400),
            sl_length_bound(slw),
            (value, log),
            [eval_word(q, slw) for q in quotients],
        )

    words = [random_sl_word(rng, 2, rng.randrange(3, 14)) for _ in range(40)]
    views = [SLWord._rooted(w, node) for w in words for node in range(len(w.nodes))]
    got = [images(v, sl_eval) for v in views]
    # sl_flatten, sl_length_bound and eval_word now run on the reference
    monkeypatch.setattr(resfin.words, "sl_eval", prefix_sl_eval)
    monkeypatch.setattr(resfin.permrep, "sl_eval", prefix_sl_eval)
    expected = [images(v, prefix_sl_eval) for v in views]
    # the same values from the same products, in the same order
    assert got == expected
    assert any(g[0] is None for g in got) and any(g[0] is not None for g in got)


def test_sl_eval_drops_values_after_their_last_read():
    # a chain of squarings: each node is read twice, by the next one only
    class Tracked:
        live = peak = 0

        def __init__(self, n):
            self.n = n
            Tracked.live += 1
            Tracked.peak = max(Tracked.peak, Tracked.live)

        def __del__(self):
            Tracked.live -= 1

    nodes = [("gen", 1)] + [("mul", i, i) for i in range(100)]
    root = sl_eval(
        SLWord(1, nodes, 100),
        gen=lambda i: Tracked(1),
        mul=lambda u, v: Tracked(u.n + v.n),
        inv=lambda u: u,
        ident=Tracked(0),
    )
    assert root.n == 2**100
    # the identity, the last value and the one being made; 101 if none is dropped
    assert Tracked.peak <= 3


def test_sl_eval_lets_a_commutator_drop_its_operands_before_the_last_product():
    class Tracked:
        live = 0

        def __init__(self):
            Tracked.live += 1

        def __del__(self):
            Tracked.live -= 1

    products = []

    def mul(u, v):
        products.append(Tracked.live)
        return Tracked()

    slw = SLWord(2, [("gen", 1), ("gen", 2), ("comm", 0, 1)], 2)
    sl_eval(slw, gen=lambda i: Tracked(), mul=mul, inv=lambda u: Tracked(), ident=None)
    # uv, vu, then uv (vu)^-1 with only uv and (vu)^-1 alive; building
    # (uv)(u^-1 v^-1) with u and v held throughout reads 2, 5, 4
    assert products == [2, 3, 2]
