"""Divisibility and residual girth searches over finite quotients.

Divisibility of a word is the least index of a subgroup missing it, found
by searching pointed transitive actions where the word moves the
basepoint.  The normal flavor searches regular actions instead.  The
maximum of either over a ball enumerates the actions of each degree once
and walks the ball's prefix tree through all of them together, one table
lookup per word and action.  Both divisibilities are unchanged by the
signed letter permutations, so the walk keeps only the least word of
each orbit (generators first appearing as a, b, c, ..., each positive
there), counts an unresolved one as its whole orbit, and still reports
the first maximum in ball order, which is always such a word.  A plain
degree with more subgroups than words left unresolved leaves those words
to the per-word search.  The word reported is searched again on its own,
and the two routes must agree.  Residual girth is the least order of a
quotient injective on a ball; injectivity is computed two independent
ways (pairwise images, kernel-free doubled ball) which must agree.  The
inequality checkers wire these searches to the common-multiple
witnesses, one link at a time, and report `unknown` rather than
extrapolate past a cap.
"""

import math
import sys
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceError, _checked_int
from .lowindex import (
    _WALK_BATCH, _exponent_sums, _first_survivals, enumerate_normal, enumerate_subgroups,
    hall_counts, normal_subgroup_growth,
)
from .permrep import PermQuotient, _glued, basepoint_image, is_transitive, to_record
from .words import (
    Ball,
    FreeWord,
    SLBuilder,
    SLWord,
    _ordered_letters,
    format_word,
    generator,
    sl_flatten,
    word_growth,
)

DEFAULT_SEARCH_CAP = 12
# the most words the ball walk indexes, one byte each: rank 2 fits to
# radius 18 (9.7e7 words), not radius 20 (8.7e8)
_INDEX_LIMIT = 1 << 27


class SepResult(NamedTuple):
    """Outcome of a minimal-index or minimal-order search.

    `value` None means unknown within `cap`; a present value is minimal
    over the whole search space up to the cap and `witness` attains it.
    """

    query: str
    value: int | None
    witness: PermQuotient | None
    cap: int

    @property
    def unknown(self) -> bool:
        return self.value is None

    def to_json(self) -> dict:
        return {
            "query": self.query,
            "value": "unknown" if self.value is None else self.value,
            "witness": None if self.witness is None else to_record(self.witness),
            "cap": self.cap,
        }


def smallest_nondivisor(k: int) -> int:
    _checked_int(k, "k")
    m = 2
    while k % m == 0:
        m += 1
    return m


def _escape_tables(w: FreeWord, degree: int):
    """Partial injective letter actions walking w from 0 to a nonzero point.

    Fresh points are introduced as the smallest unused index, which loses
    no generality; existing points are tried in ascending order, making
    the search deterministic.  Returns the filled tables or None.
    """
    letters = w.letters
    fwd = [dict() for _ in range(w.rank)]
    bwd = [dict() for _ in range(w.rank)]

    def walk(i: int, p: int, used: int) -> bool:
        # follow the letters whose entry is already defined; recurse only
        # where an entry is chosen, so the depth is at most the entries
        while True:
            if i == len(letters):
                return p != 0
            letter = letters[i]
            g = abs(letter) - 1
            src, dst = (fwd[g], bwd[g]) if letter > 0 else (bwd[g], fwd[g])
            if p not in src:
                break
            i, p = i + 1, src[p]
        candidates = [t for t in range(used) if t not in dst]
        if used < degree:
            candidates.append(used)
        for t in candidates:
            src[p] = t
            dst[t] = p
            if walk(i + 1, t, max(used, t + 1)):
                return True
            del src[p]
            del dst[t]
        return False

    return (fwd, bwd) if walk(0, 0, 1) else None


def _least_escape(w: FreeWord, lo: int, cap: int):
    """The least degree in lo..cap where w escapes and its tables, or (None, None)."""
    for degree in range(lo, cap + 1):
        found = _escape_tables(w, degree)
        if found is not None:
            return degree, found
    return None, None


def _complete_action(rank: int, degree: int, fwd, bwd) -> PermQuotient:
    # unmatched points pair up in ascending order, one generator at a time
    gens = []
    for g in range(rank):
        table = dict(fwd[g])
        free_src = [p for p in range(degree) if p not in table]
        free_dst = [t for t in range(degree) if t not in bwd[g]]
        table.update(zip(free_src, free_dst))
        gens.append([table[p] + 1 for p in range(degree)])
    return PermQuotient(gens)


def divisibility(w: FreeWord, cap: int = DEFAULT_SEARCH_CAP) -> SepResult:
    """Least index of a subgroup avoiding w, as a pointed transitive action.

    Degrees are tried in ascending order and each is searched exhaustively,
    so a returned value is the true minimum and the completion at the
    first success is automatically transitive.
    """
    if not isinstance(w, FreeWord):
        raise InputError(f"need a FreeWord, got {type(w).__name__}")
    if w.is_identity:
        raise InputError("divisibility is defined for nontrivial words only")
    _checked_int(cap, "cap")
    query = f"divisibility({format_word(w) if w.rank <= 26 else w.letters})"
    degree, found = _least_escape(w, 2, cap)
    if degree is None:
        return SepResult(query, None, None, cap)
    q = _complete_action(w.rank, degree, *found)
    if not is_transitive(q):
        raise InternalError("completion of a minimal escape lost transitivity")
    if not basepoint_image(q, w):
        raise InternalError("escape action does not move the basepoint")
    return SepResult(query, degree, q, cap)


def normal_divisibility(w: FreeWord | SLWord, cap: int = DEFAULT_SEARCH_CAP) -> SepResult:
    """Least order of a quotient group where w survives, via regular actions."""
    if isinstance(w, FreeWord):
        if w.is_identity:
            raise InputError("divisibility is defined for nontrivial words only")
        query = f"normal_divisibility({format_word(w) if w.rank <= 26 else w.letters})"
    elif isinstance(w, SLWord):
        # a nonzero exponent sum proves w nontrivial with no flattening
        flat = None if any(_exponent_sums(w)) else sl_flatten(w, 0)
        if flat is not None and flat.is_identity:
            raise InputError("divisibility is defined for nontrivial words only")
        query = f"normal_divisibility(straight-line word, {len(w.nodes)} nodes)"
    else:
        raise InputError(f"need a FreeWord or SLWord, got {type(w).__name__}")
    _checked_int(cap, "cap")
    value, witness = _first_survivals(w.rank, w, cap) or (None, None)
    return SepResult(query, value, witness, cap)


def _ball_maximum(rank: int, n: int, cap: int, normal: bool) -> tuple[int | None, FreeWord | None, int]:
    """Max divisibility over the nontrivial radius-n ball.

    Returns the max over the words resolved within the cap (None if none
    is), the first word in ball order attaining it, and how many words
    stay unresolved.  Each degree's actions come from `enumerate_normal`
    (regular ones) for the normal flavor and from `enumerate_subgroups`
    (pointed transitive ones) for plain divisibility.  Either way w
    escapes an action exactly when it moves the basepoint, so a word's
    state in a batch of actions is the tuple of its basepoint images over
    the disjoint union of their points, and a child's state is one lookup
    per action in its letter's glued table.

    Both divisibilities are constant on the orbits of the signed letter
    permutations, so only the least word of each orbit is walked: the one
    whose generators first appear as a, b, c, ... in that order, each
    positive there.  A word whose largest generator is g has, in ball
    order, the children ending in a letter of the first g generators
    (less the inverse of its last letter) and then the one ending in
    generator g + 1.  The first maximum in ball order is such a word,
    since the least word of its orbit has the same value and length and
    comes no later.  An unresolved word using g generators stands for its
    whole orbit, 2^g rank! / (rank - g)! ball words, in the unresolved
    count.

    The tree is walked in preorder with an explicit stack, a byte at each
    word's preorder position marks it resolved, and a subtree whose words
    are all resolved is skipped.  A plain degree with more actions than words
    left unresolved (Hall's count, known before any is built) ends the
    walk: those words are searched one at a time with `_least_escape`
    instead, from that degree up.  A tree of more than `_INDEX_LIMIT`
    words raises ResourceError before anything is allocated.
    """
    letters = _ordered_letters(rank)
    actions = enumerate_normal if normal else enumerate_subgroups
    most = min(rank, n)  # the most generators a word of the ball uses
    # sizes[k][g]: the nodes in the subtree of a length-k word whose
    # largest generator is g
    sizes = [[0] * (most + 1) for _ in range(n + 2)]
    for k in range(n, -1, -1):
        for g in range(k > 0, min(k, most) + 1):
            sizes[k][g] = 1 + (2 * g - (k > 0)) * sizes[k + 1][g]
            if g < most:
                sizes[k][g] += sizes[k + 1][g + 1]
    if sizes[0][0] > _INDEX_LIMIT:
        raise ResourceError(
            f"the radius-{n} ball has {word_growth(rank, n)} words and"
            f" {sizes[0][0]} orbits, too many to index"
        )
    # weight[g]: the orbit size of a word using g generators
    weight = [2**g * math.perm(rank, g) for g in range(most + 1)]

    # the children of a word by its last letter and largest generator (0
    # and 0 at the root), in ball order
    after = {(0, 0): [1]}
    for g in range(1, most + 1):
        for last in letters[: 2 * g]:
            after[last, g] = [x for x in letters[: 2 * g] if x != -last]
            if g < most:
                after[last, g].append(g + 1)

    def word_at(target: int) -> tuple[int, ...]:
        # decode a preorder position back into its word
        word = []
        pos = depth = last = g = 0
        while pos != target:
            pos += 1
            for x in after[last, g]:
                h = max(g, abs(x))
                size = sizes[depth + 1][h]
                if target < pos + size:
                    break
                pos += size
            word.append(x)
            last, g, depth = x, h, depth + 1
        return tuple(word)

    # 1 once a word is resolved, 0 while not (the identity stays 0)
    values = bytearray(sizes[0][0])
    unresolved = word_growth(rank, n) - 1
    lower = best = None
    # Hall's counts from index 2 on
    counts = islice(hall_counts(rank), 1, None)
    for degree, count in zip(range(2, cap + 1), counts):
        if not unresolved:
            break
        if not normal and count > unresolved:
            # every lower degree was walked in full, so each search starts
            # here; the first maximum in ball order: shorter words, then
            # preorder
            top = (0,)
            pos = values.find(0, 1)
            while pos >= 0:
                word = word_at(pos)
                value = _least_escape(FreeWord._reduced(rank, word), degree, cap)[0]
                if value is not None:
                    unresolved -= weight[max(map(abs, word))]
                    top = max(top, (value, -len(word), -pos))
                pos = values.find(0, pos + 1)
            # every value found here exceeds those of the walk
            if top[0]:
                lower, best = top[0], -top[2]
            break
        stream = actions(rank, degree)
        first = (n + 1, 0)  # least (depth, position) resolved at this degree
        while batch := list(islice(stream, _WALK_BATCH)):
            # the union's fixed last point keeps every state a tuple of at
            # least two entries, which itemgetter needs to return a tuple
            glued, offsets = _glued(batch)
            root = (*offsets, glued.degree - 1)
            tables = {x: (glued.fwd if x > 0 else glued.bwd)[abs(x) - 1] for x in letters[: 2 * most]}
            # each child as its letter's table, its largest generator and
            # its own children, reversed so that the stack pops them in
            # ball order
            children = {key: [] for key in after}
            for (last, g), xs in after.items():
                for x in reversed(xs):
                    h = max(g, abs(x))
                    children[last, g].append((tables[x], h, children[x, h]))
            stack = [(0, 0, root, 0, children[0, 0])]
            while stack:
                pos, depth, state, g, kids = stack.pop()
                if not values[pos] and state != root:
                    values[pos] = 1
                    unresolved -= weight[g]
                    # positions order the words of one length lexicographically
                    if (depth, pos) < first:
                        first = (depth, pos)
                if depth == n:
                    continue
                step = itemgetter(*state)
                below = sizes[depth + 1]
                end = pos + sizes[depth][g]
                for table, h, grand in kids:
                    size = below[h]
                    end -= size
                    if values.find(0, end, end + size) >= 0:
                        stack.append((end, depth + 1, step(table), h, grand))
        if first[0] <= n:
            lower, best = degree, first[1]
    if best is None:
        return lower, None, unresolved
    return lower, FreeWord._reduced(rank, word_at(best)), unresolved


def max_divisibility(
    rank: int,
    n: int,
    cap: int = DEFAULT_SEARCH_CAP,
    *,
    normal: bool = False,
) -> dict:
    """Divisibility maximum over the nontrivial ball of radius n.

    The row reports the max and its first witness word in word order; if
    any element stays unknown at the cap the max itself is unknown and
    only a lower bound survives, with `unresolved` counting ball words.
    Both flavors walk the ball's prefix tree through the actions of each
    degree (`enumerate_subgroups` for plain, `enumerate_normal` for
    normal) until every word is resolved; the plain flavor stops walking
    at the first degree with more subgroups than unresolved words and
    searches those words one at a time.  The walk and the per-word stage
    visit only orbit representatives under the signed letter
    permutations, which leave both divisibilities unchanged: a word whose
    generators first appear as a, b, c, ..., each positive there, stands
    for 2^g rank! / (rank - g)! ball words when it uses g generators.
    The first maximum in ball order is a representative, since the least
    word of its orbit has the same value and length and comes no later.
    The word reported is searched again on its own (`divisibility`,
    `normal_divisibility`), and InternalError is raised unless that gives
    the same value.  A ball with more representatives than the walk's
    fixed index limit (`_INDEX_LIMIT`) raises ResourceError.
    """
    _checked_int(n, "radius")
    _checked_int(rank, "rank")
    format_word(generator(rank, 1))  # rejects a rank past 26, whose words cannot be printed
    _checked_int(cap, "cap")
    search = normal_divisibility if normal else divisibility
    lower, first_max, unresolved = _ball_maximum(rank, n, cap, normal)
    if first_max is not None and search(first_max, cap).value != lower:
        raise InternalError("tree walk and per-word search disagree on the maximum")
    return {
        "rank": rank,
        "n": n,
        "normal": normal,
        "cap": cap,
        "resolved": unresolved == 0,
        "unresolved": unresolved,
        "lower_bound": lower,
        "value": lower if unresolved == 0 else None,
        "argmax": format_word(first_max) if unresolved == 0 else None,
    }


def residual_girth(rank: int, n: int, cap: int = DEFAULT_SEARCH_CAP) -> SepResult:
    """Least quotient order injective on the radius-n ball.

    Injectivity is decided twice per candidate: images of the ball must be
    pairwise distinct, and no nontrivial word of twice the radius may die
    (u and v collide exactly when u^-1 v dies, and that product lies in
    the doubled ball).  The two routes must agree.  The search may skip
    kernels that hold a nontrivial word of the doubled ball; those
    quotients fail both tests anyway.
    """
    _checked_int(n, "radius", 0)
    _checked_int(cap, "cap")
    _checked_int(rank, "rank")
    query = f"residual_girth(rank={rank}, n={n})"
    if n == 0:
        return SepResult(query, 1, PermQuotient([[1]] * rank), cap)
    size = word_growth(rank, n)
    if size > cap:
        # no quotient smaller than the ball is injective on it
        return SepResult(query, None, None, cap)
    # B(n) is the first `size` words of B(2n), and the identity its first
    doubled = list(Ball(rank, 2 * n))
    for order in range(size, cap + 1):
        for q in enumerate_normal(rank, order, kernel_radius=2 * n):
            # a regular action: images and deaths are read at the basepoint
            injective = len({basepoint_image(q, w) for w in islice(doubled, size)}) == size
            kernel_free = all(basepoint_image(q, w) for w in islice(doubled, 1, None))
            if injective != kernel_free:
                raise InternalError(
                    "pairwise-image and doubled-ball injectivity tests disagree"
                )
            if injective:
                return SepResult(query, order, q, cap)
    return SepResult(query, None, None, cap)


def _link(lhs: float, rhs: float) -> dict:
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs}


def check_basic_inequality(rank: int, n: int, cap: int = DEFAULT_SEARCH_CAP) -> dict:
    """Ball size and girth against the count-weighted divisibility bound.

    Separating every pair in the radius-n ball needs quotients of order up
    to the doubled ball's max normal divisibility m; their intersection
    has order at most m^s(m), which bounds both the ball size and the
    girth.  Each link reports its own status; the whole check passes when
    the growth link holds and no evaluated link fails.  A link whose left
    side is unreachable within caps stays inconclusive rather than pass.
    """
    _checked_int(n, "radius")
    row = max_divisibility(rank, 2 * n, cap, normal=True)
    ball_size = word_growth(rank, n)
    report = {
        "rank": rank,
        "n": n,
        "ball_size": ball_size,
        "max_normal_divisibility": row,
        "growth_count": None,
        "growth_link": None,
        "girth_link": {"status": "inconclusive", "value": None, "link": None},
        "status": "inconclusive",
        "pass": False,
    }
    if not row["resolved"]:
        return report
    m = row["value"]
    s = normal_subgroup_growth(rank, m)
    rhs = s * math.log(m)
    report["growth_count"] = s
    report["growth_link"] = _link(math.log(ball_size), rhs)

    girth = residual_girth(rank, n, cap)
    if girth.value is not None:
        link = _link(math.log(girth.value), rhs)
        report["girth_link"] = {
            "status": "holds" if link["holds"] else "fails",
            "value": girth.value,
            "link": link,
        }

    # an inconclusive girth link leaves the verdict to the growth link
    report["pass"] = report["growth_link"]["holds"] and report["girth_link"]["status"] != "fails"
    report["status"] = "pass" if report["pass"] else "fail"
    return report


def check_girth_inequality(
    rank: int,
    n: int,
    *,
    order_cap: int = 8,
    girth_cap: int = DEFAULT_SEARCH_CAP,
) -> dict:
    """Girth at half the radius against the ball witness's divisibility.

    The witness for the whole nontrivial ball survives in a quotient only
    when every ball element does, which makes the quotient injective on
    the half ball; so the girth at n/2 is at most the witness's normal
    divisibility.  The length side reports the bound the construction
    proves (6 d 4^k) next to the quadratic form (6 n ball^2) and flags
    when the latter fails to cover the former.  At rank 1 the witness for
    the 2n ball targets is x^lcm(1..n), built as that one power with no
    target built; an lcm too long to print raises ResourceError first.
    """
    from .lcmlib import _decimal, lcm_ball_witness  # only this checker builds witnesses

    _checked_int(n, "n")
    if n < 2 or n % 2:
        raise InputError(f"n must be even and at least 2, got {n}")
    # each cap under its own name: the searches below call either one `cap`
    _checked_int(order_cap, "order cap")
    _checked_int(girth_cap, "girth cap")
    if rank == 1:
        limit = sys.get_int_max_str_digits()
        top, lcm = 10**limit if limit else math.inf, 1
        for m in range(2, n + 1):
            lcm = math.lcm(lcm, m)
            if lcm >= top:
                raise ResourceError(
                    f"at rank 1 the witness has length lcm(1..{n}), and"
                    f" lcm(1..{m}) alone has {_decimal(lcm)}, past the interpreter's"
                    f" limit of {limit} digits for printing one"
                )
        builder = SLBuilder(1)
        word = builder.build(builder.pow(builder.gen(1), lcm))
        size, bound, nontrivial = 2 * n, lcm, True
        # the witness's length is the lcm itself (exponential in n, and
        # minimal), so the pairing bounds below do not apply
        proof_bound = None
        statement_bound = None
        covers = None
    else:
        cert = lcm_ball_witness(rank, n)
        word, size = cert.word, len(cert.targets)
        bound, nontrivial = cert.declared_bound, cert.nontrivial_verified
        k = (size - 1).bit_length()
        proof_bound = 6 * n * 4**k
        statement_bound = 6 * n * word_growth(rank, n) ** 2
        covers = proof_bound <= statement_bound
        if bound > proof_bound:
            raise InternalError("witness exceeds the bound its construction proves")

    girth = residual_girth(rank, n // 2, girth_cap)
    dnormal = normal_divisibility(word, order_cap)
    lower = dnormal.value
    if lower is None and nontrivial:
        lower = order_cap + 1
    if rank == 1:
        exact = smallest_nondivisor(bound)
        if dnormal.value is not None and dnormal.value != exact:
            raise InternalError(
                "regular-action search and nondivisor arithmetic disagree"
            )
        lower = exact

    chain_holds = None
    if girth.value is not None and lower is not None:
        if rank == 1 or dnormal.value is not None:
            chain_holds = girth.value <= lower
        elif girth.value <= lower:
            chain_holds = True

    return {
        "rank": rank,
        "n": n,
        "half": n // 2,
        "girth": girth.to_json(),
        "dnormal": {
            "value": dnormal.value,
            "lower_bound": lower,
            "cap": order_cap,
        },
        "chain_holds": chain_holds,
        "status": "resolved" if chain_holds is not None else "inconclusive",
        "witness": {
            "targets": size,
            "declared_bound": bound,
            "proof_bound": proof_bound,
            "statement_bound": statement_bound,
            "statement_covers_proof": covers,
            "nontrivial_verified": nontrivial,
        },
    }
