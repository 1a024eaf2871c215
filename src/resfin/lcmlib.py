"""Constructive common-multiple witnesses in free groups.

Given finitely many nontrivial targets, build one straight-line word lying
in the normal closure of every target, together with a replayable
derivation of each membership.  A quotient that kills any target then
kills the witness, so the witness survives only where every target
survives and its normal divisibility dominates each target's.

Rank one is degenerate (commutators collapse), so there the witness is the
literal power x^lcm of the target exponents.  In higher rank targets are
padded to a power of two and combined pairwise by commutators, conjugating
the right entry just enough to keep the pair from commuting.
"""

import json
import math
from typing import NamedTuple

from .errors import InputError, InternalError, ResourceError, _checked_int
from .words import (
    DEFAULT_FLAT_CAP,
    Ball,
    FreeWord,
    SLBuilder,
    SLWord,
    conjugate,
    format_word,
    generator,
    inverse,
    multiply,
    parse_word,
    power,
    sl_flatten,
    sl_length_bound,
)


class WitnessCertificate(NamedTuple):
    """A straight-line witness plus one membership derivation per target.

    `derivations[i]` replays to a proof that `word` lies in the normal
    closure of `targets[i]`.  `flat` is the reduced form when it fit the
    construction budget, `nontrivial_verified` says the witness is known
    to differ from the identity.
    """

    rank: int
    targets: tuple[FreeWord, ...]
    word: SLWord
    declared_bound: int
    derivations: tuple[tuple[dict, ...], ...]
    flat: FreeWord | None
    nontrivial_verified: bool


class VerifyResult(NamedTuple):
    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _check_targets(targets) -> tuple[FreeWord, ...]:
    targets = tuple(targets)
    if not targets:
        raise InputError("need at least one target")
    for t in targets:
        if not isinstance(t, FreeWord):
            raise InputError(f"targets must be FreeWord, got {type(t).__name__}")
        if t.is_identity:
            raise InputError("targets must be nontrivial")
    rank = targets[0].rank
    if any(t.rank != rank for t in targets):
        raise InputError("targets must share one rank")
    return targets


def _ground(node: int) -> dict:
    return {"rule": "ground", "node": node, "premises": []}


def _witness_rank_one(targets: tuple[FreeWord, ...]) -> WitnessCertificate:
    exponents = [len(t) if t.letters[0] > 0 else -len(t) for t in targets]
    m = math.lcm(*(abs(e) for e in exponents))
    builder = SLBuilder(1)
    base = builder.gen(1)
    target_nodes = [builder.word(t) for t in targets]
    root = builder.pow(base, m)
    derivations = []
    for node, e in zip(target_nodes, exponents):
        steps = [_ground(node)]
        if node != root:
            steps.append(
                {"rule": "power", "node": root, "premises": [node], "exponent": m // e}
            )
        derivations.append(tuple(steps))
    flat = power(generator(1, 1), m) if m <= DEFAULT_FLAT_CAP else None
    return WitnessCertificate(
        rank=1,
        targets=targets,
        word=builder.build(root),
        declared_bound=m,
        derivations=tuple(derivations),
        flat=flat,
        nontrivial_verified=True,
    )


def _pair(u: FreeWord, v: FreeWord) -> tuple[int | None, FreeWord | None]:
    """The first g of none, 1, ..., rank with u and z = g v g^-1 not
    commuting, and [u, z] = (uz)(zu)^-1 when 2(|u| + |z|) fits
    DEFAULT_FLAT_CAP, else None in its place."""
    for g in [None, *range(1, u.rank + 1)]:
        z = v if g is None else conjugate(v, generator(u.rank, g))
        uz, zu = multiply(u, z), multiply(z, u)
        if uz != zu:
            if 2 * (len(u) + len(z)) > DEFAULT_FLAT_CAP:
                return g, None
            zu = inverse(zu)  # rebound so that zu is not kept alongside its inverse
            return g, multiply(uz, zu)
    raise InternalError(
        "no conjugator among the generators separates "
        f"{format_word(u)} from {format_word(v)}"
    )


def lcm_witness(targets) -> WitnessCertificate:
    """Build a witness in the normal closure of every target.

    The reduced form is tracked while it fits DEFAULT_FLAT_CAP; once it does,
    nontriviality is guaranteed because every pairing commutes its two
    entries only after checking they do not commute.
    """
    targets = _check_targets(targets)
    rank = targets[0].rank
    if rank == 1:
        return _witness_rank_one(targets)

    builder = SLBuilder(rank)
    elements = []
    for i, t in enumerate(targets):
        node = builder.word(t)
        elements.append((node, t, {i: (_ground(node),)}))
    while len(elements) & (len(elements) - 1):
        elements.append(elements[0])

    while len(elements) > 1:
        paired = []
        for (u_node, u_flat, u_derivs), (v_node, v_flat, v_derivs) in zip(
            elements[::2], elements[1::2]
        ):
            if u_flat is None or v_flat is None:
                g, flat = 2, None
            else:
                g, flat = _pair(u_flat, v_flat)
            z_node, tail = v_node, ()
            if g is not None:
                z_node = builder.conj(v_node, builder.gen(g))
                tail = ({"rule": "conjugate", "node": z_node, "premises": [v_node]},)
            node = builder.comm(u_node, z_node)

            derivs = {
                t: steps
                + ({"rule": "commutator_left", "node": node, "premises": [u_node]},)
                for t, steps in u_derivs.items()
            }
            for t, steps in v_derivs.items():
                if t not in derivs:
                    right = {"rule": "commutator_right", "node": node, "premises": [z_node]}
                    derivs[t] = steps + tail + (right,)
            paired.append((node, flat, derivs))
        elements = paired

    [(root, flat, derivs)] = elements
    if set(derivs) != set(range(len(targets))):
        raise InternalError("a target lost its derivation during pairing")
    word = builder.build(root)
    return WitnessCertificate(
        rank=rank,
        targets=targets,
        word=word,
        declared_bound=sl_length_bound(word),
        derivations=tuple(derivs[i] for i in range(len(targets))),
        flat=flat,
        nontrivial_verified=flat is not None,
    )


def lcm_ball_witness(rank: int, n: int) -> WitnessCertificate:
    """Witness for every nontrivial word of length at most n at once."""
    _checked_int(n, "radius")
    return lcm_witness(Ball(rank, n).nontrivial())


def _replay(cert: WitnessCertificate, index: int) -> list[str]:
    w = cert.word
    nodes = w.nodes
    target = cert.targets[index]
    failures = []
    derived: set[int] = set()

    def fail(text: str) -> None:
        # the step's label is built only for a failure
        failures.append(f"derivation {index} step {pos}: {text}")

    for pos, step in enumerate(cert.derivations[index]):
        rule = step.get("rule")
        node = step.get("node")
        premises = step.get("premises", [])
        # bool is an int subclass and is refused wherever an int is read
        if not (type(node) is int and 0 <= node < len(nodes)):
            fail(f"node {node!r} out of range")
            break
        if not isinstance(premises, list):
            fail(f"premises {premises!r} are not a list")
            break
        shape = nodes[node]
        if any(not (type(p) is int and p in derived) for p in premises):
            fail("uses an underived premise")
            break
        if rule == "ground":
            flat = sl_flatten(SLWord._rooted(w, node), max(len(target), 1))
            if flat != target:
                fail("ground node is not the target")
        elif rule == "power":
            e = step.get("exponent")
            ok = (
                shape[0] == "pow"
                and len(premises) == 1
                and type(e) is int
                and _power_step_ok(nodes, shape, premises[0], e)
            )
            if not ok:
                fail("node is not the premise to the exponent")
        elif rule == "conjugate":
            if shape[0] != "conj" or premises != [shape[1]]:
                fail("node is not a conjugate of the premise")
        elif rule == "commutator_left":
            if shape[0] != "comm" or premises != [shape[1]]:
                fail("node is not a commutator with left premise")
        elif rule == "commutator_right":
            if shape[0] != "comm" or premises != [shape[2]]:
                fail("node is not a commutator with right premise")
        else:
            fail(f"unknown rule {rule!r}")
            break
        derived.add(node)
    if not failures and w.root not in derived:
        failures.append(f"derivation {index}: never reaches the witness itself")
    return failures


def _power_step_ok(nodes, shape, premise: int, e: int) -> bool:
    """The pow node `shape` is the premise to the power e: its base is the premise
    itself, or the base of the premise when that is a power too."""
    base, total = shape[1], shape[2]
    if premise == base:
        return e == total
    p = nodes[premise]
    return p[0] == "pow" and p[1] == base and p[2] * e == total


def verify_certificate(cert: WitnessCertificate) -> VerifyResult:
    """Replay every derivation and recheck the declared facts."""
    failures: list[str] = []
    if sl_length_bound(cert.word) != cert.declared_bound:
        failures.append("declared length bound does not match the straight-line word")
    if len(cert.derivations) != len(cert.targets):
        failures.append("one derivation per target is required")
    else:
        for i in range(len(cert.targets)):
            failures.extend(_replay(cert, i))
    if cert.flat is not None:
        recomputed = sl_flatten(cert.word, max(len(cert.flat), 1))
        if recomputed != cert.flat:
            failures.append("stored reduced form does not match the word")
        elif cert.flat.is_identity:
            failures.append("witness reduces to the identity")
    if cert.nontrivial_verified and cert.flat is None:
        root = cert.word.nodes[cert.word.root]
        structural = (
            root[0] == "pow"
            and root[2] != 0
            and cert.word.nodes[root[1]][0] == "gen"
        )
        if not structural:
            failures.append("nontriviality is claimed without evidence")
    return VerifyResult(ok=not failures, failures=tuple(failures))


def cert_to_json(cert: WitnessCertificate) -> dict:
    return {
        "rank": cert.rank,
        "targets": [format_word(t) for t in cert.targets],
        "nodes": [list(node) for node in cert.word.nodes],
        "root": cert.word.root,
        "declared_bound": cert.declared_bound,
        "derivations": [
            [dict(step) for step in steps] for steps in cert.derivations
        ],
        "flat": None if cert.flat is None else format_word(cert.flat),
        "nontrivial_verified": cert.nontrivial_verified,
    }


def _word_field(text, rank: int) -> FreeWord:
    if not isinstance(text, str):
        raise InputError(f"word {text!r} is not a string")
    return parse_word(text, rank)


def _json_field(value, kind: type, what: str):
    """`value` if it is a JSON list (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        raise InputError(f"{what} is not a JSON {'list' if kind is list else 'object'}")
    return value


def cert_from_json(data) -> WitnessCertificate:
    try:
        if isinstance(data, str):
            data = json.loads(data)
        rank = data["rank"]
        nodes = _json_field(data["nodes"], list, "nodes")
        word = SLWord(rank, [tuple(n) for n in nodes], data["root"])
        targets = tuple(
            _word_field(t, rank) for t in _json_field(data["targets"], list, "targets")
        )
        derivations = tuple(
            tuple(
                dict(_json_field(step, dict, "derivation step"))
                for step in _json_field(steps, list, "derivation")
            )
            for steps in _json_field(data["derivations"], list, "derivations")
        )
        flat = None if data["flat"] is None else _word_field(data["flat"], rank)
        bound = data["declared_bound"]
        if type(bound) is not int:  # bool is an int subclass and is refused too
            raise InputError(f"declared_bound {bound!r} is not an integer")
        claimed = data["nontrivial_verified"]
        if type(claimed) is not bool:
            raise InputError(f"nontrivial_verified {claimed!r} is not a boolean")
        return WitnessCertificate(
            rank=rank,
            targets=targets,
            word=word,
            declared_bound=bound,
            derivations=derivations,
            flat=flat,
            nontrivial_verified=claimed,
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # the last: JSON nested too deep
        # InputError is a ValueError, so the checks above get their prefix here
        raise InputError(f"malformed certificate: {exc}") from exc


def _decimal(k: int) -> str:
    """Positive k in decimal, or as its digit count past the interpreter's
    limit on converting an int to a string."""
    try:
        return str(k)
    except ValueError:
        digits = math.floor(math.log10(k)) + 1
        digits += (10**digits <= k) - (10 ** (digits - 1) > k)  # float rounding
        return f"<{digits} digits>"


def _check_flat_targets(top: int) -> None:
    """Refuse targets x, ..., x^top totalling more than DEFAULT_FLAT_CAP letters."""
    total = top * (top + 1) // 2
    if total > DEFAULT_FLAT_CAP:
        raise ResourceError(
            f"the targets x..x^{_decimal(top)} total {_decimal(total)} letters,"
            f" past the flat cap {DEFAULT_FLAT_CAP}"
        )


def _power_set_scan(
    rank: int, ns: list[int], cap: int
) -> list[tuple[WitnessCertificate, int | None]]:
    """The witness for each {x, ..., x^n} and its normal divisibility up to
    cap.  Each distinct n is built and scanned once, on its own, and its
    pair serves every row that asks for it.

    A group of order at most n kills one of the targets, and the witness
    with it, so a survivor of order at most n is an InternalError.  Every
    order up to n is searched and evaluated for that check (its `recheck`).
    Past it, an order is skipped by derived length: the witness for n
    nests ceil(log2 n) commutators, so it lies that deep in the derived
    series and dies in every group of derived length at most that, which
    is every group of an order where all are abelian (Pakianathan and
    Shankar, "Nilpotent numbers", 2000) and every group of order below 24,
    48 or 60 at depth 2, 3 or 4 (Robinson, *A Course in the Theory of
    Groups*, ch. 5); see `_first_survivals`.
    Targets totalling more than DEFAULT_FLAT_CAP letters raise
    ResourceError before any is built.
    """
    from .lowindex import _first_survivals

    _check_flat_targets(max(ns))
    x = generator(rank, 1)
    scanned = {}
    for n in dict.fromkeys(ns):
        cert = lcm_witness([power(x, i) for i in range(1, n + 1)])
        hit = _first_survivals(rank, cert.word, cap, n)
        value = None if hit is None else hit[0]
        if value is not None and value <= n:
            raise InternalError(f"a quotient of order {value} kept the witness for x..x^{n} alive")
        scanned[n] = (cert, value)
    return [scanned[n] for n in ns]


POWER_SCAN_CAP = 8


def power_set_witness(rank: int, n: int) -> dict:
    """Witness for the target set {x, x^2, ..., x^n} and what it implies.

    In any group of order at most n the image of x has order at most n,
    so one of the targets dies and the witness dies with it: its normal
    divisibility is at least n + 1.  The scan re-checks a prefix of that
    claim, orders up to POWER_SCAN_CAP, against the actual quotient lists:
    every one of those orders is searched and the witness evaluated in
    each of its quotients, abelian-only orders included.
    """
    _checked_int(rank, "rank")
    _checked_int(n, "n")
    cap = min(n, POWER_SCAN_CAP)
    [(cert, _)] = _power_set_scan(rank, [n], cap)
    return {
        "rank": rank,
        "n": n,
        "targets": n,
        "witness_nodes": len(cert.word.nodes),
        "declared_bound": cert.declared_bound,
        "normal_divisibility_lower": n + 1,
        "nontrivial_verified": cert.nontrivial_verified,
        "scanned_orders": list(range(2, cap + 1)),
        "scan_all_killed": True,
        "certificate": cert,
    }


def _power_target(t: FreeWord) -> tuple[int, int] | None:
    """(generator index, positive exponent) when t is g^e, else None."""
    if t.is_identity or len(set(t.letters)) != 1:
        return None
    return abs(t.letters[0]), len(t)


def _in_power_closure(w: FreeWord, gen: int, modulus: int) -> bool:
    """Exact membership in the normal closure of gen^modulus.

    Declaring gen^modulus trivial leaves the free product of Z/modulus
    with the remaining free generators.  One pass builds w's normal form
    there on a stack of syllables, each a free letter or [gen, exponent
    mod modulus]; w is a member exactly when the stack ends empty.
    """
    stack: list = []
    for letter in w.letters:
        top = stack[-1] if stack else None
        if abs(letter) != gen:
            if top == -letter:
                stack.pop()
            else:
                stack.append(letter)
        elif isinstance(top, list):
            top[1] = (top[1] + letter // gen) % modulus
            if not top[1]:
                stack.pop()
        elif modulus > 1:
            stack.append([gen, letter // gen % modulus])
    return not stack


def closure_membership(w: FreeWord, target: FreeWord) -> bool | None:
    """Is w in the normal closure of the target?

    Exact when the target is a power of one generator.  Otherwise scan
    the quotients of order at most 6 for one killing the target but not
    w, which refutes membership; absent a refutation the answer is None.
    """
    # imported here so that building and verifying witnesses loads neither
    from .lowindex import enumerate_normal
    from .permrep import basepoint_image

    if w.rank != target.rank:
        raise InputError(f"rank mismatch: {w.rank} vs {target.rank}")
    if target.is_identity:
        raise InputError("the normal closure of the identity is trivial")
    if w.is_identity:
        return True
    pt = _power_target(target)
    if pt is not None:
        return _in_power_closure(w, pt[0], pt[1])
    for q in range(2, 7):
        for quot in enumerate_normal(w.rank, q):
            # a regular action kills a word exactly when it fixes point 0
            if not basepoint_image(quot, target) and basepoint_image(quot, w):
                return False
    return None


def exact_lcm_small(targets) -> FreeWord | None:
    """First word in word order inside every target's normal closure.

    Every target must be a power of a single generator so membership is
    exact; returns None when nothing within radius 6 qualifies.
    """
    targets = _check_targets(targets)
    pts = []
    for t in targets:
        pt = _power_target(t)
        if pt is None:
            raise InputError(
                f"exact search needs single-generator powers, got {format_word(t)}"
            )
        pts.append(pt)
    rank = targets[0].rank
    for w in Ball(rank, 6).nontrivial():
        if all(_in_power_closure(w, g, m) for g, m in pts):
            return w
    return None
