"""Answer checks for the benchmark, written apart from resfin.

Each check takes the JSON one `resfin` query wrote and raises CheckError
with a reason when the answer is wrong.  Nothing here imports resfin:
words, permutations, straight-line words and the Heisenberg walk are
recomputed with the few lines each check needs, so a fault in the
program's search code cannot hide behind the same fault in its check.

Values that no short independent computation reaches are frozen; each
sits in a named constant and bench/README.md gives the command that
regenerates it.
"""

import itertools
import math

# residual girth of F_2 at radius 2; `resfin girth --rank 2 --radius 2 --cap 24`
GIRTH_RANK2_RADIUS2 = 24
# max normal divisibility over the rank-2 balls of radius 8 and 10, and its
# first witness; `resfin dmax --rank 2 --radius 8 --cap 16 --normal`
DMAX_NORMAL_RANK2 = (12, "aabbAABB")
# `resfin ineq --which 1 --rank 2 --n 2 --cap 24`: max normal divisibility
# over the radius-4 ball and the count of normal subgroups of index <= 6
INEQ1_RANK2_N2 = {"m": 6, "argmax": "abAB", "growth_count": 36}


class CheckError(Exception):
    """An answer failed its check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- words -----------------------------------------------------------------


def parse(text: str) -> tuple[int, ...]:
    """'abAB' -> (1, 2, -1, -2); lowercase is a generator, uppercase its inverse."""
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            out.append(-(ord(ch) - ord("A") + 1))
        else:
            raise CheckError(f"unexpected character {ch!r} in word {text!r}")
    return tuple(out)


def is_reduced(letters) -> bool:
    return all(letters[i] != -letters[i + 1] for i in range(len(letters) - 1))


def ball(rank: int, n: int):
    """Every reduced word of length <= n, as letter tuples."""
    alphabet = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    layer = [()]
    yield ()
    for _ in range(n):
        layer = [w + (x,) for w in layer for x in alphabet if not (w and w[-1] == -x)]
        yield from layer


def ball_size(rank: int, n: int) -> int:
    """1 + sum_{k=1..n} 2r(2r-1)^(k-1), in closed form."""
    if rank == 1:
        return 2 * n + 1
    return 1 + rank * ((2 * rank - 1) ** n - 1) // (rank - 1)


def smallest_nondivisor(k: int) -> int:
    m = 2
    while k % m == 0:
        m += 1
    return m


# --- permutations, zero-based tuples; p then q is (q[p[0]], q[p[1]], ...) ----


def perm(images, degree: int) -> tuple[int, ...]:
    """A permutation from 1-based images, checked to be a bijection."""
    require(len(images) == degree, f"permutation of length {len(images)}, not {degree}")
    zero = tuple(int(p) - 1 for p in images)
    require(sorted(zero) == list(range(degree)), f"images {images} are not a bijection")
    return zero


def compose(p, q):
    return tuple(q[i] for i in p)


def invert(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def evaluate(gens, letters):
    inverses = [invert(g) for g in gens]
    state = tuple(range(len(gens[0])))
    for x in letters:
        state = compose(state, gens[x - 1] if x > 0 else inverses[-x - 1])
    return state


def group_order(gens, cap: int) -> int:
    """Order of the generated group, or cap + 1 once it exceeds cap."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = compose(g, s)
            if h not in seen:
                if len(seen) > cap:
                    return cap + 1
                seen.add(h)
                frontier.append(h)
    return len(seen)


def is_transitive(gens) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        p = frontier.pop()
        for g in gens:
            for q in (g[p], g.index(p)):
                if q not in seen:
                    seen.add(q)
                    frontier.append(q)
    return len(seen) == len(gens[0])


# --- straight-line words in S3 ----------------------------------------------

_S3 = list(itertools.permutations(range(3)))
_S3_INDEX = {p: i for i, p in enumerate(_S3)}
_S3_MUL = [[_S3_INDEX[compose(p, q)] for q in _S3] for p in _S3]
_S3_INV = [_S3_INDEX[invert(p)] for p in _S3]
_S3_ID = _S3_INDEX[(0, 1, 2)]


def _s3_word(letters, images) -> int:
    acc = _S3_ID
    for x in letters:
        acc = _S3_MUL[acc][images[x - 1] if x > 0 else _S3_INV[images[-x - 1]]]
    return acc


def _s3_program(nodes, root: int, images) -> int:
    """Value of a straight-line word when generator i goes to images[i-1]."""
    mul, inv = _S3_MUL, _S3_INV
    vals = []
    for node in nodes:
        op = node[0]
        if op == "gen":
            v = images[node[1] - 1]
        elif op == "inv":
            v = inv[vals[node[1]]]
        elif op == "mul":
            v = mul[vals[node[1]]][vals[node[2]]]
        elif op == "pow":
            # every element of S3 has order dividing 6
            v = _S3_ID
            for _ in range(node[2] % 6):
                v = mul[v][vals[node[1]]]
        elif op == "conj":
            u, w = vals[node[1]], vals[node[2]]
            v = mul[mul[w][u]][inv[w]]
        elif op == "comm":
            u, w = vals[node[1]], vals[node[2]]
            v = mul[mul[u][w]][mul[inv[u]][inv[w]]]
        else:
            raise CheckError(f"unknown instruction {node!r}")
        vals.append(v)
    return vals[root]


def _length_bound(nodes, root: int) -> int:
    bound = []
    for node in nodes:
        op = node[0]
        if op == "gen":
            b = 1
        elif op == "inv":
            b = bound[node[1]]
        elif op == "mul":
            b = bound[node[1]] + bound[node[2]]
        elif op == "pow":
            b = abs(node[2]) * bound[node[1]]
        elif op == "conj":
            b = bound[node[1]] + 2 * bound[node[2]]
        elif op == "comm":
            b = 2 * bound[node[1]] + 2 * bound[node[2]]
        else:
            raise CheckError(f"unknown instruction {node!r}")
        bound.append(b)
    return bound[root]


# --- checks, one per kind of answer -----------------------------------------


def _row(payload: dict) -> dict:
    rows = payload.get("rows")
    require(isinstance(rows, list) and len(rows) == 1, "expected exactly one row")
    return rows[0]


def check_growth_probe(payload: dict) -> None:
    require(payload == {"rows": [{"n": 0, "ball_size": 1}]}, f"growth probe gave {payload}")


def check_girth(payload: dict, rank: int, n: int, expected: int) -> None:
    """The witness must be regular, injective on the ball, and of the stated order.

    A quotient injective on the ball has at least ball_size elements, so a
    witness of exactly that order is minimal; `expected` is that size
    wherever the bound is attained, and a frozen value elsewhere.
    """
    row = _row(payload)
    require((row["rank"], row["n"]) == (rank, n), f"row is for {row['rank']}, {row['n']}")
    value = row["value"]
    require(isinstance(value, int), f"girth is {value!r}")
    result = payload["result"]
    require(result["value"] == value, "result and row disagree")
    witness = result["witness"]
    require(witness["degree"] == value, "witness degree differs from the girth")
    gens = [perm(g, value) for g in witness["gens"]]
    require(len(gens) == rank, f"witness has {len(gens)} generators, not {rank}")
    require(is_transitive(gens), "witness is not transitive")
    require(group_order(gens, value) == value, "witness is not regular")
    size = ball_size(rank, n)
    require(value >= size, f"girth {value} below the ball size {size}")
    images = {evaluate(gens, w) for w in ball(rank, n)}
    require(len(images) == size, "witness is not injective on the ball")
    if rank == 1:
        require(value == 2 * n + 1, f"rank-1 girth {value} is not 2n+1")
    require(value == expected, f"girth {value}, expected {expected}")


def check_dmax(payload: dict, rank: int, n: int, cap: int, normal: bool,
               argmax: str | None = None, frozen: tuple | None = None) -> None:
    row = _row(payload)
    require(
        (row["rank"], row["n"], row["cap"], row["normal"]) == (rank, n, cap, normal),
        "row does not echo the query",
    )
    require(row["resolved"] is True and row["unresolved"] == 0, "max left unresolved")
    value = row["value"]
    require(row["lower_bound"] == value, "lower bound differs from the value")
    word = parse(row["argmax"])
    require(0 < len(word) <= n and is_reduced(word), f"argmax {row['argmax']!r} not in the ball")
    require(max(abs(x) for x in word) <= rank, "argmax uses a generator beyond the rank")
    if not normal:
        # a^k escapes an index-d subgroup only when some cycle length <= d
        # fails to divide k, so its divisibility is the smallest nondivisor
        floor = max(smallest_nondivisor(k) for k in range(1, n + 1))
        require(value >= floor, f"max {value} below the power bound {floor}")
        require(len(set(word)) == 1, f"argmax {row['argmax']!r} is not a generator power")
        require(value == smallest_nondivisor(len(word)), "argmax value is not its nondivisor")
        if rank == 1:
            require(value == floor, f"rank-1 max {value}, expected {floor}")
            first = min(k for k in range(1, n + 1) if smallest_nondivisor(k) == floor)
            require(row["argmax"] == "a" * first, f"rank-1 argmax {row['argmax']!r}")
    if argmax is not None:
        require(row["argmax"] == argmax, f"argmax {row['argmax']!r}, expected {argmax!r}")
    if frozen is not None:
        require((value, row["argmax"]) == frozen, f"got {(value, row['argmax'])}, frozen {frozen}")


def check_ineq1(payload: dict, rank: int, n: int) -> None:
    row = _row(payload)
    report = payload["report"]
    require(row["status"] == "pass" and row["passed"] is True, f"status {row['status']}")
    size = ball_size(rank, n)
    require(report["ball_size"] == size, "ball size is wrong")
    dmax = report["max_normal_divisibility"]
    require(dmax["n"] == 2 * n and dmax["normal"] is True and dmax["resolved"], "dmax row")
    m = dmax["value"]
    require(m == INEQ1_RANK2_N2["m"] and dmax["argmax"] == INEQ1_RANK2_N2["argmax"],
            f"dmax {m} at {dmax['argmax']!r}")
    s = report["growth_count"]
    require(s == INEQ1_RANK2_N2["growth_count"], f"growth count {s}")
    rhs = s * math.log(m)
    link = report["growth_link"]
    require(math.isclose(link["lhs"], math.log(size)) and math.isclose(link["rhs"], rhs),
            "growth link sides are wrong")
    require(link["holds"] is (link["lhs"] <= link["rhs"]), "growth link verdict is wrong")
    girth = report["girth_link"]
    require(girth["value"] == GIRTH_RANK2_RADIUS2, f"girth {girth['value']}")
    require(math.isclose(girth["link"]["lhs"], math.log(GIRTH_RANK2_RADIUS2)), "girth link")
    require(girth["status"] == "holds", "girth link does not hold")


def hall_counts(max_degree: int, rank: int = 2) -> list[int]:
    """Subgroups of index 1..max_degree in F_rank, by Hall's recursion (1949)."""
    a = []
    for n in range(1, max_degree + 1):
        total = n * math.factorial(n) ** (rank - 1)
        total -= sum(math.factorial(n - k) ** (rank - 1) * a[k - 1] for k in range(1, n))
        a.append(total)
    return a


def check_covers(payload: dict, m: int, max_degree: int) -> None:
    rows = payload["rows"]
    hall = hall_counts(max_degree)
    require([r["degree"] for r in rows] == list(range(1, max_degree + 1)), "degrees")
    for r, expect in zip(rows, hall):
        d = r["degree"]
        require(r["covers"] == expect, f"degree {d}: {r['covers']} covers, Hall gives {expect}")
        require(r["points"] == d * r["covers"], f"degree {d}: points != degree * covers")
        require(0 <= r["non_closing_points"] <= r["points"], f"degree {d}: non-closing count")
        if d <= m:
            # every cycle is at most m long and so divides lcm(1..m)
            require(r["non_closing_points"] == 0, f"degree {d}: a short cycle failed to close")
    s = payload["summary"]
    require(s["m"] == m and s["max_degree"] == max_degree, "summary does not echo the query")
    require(s["lcm"] == math.lcm(*range(1, m + 1)), "summary lcm")
    require(s["covers"] == sum(hall), "summary covers")
    require(s["points_checked"] == sum(r["points"] for r in rows), "summary points")
    require(s["non_closing_points"] == sum(r["non_closing_points"] for r in rows),
            "summary non-closing points")
    require(s["violations"] == [], "violations reported")


def check_theorem4(payload: dict, n: int, cap: int) -> None:
    rows = payload["rows"]
    require([r["n"] for r in rows] == list(range(1, n + 1)), "rows are not j = 1..n")
    for r in rows:
        ell = math.lcm(*range(1, r["n"] + 1))
        require(r["lcm"] == ell, f"row {r['n']}: lcm {r['lcm']}, expected {ell}")
        require(isinstance(r["witness_bound"], int) and r["witness_bound"] >= 1, "bound")
        require(2 <= r["dnormal_lower"] <= cap + 1, f"row {r['n']}: lower bound out of range")
        if r["resolved"]:
            require(r["dnormal_lower"] >= ell + 1, f"row {r['n']}: resolved below lcm + 1")
        # a group of order <= lcm(1..j) kills one of x..x^lcm, so with the
        # cap at or past the lcm every row resolves
        require(r["resolved"] or cap < ell, f"row {r['n']} unresolved within the cap")


def check_certificate(cert: dict, rank: int, targets: list[str]) -> None:
    """Recompute the bound and replay the witness in every S3 quotient."""
    require(cert["rank"] == rank, f"certificate rank {cert['rank']}")
    require(cert["targets"] == targets, "certificate targets differ from the query")
    nodes, root = cert["nodes"], cert["root"]
    require(isinstance(root, int) and 0 <= root < len(nodes), "root out of range")
    for i, node in enumerate(nodes):
        refs = [] if node[0] == "gen" else [node[1]] if node[0] == "pow" else node[1:]
        require(all(isinstance(r, int) and 0 <= r < i for r in refs), f"node {i} refers forward")
    bound = _length_bound(nodes, root)
    require(cert["declared_bound"] == bound, f"declared {cert['declared_bound']}, nodes give {bound}")
    flat = cert["flat"]
    if flat is not None:
        letters = parse(flat)
        require(0 < len(letters) <= bound, "flat form is empty or longer than the bound")
        require(is_reduced(letters), "flat form is not reduced")
    words = [parse(t) for t in targets]
    for images in itertools.product(range(len(_S3)), repeat=rank):
        w = _s3_program(nodes, root, images)
        if w != _S3_ID and any(_s3_word(t, images) == _S3_ID for t in words):
            raise CheckError(f"a target dies in S3 under {images} but the witness survives")
        if flat is not None and len(flat) <= 4096:
            require(_s3_word(parse(flat), images) == w, "flat form and program disagree")


def check_lcm_witness(payload: dict, rank: int, targets: list[str]) -> None:
    row = _row(payload)
    cert = payload["certificate"]
    require(row["targets"] == len(targets), "row target count")
    require(row["verified"] is True, "certificate not verified")
    require(row["declared_bound"] == cert["declared_bound"], "row and certificate bound")
    check_certificate(cert, rank, targets)


def check_verify(payload: dict, certificate: dict) -> None:
    row = _row(payload)
    require(row["ok"] is True and row["failures"] == "", f"verify failed: {row['failures']}")
    require(row["targets"] == len(certificate["targets"]), "verify target count")
    require(row["declared_bound"] == certificate["declared_bound"], "verify bound")


def check_power_witness(payload: dict, n: int) -> None:
    row = _row(payload)
    cert = payload["certificate"]
    require((row["rank"], row["n"], row["targets"]) == (2, n, n), "row does not echo the query")
    require(row["normal_divisibility_lower"] == n + 1, "lower bound is not n + 1")
    require(row["scanned_orders"] == list(range(2, min(n, 8) + 1)), "scanned orders")
    require(row["scan_all_killed"] is True and row["nontrivial_verified"] is True, "flags")
    require(row["witness_nodes"] == len(cert["nodes"]), "node count")
    require(row["declared_bound"] == cert["declared_bound"], "row and certificate bound")
    check_certificate(cert, 2, ["a" * k for k in range(1, n + 1)])


def heisenberg_max_entry(n: int) -> int:
    """Max |entry| over the Heisenberg images of the radius-n ball.

    Walks integer triples (a, b, c) for [[1, a, c], [0, 1, b], [0, 0, 1]],
    with (a,b,c)(a',b',c') = (a+a', b+b', c+c'+ab').
    """
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    for _ in range(n):
        nxt = []
        for a, b, c in frontier:
            for t in ((a + 1, b, c), (a - 1, b, c), (a, b + 1, c + a), (a, b - 1, c - a)):
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return max(max(abs(a), abs(b), abs(c)) for a, b, c in seen)


def check_nilpotent(payload: dict, n: int, walk_max: int) -> None:
    """walk_max is heisenberg_max_entry(n), computed once per run."""
    row = _row(payload)
    require(row["n"] == n and row["injective"] is True, "row does not echo the query")
    closed = max(n, n * n // 4)
    require(walk_max == closed, f"triple walk max {walk_max}, closed form {closed}")
    modulus = 2 * closed + 1
    require(row["modulus"] == modulus, f"modulus {row['modulus']}, expected {modulus}")
    require(row["bound"] == modulus**3, f"bound {row['bound']}, expected {modulus ** 3}")
