"""Reference functions that only the tests use.

`canonical_key` names a pointed transitive action up to relabelling, and
`kernel_fingerprint` records which words of a fixed battery an action
kills; the tests compare the search's output through them and freeze
digests of their bytes.  `permutation_eval` evaluates words by
multiplying Permutation objects, the reference for the row evaluation.
"""

from resfin.errors import InputError
from resfin.lowindex import MAX_ENCODABLE_DEGREE
from resfin.permrep import PermQuotient, Permutation, eval_word, identity_perm
from resfin.words import FreeWord, SLWord, enumerate_ball


def canonical_key(q: PermQuotient) -> bytes:
    """Canonical form of a pointed transitive action.

    Relabels points by breadth-first discovery order from the basepoint,
    scanning each point's neighbors as (g1 forward, g1 backward, g2
    forward, ...). Two transitive quotients get equal keys exactly when
    some relabeling fixing the basepoint carries one to the other. The
    same pass decides transitivity.
    """
    if q.degree > MAX_ENCODABLE_DEGREE:
        raise InputError(f"degree {q.degree} beyond encodable {MAX_ENCODABLE_DEGREE}")
    rows = [row for f, b in zip(q.fwd, q.bwd) for row in (f, b)]
    label = [0] + [-1] * (q.degree - 1)
    order = [0]
    for p in order:  # order grows while it is walked
        for row in rows:
            nxt = row[p]
            if label[nxt] < 0:
                label[nxt] = len(order)
                order.append(nxt)
    if len(order) != q.degree:
        raise InputError("canonical_key needs a transitive quotient")
    return b"".join(bytes(label[f[p]] for p in order) for f in q.fwd)


def word_battery(rank: int, order: int) -> tuple[FreeWord, ...]:
    """All reduced words of length up to 2*ceil(log2(order)) + 2.

    Evaluation patterns on this battery separate distinct kernels at the
    orders used here; the tests cross-check that against canonical keys.
    """
    if order < 1:
        raise InputError(f"order must be positive, got {order}")
    radius = 2 * (order - 1).bit_length() + 2
    return tuple(enumerate_ball(rank, radius))


def kernel_fingerprint(q: PermQuotient, battery: tuple[FreeWord, ...] | None = None) -> bytes:
    """Which battery words the action kills, one byte each."""
    if battery is None:
        battery = word_battery(q.rank, q.degree)
    return bytes(1 if eval_word(q, w).is_identity else 0 for w in battery)


def permutation_eval(q: PermQuotient, w: FreeWord | SLWord) -> Permutation:
    """Image of a word as a product of Permutation objects.

    A straight-line word is evaluated node by node up to its root, every
    node kept, with its own square-and-multiply; nothing is shared with
    `sl_eval` or with the rows `eval_word` composes.
    """
    gens = q.gens
    one = identity_perm(q.degree)
    if isinstance(w, FreeWord):
        out = one
        for letter in w.letters:
            out = out * (gens[letter - 1] if letter > 0 else gens[-letter - 1].inverse())
        return out
    vals = []
    for op, *args in w.nodes[: w.root + 1]:
        if op == "gen":
            vals.append(gens[args[0] - 1])
        elif op == "inv":
            vals.append(vals[args[0]].inverse())
        elif op == "mul":
            vals.append(vals[args[0]] * vals[args[1]])
        elif op == "pow":
            base, e = vals[args[0]], args[1]
            if e < 0:
                base, e = base.inverse(), -e
            acc = one
            while e:
                if e & 1:
                    acc = acc * base
                base = base * base
                e >>= 1
            vals.append(acc)
        elif op == "conj":
            a, b = vals[args[0]], vals[args[1]]
            vals.append(b * a * b.inverse())
        else:
            assert op == "comm", op
            a, b = vals[args[0]], vals[args[1]]
            vals.append(a * b * a.inverse() * b.inverse())
    return vals[w.root]
