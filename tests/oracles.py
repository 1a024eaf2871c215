"""Reference functions that only the tests use.

`canonical_key` names a pointed transitive action up to relabelling, and
`kernel_fingerprint` records which words of a fixed battery an action
kills; the tests compare the search's output through them and freeze
digests of their bytes.
"""

from resfin.errors import InputError
from resfin.lowindex import MAX_ENCODABLE_DEGREE
from resfin.permrep import PermQuotient, eval_word
from resfin.words import FreeWord, enumerate_ball


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
