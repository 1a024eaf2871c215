"""The four benchmark workloads: which `resfin` queries run, and how each
answer is checked.

A workload is a fixed list of queries.  One round runs the set-up probes
and then every query once, in order.  Only `ball-sweep` draws anything
from the seed: the target sets of its `lcm-witness` queries.  Their sizes
and word lengths are fixed, so the work a round does barely depends on
the seed.
"""

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# cold start of the CLI on a trivial query; SETUP_PROBES of them open every round
SETUP_ARGV = ("growth", "--rank", "1", "--max", "0")
SETUP_PROBES = 3

RANK_ONE_INVERSE_FAULT = (
    "exits 3: lcmlib._witness_rank_one gives the inverse target a power step "
    "onto the bare generator node, and _power_step_ok rejects it"
)


@dataclass(frozen=True)
class Query:
    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], None]
    output: Path | None = None  # file written through --out; stdout when None
    known_fault: str | None = None  # why the query is expected to fail today
    setup: bool = False


def _q(name, argv: str, check, **kw) -> Query:
    return Query(name, tuple(argv.split()), check, **kw)


def setup_probe() -> Query:
    return Query("setup", SETUP_ARGV, checks.check_growth_probe, setup=True)


def random_targets(rng: random.Random, rank: int, count: int, length: int) -> list[str]:
    """`count` distinct reduced words, all `length` letters long.

    One length for the whole set keeps its total size, and so the work of
    building and checking its witness, the same for every seed.
    """
    alphabet = "abcdefghij"[:rank] + "ABCDEFGHIJ"[:rank]
    seen: dict[str, None] = {}
    while len(seen) < count:
        word = [rng.choice(alphabet)]
        while len(word) < length:
            c = rng.choice(alphabet)
            if c != word[-1].swapcase():
                word.append(c)
        seen.setdefault("".join(word), None)
    return list(seen)


@functools.cache
def _walk_max(n: int) -> int:
    return checks.heisenberg_max_entry(n)


def first_hit(seed: int, work: Path) -> list[Query]:
    size = checks.ball_size
    return [
        _q("girth-r2-n2", "girth --rank 2 --radius 2 --cap 24",
           lambda p: checks.check_girth(p, 2, 2, checks.GIRTH_RANK2_RADIUS2)),
        _q("ineq1-r2-n2", "ineq --which 1 --rank 2 --n 2 --cap 24",
           lambda p: checks.check_ineq1(p, 2, 2)),
        _q("girth-r1-n5", "girth --rank 1 --radius 5 --cap 12",
           lambda p: checks.check_girth(p, 1, 5, size(1, 5))),
        _q("girth-r3-n1", "girth --rank 3 --radius 1 --cap 12",
           lambda p: checks.check_girth(p, 3, 1, size(3, 1))),
        _q("dmax-normal-r2-n8", "dmax --rank 2 --radius 8 --cap 16 --normal",
           lambda p: checks.check_dmax(p, 2, 8, 16, True, frozen=checks.DMAX_NORMAL_RANK2)),
    ]


def census(seed: int, work: Path) -> list[Query]:
    return [
        _q("covers-m3-d7", "covers-scan --m 3 --max-degree 7",
           lambda p: checks.check_covers(p, 3, 7)),
        _q("theorem4-n4", "theorem4 --n 4 --cap 16",
           lambda p: checks.check_theorem4(p, 4, 16)),
        _q("power-witness-n4", "power-witness --n 4",
           lambda p: checks.check_power_witness(p, 4)),
    ]


# (rank, number of targets, target length) for the seeded lcm-witness sets
LCM_SETS = ((2, 64, 6), (2, 256, 6), (3, 128, 5), (3, 256, 5))


def _lcm_pair(rank: int, targets: list[str], work: Path) -> list[Query]:
    name = f"lcm-r{rank}-{len(targets)}"
    cert = work / f"{name}.json"

    def check_verify(payload: dict) -> None:
        checks.check_verify(payload, json.loads(cert.read_text())["certificate"])

    return [
        Query(name,
              ("lcm-witness", "--set", ",".join(targets), "--format", "json", "--out", str(cert)),
              lambda p: checks.check_lcm_witness(p, rank, targets), output=cert),
        Query(f"verify-{name}", ("verify", "--certificate", str(cert)), check_verify),
    ]


def ball_sweep(seed: int, work: Path) -> list[Query]:
    rng = random.Random(seed)
    queries = [
        _q("dmax-normal-r2-n10", "dmax --rank 2 --radius 10 --cap 12 --normal",
           lambda p: checks.check_dmax(p, 2, 10, 12, True, frozen=checks.DMAX_NORMAL_RANK2)),
        _q("dmax-r2-n8", "dmax --rank 2 --radius 8 --cap 12",
           lambda p: checks.check_dmax(p, 2, 8, 12, False, argmax="aaaaaa")),
        _q("dmax-r3-n5", "dmax --rank 3 --radius 5 --cap 12",
           lambda p: checks.check_dmax(p, 3, 5, 12, False)),
        _q("dmax-r1-n12", "dmax --rank 1 --radius 12 --cap 16",
           lambda p: checks.check_dmax(p, 1, 12, 16, False)),
    ]
    for rank, count, length in LCM_SETS:
        queries += _lcm_pair(rank, random_targets(rng, rank, count, length), work)
    for targets in (["A"], ["a", "A"]):
        queries.append(
            Query(f"lcm-r1-{','.join(targets)}", ("lcm-witness", "--set", ",".join(targets)),
                  lambda p, t=targets: checks.check_lcm_witness(p, 1, t),
                  known_fault=RANK_ONE_INVERSE_FAULT)
        )
    return queries


def heisenberg(seed: int, work: Path) -> list[Query]:
    return [
        _q(f"nilpotent-n{n}", f"nilpotent-girth --n {n}",
           lambda p, n=n: checks.check_nilpotent(p, n, _walk_max(n)))
        for n in (8, 16, 20)
    ]


WORKLOADS = {
    "first-hit": first_hit,
    "census": census,
    "ball-sweep": ball_sweep,
    "heisenberg": heisenberg,
}


def build(name: str, seed: int, work: Path) -> list[Query]:
    """One round: the set-up probes, then the workload's queries."""
    return [setup_probe() for _ in range(SETUP_PROBES)] + WORKLOADS[name](seed, work)
