"""Benchmark of the `resfin` CLI over four query workloads.

    python3 bench/run.py --workload first-hit --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Run from the repository root, or anywhere: paths are taken from this
file's location.  Each query runs as its own `python3 -m resfin` process
with PYTHONPATH=src, one at a time, so every query pays what a CLI user
pays: a fresh interpreter, the import, and an empty `_materialized` cache.
A run repeats whole rounds of the workload (see workloads.py) until
--seconds have passed, checks every answer after its process has exited,
and prints a summary and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each a median over
rounds: wall_s and cpu_s (sums over the round's queries), peak_rss_mib
(largest max-RSS of any query process) and setup_s (median cold start of
the set-up probe).  With --trace 1 untraced and traced rounds alternate;
traced rounds run each query through traced_cli.py and the metrics are
the per-layer ones.  --workload all runs every workload in turn.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spawn
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
TRACED_CLI = BENCH / "traced_cli.py"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "words.ball_s": "s",
    "words.ball_words": "count",
    "words.sl_s": "s",
    "permrep.eval_s": "s",
    "permrep.evals": "count",
    "permrep.eval_letters": "count",
    "lowindex.normal_s": "s",
    "lowindex.normal_tables": "count",
    "lowindex.subgroups_s": "s",
    "lowindex.subgroup_tables": "count",
    "lowindex.cache_hits": "count",
    "lowindex.cache_misses": "count",
    "separability.self_s": "s",
    "separability.queries": "count",
    "covers.self_s": "s",
    "lcmlib.build_s": "s",
    "lcmlib.verify_s": "s",
    "lcmlib.json_s": "s",
    "lcmlib.witness_nodes": "count",
    "nilpotent.walk_s": "s",
    "nilpotent.peak_rss_mib": "MiB",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# per-layer metric -> (section of the traced process's stats, key), summed over a round
_LAYER_SOURCES = {
    "words.ball_s": ("group_s", "words.ball"),
    "words.ball_words": ("counts", "words.ball_words"),
    "words.sl_s": ("group_s", "words.sl"),
    "permrep.eval_s": ("group_s", "permrep.eval"),
    "permrep.evals": ("counts", "permrep.evals"),
    "permrep.eval_letters": ("counts", "permrep.eval_letters"),
    "lowindex.normal_s": ("group_s", "lowindex.normal"),
    "lowindex.normal_tables": ("counts", "lowindex.normal_tables"),
    "lowindex.subgroups_s": ("group_s", "lowindex.subgroups"),
    "lowindex.subgroup_tables": ("counts", "lowindex.subgroup_tables"),
    "separability.self_s": ("self_s", "separability"),
    "separability.queries": ("counts", "separability.queries"),
    "covers.self_s": ("self_s", "covers"),
    "lcmlib.build_s": ("group_s", "lcmlib.build"),
    "lcmlib.verify_s": ("group_s", "lcmlib.verify"),
    "lcmlib.json_s": ("group_s", "lcmlib.json"),
    "lcmlib.witness_nodes": ("counts", "lcmlib.witness_nodes"),
    "nilpotent.walk_s": ("group_s", "nilpotent.walk"),
    "cli.self_s": ("self_s", "cli"),
}


@dataclass
class Outcome:
    query: workloads.Query
    wall: float  # scaled to the reference speed, as is every time below
    cpu: float
    rss_mib: float
    exit_code: int
    stats: dict | None = None  # traced runs: the process's aggregates, times scaled
    problem: str | None = None  # why the answer was rejected


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RESFIN_MAX_DEGREE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """The spawn.py process, which starts each query and reports its usage."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn process ended early")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_query(spawner: Spawner, query: workloads.Query, traced: bool) -> Outcome:
    """Run one query process, then check its answer outside the timed span."""
    stdout, stderr, stats = WORK / "stdout", WORK / "stderr", WORK / "stats.json"
    for path in (stats, query.output):
        if path is not None and path.exists():
            path.unlink()
    if traced:
        argv = [sys.executable, str(TRACED_CLI), str(stats), *query.argv]
    else:
        argv = [sys.executable, "-m", "resfin", *query.argv]
    used = spawner.run(argv, stdout, stderr)
    scale = spawn.REFERENCE_S / used["reference"]
    outcome = Outcome(
        query, used["wall"] * scale, used["cpu"] * scale, used["rss_mib"], used["exit"]
    )
    try:
        if traced:
            outcome.stats = _scaled(json.loads(stats.read_text()), scale)
        if outcome.exit_code != 0:
            tail = stderr.read_text(errors="replace").strip().splitlines()[-1:]
            outcome.problem = f"exit {outcome.exit_code}: {' '.join(tail)}"
            return outcome
        query.check(json.loads((query.output or stdout).read_text()))
    except (checks.CheckError, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        outcome.problem = f"{type(exc).__name__}: {exc}"
    return outcome


def _scaled(stats: dict, scale: float) -> dict:
    stats["import_s"] *= scale
    for section in ("self_s", "group_s"):
        stats[section] = {k: v * scale for k, v in stats[section].items()}
    return stats


def failed(o: Outcome) -> bool:
    return o.exit_code != 0


def _round_sum(outcomes: list[Outcome], field: str) -> float:
    return sum(getattr(o, field) for o in outcomes if not o.query.setup)


def end_to_end(rounds: list[list[Outcome]]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(_round_sum(r, "wall") for r in rounds),
        "cpu_s": med(_round_sum(r, "cpu") for r in rounds),
        "peak_rss_mib": med(max(o.rss_mib for o in r if not o.query.setup) for r in rounds),
        "setup_s": med(o.wall for r in rounds for o in r if o.query.setup),
    }


def per_layer(traced: list[list[Outcome]], untraced: list[list[Outcome]]) -> dict:
    med = statistics.median
    per_round = []
    for r in traced:
        stats = [o.stats for o in r if o.stats is not None]
        values = {
            name: sum(s[section].get(key, 0) for s in stats)
            for name, (section, key) in _LAYER_SOURCES.items()
        }
        values["lowindex.cache_hits"] = sum(s["cache_hits"] for s in stats)
        values["lowindex.cache_misses"] = sum(s["cache_misses"] for s in stats)
        values["nilpotent.peak_rss_mib"] = max(s["nilpotent_peak_rss_mib"] for s in stats)
        per_round.append(values)
    out = {name: med(v[name] for v in per_round) for name in per_round[0]}
    out["cli.import_s"] = med(o.stats["import_s"] for r in traced for o in r if o.stats)
    out["trace.overhead_s"] = (
        med(_round_sum(r, "wall") for r in traced) - med(_round_sum(r, "wall") for r in untraced)
    )
    return out


def measure(spawner: Spawner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    queries = workloads.build(name, seed, WORK)
    # compile resfin's bytecode before anything is timed
    run_query(spawner, workloads.setup_probe(), traced=False)
    untraced: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append([run_query(spawner, q, traced=False) for q in queries])
        if trace:
            traced.append([run_query(spawner, q, traced=True) for q in queries])
    outcomes = [o for r in untraced + traced for o in r]
    problems = {}
    for o in outcomes:
        if o.problem is not None:
            label = "known fault" if failed(o) and o.query.known_fault else "problem"
            problems.setdefault((o.query.name, label), o.problem)
    for (query_name, label), text in problems.items():
        print(f"{name}: {label} in {query_name}: {text}", file=sys.stderr)
    if trace:
        metrics, units = per_layer(traced, untraced), PER_LAYER
    else:
        metrics, units = end_to_end(untraced), END_TO_END
    return {
        "correct": not any(o.problem for o in outcomes if not failed(o)),
        "attempted": len(outcomes),
        "failed": sum(failed(o) for o in outcomes),
        "rounds": len(untraced),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _print_summary(name: str, seed: int, result: dict) -> None:
    print(f"workload {name}  seed {seed}  rounds {result['rounds']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"  {key:26s} {m['value']:14.6f} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "resfin" / "cli.py").is_file():
        print(f"error: no resfin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        with Spawner() as spawner:
            for name in names:
                results[name] = measure(spawner, name, args.seed, args.seconds, bool(args.trace))
                _print_summary(name, args.seed, results[name])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
