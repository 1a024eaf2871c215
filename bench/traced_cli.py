"""Run one `resfin` CLI query with the public functions of every module timed.

    PYTHONPATH=src python3 bench/traced_cli.py STATS.json ARGS...

runs `resfin.cli.run(ARGS)` the way `python3 -m resfin ARGS` would, and
writes per-function aggregates to STATS.json when the query ends.  Each
public function of words, permrep, lowindex, separability, covers, lcmlib,
nilpotent and cli is replaced by a timing wrapper, under its name in every
resfin module that imported it, so calls between modules go through the
wrapper.  Nothing under src/ changes.  A function that returns an iterator
(enumerate_ball, enumerate_normal, enumerate_subgroups) is timed per
next(), so the time spent producing each word or table lands on it and not
on the caller.

Aggregates are kept per function, never per call, so millions of
eval_word calls cost no memory:
  - self time per module: span time minus the time of wrapped child spans;
  - inclusive time per group, counted only at the outermost span of the group;
  - work counters (words yielded, evaluations, letters, tables, queries,
    witness nodes) and the `_materialized` cache hits and misses.
"""

import inspect
import json
import resource
import sys
import time
from collections import defaultdict
from collections.abc import Iterator

MODULES = ("words", "permrep", "lowindex", "separability", "covers", "lcmlib", "nilpotent", "cli")

# inclusive-time groups; functions not listed only add to their module's self time
GROUPS = {
    "words.enumerate_ball": "words.ball",
    "words.sl_eval": "words.sl",
    "words.sl_flatten": "words.sl",
    "words.sl_length_bound": "words.sl",
    "words.sl_build": "words.sl",
    "permrep.eval_word": "permrep.eval",
    "lowindex.enumerate_normal": "lowindex.normal",
    "lowindex.enumerate_subgroups": "lowindex.subgroups",
    "lcmlib.lcm_witness": "lcmlib.build",
    "lcmlib.verify_certificate": "lcmlib.verify",
    "lcmlib.cert_to_json": "lcmlib.json",
    "lcmlib.cert_from_json": "lcmlib.json",
}
# counts of the items each iterator-returning function yields
YIELD_COUNTERS = {
    "words.enumerate_ball": "words.ball_words",
    "lowindex.enumerate_normal": "lowindex.normal_tables",
    "lowindex.enumerate_subgroups": "lowindex.subgroup_tables",
}
QUERY_FUNCTIONS = {
    "separability.divisibility",
    "separability.normal_divisibility",
    "separability.residual_girth",
}


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.nilpotent_peak_kib = 0

    def timed(self, module: str, group: str | None, call):
        """Run call() as one span of `module`, inside `group` if given."""
        frame = [0.0]
        self.stack.append(frame)
        outer = False
        if group is not None:
            outer = self.depth[group] == 0
            self.depth[group] += 1
        start = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += elapsed
            self.self_s[module] += elapsed - frame[0]
            if group is not None:
                self.depth[group] -= 1
                if outer:
                    self.group_s[group] += elapsed

    def wrap(self, fn, module: str):
        key = f"{module}.{fn.__name__}"
        group = GROUPS.get(key)
        if module == "nilpotent":
            group = "nilpotent.walk"
        items = YIELD_COUNTERS.get(key)
        tracer = self

        class TimedIterator:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                item = tracer.timed(module, group, lambda: next(self.inner))
                tracer.counts[items] += 1
                return item

        def wrapper(*args, **kwargs):
            if key == "permrep.eval_word":
                word = args[1] if len(args) > 1 else kwargs["w"]
                tracer.counts["permrep.evals"] += 1
                # flat words only; a straight-line word adds no letters
                tracer.counts["permrep.eval_letters"] += len(getattr(word, "letters", ()))
            elif key in QUERY_FUNCTIONS:
                tracer.counts["separability.queries"] += 1
            result = tracer.timed(module, group, lambda: fn(*args, **kwargs))
            if key == "lcmlib.lcm_witness":
                tracer.counts["lcmlib.witness_nodes"] += len(result.word.nodes)
            elif group == "nilpotent.walk" and tracer.depth[group] == 0:
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                tracer.nilpotent_peak_kib = max(tracer.nilpotent_peak_kib, peak)
            if items is not None and isinstance(result, Iterator):
                return TimedIterator(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package) -> None:
        """Rebind each public function in every resfin module holding it."""
        modules = [package] + [getattr(package, name) for name in MODULES]
        replaced = {}
        for name in MODULES:
            mod = getattr(package, name)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    replaced[obj] = self.wrap(obj, name)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])


def main(argv: list[str]) -> int:
    stats_path, args = argv[0], argv[1:]
    start = time.perf_counter()
    import resfin
    import resfin.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install(resfin)
    try:
        return resfin.cli.run(args)
    finally:
        sys.stdout.flush()
        cache = resfin.lowindex._materialized.cache_info()
        stats = {
            "import_s": import_s,
            "self_s": dict(tracer.self_s),
            "group_s": dict(tracer.group_s),
            "counts": dict(tracer.counts),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "nilpotent_peak_rss_mib": tracer.nilpotent_peak_kib / 1024,
        }
        with open(stats_path, "w", encoding="ascii") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
