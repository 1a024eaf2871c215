"""Start the benchmark's query processes and report what each one used.

Runs as one long-lived child of bench/run.py, pinned to one CPU together
with every query it starts.  It does three things bench/run.py cannot do
for itself:

  - It forks the queries.  Linux starts a new process's max-RSS count from
    the memory of the process that forked it, so if bench/run.py, which
    grows as it checks large answers, forked them, its own size would leak
    into every reading.  This process imports almost nothing and stays far
    below the size of any query.
  - It keeps each query on one CPU, so a query never migrates between
    CPUs that other tenants of the host slow down by different amounts.
  - It times a fixed reference loop on that CPU just before each query,
    every SAMPLE_EVERY_S while the query runs, and just after it.
    bench/run.py scales the query's times by REFERENCE_S over the mean of
    those loop times, which takes out most of the swings in the CPU's
    speed that the host's load causes.

Protocol: one JSON request per line on stdin, {"argv", "stdout",
"stderr"}; one JSON reply per line on stdout, {"wall", "cpu", "rss_mib",
"exit", "reference"}.  Queries inherit this process's environment and
working directory.  Exits at the end of its input.
"""

import json
import os
import sys
import threading
import time

# nominal CPU time of reference_loop(); scaled times are seconds at that speed
REFERENCE_S = 0.00045
# how often the reference loop runs while a query runs
SAMPLE_EVERY_S = 0.01


def reference_loop(rounds: int = 200) -> float:
    """CPU seconds of this thread for a fixed piece of tuple and dict work.

    Thread CPU time, not wall time, so that the query sharing the CPU does
    not count when it preempts the loop.
    """
    start = time.thread_time()
    perm = tuple((7 * i + 3) % 24 for i in range(24))
    state = tuple(range(24))
    seen: dict[tuple, int] = {}
    for i in range(rounds):
        state = tuple(perm[p] for p in state)
        seen[state] = seen.get(state, 0) + i
    return time.thread_time() - start


def _sample(stop: threading.Event, samples: list[float]) -> None:
    while not stop.wait(SAMPLE_EVERY_S):
        samples.append(reference_loop())


def run(argv: list[str], stdout: str, stderr: str) -> dict:
    samples = [reference_loop()]
    stop = threading.Event()
    sampler = threading.Thread(target=_sample, args=(stop, samples))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                os.execv(argv[0], argv)
            finally:
                os._exit(127)
        sampler.start()
        try:
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            stop.set()
            sampler.join()
    samples.append(reference_loop())
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024,
        "exit": os.waitstatus_to_exitcode(status),
        "reference": sum(samples) / len(samples),
    }


def main() -> None:
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        pass  # unpinned, the scaling still holds but tracks the CPU less closely
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdout"], request["stderr"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
