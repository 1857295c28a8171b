"""The benchmark's known answers hold: one round of the in-process
workloads ``flat-check``, ``explicit-build`` and ``mutants`` of
``bench/jobs.py``, each job judged as the benchmark judges it.  A fast path
that flips a verdict fails here before it reaches a benchmark run."""

import importlib.util
import os
import sys
from collections import deque
from types import SimpleNamespace

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SEED = 5


def _load_jobs():
    """``bench/jobs.py`` as a module, without writing bytecode under
    ``bench/``."""
    spec = importlib.util.spec_from_file_location(
        "bench_jobs", os.path.join(ROOT, "bench", "jobs.py"))
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


jobs = _load_jobs()


@pytest.mark.parametrize("workload", ["flat-check", "explicit-build",
                                      "mutants"])
def test_benchmark_verdicts(workload):
    queue = deque(jobs.BUILDERS[workload](SEED, SimpleNamespace(root=ROOT)))
    wrong = []
    while queue:
        job = queue.popleft()
        if isinstance(job, jobs.Expand):
            # the jobs an Expand makes run in its place, as in a round of
            # ``bench/run.py``; they need what the jobs before it built
            queue.extendleft(reversed(job.fn()))
            continue
        outcome = job.fn()
        if not jobs.judge(job, outcome):
            wrong.append((job.id, outcome, job.want))
    assert not wrong
