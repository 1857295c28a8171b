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


def test_explicit_build_q_hom_is_the_pinned_sign_q_hom():
    """The q-hom that ``explicit-build`` populates has the cell table that
    ``tests/golden/tables/qhom-sign.json`` pins."""
    from dblcheck.hom import populate_squares
    from dblcheck.quasi import q_hom_double_category
    from test_golden import _load, _roundtrip, cell_table
    q1 = jobs.sign_quasi({0: 0, 1: 1})
    q2 = jobs.sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    qh = q_hom_double_category(q1.A, q1.B, q1.C)
    qh.intern_quasi(q1)
    qh.intern_quasi(q2)
    qh.intern_q_hor(jobs.sign_q_hor(q1, q2))
    assert _roundtrip(cell_table(populate_squares(qh))) == _load(
        "tables", "qhom-sign")
