"""The benchmark's known answers hold: one round of the in-process
workloads ``flat-check``, ``explicit-build`` and ``mutants`` of
``bench/jobs.py``, each job judged as the benchmark judges it.  A fast path
that flips a verdict fails here before it reaches a benchmark run."""

import importlib.util
import os
import random
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


def _round(workload):
    return jobs.BUILDERS[workload](SEED, SimpleNamespace(root=ROOT))


def _wrong_verdicts(items):
    queue = deque(items)
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
    return wrong


@pytest.mark.parametrize("workload", ["flat-check", "explicit-build",
                                      "mutants"])
def test_benchmark_verdicts(workload):
    assert not _wrong_verdicts(_round(workload))


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_flat_check_verdicts_do_not_depend_on_job_order(order):
    """The jobs of a ``flat-check`` round share product domains and the
    functors strictified over them, so which job builds a shared object
    and which reads it follows the order; every order must judge alike."""
    items = _round("flat-check")
    assert not any(isinstance(job, jobs.Expand) for job in items)
    if order == "reversed":
        items.reverse()
    else:
        random.Random(SEED).shuffle(items)
    assert not _wrong_verdicts(items)


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
