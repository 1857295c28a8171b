"""dblcheck benchmark: time to verdict and verdict correctness.

Run from the repository root:

    python3 bench/run.py --workload flat-check --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --compare before.jsonl after.jsonl
    python3 bench/run.py --selfcheck --workload mutants --seed 1

A run is a closed loop with one client: rounds of jobs, one job at a time,
until ``--seconds`` have passed (at least one round).  Each round builds
fresh inputs from the seed, so every round does the same work.  Every
verdict is checked against the job's known answer.  The last line of
standard output is one JSON object; each run is also appended to
``--out`` (default ``.bench_out/results.jsonl``) for ``--compare``.

The host's speed drifts by up to 2x over tenths of seconds to minutes, so
every time is scaled to a reference speed: a probe of fixed work runs
between jobs, and a job's time is multiplied by the host speed the probes
around it measured (see ``Speedometer``).  Raw times are kept in the
results file.

With ``--trace 1`` the run first times one untraced round, then wraps the
package (see spans.py) and reports per-layer metrics of the traced rounds
and the tracing overhead.  See README.md for the workloads and metrics.
"""

import argparse
import bisect
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, deque, namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("flat-check", "explicit-build", "mutants", "cli")
SETUP_REPEATS = 5     # set-ups timed before the first round
P90_MIN_JOBS = 100    # jobs per round needed to report verdict_ms_p90
IMPORT_REPEATS = 5

PROBE_LOOPS = 6000    # iterations of the in-process speed probe
# Probe times that count as speed 1.0.  On a 2 GHz Xeon share of a busy
# host both probes typically read about 0.5 and reach 1.0 when it is quiet.
LOOP_PROBE_S = 0.0008
START_PROBE_S = 0.008
PROBE_GAP_S = 0.02    # least time between two probes inside a round

Result = namedtuple("Result", "id seconds raw right crashed defect detail")
Round = namedtuple("Round", "results wall raw_wall layers")


# -- environment ----------------------------------------------------------------


def program_present():
    return (os.path.isfile(os.path.join(ROOT, "src", "dblcheck", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "fixtures")))


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest():
    """sha256 of the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "dblcheck")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONSTARTUP", None)
    return env


class Ctx:
    """What job builders need from the harness."""

    def __init__(self, tmp):
        self.root = ROOT
        self.tmp = tmp
        self.child_env = child_env()
        self.child_spans = os.path.join(tmp, "child-spans.json")
        self.tracer = None

    def cli_command(self, jid):
        if self.tracer is None:
            return [sys.executable, "-m", "dblcheck.cli"]
        return [sys.executable, os.path.join(HERE, "cli_child.py"),
                self.child_spans, jid]

    def after_child(self):
        """Fold a traced child's spans into the round."""
        if self.tracer is None or not os.path.exists(self.child_spans):
            return
        with open(self.child_spans) as fh:
            self.tracer.merge(json.load(fh))
        os.remove(self.child_spans)


# -- host speed -----------------------------------------------------------------

_PROBE_TABLE = {i: (i, i ^ 5) for i in range(64)}


def _probe_step(a, b):
    return a * 3 + b


def loop_probe():
    """Fixed interpreter work of the kind dblcheck does: dict lookups,
    tuple unpacking, small calls, list appends."""
    acc, seen = 0, []
    for i in range(PROBE_LOOPS):
        a, b = _PROBE_TABLE[i & 63]
        acc = (acc + _probe_step(a, b)) & 0xFFFF
        if not i & 15:
            seen.append(acc)
    return acc


def start_probe():
    """Start and end a bare interpreter.  A cli child's time follows the
    host's cost of starting a process, which the loop probe does not see.
    Over 150 s of one repeated cli job on a 2-core 2 GHz Xeon share, the
    medians of 10 s windows spread (IQR over median) 8% raw, 6% scaled by
    the loop probe and 1.4% scaled by this probe."""
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True,
                   stdin=subprocess.DEVNULL)


class Speedometer:
    """Samples of the host's speed.

    The host is a share of a busy machine: the same work takes up to twice
    as long from one tenth of a second to the next and from one minute to
    the next.  A probe runs fixed work and gives the speed ``nominal`` over
    its time.  Probes run between jobs, and with ``inside=True`` also inside
    in-process jobs, from a SIGPROF handler every PROBE_GAP_S of this
    process's CPU time.  A job's time, less the probes inside it, is scaled
    by the mean speed over it, interpolated between the samples, so every
    reported time reads as seconds at speed 1.0 and a slow host no longer
    reads as a slow program.
    """

    def __init__(self, work, nominal, inside=False):
        self.samples = []   # (mid time, speed, probe time), in time order
        self.work, self.nominal = work, nominal
        self.inside = inside
        self.busy = False

    def __enter__(self):
        if self.inside:
            signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, PROBE_GAP_S, PROBE_GAP_S)
        return self

    def __exit__(self, *exc):
        if self.inside:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def _on_timer(self, signum, frame):
        if not self.busy:
            self.probe()

    def probe(self):
        self.busy = True
        t0 = time.perf_counter()
        self.work()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, self.nominal / (t1 - t0),
                             t1 - t0))
        self.busy = False

    def due(self):
        return time.perf_counter() - self.samples[-1][0] >= PROBE_GAP_S

    def speed_at(self, t):
        samples = self.samples
        i = bisect.bisect_left(samples, (t,))
        if i == 0:
            return samples[0][1]
        if i == len(samples):
            return samples[-1][1]
        (ta, sa, _), (tb, sb, _) = samples[i - 1], samples[i]
        return sa + (sb - sa) * (t - ta) / (tb - ta)

    def scaled(self, t0, t1):
        """(seconds at speed 1.0, raw seconds) of the work done between t0
        and t1, probes inside excluded.  Needs a sample before t0 and one
        after t1."""
        inner = self.samples[bisect.bisect_right(self.samples, (t0, math.inf)):
                             bisect.bisect_left(self.samples, (t1,))]
        ts = [t0] + [x[0] for x in inner] + [t1]
        vs = [self.speed_at(t0)] + [x[1] for x in inner] + [self.speed_at(t1)]
        area = sum((ts[k + 1] - ts[k]) * (vs[k] + vs[k + 1]) / 2
                   for k in range(len(ts) - 1))
        mean = area / (t1 - t0) if t1 > t0 else vs[0]
        raw = t1 - t0 - sum(x[2] for x in inner)
        return raw * mean, raw


def timed(fn, meter):
    """fn() between two probes; returns (value, scaled s, raw s)."""
    meter.probe()
    t0 = time.perf_counter()
    value = fn()
    t1 = time.perf_counter()
    meter.probe()
    return (value,) + meter.scaled(t0, t1)


# -- rounds -------------------------------------------------------------------


def run_round(items, ctx, meter):
    """Run one round of jobs in order, probing the host's speed between
    them; returns the results and the round's time to verdict: its jobs'
    times summed, scaled and raw."""
    import jobs
    import spans
    tracer = ctx.tracer
    queue = deque(items)
    done = []
    meter.probe()
    while queue:
        item = queue.popleft()
        if isinstance(item, jobs.Expand):
            queue.extendleft(reversed(item.fn()))
            continue
        if tracer is not None:
            tracer.job = item.id
        t0 = time.perf_counter()
        crashed, detail = False, None
        try:
            outcome = item.fn()
        except Exception as exc:  # a crash is a wrong verdict; keep going
            outcome, crashed, detail = None, True, repr(exc)
        t1 = time.perf_counter()
        if meter.due():
            meter.probe()
        ctx.after_child()
        right = not crashed and jobs.judge(item, outcome)
        if not right and detail is None:
            detail = "got %r, want %r" % (outcome, item.want)
        done.append((item, t0, t1, right, crashed, detail))
    meter.probe()
    if tracer is not None:
        tracer.job = spans.SETUP
    results = [Result(item.id, *meter.scaled(t0, t1), right, crashed,
                      item.defect, detail)
               for item, t0, t1, right, crashed, detail in done]
    return (results, sum(r.seconds for r in results),
            sum(r.raw for r in results))


def measure(workload, seed, seconds, ctx, setups, meters):
    """Rounds of fresh inputs for about ``seconds``: a further round starts
    only while the rounds so far say it ends in time.  At least one round."""
    import jobs
    import spans
    build = jobs.BUILDERS[workload]
    rounds = []
    start = time.perf_counter()
    while True:
        if ctx.tracer is not None:
            ctx.tracer.reset()
            ctx.tracer.job = spans.SETUP
        items, setup, raw = timed(lambda: build(seed, ctx), meters[0])
        setups.append((setup, raw))
        gc.collect()
        results, wall, raw_wall = run_round(items, ctx, meters[1])
        layers = None
        if ctx.tracer is not None:
            # self times get the round's mean scale, like the jobs
            scale = wall / raw_wall if raw_wall else 1.0
            layers = {k: v * scale if k.endswith("_s") else v for k, v in
                      spans.layer_round(*ctx.tracer.totals()).items()}
        rounds.append(Round(results, wall, raw_wall, layers))
        del items
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def time_setups(workload, seed, ctx, n, meter):
    import jobs
    out = []
    for _ in range(n):
        _, setup, raw = timed(
            lambda: jobs.BUILDERS[workload](seed, ctx), meter)
        out.append((setup, raw))
    gc.collect()
    return out


def import_ms():
    """Median time of a fresh ``import dblcheck.cli`` minus that of a bare
    interpreter, in ms, from alternating child processes."""
    env = child_env()
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for code, acc in (("pass", bare), ("import dblcheck.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, stdin=subprocess.DEVNULL)
            acc.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1000.0


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else \
        resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- metrics ------------------------------------------------------------------


def quantile(values, q):
    """Linear-interpolation quantile, the 'inclusive' method."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def unit_of(name):
    if name.endswith("_ms") or name.startswith("verdict_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def speed_summary(meter):
    speeds = [x[1] for x in meter.samples]
    return {"probes": len(speeds), "median": statistics.median(speeds),
            "q1": quantile(speeds, 0.25), "q3": quantile(speeds, 0.75)}


def per_job_ms(rounds, field):
    """Each job's median time over the rounds, in ms.  The percentiles are
    taken over these: explicit-build's median job sits at the lower edge of
    a cluster of 256 membership checks, just above 240 that take half as
    long, where a few one-off slow calls moved the median of single timings
    by 15% from run to run."""
    times = {}
    for rd in rounds:
        for r in rd.results:
            times.setdefault(r.id, []).append(getattr(r, field) * 1000.0)
    return [statistics.median(v) for v in times.values()]


def summarize(workload, rounds, setups, meters, extra_jobs=()):
    """End-to-end metrics plus the verdict tally of every job run."""
    results = [r for rd in rounds for r in rd.results] + list(extra_jobs)
    job_ms = per_job_ms(rounds, "seconds")
    per_round = len(rounds[0].results)
    wrong = [r for r in results if not r.right]
    metrics = {
        "setup_s": statistics.median(x[0] for x in setups),
        "wall_s": statistics.median(rd.wall for rd in rounds),
        "verdict_ms_p50": statistics.median(job_ms),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    raw_ms = per_job_ms(rounds, "raw")
    info = {
        "jobs_per_round": per_round,
        "rounds": len(rounds),
        "round_walls": [rd.wall for rd in rounds],
        "raw": {
            "setup_s": statistics.median(x[1] for x in setups),
            "wall_s": statistics.median(rd.raw_wall for rd in rounds),
            "verdict_ms_p50": statistics.median(raw_ms),
        },
        "speed": speed_summary(meters[1]),
        "job_kinds": kinds(rounds[0].results),
        "attempted": len(results),
        "crashed": sum(r.crashed for r in results),
        "wrong": len(wrong),
        "wrong_known_defect": sum(r.defect is not None for r in wrong),
        "wrong_verdict_ratio": len(wrong) / len(results),
        "verdict_ms_p90": (quantile(job_ms, 0.9)
                           if per_round >= P90_MIN_JOBS else None),
        "wrong_jobs": sorted({"%s%s: %s" % (
            r.id, " (ROADMAP defect %d)" % r.defect if r.defect else "",
            r.detail) for r in wrong}),
    }
    if any(len(rd.results) != per_round for rd in rounds):
        info["warning"] = "job count differs between rounds"
    return metrics, info


def kinds(results):
    return dict(Counter(r.id.split(":")[0] for r in results))


def layer_metrics(rounds):
    """Counts and ratios from the first traced round (they repeat exactly),
    self times as the median over traced rounds."""
    first = rounds[0].layers
    out = {}
    for name, value in first.items():
        if name.endswith("_s"):
            out[name] = statistics.median(rd.layers[name] for rd in rounds)
        else:
            out[name] = value
    drift = sorted(n for n in first if not n.endswith("_s")
                   and any(rd.layers[n] != first[n] for rd in rounds))
    return out, drift


# -- one run --------------------------------------------------------------------


def run(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, "tmp-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # one core for the run and the children it starts: the host's cores
    # drift apart in speed, and the probes must time the core a cli child
    # runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        # set-ups run in-process, cli jobs in children; probes inside jobs
        # would land in the spans of a traced run
        child = args.workload == "cli"
        with Speedometer(loop_probe, LOOP_PROBE_S,
                         inside=not (args.trace or child)) as loop:
            jobs_meter = (Speedometer(start_probe, START_PROBE_S) if child
                          else loop)
            return _run(args, Ctx(tmp), (loop, jobs_meter))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, ctx, meters):
    import spans
    setups = time_setups(args.workload, args.seed, ctx, SETUP_REPEATS - 1,
                         meters[0])
    if not args.trace:
        rounds = measure(args.workload, args.seed, args.seconds, ctx, setups,
                         meters)
        metrics, info = summarize(args.workload, rounds, setups, meters)
        layers, drift = {}, []
    else:
        base = measure(args.workload, args.seed, 0, ctx, [], meters)
        ctx.tracer = spans.Tracer()
        ctx.tracer.install()
        rounds = measure(args.workload, args.seed, args.seconds, ctx, setups,
                         meters)
        metrics, info = summarize(args.workload, rounds, setups, meters,
                                  base[0].results)
        layers, drift = layer_metrics(rounds)
        path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (
            args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump(ctx.tracer.dump(), fh)
        layers["cli.import_ms"] = (import_ms() if args.workload == "cli"
                                   else 0.0)
        layers["trace.overhead_s"] = metrics["wall_s"] - base[0].wall
        if drift:
            info["warning"] = "counts differ between traced rounds: %s" % (
                ", ".join(drift))
    correct = info["wrong"] == info["wrong_known_defect"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rev": git_rev(), "src_digest": src_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "correct": correct,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted({**metrics, **layers}.items())},
        **{k: v for k, v in info.items() if k != "wrong_jobs"},
        "wrong_jobs": info["wrong_jobs"],
    }
    out = args.out or os.path.join(OUT_DIR, "results.jsonl")
    with open(out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print_report(record, metrics, info, layers)
    shown = layers if args.trace else metrics
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["crashed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in sorted(shown.items())},
    }))
    return 0


def print_report(record, metrics, info, layers):
    print("dblcheck benchmark: workload %s, seed %d, %ss, trace %d%s" % (
        record["workload"], record["seed"], record["seconds"],
        record["trace"], " (end-to-end figures from traced rounds)"
        if record["trace"] else ""))
    print("rev %s, src %s, python %s, nproc %s" % (
        record["rev"], record["src_digest"], record["python"],
        record["nproc"]))
    print("jobs: %d per round x %d rounds; %d attempted, %d crashed; kinds %s"
          % (info["jobs_per_round"], info["rounds"], info["attempted"],
             info["crashed"], json.dumps(info["job_kinds"], sort_keys=True)))
    print("wrong verdicts: %d of %d (%d from known ROADMAP defects)" % (
        info["wrong"], info["attempted"], info["wrong_known_defect"]))
    for line in info["wrong_jobs"]:
        print("  WRONG %s" % line)
    if "warning" in info:
        print("WARNING: %s" % info["warning"])
    rows = dict(metrics)
    rows["wrong_verdict_ratio"] = info["wrong_verdict_ratio"]
    rows["verdict_ms_p90"] = info["verdict_ms_p90"]
    for name in ("setup_s", "wall_s", "verdict_ms_p50", "verdict_ms_p90",
                 "wrong_verdict_ratio", "peak_rss_mb"):
        value = rows[name]
        if value is None:
            print("  %-40s not reported: under %d jobs per round" % (
                name, P90_MIN_JOBS))
        elif name == "wrong_verdict_ratio":
            print("  %-40s %.4f (%d of %d jobs)" % (
                name, value, info["wrong"], info["attempted"]))
        else:
            print("  %-40s %.4f %s" % (name, value, unit_of(name)))
    sp = info["speed"]
    print("host speed %.3f [%.3f, %.3f] over %d probes; unscaled: %s" % (
        sp["median"], sp["q1"], sp["q3"], sp["probes"], ", ".join(
            "%s %.4f" % kv for kv in sorted(info["raw"].items()))))
    for name in sorted(layers):
        print("  %-40s %.6g %s" % (name, layers[name], unit_of(name)))


# -- compare and self-check ---------------------------------------------------


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    if not values:
        return "%28s" % "-"
    med = statistics.median(values)
    return "%10.4g [%.4g, %.4g] n=%d" % (
        med, quantile(values, 0.25), quantile(values, 0.75), len(values))


def compare(path_a, path_b):
    """Medians and quartiles per metric, one row per workload."""
    a, b = load(path_a), load(path_b)
    print("A = %s\nB = %s" % (path_a, path_b))
    for trace in (0, 1):
        names = sorted({n for r in a + b if r["trace"] == trace
                        for n in r["metrics"]})
        for name in names:
            print("\n%s (%s), trace %d" % (name, unit_of(name), trace))
            for w in WORKLOADS:
                def vals(recs):
                    return [r["metrics"][name]["value"] for r in recs
                            if r["workload"] == w and r["trace"] == trace
                            and name in r["metrics"]]
                va, vb = vals(a), vals(b)
                if not va and not vb:
                    continue
                ratio = ""
                if va and vb and statistics.median(va):
                    ratio = "B/A %.3f" % (statistics.median(vb)
                                          / statistics.median(va))
                print("  %-15s A %s | B %s | %s" % (w, spread(va), spread(vb),
                                                    ratio))
    return 0


def selfcheck(workload, seed):
    """Two traced runs of this checkout at one seed must give equal counts."""
    records = []
    for i in range(2):
        path = os.path.join(OUT_DIR, "selfcheck-%d-%d.jsonl" % (os.getpid(), i))
        try:
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", workload, "--seed", str(seed),
                            "--seconds", "1", "--trace", "1", "--out", path],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            records.append(load(path)[-1])
        finally:
            if os.path.exists(path):
                os.remove(path)
    keys = ["jobs_per_round", "job_kinds"]
    rows = [(k, records[0][k], records[1][k]) for k in keys]
    rows += [(n, records[0]["metrics"][n]["value"],
              records[1]["metrics"][n]["value"])
             for n in sorted(records[0]["metrics"])
             if unit_of(n) in ("count", "ratio") and n != "wrong_verdict_ratio"]
    drift = [r for r in rows if r[1] != r[2]]
    for name, x, y in rows:
        print("%-6s %-36s %s %s" % ("DRIFT" if x != y else "ok", name, x, y))
    print("selfcheck %s seed %d: %s" % (
        workload, seed, "DRIFT in %d counts" % len(drift) if drift
        else "counts repeat exactly"))
    return 1 if drift else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="results file to append to")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two results files")
    ap.add_argument("--selfcheck", action="store_true",
                    help="check that counts repeat across two runs")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not program_present():
        print("bench: no dblcheck sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    if args.workload is None:
        ap.error("--workload is required")
    if args.selfcheck:
        return selfcheck(args.workload, args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
