"""signject benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a signject checkout; signject is imported from ./src.
One client calls the program in a closed loop, one operation at a time, in
this process. A run builds the workload's fixed inputs, then repeats whole
rounds of its operations (each round in an order drawn from --seed) for about
--seconds, checks every output with code that is independent of signject,
and prints one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced. With
--trace 1 the run makes one untraced and one traced round and reports the
per-layer metrics of the traced round; the trace is also written to
bench/out/. See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import os

# numpy, loaded by signject.oracle, must not start BLAS thread pools: the
# oracle calls SVD on tiny matrices and the reference machine has 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("route_pool", "sign_search", "crn_minors", "oracle_sampling")
SETUP_REPEATS = 5
# Median time of one calibration_kernel() call on the reference machine; the
# time metrics are scaled to that machine speed (see machine_factor).
KERNEL_REF_S = 0.0032
# Before the first operation and after each one the kernel runs for at least
# this share of the operation's time, and at least KERNEL_MIN_CALLS times.
KERNEL_SHARE = 0.05
KERNEL_MIN_CALLS = 1
# Interval of the kernel samples taken during an operation.
TICK_S = 0.05
# Run in a fresh interpreter with this directory as argv[1]: prints the import
# time, then the times of IMPORT_KERNEL_CALLS kernel calls made right after it,
# since that interpreter may run on another core than this one.
IMPORT_PROBE = """\
import sys, time
t = time.perf_counter()
import signject.cli
print(time.perf_counter() - t)
sys.path.insert(0, sys.argv[1])
from run import calibration_kernel, IMPORT_KERNEL_CALLS
for _ in range(IMPORT_KERNEL_CALLS):
    t = time.perf_counter()
    calibration_kernel()
    print(time.perf_counter() - t)
"""
IMPORT_KERNEL_CALLS = 10
LOC_MODULES = ("__init__", "cli", "crn", "descartes", "engine", "errors", "feasibility",
               "matroid", "oracle", "ratmat", "signs")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_s", "s"),
    ("op_p95_s", "s"),
    ("peak_rss_mb", "MB"),
)


CALLS_AND_SELF = ("ratmat.det", "ratmat.rref", "feasibility.solve_strict", "matroid.covectors",
                  "engine.construct_counterexample", "engine.evaluate_map")
SELF_ONLY = ("matroid.cocircuits", "engine.check_injectivity", "engine.check_minors",
             "engine.gamma_det_poly", "descartes.check_bnd", "descartes.check_ex",
             "crn.parse_network", "crn.preclude_multistationarity",
             "oracle.sampled_injectivity_search", "cli.main")
COUNTS = ("matroid.sign_vectors", "engine.check_minors.pairs", "engine.witness_retries",
          "crn.steady_state_lps", "oracle.samples", "oracle.candidates",
          "oracle.violations", "oracle.exact_lps")


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["feasibility.solve_strict.feasible_ratio"] = "ratio"
    units["feasibility.feasible_sign_pair.calls"] = "count"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    for module in LOC_MODULES:
        units[f"loc.{module}"] = "lines"
    units["loc.src"] = "lines"
    units["trace.overhead_s"] = "s"
    return units


# -- machine speed ------------------------------------------------------------


def calibration_kernel():
    """Fixed pure-Python work like signject's own: Fraction elimination of an 11 x 11 matrix.

    It uses nothing of signject, so a change to the program cannot change its
    time; only the speed the shared machine gives this process can. Of the
    kernels tried (a smaller matrix, dict and list churn, an integer loop, a
    long Fraction sum, tiny numpy SVDs, mixtures), this one followed the
    operations' drift most closely.
    """
    n = 11
    rows = [[Fraction((i * 7 + j * 3) % 13 - 6, 1 + (i + j) % 5) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return rows


def machine_factor(kernel_times):
    """Reference kernel time over the median of kernel_times.

    The shared host lends this process a speed that drifts by a third within
    seconds and in some minutes doubles. The kernel, timed just before, during and
    just after an operation, follows that drift; the operation's time
    multiplied by this factor is the time the reference machine would take.
    """
    return KERNEL_REF_S / statistics.median(kernel_times)


class SpeedProbe:
    """Times calibration_kernel() between timed calls and, from a SIGALRM
    handler every TICK_S of wall time, during them."""

    def __init__(self):
        self.samples = []  # (start, duration) of every kernel call

    def _sample(self, *_):
        t0 = perf_counter()
        calibration_kernel()
        self.samples.append((t0, perf_counter() - t0))

    def gap(self, at_least_s=0.0):
        """Kernel times of KERNEL_MIN_CALLS calls, and more until at_least_s has passed."""
        times = []
        while len(times) < KERNEL_MIN_CALLS or sum(times) < at_least_s:
            self._sample()
            times.append(self.samples[-1][1])
        return times

    def spent(self, since, until):
        """Seconds of kernel calls that started in [since, until)."""
        return sum(d for t, d in self.samples if since <= t < until)

    def time(self, fn):
        """(fn(), its seconds less the kernel's, the kernel times taken during it)."""
        first = len(self.samples)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = perf_counter()
            signal.signal(signal.SIGALRM, previous)
        during = [(t, d) for t, d in self.samples[first:] if t < t1]
        return result, t1 - t0 - sum(d for _, d in during), [d for _, d in during]


# -- set-up -------------------------------------------------------------------


def import_seconds():
    """Time to import signject.cli in a fresh interpreter (measured inside it),
    scaled by the kernel times taken in that interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, HERE], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    seconds, *kernel_times = (float(line) for line in probe.stdout.split())
    return seconds * machine_factor(kernel_times)


def set_up(builder, scratch):
    """Import and build the inputs SETUP_REPEATS times; return (median set-up
    seconds, each part scaled by machine_factor, last workload)."""
    totals = []
    probe = SpeedProbe()
    before = probe.gap()
    workload = None
    for i in range(SETUP_REPEATS):
        import_s = import_seconds()
        workdir = os.path.join(scratch, f"inputs{i}")
        os.makedirs(workdir)
        workload, build_s, during = probe.time(lambda: builder(workdir))
        after = probe.gap(KERNEL_SHARE * build_s)
        totals.append(import_s + build_s * machine_factor(before + during + after))
        before = after
    return statistics.median(totals), workload


# -- the closed loop ----------------------------------------------------------


class Round:
    def __init__(self):
        self.wall = 0.0  # the round's wall time, less the kernel's
        self.latencies = {}
        self.scaled = {}  # each latency times its machine_factor
        self.results = {}
        self.failed = 0

    def scaled_wall(self):
        """The wall time scaled by the latency-weighted machine factor."""
        raw = sum(self.latencies.values())
        return self.wall * sum(self.scaled.values()) / raw if raw else self.wall


def run_round(ops, rnd, speed=True):
    """One pass over every operation, in an order drawn from rnd.

    With speed, the machine's speed is sampled before, during and after each
    operation (see SpeedProbe) and Round.scaled is filled; the traced run
    leaves it out, so that the kernel's time stays out of the spans.
    """
    order = list(ops)
    rnd.shuffle(order)
    out = Round()
    probe = SpeedProbe()
    before = probe.gap() if speed else None
    sink = io.StringIO()  # the one-line summaries signject prints to stderr
    start = perf_counter()
    with contextlib.redirect_stderr(sink):
        for op in order:
            op.prepare()
            try:
                if speed:
                    raw, t, during = probe.time(op.execute)
                else:
                    t0 = perf_counter()
                    raw = op.execute()
                    t = perf_counter() - t0
            except Exception:
                out.failed += 1
                print(f"{op.key}: raised", file=sys.__stderr__)
                traceback.print_exc(file=sys.__stderr__)
                continue
            out.latencies[op.key] = t
            if speed:
                after = probe.gap(KERNEL_SHARE * t)
                out.scaled[op.key] = t * machine_factor(before + during + after)
                before = after
            code, data = op.collect(raw)
            if code in (0, 3) and data:
                out.results[op.key] = (code, data)
            else:
                out.failed += 1
                print(f"{op.key}: exit code {code}", file=sys.__stderr__)
            sink.seek(0)
            sink.truncate()
    end = perf_counter()
    out.wall = end - start - probe.spent(start, end)
    return out


def differing_outputs(reference, other):
    return sorted(key for key in reference.results
                  if key in other.results and other.results[key] != reference.results[key])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def op_percentiles(rounds, times):
    """(p50, p95) over operations of each one's median time over the rounds.

    The per-operation median keeps a burst of load on the machine from
    landing on one percentile. times names the Round field to read.
    """
    samples = {}
    for r in rounds:
        for key, t in getattr(r, times).items():
            samples.setdefault(key, []).append(t)
    op_times = [statistics.median(v) for v in samples.values()]
    return statistics.median(op_times), percentile(op_times, 95)


def measure(workload, seed, seconds):
    # the modules the operations call are loaded before the clock starts;
    # set-up already times the import
    for module in {op.module for op in workload.ops}:
        importlib.import_module(module)
    rnd = random.Random(seed)
    first = run_round(workload.ops, rnd)
    rounds = [first]
    for _ in range(max(1, round(seconds / first.wall)) - 1):
        rounds.append(run_round(workload.ops, rnd))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    operations = sum(len(r.latencies) for r in rounds)
    metrics = {"ops_per_s": operations / sum(r.scaled_wall() for r in rounds)}
    metrics["op_p50_s"], metrics["op_p95_s"] = op_percentiles(rounds, "scaled")
    metrics["peak_rss_mb"] = peak_rss_mb
    unscaled = operations / sum(r.wall for r in rounds), *op_percentiles(rounds, "latencies")
    print(f"{len(rounds)} rounds; unscaled ops_per_s, op_p50_s, op_p95_s: "
          + ", ".join(f"{v:.6g}" for v in unscaled), file=sys.stderr)
    problems = [f"{key}: output differs between rounds"
                for r in rounds[1:] for key in differing_outputs(first, r)]
    return rounds, metrics, problems


def lines_of_code(path):
    with open(path) as fh:
        return sum(1 for line in fh if line.strip() and not line.strip().startswith("#"))


def trace(workload, seed):
    from tracer import Tracer

    rnd = random.Random(seed)
    untraced = run_round(workload.ops, rnd, speed=False)
    tracer = Tracer()
    with tracer:
        traced = run_round(workload.ops, rnd, speed=False)
    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = tracer.calls(name)
        metrics[f"{name}.self_s"] = tracer.self_s(name)
    lps = tracer.calls("feasibility.solve_strict")
    metrics["feasibility.solve_strict.feasible_ratio"] = (
        tracer.counts["feasibility.solve_strict.feasible"] / lps if lps else 0.0)
    metrics["feasibility.feasible_sign_pair.calls"] = tracer.calls("feasibility.feasible_sign_pair")
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = tracer.self_s(name)
    for name in COUNTS:
        metrics[name] = tracer.counts[name]
    package = os.path.join(SRC, "signject")
    for module in LOC_MODULES:
        path = os.path.join(package, f"{module}.py")
        metrics[f"loc.{module}"] = lines_of_code(path) if os.path.exists(path) else 0
    metrics["loc.src"] = sum(lines_of_code(os.path.join(package, name))
                             for name in os.listdir(package) if name.endswith(".py"))
    metrics["trace.overhead_s"] = traced.wall - untraced.wall
    problems = [f"{key}: traced output differs from the untraced output"
                for key in differing_outputs(untraced, traced)]
    record = {"workload": workload.name, "seed": seed, "untraced_wall_s": untraced.wall,
              "traced_wall_s": traced.wall, **tracer.to_json_dict()}
    with open(os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return [untraced, traced], metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "signject")):
        print(f"error: no src/signject under {ROOT}; run from the root of a signject checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        builder = workloads.BUILDERS[args.workload]
        if args.trace:
            workload = builder(scratch)
            rounds, metrics, problems = trace(workload, args.seed)
            units = per_layer_units()
        else:
            setup_s, workload = set_up(builder, scratch)
            rounds, metrics, problems = measure(workload, args.seed, args.seconds)
            metrics["setup_s"] = setup_s
            units = dict(END_TO_END)
        problems += workload.verify(rounds[0].results)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(workload.ops) for _ in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
