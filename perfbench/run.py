"""bernfac benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one report

Run from the repository root; the package is taken from ``src/``. Each
workload is a closed loop with one client and no threads: the next request
starts when the previous one has ended.

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics. ``--trace 1`` runs the same inputs untraced and then again with
spans around every call into bernfac's modules, and prints the per-layer
metrics (see tracer.py) with the tracing overhead. Every op's output is
checked against an independent mpmath reference or its own oracle gate,
outside the timed region (see reference.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
report the environment, the counts of ok, refused and failed ops, every
metric with its unit, the measured workload properties and any failed op
with its inputs. Each run also leaves a record (and, when traced, its spans)
under ``.perfbench_runs/`` in the repository root.
"""

import argparse
import contextlib
import glob
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import mpmath

import reference
import tracer
import workloads
from reference import FAILED, OK, REFUSED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_runs")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 3  # taken at the start of a run and after each pass
OP_TIMEOUT_S = {"cold-constants": 60, "oracles": 60, "warm-session": 30}
RUN_BUDGET_S = 150  # every run must end well inside 180 s
UNTRACED_SHARE_WHEN_TRACING = 0.4

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
                    "latency_tail_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


# -- environment and set-up ------------------------------------------------------

def calibration_s():
    """Median of three timings of a fixed pure-Python loop (reported only)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def environment():
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "calibration_start_s": calibration_s()}


IMPORT_PROBE = ("import time; t = time.perf_counter(); import bernfac.cli; "
                "print(time.perf_counter() - t)")


def import_samples(env, count):
    """Times to import bernfac.cli, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60)
        samples.append(float(out.stdout))
    return samples


# -- running ops ---------------------------------------------------------------

def _cli_params(argv):
    params = {}
    for flag in ("--k", "--r", "--digits"):
        if flag in argv:
            params[flag[2:]] = int(argv[argv.index(flag) + 1])
    return params


def _outside_s(result, start, end):
    """Harness time outside a worker's own clock: interpreter start and exit."""
    first, done = result["clock"]
    return (first - start) + (end - done)


def run_cold(units, trace, deadline, env, run_dir):
    """Each request in a fresh interpreter; latency is the process wall."""
    ops, wall, outside = [], 0.0, 0.0
    requests = [argv for unit in units for argv in unit]
    for op_id, argv in enumerate(requests):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            ops.append({"inputs": argv, "latency": None, "error": "run deadline"})
            continue
        out_path = os.path.join(run_dir, "cli.json")
        if trace:
            spans_path = os.path.join(run_dir, f"spans-{op_id}.json.gz")
            cmd = [sys.executable, WORKER, "cli", out_path, spans_path,
                   str(op_id), *argv]
        else:
            cmd = [sys.executable, "-m", "bernfac", *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True,
                                  timeout=min(OP_TIMEOUT_S["cold-constants"],
                                              remaining))
        except subprocess.TimeoutExpired:
            latency = time.perf_counter() - start
            wall += latency
            ops.append({"inputs": argv, "latency": latency, "error": "timeout"})
            continue
        end = time.perf_counter()
        latency = end - start
        wall += latency
        op = {"inputs": argv, "latency": latency, "rc": proc.returncode,
              "stdout": proc.stdout, "stderr": proc.stderr}
        if trace:
            if proc.returncode != 0:
                op["error"] = f"traced worker crashed: {proc.stderr[-500:]}"
            else:
                with open(out_path) as f:
                    op.update(json.load(f))
                outside += _outside_s(op, start, end)
        ops.append(op)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"ops": ops, "wall": wall, "peak_kb": peak_kb, "outside_s": outside}


def run_in_process(workload, units, trace, deadline, env, run_dir):
    """Each unit (oracle suite or warm session) in one fresh worker process."""
    ops, wall, peak_kb, outside = [], 0.0, 0, 0.0
    for index, unit in enumerate(units):
        spec_path = os.path.join(run_dir, "spec.json")
        out_path = os.path.join(run_dir, "out.json")
        spec = {"workload": workload, "ops": unit,
                "op_timeout": OP_TIMEOUT_S[workload]}
        if trace:
            spec["spans_path"] = os.path.join(run_dir, f"spans-{index}.json.gz")
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        remaining = deadline - time.monotonic()
        error = None
        start = time.perf_counter()
        if remaining <= 0:
            error = "run deadline"
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, WORKER, "session", spec_path, out_path],
                    env=env, cwd=ROOT, capture_output=True, text=True,
                    timeout=remaining)
                if proc.returncode != 0:
                    error = f"worker crashed: {proc.stderr[-500:]}"
            except subprocess.TimeoutExpired:
                error = "run deadline"
        end = time.perf_counter()
        wall += end - start
        if error:  # no op of this unit has a latency
            ops += [{"inputs": op, "latency": None, "error": error} for op in unit]
            continue
        with open(out_path) as f:
            result = json.load(f)
        peak_kb = max(peak_kb, result["maxrss_kb"])
        outside += _outside_s(result, start, end)
        first_of_key = {}
        for op, done in zip(unit, result["ops"]):
            record = {"inputs": op, "latency": done["latency"], **done["result"]}
            if workload == "warm-session":
                key = json.dumps(op)
                if "texts" in record:
                    first_of_key[key] = record
                elif record.get("repeat"):
                    record["first"] = first_of_key[key]
            ops.append(record)
    return {"ops": ops, "wall": wall, "peak_kb": peak_kb, "outside_s": outside}


def run_ops(workload, units, trace, deadline, env, run_dir):
    """Run every op once: {ops, wall, peak_kb, outside_s}.

    ``wall`` is the summed wall time of the processes started; ``outside_s``
    (traced runs only) is the part of it before each worker's first moment
    and after its last op: interpreter start and exit, span writing.
    """
    if workload == "cold-constants":
        return run_cold(units, trace, deadline, env, run_dir)
    return run_in_process(workload, units, trace, deadline, env, run_dir)


# -- correctness ----------------------------------------------------------------

TABLE_ROW_SELECTORS = {"b-constants": lambda name: (name, {}),
                       "fr1-constants": lambda name: (
                           "F_r1", {"r": int(name[2:name.index(",")])})}


def check_table(refs, name, rows, digits):
    verdicts = []
    for row in rows:
        selector, params = TABLE_ROW_SELECTORS[name](row["name"])
        verdicts.append(reference.check_value(
            refs, selector, params, digits, row["value"], row["bound"]))
    return reference.worst(verdicts)


def classify_cli(refs, op):
    if "error" in op:
        return FAILED, op["error"]
    argv, rc = op["inputs"], op["rc"]
    if rc == 1 and op["stderr"].startswith("precision failure"):
        return REFUSED, op["stderr"].strip()
    if rc != 0:
        return FAILED, f"exit {rc}: {op['stderr'].strip()[-300:]}"
    try:
        record = json.loads(op["stdout"])
    except ValueError:
        return FAILED, "unparsable output"
    params = _cli_params(argv)
    if argv[0] == "table":
        return check_table(refs, argv[1], record, params["digits"]), ""
    verdict = reference.check_value(refs, argv[1], params, params["digits"],
                                    record["value"], record["bound"])
    return verdict, f"value={record['value']} bound={record['bound']}"


def classify(workload, refs, op):
    """(verdict, detail) for one op record; computed outside timing."""
    if workload == "cold-constants":
        return classify_cli(refs, op)
    if "error" in op:
        return FAILED, op["error"]
    if workload == "oracles":
        return reference.check_oracle(op["inputs"], op), ""
    first = op.get("first", op)
    if "verdict" not in first:
        route, params, digits = op["inputs"]
        first["verdict"] = reference.check_route(
            refs, route, params, digits, first["texts"], first["bounds"])
    return first["verdict"], ""


def classify_all(workload, refs, ops):
    for op in ops:
        op["verdict"], op["detail"] = classify(workload, refs, op)


# -- metrics --------------------------------------------------------------------

def tail_percentile(latencies, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond, sample count). When that
    percentile would fall below the median (fewer than 2 * (beyond + 1)
    samples, as in the 2 pass times of oracles), the maximum is reported
    instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    index = n - beyond - 1 if n >= 2 * (beyond + 1) else n - 1
    return xs[index], 100.0 * (index + 1) / n, n - index - 1, n


def counts(ops):
    c = Counter(op["verdict"] for op in ops)
    return {OK: c[OK], REFUSED: c[REFUSED], FAILED: c[FAILED]}


def end_to_end(ops, peak_kb, setup_s, samples=None):
    """The end-to-end metrics and the tail's (value, pct, beyond, n).

    An op that never ran (cut by the run deadline or a crashed worker) has
    no latency and is left out of the latency figures; it counts as failed.
    ``samples``, when given, replaces the op latencies in the median and the
    tail (see ``pass_seconds``).
    """
    latencies = [op["latency"] for op in ops if op["latency"] is not None]
    if not latencies:  # nothing ran; the run reports correct: false
        latencies = [0.0]
    done = sum(op["verdict"] != FAILED for op in ops)
    samples = samples or latencies
    tail = tail_percentile(samples)
    values = {
        "setup_s": setup_s,
        "ops_per_s": done / sum(latencies) if sum(latencies) else 0.0,
        "latency_p50_s": statistics.median(samples),
        "latency_tail_s": tail[0],
        "peak_rss_mb": peak_kb / 1024,
    }
    return values, tail


def pass_seconds(executions):
    """oracles: the summed op latency of each pass, one sample per pass.

    Its 15 ops are too few for percentiles, and the median op is a 15 ms
    check whose time jumps with the machine's speed spells. A pass is
    the whole suite, what ``bernfac verify all`` makes a user wait for, so
    oracles reports the median and the slowest pass as its latencies.
    """
    return [sum(op["latency"] for op in ops if op["latency"] is not None)
            for ops in executions]


def hit_and_miss(ops):
    """warm-session: latency medians of repeats (memo hits) and first uses.

    The workload's 98% repeat share is an assumption, so these are printed
    beside the end-to-end metrics: neither depends on the mix.
    """
    split = {"hit": [], "miss": []}
    for op in ops:
        if op["latency"] is not None and op["verdict"] != FAILED:
            split["hit" if "first" in op else "miss"].append(op["latency"])
    return {f"{kind}_latency_p50_s": statistics.median(xs) if xs else None
            for kind, xs in split.items()} | {
        f"{kind}_ops": len(xs) for kind, xs in split.items()}


def arith_overhead_x():
    """µs per BoundedReal mul over µs per raw mpf mul, both at 30 digits."""
    sys.path.insert(0, SRC)
    from bernfac.precision import BoundedReal

    with mpmath.workdps(30):
        a, b = mpmath.mpf(2).sqrt(), mpmath.mpf(3).sqrt()
        x = BoundedReal(a, mpmath.mpf(10) ** -30)
        y = BoundedReal(b, mpmath.mpf(10) ** -30)

        def best(fn, reps=2000):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(reps):
                    fn()
                times.append(time.perf_counter() - start)
            return min(times) / reps

        return best(lambda: x * y) / best(lambda: a * b)


def load_spans(run_dir):
    dumps = []
    for path in glob.glob(os.path.join(run_dir, "spans-*.json.gz")):
        with gzip.open(path, "rt") as f:
            dumps.append(json.load(f))
    return dumps


def per_layer(dumps, traced_wall, untraced_wall, outside_s):
    """Per-layer metrics of a traced run.

    ``bench.self_s`` is measured, not inferred: the self time of the
    benchmark's own spans in the workers (start-up before the import,
    wrapping, the harness work around each op, the probes) plus
    ``outside_s``, the time the harness measured before each worker's first
    moment and after its last op. ``trace.unaccounted_s`` is what the
    traced wall time holds beyond module, import and benchmark time: the
    gaps between spans, which should be near 0 and never below it.
    """
    metrics = tracer.layer_metrics(*tracer.aggregate(dumps))
    metrics["precision.arith.overhead_x"] = arith_overhead_x()
    metrics["trace.overhead_x"] = traced_wall / untraced_wall
    metrics["bench.self_s"] += outside_s
    accounted = sum(metrics[f"{m}.self_s"] for m in (*tracer.MODULES, "import", "bench"))
    metrics["trace.unaccounted_s"] = traced_wall - accounted
    metrics["trace.spans"] = sum(len(d["spans"]) for d in dumps)
    return metrics


PER_LAYER_UNITS = {"self_s": "s", "total_s": "s", "calls": "count", "ops": "count",
                   "max_index": "count", "bits": "bits", "terms_scanned": "count",
                   "repeat_share": "share", "overhead_x": "x", "spans": "count",
                   "unaccounted_s": "s"}


def unit_of(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def properties(workload, units, ops):
    """Measured properties of the inputs, printed beside the workload's why."""
    if workload == "cold-constants":
        constant_ops = [op for op in ops if op["inputs"][0] == "constant"]
        high = sum(_cli_params(op["inputs"])["digits"] >= 100
                   for op in constant_ops)
        by_selector = defaultdict(list)
        for op in constant_ops:
            by_selector[op["inputs"][1]].append(op["verdict"] == REFUSED)
        return {"requests": len(ops), "table_share": 1 - len(constant_ops) / len(ops),
                "share_ge_100_digits": high / len(constant_ops),
                "refused_share_by_selector": {
                    s: sum(v) / len(v) for s, v in sorted(by_selector.items())}}
    if workload == "warm-session":
        repeats = sum(len(unit) - len({json.dumps(op) for op in unit})
                      for unit in units)
        return {"sessions": len(units), "requests": len(ops),
                "repeat_share": repeats / len(ops), **hit_and_miss(ops)}
    return {"suites": len(units),
            "grids": [unit[-1]["grid"] for unit in units],
            "eta_P": [unit[1]["P"] for unit in units],
            "abelian_N": [unit[2]["N"] for unit in units]}


# -- one run --------------------------------------------------------------------

@contextlib.contextmanager
def pinned_to(cpu):
    """Run this process, and the processes it starts, on one vCPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def median_of(executions):
    """One record per op: its median latency over passes and its worst verdict.

    The vCPUs of the shared host this was built on run in fast and slow
    spells 1.4-1.7x apart, from under a second to minutes long (the
    calibration loop shows both). An op's median over passes, on alternating
    vCPUs, follows the speed most of a run ran at and ignores a pass caught
    in an odd spell. The minimum follows whichever pass happens to catch a
    fast spell, and so spreads about twice as much from run to run.
    """
    merged = []
    for runs in zip(*executions):
        op = dict(runs[0])
        op["latencies"] = [r["latency"] for r in runs]
        ran = [x for x in op["latencies"] if x is not None]
        op["latency"] = statistics.median(ran) if ran else None
        op["verdict"] = reference.worst([r["verdict"] for r in runs])
        op["detail"] = next((r["detail"] for r in runs
                             if r["verdict"] == op["verdict"]), "")
        merged.append(op)
    return merged


def run(workload, seed, seconds, trace):
    started = time.monotonic()
    env = child_env()
    record = {"workload": workload, "why": workloads.WORKLOADS[workload],
              "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment()}
    run_dir = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    units = workloads.generate(workload, seed,
                               workloads.units_for(workload, seconds))
    import_samples(env, 1)  # writes the bytecode caches; not measured
    setup = import_samples(env, SETUP_SAMPLES)

    budget = RUN_BUDGET_S * (UNTRACED_SHARE_WHEN_TRACING if trace else 1)
    executions, untraced_wall, peak_kb = [], 0.0, 0
    refs = reference.References()  # shared by the passes: same inputs
    cpus = sorted(os.sched_getaffinity(0))
    for index in range(1 if trace else workloads.REPEATS[workload]):
        with pinned_to(cpus[index % len(cpus)]):
            done = run_ops(workload, units, False, started + budget, env, run_dir)
        classify_all(workload, refs, done["ops"])
        executions.append(done["ops"])
        untraced_wall, peak_kb = done["wall"], max(peak_kb, done["peak_kb"])
        setup += import_samples(env, SETUP_SAMPLES)
    if trace:
        with pinned_to(cpus[0]):  # the vCPU the untraced pass ran on
            traced = run_ops(workload, units, True, started + RUN_BUDGET_S,
                             env, run_dir)
        classify_all(workload, refs, traced["ops"])
        executions.append(traced["ops"])
    ops = median_of(executions)
    if trace:
        metrics = per_layer(load_spans(run_dir), traced["wall"], untraced_wall,
                            traced["outside_s"])
        units_of = {name: unit_of(name) for name in metrics}
        tail = None
    else:
        samples = pass_seconds(executions) if workload == "oracles" else None
        metrics, tail = end_to_end(ops, peak_kb, statistics.median(setup), samples)
        units_of = END_TO_END_UNITS
    failed_ops = [op for op in ops if op["verdict"] == FAILED]
    record["environment"]["calibration_end_s"] = calibration_s()
    record.update(
        setup_samples_s=setup, counts=counts(ops), tail=tail,
        properties=properties(workload, units, ops), metrics=metrics,
        failed_ops=[_brief(op) for op in failed_ops],
        ops=[_brief(op) for op in ops])
    with open(run_dir + ".json", "w") as f:
        json.dump(record, f, indent=1)
    return record, {
        "correct": not failed_ops,
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }


def _brief(op):
    return {"inputs": op["inputs"], "latencies": op["latencies"],
            "verdict": op["verdict"], "detail": op["detail"]}


def report(record, result):
    env = record["environment"]
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    c, n = record["counts"], result["attempted"]
    print(f"# workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['why']}")
    print(f"ops {n}: ok {c[OK]}, refused {c[REFUSED]}, failed {c[FAILED]} "
          f"(refused_frac {c[REFUSED] / n:.4f}, failed_frac {c[FAILED] / n:.4f})")
    for name, metric in result["metrics"].items():
        line = f"{name:32s} {metric['value']:.6g} {metric['unit']}"
        if name == "latency_tail_s" and record["tail"]:
            _, pct, beyond, total = record["tail"]
            line += f"  (p{pct:.2f}: {beyond} of {total} samples beyond)"
        print(line)
    print(f"properties {json.dumps(record['properties'], sort_keys=True)}")
    for op in record["failed_ops"]:
        print(f"FAILED {json.dumps(op['inputs'])}: {op['detail']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bernfac", "__init__.py")):
        print(f"error: no bernfac package under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        record, results[name] = run(name, args.seed, args.seconds, args.trace)
        report(record, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
