"""Benchmark worker: runs ops inside one fresh interpreter.

    python3 worker.py session SPEC OUT          # oracles / warm-session ops
    python3 worker.py cli OUT SPANS OP_ID ARG...  # one traced CLI request

``session`` reads a JSON spec (workload, ops, op_timeout and, when traced,
spans_path) and writes per-op latencies and results to OUT. ``cli`` is the
traced replay of one cold-constants request: it calls
``bernfac.cli.run(argv)`` and writes the exit code and captured output to
OUT. Spans go to their own gzipped JSON file. The bernfac package is found
through PYTHONPATH, which the harness sets.

OUT also holds ``clock``: the worker's first moment and the moment its ops
ended, on ``time.perf_counter`` (the system-wide monotonic clock on Linux),
so the harness can time interpreter start and exit from outside.
"""

import time

STARTED = time.perf_counter()  # before any other import: the worker's first moment

import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from tracer import Tracer, install  # noqa: E402

# Nothing outside the standard library is imported before ``_import_bernfac``,
# so the ``import`` span holds bernfac's whole import, mpmath included.


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so library code cannot catch it."""


def _alarm(signum, frame):
    raise OpTimeout()


def _write_spans(tracer, path):
    with gzip.open(path, "wt", compresslevel=1) as f:
        json.dump(tracer.dump(), f)


def _import_bernfac(tracer):
    start = time.perf_counter()
    import bernfac.cli  # noqa: F401
    if tracer is not None:
        end = time.perf_counter()
        tracer.span("bench.start", STARTED, start)
        tracer.span("import", start, end)
        tracer.begin("bench.install")
        install(tracer)
        tracer.end()


# -- ops --------------------------------------------------------------------

def warm_op(op, constants, precision):
    """One library request: route call plus .digits(d) on every result."""
    route, params, digits = op
    result = getattr(constants, route)(*params, precision.make_context(digits))
    values = result if isinstance(result, tuple) else (result,)
    texts = [v.digits(digits) if isinstance(v, constants.ConstantReport)
             else precision.round_to_digits(v, digits) for v in values]
    return values, texts


def warm_payload(values, texts):
    from reference import exact_fraction  # after bernfac, so outside the import span

    # a ConstantReport (it has .digits) holds its BoundedReal in .value
    bounded = [v.value if hasattr(v, "digits") else v for v in values]
    return {"texts": texts,
            "bounds": [str(exact_fraction(b.abs_err)) for b in bounded]}


def oracle_op(op, verify, precision):
    kind = op["op"]
    ctx = precision.make_context(20)
    if kind == "identity_suite":
        reports = verify.identity_suite()
        return {"reports": len(reports),
                "passed": sum(r.status != "FAIL" for r in reports)}
    if kind == "ratio_suite":
        (report,) = verify.ratio_suite([op["target"]], op["grid"], ctx)
        return {"monotone": report.monotone_tail, "gaps": report.gaps}
    if kind == "milnor_equivalence_check":
        report = verify.milnor_equivalence_check(ctx=ctx)
        return {"monotone": report.monotone_tail, "gaps": report.gaps}
    if kind == "eta_identity_check":
        report = verify.eta_identity_check(op["P"], ctx)
    else:
        report = verify.abelian_average_check(op["N"], ctx)
    return {"status": report.status, "gap": report.gap,
            "tolerance": report.params["tolerance"]}


def run_session(spec):
    tracer = Tracer() if spec.get("spans_path") else None
    _import_bernfac(tracer)
    from bernfac import constants, precision, verify

    signal.signal(signal.SIGALRM, _alarm)
    warm = spec["workload"] == "warm-session"
    clock = time.perf_counter
    ops, first = [], {}
    for index, op in enumerate(spec["ops"]):
        if tracer is not None:
            tracer.op = index
            tracer.begin("bench.op")  # the harness work around the op
        signal.setitimer(signal.ITIMER_REAL, spec["op_timeout"])
        start = clock()
        try:
            if warm:
                values, texts = warm_op(op, constants, precision)
            else:
                payload = oracle_op(op, verify, precision)
            latency = clock() - start
        except OpTimeout:
            latency, payload = clock() - start, {"error": "timeout"}
            values = None
        except Exception as exc:  # record the failure and keep running
            latency, payload = clock() - start, {"error": repr(exc)}
            values = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if warm and values is not None:
            # results of one key must repeat exactly; check each text once
            key = json.dumps(op)
            if key not in first:
                first[key] = texts
                payload = warm_payload(values, texts)
            elif texts != first[key]:
                payload = {"error": f"result changed: {texts} != {first[key]}"}
            else:
                payload = {"repeat": True}
        if tracer is not None:
            tracer.end()
        ops.append({"latency": latency, "result": payload})
    done = clock()
    if tracer is not None:
        _write_spans(tracer, spec["spans_path"])
    return {"ops": ops, "clock": [STARTED, done],
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run_cli(spans_path, op_id, argv):
    tracer = Tracer()
    tracer.op = op_id
    _import_bernfac(tracer)
    import bernfac.cli

    out, err = io.StringIO(), io.StringIO()
    tracer.begin("bench.op")
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = bernfac.cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    tracer.end()
    done = time.perf_counter()
    _write_spans(tracer, spans_path)
    return {"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "clock": [STARTED, done]}


def main(argv):
    if argv[0] == "session":
        with open(argv[1]) as f:
            result = run_session(json.load(f))
        out_path = argv[2]
    else:
        out_path = argv[1]
        result = run_cli(argv[2], int(argv[3]), argv[4:])
    with open(out_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
