"""Tests of the benchmark itself: seeding, span self times, op verdicts.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import FAILED, OK, REFUSED  # noqa: E402


# -- seeding ----------------------------------------------------------------------

def test_same_seed_gives_identical_requests():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7, 2)
        assert first == workloads.generate(name, 7, 2)
        assert first != workloads.generate(name, 8, 2)


def test_units_follow_the_stated_mix():
    (cold,) = workloads.generate("cold-constants", 3, 1)
    assert {argv[1] for argv in cold if argv[0] == "constant"} == set(
        workloads.SELECTORS)
    (suite,) = workloads.generate("oracles", 3, 1)
    grid = suite[-1]["grid"]
    assert grid == sorted(set(grid)) and grid[-1] <= 100
    (session,) = workloads.generate("warm-session", 3, 1)
    assert len({json.dumps(key) for key in session}) == len(workloads.warm_keys())
    assert len(session) == 50 * len(workloads.warm_keys())


# -- spans ----------------------------------------------------------------------

def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [5, 9]
    spans = [[0, 0.0, 10.0, -1, 0], [1, 1.0, 4.0, 0, 0],
             [2, 2.0, 3.0, 1, 0], [1, 5.0, 9.0, 0, 0]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    calls, self_s, total_s, _ = tracer.aggregate(
        [{"names": ["root", "a", "b"], "spans": spans, "counters": {}}])
    assert calls == {"root": 1, "a": 2, "b": 1}
    assert self_s == {"root": 3.0, "a": 6.0, "b": 1.0}
    assert total_s["a"] == 7.0
    assert sum(self_s.values()) == 10.0


def test_wrapped_calls_record_parents():
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda x: x + 1)
    outer = t.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    names = [t.names[s[0]] for s in t.spans]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]


def test_probes_run_in_a_bench_span_beside_the_call():
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda x: x + 1,
                   probe=lambda *args: t.counters.__setitem__("seen", 1))
    outer = t.wrap("m.outer", lambda x: inner(x))
    assert outer(1) == 2 and t.counters["seen"] == 1
    names = [t.names[s[0]] for s in t.spans]
    assert names == ["m.outer", "m.inner", "bench.probe"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]  # the probe's parent is the caller


def test_worker_imports_no_mpmath_before_bernfac():
    import subprocess

    probe = "import sys, worker; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], cwd=BENCH, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_traced_session_accounts_for_its_wall_time(tmp_path):
    ops = [["c_constant", [1], 20], ["c_constant", [1], 20]]
    traced = run.run_ops("warm-session", [ops], True, time.monotonic() + 60,
                         run.child_env(), str(tmp_path))
    layers = run.per_layer(run.load_spans(str(tmp_path)), traced["wall"],
                           traced["wall"], traced["outside_s"])
    assert layers["constants.calls"] >= 2 and layers["bench.self_s"] > 0
    # module, import and benchmark time leave only the gaps between spans
    assert 0 <= layers["trace.unaccounted_s"] < 0.02 * traced["wall"]


def test_ops_cut_by_the_deadline_keep_their_real_latency():
    ran = {"inputs": "x", "latency": 2.0, "verdict": OK, "detail": ""}
    cut = {"inputs": "x", "latency": None, "verdict": FAILED, "detail": "run deadline"}
    (op,) = run.median_of([[ran], [cut]])
    assert op["latency"] == 2.0 and op["verdict"] == FAILED
    values, _ = run.end_to_end([op, dict(cut)], peak_kb=1024, setup_s=0.1)
    assert values["latency_p50_s"] == 2.0 and values["ops_per_s"] == 0.0


def test_oracle_latencies_are_pass_times():
    passes = [[{"latency": 1.0}, {"latency": 3.0}], [{"latency": 2.0}, {"latency": 5.0}],
              [{"latency": 1.5}, {"latency": None}]]
    assert run.pass_seconds(passes) == [4.0, 7.0, 1.5]
    ops = [{"latency": 1.0, "verdict": OK}, {"latency": 3.0, "verdict": OK}]
    values, tail = run.end_to_end(ops, peak_kb=1024, setup_s=0.1,
                                  samples=[4.0, 7.0, 5.0])
    assert (values["latency_p50_s"], values["latency_tail_s"]) == (5.0, 7.0)
    assert values["ops_per_s"] == 0.5 and tail[2:] == (0, 3)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond, n = run.tail_percentile(list(range(50)))
    assert (value, beyond, n) == (39, 10, 50) and pct == 80.0
    # too few samples for such a percentile above the median: the maximum
    assert run.tail_percentile(list(range(15)))[:3] == (14, 100.0, 0)


# -- verdicts -----------------------------------------------------------------------

C1_20 = "2.2948565916733137941"


def cli_op(value, bound="3.038e-23", rc=0, stderr=""):
    stdout = json.dumps({"name": "C1", "value": value, "bound": bound})
    return {"inputs": ["constant", "C1", "--digits", "20", "--json"],
            "latency": 0.1, "rc": rc, "stdout": stdout, "stderr": stderr}


def verdict(op):
    return run.classify_cli(run.reference.References(), op)[0]


def test_certified_value_inside_reference_is_ok():
    assert verdict(cli_op(C1_20)) == OK


def test_trailing_tilde_is_refused():
    assert verdict(cli_op(C1_20 + "~", bound="1e-15")) == REFUSED


def test_precision_refusal_counts_as_refused():
    op = cli_op("", rc=1, stderr="precision failure: could not certify")
    assert verdict(op) == REFUSED


def test_enclosure_missing_reference_fails():
    assert verdict(cli_op("2.2948565916733137951")) == FAILED
    assert verdict(cli_op(C1_20[:-1] + "5~", bound="1e-25")) == FAILED


def test_usage_error_and_timeout_fail():
    assert verdict(cli_op("", rc=2, stderr="usage")) == FAILED
    op = {"inputs": ["constant", "A_r", "--r", "30"], "latency": 60.0,
          "error": "timeout"}
    assert verdict(op) == FAILED


def test_worker_timeout_marks_the_op_failed():
    import worker

    spec = {"workload": "warm-session", "op_timeout": 1e-4,
            "ops": [["c_constant", [1], 100]]}
    (done,) = worker.run_session(spec)["ops"]
    assert done["result"] == {"error": "timeout"}
    op = {"inputs": spec["ops"][0], "latency": done["latency"], **done["result"]}
    assert run.classify("warm-session", None, op)[0] == FAILED


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert list(run.END_TO_END_UNITS) == [m["name"] for m in spec["end_to_end"]]
    layers = run.per_layer([], traced_wall=1.0, untraced_wall=1.0, outside_s=0.0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert all(run.unit_of(m["name"]) == m["unit"] for m in spec["per_layer"])
