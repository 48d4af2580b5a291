"""Spans around the calls into each bernfac module, recorded from outside.

``install`` wraps every public module-level function of each bernfac module,
in every bernfac namespace that holds it (so ``constants``' calls into
``special.zeta_int`` are caught too), plus the arithmetic methods of
``BoundedReal``. Each call records a span (name, start, end, parent, op id)
in memory; ``aggregate`` turns spans into per-name call counts and self
times, a span's self time being its duration minus its children's.

A few probes read arguments and results to count work that timing alone
does not show: the largest Bernoulli index asked for, the bit sizes behind
``verify``'s exact logs and products, the divergent terms scanned and the
``constants`` calls that repeat an earlier call exactly.
"""

import functools
import importlib
import time
import types
from collections import defaultdict

MODULES = ("precision", "special", "divergent", "asymptotic", "constants",
           "verify", "cli")

ARITH_METHODS = (
    "exact", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__", "exp",
    "log", "pow_int", "power", "sqrt",
)
FORMAT_FUNCTIONS = ("precision.round_to_digits", "precision.format_bound",
                    "precision.is_certified")
EXACT_PRODUCTS = ("verify.exact_factorial_product",
                  "verify.exact_bernoulli_product")


def _bits(value):
    if isinstance(value, int):
        return value.bit_length()
    return value.numerator.bit_length() + value.denominator.bit_length()


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # [name_id, start, end, parent_index, op]
        self._stack = [-1]
        self.op = -1
        self.counters = defaultdict(int)
        self.seen_calls = set()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, start, end):
        """Record a span measured by the caller (e.g. an import)."""
        self.spans.append([self.name_id(name), start, end, self._stack[-1],
                           self.op])

    def begin(self, name):
        """Open a span that holds every call made until ``end``."""
        self._stack.append(len(self.spans))
        self.spans.append([self.name_id(name), time.perf_counter(), 0.0,
                           self._stack[-2], self.op])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn, probe=None):
        nid = self.name_id(name)
        probe_nid = self.name_id("bench.probe")
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [nid, 0.0, 0.0, stack[-1], self.op]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:  # in a span of its own, charged to bench
                start = clock()
                probe(self, name, args, kwargs, result)
                spans.append([probe_nid, start, clock(), stack[-1], self.op])
            return result

        return traced

    def dump(self):
        return {"names": self.names, "spans": self.spans,
                "counters": dict(self.counters)}


# -- probes: run after the call, in a bench.probe span beside it --------------

def _probe_bernoulli(tracer, name, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    key = "special.bernoulli.max_index"
    tracer.counters[key] = max(tracer.counters[key], n)


def _probe_log_exact_int(tracer, name, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    tracer.counters["verify.log_exact_int.bits"] += _bits(n)


def _probe_exact_product(tracer, name, args, kwargs, result):
    tracer.counters["verify.exact_product.bits"] += _bits(result)


def _probe_eval_optimal(tracer, name, args, kwargs, result):
    tail = args[0] if args else kwargs["tail"]
    tracer.counters["divergent.terms_scanned"] += result.m_opt - tail.j_start + 1


def _probe_constants_call(tracer, name, args, kwargs, result):
    try:
        key = (name, args, tuple(sorted(kwargs.items())))
        repeat = key in tracer.seen_calls
        tracer.seen_calls.add(key)
    except TypeError:  # unhashable argument: never a repeat
        repeat = False
    tracer.counters["constants.repeat_calls"] += repeat


PROBES = {
    "special.bernoulli": _probe_bernoulli,
    "verify.log_exact_int": _probe_log_exact_int,
    "verify.exact_factorial_product": _probe_exact_product,
    "verify.exact_bernoulli_product": _probe_exact_product,
    "divergent.eval_optimal": _probe_eval_optimal,
}


def install(tracer):
    """Wrap bernfac's public functions and BoundedReal arithmetic in place."""
    package = importlib.import_module("bernfac")
    modules = {m: importlib.import_module(f"bernfac.{m}") for m in MODULES}
    namespaces = [package, *modules.values()]
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != module.__name__):
                continue
            name = f"{short}.{attr}"
            probe = PROBES.get(name)
            if short == "constants":
                probe = _probe_constants_call
            wrapped = tracer.wrap(name, fn, probe)
            for namespace in namespaces:
                for other, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, other, wrapped)
    bounded = modules["precision"].BoundedReal
    for attr in ARITH_METHODS:
        raw = bounded.__dict__[attr]
        name = f"precision.BoundedReal.{attr}"
        if isinstance(raw, staticmethod):
            setattr(bounded, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(bounded, attr, tracer.wrap(name, raw))


# -- aggregation ----------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(dumps):
    """Per-name calls, self and inclusive seconds, and counters, over dumps.

    Counters named ``*.max_index`` are maxima; all others are sums.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counters = defaultdict(int)
    for dump in dumps:
        names = dump["names"]
        spans = dump["spans"]
        for (nid, start, end, _, _), own in zip(spans, self_times(spans)):
            calls[names[nid]] += 1
            self_s[names[nid]] += own
            total_s[names[nid]] += end - start
        for key, value in dump["counters"].items():
            if key.endswith(".max_index"):
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value
    return calls, self_s, total_s, counters


def layer_metrics(calls, self_s, total_s, counters):
    """The per-layer metrics from aggregated spans (wall-independent part)."""
    def total(prefixes, table):
        return sum(v for k, v in table.items()
                   if any(k == p or k.startswith(p + ".") for p in prefixes))

    metrics = {}
    for module in MODULES:
        metrics[f"{module}.self_s"] = total([module], self_s)
        metrics[f"{module}.calls"] = total([module], calls)
    metrics["import.self_s"] = self_s.get("import", 0.0)
    for fn in ("bernoulli", "zeta_int", "zeta_prime_int", "log_gamma_rational"):
        metrics[f"special.{fn}.self_s"] = self_s.get(f"special.{fn}", 0.0)
    metrics["special.log_gamma_rational.total_s"] = total_s.get(
        "special.log_gamma_rational", 0.0)
    metrics["special.zeta_int.calls"] = calls.get("special.zeta_int", 0)
    metrics["special.bernoulli.max_index"] = counters.get(
        "special.bernoulli.max_index", 0)
    constants_calls = metrics["constants.calls"]
    metrics["constants.repeat_share"] = (
        counters.get("constants.repeat_calls", 0) / constants_calls
        if constants_calls else 0.0)
    metrics["precision.format.calls"] = total(FORMAT_FUNCTIONS, calls)
    metrics["precision.format.self_s"] = total(FORMAT_FUNCTIONS, self_s)
    metrics["precision.arith.ops"] = total(["precision.BoundedReal"], calls)
    metrics["precision.arith.self_s"] = total(["precision.BoundedReal"], self_s)
    metrics["verify.log_exact_int.calls"] = calls.get("verify.log_exact_int", 0)
    metrics["verify.log_exact_int.self_s"] = self_s.get("verify.log_exact_int", 0.0)
    metrics["verify.log_exact_int.total_s"] = total_s.get("verify.log_exact_int", 0.0)
    metrics["verify.log_exact_int.bits"] = counters.get("verify.log_exact_int.bits", 0)
    metrics["verify.exact_product.self_s"] = total(EXACT_PRODUCTS, self_s)
    metrics["verify.exact_product.bits"] = counters.get("verify.exact_product.bits", 0)
    metrics["divergent.eval_optimal.calls"] = calls.get("divergent.eval_optimal", 0)
    metrics["divergent.terms_scanned"] = counters.get("divergent.terms_scanned", 0)
    metrics["bench.self_s"] = total(["bench"], self_s)
    return metrics
