"""Determinism across threads: each thread works at its own precision.

Four threads evaluate routes at mixed precisions at once. Every result, and
every report's printed text, must equal the one the same call gives on its
own, since the working precision is per-thread state of
PrecisionContext.workprec, not mpmath's global one.
"""

import random
import sys
import threading
import time
from fractions import Fraction

import mpmath

from bernfac import constants, special
from bernfac.precision import PrecisionContext, make_context, mpf_to_fraction

ROUTES = {
    "A_1": lambda ctx: constants.glaisher_a(1, ctx),
    "C2": lambda ctx: constants.c_constant(2, ctx),
    "F_3": lambda ctx: constants.f_k_closed(3, ctx),
    "log_two_pi": special.log_two_pi,
    "zeta_5": lambda ctx: special.zeta_int(5, ctx),
    "log_gamma_1/3": lambda ctx: special.log_gamma_rational(Fraction(1, 3), ctx),
}


def _jobs() -> list:
    """(route, context) pairs in which no context appears twice.

    A_1, C2 and F_3 run at 20 and 300 digits, each call with guard digits
    of its own, so no memo entry is shared between calls. Cheaper routes at
    other targets fill out the count.
    """
    jobs = []
    for i, route in enumerate(("A_1", "C2", "F_3")):
        jobs += [(route, PrecisionContext(20, g)) for g in range(10 + 20 * i, 30 + 20 * i)]
        jobs += [(route, PrecisionContext(300, g)) for g in range(30 + 6 * i, 36 + 6 * i)]
    jobs += [("log_two_pi", PrecisionContext(d, 10)) for d in range(21, 721)]
    jobs += [("zeta_5", PrecisionContext(d, 11)) for d in range(21, 141)]
    jobs += [("log_gamma_1/3", PrecisionContext(d, 12)) for d in range(21, 141)]
    random.Random(12).shuffle(jobs)
    return jobs


def test_results_across_threads_equal_the_single_threaded_ones():
    start = time.perf_counter()
    jobs = _jobs()
    assert len(jobs) >= 1000
    assert len({ctx for _, ctx in jobs}) == len(jobs)
    prec_before = mpmath.mp.prec
    threaded, texts, errors = {}, {}, []

    def work(indices):
        try:
            for i in indices:
                route, ctx = jobs[i]
                threaded[i] = ROUTES[route](ctx)
                if isinstance(threaded[i], constants.ConstantReport):
                    texts[i] = threaded[i].digits(ctx.target_digits)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    # the default switch interval is kept: a shorter one makes a thread far
    # more likely to read mpmath's constant cache between its two stores
    # (see README), a defect this test does not cover
    threads = [threading.Thread(target=work, args=(range(t, len(jobs), 4),))
               for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert not errors
    prec_after = mpmath.mp.prec

    constants.clear_cache()
    differ = [(route, ctx) for i, (route, ctx) in enumerate(jobs)
              if ROUTES[route](ctx) != threaded[i]]
    assert not differ, f"{len(differ)} of {len(jobs)} differ, e.g. {differ[:3]}"
    assert len(texts) == 78  # A_1, C2 and F_3 at 26 contexts each
    differ = []
    for i, text in texts.items():
        route, ctx = jobs[i]
        if ROUTES[route](ctx).digits(ctx.target_digits) != text:
            differ.append((route, ctx))
    assert not differ, f"{len(differ)} texts differ, e.g. {differ[:3]}"
    assert prec_after == prec_before

    top = max(ctx.working_digits for route, ctx in jobs if route == "A_1")
    with mpmath.workdps(top + 20):
        glaisher = mpf_to_fraction(+mpmath.glaisher)
    assert all(threaded[i].value.contains(glaisher)
               for i, (route, _) in enumerate(jobs) if route == "A_1")
    assert mpmath.mp.prec == prec_before
    assert time.perf_counter() - start < 5


def test_clear_cache_never_pulls_a_value_from_a_reader():
    # for one second, readers of every cache of bernfac.special race threads
    # that clear them all; each read must return its value, not an
    # IndexError or KeyError. Small indices keep each refill cheap, so the
    # caches are emptied and refilled many times; B_60 regrows the tangent
    # edge to 30 columns after each clear, past the 3 that B_6 needs. pi and
    # gamma are read from mpmath's constant cache under the package's lock,
    # so their refills cannot race each other there; the ln 2 read inside
    # mpf_log and mpf_exp (see README) is not reached.
    ctx = make_context(20)

    def read_all():
        return (special.bernoulli(6), special.bernoulli(60),
                special.harmonic(3), special.partition_counts(4)[-1],
                special.zeta_int(61, ctx),
                special.pi_const(ctx), special.euler_gamma(ctx))

    want, errors, stop = read_all(), [], threading.Event()
    deadline = time.perf_counter() + 1.0

    def read():
        try:
            while time.perf_counter() < deadline:
                assert read_all() == want
        except Exception as exc:  # reported below
            errors.append(exc)

    def clear():
        while not stop.is_set():
            constants.clear_cache()

    clearers = [threading.Thread(target=clear) for _ in range(2)]
    readers = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in clearers + readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=30)
    finally:
        stop.set()
        for thread in clearers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in clearers + readers)
    assert not errors, errors[:3]
