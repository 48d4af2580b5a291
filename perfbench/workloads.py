"""Seeded request streams for the three benchmark workloads.

Each workload is built from fixed units so that every run, whatever its
seed, carries the same mix of costly and cheap requests; the seed draws the
parameters inside each unit and their order. That keeps run-to-run spread
down to machine noise while the inputs still change with the seed.

- cold-constants: a unit is a *round* of CLI requests, each later run in a
  fresh interpreter: every selector at 20 digits, one of each of six pairs
  of like cost at 50 or 100 digits, F_inf_weak at 100 and C1 at 200 digits,
  and two tables at 20 digits.
- oracles: a unit is a *suite*: one call of each of verify's public checks,
  in one fresh process.
- warm-session: a unit is a *session*: one fresh process visiting every key
  of the pool once (a memo miss), in a fixed order, and repeating earlier
  keys in between.

Nominal unit costs were measured on a 2-core VM with Python 3.11 and the
pure-Python mpmath backend; ``units_for`` turns ``--seconds`` into a fixed
unit count with them, so the work per run does not depend on the clock.
"""

import itertools
import random

SELECTORS = (
    "C1", "C2", "C3", "A_r", "F_k", "F_k_series", "F_inf", "F_inf_weak",
    "F_r1", "F_rk_series", "B1", "B2", "B3", "Bprime",
)
# pairs of selectors of like cost: a coin per pair picks which member runs,
# at the pair's fixed digits, so each round costs the same whatever the seed.
# F_inf is refused above about 21 digits at 1-2 s a request, so it runs at 20
# only.
PAIRS_100_DIGITS = (("C2", "C3"), ("B1", "B2"), ("A_r", "F_r1"))
PAIRS_50_DIGITS = (("B3", "Bprime"), ("F_k_series", "F_rk_series"), ("F_k", "C1"))
ROUND_100_DIGITS = ("F_inf_weak",)
ROUND_200_DIGITS = ("C1",)
# f-constants is left out: its cost is F_inf's, already in the round
ROUND_TABLES = ("b-constants", "fr1-constants")

RATIO_TARGETS = (
    "factorial-progression-k1", "factorial-progression-k2",
    "factorial-progression-k3", "bernoulli-product-abs",
    "bernoulli-product-over-2nu", "lattice-mass", "power-tower-r1",
    "power-tower-r2", "power-tower-r3", "weighted-progression-r1-k2",
    "gamma-ratio-product",
)

WARM_DIGITS = (20, 50, 100)
# 98% of a session's requests repeat a key. This share is an assumption:
# nothing in the repository measures library traffic. It sets warm-session's
# ops_per_s (misses take most of the time); latency_p50_s reads the hit path
# at any share above about 60%, and latency_tail_s the miss path at any share.
SESSION_REPEATS_PER_KEY = 49

NOMINAL_UNIT_S = {"cold-constants": 8.5, "oracles": 13.0, "warm-session": 4.5}
# Every run executes its units this many times (passes); an op's latency is
# its median over the passes (see run.py). oracles gets 2 because one suite
# takes 13-20 s and a run should stay near a minute on a slow host.
REPEATS = {"cold-constants": 3, "oracles": 2, "warm-session": 5}

WORKLOADS = {
    "cold-constants": "CLI requests in fresh interpreters at 20-200 digits: "
                      "import, cold memo and cold Bernoulli cache",
    "oracles": "verify's exact big-integer and BoundedReal checks in one "
               "fresh process; little special-function work",
    "warm-session": "library calls over a key pool in one process, 98% "
                    "repeats (assumed): memo hits and formatting beside misses",
}


def units_for(workload, seconds):
    """Fixed number of distinct units a run of ``seconds`` executes."""
    return max(1, round(seconds / (REPEATS[workload] * NOMINAL_UNIT_S[workload])))


def _constant_argv(rng, selector, digits):
    argv = ["constant", selector, "--digits", str(digits), "--json"]
    if selector in ("A_r", "F_r1"):
        argv += ["--r", str(rng.randint(0, 5))]
    elif selector in ("F_k", "F_k_series"):
        argv += ["--k", str(rng.randint(1, 6))]
    elif selector == "F_rk_series":
        argv += ["--r", str(rng.randint(0, 5)), "--k", str(rng.randint(1, 6))]
    return argv


def cold_round(rng):
    """One round of CLI argument lists, in seeded order."""
    cells = [(s, 20) for s in SELECTORS]
    for digits, pairs in ((50, PAIRS_50_DIGITS), (100, PAIRS_100_DIGITS)):
        cells += [(rng.choice(pair), digits) for pair in pairs]
    cells += [(s, 100) for s in ROUND_100_DIGITS]
    cells += [(s, 200) for s in ROUND_200_DIGITS]
    requests = [_constant_argv(rng, s, d) for s, d in cells]
    requests += [["table", t, "--digits", "20", "--json"] for t in ROUND_TABLES]
    rng.shuffle(requests)
    return requests


def oracle_suite(rng):
    """One suite of oracle ops in the CLI's order (verify all, then ratio).

    The ratio grid is strictly increasing with top 64 and a fixed sum, so
    every suite costs the same: weighted-progression-r1-k2 grows steeply
    with the top and the power towers with the sum. P and N stay within 3%
    of the CLI defaults.
    """
    low = rng.randint(10, 22)
    grid = [low, 56 - low, 64]
    ops = [
        {"op": "identity_suite"},
        {"op": "eta_identity_check", "P": rng.randint(9700, 10300)},
        {"op": "abelian_average_check", "N": rng.randint(97000, 103000)},
        {"op": "milnor_equivalence_check"},
    ]
    ops += [{"op": "ratio_suite", "target": t, "grid": grid}
            for t in RATIO_TARGETS]
    return ops


def warm_keys():
    """The key pool: (route, params, digits)."""
    keys = []
    for d in WARM_DIGITS:
        keys += [("c_constant", [w], d) for w in (1, 2, 3)]
        keys += [("glaisher_a", [r], d) for r in range(6)]
        keys += [("f_k_closed", [k], d) for k in range(1, 7)]
        keys += [("f_k_via_linear_system", [k], d) for k in range(2, 7)]
        keys += [("f_r1", [r], d) for r in range(6)]
        keys += [("b_family", [], d), ("gamma_product_constants", [], d)]
    return keys


def warm_session(rng):
    """One session: each key's first use is a miss, followed by repeats.

    Keys are first used in one fixed shuffled order, the same for every
    seed. Routes share memo entries, so a miss costs less when an earlier
    key already computed part of it; with a seeded order the misses, which
    take most of a session's time, would cost a different amount on each
    seed. The seed draws the repeats: a repeat picks an already used key by
    its recency rank d (0 = most recent) with probability proportional to
    1/(d+1), so a few recent keys take most requests while every key keeps
    being touched.
    """
    pool = warm_keys()
    random.Random("warm-session/first-uses").shuffle(pool)
    cum = list(itertools.accumulate(1.0 / (d + 1) for d in range(len(pool))))
    recent = []
    stream = []
    for key in pool:
        recent.insert(0, key)
        stream.append(key)
        for _ in range(SESSION_REPEATS_PER_KEY):
            n = len(recent)
            d = rng.choices(range(n), cum_weights=cum[:n])[0]
            key = recent.pop(d)
            recent.insert(0, key)
            stream.append(key)
    return stream


UNIT_BUILDERS = {
    "cold-constants": cold_round,
    "oracles": oracle_suite,
    "warm-session": warm_session,
}


def generate(workload, seed, units):
    """The full input of one run: a list of units, each a list of ops."""
    rng = random.Random(f"{workload}/{seed}")
    return [UNIT_BUILDERS[workload](rng) for _ in range(units)]
