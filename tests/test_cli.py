"""End-to-end tests of the command-line interface.

Every command is exercised through run() so exit codes and printed bytes
are both pinned. Output must be deterministic: repeated invocations with
identical arguments produce identical bytes.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from bernfac.cli import CONSTANT_SELECTORS, TABLE_NAMES, VERIFY_TARGETS, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- constant -----------------------------------------------------------------

def test_constant_f2_golden(capsys):
    code, out, err = invoke(capsys, "constant", "F_k", "--k", "2", "--digits", "21")
    assert code == 0
    assert out == "1.02393741163711840157\n"
    assert err == ""


def test_constant_c2_golden(capsys):
    code, out, _ = invoke(capsys, "constant", "C2", "--digits", "21")
    assert code == 0
    assert out == "1.82101745149929239040\n"


def test_constant_b1_golden(capsys):
    code, out, _ = invoke(capsys, "constant", "B1", "--digits", "21")
    assert code == 0
    assert out == "4.85509664652226751252\n"


def test_constant_glaisher_r2(capsys):
    code, out, _ = invoke(capsys, "constant", "A_r", "--r", "2", "--digits", "21")
    assert code == 0
    assert out == "1.03091675219739211419\n"


def test_constant_f_inf_refined_defaults(capsys):
    code, out, _ = invoke(capsys, "constant", "F_inf", "--digits", "21")
    assert code == 0
    assert out == "1.02460688265559721480\n"


def test_constant_json_record(capsys):
    code, out, _ = invoke(
        capsys, "constant", "F_inf", "--digits", "21", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["name"] == "F_inf"
    assert record["digits"] == 21
    assert record["value"] == "1.02460688265559721480"
    assert record["method"] == "refined_sum"
    assert record["params"]["m"] == "17"
    assert record["params"]["n"] == "7"
    assert record["params"]["bound"] == "6.321e-22"
    assert float(record["bound"]) < 1e-21


def test_constant_json_deterministic(capsys):
    _, first, _ = invoke(capsys, "constant", "C1", "--json")
    _, second, _ = invoke(capsys, "constant", "C1", "--json")
    assert first == second


def test_constant_series_selector(capsys):
    code, out, _ = invoke(
        capsys, "constant", "F_rk_series", "--r", "1", "--k", "2", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["name"] == "F(1,2)"
    assert record["method"] == "divergent_series"


def test_constant_looks_routes_up_when_called(capsys, monkeypatch):
    # a rebound route (a tracer's wrapper, a patch) is the one called
    from bernfac import constants

    asked = []
    route = constants.glaisher_a

    def counted(*args):
        asked.append(args[0])
        return route(*args)

    monkeypatch.setattr(constants, "glaisher_a", counted)
    code, out, _ = invoke(capsys, "constant", "A_r", "--r", "2", "--digits", "21")
    assert code == 0 and out == "1.03091675219739211419\n"
    assert asked == [2]


def _subprocess_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


def test_constant_a_r_30_prints_within_seconds():
    # A_30 is about 2.87e+65315813: printing it must not build 10^q for
    # q near -6.5e7, so the request ends well within 5 s
    env = _subprocess_env()
    done = subprocess.run(
        [sys.executable, "-m", "bernfac", "constant", "A_r", "--r", "30",
         "--digits", "40"],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert done.returncode == 0, done.stderr
    mantissa, exponent = done.stdout.strip().rstrip("~").split("e+")
    with mpmath.workdps(60):
        ref = mpmath.exp(-mpmath.zeta(-30) * mpmath.harmonic(30)
                         - mpmath.zeta(-30, derivative=1))
        e = int(mpmath.floor(mpmath.log10(ref)))
        first = int(mpmath.floor(ref / mpmath.mpf(10) ** (e - 9)))
    assert int(exponent) == e
    assert mantissa.replace(".", "")[:10] == str(first)


def test_constant_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["constant", "NOPE"])
    assert excinfo.value.code == 2


def test_constant_rejects_bad_digits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["constant", "C1", "--digits", "0"])
    assert excinfo.value.code == 2
    assert "usage: bernfac constant" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (("C1", "--k", "3"), "--k"),
    (("F_k", "--r", "2"), "--r"),
    (("A_r", "--r", "2", "--m", "4"), "--m"),
    (("B2", "--n", "5"), "--n"),
])
def test_constant_refuses_an_option_its_selector_does_not_read(capsys, argv,
                                                               option):
    code, out, err = invoke(capsys, "constant", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[0]} takes no {option}\n"


@pytest.mark.parametrize("argv", [
    ("constant", "C1", "--prime-bound", "3"),
    ("table", "b-constants", "--r", "9"),
    ("table", "f-constants", "--k", "2"),
    ("ratio", "power-tower-r1", "--m", "4"),
    ("verify", "milnor", "--k", "2"),
])
def test_subcommands_refuse_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        run(list(argv))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert f"usage: bernfac {argv[0]}" in err


def test_each_subcommand_takes_only_the_options_it_reads():
    from bernfac.cli import build_parser

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    options = {
        name: sorted(flag for action in parser._actions
                     for flag in action.option_strings if flag != "-h"
                     and flag != "--help")
        for name, parser in sub.choices.items()
    }
    assert options == {
        "constant": ["--digits", "--json", "--k", "--m", "--n", "--r"],
        "table": ["--digits", "--json"],
        "verify": ["--digits", "--json", "--n", "--prime-bound"],
        "ratio": ["--digits", "--json"],
    }


def test_selector_listings_are_stable():
    assert CONSTANT_SELECTORS == (
        "C1", "C2", "C3", "A_r", "F_k", "F_k_series", "F_inf", "F_inf_weak",
        "F_r1", "F_rk_series", "B1", "B2", "B3", "Bprime",
    )
    assert TABLE_NAMES == ("f-constants", "b-constants", "fr1-constants")
    assert VERIFY_TARGETS == ("identities", "eta", "abelian", "milnor", "all")


# -- --json goldens -------------------------------------------------------------

# The --json records of `constant NAME --digits D [options]`, keyed by
# (NAME, D, *options). The first five were printed before zeta(s) was
# evaluated as one family (exact even values, fixed-point power ladders);
# every byte still matches except the radius-derived fields in TIGHTENED,
# which carried the rounding slop of the old Euler-Maclaurin and direct
# sums and are now smaller. F_k for k >= 2 reads log Gamma(l/k), whose
# Stirling tail is now summed in fixed point: its bound is smaller too,
# and smaller again since log Gamma is summed directly, one log fewer.
# A_r, F_k and F_r1 read zeta'(s), which is now summed in fixed point with
# log v built from the logs of primes, without the old mpf slop.
# The 20-digit records of the other selectors, with default parameters and
# with --k 3 or --r 2, pin every selector's route and defaults.
GOLDEN_JSON = {
    ("C1", "200"): {
        "bound": "2.928e-203",
        "digits": 200,
        "method": "closed_form",
        "name": "C1",
        "params": {
            "N_prime": "675",
            "tail_log_bound": "1.276e-203"
        },
        "value": (
            "2.2948565916733137941835158313443112887131637994416686732758"
            "140300013970120113231575017968045232724908138429721721032851"
            "797614210419641238664544365013492072834077931192467477693330"
            "500671993398727953740"
        )
    },
    ("C2", "100"): {
        "bound": "2.036e-103",
        "digits": 100,
        "method": "closed_form",
        "name": "C2",
        "params": {
            "N_prime": "343",
            "tail_log_bound": "1.116e-103"
        },
        "value": (
            "1.8210174514992923904067251322260068485782680286482717550020"
            "93800286065886770548893639602497521452976"
        )
    },
    ("C3", "100"): {
        "bound": "1.409e-103",
        "digits": 100,
        "method": "closed_form",
        "name": "C3",
        "params": {
            "N_prime": "343",
            "tail_log_bound": "1.116e-103"
        },
        "value": (
            "1.2602057107052417107678172260024106280343798640849496403771"
            "53013930632488429804315668650096411634734"
        )
    },
    ("B1", "100"): {
        "bound": "5.427e-103",
        "digits": 100,
        "method": "closed_form",
        "name": "B1",
        "params": {},
        "value": (
            "4.8550966465222675125277433155870454073817575328823178799376"
            "33217808155936644611630535972762736707632"
        )
    },
    ("F_inf", "20"): {
        "bound": "3.160e-22",
        "digits": 20,
        "method": "refined_sum",
        "name": "F_inf",
        "params": {
            "bound": "6.321e-22",
            "bound_float": "6.32081633532083e-22",
            "log_bound": "6.169e-22",
            "m": "17",
            "n": "7",
            "theta_max": "0.0380798668503",
            "theta_max_float": "0.03807986685030054",
            "theta_min": "0.0380798668503",
            "theta_min_float": "0.03807986685030054"
        },
        "value": "1.0246068826555972148"
    },
    ("A_r", "20"): {
        "bound": "5.238e-29",
        "digits": 20,
        "method": "closed_form",
        "name": "A",
        "params": {
            "r": "1"
        },
        "value": "1.2824271291006226368"
    },
    ("A_r", "20", "--r", "2"): {
        "bound": "2.122e-30",
        "digits": 20,
        "method": "closed_form",
        "name": "A_2",
        "params": {
            "r": "2"
        },
        "value": "1.0309167521973921141"
    },
    ("F_k", "20"): {
        "bound": "8.788e-29",
        "digits": 20,
        "method": "closed_form",
        "name": "F_1",
        "params": {
            "k": "1"
        },
        "value": "1.0463350667705031809"
    },
    ("F_k", "20", "--k", "3"): {
        "bound": "1.128e-27",
        "digits": 20,
        "method": "closed_form",
        "name": "F_3",
        "params": {
            "k": "3"
        },
        "value": "1.0160405370646209912"
    },
    ("F_k_series", "20"): {
        "bound": "6.286e-4",
        "digits": 20,
        "method": "divergent_series",
        "name": "F_1",
        "params": {
            "bound": "6.002e-4",
            "bound_float": "0.0006002079032035255",
            "k": "1",
            "m": "4",
            "r": "0"
        },
        "value": "1.0466401923416621295~"
    },
    ("F_k_series", "20", "--k", "3"): {
        "bound": "1.217e-9",
        "digits": 20,
        "method": "divergent_series",
        "name": "F_3",
        "params": {
            "bound": "1.198e-9",
            "bound_float": "1.1980392652583435e-09",
            "k": "3",
            "m": "10",
            "r": "0"
        },
        "value": "1.0160405376835301611~"
    },
    ("F_inf_weak", "20"): {
        "bound": "3.101e-4",
        "digits": 20,
        "method": "divergent_series",
        "name": "F_inf",
        "params": {
            "bound": "6.052e-4",
            "bound_float": "0.000605219205474194",
            "lower": "1.02428",
            "m": "4",
            "upper": "1.02491"
        },
        "value": "1.0245995847825720406~"
    },
    ("F_r1", "20"): {
        "bound": "8.961e-29",
        "digits": 20,
        "method": "closed_form",
        "name": "F(0,1)",
        "params": {
            "alpha": "{}",
            "r": "0"
        },
        "value": "1.0463350667705031809"
    },
    ("F_r1", "20", "--r", "2"): {
        "bound": "1.317e-29",
        "digits": 20,
        "method": "closed_form",
        "name": "F(2,1)",
        "params": {
            "alpha": "{'0': '7/540', '1': '-1/6', '3': '-4/3'}",
            "r": "2"
        },
        "value": "0.9990461441813558684"
    },
    ("F_rk_series", "20"): {
        "bound": "6.286e-4",
        "digits": 20,
        "method": "divergent_series",
        "name": "F_1",
        "params": {
            "bound": "6.002e-4",
            "bound_float": "0.0006002079032035255",
            "k": "1",
            "m": "4",
            "r": "0"
        },
        "value": "1.0466401923416621295~"
    },
    ("F_rk_series", "20", "--r", "2", "--k", "3"): {
        "bound": "1.198e-9",
        "digits": 20,
        "method": "divergent_series",
        "name": "F(2,3)",
        "params": {
            "bound": "1.198e-9",
            "bound_float": "1.1980461287941321e-09",
            "k": "3",
            "m": "10",
            "r": "2"
        },
        "value": "0.9999442966135343531~"
    },
    ("B2", "20"): {
        "bound": "2.564e-23",
        "digits": 20,
        "method": "closed_form",
        "name": "B2",
        "params": {},
        "value": "1.9369033277329419206"
    },
    ("B3", "20"): {
        "bound": "3.626e-23",
        "digits": 20,
        "method": "closed_form",
        "name": "B3",
        "params": {},
        "value": "2.7391949550855062199"
    },
    ("Bprime", "20"): {
        "bound": "9.329e-24",
        "digits": 20,
        "method": "closed_form",
        "name": "Bprime",
        "params": {},
        "value": "0.7048648734680203105"
    },
}

TIGHTENED = {
    ("C2", "100"): {"bound": "2.034e-103"},
    ("C3", "100"): {"bound": "1.407e-103"},
    ("B1", "100"): {"bound": "5.422e-103"},
    # R = c_m zeta(2m-1) zeta(2m-1, n+1) is formed with no cancellation, so
    # the bound is the same at every digit count from 10 up
    ("F_inf", "20"): {"bound_float": "6.320816310824011e-22"},
    # log A_r, log F_k and log F_(r,1) are each one sum in integer units
    # (special._linear_in_logs), crossed into a ball once, where each step
    # of a BoundedReal chain added a rounding; so is log Gamma(l/3), whose
    # log 2 pi's ulp is most of its radius
    ("A_r", "20"): {"bound": "4.658e-30"},
    ("A_r", "20", "--r", "2"): {"bound": "2.072e-30"},
    ("F_k", "20"): {"bound": "7.535e-30"},
    ("F_k", "20", "--k", "3"): {"bound": "1.626e-29"},
    ("F_r1", "20"): {"bound": "8.293e-30"},
    ("F_r1", "20", "--r", "2"): {"bound": "2.107e-30"},
}


@pytest.mark.parametrize(
    "key", sorted(GOLDEN_JSON),
    ids=lambda key: "-".join(part.lstrip("-") for part in key),
)
def test_constant_json_goldens(capsys, key):
    name, digits, *options = key
    code, out, err = invoke(
        capsys, "constant", name, "--digits", digits, *options, "--json"
    )
    assert code == 0 and err == ""
    golden = GOLDEN_JSON[key]
    expected = dict(golden, params=dict(golden["params"]))
    for field, text in TIGHTENED.get(key, {}).items():
        record = expected if field in expected else expected["params"]
        assert float(text) < float(record[field])
        record[field] = text
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


# -- table --------------------------------------------------------------------

def test_table_f_constants_text(capsys):
    code, out, _ = invoke(capsys, "table", "f-constants", "--digits", "21")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10  # header, rule, six F_k, weak F_inf, refined F_inf
    assert lines[0].split() == ["name", "value", "m", "bound"]
    assert "F_1" in lines[2] and "1.04633506677050318098" in lines[2]
    assert "(1.02428, 1.02491)" in lines[8]
    assert "1.02460688265559721480" in lines[9]


def test_table_f_constants_json(capsys):
    code, out, _ = invoke(capsys, "table", "f-constants", "--digits", "21", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert rows[0]["value"] == "1.04633506677050318098"
    assert rows[0]["m"] == "4"
    assert rows[0]["bound"] == "6.002e-4"
    assert rows[5]["bound"] == "5.552e-18"
    assert rows[6]["value"] == "(1.02428, 1.02491)"
    assert rows[7]["bound"] == "6.321e-22"


def test_table_b_constants(capsys):
    code, out, _ = invoke(capsys, "table", "b-constants", "--digits", "21", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [row["name"] for row in rows] == ["B1", "B2", "B3", "Bprime"]
    assert rows[1]["value"] == "1.93690332773294192068"


def test_table_fr1_constants(capsys):
    code, out, _ = invoke(capsys, "table", "fr1-constants", "--digits", "21", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    assert rows[0]["value"] == "1.04633506677050318098"
    assert rows[1]["value"] == "0.99600199446870605433"


def test_table_json_deterministic(capsys):
    _, first, _ = invoke(capsys, "table", "fr1-constants", "--json")
    _, second, _ = invoke(capsys, "table", "fr1-constants", "--json")
    assert first == second


# -- verify -------------------------------------------------------------------

def test_verify_milnor(capsys):
    code, out, _ = invoke(capsys, "verify", "milnor")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("milnor-equivalence")
    assert "decreasing" in lines[0]
    assert lines[1] == "1 checks, all passed"


def test_verify_eta_small_bound(capsys):
    code, out, _ = invoke(capsys, "verify", "eta", "--prime-bound", "100")
    assert code == 0
    assert "prime-eta-product" in out
    assert "within-bounds" in out


_ETA_JSON = """[
  {{
    "gap": {gap},
    "name": "prime-eta-product",
    "params": {{
      "prime_bound": {bound},
      "primes_used": {used},
      "tolerance": {tolerance}
    }},
    "status": "within-bounds"
  }}
]
"""


@pytest.mark.parametrize("bound, used, gap, tolerance", [
    (100, 25, "0.0009996583643442634", "0.0027812262044271917"),
    (10000, 1229, "5.390255504218998e-06", "2.746061113448198e-05"),
    (100000, 9592, "4.405500522815991e-07", "2.7457521057733617e-06"),
])
def test_verify_eta_json_golden(capsys, bound, used, gap, tolerance):
    # exact bytes; the product's radius (about 1e-31) is far below the
    # float ulp of the gap (about 1e-21)
    argv = ["verify", "eta", "--json"]
    if bound != 10000:  # 10000 is the default --prime-bound
        argv += ["--prime-bound", str(bound)]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == _ETA_JSON.format(gap=gap, bound=bound, used=used,
                                   tolerance=tolerance)


def test_verify_abelian_small(capsys):
    code, out, _ = invoke(capsys, "verify", "abelian", "--n", "1000", "--json")
    assert code == 0
    records = json.loads(out)
    assert records[0]["name"] == "abelian-count-average"
    assert records[0]["status"] == "within-bounds"


# -- ratio --------------------------------------------------------------------

def test_ratio_single_target(capsys):
    code, out, _ = invoke(capsys, "ratio", "power-tower-r1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("power-tower-r1")
    assert "decreasing" in lines[0]
    assert lines[1] == "1 targets, all decreasing"


# The gaps of `ratio --json` (default grid, 20 digits) and of `verify milnor
# --json`, as printed before the ratio targets became one table of
# differences: each float is pinned, where RATIO_GAP_CAPS bounds only the last.
# power-tower-r3 at n = 100 is the true gap's nearest float since its sums of
# logs are summed in integer units; the old ball chains printed ...184e-08.
GOLDEN_GAPS = {
    "factorial-progression-k1": (
        (25, 0.0033264915069057053),
        (50, 0.0016649779390024374),
        (100, 0.0008329138988881886),
    ),
    "factorial-progression-k2": (
        (25, 0.002499066787865265),
        (50, 0.0012497791729357772),
        (100, 0.0006249463545176007),
    ),
    "factorial-progression-k3": (
        (25, 0.0022251744826576607),
        (50, 0.0011118608524193615),
        (100, 0.0005557444410959352),
    ),
    "bernoulli-product-abs": (
        (25, 0.002499066787864969),
        (50, 0.0012497791729357772),
        (100, 0.0006249463545176007),
    ),
    "bernoulli-product-over-2nu": (
        (25, 0.0008340888488631239),
        (50, 0.0004168652740475885),
        (100, 0.00020838420111731398),
    ),
    "lattice-mass": (
        (24, 0.0008671231701107285),
        (48, 0.0004337907401551297),
        (100, 0.00020828003507067616),
    ),
    "power-tower-r1": (
        (25, 2.2217146913759317e-06),
        (50, 5.555238158703242e-07),
        (100, 1.388869048611006e-07),
    ),
    "power-tower-r2": (
        (25, 0.00011110264956122324),
        (50, 5.555449748144302e-05),
        (100, 2.7777645506613455e-05),
    ),
    "power-tower-r3": (
        (25, 3.173841884477702e-07),
        (50, 7.936031842190964e-08),
        (100, 1.984097223725189e-08),
    ),
    "weighted-progression-r1-k2": (
        (25, 0.0002070875053812415),
        (50, 0.00010356321342721619),
        (100, 5.163831584553901e-05),
    ),
    "gamma-ratio-product": (
        (25, 5.340370804246036e-06),
        (50, 1.3354871463144389e-06),
        (100, 3.3389646633687483e-07),
    ),
    "milnor-equivalence": (
        (10, 0.004065685716699345),
        (100, 0.00041562828693682643),
        (1000, 4.165625329743968e-05),
    ),
}


def _golden_records(names):
    records = [
        {"gaps": [list(pair) for pair in GOLDEN_GAPS[name]],
         "monotone_tail": True, "name": name, "status": "decreasing"}
        for name in names
    ]
    return json.dumps(records, sort_keys=True, indent=2) + "\n"


def test_ratio_json_golden(capsys):
    code, out, err = invoke(capsys, "ratio", "--json")
    assert code == 0 and err == ""
    assert out == _golden_records(list(GOLDEN_GAPS)[:-1])


def test_verify_milnor_json_golden(capsys):
    code, out, err = invoke(capsys, "verify", "milnor", "--json")
    assert code == 0 and err == ""
    assert out == _golden_records(["milnor-equivalence"])


# log Q_r(n) = (S_r(n) - zeta(-r)) log n + its rational part, for r = 1..3
_Q_R = {
    1: lambda n: ((n**2 / 2 + n / 2 + mpmath.mpf(1) / 12) * mpmath.log(n),
                  -n**2 / mpmath.mpf(4)),
    2: lambda n: ((n**3 / 3 + n**2 / 2 + n / 6) * mpmath.log(n),
                  -n**3 / mpmath.mpf(9) + n / mpmath.mpf(12)),
    3: lambda n: ((n**4 / 4 + n**3 / 2 + n**2 / 4 - mpmath.mpf(1) / 120)
                  * mpmath.log(n), -n**4 / mpmath.mpf(16) + n**2 / mpmath.mpf(12)),
}


def test_gap_goldens_are_the_true_gaps():
    # the power-tower and gamma-ratio gaps, computed by mpmath at 60 digits
    # from their definitions, round to the pinned floats
    with mpmath.workdps(60):
        log_a = mpmath.mpf(1) / 12 - mpmath.zeta(-1, derivative=1)
        log_g1 = (1 - mpmath.euler) / 12 - log_a
        log_g2 = mpmath.log(2 * mpmath.pi) / 4 - log_a
        for name, n_gap in GOLDEN_GAPS.items():
            for n, gap in n_gap:
                if name.startswith("power-tower-r"):
                    r = int(name[-1])
                    log_ar = (-mpmath.zeta(-r) * mpmath.harmonic(r)
                              - mpmath.zeta(-r, derivative=1))
                    lhs = mpmath.fsum(v**r * mpmath.log(v) for v in range(2, n + 1))
                    rhs = log_ar + sum(_Q_R[r](mpmath.mpf(n)))
                elif name == "gamma-ratio-product":
                    lhs = mpmath.fsum(v * mpmath.loggamma(mpmath.mpf(v) / n)
                                      for v in range(1, n))
                    rhs = log_g1 + n**2 * log_g2 - mpmath.log(n) / 12
                else:
                    continue
                assert gap == float(abs(lhs - rhs)), (name, n)


def test_ratio_unknown_target(capsys):
    code, out, err = invoke(capsys, "ratio", "no-such-target")
    assert code == 2
    assert out == ""
    assert "unknown ratio target" in err


# -- failure exit code ----------------------------------------------------------

def test_ratio_failure_exits_one(capsys, monkeypatch):
    import bernfac.verify
    from bernfac.verify import RatioReport

    bad = RatioReport(
        name="power-tower-r1",
        gaps=((25, 1e-6), (50, 2e-6)),
        monotone_tail=False,
        offending=((25, 50),),
    )
    monkeypatch.setattr(bernfac.verify, "ratio_suite", lambda **kw: [bad])
    code, out, _ = invoke(capsys, "ratio", "power-tower-r1")
    assert code == 1
    assert out.splitlines()[-1] == "1 targets, FAIL"


def test_verify_failure_exits_one(capsys, monkeypatch):
    import bernfac.verify
    from bernfac.verify import IdentityReport, VerificationFailure

    report = IdentityReport(
        name="prime-eta-product",
        params={"prime_bound": 100},
        lhs=None,
        rhs=None,
        status="FAIL",
        gap=1.0,
    )

    def boom(prime_bound, ctx):
        raise VerificationFailure(report)

    monkeypatch.setattr(bernfac.verify, "eta_identity_check", boom)
    code, out, _ = invoke(capsys, "verify", "eta")
    assert code == 1
    assert out.splitlines()[-1] == "1 checks, FAIL"


def test_verify_eta_refuses_a_prime_bound_past_its_limit():
    # 10^6 takes about 0.4 s; one past it is refused before any work
    done = subprocess.run(
        [sys.executable, "-m", "bernfac", "verify", "eta",
         "--prime-bound", "1000001"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: need prime_bound <= 1000000\n"


def _limit_memory():
    """Cap the child's address space at 1 GiB; the test process keeps its own."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("n, m, digits", [(20, 60, 60), (10, 40, 30)])
def test_constant_f_inf_past_its_defaults_exits_zero(n, m, digits):
    # a route that cancels digits at large (n, m) exhausts memory or
    # overflows a float on these two requests
    done = subprocess.run(
        [sys.executable, "-m", "bernfac", "constant", "F_inf", "--n", str(n),
         "--m", str(m), "--digits", str(digits)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=10,
        preexec_fn=_limit_memory,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1.0246068826555972148")


# -- closed pipe ------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("constant", "C1"), ("table", "f-constants"), ("ratio", "power-tower-r1"),
])
def test_closed_stdout_exits_one_without_a_traceback(argv):
    # the reader is gone before the first write, as in `bernfac ... | head -0`
    env = _subprocess_env()
    proc = subprocess.Popen([sys.executable, "-m", "bernfac", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    code = proc.wait(timeout=60)  # a traceback fits in the stderr pipe
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 1
    assert err == b""


# -- import cost ------------------------------------------------------------------

def test_cli_import_leaves_verify_unloaded():
    env = _subprocess_env()
    probe = (
        "import sys, bernfac.cli\n"
        "assert 'bernfac.verify' not in sys.modules\n"
        "from bernfac import identity_suite, VerificationFailure\n"
        "import bernfac\n"
        "assert identity_suite is sys.modules['bernfac.verify'].identity_suite\n"
        "assert all(hasattr(bernfac, name) for name in bernfac.__all__)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
