"""End-to-end tests of the command-line interface.

Every command is exercised through run() so exit codes and printed bytes
are both pinned. Output must be deterministic: repeated invocations with
identical arguments produce identical bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_constant_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["constant", "NOPE"])
    assert excinfo.value.code == 2


def test_constant_rejects_bad_digits(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["constant", "C1", "--digits", "0"])
    assert excinfo.value.code == 2


def test_selector_listings_are_stable():
    assert "F_inf_weak" in CONSTANT_SELECTORS
    assert TABLE_NAMES == ("f-constants", "b-constants", "fr1-constants")
    assert VERIFY_TARGETS == ("identities", "eta", "abelian", "milnor", "all")


# -- --json goldens -------------------------------------------------------------

# The --json records of these requests as printed before zeta(s) was
# evaluated as one family (exact even values, fixed-point power ladders).
# Every byte still matches except the radius-derived fields in TIGHTENED,
# which carried the rounding slop of the old Euler-Maclaurin and direct
# sums and are now smaller.
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
}

TIGHTENED = {
    ("C2", "100"): {"bound": "2.034e-103"},
    ("C3", "100"): {"bound": "1.407e-103"},
    ("B1", "100"): {"bound": "5.422e-103"},
    ("F_inf", "20"): {"bound_float": "6.320816312259722e-22"},
}


@pytest.mark.parametrize("name, digits", sorted(GOLDEN_JSON))
def test_constant_json_goldens(capsys, name, digits):
    code, out, err = invoke(capsys, "constant", name, "--digits", digits, "--json")
    assert code == 0 and err == ""
    golden = GOLDEN_JSON[(name, digits)]
    expected = dict(golden, params=dict(golden["params"]))
    for field, text in TIGHTENED.get((name, digits), {}).items():
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


# -- import cost ------------------------------------------------------------------

def test_cli_import_leaves_verify_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
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
