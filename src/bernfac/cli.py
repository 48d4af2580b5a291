"""Command-line interface: constants, tables, and verification suites.

Subcommands:
  constant NAME   print one constant (C1, C2, C3, A_r, F_k, F_k_series,
                  F_inf, F_inf_weak, F_r1, F_rk_series, B1, B2, B3, Bprime)
  table NAME      print a constants table (f-constants, b-constants,
                  fr1-constants) with value, m, and error-bound columns
  verify WHAT     run exact checks (identities, eta, abelian, milnor, all)
  ratio [TARGET]  run asymptotic log-gap decrease checks

Exit status: 0 all checks pass, 1 a check or computation failed, 2 usage
error. Output is deterministic: the same request prints identical bytes.
"""

import argparse
import json
import sys

from .constants import (
    ConstantReport,
    b_family,
    c_constant,
    f_infty_refined,
    f_infty_weak,
    f_k_closed,
    f_k_series,
    f_r1,
    f_rk_series,
    glaisher_a,
)
from .precision import PrecisionError, format_bound, make_context

CONSTANT_SELECTORS = (
    "C1",
    "C2",
    "C3",
    "A_r",
    "F_k",
    "F_k_series",
    "F_inf",
    "F_inf_weak",
    "F_r1",
    "F_rk_series",
    "B1",
    "B2",
    "B3",
    "Bprime",
)

TABLE_NAMES = ("f-constants", "b-constants", "fr1-constants")
VERIFY_TARGETS = ("identities", "eta", "abelian", "milnor", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernfac",
        description="Asymptotic constants of Bernoulli and factorial "
        "products, with certified error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--digits", type=int, default=20,
                       help="printed digit characters (default 20)")
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--r", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--prime-bound", type=int, default=None)
        p.add_argument("--json", action="store_true", dest="as_json")

    p_const = sub.add_parser("constant", help="print one constant")
    p_const.add_argument("name", choices=CONSTANT_SELECTORS)
    add_common(p_const)

    p_table = sub.add_parser("table", help="print a constants table")
    p_table.add_argument("name", choices=TABLE_NAMES)
    add_common(p_table)

    p_verify = sub.add_parser("verify", help="run exact verification checks")
    p_verify.add_argument("what", nargs="?", default="all",
                          choices=VERIFY_TARGETS)
    add_common(p_verify)

    p_ratio = sub.add_parser("ratio", help="run log-gap decrease checks")
    p_ratio.add_argument("targets", nargs="*", default=None)
    add_common(p_ratio)

    return parser


def _constant_report(args) -> ConstantReport:
    ctx = make_context(args.digits)
    name = args.name
    if name in ("C1", "C2", "C3"):
        return c_constant(int(name[1]), ctx)
    if name == "A_r":
        return glaisher_a(args.r if args.r is not None else 1, ctx)
    if name == "F_k":
        return f_k_closed(args.k if args.k is not None else 1, ctx)
    if name == "F_k_series":
        return f_k_series(args.k if args.k is not None else 1, ctx)
    if name == "F_inf":
        n = args.n if args.n is not None else 7
        m = args.m if args.m is not None else 17
        return f_infty_refined(n, m, ctx)
    if name == "F_inf_weak":
        return f_infty_weak(ctx)
    if name == "F_r1":
        return f_r1(args.r if args.r is not None else 0, ctx)
    if name == "F_rk_series":
        r = args.r if args.r is not None else 0
        k = args.k if args.k is not None else 1
        return f_rk_series(r, k, ctx)
    family = {report.name: report for report in b_family(make_context(args.digits))}
    return family[name]


def _constant_record(report: ConstantReport, digits: int) -> dict:
    return {
        "name": report.name,
        "digits": digits,
        "value": report.digits(digits),
        "bound": format_bound(report.value.abs_err),
        "method": report.method,
        "params": {key: str(value) for key, value in report.params.items()},
    }


def _cmd_constant(args) -> int:
    report = _constant_report(args)
    if args.as_json:
        print(json.dumps(_constant_record(report, args.digits),
                         sort_keys=True, indent=2))
    else:
        print(report.digits(args.digits))
    return 0


def _table_rows(name: str, digits: int) -> list:
    ctx = make_context(max(digits, 21))
    rows = []
    if name == "f-constants":
        for k in range(1, 7):
            closed = f_k_closed(k, ctx)
            series = f_k_series(k, ctx)
            rows.append({
                "name": closed.name,
                "value": closed.digits(digits),
                "m": str(series.params["m"]),
                "bound": series.params["bound"],
            })
        weak = f_infty_weak(ctx)
        rows.append({
            "name": weak.name,
            "value": f"({weak.params['lower']}, {weak.params['upper']})",
            "m": str(weak.params["m"]),
            "bound": weak.params["bound"],
        })
        refined = f_infty_refined(7, 17, ctx)
        rows.append({
            "name": refined.name,
            "value": refined.digits(digits),
            "m": str(refined.params["m"]),
            "bound": refined.params["bound"],
        })
    elif name == "b-constants":
        for report in b_family(ctx):
            rows.append({
                "name": report.name,
                "value": report.digits(digits),
                "m": "-",
                "bound": format_bound(report.value.abs_err),
            })
    else:
        for r in range(0, 6):
            report = f_r1(r, ctx)
            rows.append({
                "name": report.name,
                "value": report.digits(digits),
                "m": "-",
                "bound": format_bound(report.value.abs_err),
            })
    return rows


def _cmd_table(args) -> int:
    rows = _table_rows(args.name, args.digits)
    if args.as_json:
        print(json.dumps(rows, sort_keys=True, indent=2))
        return 0
    widths = {
        key: max(len(key), max(len(row[key]) for row in rows))
        for key in ("name", "value", "m", "bound")
    }
    header = (f"{'name':<{widths['name']}}  {'value':<{widths['value']}}  "
              f"{'m':>{widths['m']}}  {'bound':<{widths['bound']}}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['name']:<{widths['name']}}  "
              f"{row['value']:<{widths['value']}}  "
              f"{row['m']:>{widths['m']}}  "
              f"{row['bound']:<{widths['bound']}}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import (
        VerificationFailure,
        abelian_average_check,
        eta_identity_check,
        identity_suite,
        milnor_equivalence_check,
        report_lines,
        report_records,
    )

    ctx = make_context(args.digits)
    reports = []
    failed = False
    try:
        if args.what in ("identities", "all"):
            reports.extend(identity_suite())
        if args.what in ("eta", "all"):
            bound = args.prime_bound if args.prime_bound is not None else 10000
            reports.append(eta_identity_check(bound, ctx))
        if args.what in ("abelian", "all"):
            N = args.n if args.n is not None else 100000
            reports.append(abelian_average_check(N, ctx))
        if args.what in ("milnor", "all"):
            reports.append(milnor_equivalence_check(ctx=ctx))
    except VerificationFailure as failure:
        reports.append(failure.report)
        failed = True
    failed = failed or any(
        getattr(report, "status", "") == "FAIL" for report in reports
    )
    if args.as_json:
        print(json.dumps(report_records(reports), sort_keys=True, indent=2))
    else:
        for line in report_lines(reports):
            print(line)
        print(f"{len(reports)} checks, {'FAIL' if failed else 'all passed'}")
    return 1 if failed else 0


def _cmd_ratio(args) -> int:
    from .verify import ratio_suite, report_lines, report_records

    ctx = make_context(args.digits)
    targets = args.targets or None
    reports = ratio_suite(targets=targets, ctx=ctx)
    failed = any(not report.monotone_tail for report in reports)
    if args.as_json:
        print(json.dumps(report_records(reports), sort_keys=True, indent=2))
    else:
        for line in report_lines(reports):
            print(line)
        print(f"{len(reports)} targets, {'FAIL' if failed else 'all decreasing'}")
    return 1 if failed else 0


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.digits < 1:
        parser.error("--digits must be >= 1")
    handlers = {
        "constant": _cmd_constant,
        "table": _cmd_table,
        "verify": _cmd_verify,
        "ratio": _cmd_ratio,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
