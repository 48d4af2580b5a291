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
import os
import sys

from . import constants
from .constants import ConstantReport
from .precision import PrecisionError, format_bound, make_context

# Each selector of `constant`: the name of its route in bernfac.constants,
# then the route's arguments before the context, each either fixed or an
# (option, default) pair. Routes are looked up by name at each call, so a
# rebound module attribute (a tracer's wrapper, a test's patch) is the one
# called. A route that returns a tuple of reports (b_family) is searched by
# the selector's name.
_ROUTES = {
    "C1": ("c_constant", 1),
    "C2": ("c_constant", 2),
    "C3": ("c_constant", 3),
    "A_r": ("glaisher_a", ("r", 1)),
    "F_k": ("f_k_closed", ("k", 1)),
    "F_k_series": ("f_rk_series", 0, ("k", 1)),
    "F_inf": ("f_infty_refined", ("n", 7), ("m", 17)),
    "F_inf_weak": ("f_infty_weak",),
    "F_r1": ("f_r1", ("r", 0)),
    "F_rk_series": ("f_rk_series", ("r", 0), ("k", 1)),
    "B1": ("b_family",),
    "B2": ("b_family",),
    "B3": ("b_family",),
    "Bprime": ("b_family",),
}

CONSTANT_SELECTORS = tuple(_ROUTES)


def _report(name: str, ctx, options: dict) -> ConstantReport:
    """The report of selector name; options overrides parameter defaults."""
    route, *params = _ROUTES[name]
    taken = [param[0] for param in params if isinstance(param, tuple)]
    for option in ("k", "r", "n", "m"):
        if options.get(option) is not None and option not in taken:
            raise ValueError(f"{name} takes no --{option}")
    args = []
    for param in params:
        if isinstance(param, tuple):
            option, default = param
            param = options.get(option)
            if param is None:
                param = default
        args.append(param)
    result = getattr(constants, route)(*args, ctx)
    if isinstance(result, tuple):
        return next(report for report in result if report.name == name)
    return result


def _row(report: ConstantReport, digits: int, params=None) -> dict:
    """A table row; m and bound come from params if given."""
    if params is None:
        m, bound = "-", format_bound(report.value.abs_err)
    else:
        m, bound = str(params["m"]), params["bound"]
    return {"name": report.name, "value": report.digits(digits), "m": m,
            "bound": bound}


def _f_rows(ctx, digits: int) -> list:
    rows = [
        _row(_report("F_k", ctx, {"k": k}), digits,
             _report("F_k_series", ctx, {"k": k}).params)
        for k in range(1, 7)
    ]
    weak = _report("F_inf_weak", ctx, {})
    interval = f"({weak.params['lower']}, {weak.params['upper']})"
    rows.append(dict(_row(weak, digits, weak.params), value=interval))
    refined = _report("F_inf", ctx, {})
    rows.append(_row(refined, digits, refined.params))
    return rows


_TABLES = {
    "f-constants": _f_rows,
    "b-constants": lambda ctx, digits: [
        _row(_report(name, ctx, {}), digits)
        for name in ("B1", "B2", "B3", "Bprime")
    ],
    "fr1-constants": lambda ctx, digits: [
        _row(_report("F_r1", ctx, {"r": r}), digits) for r in range(6)
    ],
}

TABLE_NAMES = tuple(_TABLES)
VERIFY_TARGETS = ("identities", "eta", "abelian", "milnor", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernfac",
        description="Asymptotic constants of Bernoulli and factorial "
        "products, with certified error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p, *options):
        # run reports an option p does not read, or a bad --digits, against
        # p's own usage
        p.set_defaults(subparser=p)
        p.add_argument("--digits", type=int, default=20,
                       help="printed digit characters (default 20)")
        p.add_argument("--json", action="store_true", dest="as_json")
        for option in options:
            p.add_argument(f"--{option}", type=int, default=None)

    p_const = sub.add_parser("constant", help="print one constant")
    p_const.add_argument("name", choices=CONSTANT_SELECTORS)
    add_options(p_const, "k", "r", "n", "m")

    p_table = sub.add_parser("table", help="print a constants table")
    p_table.add_argument("name", choices=TABLE_NAMES)
    add_options(p_table)

    p_verify = sub.add_parser("verify", help="run exact verification checks")
    p_verify.add_argument("what", nargs="?", default="all",
                          choices=VERIFY_TARGETS)
    add_options(p_verify, "n", "prime-bound")

    p_ratio = sub.add_parser("ratio", help="run log-gap decrease checks")
    p_ratio.add_argument("targets", nargs="*", default=None)
    add_options(p_ratio)

    return parser


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
    report = _report(args.name, make_context(args.digits), vars(args))
    if args.as_json:
        print(json.dumps(_constant_record(report, args.digits),
                         sort_keys=True, indent=2))
    else:
        print(report.digits(args.digits))
    return 0


def _cmd_table(args) -> int:
    rows = _TABLES[args.name](make_context(max(args.digits, 21)), args.digits)
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
            reports.extend(identity_suite(ctx))
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
    args, unread = parser.parse_known_args(argv)
    if unread:
        args.subparser.error(f"unrecognized arguments: {' '.join(unread)}")
    if args.digits < 1:
        args.subparser.error("--digits must be >= 1")
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
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: exit 1 with no traceback, and point
        # stdout at devnull so the interpreter's flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
