"""Compare the CLI's output between two source trees, request by request.

    python tools/output_identity.py PARENT_TREE CHANGE_TREE [--timeout S]

Each tree is a checkout of this repository (a `git archive` copy, say).
Every request below runs as `python -m bernfac ...` in a fresh interpreter
with PYTHONPATH=TREE/src, once per tree, and its stdout, stderr and exit
code are compared byte for byte. A request whose only difference is a
trailing '~' gained or lost on printed values is reported as such, apart
from the other differences. Exit status: 0 if every request is identical,
1 otherwise. Standard library only.
"""

import argparse
import os
import subprocess
import sys
import time

SELECTORS = ("C1", "C2", "C3", "A_r", "F_k", "F_k_series", "F_inf",
             "F_inf_weak", "F_r1", "F_rk_series", "B1", "B2", "B3", "Bprime")


def requests() -> list:
    """The request list: every selector, table and verify target."""
    reqs = []
    for digits in (3, 5, 10, 20, 50, 100, 200):
        reqs += [["constant", name, "--digits", str(digits), "--json"]
                 for name in SELECTORS]
    for digits in (20, 100):
        for i in range(6):
            reqs += [["constant", "A_r", "--r", str(i), "--digits", str(digits)],
                     ["constant", "F_r1", "--r", str(i), "--digits", str(digits)],
                     ["constant", "F_k", "--k", str(i + 1), "--digits", str(digits)],
                     ["constant", "F_k_series", "--k", str(i + 1), "--digits", str(digits)]]
    for table in ("f-constants", "b-constants", "fr1-constants"):
        reqs += [["table", table], ["table", table, "--json"]]
    reqs += [["verify", "all"], ["verify", "all", "--json"], ["verify", "eta"],
             ["verify", "milnor", "--json"], ["verify", "abelian", "--n", "10000"]]
    reqs += [["verify", "identities", "--digits", str(d)] for d in (7, 20, 60, 100)]
    reqs += [["ratio"], ["ratio", "--json"], ["ratio", "power-tower-r1"]]
    # usage errors, exit 2
    reqs += [["constant", "C1", "--k", "3"], ["constant", "F_k", "--digits", "0"],
             ["constant", "nope"], ["table", "f-constants", "--r", "2"]]
    reqs += [["constant", "F_k", "--k", "40", "--digits", "100"],
             ["constant", "A_r", "--r", "30", "--digits", "40"],
             ["constant", "F_inf", "--n", "20", "--m", "60", "--digits", "60"],
             ["constant", "F_inf", "--n", "20", "--m", "60", "--digits", "60", "--json"],
             ["constant", "F_inf", "--n", "37", "--m", "117", "--digits", "100"],
             ["constant", "F_inf", "--n", "37", "--m", "117", "--digits", "100", "--json"],
             ["constant", "F_inf", "--digits", "20"],
             ["constant", "F_inf", "--digits", "100"]]
    for digits in (300, 400):
        reqs += [["constant", name, "--digits", str(digits)]
                 for name in ("A_r", "F_r1", "Bprime", "C3")]
    reqs += [["constant", name, "--digits", "1000"] for name in ("C1", "B1")]
    reqs += [["constant", "F_k", "--k", "6", "--digits", "1000"]]
    return reqs


def run(tree: str, argv: list, timeout: float) -> tuple:
    """(exit code, stdout, stderr, seconds) of one request on one tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "bernfac", *argv], env=env,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", b"", b"", timeout
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="seconds per request and tree (default 300)")
    args = parser.parse_args(argv)
    reqs = requests()
    tilde, differ = [], []
    for argv_ in reqs:
        before = run(args.parent, argv_, args.timeout)
        after = run(args.change, argv_, args.timeout)
        line = " ".join(argv_)
        if before[:3] == after[:3]:
            continue
        if (before[0], before[2]) == (after[0], after[2]) and \
                before[1].replace(b"~", b"") == after[1].replace(b"~", b""):
            tilde.append(line)
            print(f"TILDE  {line}")
        else:
            differ.append(line)
            print(f"DIFFER {line}")
            for name, side in (("parent", before), ("change", after)):
                print(f"  {name}: exit {side[0]}, {side[3]:.2f} s")
                print("    stdout: " + side[1].decode(errors="replace").strip()[:400])
                print("    stderr: " + side[2].decode(errors="replace").strip()[:400])
    same = len(reqs) - len(tilde) - len(differ)
    print(f"{len(reqs)} requests: {same} identical, {len(tilde)} differ only in '~', "
          f"{len(differ)} differ otherwise")
    return 0 if same == len(reqs) else 1


if __name__ == "__main__":
    sys.exit(main())
