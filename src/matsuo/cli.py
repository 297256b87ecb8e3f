"""Command-line front end: build, derive, classify-lines and verify.

Each command imports only the layers it runs: `classify-lines` needs the group
tables and the Fischer geometry, `build` adds the structure constants, `derive`
the constraint systems and `verify` the suites (and, for the suites that
build maps, the automorphisms).

Every command emits a versioned JSON report (schema 1) with exact scalars
serialized as strings.  Reports are byte-identical across runs for fixed
inputs and seed; wall-clock timing is only included on request since it
would break that guarantee.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage or
descriptor error.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction

# the other layers are imported by the commands that run them, and `json`, `csv`
# and `io` by the report formats that use them: where bytecode is not cached,
# every module imported here is compiled on each start
from . import __version__
from .fields import DivisionByZero, Field, FieldError, parse_field
from .fischer import space_of
from .roots import parse_root_system
from .transpo import CATALOG, parse_group

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# the names of `verify.SUITES`, in its order, for the parser
SUITE_NAMES = ("fusion", "equivalence", "model", "torus", "section")


class UsageError(Exception):
    pass


def _field_and_eta(args) -> tuple[Field, object]:
    """`--field` and `--eta` as a field and a raw value in it; exit 2 if either is unreadable."""
    try:
        field = parse_field(args.field)
    except (ArithmeticError, FieldError) as e:  # e.g. d = 1/0, or 1/5 in F5(sqrt:1/5)
        raise UsageError(f"cannot read field {args.field!r}: {e}")
    if "e" in args.eta.lower():  # Fraction would build 10^exponent before any check
        raise UsageError(f"eta {args.eta!r} has an exponent; give it as a/b or a decimal")
    try:
        return field, field.coerce(Fraction(args.eta))
    except (ValueError, ZeroDivisionError, DivisionByZero) as e:
        raise UsageError(f"cannot read eta {args.eta!r} in {field}: {e}")


def _build_algebra(args):
    from .algebra import AlgebraError, MatsuoAlgebra

    field, eta = _field_and_eta(args)
    try:
        return MatsuoAlgebra(space_of(parse_group(args.group)), eta, field)
    except (ValueError, AlgebraError) as e:
        raise UsageError(str(e))


def _report(args, command: str, results: dict, passed: bool = True) -> dict:
    doc = {
        "schema": 1,
        "version": __version__,
        "command": command,
        "group": args.group,
        "field": args.field,
        "eta": args.eta,
        "seed": args.seed,
        "passed": passed,
        "results": results,
    }
    if args.timing:
        doc["duration_s"] = round(time.perf_counter() - args._t0, 3)
    return doc


# -- build -------------------------------------------------------------------


def cmd_build(args) -> tuple[dict, list[dict]]:
    A = _build_algebra(args)
    fs = A.fs
    results = {
        "points": fs.n,
        "lines": len(fs.lines),
        "family": fs.family,
        "connected": fs.is_connected(),
    }
    if fs.family == "affine_weyl":
        vertical = [l for l in fs.lines if fs.line_orbit_class(l) == "vertical"]
        results["vertical_lines"] = len(vertical)
    if args.products:
        results["algebra"] = A.to_dict()
    table = [
        {"line": i, "points": " ".join(fs.labels[p] for p in line)}
        for i, line in enumerate(fs.lines)
    ]
    return _report(args, "build", results), table


# -- derive ------------------------------------------------------------------


def cmd_derive(args) -> tuple[dict, list[dict]]:
    from .algebra import BadEta
    from .deriv import (
        LEIBNIZ_ROW_CAP, derivation_basis, require_eta_half, spans_agree, vanishing_report
    )

    A = _build_algebra(args)
    systems = ("leibniz", "r") if args.system == "both" else (args.system,)
    n = A.dim
    if "leibniz" in systems and (bound := n * n * (n + 1) // 2) > LEIBNIZ_ROW_CAP:
        cap = f"{LEIBNIZ_ROW_CAP:,}"
        raise UsageError(f"{args.group} may have {bound:,} Leibniz rows, over {cap}; use --system r")
    if "r" in systems:
        try:
            require_eta_half(A)
        except BadEta as e:
            raise UsageError(f"{e}; use --system leibniz for eta = {args.eta}")
    bases = {s: derivation_basis(A, system=s) for s in systems}
    results = {"dimension": {s: len(b) for s, b in bases.items()}}
    passed = True
    if len(bases) == 2:
        agree = spans_agree(A, bases["leibniz"], bases["r"])
        results["systems_agree"] = agree
        passed = agree
    basis = next(iter(bases.values()))
    fmt = A.field.format
    results["basis"] = [[[u // n, u % n, fmt(v)] for u, v in sorted(x.items())] for x in basis]
    report = vanishing_report(A, basis)
    nonzero = sorted(pair for pair, vanishes in report.items() if not vanishes)
    results["nonvanishing_collinear_pairs"] = len(nonzero)
    table = [
        {"a": A.fs.labels[a], "b": A.fs.labels[b], "coefficient_vanishes": report[(a, b)]}
        for (a, b) in sorted(report)
    ]
    return _report(args, "derive", results, passed), table


# -- classify-lines ------------------------------------------------------------


def cmd_classify(args) -> tuple[dict, list[dict]]:
    """Near-solidity of every line, tested on the smallest line of each line orbit
    (under the point maps and the group's checked symmetries) and copied to the
    rest.  Each row's witness type is the representative's first failure: not a
    theorem, but constant on orbits in every group tested."""
    _field_and_eta(args)  # the report echoes both, so neither may be unreadable
    try:
        g = parse_group(args.group)
    except ValueError as e:
        raise UsageError(str(e))
    fs = space_of(g)
    verdicts = [None] * len(fs.lines)
    for orbit in fs.line_orbits(g.symmetries):
        verdict = fs.is_near_solid(fs.lines[orbit[0]])
        for i in orbit:
            verdicts[i] = verdict
    rows = []
    near = []
    for i, line in enumerate(fs.lines):
        ok, witness = verdicts[i]
        row = {
            "line": i,
            "points": " ".join(fs.labels[p] for p in line),
            "near_solid": ok,
        }
        if fs.family == "affine_weyl":
            row["orbit"] = fs.line_orbit_class(line)
        if witness is not None:
            row["witness_type"] = witness["type"]
        rows.append(row)
        if ok:
            near.append(line)
    covered = sorted(p for line in near for p in line)
    spread = len(covered) == fs.n and len(set(covered)) == fs.n
    results = {
        "lines": len(fs.lines),
        "near_solid": len(near),
        "near_solid_lines_form_spread": spread,
    }
    if fs.family == "affine_weyl":
        results["vertical_near_solid"] = sum(
            1 for line in near if fs.line_orbit_class(line) == "vertical"
        )
    return _report(args, "classify-lines", results), rows


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> tuple[dict, list[dict]]:
    from . import verify

    field, eta = _field_and_eta(args)
    try:
        if args.group is not None:
            parse_group(args.group)
        if args.type is not None:
            parse_root_system(args.type)
    except ValueError as e:
        raise UsageError(str(e))
    if eta != field.coerce(Fraction(1, 2)):
        raise UsageError(f"verify runs at eta = 1/2 only, got {args.eta!r}")
    rng = random.Random(args.seed)
    groups = [args.group] if args.group is not None else list(CATALOG)
    types = [args.type] if args.type is not None else ["A2", "A3"]
    needs_sqrt3 = args.suite == "all" or verify.SUITES[args.suite][1] == "types"
    if needs_sqrt3 and field.sqrt_raw(field.coerce(3)) is None:
        raise UsageError(f"suite {args.suite!r} needs a field containing sqrt(3)")
    if field.characteristic == 3:
        raise UsageError("verification suites need char k != 3")
    if args.trials < 0:
        raise UsageError(f"--trials must be a nonnegative integer, got {args.trials}")
    ledger = verify.run(args.suite, field, groups, types, rng, args.trials)
    passed = all(item["passed"] for item in ledger)
    results = {"checks": ledger, "failed": sum(1 for i in ledger if not i["passed"])}
    table = [{"check": i["check"], "passed": i["passed"]} for i in ledger]
    return _report(args, "verify", results, passed), table


# -- plumbing ------------------------------------------------------------------


def _emit(args, report: dict, table: list[dict]) -> None:
    if args.csv:
        import csv
        import io

        buf = io.StringIO()
        if table:
            fields = list(dict.fromkeys(k for row in table for k in row))
            writer = csv.DictWriter(buf, fieldnames=fields)
            writer.writeheader()
            for row in table:
                writer.writerow(row)
        text = buf.getvalue()
    elif args.json:
        import json

        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"{report['command']}: {'pass' if report['passed'] else 'FAIL'}"]
        for k, v in report["results"].items():
            if k not in ("checks", "basis", "algebra"):
                lines.append(f"  {k}: {v}")
        for item in report["results"].get("checks", []):
            lines.append(f"  [{'pass' if item['passed'] else 'FAIL'}] {item['check']}")
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:  # e.g. --out names a directory or a path under a file
            raise UsageError(f"cannot write the report: {e}")
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser, group: bool = True) -> None:
    if group:
        p.add_argument("group", help="group descriptor, e.g. S5, W:D4, 3W:A3, M3:3")
    p.add_argument("--field", default="Q", help="field descriptor (Q, F7, Q(sqrt:3))")
    p.add_argument("--eta", default="1/2", help="fusion parameter as a rational")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--csv", action="store_true", help="emit the tabular payload as CSV")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--timing", action="store_true", help="include wall-clock duration")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsuo", description="Exact computations in Matsuo algebras"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="construct an algebra and summarize its geometry")
    _add_common(p)
    p.add_argument("--products", action="store_true", help="include the product table")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("derive", help="derivation dimension and vanishing report")
    _add_common(p)
    p.add_argument("--system", choices=("leibniz", "r", "both"), default="both")
    p.set_defaults(func=cmd_derive)

    for name in ("classify-lines", "classify"):
        p = sub.add_parser(name, help="near-solid line classification")
        _add_common(p)
        p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("all", *SUITE_NAMES))
    p.add_argument("--group", default=None, help="restrict to one group descriptor")
    p.add_argument("--type", default=None, help="root system type for model/torus/section")
    p.add_argument("--trials", type=int, default=25, help="randomized trials per check")
    _add_common(p, group=False)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    args._t0 = time.perf_counter()
    try:
        if args.json and args.csv:
            raise UsageError("--json and --csv cannot be given together")
        report, table = args.func(args)
        _emit(args, report, table)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    return EXIT_OK if report["passed"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
