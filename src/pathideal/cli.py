"""Command-line driver for generation, prediction, verification, and grid scans.

Exit codes: 0 when everything checked passes (ZERO and SKIPPED cells are not
failures), 1 on any FAIL, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .closedform import predicted_ass, predicted_astab, predicted_ntf
from .decomposition import irreducible_decomposition
from .pathfamily import PathCase, ZeroIdealError, classify, ind_ideal
from .verify import (
    ConfigError,
    METHOD_DECOMPOSITION,
    METHOD_WITNESS,
    VERDICT_FAIL,
    _is_budget,
    empirical_astab,
    grid_scan,
    load_config,
    path_power,
    persistence_scan,
    verify_cell,
)

FORMAT_TEXT = "text"
FORMAT_STRUCTURED = "structured"


def _budget(text: str) -> float:
    """argparse type for --budget: the rule validate_config applies to cell budgets."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if not _is_budget(value):
        raise argparse.ArgumentTypeError(
            f"budget must be a finite number of seconds above zero, got {text!r}"
        )
    return value


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == FORMAT_STRUCTURED:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_gen(args: argparse.Namespace) -> int:
    ideal = ind_ideal(args.n, args.t)
    case = classify(args.n, args.t)
    payload = {
        "n": args.n,
        "t": args.t,
        "case": case.value,
        "nvars": ideal.nvars,
        "generators": [g.text() for g in ideal.gens],
    }
    lines = [
        f"size-{args.t} independence ideal of the path on {args.n} vertices "
        f"({case.value}): {len(ideal.gens)} generators"
    ]
    lines.extend(g.text() for g in ideal.gens)
    _emit(payload, lines, args.format)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    try:
        primes = predicted_ass(args.n, args.t, args.k)
    except ZeroIdealError:
        _emit(
            {"n": args.n, "t": args.t, "k": args.k, "case": PathCase.ZERO.value, "primes": []},
            [f"zero ideal for n={args.n}, t={args.t}: no associated primes"],
            args.format,
        )
        return 0
    payload = {
        "n": args.n,
        "t": args.t,
        "k": args.k,
        "case": classify(args.n, args.t).value,
        "count": len(primes),
        "primes": [list(p.vars) for p in primes],
    }
    lines = [f"predicted associated primes for power {args.k}: {len(primes)}"]
    lines.extend(str(p) for p in primes)
    _emit(payload, lines, args.format)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    case = classify(args.n, args.t)
    if case is PathCase.ZERO:
        _emit(
            {"n": args.n, "t": args.t, "k": args.k, "case": case.value, "components": []},
            [f"zero ideal for n={args.n}, t={args.t}: nothing to decompose"],
            args.format,
        )
        return 0
    power = path_power(args.n, args.t, args.k)
    components = irreducible_decomposition(power)
    payload = {
        "n": args.n,
        "t": args.t,
        "k": args.k,
        "case": case.value,
        "count": len(components),
        "components": [c.gens_text() for c in components],
    }
    lines = [f"irreducible components of power {args.k}: {len(components)}"]
    lines.extend(str(c) for c in components)
    _emit(payload, lines, args.format)
    return 0


def _report_lines(report) -> list[str]:
    lines = [
        f"cell n={report.n} t={report.t} k={report.k} case={report.case.value} "
        f"method={report.method}: {report.verdict}",
        f"  predicted={report.predicted_count} computed="
        f"{'-' if report.computed_count is None else report.computed_count}",
    ]
    if report.missing:
        lines.append(f"  missing: {', '.join(str(p) for p in report.missing)}")
    if report.extra:
        lines.append(f"  extra: {', '.join(str(p) for p in report.extra)}")
    if report.witnesses:
        failed = [w for w in report.witnesses if not w.ok]
        lines.append(f"  witnesses: {len(report.witnesses)} checked, {len(failed)} failed")
        for w in failed:
            lines.append(f"    {w.prime}: {w.reason}")
        lines.append("  note: witness checks are one-sided (extra primes invisible)")
    return lines


def _cmd_ass(args: argparse.Namespace) -> int:
    method = METHOD_WITNESS if args.method == "witness" else METHOD_DECOMPOSITION
    report = verify_cell(args.n, args.t, args.k, method, budget_seconds=args.budget)
    _emit(report.to_record(include_timings=True), _report_lines(report), args.format)
    return 1 if report.verdict == VERDICT_FAIL else 0


def _cmd_persistence(args: argparse.Namespace) -> int:
    reports = persistence_scan(args.n, args.t, args.kmax, budget_seconds=args.budget)
    violations = [r for r in reports if r.persistence is False]
    payload = {
        "n": args.n,
        "t": args.t,
        "kmax": args.kmax,
        "chain": [r.to_record(include_timings=False) for r in reports],
        "violations": [[r.n, r.t, r.k] for r in violations],
    }
    lines = []
    for r in reports:
        flag = {True: "ok", False: "VIOLATION", None: "-"}[r.persistence]
        count = "-" if r.computed_count is None else r.computed_count
        lines.append(f"k={r.k}: primes={count} inclusion={flag} verdict={r.verdict}")
    if violations:
        lines.append(f"persistence violated at k={[r.k for r in violations]}")
    else:
        lines.append("persistence holds across the scanned chain")
    _emit(payload, lines, args.format)
    failed = violations or [r for r in reports if r.verdict == VERDICT_FAIL]
    return 1 if failed else 0


def _cmd_astab(args: argparse.Namespace) -> int:
    try:
        result = empirical_astab(args.n, args.t, args.kmax)
    except ZeroIdealError:
        _emit(
            {"n": args.n, "t": args.t, "case": PathCase.ZERO.value},
            [f"zero ideal for n={args.n}, t={args.t}"],
            args.format,
        )
        return 0
    observed = "UNDETERMINED" if result.undetermined else result.observed
    payload = {
        "n": args.n,
        "t": args.t,
        "kmax": args.kmax,
        "observed": observed,
        "predicted": result.predicted,
        "matches": result.matches,
        "normally_torsion_free": predicted_ntf(args.n, args.t),
        "chain_sizes": list(result.chain_sizes),
    }
    lines = [
        f"observed index of stability: {observed} (scanned k <= {args.kmax}, "
        f"chain sizes {list(result.chain_sizes)})",
        f"predicted: {result.predicted} "
        f"(match: {'unknown' if result.matches is None else result.matches})",
    ]
    _emit(payload, lines, args.format)
    return 1 if result.matches is False else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else {}
    result = grid_scan(config)
    out = Path(args.out)
    table_path = out.with_suffix(".txt") if out.suffix != ".txt" else out
    structured_path = out if out.suffix != ".txt" else out.with_suffix(".json")
    try:
        structured_path.parent.mkdir(parents=True, exist_ok=True)
        structured_path.write_text(result.structured, encoding="utf-8")
        table_path.write_text(result.table, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    if args.format == FORMAT_STRUCTURED:
        print(result.structured, end="")
    else:
        print(result.table, end="")
    return result.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathideal",
        description=(
            "Exact verification of associated primes of powers of path "
            "independence ideals against their closed-form description."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pathideal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=[FORMAT_TEXT, FORMAT_STRUCTURED],
        default=FORMAT_TEXT,
        help="output format (default: text)",
    )

    p = sub.add_parser("gen", parents=[common], help="print the generators of the ideal")
    p.add_argument("--n", type=int, required=True, help="number of path vertices")
    p.add_argument("--t", type=int, required=True, help="independent-set size")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("predict", parents=[common], help="print the predicted associated primes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="power exponent")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("decompose", parents=[common], help="irreducible components of the power")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ass", parents=[common], help="verify one cell against the prediction")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--method",
        choices=["decomposition", "witness"],
        default="decomposition",
        help="two-sided decomposition (default) or one-sided witness checks",
    )
    p.add_argument("--budget", type=_budget, default=60.0, help="cell budget in seconds")
    p.set_defaults(func=_cmd_ass)

    p = sub.add_parser("persistence", parents=[common], help="scan chain inclusions up to kmax")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=60.0)
    p.set_defaults(func=_cmd_persistence)

    p = sub.add_parser("astab", parents=[common], help="empirical index of stability up to kmax")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(func=_cmd_astab)

    p = sub.add_parser("scan", parents=[common], help="run a grid scan and write report files")
    p.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p.add_argument("--out", required=True, help="structured report path (.txt sibling for the table)")
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
