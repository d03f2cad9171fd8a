"""Command-line driver for generation, prediction, verification, and grid scans.

Exit codes: 0 when everything checked passes (ZERO and SKIPPED cells are not
failures), 1 on any FAIL, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .closedform import predicted_ass, predicted_ntf
from .decomposition import irreducible_decomposition
from .ideal import DeadlineExceeded, _is_budget
from .pathfamily import PathCase, ZeroIdealError, classify, ind_ideal
from .verify import (
    DEFAULT_CELL_BUDGET_SECONDS,
    ConfigError,
    METHOD_DECOMPOSITION,
    METHOD_WITNESS,
    VERDICT_FAIL,
    empirical_astab,
    grid_scan,
    load_config,
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
            f"budget must be a number of seconds in (0, sys.float_info.max], got {text!r}"
        )
    return value


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == FORMAT_STRUCTURED:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _head(args: argparse.Namespace, case: PathCase) -> dict:
    """The first payload fields of a cell command: n, t, k where it has one, and the case."""
    head = {key: getattr(args, key) for key in ("n", "t", "k") if key in args}
    head["case"] = case.value
    return head


def _cmd_gen(args: argparse.Namespace) -> int:
    ideal = ind_ideal(args.n, args.t)
    case = classify(args.n, args.t)
    texts = ideal._texts()
    payload = {**_head(args, case), "nvars": ideal.nvars, "generators": texts}
    lines = [
        f"size-{args.t} independence ideal of the path on {args.n} vertices "
        f"({case.value}): {len(ideal)} generators",
        *texts,
    ]
    _emit(payload, lines, args.format)
    return 0


def _zero(args: argparse.Namespace, suffix: str = "", **empty) -> int:
    """The answer of a cell command on a zero cell, with the command's `empty` field."""
    lines = [f"zero ideal for n={args.n}, t={args.t}{suffix}"]
    _emit({**_head(args, PathCase.ZERO), **empty}, lines, args.format)
    return 0


def _listing(args: argparse.Namespace, title: str, field: str, items, record) -> int:
    """Print `title` power k with a count and one line per item, and the payload `field`
    of each item's `record`; `items` None is a cell past its --budget (count and field null)."""
    if items is None:
        status = f"SKIPPED (cell budget of {args.budget:g} s exceeded)"
        count = records = None
    else:
        status = count = len(items)
        records = [record(item) for item in items]
    payload = {**_head(args, classify(args.n, args.t)), "count": count, field: records}
    _emit(payload, [f"{title} power {args.k}: {status}", *map(str, items or ())], args.format)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    try:
        primes = predicted_ass(args.n, args.t, args.k)
    except ZeroIdealError:
        return _zero(args, ": no associated primes", primes=[])
    return _listing(
        args, "predicted associated primes for", "primes", primes, lambda p: list(p.vars)
    )


def _cmd_decompose(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + args.budget
    try:
        # checks n, t and then k, and returns a zero ideal unchanged
        power = ind_ideal(args.n, args.t).power(args.k, deadline=deadline)
        if power.is_zero:
            return _zero(args, ": nothing to decompose", components=[])
        components = irreducible_decomposition(power, deadline=deadline)
    except DeadlineExceeded:
        components = None
    return _listing(
        args, "irreducible components of", "components", components, lambda c: c.gens_text()
    )


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
        result = empirical_astab(args.n, args.t, args.kmax, budget_seconds=args.budget)
    except ZeroIdealError:
        return _zero(args)
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
    print(result.structured if args.format == FORMAT_STRUCTURED else result.table, end="")
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
    # a flag of several cell commands is declared once, in a parent parser they share
    cell = argparse.ArgumentParser(add_help=False, parents=[common])
    cell.add_argument("--n", type=int, required=True, help="number of path vertices")
    cell.add_argument("--t", type=int, required=True, help="independent-set size")
    power = argparse.ArgumentParser(add_help=False)
    power.add_argument("--k", type=int, required=True, help="power exponent")
    chain = argparse.ArgumentParser(add_help=False)
    chain.add_argument("--kmax", type=int, required=True, help="highest power exponent")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument(
        "--budget", type=_budget, default=DEFAULT_CELL_BUDGET_SECONDS, help="cell budget in seconds"
    )
    for name, parents, func, text in (
        ("gen", [cell], _cmd_gen, "print the generators of the ideal"),
        ("predict", [cell, power], _cmd_predict, "print the predicted associated primes"),
        ("decompose", [cell, power, budget], _cmd_decompose, "irreducible components of the power"),
        ("ass", [cell, power, budget], _cmd_ass, "verify one cell against the prediction"),
        ("persistence", [cell, chain, budget], _cmd_persistence, "scan chain inclusions up to kmax"),
        ("astab", [cell, chain, budget], _cmd_astab, "empirical index of stability up to kmax"),
    ):
        sub.add_parser(name, parents=parents, help=text).set_defaults(func=func)
    sub.choices["ass"].add_argument(
        "--method",
        choices=["decomposition", "witness"],
        default="decomposition",
        help="two-sided decomposition (default) or one-sided witness checks",
    )

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
