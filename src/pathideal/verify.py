"""Grid verification: engine results vs closed-form predictions, with reports.

A cell is a parameter triple (n, t, k).  The decomposition method computes
the associated primes of the k-th power exactly and diffs them against the
prediction; witness-only checks confirm each predicted prime by a colon
witness, which is one-sided (it cannot see extra primes) and is flagged as
such in the report.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import takewhile
from typing import Iterator, Optional, Sequence

from . import __version__
from .closedform import _predicted_count, predicted_ass, predicted_astab, witness_monomial
from .decomposition import DecompositionCache, VarPrime, WitnessCheck, _Record
from .decomposition import associated_primes, verify_witness
from .ideal import DeadlineExceeded, _check_deadline
from .monomial import _is_count
from .pathfamily import MAX_PATH_VERTICES, PathCase, classify, ind_ideal

METHOD_DECOMPOSITION = "decomposition"
METHOD_WITNESS = "witness-only"

VERDICT_PASS = "PASS"
VERDICT_FAIL = "FAIL"
VERDICT_SKIPPED = "SKIPPED"
VERDICT_ZERO = "ZERO"

DEFAULT_CELL_BUDGET_SECONDS = 60.0


class ConfigError(ValueError):
    """A scan configuration failed validation."""


def _is_budget(value) -> bool:
    """Seconds above zero within the float range: a NaN deadline would never fire, and
    a larger int cannot be added to the clock."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value <= sys.float_info.max
    )


class VerificationReport(_Record, uncompared=("computed_primes",), hidden=("computed_primes",)):
    """Structured outcome of one (n, t, k) comparison.

    `computed_primes` is a result, not part of the record: the computed Ass
    set of a decomposition cell that finished (PASS or FAIL), None for every
    other cell.  `==` and the repr leave it out.
    """

    __slots__ = (
        "n", "t", "k", "case", "method", "verdict", "predicted_count", "computed_count",
        "missing", "extra", "persistence", "one_sided", "witnesses", "wall_time_ms",
        "computed_primes",
    )

    def __init__(
        self, n: int, t: int, k: int, case: PathCase, method: str, verdict: str,
        predicted_count: int, computed_count: Optional[int] = None,
        missing: tuple[VarPrime, ...] = (), extra: tuple[VarPrime, ...] = (),
        persistence: Optional[bool] = None, one_sided: bool = False,
        witnesses: tuple[WitnessCheck, ...] = (), wall_time_ms: Optional[float] = None,
        computed_primes: Optional[frozenset[VarPrime]] = None,
    ):
        self.n, self.t, self.k, self.case, self.method = n, t, k, case, method
        self.verdict, self.predicted_count = verdict, predicted_count
        self.computed_count, self.missing, self.extra = computed_count, missing, extra
        self.persistence, self.one_sided, self.witnesses = persistence, one_sided, witnesses
        self.wall_time_ms, self.computed_primes = wall_time_ms, computed_primes

    def to_record(self, include_timings: bool = False) -> dict:
        """Fixed-field-order dict for serialization."""
        return {
            "n": self.n,
            "t": self.t,
            "k": self.k,
            "case": self.case.value,
            "method": self.method,
            "verdict": self.verdict,
            "predicted_count": self.predicted_count,
            "computed_count": self.computed_count,
            "missing": [list(p.vars) for p in self.missing],
            "extra": [list(p.vars) for p in self.extra],
            "persistence": self.persistence,
            "one_sided": self.one_sided,
            "witnesses": [
                {"prime": list(w.prime.vars), "ok": w.ok, "reason": w.reason}
                for w in self.witnesses
            ],
            "wall_time_ms": round(self.wall_time_ms, 3)
            if include_timings and self.wall_time_ms is not None
            else None,
        }


def verify_cell(
    n: int,
    t: int,
    k: int,
    method: str = METHOD_DECOMPOSITION,
    *,
    budget_seconds: float = DEFAULT_CELL_BUDGET_SECONDS,
    cache: Optional[DecompositionCache] = None,
) -> VerificationReport:
    """Compare engine and prediction on one cell.

    The decomposition method is two-sided (exact set equality); witness-only
    confirms predicted primes individually and cannot detect extra ones.
    Exceeding the wall-clock budget, building the power included, yields a
    SKIPPED verdict, never a silent pass.  A decomposition cell that finishes
    carries its computed set in `computed_primes`.
    """
    if not all(_is_count(v) for v in (n, t, k)):
        raise ValueError("n, t and k must be positive integers")
    if method not in (METHOD_DECOMPOSITION, METHOD_WITNESS):
        raise ValueError(f"unknown method {method!r}")
    if not _is_budget(budget_seconds):
        raise ValueError("budget_seconds must be a number in (0, sys.float_info.max]")
    case = classify(n, t)
    if case is PathCase.ZERO:
        return VerificationReport(
            n=n,
            t=t,
            k=k,
            case=case,
            method=method,
            verdict=VERDICT_ZERO,
            predicted_count=0,
            computed_count=0,
            wall_time_ms=0.0,
        )

    start = time.monotonic()
    deadline = start + budget_seconds
    ideal = ind_ideal(n, t)
    report = VerificationReport(
        n=n,
        t=t,
        k=k,
        case=case,
        method=method,
        verdict=VERDICT_SKIPPED,
        predicted_count=_predicted_count(n, t, k),
        one_sided=method == METHOD_WITNESS,
    )
    try:
        # the ideal, and then the prediction, can each spend the budget on a large cell
        _check_deadline(deadline, "building the ideal")
        predicted = predicted_ass(n, t, k, deadline=deadline)
        _check_deadline(deadline, "the prediction")
        power = ideal.power(k, deadline=deadline)
        if method == METHOD_DECOMPOSITION:
            # both lists come in sort_key order, and the filters keep it
            computed = associated_primes(power, cache=cache, deadline=deadline)
            found = report.computed_primes = frozenset(computed)
            expected = frozenset(predicted)
            report.computed_count = len(found)
            report.missing = tuple(p for p in predicted if p not in found)
            report.extra = tuple(p for p in computed if p not in expected)
            ok = not report.missing and not report.extra
        else:
            checks = []
            for prime in predicted:
                _check_deadline(deadline, "the witness sweep")
                u = witness_monomial(n, t, k, prime)
                checks.append(verify_witness(ideal, k, u, prime, power=power))
            report.witnesses = tuple(checks)
            ok = all(checks)
        report.verdict = VERDICT_PASS if ok else VERDICT_FAIL
    except DeadlineExceeded:
        pass
    report.wall_time_ms = (time.monotonic() - start) * 1000.0
    return report


def _chain(n: int, t: int, kmax: int, budget_seconds: float) -> Iterator[VerificationReport]:
    """Each cell of I(n, t)^k for k = 1..kmax under `budget_seconds`, built as it is read,
    with its persistence flag (see `persistence_scan`).  Checks n, t and kmax on the call."""
    if not all(_is_count(v) for v in (n, t, kmax)):
        raise ValueError("n, t and kmax must be positive integers")

    def reports() -> Iterator[VerificationReport]:
        previous: Optional[frozenset[VarPrime]] = frozenset()
        for k in range(1, kmax + 1):
            report = verify_cell(n, t, k, budget_seconds=budget_seconds)
            computed = report.computed_primes
            if computed is not None and previous is not None:
                report.persistence = previous <= computed
            previous = computed
            yield report

    return reports()


def persistence_scan(
    n: int, t: int, kmax: int, *, budget_seconds: float = DEFAULT_CELL_BUDGET_SECONDS
) -> list[VerificationReport]:
    """Associated primes for k = 1..kmax with chain-inclusion flags.

    Each report's persistence flag records whether the computed set at k
    contains the computed set at k-1 (vacuously true at k = 1).  The flag is
    None when either set is unknown: the cell at k or at k-1 is SKIPPED or ZERO.
    """
    chain = _chain(n, t, kmax, budget_seconds)  # checks the counts before kmax's bound
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    return list(chain)


class AstabResult(_Record, frozen=True):
    """Empirical index of stability from a bounded scan of powers.

    `observed` is None when the scan window cannot certify stabilization:
    the first stable index coincides with kmax, or some power was SKIPPED.
    The scan stops at the first SKIPPED power, so its entry in `chain_sizes`
    and those of every later power are None.
    """

    __slots__ = ("n", "t", "kmax", "observed", "predicted", "chain_sizes")

    def __init__(
        self, n: int, t: int, kmax: int, observed: Optional[int], predicted: int,
        chain_sizes: tuple[Optional[int], ...],
    ):
        for name, value in zip(self.__slots__, (n, t, kmax, observed, predicted, chain_sizes)):
            object.__setattr__(self, name, value)

    @property
    def undetermined(self) -> bool:
        return self.observed is None

    @property
    def matches(self) -> Optional[bool]:
        return None if self.observed is None else self.observed == self.predicted


def empirical_astab(
    n: int, t: int, kmax: int, *, budget_seconds: float = DEFAULT_CELL_BUDGET_SECONDS
) -> AstabResult:
    """Smallest k0 with Ass stable from k0 through kmax, compared to the prediction.

    Each power runs under `budget_seconds`.  A SKIPPED power leaves the result
    undetermined, so no later power is built.
    """
    chain = _chain(n, t, kmax, budget_seconds)
    predicted = predicted_astab(n, t)
    sets = (report.computed_primes for report in chain)
    known = list(takewhile(lambda primes: primes is not None, sets))
    k0 = kmax
    if len(known) == kmax:
        while k0 > 1 and known[k0 - 2] == known[-1]:
            k0 -= 1
    return AstabResult(
        n=n,
        t=t,
        kmax=kmax,
        observed=None if k0 == kmax else k0,
        predicted=predicted,
        chain_sizes=tuple(map(len, known)) + (None,) * (kmax - len(known)),
    )


# -- grid scans ---------------------------------------------------------------

DEFAULT_CONFIG = {
    "t_values": [2, 3],
    "n_range": [3, 8],
    "k_range": [1, 3],
    "method": METHOD_DECOMPOSITION,
    "cell_budget_seconds": DEFAULT_CELL_BUDGET_SECONDS,
    "parallelism": 1,
    "include_timings": False,
}


def validate_config(config: dict) -> dict:
    """Merge a partial config with defaults and validate every field."""
    unknown = set(config) - set(DEFAULT_CONFIG)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**DEFAULT_CONFIG, **config}
    t_values = merged["t_values"]
    if (
        not isinstance(t_values, list)
        or not t_values
        or not all(_is_count(t) for t in t_values)
    ):
        raise ConfigError("t_values must be a non-empty list of positive integers")
    for key in ("n_range", "k_range"):
        rng = merged[key]
        if (
            not isinstance(rng, list)
            or len(rng) != 2
            or not all(_is_count(v) for v in rng)
            or rng[0] > rng[1]
        ):
            raise ConfigError(f"{key} must be [lo, hi] with 1 <= lo <= hi")
    if merged["n_range"][1] > MAX_PATH_VERTICES:
        raise ConfigError(f"n_range may not go above the path-vertex cap {MAX_PATH_VERTICES}")
    if merged["method"] not in (METHOD_DECOMPOSITION, METHOD_WITNESS):
        raise ConfigError(f"method must be {METHOD_DECOMPOSITION!r} or {METHOD_WITNESS!r}")
    if not _is_budget(merged["cell_budget_seconds"]):
        raise ConfigError("cell_budget_seconds must be a number in (0, sys.float_info.max]")
    if not _is_count(merged["parallelism"]):
        raise ConfigError("parallelism must be a positive integer")
    if not isinstance(merged["include_timings"], bool):
        raise ConfigError("include_timings must be a boolean")
    merged["t_values"] = sorted(set(t_values))
    return merged


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return validate_config(raw)


class ScanResult(_Record, hidden=("structured", "table")):
    """A grid scan's config, reports and exit code, with both rendered report forms."""

    __slots__ = ("config", "reports", "exit_code", "structured", "table")

    def __init__(
        self, config: dict, reports: list[VerificationReport], exit_code: int,
        structured: str = "", table: str = "",
    ):
        self.config, self.reports, self.exit_code = config, reports, exit_code
        self.structured, self.table = structured, table


def _verdict_counts(reports: Sequence[VerificationReport]) -> dict[str, int]:
    """Cells per verdict, keyed and ordered as both report summaries print them."""
    return {
        verdict.lower(): sum(r.verdict == verdict for r in reports)
        for verdict in (VERDICT_PASS, VERDICT_FAIL, VERDICT_SKIPPED, VERDICT_ZERO)
    }


def _render_structured(
    config: dict, reports: Sequence[VerificationReport], counts: dict[str, int]
) -> str:
    include_timings = config["include_timings"]
    # parallelism is accepted for existing configs but selects nothing; leaving
    # it out keeps reports byte-identical whatever value a config sends
    echo = {key: value for key, value in config.items() if key != "parallelism"}
    doc = {
        "header": {"tool": "pathideal", "version": __version__, "config": echo},
        "cells": [r.to_record(include_timings) for r in reports],
        "summary": {"cells": len(reports), **counts},
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_table(
    config: dict, reports: Sequence[VerificationReport], counts: dict[str, int]
) -> str:
    include_timings = config["include_timings"]
    lines = [
        f"pathideal {__version__} grid scan",
        f"method={config['method']} t_values={config['t_values']} "
        f"n_range={config['n_range']} k_range={config['k_range']}",
        "",
    ]
    header = f"{'t':>3} {'n':>3} {'k':>3}  {'case':<16} {'verdict':<8} {'pred':>5} {'comp':>5}  diff"
    if include_timings:
        header += "  ms"
    lines.append(header)
    lines.append("-" * len(header))
    for r in reports:
        comp = "-" if r.computed_count is None else str(r.computed_count)
        if r.missing or r.extra:
            diff = f"missing={[list(p.vars) for p in r.missing]} extra={[list(p.vars) for p in r.extra]}"
        elif r.method == METHOD_WITNESS and r.witnesses:
            bad = [w for w in r.witnesses if not w.ok]
            diff = f"witnesses={len(r.witnesses)} failed={len(bad)}"
        else:
            diff = "-"
        row = (
            f"{r.t:>3} {r.n:>3} {r.k:>3}  {r.case.value:<16} {r.verdict:<8} "
            f"{r.predicted_count:>5} {comp:>5}  {diff}"
        )
        if include_timings and r.wall_time_ms is not None:
            row += f"  {r.wall_time_ms:.1f}"
        lines.append(row)
    lines.append("")
    lines.append("summary: " + " ".join(f"{name}={count}" for name, count in counts.items()))
    if config["method"] == METHOD_WITNESS:
        lines.append(
            "note: witness-only verification is one-sided; it cannot detect extra primes"
        )
    return "\n".join(lines) + "\n"


def grid_scan(config: dict, *, cache: Optional[DecompositionCache] = None) -> ScanResult:
    """Run verify_cell over the configured grid and render both report forms.

    Cells run one after another on the calling thread, in (t, n, k) order.
    The `parallelism` key is validated but selects nothing: the cells are
    pure Python under one interpreter lock, so a thread pool only slowed
    the scan down.  Every cell shares `cache`, or one made for the scan, so
    each power resumes from the decomposition of the power on n - 1 vertices.
    """
    config = validate_config(config)
    if cache is None:
        cache = DecompositionCache()
    reports = [
        verify_cell(
            n,
            t,
            k,
            config["method"],
            budget_seconds=config["cell_budget_seconds"],
            cache=cache,
        )
        for t in config["t_values"]
        for n in range(config["n_range"][0], config["n_range"][1] + 1)
        for k in range(config["k_range"][0], config["k_range"][1] + 1)
    ]
    counts = _verdict_counts(reports)
    return ScanResult(
        config=config,
        reports=reports,
        exit_code=1 if counts["fail"] else 0,
        structured=_render_structured(config, reports, counts),
        table=_render_table(config, reports, counts),
    )
