"""Grid verification: engine results vs closed-form predictions, with reports.

A cell is a parameter triple (n, t, k).  The decomposition method computes
the associated primes of the k-th power exactly and diffs them against the
prediction; witness-only checks confirm each predicted prime by a colon
witness, which is one-sided (it cannot see extra primes) and is flagged as
such in the report.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

from . import __version__
from .closedform import predicted_ass, predicted_astab, witness_monomial
from .decomposition import (
    DeadlineExceeded,
    DecompositionCache,
    VarPrime,
    associated_primes,
    verify_witness,
)
from .ideal import MonomialIdeal
from .pathfamily import PathCase, classify, ind_ideal

METHOD_DECOMPOSITION = "decomposition"
METHOD_WITNESS = "witness-only"

VERDICT_PASS = "PASS"
VERDICT_FAIL = "FAIL"
VERDICT_SKIPPED = "SKIPPED"
VERDICT_ZERO = "ZERO"

DEFAULT_CELL_BUDGET_SECONDS = 60.0


class ConfigError(ValueError):
    """A scan configuration failed validation."""


def _is_count(value) -> bool:
    """A positive integer; booleans are ints to Python but not counts here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _is_budget(value) -> bool:
    """A finite number of seconds above zero; a NaN deadline would never fire."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


@lru_cache(maxsize=256)
def path_power(n: int, t: int, k: int) -> MonomialIdeal:
    """Cached k-th power of the (n, t) independence ideal."""
    return ind_ideal(n, t).power(k)


@dataclass(frozen=True)
class WitnessOutcome:
    prime: VarPrime
    ok: bool
    reason: Optional[str] = None


@dataclass
class VerificationReport:
    """Structured outcome of one (n, t, k) comparison."""

    n: int
    t: int
    k: int
    case: PathCase
    method: str
    verdict: str
    predicted_count: int
    computed_count: Optional[int]
    missing: tuple[VarPrime, ...] = ()
    extra: tuple[VarPrime, ...] = ()
    persistence: Optional[bool] = None
    one_sided: bool = False
    witnesses: tuple[WitnessOutcome, ...] = ()
    wall_time_ms: Optional[float] = None

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


def _zero_report(n: int, t: int, k: int, method: str) -> VerificationReport:
    return VerificationReport(
        n=n,
        t=t,
        k=k,
        case=PathCase.ZERO,
        method=method,
        verdict=VERDICT_ZERO,
        predicted_count=0,
        computed_count=0,
        wall_time_ms=0.0,
    )


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
    Exceeding the wall-clock budget yields a SKIPPED verdict, never a silent
    pass.
    """
    if method not in (METHOD_DECOMPOSITION, METHOD_WITNESS):
        raise ValueError(f"unknown method {method!r}")
    case = classify(n, t)
    if case is PathCase.ZERO:
        return _zero_report(n, t, k, method)

    start = time.monotonic()
    deadline = start + budget_seconds
    predicted = predicted_ass(n, t, k)
    try:
        if method == METHOD_DECOMPOSITION:
            power = path_power(n, t, k)
            computed = associated_primes(power, cache=cache, deadline=deadline)
            predicted_set = set(predicted)
            computed_set = set(computed)
            missing = tuple(sorted(predicted_set - computed_set, key=lambda p: p.sort_key))
            extra = tuple(sorted(computed_set - predicted_set, key=lambda p: p.sort_key))
            verdict = VERDICT_PASS if not missing and not extra else VERDICT_FAIL
            return VerificationReport(
                n=n,
                t=t,
                k=k,
                case=case,
                method=method,
                verdict=verdict,
                predicted_count=len(predicted),
                computed_count=len(computed),
                missing=missing,
                extra=extra,
                wall_time_ms=(time.monotonic() - start) * 1000.0,
            )
        ideal = ind_ideal(n, t)
        power = path_power(n, t, k)
        outcomes = []
        for prime in predicted:
            if time.monotonic() > deadline:
                raise DeadlineExceeded("witness sweep exceeded its time budget")
            u = witness_monomial(n, t, k, prime)
            check = verify_witness(ideal, k, u, prime, power=power)
            outcomes.append(WitnessOutcome(prime, check.ok, check.reason))
        verdict = VERDICT_PASS if all(w.ok for w in outcomes) else VERDICT_FAIL
        return VerificationReport(
            n=n,
            t=t,
            k=k,
            case=case,
            method=method,
            verdict=verdict,
            predicted_count=len(predicted),
            computed_count=None,
            one_sided=True,
            witnesses=tuple(outcomes),
            wall_time_ms=(time.monotonic() - start) * 1000.0,
        )
    except DeadlineExceeded:
        return VerificationReport(
            n=n,
            t=t,
            k=k,
            case=case,
            method=method,
            verdict=VERDICT_SKIPPED,
            predicted_count=len(predicted),
            computed_count=None,
            one_sided=method == METHOD_WITNESS,
            wall_time_ms=(time.monotonic() - start) * 1000.0,
        )


def persistence_scan(
    n: int,
    t: int,
    kmax: int,
    *,
    budget_seconds: float = DEFAULT_CELL_BUDGET_SECONDS,
    cache: Optional[DecompositionCache] = None,
) -> list[VerificationReport]:
    """Associated primes for k = 1..kmax with chain-inclusion flags.

    Each report's persistence flag records whether the computed set at k
    contains the computed set at k-1 (vacuously true at k = 1).  The computed
    set is read back from the report, as predicted - missing + extra.
    """
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    case = classify(n, t)
    if case is PathCase.ZERO:
        return [_zero_report(n, t, k, METHOD_DECOMPOSITION) for k in range(1, kmax + 1)]
    reports = []
    previous: Optional[set[VarPrime]] = None
    for k in range(1, kmax + 1):
        report = verify_cell(
            n, t, k, METHOD_DECOMPOSITION, budget_seconds=budget_seconds, cache=cache
        )
        if report.verdict != VERDICT_SKIPPED:
            computed = (set(predicted_ass(n, t, k)) - set(report.missing)) | set(report.extra)
            report.persistence = True if previous is None else previous <= computed
            previous = computed
        reports.append(report)
    return reports


@dataclass(frozen=True)
class AstabResult:
    """Empirical index of stability from a bounded scan of powers.

    `observed` is None when the scan window cannot certify stabilization
    (the first stable index coincides with kmax).
    """

    n: int
    t: int
    kmax: int
    observed: Optional[int]
    predicted: int
    chain_sizes: tuple[int, ...]

    @property
    def undetermined(self) -> bool:
        return self.observed is None

    @property
    def matches(self) -> Optional[bool]:
        return None if self.observed is None else self.observed == self.predicted


def empirical_astab(
    n: int,
    t: int,
    kmax: int,
    *,
    cache: Optional[DecompositionCache] = None,
) -> AstabResult:
    """Smallest k0 with Ass stable from k0 through kmax, compared to the prediction."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    predicted = predicted_astab(n, t)
    chains: list[set[VarPrime]] = []
    for k in range(1, kmax + 1):
        chains.append(set(associated_primes(path_power(n, t, k), cache=cache)))
    k0 = kmax
    for k in range(kmax - 1, 0, -1):
        if chains[k - 1] == chains[kmax - 1]:
            k0 = k
        else:
            break
    observed = None if k0 == kmax else k0
    return AstabResult(
        n=n,
        t=t,
        kmax=kmax,
        observed=observed,
        predicted=predicted,
        chain_sizes=tuple(len(c) for c in chains),
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
    if merged["method"] not in (METHOD_DECOMPOSITION, METHOD_WITNESS):
        raise ConfigError(f"method must be {METHOD_DECOMPOSITION!r} or {METHOD_WITNESS!r}")
    if not _is_budget(merged["cell_budget_seconds"]):
        raise ConfigError("cell_budget_seconds must be a finite number above zero")
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
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return validate_config(raw)


@dataclass
class ScanResult:
    config: dict
    reports: list[VerificationReport]
    exit_code: int
    structured: str = field(repr=False, default="")
    table: str = field(repr=False, default="")


def _render_structured(config: dict, reports: Sequence[VerificationReport]) -> str:
    include_timings = config["include_timings"]
    # parallelism is an execution knob, not part of what was verified; leaving
    # it out keeps serial and parallel reports byte-identical
    echo = {key: value for key, value in config.items() if key != "parallelism"}
    doc = {
        "header": {"tool": "pathideal", "version": __version__, "config": echo},
        "cells": [r.to_record(include_timings) for r in reports],
        "summary": {
            "cells": len(reports),
            "pass": sum(r.verdict == VERDICT_PASS for r in reports),
            "fail": sum(r.verdict == VERDICT_FAIL for r in reports),
            "skipped": sum(r.verdict == VERDICT_SKIPPED for r in reports),
            "zero": sum(r.verdict == VERDICT_ZERO for r in reports),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _render_table(config: dict, reports: Sequence[VerificationReport]) -> str:
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
    lines.append(
        "summary: "
        f"pass={sum(r.verdict == VERDICT_PASS for r in reports)} "
        f"fail={sum(r.verdict == VERDICT_FAIL for r in reports)} "
        f"skipped={sum(r.verdict == VERDICT_SKIPPED for r in reports)} "
        f"zero={sum(r.verdict == VERDICT_ZERO for r in reports)}"
    )
    if config["method"] == METHOD_WITNESS:
        lines.append(
            "note: witness-only verification is one-sided; it cannot detect extra primes"
        )
    return "\n".join(lines) + "\n"


def grid_scan(config: dict, *, cache: Optional[DecompositionCache] = None) -> ScanResult:
    """Run verify_cell over the configured grid and render both report forms.

    Cells run independently (optionally in threads); the output is sorted by
    (t, n, k), so serial and parallel runs render byte-identical reports.
    """
    config = validate_config(config)
    cells = [
        (t, n, k)
        for t in config["t_values"]
        for n in range(config["n_range"][0], config["n_range"][1] + 1)
        for k in range(config["k_range"][0], config["k_range"][1] + 1)
    ]

    def run(cell: tuple[int, int, int]) -> VerificationReport:
        t, n, k = cell
        return verify_cell(
            n,
            t,
            k,
            config["method"],
            budget_seconds=config["cell_budget_seconds"],
            cache=cache,
        )

    if config["parallelism"] == 1:
        reports = [run(c) for c in cells]
    else:
        with ThreadPoolExecutor(max_workers=config["parallelism"]) as pool:
            reports = list(pool.map(run, cells))
    reports.sort(key=lambda r: (r.t, r.n, r.k))
    exit_code = 1 if any(r.verdict == VERDICT_FAIL for r in reports) else 0
    return ScanResult(
        config=config,
        reports=reports,
        exit_code=exit_code,
        structured=_render_structured(config, reports),
        table=_render_table(config, reports),
    )
