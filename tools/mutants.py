#!/usr/bin/env python3
"""Mutation run: every listed one-line mutant of src/pathideal must fail its tests.

A mutant replaces one piece of text, found exactly once and within one line,
in one module of the package.  Each mutant names the test files expected to
kill it.  The script copies `src`, `tests` and `pyproject.toml` to a
temporary directory, checks that the unmutated copy passes every kill set,
and then applies the mutants one at a time to the copy, running each kill
set with `pytest -x` in a single child process, one after another (never a
pool).  A mutant survives when its tests pass.

    python tools/mutants.py

Exit status: 0 when every mutant is killed, 1 when any survives, and 2 when
the list is stale (a mutant's text is not found exactly once in its module,
or spans more than one line) or the unmutated copy fails its kill sets.

`_INDEX_WIDTH = 1` is left out on purpose: the list step and the bitset
index give the same components, so that mutant is equivalent.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

VERIFY = "tests/test_verify.py"
DECOMPOSITION = "tests/test_decomposition.py"
IDEAL = "tests/test_ideal.py"
MONOMIAL = "tests/test_monomial.py"
CLOSEDFORM = "tests/test_closedform.py"
PATHFAMILY = "tests/test_pathfamily.py"
COUNTS = "tests/test_counts.py"
RECORDS = "tests/test_records.py"
GOLDEN_ALGEBRA = "tests/golden/test_golden.py::test_sections_match_recorded_hashes[algebra]"
GOLDEN_CLI = "tests/golden/test_golden.py::test_sections_match_recorded_hashes[cli]"


class Mutant(NamedTuple):
    name: str
    module: str  # a file under src/pathideal
    old: str
    new: str
    kills: tuple[str, ...]  # test files or test ids, relative to the repository root


MUTANTS = (
    # the verifier's failure paths: a verifier that always says PASS
    Mutant(
        "verify_cell reports nothing missing",
        "verify.py",
        "report.missing = tuple(p for p in predicted if p not in found)",
        "report.missing = ()",
        (VERIFY,),
    ),
    Mutant(
        "verify_cell reports nothing extra",
        "verify.py",
        "report.extra = tuple(p for p in computed if p not in expected)",
        "report.extra = ()",
        (VERIFY,),
    ),
    Mutant(
        "pathideal ass prints no extra primes",
        "cli.py",
        """lines.append(f"  extra: {', '.join(str(p) for p in report.extra)}")""",
        "pass",
        (VERIFY,),
    ),
    Mutant(
        "the scan table has no time column",
        "verify.py",
        "if include_timings:",
        "if False:",
        (VERIFY,),
    ),
    Mutant(
        "decomposition method always ok",
        "verify.py",
        "ok = not report.missing and not report.extra",
        "ok = True",
        (VERIFY,),
    ),
    Mutant(
        "witness method always ok",
        "verify.py",
        "ok = all(checks)",
        "ok = True",
        (VERIFY,),
    ),
    Mutant(
        "grid_scan always exits 0",
        "verify.py",
        'exit_code=1 if counts["fail"] else 0,',
        "exit_code=0,",
        (VERIFY,),
    ),
    Mutant(
        "persistence_scan always persistent",
        "verify.py",
        "report.persistence = previous <= computed",
        "report.persistence = True",
        (VERIFY,),
    ),
    # the one chain over k that persistence_scan and empirical_astab read
    Mutant(
        "persistence flag compares a power with itself, not with k - 1",
        "verify.py",
        "report.persistence = previous <= computed",
        "report.persistence = computed <= computed",
        (VERIFY,),
    ),
    Mutant(
        "empirical_astab reads the chain past its first SKIPPED power",
        "verify.py",
        "known = list(takewhile(lambda primes: primes is not None, sets))",
        "known = list(filter(lambda primes: primes is not None, sets))",
        (VERIFY,),
    ),
    Mutant(
        "empirical_astab reports the predicted index",
        "verify.py",
        "observed=None if k0 == kmax else k0,",
        "observed=None if k0 == kmax else predicted,",
        (VERIFY,),
    ),
    Mutant(
        "_is_budget accepts infinity",
        "verify.py",
        "and 0 < value <= sys.float_info.max",
        "and 0 < value",
        (VERIFY, GOLDEN_CLI),
    ),
    Mutant(
        "pathideal astab ignores its budget",
        "cli.py",
        "result = empirical_astab(args.n, args.t, args.kmax, budget_seconds=args.budget)",
        "result = empirical_astab(args.n, args.t, args.kmax)",
        (VERIFY,),
    ),
    Mutant(
        "pathideal decompose ignores its budget",
        "cli.py",
        "deadline = time.monotonic() + args.budget",
        "deadline = time.monotonic() + DEFAULT_CELL_BUDGET_SECONDS",
        (VERIFY,),
    ),
    Mutant(
        "pathideal ass exits 0 on FAIL",
        "cli.py",
        "return 1 if report.verdict == VERDICT_FAIL else 0",
        "return 0",
        (VERIFY,),
    ),
    Mutant(
        "pathideal persistence exits 0 on a violation",
        "cli.py",
        "return 1 if failed else 0",
        "return 0",
        (VERIFY,),
    ),
    Mutant(
        "pathideal astab exits 0 on a mismatch",
        "cli.py",
        "return 1 if result.matches is False else 0",
        "return 0",
        (VERIFY,),
    ),
    Mutant(
        "pathideal scan exits 0 on FAIL",
        "cli.py",
        "return result.exit_code",
        "return 0",
        (VERIFY,),
    ),
    # witness reasons, deadlines and the memo resume
    Mutant(
        "witness inside the power not detected",
        "decomposition.py",
        "if ik.contains(u):",
        "if False:",
        (DECOMPOSITION,),
    ),
    Mutant(
        "colon too big not detected",
        "decomposition.py",
        "if not colon.is_subset(prime_ideal):",
        "if False:",
        (DECOMPOSITION,),
    ),
    Mutant(
        "colon too small not detected",
        "decomposition.py",
        "if not prime_ideal.is_subset(colon):",
        "if False:",
        (DECOMPOSITION,),
    ),
    Mutant(
        "decomposition ignores its deadline",
        "decomposition.py",
        '_check_deadline(deadline, "decomposition")',
        "pass",
        (DECOMPOSITION,),
    ),
    Mutant(
        "prediction ignores its deadline",
        "closedform.py",
        '_check_deadline(deadline, "prediction")',
        "pass",
        (CLOSEDFORM,),
    ),
    Mutant(
        "memo resumes from the shortest prefix",
        "decomposition.py",
        "for start in sorted(cuts, reverse=True):",
        "for start in sorted(cuts):",
        (DECOMPOSITION,),
    ),
    Mutant(
        "resume counts no miss",
        "decomposition.py",
        "self.misses += 1",
        "pass",
        (DECOMPOSITION,),
    ),
    # the memo's keys and cap
    Mutant(
        "memo keys interned under the wrong value",
        "decomposition.py",
        "self._data[tuple([canonical.setdefault(g, g) for g in prefix])] = value",
        "self._data[tuple([canonical.setdefault(g >> 1, g) for g in prefix])] = value",
        (DECOMPOSITION,),
    ),
    Mutant(
        "memo table kept when a full cache is emptied",
        "decomposition.py",
        "self._canonical.clear()",
        "pass",
        (DECOMPOSITION,),
    ),
    Mutant(
        "a full cache is not emptied",
        "decomposition.py",
        "self._data.clear()",
        "pass",
        (DECOMPOSITION,),
    ),
    # the one count rule and the checks that read it
    Mutant(
        "_is_count accepts a bool",
        "monomial.py",
        "return isinstance(value, int) and not isinstance(value, bool) and value >= 1",
        "return isinstance(value, int) and value >= 1",
        (COUNTS,),
    ),
    Mutant(
        "_is_count accepts floats",
        "monomial.py",
        "return isinstance(value, int) and not isinstance(value, bool) and value >= 1",
        "return isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 1",
        (COUNTS,),
    ),
    Mutant(
        "MonomialIdeal.power skips its count check",
        "ideal.py",
        "if not _is_count(k):",
        "if False:",
        (COUNTS,),
    ),
    Mutant(
        "MonomialIdeal skips its nvars check",
        "ideal.py",
        "_check_ring(nvars)",
        "pass",
        (COUNTS,),
    ),
    Mutant(
        "verify_witness skips its count check",
        "decomposition.py",
        "if not _is_count(k):",
        "if False:",
        (COUNTS,),
    ),
    Mutant(
        "intersect_components skips its nvars check",
        "decomposition.py",
        "_check_ring(nvars)",
        "pass",
        (COUNTS,),
    ),
    Mutant(
        "intersect_components ignores a component on another ring",
        "decomposition.py",
        "if c.nvars != nvars:",
        "if False:",
        (DECOMPOSITION,),
    ),
    Mutant(
        "Monomial.one skips its count check",
        "monomial.py",
        "return cls.from_support((), nvars)",
        "return cls([0] * nvars)",
        (COUNTS,),
    ),
    Mutant(
        "Monomial.variable skips the count rule",
        "monomial.py",
        "_check_ring(nvars, (index,))",
        "_check_ring(nvars)",
        (COUNTS,),
    ),
    # the one ring rule, and the errors the command line answers with exit 2
    Mutant(
        "the ring rule lets an index above nvars through",
        "monomial.py",
        "if not (_is_count(i) and i <= nvars):",
        "if not _is_count(i):",
        (DECOMPOSITION,),
    ),
    Mutant(
        "Monomial accepts an empty exponent vector",
        "monomial.py",
        "if not exps:",
        "if False:",
        (MONOMIAL,),
    ),
    Mutant(
        "ExponentOverflow is not a ValueError",
        "monomial.py",
        "class ExponentOverflow(OverflowError, ValueError):",
        "class ExponentOverflow(OverflowError):",
        (VERIFY,),
    ),
    Mutant(
        "a budget past the float range raises OverflowError",
        "verify.py",
        "and 0 < value <= sys.float_info.max",
        "and 0 < float(value) <= sys.float_info.max",
        (VERIFY,),
    ),
    Mutant(
        "Monomial accepts a boolean exponent",
        "monomial.py",
        "if not isinstance(e, int) or e < 0 or e.__class__ is bool:",
        "if not isinstance(e, int) or e < 0:",
        (MONOMIAL,),
    ),
    # intersection, the squarefree oracle, prime and component checks, counts
    Mutant(
        "intersect sweeps no inside generators",
        "ideal.py",
        "while below < len(inside) and inside[below] < t:",
        "while False:",
        (IDEAL, GOLDEN_ALGEBRA),
    ),
    Mutant(
        "intersect drops inside generators",
        "ideal.py",
        "inside.append(u)",
        "pass",
        (IDEAL, GOLDEN_ALGEBRA),
    ),
    Mutant(
        "intersect sweeps unsorted lcms",
        "ideal.py",
        "for t in sorted(lcms):",
        "for t in lcms:",
        (IDEAL, GOLDEN_ALGEBRA),
    ),
    Mutant(
        "oracle shifts by v, not 2^v",
        "decomposition.py",
        "shrinkable |= (transversals & ~holding) << (1 << v)",
        "shrinkable |= (transversals & ~holding) << v",
        (DECOMPOSITION,),
    ),
    Mutant(
        "oracle's contains[v] holds the subsets without v",
        "decomposition.py",
        "(((1 << (1 << v)) - 1) << (1 << v))",
        "((1 << (1 << v)) - 1)",
        (DECOMPOSITION,),
    ),
    Mutant(
        "VarPrime skips its index check",
        "decomposition.py",
        "_check_ring(nvars, vs)",
        "_check_ring(nvars)",
        (DECOMPOSITION,),
    ),
    Mutant(
        "IrreducibleComponent accepts a repeated index",
        "decomposition.py",
        "if len({i for i, _ in items}) < len(items):",
        "if False:",
        (DECOMPOSITION,),
    ),
    Mutant(
        "components get 0-based indices",
        "decomposition.py",
        "powers.append((j + 1, e))",
        "powers.append((j, e))",
        (DECOMPOSITION,),
    ),
    Mutant(
        "canonical order drops the size",
        "decomposition.py",
        "return (len(items), items)",
        "return (0, items)",
        (DECOMPOSITION,),
    ),
    # the value semantics of the record types
    Mutant(
        "record equality without the class check",
        "decomposition.py",
        "if other.__class__ is self.__class__:",
        "if True:",
        (RECORDS,),
    ),
    Mutant(
        "a report compares its computed primes",
        "verify.py",
        'class VerificationReport(_Record, uncompared=("computed_primes",), hidden=("computed_primes",)):',
        'class VerificationReport(_Record, hidden=("computed_primes",)):',
        (RECORDS,),
    ),
    Mutant(
        "a frozen record takes assignment",
        "decomposition.py",
        "cls.__setattr__ = cls.__delattr__ = _Record._refuse",
        "cls.__delattr__ = _Record._refuse",
        (RECORDS,),
    ),
    Mutant(
        "__reduce__ drops the last field",
        "decomposition.py",
        "return type(self), self._fields(self)",
        "return type(self), self._fields(self)[:-1]",
        (RECORDS,),
    ),
    # the indexed step's near test and slot reuse
    Mutant(
        "near slots are those below the missed component in no field",
        "decomposition.py",
        "near = ~two",
        "near = ~one",
        (DECOMPOSITION,),
    ),
    Mutant(
        "rivals need not lie below the missed component at the lowered field",
        "decomposition.py",
        "| rivals & below[j])",
        "| rivals)",
        (DECOMPOSITION,),
    ),
    Mutant(
        "a lowered slot keeps its bit under its old value",
        "decomposition.py",
        "_clear(values, v & field, bit)",
        "pass",
        (DECOMPOSITION,),
    ),
    Mutant(
        "one guard bit short",
        "monomial.py",
        "return (_FIELD + 1) * (((1 << nvars * _W) - 1) // ((1 << _W) - 1))",
        "return (_FIELD + 1) * (((1 << (nvars - 1) * _W) - 1) // ((1 << _W) - 1))",
        (IDEAL,),
    ),
    Mutant(
        "_top drops its + 1",
        "monomial.py",
        "return (m.bit_length() - 1) // _W + 1",
        "return (m.bit_length() - 1) // _W",
        (MONOMIAL,),
    ),
    Mutant(
        "pure-power overflow check skipped",
        "ideal.py",
        "if s & (s - 1) == 0 and k * (g // s) > EXPONENT_CAP:",
        "if False:",
        (IDEAL,),
    ),
    Mutant(
        "principal power skips its overflow check",
        "ideal.py",
        "if k * max(_unpack(g, self.nvars)) > EXPONENT_CAP:",
        "if False:",
        (IDEAL,),
    ),
    Mutant(
        "classify accepts NaN",
        "pathfamily.py",
        "if not (_is_count(n) and _is_count(t)):",
        "if n < 1 or t < 1:",
        (PATHFAMILY, CLOSEDFORM),
    ),
    Mutant(
        "independent_sets checks the cap before a zero cell",
        "pathfamily.py",
        "if classify(n, t) is PathCase.ZERO:  # checks n and t",
        "if _check_cap(n) or classify(n, t) is PathCase.ZERO:",
        (PATHFAMILY, VERIFY),
    ),
    Mutant(
        "a prime that fails the fill check passes it",
        "pathfamily.py",
        "fill_ok = False",
        "fill_ok = True",
        (PATHFAMILY,),
    ),
    Mutant(
        "predicted_ass has no path-vertex cap",
        "closedform.py",
        "_check_cap(n)",
        "None",
        (CLOSEDFORM, VERIFY),
    ),
    Mutant(
        "predicted count off by one",
        "closedform.py",
        "return sum(comb((n - length) // 2 + length, length) for length in lengths)",
        "return sum(comb((n - length) // 2 + length, length) for length in lengths) + 1",
        (CLOSEDFORM,),
    ),
    # the term layout
    Mutant(
        "Monomial packs in the wrong variable order",
        "monomial.py",
        "        for e in exps:",
        "        for e in reversed(exps):",
        (IDEAL,),
    ),
    Mutant(
        "a caret written for exponent 1",
        "monomial.py",
        'parts.append(f"x{i}^{e}" if e > 1 else f"x{i}")',
        'parts.append(f"x{i}^{e}" if e >= 1 else f"x{i}")',
        (MONOMIAL, IDEAL),
    ),
    Mutant(
        "no caret for exponent 2",
        "monomial.py",
        'parts.append(f"x{i}^{e}" if e > 1 else f"x{i}")',
        'parts.append(f"x{i}^{e}" if e > 2 else f"x{i}")',
        (MONOMIAL, IDEAL),
    ),
    Mutant(
        "terms sorted by support size, not degree",
        "monomial.py",
        "degree += e",
        "degree += 1",
        (IDEAL,),
    ),
    Mutant(
        "contains reads a monomial without its guards",
        "ideal.py",
        "return _divides_some(self._packed, m._packed | guards, guards)",
        "return _divides_some(self._packed, m._packed, guards)",
        (IDEAL,),
    ),
    # the two shared checks of ideal.py
    Mutant(
        "divisibility test passes on any guard bit left",
        "ideal.py",
        "if (high - g) & guards == guards:",
        "if (high - g) & guards:",
        (IDEAL, GOLDEN_ALGEBRA),
    ),
    Mutant(
        "deadline check never fires",
        "ideal.py",
        "if deadline is not None and time.monotonic() > deadline:",
        "if False:",
        (IDEAL, DECOMPOSITION, CLOSEDFORM),
    ),
)


def run_pytest(copy: Path, files) -> subprocess.CompletedProcess:
    """Run the test files on the copy in one child process, stopping at the first failure."""
    # no bytecode: a mutant and its restored original can share a size and an mtime second
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)


def mutate(source: str, mutant: Mutant) -> str:
    if "\n" in mutant.old + mutant.new:
        raise LookupError(f"{mutant.name}: a mutant changes one line only")
    if source.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: {mutant.old!r} is not in {mutant.module} exactly once")
    return source.replace(mutant.old, mutant.new)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="pathideal-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        package = copy / "src" / "pathideal"
        originals = {m.module: (package / m.module).read_text() for m in MUTANTS}
        try:
            for mutant in MUTANTS:
                mutate(originals[mutant.module], mutant)
        except LookupError as exc:
            print(f"stale mutant list: {exc}")
            return 2
        every_kill_set = sorted({f for m in MUTANTS for f in m.kills})
        baseline = run_pytest(copy, every_kill_set)
        if baseline.returncode != 0:
            print(baseline.stdout[-4000:])
            print("the unmutated copy fails its kill sets: " + " ".join(every_kill_set))
            return 2
        survivors = []
        for mutant in MUTANTS:
            target = package / mutant.module
            target.write_text(mutate(originals[mutant.module], mutant))
            start = time.monotonic()
            try:
                killed = run_pytest(copy, mutant.kills).returncode != 0
            finally:
                target.write_text(originals[mutant.module])
            verdict = "killed  " if killed else "SURVIVED"
            print(f"{verdict} {time.monotonic() - start:5.1f} s  {mutant.name}", flush=True)
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
