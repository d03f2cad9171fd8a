"""Cell verification, persistence scans, stability scans, grid scans, and the CLI."""

import hashlib
import json
import re
import threading
import time
from pathlib import Path

import pytest

from pathideal import (
    DecompositionCache,
    Monomial,
    PathCase,
    cli,
    empirical_astab,
    grid_scan,
    persistence_scan,
    predicted_ass,
    verify,
    verify_cell,
)
from pathideal.cli import build_parser, main
from pathideal.decomposition import WITNESS_IN_POWER, VarPrime
from pathideal.ideal import DeadlineExceeded, MonomialIdeal
from pathideal.monomial import EXPONENT_CAP
from pathideal.pathfamily import ZeroIdealError, ind_ideal
from pathideal.verify import (
    DEFAULT_CELL_BUDGET_SECONDS,
    ConfigError,
    METHOD_DECOMPOSITION,
    METHOD_WITNESS,
    VERDICT_FAIL,
    VERDICT_PASS,
    VERDICT_SKIPPED,
    VERDICT_ZERO,
    load_config,
    validate_config,
)

# a NaN deadline never fires, a boolean is not a number of seconds, and an int
# past the float range cannot be added to the clock
PAST_FLOAT = pytest.param(10**400, id="10**400")
BAD_BUDGETS = [float("nan"), float("inf"), float("-inf"), 0, 0.0, -1.0, True, False, PAST_FLOAT]
# every refusal names the rule _is_budget applies
BUDGET_RULE = "a number in (0, sys.float_info.max]"


def skip_power(monkeypatch, skipped_k):
    """Make building the given power run out of time; record every power's deadline."""
    deadlines = []
    real_power = MonomialIdeal.power

    def power(self, k, *, deadline=None):
        deadlines.append(deadline)
        if k == skipped_k:
            raise DeadlineExceeded("forced")
        return real_power(self, k, deadline=deadline)

    monkeypatch.setattr(MonomialIdeal, "power", power)
    return deadlines


def fault_primes(monkeypatch, faults):
    """Make the engine's Ass set wrong on chosen powers: `faults` maps I(n,t)^k to
    a change of its computed primes."""
    real = verify.associated_primes

    def faulty(power, **kwargs):
        primes = real(power, **kwargs)
        change = faults.get(power)
        return primes if change is None else change(primes)

    monkeypatch.setattr(verify, "associated_primes", faulty)


@pytest.mark.parametrize("bad", [True, False, 0, 2.0])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["n", "t", "k"])
@pytest.mark.parametrize(
    "function, args",
    [(verify_cell, (5, 2, 2)), (persistence_scan, (5, 2, 3)), (empirical_astab, (5, 2, 3))],
    ids=["verify_cell", "persistence_scan", "empirical_astab"],
)
def test_non_count_parameters_rejected(function, args, position, bad):
    # a boolean is an int to Python, and would otherwise be echoed as "k": true
    args = list(args)
    args[position] = bad
    with pytest.raises(ValueError, match="must be positive integers"):
        function(*args)


class TestVerifyCell:
    def test_tight_case_passes(self):
        report = verify_cell(3, 2, 5)
        assert report.verdict == VERDICT_PASS
        assert report.predicted_count == report.computed_count == 2

    def test_wide_case_counts(self):
        assert verify_cell(5, 2, 1).computed_count == 4
        report = verify_cell(5, 2, 2)
        assert report.verdict == VERDICT_PASS and report.computed_count == 5

    def test_zero_cell_tagged(self):
        report = verify_cell(2, 2, 1)
        assert report.verdict == VERDICT_ZERO and report.case is PathCase.ZERO

    def test_witness_method_is_one_sided(self):
        report = verify_cell(5, 2, 2, METHOD_WITNESS)
        assert report.verdict == VERDICT_PASS
        assert report.one_sided
        assert report.computed_count is None
        assert len(report.witnesses) == report.predicted_count == 5
        assert all(w.ok for w in report.witnesses)
        assert tuple(w.prime for w in report.witnesses) == predicted_ass(5, 2, 2)

    def test_decomposition_method_not_one_sided(self):
        assert not verify_cell(4, 2, 2).one_sided

    def test_budget_breach_reports_skipped(self):
        report = verify_cell(8, 2, 3, budget_seconds=1e-9)
        assert report.verdict == VERDICT_SKIPPED

    def test_budget_overshoot_is_bounded(self):
        # decomposing I(10,4)^4 takes about a second, far past the budget
        start = time.monotonic()
        report = verify_cell(10, 4, 4, budget_seconds=0.2, cache=DecompositionCache())
        assert report.verdict == VERDICT_SKIPPED
        assert time.monotonic() - (start + 0.2) <= 2.0

    def test_budget_covers_building_the_power(self):
        # building I(13,4)^3 alone takes several seconds
        start = time.monotonic()
        report = verify_cell(13, 4, 3, budget_seconds=0.5, cache=DecompositionCache())
        assert report.verdict == VERDICT_SKIPPED
        assert time.monotonic() - (start + 0.5) <= 2.0

    def test_budget_spent_on_the_prediction_skips_the_power(self, monkeypatch):
        real_prediction = verify.predicted_ass

        def slow_prediction(n, t, k, *, deadline):
            time.sleep(0.05)
            return real_prediction(n, t, k)

        monkeypatch.setattr(verify, "predicted_ass", slow_prediction)
        powers = skip_power(monkeypatch, None)
        report = verify_cell(6, 2, 2, budget_seconds=0.01)
        assert report.verdict == VERDICT_SKIPPED
        assert powers == []
        assert report.predicted_count == len(real_prediction(6, 2, 2))

    def test_budget_spent_on_the_ideal_skips_the_prediction(self, monkeypatch):
        real_ideal, predictions = verify.ind_ideal, []

        def slow_ideal(n, t):
            time.sleep(0.05)
            return real_ideal(n, t)

        monkeypatch.setattr(verify, "ind_ideal", slow_ideal)
        monkeypatch.setattr(verify, "predicted_ass", lambda *args: predictions.append(args))
        report = verify_cell(9, 3, 3, budget_seconds=0.01)
        assert report.verdict == VERDICT_SKIPPED
        assert predictions == []
        assert report.predicted_count == len(predicted_ass(9, 3, 3))

    def test_budget_runs_out_inside_the_prediction(self, monkeypatch):
        # the clock passes the deadline as the prediction starts: the prediction
        # stops itself, and no power is built
        real_prediction, stopped = verify.predicted_ass, []
        now = [0.0]
        monkeypatch.setattr(time, "monotonic", lambda: now[0])

        def prediction(n, t, k, *, deadline):
            now[0] = deadline + 1.0
            try:
                return real_prediction(n, t, k, deadline=deadline)
            except DeadlineExceeded:
                stopped.append((n, t, k))
                raise

        monkeypatch.setattr(verify, "predicted_ass", prediction)
        powers = skip_power(monkeypatch, None)
        report = verify_cell(24, 8, 8, budget_seconds=0.1)
        assert report.verdict == VERDICT_SKIPPED and report.computed_primes is None
        assert stopped == [(24, 8, 8)] and powers == []
        assert report.predicted_count == 56070

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_bad_budget_rejected(self, budget):
        with pytest.raises(ValueError) as exc:
            verify_cell(5, 2, 2, budget_seconds=budget)
        assert str(exc.value) == f"budget_seconds must be {BUDGET_RULE}"

    @pytest.mark.parametrize(
        "function, args",
        [
            (verify_cell, (60, 20, 20, METHOD_DECOMPOSITION)),
            (verify_cell, (60, 20, 20, METHOD_WITNESS)),
            (persistence_scan, (60, 20, 20)),
            (empirical_astab, (60, 20, 20)),
        ],
        ids=["verify_cell", "witness", "persistence_scan", "empirical_astab"],
    )
    def test_over_cap_rejected_within_a_second(self, function, args):
        # the prediction for n = 60 runs for minutes; the cap check comes first
        start = time.monotonic()
        with pytest.raises(ValueError, match="exceeds the enumeration cap 24"):
            function(*args, budget_seconds=1)
        assert time.monotonic() - start < 1.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            verify_cell(4, 2, 1, "guesswork")


class TestPersistenceScan:
    def test_chain_sizes_wide_case(self):
        reports = persistence_scan(5, 2, 3)
        assert [r.computed_count for r in reports] == [4, 5, 5]
        assert all(r.persistence for r in reports)

    def test_constant_chain_even_case(self):
        reports = persistence_scan(4, 2, 4)
        assert [r.computed_count for r in reports] == [3, 3, 3, 3]
        assert all(r.persistence for r in reports)

    def test_six_vertices(self):
        reports = persistence_scan(6, 2, 3)
        assert [r.computed_count for r in reports] == [5, 6, 6]

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            persistence_scan(5, 2, 1)

    def test_flag_unknown_after_skipped_cell(self, monkeypatch):
        # the flag at k compares k with k-1; a SKIPPED k-1 leaves it unknown
        skip_power(monkeypatch, 2)
        reports = persistence_scan(6, 2, 3)
        assert [(r.k, r.verdict, r.persistence) for r in reports] == [
            (1, VERDICT_PASS, True),
            (2, VERDICT_SKIPPED, None),
            (3, VERDICT_PASS, None),
        ]

    def test_zero_chain_has_no_flags(self):
        reports = persistence_scan(2, 2, 3)
        assert [(r.k, r.verdict, r.persistence) for r in reports] == [
            (k, VERDICT_ZERO, None) for k in (1, 2, 3)
        ]

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_bad_budget_rejected(self, budget):
        # the zero case (2, 2) returns without decomposing, and still checks
        for n in (5, 2):
            with pytest.raises(ValueError) as exc:
                persistence_scan(n, 2, 3, budget_seconds=budget)
            assert str(exc.value) == f"budget_seconds must be {BUDGET_RULE}"


@pytest.mark.parametrize(
    "chain, kmax", [(persistence_scan, 3), (empirical_astab, 4)], ids=["persistence", "astab"]
)
def test_chain_predicts_once_per_power(monkeypatch, chain, kmax):
    # each power's computed set comes from its cell, not from a second prediction
    calls = []
    real_predicted_ass = verify.predicted_ass

    def counted(*args, **kwargs):
        calls.append(args)
        return real_predicted_ass(*args, **kwargs)

    monkeypatch.setattr(verify, "predicted_ass", counted)
    chain(6, 2, kmax)
    assert calls == [(6, 2, k) for k in range(1, kmax + 1)]


@pytest.mark.parametrize("skipped_k", [None, 2], ids=["finished", "skipped"])
def test_chains_walk_the_same_cells(monkeypatch, skipped_k):
    # both read one chain: the same cells in the same order, and astab's
    # walk ends at its first SKIPPED power
    cells = []
    real_verify_cell = verify.verify_cell

    def recording(n, t, k, *args, **kwargs):
        cells.append((n, t, k))
        return real_verify_cell(n, t, k, *args, **kwargs)

    monkeypatch.setattr(verify, "verify_cell", recording)
    skip_power(monkeypatch, skipped_k)
    persistence_scan(6, 2, 3)
    persistence_cells = list(cells)
    cells.clear()
    empirical_astab(6, 2, 3)
    assert persistence_cells == [(6, 2, k) for k in (1, 2, 3)]
    assert cells == persistence_cells[: skipped_k or 3]


class TestEmpiricalAstab:
    def test_wide_case_matches_prediction(self):
        result = empirical_astab(5, 2, 4)
        assert result.observed == 2 and result.predicted == 2 and result.matches

    def test_even_case(self):
        result = empirical_astab(4, 2, 4)
        assert result.observed == 1 and result.matches

    def test_window_too_small_is_undetermined(self):
        result = empirical_astab(7, 3, 2)
        assert result.undetermined and result.observed is None and result.matches is None

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            empirical_astab(5, 2, 0)

    def test_single_power_is_undetermined(self):
        result = empirical_astab(5, 2, 1)
        assert result.undetermined and result.chain_sizes == (4,)

    def test_each_power_is_bounded(self, monkeypatch):
        # every power gets the cell budget; a SKIPPED one leaves the index open
        # and no later power is built
        deadlines = skip_power(monkeypatch, 2)
        earliest = time.monotonic() + DEFAULT_CELL_BUDGET_SECONDS
        result = empirical_astab(5, 2, 4)
        latest = time.monotonic() + DEFAULT_CELL_BUDGET_SECONDS
        assert result.undetermined and result.matches is None
        assert result.chain_sizes == (4, None, None, None)
        assert len(deadlines) == 2 and all(earliest <= d <= latest for d in deadlines)

    def test_zero_ideal_raises_before_any_cell(self, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(verify, "verify_cell", no_cell)
        with pytest.raises(ZeroIdealError):
            empirical_astab(2, 2, 3)


# a prime that breaks the parity rule i_j = j (mod 2), so no cell predicts it
UNPREDICTED = VarPrime(5, (2, 3, 4))
ONE_CELL = {"t_values": [2], "n_range": [5, 5], "k_range": [2, 2]}


class TestFailurePaths:
    """Faults injected into the engine or the witnesses must surface as FAIL."""

    def test_missing_prime_fails_the_cell(self, monkeypatch):
        predicted = predicted_ass(5, 2, 2)
        fault_primes(monkeypatch, {ind_ideal(5, 2).power(2): lambda primes: primes[1:]})
        report = verify_cell(5, 2, 2)
        assert report.verdict == VERDICT_FAIL and report.computed_count == 4
        assert report.missing == predicted[:1] == (VarPrime(5, (1, 2, 3)),)
        assert report.extra == ()
        record = report.to_record()
        assert (record["verdict"], record["missing"], record["extra"]) == ("FAIL", [[1, 2, 3]], [])

    def test_extra_prime_fails_the_cell(self, monkeypatch):
        fault_primes(monkeypatch, {ind_ideal(5, 2).power(2): lambda primes: (*primes, UNPREDICTED)})
        report = verify_cell(5, 2, 2)
        assert report.verdict == VERDICT_FAIL and report.computed_count == 6
        assert report.missing == () and report.extra == (UNPREDICTED,)
        record = report.to_record()
        assert (record["missing"], record["extra"]) == ([], [[2, 3, 4]])

    @pytest.mark.parametrize(
        "change, diff",
        [
            (lambda primes: primes[1:], "missing=[[1, 2, 3]] extra=[]"),
            (lambda primes: (*primes, UNPREDICTED), "missing=[] extra=[[2, 3, 4]]"),
        ],
        ids=["missing", "extra"],
    )
    def test_wrong_prime_fails_the_scan(self, monkeypatch, change, diff):
        fault_primes(monkeypatch, {ind_ideal(5, 2).power(2): change})
        result = grid_scan(ONE_CELL)
        assert result.exit_code == 1
        doc = json.loads(result.structured)
        assert doc["summary"] == {"cells": 1, "pass": 0, "fail": 1, "skipped": 0, "zero": 0}
        assert doc["cells"] == [result.reports[0].to_record()]
        assert doc["cells"][0]["verdict"] == "FAIL"
        row = result.table.splitlines()[5]
        assert row.split()[:5] == ["2", "5", "2", "CASE_GT_2T", "FAIL"]
        assert row.endswith("  " + diff)
        assert "summary: pass=0 fail=1 skipped=0 zero=0" in result.table

    def test_witness_inside_the_power_fails(self, monkeypatch):
        power = ind_ideal(5, 2).power(2)
        monkeypatch.setattr(verify, "witness_monomial", lambda n, t, k, prime: power.gens[0])
        report = verify_cell(5, 2, 2, METHOD_WITNESS)
        assert report.verdict == VERDICT_FAIL
        assert [(w.ok, w.reason) for w in report.witnesses] == [(False, WITNESS_IN_POWER)] * 5
        assert report.to_record()["witnesses"][0]["reason"] == WITNESS_IN_POWER
        result = grid_scan({**ONE_CELL, "method": METHOD_WITNESS})
        assert result.exit_code == 1
        assert result.table.splitlines()[5].endswith("  witnesses=5 failed=5")

    def test_chain_that_loses_a_prime_breaks_persistence(self, monkeypatch):
        fault_primes(monkeypatch, {ind_ideal(5, 2).power(3): lambda primes: primes[1:]})
        reports = persistence_scan(5, 2, 3)
        assert [(r.k, r.verdict, r.persistence) for r in reports] == [
            (1, VERDICT_PASS, True),
            (2, VERDICT_PASS, True),
            (3, VERDICT_FAIL, False),
        ]
        assert reports[2].missing == (VarPrime(5, (1, 2, 3)),)

    def test_chain_that_stabilizes_late_mismatches(self, monkeypatch):
        # k = 2 loses the maximal prime, so the chain settles at k = 3, not 2
        fault_primes(monkeypatch, {ind_ideal(5, 2).power(2): lambda primes: primes[:-1]})
        result = empirical_astab(5, 2, 4)
        assert result.chain_sizes == (4, 4, 5, 5)
        assert (result.observed, result.predicted, result.matches) == (3, 2, False)


class TestCliFailures:
    """Under an injected fault every checking command exits 1."""

    def test_ass(self, monkeypatch, capsys):
        power = ind_ideal(5, 2).power(2)
        fault_primes(monkeypatch, {power: lambda primes: (*primes[1:], UNPREDICTED)})
        assert main(["ass", "--n", "5", "--t", "2", "--k", "2"]) == 1
        out = capsys.readouterr().out
        assert ": FAIL\n" in out and "  missing: <x1,x2,x3>\n" in out
        assert "  extra: <x2,x3,x4>\n" in out

    def test_ass_witness(self, monkeypatch, capsys):
        power = ind_ideal(5, 2).power(2)
        monkeypatch.setattr(verify, "witness_monomial", lambda n, t, k, prime: power.gens[0])
        assert main(["ass", "--n", "5", "--t", "2", "--k", "2", "--method", "witness"]) == 1
        assert "5 checked, 5 failed" in capsys.readouterr().out

    def test_persistence(self, monkeypatch, capsys):
        fault_primes(monkeypatch, {ind_ideal(5, 2).power(3): lambda primes: primes[1:]})
        args = ["persistence", "--n", "5", "--t", "2", "--kmax", "3"]
        assert main(args) == 1
        assert "persistence violated at k=[3]" in capsys.readouterr().out
        assert main([*args, "--format", "structured"]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == [[5, 2, 3]]

    def test_astab(self, monkeypatch, capsys):
        fault_primes(monkeypatch, {ind_ideal(5, 2).power(2): lambda primes: primes[:-1]})
        args = ["astab", "--n", "5", "--t", "2", "--kmax", "4", "--format", "structured"]
        assert main(args) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["observed"], doc["predicted"], doc["matches"]) == (3, 2, False)

    def test_scan(self, monkeypatch, tmp_path, capsys):
        fault_primes(monkeypatch, {ind_ideal(5, 2).power(2): lambda primes: primes[1:]})
        config = tmp_path / "config.json"
        config.write_text(json.dumps(ONE_CELL))
        out = tmp_path / "report.json"
        assert main(["scan", "--config", str(config), "--out", str(out)]) == 1
        assert json.loads(out.read_text())["summary"]["fail"] == 1
        assert "summary: pass=0 fail=1" in out.with_suffix(".txt").read_text()


class TestConfig:
    def test_defaults_fill_in(self):
        config = validate_config({})
        assert config["t_values"] == [2, 3]
        assert config["method"] == METHOD_DECOMPOSITION

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            validate_config({"grid": [1, 2]})

    @pytest.mark.parametrize(
        "bad",
        [
            {"t_values": []},
            {"t_values": [0]},
            {"n_range": [5, 3]},
            {"k_range": [1]},
            {"method": "oracle"},
            {"parallelism": 0},
            {"cell_budget_seconds": -1},
            {"include_timings": "yes"},
            {"cell_budget_seconds": float("nan")},
            {"cell_budget_seconds": float("inf")},
            {"cell_budget_seconds": True},
            {"parallelism": True},
            {"t_values": [True]},
            {"n_range": [True, 3]},
            {"k_range": [1, True]},
            {"n_range": [20, 25]},
        ],
    )
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ConfigError):
            validate_config(bad)

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", pytest.param("1" + "0" * 400, id="1e400")]
    )
    def test_rejects_non_finite_budget_in_file(self, tmp_path, literal):
        # json.load accepts these literals, so they reach validate_config
        path = tmp_path / "config.json"
        path.write_text('{"cell_budget_seconds": %s}' % literal)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == f"cell_budget_seconds must be {BUDGET_RULE}"

    def test_over_cap_range_names_the_cap(self):
        assert validate_config({"n_range": [20, 24]})["n_range"] == [20, 24]
        with pytest.raises(ConfigError, match="cap 24"):
            validate_config({"n_range": [20, 26]})

    def test_non_object_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            load_config(str(path))
        assert main(["scan", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"

    def test_undecodable_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"method": "\xff"}')
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}")):
            load_config(str(path))


class TestGridScan:
    def test_small_grid_passes(self):
        result = grid_scan({"t_values": [2], "n_range": [3, 5], "k_range": [1, 2]})
        assert result.exit_code == 0
        assert all(r.verdict == VERDICT_PASS for r in result.reports)
        doc = json.loads(result.structured)
        assert doc["summary"]["fail"] == 0
        assert doc["header"]["tool"] == "pathideal"

    def test_zero_cells_excluded_from_failure(self):
        result = grid_scan({"t_values": [3], "n_range": [2, 5], "k_range": [1, 1]})
        verdicts = {(r.n): r.verdict for r in result.reports}
        assert verdicts[2] == VERDICT_ZERO and verdicts[3] == VERDICT_ZERO
        assert result.exit_code == 0

    def test_witness_grid_carries_caveat(self):
        result = grid_scan(
            {"t_values": [2], "n_range": [3, 5], "k_range": [1, 2], "method": METHOD_WITNESS}
        )
        assert result.exit_code == 0
        for record in json.loads(result.structured)["cells"]:
            if record["case"] != "ZERO":
                assert record["one_sided"] is True

    def test_serial_and_parallel_output_identical(self):
        base = {"t_values": [2], "n_range": [3, 6], "k_range": [1, 2]}
        serial = grid_scan({**base, "parallelism": 1})
        parallel = grid_scan({**base, "parallelism": 4})
        assert serial.structured == parallel.structured
        assert serial.table == parallel.table

    def test_cells_run_on_calling_thread(self, monkeypatch):
        threads = []
        original = verify.verify_cell

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "verify_cell", recording)
        result = grid_scan(
            {"t_values": [2, 3], "n_range": [3, 6], "k_range": [1, 2], "parallelism": 4}
        )
        assert len(threads) == len(result.reports) == 16
        assert set(threads) == {threading.get_ident()}

    def test_cells_share_one_cache(self, monkeypatch):
        # without a caller's cache the scan makes one, so each n resumes from n - 1
        caches = []
        original = verify.verify_cell

        def recording(*args, cache=None, **kwargs):
            caches.append(cache)
            return original(*args, cache=cache, **kwargs)

        monkeypatch.setattr(verify, "verify_cell", recording)
        grid_scan({"t_values": [2], "n_range": [3, 6], "k_range": [2, 2]})
        assert len(caches) == 4 and isinstance(caches[0], DecompositionCache)
        assert all(c is caches[0] for c in caches) and caches[0].hits == 3

    def test_default_scan_matches_reference_bytes(self):
        # the sha256 of the two files `pathideal scan --out` writes for the default grid
        path = Path(__file__).resolve().parent / "golden" / "scan_default.sha256.json"
        reference = json.loads(path.read_text(encoding="utf-8"))
        result = grid_scan({})
        for text, key in ((result.structured, "structured_sha256"), (result.table, "table_sha256")):
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == reference[key], key

    def test_timings_off_by_default(self):
        result = grid_scan({"t_values": [2], "n_range": [3, 4], "k_range": [1, 1]})
        for record in json.loads(result.structured)["cells"]:
            assert record["wall_time_ms"] is None

    def test_timings_when_asked(self):
        config = {"t_values": [2], "n_range": [2, 4], "k_range": [1, 1], "include_timings": True}
        result = grid_scan(config)
        for record in json.loads(result.structured)["cells"]:
            assert record["wall_time_ms"] >= 0
        lines = result.table.splitlines()
        assert lines[3].endswith("  diff  ms")
        # the ZERO cell n = 2 and the two computed cells each end with their time
        for row in lines[5:8]:
            assert row.split()[-2] == "-" and float(row.split()[-1]) >= 0


class TestCli:
    def test_gen_text(self, capsys):
        assert main(["gen", "--n", "4", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "x1*x3" in out and "3 generators" in out

    def test_zero_cell_above_cap_answers_zero(self, capsys):
        assert main(["gen", "--n", "30", "--t", "20"]) == 0
        out = capsys.readouterr().out
        assert out == "size-20 independence ideal of the path on 30 vertices (ZERO): 0 generators\n"
        assert main(["decompose", "--n", "30", "--t", "20", "--k", "2"]) == 0
        assert capsys.readouterr().out == "zero ideal for n=30, t=20: nothing to decompose\n"

    def test_gen_structured(self, capsys):
        assert main(["gen", "--n", "4", "--t", "2", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["generators"] == ["x1*x3", "x1*x4", "x2*x4"]

    def test_predict(self, capsys):
        assert main(["predict", "--n", "5", "--t", "2", "--k", "2", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 5 and [1, 2, 3] in doc["primes"]

    def test_decompose(self, capsys):
        assert main(["decompose", "--n", "4", "--t", "2", "--k", "1", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["components"] == [["x1", "x2"], ["x1", "x4"], ["x3", "x4"]]

    def test_decompose_skipped_power(self, monkeypatch, capsys):
        # building the power runs under the cell budget; SKIPPED is not a failure
        deadlines = skip_power(monkeypatch, 2)
        assert main(["decompose", "--n", "4", "--t", "2", "--k", "2"]) == 0
        assert capsys.readouterr().out == (
            "irreducible components of power 2: SKIPPED (cell budget of 60 s exceeded)\n"
        )
        assert main(["decompose", "--n", "4", "--t", "2", "--k", "2", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"n": 4, "t": 2, "k": 2, "case": "CASE_2T", "count": None, "components": None}
        assert len(deadlines) == 2 and None not in deadlines

    @pytest.mark.parametrize("command", ["decompose", "ass"])
    def test_exponent_past_the_cap_exits_two(self, command, monkeypatch, capsys):
        # squaring x1^CAP overflows while the power is built: a bad input, not a FAIL
        def over(n, t):
            return MonomialIdeal(1, [Monomial((EXPONENT_CAP,))])

        monkeypatch.setattr(cli, "ind_ideal", over)
        monkeypatch.setattr(verify, "ind_ideal", over)
        assert main([command, "--n", "1", "--t", "1", "--k", "2"]) == 2
        assert capsys.readouterr() == ("", f"error: a product exponent exceeds cap {EXPONENT_CAP}\n")

    def test_ass_pass_exit_zero(self, capsys):
        assert main(["ass", "--n", "5", "--t", "2", "--k", "2"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_ass_witness_method(self, capsys):
        assert main(["ass", "--n", "6", "--t", "2", "--k", "2", "--method", "witness"]) == 0
        out = capsys.readouterr().out
        assert "one-sided" in out

    def test_persistence(self, capsys):
        assert main(["persistence", "--n", "5", "--t", "2", "--kmax", "3"]) == 0
        out = capsys.readouterr().out
        assert "persistence holds" in out

    def test_astab(self, capsys):
        assert main(["astab", "--n", "5", "--t", "2", "--kmax", "4", "--format", "structured"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["observed"] == 2 and doc["matches"] is True

    def test_astab_undetermined(self, capsys):
        assert main(["astab", "--n", "7", "--t", "3", "--kmax", "2"]) == 0
        assert "UNDETERMINED" in capsys.readouterr().out

    def test_astab_skipped_power_undetermined(self, monkeypatch, capsys):
        skip_power(monkeypatch, 2)
        assert main(["astab", "--n", "5", "--t", "2", "--kmax", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("observed index of stability: UNDETERMINED ")
        assert "chain sizes [4, None, None, None]" in out

    def test_astab_zero_ideal(self, capsys):
        assert main(["astab", "--n", "2", "--t", "2", "--kmax", "3"]) == 0
        assert capsys.readouterr().out == "zero ideal for n=2, t=2\n"

    @pytest.mark.parametrize(
        "command, size",
        [("ass", "--k"), ("persistence", "--kmax"), ("decompose", "--k"), ("astab", "--kmax")],
    )
    def test_default_budget_is_the_cell_default(self, command, size):
        args = build_parser().parse_args([command, "--n", "5", "--t", "2", size, "2"])
        assert args.budget == DEFAULT_CELL_BUDGET_SECONDS

    @pytest.mark.parametrize(
        "command, size",
        [("ass", "--k"), ("persistence", "--kmax"), ("decompose", "--k"), ("astab", "--kmax")],
    )
    def test_budget_sets_every_power_deadline(self, command, size, monkeypatch, capsys):
        deadlines = skip_power(monkeypatch, None)
        assert main([command, "--n", "5", "--t", "2", size, "3", "--budget", "0.5"]) == 0
        end = time.monotonic()
        assert deadlines and all(d <= end + 0.5 for d in deadlines)

    def test_decompose_skipped_power_names_its_budget(self, monkeypatch, capsys):
        skip_power(monkeypatch, 2)
        assert main(["decompose", "--n", "4", "--t", "2", "--k", "2", "--budget", "0.25"]) == 0
        assert capsys.readouterr().out == (
            "irreducible components of power 2: SKIPPED (cell budget of 0.25 s exceeded)\n"
        )

    def test_scan_writes_both_reports(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"t_values": [2], "n_range": [3, 5], "k_range": [1, 2]})
        )
        out = tmp_path / "report.json"
        assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
        assert out.exists() and out.with_suffix(".txt").exists()
        doc = json.loads(out.read_text())
        assert doc["summary"]["fail"] == 0

    def test_scan_bad_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"method": "divination"}))
        assert main(["scan", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2

    def test_scan_over_cap_config_exits_two_before_any_cell(self, tmp_path, capsys, monkeypatch):
        cells = []
        monkeypatch.setattr(verify, "verify_cell", lambda *args, **kwargs: cells.append(args))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_range": [20, 26]}))
        assert main(["scan", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("config error: n_range may not go above")
        assert cells == [] and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "command", ["gen", "predict", "decompose", "ass", "persistence", "astab"]
    )
    def test_over_cap_cell_exits_two_at_once(self, command, capsys):
        size = {"gen": [], "persistence": ["--kmax", "2"], "astab": ["--kmax", "2"]}
        size = size.get(command, ["--k", "2"])
        start = time.monotonic()
        # just above the cap, with a small prediction: a lost cap exits 0 here, at once
        assert main([command, "--n", "25", "--t", "1", *size]) == 2
        assert time.monotonic() - start < 1.0
        assert "exceeds the enumeration cap 24" in capsys.readouterr().err

    def test_scan_undecodable_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff\xfe{}")
        assert main(["scan", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {config}: ")
        assert not (tmp_path / "r.json").exists()

    def test_scan_unwritable_output_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"t_values": [2], "n_range": [3, 3], "k_range": [1, 1]})
        )
        target = tmp_path / "dir"
        target.mkdir()
        code = main(["scan", "--config", str(config), "--out", str(target)])
        assert code == 2

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["ass", "--n", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["ass", "persistence", "decompose", "astab"])
    @pytest.mark.parametrize(
        "budget", ["nan", "inf", "0", "-1", "soon", pytest.param("1" + "0" * 400, id="1e400")]
    )
    def test_bad_budget_is_a_usage_error(self, command, budget, capsys):
        size = "--k" if command in ("ass", "decompose") else "--kmax"
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "5", "--t", "2", size, "2", "--budget", budget])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"budget must be a number of seconds in (0, sys.float_info.max], got {budget!r}\n" in err

    def test_invalid_params_exit_two(self, capsys):
        assert main(["gen", "--n", "0", "--t", "2"]) == 2
