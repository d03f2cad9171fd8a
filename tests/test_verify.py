"""Cell verification, persistence scans, stability scans, grid scans, and the CLI."""

import json

import pytest

from pathideal import (
    DecompositionCache,
    PathCase,
    empirical_astab,
    grid_scan,
    persistence_scan,
    verify_cell,
)
from pathideal.cli import main
from pathideal.verify import (
    ConfigError,
    METHOD_DECOMPOSITION,
    METHOD_WITNESS,
    VERDICT_PASS,
    VERDICT_SKIPPED,
    VERDICT_ZERO,
    load_config,
    validate_config,
)


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

    def test_decomposition_method_not_one_sided(self):
        assert not verify_cell(4, 2, 2).one_sided

    def test_budget_breach_reports_skipped(self):
        report = verify_cell(8, 2, 3, budget_seconds=1e-9)
        assert report.verdict == VERDICT_SKIPPED

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

    def test_reuses_each_cell_decomposition(self):
        scan_cache = DecompositionCache()
        reports = persistence_scan(6, 2, 3, cache=scan_cache)
        assert [r.persistence for r in reports] == [True, True, True]
        cell_cache = DecompositionCache()
        for k in (1, 2, 3):
            verify_cell(6, 2, k, cache=cell_cache)
        assert scan_cache.hits == cell_cache.hits


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
        ],
    )
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ConfigError):
            validate_config(bad)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_rejects_non_finite_budget_in_file(self, tmp_path, literal):
        # json.load accepts these literals, so they reach validate_config
        path = tmp_path / "config.json"
        path.write_text('{"cell_budget_seconds": %s}' % literal)
        with pytest.raises(ConfigError):
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

    def test_timings_off_by_default(self):
        result = grid_scan({"t_values": [2], "n_range": [3, 4], "k_range": [1, 1]})
        for record in json.loads(result.structured)["cells"]:
            assert record["wall_time_ms"] is None


class TestCli:
    def test_gen_text(self, capsys):
        assert main(["gen", "--n", "4", "--t", "2"]) == 0
        out = capsys.readouterr().out
        assert "x1*x3" in out and "3 generators" in out

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

    @pytest.mark.parametrize("command", ["ass", "persistence"])
    @pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1", "soon"])
    def test_bad_budget_is_a_usage_error(self, command, budget, capsys):
        size = "--k" if command == "ass" else "--kmax"
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "5", "--t", "2", size, "2", "--budget", budget])
        assert exc.value.code == 2
        assert "budget must be a finite number" in capsys.readouterr().err

    def test_invalid_params_exit_two(self, capsys):
        assert main(["gen", "--n", "0", "--t", "2"]) == 2
