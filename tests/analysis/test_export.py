"""Tests for CSV/JSON export of figure data and comparisons."""

import csv
import json

import pytest

from repro.analysis import build_figure3, comparisons_to_figure5, comparisons_to_figure6
from repro.analysis.export import (
    comparison_to_dict,
    comparisons_to_json,
    figure3_to_csv,
    figure5_to_csv,
    figure6_to_csv,
    load_comparisons_summary,
)
from repro.config import CacheLevelConfig
from repro.errors import AnalysisError
from repro.sim import ExperimentSettings, compare_schemes


@pytest.fixture(scope="module")
def fast_settings():
    return ExperimentSettings(
        l2_config=CacheLevelConfig(
            name="L2", size_bytes=128 * 1024, associativity=8, block_size_bytes=64,
            technology="stt-mram",
        ),
        p_cell=1e-8,
        num_accesses=3_000,
        ones_count=100,
        seed=1,
    )


@pytest.fixture(scope="module")
def comparisons(fast_settings):
    return [compare_schemes("gcc", settings=fast_settings)]


class TestCSVExport:
    def test_figure3_csv(self, tmp_path, fast_settings):
        series = build_figure3("perlbench", settings=fast_settings)
        path = figure3_to_csv(series, tmp_path / "fig3.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(series.bins)
        assert rows[0]["workload"] == "perlbench"
        assert float(rows[0]["normalized_frequency"]) > 0

    def test_figure5_csv(self, tmp_path, comparisons):
        data = comparisons_to_figure5(comparisons)
        path = figure5_to_csv(data, tmp_path / "fig5.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert {row["workload"] for row in rows} == {"gcc"}
        assert float(rows[0]["mttf_improvement"]) > 1.0

    def test_figure6_csv(self, tmp_path, comparisons):
        data = comparisons_to_figure6(comparisons)
        path = figure6_to_csv(data, tmp_path / "fig6.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["overhead_percent"]) > 0.0

    def test_creates_parent_directories(self, tmp_path, comparisons):
        data = comparisons_to_figure5(comparisons)
        path = figure5_to_csv(data, tmp_path / "nested" / "dir" / "fig5.csv")
        assert path.exists()


class TestJSONExport:
    def test_comparison_dict_contains_metrics(self, comparisons):
        payload = comparison_to_dict(comparisons[0])
        assert payload["workload"] == "gcc"
        assert "reap" in payload["metrics"]
        assert payload["metrics"]["reap"]["mttf_improvement"] > 1.0
        assert payload["baseline"]["scheme"] == "conventional"

    def test_comparison_dict_is_the_store_dict_plus_metrics(self, comparisons):
        from repro.campaign import comparison_to_dict as store_comparison_to_dict

        payload = comparison_to_dict(comparisons[0])
        assert list(payload) == ["workload", "baseline", "alternatives", "metrics"]
        metrics = payload.pop("metrics")
        assert payload == store_comparison_to_dict(comparisons[0])
        assert list(metrics) == [r.scheme for r in comparisons[0].alternatives]

    def test_round_trip_file(self, tmp_path, comparisons):
        path = comparisons_to_json(comparisons, tmp_path / "comparisons.json")
        loaded = load_comparisons_summary(path)
        assert len(loaded) == 1
        assert loaded[0]["workload"] == "gcc"
        # The file is valid JSON usable without the library.
        raw = json.loads(path.read_text())
        assert isinstance(raw, list)

    def test_rejects_empty_export(self, tmp_path):
        with pytest.raises(AnalysisError):
            comparisons_to_json([], tmp_path / "empty.json")
