"""Figure-series export."""

import json

import pytest

from repro.reporting.figures import export_figures_json, figure_series


@pytest.fixture(scope="module")
def bundle(dataset):
    return figure_series(dataset)


class TestFigureSeries:
    def test_all_figures_present(self, bundle):
        for fig in ("fig2a", "fig3", "fig4", "fig5", "fig6a", "fig9",
                    "fig10", "fig11", "fig12"):
            assert fig in bundle

    def test_cdf_series_are_monotone(self, bundle):
        for op_series in bundle["fig3"].values():
            for series in op_series.values():
                ys = series["y"]
                assert all(b >= a for a, b in zip(ys, ys[1:]))
                assert ys[-1] == pytest.approx(1.0)

    def test_coverage_bars_sum_to_one(self, bundle):
        for shares in bundle["fig2a"].values():
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_scatter_points_valid(self, bundle):
        for points in bundle["fig10"].values():
            for p in points:
                assert 0.0 <= p["hs5g"] <= 1.0
                assert p["tput"] >= 0.0

    def test_json_serialisable(self, bundle):
        text = json.dumps(bundle)
        assert len(text) > 10_000

    def test_export_writes_file(self, dataset, tmp_path):
        path = tmp_path / "figures.json"
        count = export_figures_json(dataset, path)
        assert count >= 9
        loaded = json.loads(path.read_text())
        assert "fig3" in loaded


def test_export_leaves_out_panels_without_data(tmp_path):
    """The pin campaign has no in-test Verizon downlink handovers, so
    Fig. 12 has no Verizon panel: the bundle leaves that panel out, names
    it under ``skipped`` and keeps every other panel."""
    from tests.test_simulator_pin import pinned_dataset

    path = tmp_path / "figures.json"
    assert export_figures_json(pinned_dataset(), path) == 9
    bundle = json.loads(path.read_text())
    assert bundle["skipped"] == {
        "fig12": {"Verizon": "no in-test handovers for Verizon downlink"}
    }
    assert set(bundle["fig12"]) == {"T-Mobile", "AT&T"}
    for figure in ("fig2a", "fig3", "fig4", "fig5", "fig9", "fig10", "fig11"):
        assert len(bundle[figure]) == 3, figure


def test_complete_bundle_names_nothing_skipped(bundle):
    assert "skipped" not in bundle
    for figure, panels in bundle.items():
        assert len(panels) == 3, figure
