"""Tests for ICI profiling and text reporting.

Level error counts have one route, :mod:`repro.flash.errors`; its tests
live in ``tests/flash/test_thresholds_errors.py``, and Fig. 5's use of it
in ``tests/experiments/test_experiments.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import SimulatorChannel
from repro.eval import (
    format_bar_chart,
    format_pie_summary,
    format_table,
    ici_error_profile,
    pattern_rank_order,
    rank_agreement,
    top_pattern_frequencies,
)
from repro.flash import BlockGeometry


@pytest.fixture
def paired_data():
    channel = SimulatorChannel(geometry=BlockGeometry(32, 32),
                               rng=np.random.default_rng(23))
    return channel.paired_blocks(40, 7000)


class TestICIAnalysis:
    def test_profile_has_both_directions(self, paired_data):
        program, voltages = paired_data
        profile = ici_error_profile(program, voltages)
        assert set(profile) == {"wl", "bl"}

    def test_profile_frequencies_sum_to_one(self, paired_data):
        program, voltages = paired_data
        profile = ici_error_profile(program, voltages)
        for direction in ("wl", "bl"):
            values = [value for key, value in profile[direction].items()
                      if not key.startswith("__")]
            assert sum(values) == pytest.approx(1.0)

    def test_profile_reports_total_errors(self, paired_data):
        program, voltages = paired_data
        profile = ici_error_profile(program, voltages)
        assert profile["bl"]["__total_errors__"] > 0

    def test_707_dominates_bitline_direction(self, paired_data):
        program, voltages = paired_data
        profile = ici_error_profile(program, voltages)
        assert pattern_rank_order(profile["bl"], top_k=1) == ["707"]

    def test_top_pattern_frequencies_aggregates_others(self):
        frequencies = {f"70{i}": 0.1 for i in range(8)}
        frequencies["606"] = 0.2
        top = top_pattern_frequencies(frequencies, top_k=3)
        assert len(top) == 4  # 3 named + "others"
        assert top["others"] == pytest.approx(sum(frequencies.values())
                                              - sum(sorted(frequencies.values())[-3:]))

    def test_top_pattern_frequencies_ignores_metadata(self):
        frequencies = {"707": 0.6, "606": 0.4, "__total_errors__": 100.0}
        top = top_pattern_frequencies(frequencies, top_k=5)
        assert "__total_errors__" not in top

    def test_pattern_rank_order_sorted(self):
        frequencies = {"707": 0.5, "606": 0.2, "607": 0.3}
        assert pattern_rank_order(frequencies) == ["707", "607", "606"]

    def test_rank_agreement_perfect(self):
        frequencies = {"707": 0.5, "607": 0.3, "606": 0.2}
        assert rank_agreement(frequencies, frequencies, top_k=3) == 1.0

    def test_rank_agreement_partial(self):
        reference = {"707": 0.5, "607": 0.3, "606": 0.2}
        candidate = {"707": 0.5, "505": 0.3, "404": 0.2}
        assert rank_agreement(reference, candidate, top_k=3) == pytest.approx(1 / 3)

    def test_rank_agreement_rejects_bad_k(self):
        with pytest.raises(ValueError):
            rank_agreement({}, {}, top_k=0)


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"model": "M", "total": 1.0}, {"model": "cV-G", "total": 1.36}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "model" in lines[0] and "total" in lines[0]
        assert "1.360" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_bar_chart_scales_bars(self):
        chart = format_bar_chart({"x": 1.0, "y": 2.0}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_format_bar_chart_empty(self):
        assert format_bar_chart({}) == "(no data)"

    def test_format_pie_summary_contains_percentages(self):
        text = format_pie_summary({"707": 0.25, "606": 0.75,
                                   "__total_errors__": 42.0}, title="BL")
        assert "BL" in text
        assert "75.0%" in text
        assert "42" in text

    def test_format_pie_summary_truncates_to_top_k(self):
        frequencies = {f"p{i}": 0.1 for i in range(10)}
        text = format_pie_summary(frequencies, top_k=3)
        assert text.count("%") == 4  # three named + others
