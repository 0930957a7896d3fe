"""Tests for the endurance sweep."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import SimulatorChannel
from repro.flash import EnduranceSweep, estimate_endurance_limit
from repro.flash.endurance import EndurancePoint
from repro.flash.geometry import BlockGeometry


def _small_sweep(seed: int = 0) -> EnduranceSweep:
    channel = SimulatorChannel(geometry=BlockGeometry(32, 32),
                               rng=np.random.default_rng(seed))
    return EnduranceSweep(channel=channel,
                          pe_points=(1000, 4000, 7000, 10000),
                          blocks_per_point=2)


class TestEnduranceSweep:
    def test_run_returns_one_point_per_pe(self):
        points = _small_sweep().run()
        assert [point.pe_cycles for point in points] == [1000, 4000, 7000, 10000]

    def test_error_rate_grows_with_cycling(self):
        points = _small_sweep(seed=3).run()
        rates = [point.level_error_rate for point in points]
        assert rates[-1] > rates[0]

    def test_worst_page_rber_bounds_the_mean(self):
        for point in _small_sweep(seed=5).run():
            if point.page_rber:
                assert point.worst_page_rber >= np.mean(list(point.page_rber.values()))

    def test_validation(self):
        channel = SimulatorChannel()
        with pytest.raises(ValueError):
            EnduranceSweep(channel, pe_points=())
        with pytest.raises(ValueError):
            EnduranceSweep(channel, pe_points=(-1, 10))
        with pytest.raises(ValueError):
            EnduranceSweep(channel, pe_points=(10, 5))
        with pytest.raises(ValueError):
            EnduranceSweep(channel, blocks_per_point=0)


class TestEstimateEnduranceLimit:
    @staticmethod
    def _points(rates):
        return [EndurancePoint(pe_cycles=pe, level_error_rate=rate,
                               page_rber={"lower": rate})
                for pe, rate in rates]

    def test_interpolates_the_crossing(self):
        points = self._points([(1000, 0.001), (2000, 0.003)])
        limit = estimate_endurance_limit(points, rber_target=0.002)
        assert limit == pytest.approx(1500.0)

    def test_returns_none_when_never_exceeded(self):
        points = self._points([(1000, 0.001), (2000, 0.0015)])
        assert estimate_endurance_limit(points, rber_target=0.01) is None

    def test_returns_zero_when_already_exceeded(self):
        points = self._points([(1000, 0.05)])
        assert estimate_endurance_limit(points, rber_target=0.01) == 0.0

    def test_flat_curve_returns_the_crossing_point(self):
        points = self._points([(1000, 0.002), (2000, 0.002)])
        assert estimate_endurance_limit(points, rber_target=0.002) == 0.0

    def test_stricter_target_gives_shorter_life(self):
        points = self._points([(1000, 0.001), (5000, 0.003), (10000, 0.008)])
        strict = estimate_endurance_limit(points, rber_target=0.002)
        lenient = estimate_endurance_limit(points, rber_target=0.006)
        assert strict < lenient

    def test_level_error_rate_metric_selectable(self):
        points = [EndurancePoint(pe_cycles=1000, level_error_rate=0.01,
                                 page_rber={"lower": 0.001})]
        by_page = estimate_endurance_limit(points, rber_target=0.005,
                                           use_worst_page=True)
        by_level = estimate_endurance_limit(points, rber_target=0.005,
                                            use_worst_page=False)
        assert by_page is None
        assert by_level == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_endurance_limit([], rber_target=0.01)
        with pytest.raises(ValueError):
            estimate_endurance_limit(self._points([(1, 0.1)]), rber_target=0.0)

    def test_sweep_to_limit_end_to_end(self):
        points = _small_sweep(seed=7).run()
        limit = estimate_endurance_limit(points, rber_target=0.02,
                                         use_worst_page=False)
        # With the default simulator parameters the channel stays well below
        # 2% level error rate over the swept range.
        assert limit is None or limit > 0
