"""Tests for constrained-system capacity and time-aware code selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import SimulatorChannel
from repro.coding import (
    ConstraintOperatingPoint,
    TimeAwareCodeSelector,
    constraint_adjacency_matrix,
    constraint_capacity,
    constraint_tradeoff_curve,
    ici_constraint_capacity,
    ici_forbidden_patterns,
    rate_penalty,
)
from repro.flash import BlockGeometry, FlashParameters, level_error_rate
from tests.ecc.test_llr_evaluate import _RecordingSimulator


@pytest.fixture
def channel() -> SimulatorChannel:
    return SimulatorChannel(geometry=BlockGeometry(32, 32),
                            rng=np.random.default_rng(0))


class TestForbiddenPatterns:
    def test_counts(self):
        # high_level=6 forbids neighbours in {6, 7}: 2 x 2 patterns.
        assert len(ici_forbidden_patterns(6)) == 4
        assert len(ici_forbidden_patterns(7)) == 1
        assert len(ici_forbidden_patterns(5)) == 9

    def test_victim_is_always_the_requested_level(self):
        patterns = ici_forbidden_patterns(6, victim_level=1)
        assert all(pattern[1] == 1 for pattern in patterns)

    def test_validation(self):
        with pytest.raises(ValueError):
            ici_forbidden_patterns(0)
        with pytest.raises(ValueError):
            ici_forbidden_patterns(8)
        with pytest.raises(ValueError):
            ici_forbidden_patterns(6, victim_level=9)


class TestAdjacencyMatrix:
    def test_unconstrained_graph_is_complete_on_pairs(self):
        adjacency = constraint_adjacency_matrix([], num_levels=4)
        assert adjacency.shape == (16, 16)
        # Each pair state (a, b) has exactly num_levels outgoing edges.
        np.testing.assert_array_equal(adjacency.sum(axis=1), 4)

    def test_forbidden_pattern_removes_one_edge(self):
        free = constraint_adjacency_matrix([], num_levels=4)
        constrained = constraint_adjacency_matrix([(3, 0, 3)], num_levels=4)
        assert free.sum() - constrained.sum() == 1
        assert constrained[3 * 4 + 0, 0 * 4 + 3] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            constraint_adjacency_matrix([], num_levels=1)
        with pytest.raises(ValueError):
            constraint_adjacency_matrix([(1, 2)], num_levels=4)
        with pytest.raises(ValueError):
            constraint_adjacency_matrix([(9, 0, 9)], num_levels=8)


class TestCapacity:
    def test_unconstrained_capacity_is_log2_levels(self):
        assert constraint_capacity([], num_levels=8) == pytest.approx(3.0)
        assert constraint_capacity([], num_levels=4) == pytest.approx(2.0)

    def test_constraint_reduces_capacity(self):
        assert ici_constraint_capacity(6) < 3.0

    def test_stronger_constraints_cost_more(self):
        capacities = [ici_constraint_capacity(high) for high in (7, 6, 5, 4)]
        assert capacities == sorted(capacities, reverse=True)

    def test_ici_constraints_are_cheap(self):
        """Forbidding a handful of 512 patterns costs well under 1% of rate."""
        assert rate_penalty(6) < 0.01
        assert rate_penalty(7) < rate_penalty(6) < rate_penalty(5)

    def test_rate_penalty_bounds(self):
        for high_level in (5, 6, 7):
            assert 0.0 < rate_penalty(high_level) < 1.0

    def test_binary_no_11_constraint_matches_golden_ratio(self):
        """Sanity-check against the textbook (d, k) = (1, inf) RLL capacity."""
        forbidden = [(a, 1, 1) for a in range(2)] + [(1, 1, a) for a in range(2)]
        capacity = constraint_capacity(forbidden, num_levels=2)
        golden = np.log2((1 + np.sqrt(5)) / 2)
        assert capacity == pytest.approx(golden, abs=0.02)

    @settings(max_examples=15, deadline=None)
    @given(high_level=st.integers(min_value=1, max_value=7))
    def test_capacity_always_between_zero_and_three(self, high_level):
        capacity = ici_constraint_capacity(high_level)
        assert 0.0 < capacity <= 3.0


class TestTradeoffCurve:
    def test_first_point_is_unconstrained(self, channel):
        points = constraint_tradeoff_curve(channel, 7000, num_blocks=2)
        assert points[0].is_unconstrained
        assert points[0].rate_penalty == 0.0

    def test_constraints_reduce_error_rate(self, channel):
        points = constraint_tradeoff_curve(channel, 10000,
                                           high_levels=(5,), num_blocks=4)
        unconstrained, constrained = points
        assert constrained.error_rate < unconstrained.error_rate
        assert constrained.rate_penalty > 0.0

    def test_erased_metric_shows_strong_constraint_gain(self, channel):
        """On the victim population the constraint's benefit is unambiguous."""
        points = constraint_tradeoff_curve(channel, 10000,
                                           high_levels=(5,), num_blocks=4,
                                           metric="erased")
        unconstrained, constrained = points
        assert constrained.error_rate < 0.7 * unconstrained.error_rate

    def test_validation(self, channel):
        with pytest.raises(ValueError):
            constraint_tradeoff_curve(channel, 7000, num_blocks=0)
        with pytest.raises(ValueError):
            constraint_tradeoff_curve(channel, 7000, metric="bogus",
                                      num_blocks=1)


class TestThresholdsFromTheChannel:
    """A channel with its own level means is hard-read at its own
    thresholds, not at the default ones."""

    @pytest.fixture
    def shifted(self) -> _RecordingSimulator:
        """Levels 1-7 sit 25 V above the default means."""
        means = np.array(FlashParameters().level_means)
        means[1:] += 25.0
        return _RecordingSimulator(FlashParameters(level_means=tuple(means)),
                                   rng=np.random.default_rng(0))

    def test_tradeoff_curve_reads_at_the_channel_thresholds(self, shifted):
        points = constraint_tradeoff_curve(shifted, 4000, num_blocks=4,
                                           seed=3)
        # The unconstrained point reads the first four blocks.
        own = [level_error_rate(levels, voltages, params=shifted.params)
               for levels, voltages in shifted.reads[:4]]
        assert points[0].error_rate == pytest.approx(np.mean(own),
                                                     rel=1e-12)
        # The default thresholds sit 12.5-25 V below the channel's and
        # read about 0.18 at every constraint strength.
        assert all(point.error_rate < 0.01 for point in points)

    def test_error_rate_is_a_left_fold_mean_of_the_block_rates(self,
                                                               shifted):
        """Block rates summed left to right, then scaled by
        ``1 / num_blocks``: the arithmetic every recorded schedule was
        computed with, so the figures stay bit-identical."""
        points = constraint_tradeoff_curve(shifted, 10000, high_levels=(5,),
                                           num_blocks=5, seed=3)
        for point, reads in zip(points, (shifted.reads[:5],
                                         shifted.reads[5:])):
            rates = [level_error_rate(levels, voltages,
                                      params=shifted.params)
                     for levels, voltages in reads]
            total = rates[0]
            for rate in rates[1:]:
                total += rate
            assert point.error_rate == float(total * (1.0 / 5))

    def test_selector_reads_at_the_channel_thresholds(self, shifted):
        selector = TimeAwareCodeSelector(shifted, error_rate_target=0.01,
                                         num_blocks=4, seed=3)
        point = selector.select(4000)
        assert point.is_unconstrained
        assert point.error_rate < 0.01


class TestTimeAwareCodeSelector:
    def test_lenient_target_needs_no_constraint(self, channel):
        selector = TimeAwareCodeSelector(channel, error_rate_target=0.5,
                                         num_blocks=2)
        point = selector.select(4000)
        assert point.is_unconstrained
        assert point.rate_penalty == 0.0

    def test_impossible_target_returns_strongest_constraint(self, channel):
        selector = TimeAwareCodeSelector(channel, error_rate_target=1e-9,
                                         high_levels=(7, 6, 5), num_blocks=2)
        point = selector.select(10000)
        assert point.high_level == 5
        assert point.error_rate > selector.error_rate_target

    def test_schedule_covers_all_read_points(self, channel):
        selector = TimeAwareCodeSelector(channel, error_rate_target=0.5,
                                         num_blocks=2)
        schedule = selector.schedule((4000, 7000, 10000))
        assert [point.pe_cycles for point in schedule] == [4000, 7000, 10000]

    def test_constraint_strength_never_relaxes_with_wear(self, channel):
        """Later read points need an equal or stronger constraint."""
        selector = TimeAwareCodeSelector(channel, error_rate_target=2.4e-3,
                                         high_levels=(7, 6, 5), num_blocks=4)
        schedule = selector.schedule((4000, 10000))
        strength = {None: 0, 7: 1, 6: 2, 5: 3}
        assert strength[schedule[1].high_level] >= strength[schedule[0].high_level]

    def test_cache_avoids_remeasuring(self, channel):
        selector = TimeAwareCodeSelector(channel, error_rate_target=0.5,
                                         num_blocks=2)
        first = selector.select(7000)
        second = selector.select(7000)
        assert first.error_rate == second.error_rate

    def test_erased_metric_escalates_with_wear(self, channel):
        """With a budget between the 4000 and 10000 victim rates, the selector
        uses no constraint early and a real constraint at end of life."""
        selector = TimeAwareCodeSelector(channel, error_rate_target=1.4e-2,
                                         high_levels=(7, 6, 5), num_blocks=4,
                                         metric="erased")
        early = selector.select(4000)
        late = selector.select(10000)
        assert early.rate_penalty <= late.rate_penalty
        assert not late.is_unconstrained

    def test_validation(self, channel):
        with pytest.raises(ValueError):
            TimeAwareCodeSelector(channel, error_rate_target=0.0)
        with pytest.raises(ValueError):
            TimeAwareCodeSelector(channel, error_rate_target=0.1,
                                  high_levels=())
        with pytest.raises(ValueError):
            TimeAwareCodeSelector(channel, error_rate_target=0.1,
                                  num_blocks=0)
        with pytest.raises(ValueError):
            TimeAwareCodeSelector(channel, error_rate_target=0.1,
                                  metric="bogus")
        selector = TimeAwareCodeSelector(channel, error_rate_target=0.1)
        with pytest.raises(ValueError):
            selector.schedule(())

    def test_operating_point_flags(self):
        constrained = ConstraintOperatingPoint(pe_cycles=1.0, high_level=6,
                                               error_rate=0.1,
                                               rate_penalty=0.001)
        assert not constrained.is_unconstrained
