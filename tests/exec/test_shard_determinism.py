"""Sharded execution must be bit-identical to serial for a fixed seed.

These are the acceptance tests of the execution engine on its consumer, the
ECC campaigns: an LDPC frame-error campaign is run serially, with a
2-worker pool, with a 4-worker pool and on a 2-worker localhost fleet, and
every frame record must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import build_channel
from repro.ecc import LDPCCode, evaluate_ldpc_over_channel
from repro.flash import BlockGeometry

EXECUTIONS = (("serial", None), ("process", 2), ("process", 4))


@pytest.fixture(scope="module")
def channel():
    return build_channel("simulator", geometry=BlockGeometry(16, 16),
                         rng=np.random.default_rng(0))


class TestLDPCCampaignDeterminism:
    @pytest.fixture(scope="class")
    def results(self, channel):
        code = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                                rng=np.random.default_rng(1))
        return [evaluate_ldpc_over_channel(
                    code, channel, 10000, num_codewords=8, group_size=2,
                    seed=123, executor=executor, workers=workers)
                for executor, workers in EXECUTIONS + (("remote", 2),)]

    def test_frame_records_identical(self, results):
        serial, *others = results
        for other in others:
            np.testing.assert_array_equal(serial.frame_records,
                                          other.frame_records)

    def test_rates_identical(self, results):
        serial, *others = results
        for other in others:
            assert other.raw_bit_error_rate == serial.raw_bit_error_rate
            assert other.frame_error_rate == serial.frame_error_rate
            assert other.post_correction_bit_error_rate \
                == serial.post_correction_bit_error_rate

    def test_by_name_channel_reproducible_for_fixed_seed(self):
        """Two same-seed campaigns over a registry-name channel must agree.

        The LLR density table is estimated from blocks derived from the
        campaign seed, not from the freshly built channel's OS-entropy
        generator — otherwise each run would decode against a different
        table.
        """
        code = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                                rng=np.random.default_rng(2))
        runs = [evaluate_ldpc_over_channel(code, "simulator", 12000,
                                           num_codewords=8, group_size=4,
                                           seed=31)
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0].frame_records,
                                      runs[1].frame_records)
