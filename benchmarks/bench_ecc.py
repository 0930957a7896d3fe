"""Benchmarks of the ECC substrate driven by the channel model.

Not a figure of the paper, but the downstream use its introduction motivates:
the channel model supplies raw bit error rates and soft voltages, the ECC
harness turns them into the correction strength and frame error rates a
controller architect actually provisions for.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecc import (
    BCHCode,
    LDPCCode,
    densities_from_channel,
    evaluate_bch_over_channel,
    evaluate_ldpc_over_channel,
    required_bch_capability,
)
from repro.eval import format_table
from repro.flash import page_bit_error_rates

from benchmarks.conftest import write_result


@pytest.mark.benchmark(group="ecc")
def test_bch_dimensioning_across_pe_cycles(benchmark, results_dir, setup):
    """Required BCH strength and measured BCH(63) frame error rate vs. P/E."""
    channel = setup.channel
    code = BCHCode(m=6, t=4)
    codewords = 12

    def evaluate():
        rows = []
        for pe_cycles in setup.pe_cycles:
            program, voltages = channel.paired_blocks(4, pe_cycles)
            rber = page_bit_error_rates(program, voltages,
                                        params=setup.params)["lower"]
            required_t = required_bch_capability(rber, 8192,
                                                 target_frame_error_rate=1e-3)
            result = evaluate_bch_over_channel(
                code, channel, pe_cycles, num_codewords=codewords,
                rng=np.random.default_rng(pe_cycles))
            rows.append({"pe_cycles": pe_cycles,
                         "lower_page_rber": rber,
                         "required_t_for_8k": required_t,
                         "bch63_t4_frame_error_rate": result.frame_error_rate})
        return rows

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    write_result(results_dir, "ecc_bch_dimensioning.txt",
                 format_table(rows, float_format="{:.4g}"))

    # The required correction strength must not shrink as the device wears.
    required = [row["required_t_for_8k"] for row in rows]
    assert required == sorted(required)
    assert all(0.0 <= row["bch63_t4_frame_error_rate"] <= 1.0 for row in rows)


@pytest.mark.benchmark(group="ecc")
def test_ldpc_soft_decoding_gain(benchmark, results_dir, setup):
    """Soft-decision (min-sum) LDPC decoding at end of life."""
    channel = setup.channel
    code = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                            rng=np.random.default_rng(0))
    table = densities_from_channel(channel, 10000, num_blocks=3)
    codewords = 10

    def evaluate():
        result = evaluate_ldpc_over_channel(
            code, channel, 10000, table, num_codewords=codewords,
            rng=np.random.default_rng(1))
        return {"pe_cycles": 10000,
                "raw_bit_error_rate": result.raw_bit_error_rate,
                "frame_error_rate": result.frame_error_rate,
                "post_fec_bit_error_rate":
                    result.post_correction_bit_error_rate}

    row = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    write_result(results_dir, "ecc_ldpc_soft_decoding.txt",
                 format_table([row], float_format="{:.4g}"))
    assert row["post_fec_bit_error_rate"] <= row["raw_bit_error_rate"]
