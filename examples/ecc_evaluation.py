#!/usr/bin/env python3
"""ECC dimensioning with the flash channel model.

The paper motivates channel modeling as a tool for "the design and
optimization of signal processing, detection, and coding algorithms".  This
example plays the role of a controller architect using the channel model to
size the error-correction code:

1. measure the raw bit error rate (RBER) of the lower page at each P/E read
   point of the paper (4000 / 7000 / 10000 cycles);
2. derive the BCH correction capability ``t`` required to hit a frame error
   rate target at each point;
3. run an actual BCH code over the channel and verify the prediction;
4. run a soft-decision LDPC code using LLRs computed from the channel's soft
   voltages, showing the gain soft information buys at end of life.

Run with ``PYTHONPATH=src python examples/ecc_evaluation.py`` (about 1.5 s
on a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import numpy as np

from repro.channel import SimulatorChannel
from repro.ecc import (
    BCHCode,
    LDPCCode,
    densities_from_channel,
    evaluate_bch_over_channel,
    evaluate_ldpc_over_channel,
    required_bch_capability,
)
from repro.flash import BlockGeometry, page_bit_error_rates

PE_READ_POINTS = (4000, 7000, 10000)


def main() -> None:
    channel = SimulatorChannel(geometry=BlockGeometry(64, 64),
                               rng=np.random.default_rng(0))

    # 1. Raw bit error rates per page at each read point.
    print("== raw bit error rates (per page) ==")
    lower_page_rber = {}
    for pe_cycles in PE_READ_POINTS:
        program, voltages = channel.paired_blocks(6, pe_cycles)
        rates = page_bit_error_rates(program, voltages, params=channel.params)
        lower_page_rber[pe_cycles] = rates["lower"]
        formatted = ", ".join(f"{name}={rate:.2e}"
                              for name, rate in rates.items())
        print(f"  P/E {pe_cycles}: {formatted}")

    # 2. BCH capability needed for a 1e-3 frame error rate on 1 KiB codewords.
    print("\n== required BCH correction capability (n = 8192 bits) ==")
    for pe_cycles in PE_READ_POINTS:
        t = required_bch_capability(lower_page_rber[pe_cycles], 8192,
                                    target_frame_error_rate=1e-3)
        print(f"  P/E {pe_cycles}: t >= {t}")

    # 3. Check the prediction with an actual (smaller) BCH code.
    print("\n== BCH(63, k) over the simulated channel ==")
    for t in (2, 4):
        code = BCHCode(m=6, t=t)
        print(f"  BCH(n=63, k={code.k}, t={t}):")
        for pe_cycles in PE_READ_POINTS:
            result = evaluate_bch_over_channel(
                code, channel, pe_cycles, num_codewords=30,
                rng=np.random.default_rng(pe_cycles + t))
            print(f"    P/E {pe_cycles}: RBER={result.raw_bit_error_rate:.2e}"
                  f"  frame error rate={result.frame_error_rate:.3f}")

    # 4. Soft-decision LDPC fed by LLRs from the channel's soft voltages.
    print("\n== rate-1/2 LDPC (n=96) with channel-model LLRs ==")
    ldpc = LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                            rng=np.random.default_rng(1))
    for pe_cycles in PE_READ_POINTS:
        table = densities_from_channel(channel, pe_cycles, num_blocks=3)
        result = evaluate_ldpc_over_channel(
            ldpc, channel, pe_cycles, table, num_codewords=20,
            rng=np.random.default_rng(pe_cycles))
        print(f"  P/E {pe_cycles}: RBER={result.raw_bit_error_rate:.2e}"
              f"  frame error rate={result.frame_error_rate:.3f}"
              f"  post-FEC BER={result.post_correction_bit_error_rate:.2e}")

    print("\nDone.  The required t grows with P/E cycling exactly as the "
          "level error counts of Fig. 5 suggest; the LDPC's soft decoding "
          "absorbs the end-of-life RBER that would need a much stronger "
          "hard-decision BCH.")


if __name__ == "__main__":
    main()
