"""Error-correction coding substrate.

The paper positions its channel model as a tool for "the design and
optimization of signal processing, detection, and coding algorithms".  This
package supplies the coding side of that loop: finite-field arithmetic, a
binary BCH code (the hard-decision ECC of planar NAND controllers), a regular
LDPC code with min-sum decoding (the soft-decision ECC of modern devices), and
the log-likelihood-ratio machinery that turns the channel model's soft
voltages into decoder inputs.
"""

from repro.ecc.galois import (
    DEFAULT_PRIMITIVE_POLYNOMIALS,
    GaloisField,
    Gf2Polynomial,
)
from repro.ecc.bch import BCHCode, BCHDecodingResult
from repro.ecc.ldpc import (
    LDPCCode,
    LDPCDecodingResult,
    gallager_parity_check_matrix,
)
from repro.ecc.llr import (
    LevelDensityTable,
    densities_from_channel,
    densities_from_samples,
    page_llrs,
)
from repro.ecc.evaluate import (
    CodewordChannelResult,
    evaluate_bch_over_channel,
    evaluate_ldpc_over_channel,
    required_bch_capability,
)

__all__ = [
    "DEFAULT_PRIMITIVE_POLYNOMIALS",
    "GaloisField",
    "Gf2Polynomial",
    "BCHCode",
    "BCHDecodingResult",
    "LDPCCode",
    "LDPCDecodingResult",
    "gallager_parity_check_matrix",
    "LevelDensityTable",
    "densities_from_channel",
    "densities_from_samples",
    "page_llrs",
    "CodewordChannelResult",
    "evaluate_bch_over_channel",
    "evaluate_ldpc_over_channel",
    "required_bch_capability",
]
