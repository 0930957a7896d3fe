"""Regular LDPC codes with normalised min-sum (soft-decision) decoding.

Modern (3-D TLC/QLC) flash controllers pair the soft read voltages the paper's
generative model produces with soft-decision LDPC decoding.  This module
provides the minimal but complete machinery for that study: a Gallager-style
regular parity-check construction, systematic encoding via Gaussian
elimination over GF(2), and a normalised min-sum belief-propagation decoder
(Chen & Fossorier, *IEEE Trans. Commun.* 2002) that consumes
log-likelihood ratios (see :mod:`repro.ecc.llr`).

A code is stored as the edge list of its Tanner graph: one ``(check,
variable)`` pair per one in ``H``.  The decoder keeps one message per edge
and reaches them through padded indexes, check-major and variable-major,
so its cost scales with the number of edges rather than with the size of
``H`` (756 edges against 31,752 entries for the n = 252 code).  The
message passing itself is an array-backend kernel,
:meth:`repro.nn.backend.ArrayBackend.ldpc_min_sum`: one compiled C call
per batch under the default ``cjit`` backend, which decodes the batch's
codewords in lockstep, one per SIMD lane, and the NumPy loop under
``use_backend("numpy")``, with bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.backend import LDPC_LLR_LIMIT, get_backend

__all__ = ["LDPCCode", "LDPCDecodingResult", "gallager_parity_check_matrix"]


def gallager_parity_check_matrix(n: int, column_weight: int, row_weight: int,
                                 rng: np.random.Generator | None = None
                                 ) -> np.ndarray:
    """A regular Gallager-ensemble parity-check matrix.

    The matrix is built from ``column_weight`` stacked bands; each band is a
    column permutation of a block-diagonal band of ``row_weight`` ones per
    row.  The result has exactly ``column_weight`` ones per column and
    ``row_weight`` ones per row.

    Parameters
    ----------
    n:
        Code length; must be divisible by ``row_weight``.
    column_weight:
        Ones per column (variable-node degree), usually 3.
    row_weight:
        Ones per row (check-node degree).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if column_weight < 2:
        raise ValueError("column_weight must be at least 2")
    if row_weight < 2:
        raise ValueError("row_weight must be at least 2")
    if n % row_weight:
        raise ValueError("n must be divisible by row_weight")
    generator = rng if rng is not None else np.random.default_rng()

    rows_per_band = n // row_weight
    band = np.zeros((rows_per_band, n), dtype=np.int64)
    for row in range(rows_per_band):
        band[row, row * row_weight:(row + 1) * row_weight] = 1

    bands = [band]
    for _ in range(column_weight - 1):
        permutation = generator.permutation(n)
        bands.append(band[:, permutation])
    return np.concatenate(bands, axis=0)


def _systematic_form(parity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-reduce ``H`` over GF(2) into ``(parity_positions, dependencies)``.

    Gaussian elimination finds a set of pivot columns; those become the
    parity positions and the remaining columns carry the message.  In
    reduced row-echelon form row ``i`` has its leading one in pivot column
    ``i``, so the parity bit there is the XOR of the message bits that row
    selects: ``dependencies`` holds those rows restricted to the message
    columns.
    """
    h = parity.copy()
    rows, columns = h.shape
    pivot_columns: list[int] = []
    pivot_row = 0
    for column in range(columns):
        if pivot_row >= rows:
            break
        candidates = np.nonzero(h[pivot_row:, column])[0]
        if candidates.size == 0:
            continue
        swap = pivot_row + candidates[0]
        h[[pivot_row, swap]] = h[[swap, pivot_row]]
        eliminate = np.nonzero(h[:, column])[0]
        for row in eliminate:
            if row != pivot_row:
                h[row] ^= h[pivot_row]
        pivot_columns.append(column)
        pivot_row += 1
    parity_positions = np.array(pivot_columns, dtype=np.intp)
    message_columns = np.ones(columns, dtype=bool)
    message_columns[parity_positions] = False
    return parity_positions, h[:len(pivot_columns)][:, message_columns]


def _padded_index(groups: np.ndarray, values: np.ndarray, num_groups: int,
                  sentinel: int) -> np.ndarray:
    """One row per group listing its ``values`` in order, padded with
    ``sentinel``; ``groups`` must be sorted."""
    degrees = np.bincount(groups, minlength=num_groups)
    width = int(degrees.max()) if degrees.size else 0
    index = np.full((num_groups, width), sentinel, dtype=np.intp)
    slots = np.arange(groups.size) - (np.cumsum(degrees) - degrees)[groups]
    index[groups, slots] = values
    return index


@dataclass
class LDPCDecodingResult:
    """Outcome of decoding one LDPC codeword."""

    codeword: np.ndarray
    message: np.ndarray
    iterations: int
    success: bool


class LDPCCode:
    """A binary LDPC code defined by a parity-check matrix.

    Parameters
    ----------
    parity_check:
        Binary parity-check matrix ``H`` of shape ``(num_checks, n)``;
        redundant (linearly dependent) rows are allowed and simply reduce
        the number of independent constraints.

    A pickled code carries only its edge list, its parity positions and its
    bit-packed GF(2) parity-dependency matrix (a few kB for n = 252); the
    decoder indexes are rebuilt on load, without redoing the elimination.
    """

    def __init__(self, parity_check: np.ndarray):
        parity = np.asarray(parity_check).astype(np.int64) & 1
        if parity.ndim != 2:
            raise ValueError("parity_check must be a 2-D matrix")
        self.num_checks, self.n = parity.shape
        parity_positions, dependencies = _systematic_form(parity)
        self._setup(np.stack(np.nonzero(parity)), parity_positions,
                    dependencies)

    def _setup(self, edges: np.ndarray, parity_positions: np.ndarray,
               dependencies: np.ndarray) -> None:
        """Derive the encoder and the decoder indexes from the stored state.

        ``edges`` is ``(2, E)``: the check and the variable of every edge,
        check-major.  Both padded edge indexes point their empty slots at
        edge ``E``, a message slot the decoder keeps at zero.
        """
        self._edges = edges.astype(np.intp)
        self._parity_positions = parity_positions.astype(np.intp)
        # Row i holds the parity bits message bit i adds.  Float64 puts
        # the encoder's product on BLAS, and it stays exact: every sum is
        # at most k.
        self._parity_generator = dependencies.T.astype(np.float64)
        self.rank = self._parity_positions.size
        self.k = self.n - self.rank
        message = np.ones(self.n, dtype=bool)
        message[self._parity_positions] = False
        self._message_positions = np.nonzero(message)[0]

        checks, variables = self._edges
        num_edges = checks.size
        self._check_edges = _padded_index(checks, np.arange(num_edges),
                                          self.num_checks, num_edges)
        self._check_variables = np.append(variables, self.n)[
            self._check_edges]
        # A stable sort keeps each variable's edges in ascending check order.
        by_variable = np.argsort(variables, kind="stable")
        self._variable_edges = _padded_index(variables[by_variable],
                                             by_variable, self.n, num_edges)

    def __getstate__(self) -> dict:
        index_type = np.min_scalar_type(max(self.n, self.num_checks))
        return {"n": self.n, "num_checks": self.num_checks,
                "edges": self._edges.astype(index_type),
                "parity_positions": self._parity_positions.astype(index_type),
                "dependencies": np.packbits(
                    self._parity_generator.T.astype(np.uint8), axis=1)}

    def __setstate__(self, state: dict) -> None:
        self.n, self.num_checks = state["n"], state["num_checks"]
        parity_positions = state["parity_positions"]
        dependencies = np.unpackbits(state["dependencies"], axis=1,
                                     count=self.n - parity_positions.size)
        self._setup(state["edges"], parity_positions, dependencies)

    @classmethod
    def regular(cls, n: int, column_weight: int = 3, row_weight: int = 6,
                rng: np.random.Generator | None = None) -> "LDPCCode":
        """Construct a regular Gallager-ensemble code."""
        return cls(gallager_parity_check_matrix(n, column_weight, row_weight,
                                                rng=rng))

    @property
    def parity_check(self) -> np.ndarray:
        """The parity-check matrix ``H``, rebuilt from the edge list
        (read-only)."""
        matrix = np.zeros((self.num_checks, self.n), dtype=np.int64)
        matrix[self._edges[0], self._edges[1]] = 1
        matrix.flags.writeable = False
        return matrix

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode a ``(B, k)`` batch of messages in one matrix product.

        A codeword carries its message at the non-parity positions."""
        messages = np.asarray(messages).astype(np.int64) & 1
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(f"messages must have shape (B, {self.k}), "
                             f"got {messages.shape}")
        codewords = np.zeros((len(messages), self.n), dtype=np.int64)
        codewords[:, self._message_positions] = messages
        codewords[:, self._parity_positions] = \
            (messages.astype(np.float64) @ self._parity_generator) % 2
        return codewords

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode_min_sum_batch(self, llrs_batch: np.ndarray,
                             max_iterations: int = 30,
                             scale: float = 0.8) -> list[LDPCDecodingResult]:
        """Normalised min-sum decoding of a ``(B, n)`` batch of LLR vectors.

        Parameters
        ----------
        llrs_batch:
            Channel log-likelihood ratios, positive meaning "bit is 0"; an
            LLR that is NaN or larger in magnitude than
            :data:`repro.nn.backend.LDPC_LLR_LIMIT` (1e200) raises
            :class:`ValueError`.
        max_iterations:
            Iteration cap.
        scale:
            Min-sum normalisation factor (0.8 is a common choice).

        The message passing is the array backend's ``ldpc_min_sum`` kernel
        (:meth:`repro.nn.backend.ArrayBackend.ldpc_min_sum`): one call per
        batch, compiled under the ``cjit`` backend and bit-identical to
        the NumPy loop under ``numpy``.  Each codeword's result depends on
        its own LLRs only.
        """
        llrs_batch = np.asarray(llrs_batch, dtype=float)
        if llrs_batch.ndim != 2 or llrs_batch.shape[1] != self.n:
            raise ValueError(f"llrs_batch must have shape (B, {self.n}), "
                             f"got {llrs_batch.shape}")
        if not 0 < scale <= 1:
            raise ValueError("scale must lie in (0, 1]")
        if not (np.abs(llrs_batch) <= LDPC_LLR_LIMIT).all():
            raise ValueError(f"llrs must be finite, with magnitude at most "
                             f"{LDPC_LLR_LIMIT:g}")
        codewords, iterations, success = get_backend().ldpc_min_sum(
            llrs_batch, self._check_edges, self._check_variables,
            self._variable_edges, max_iterations, scale)
        messages = codewords[:, self._message_positions]
        return [LDPCDecodingResult(codeword=codewords[i], message=messages[i],
                                   iterations=int(iterations[i]),
                                   success=bool(success[i]))
                for i in range(len(codewords))]
