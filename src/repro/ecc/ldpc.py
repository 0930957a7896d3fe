"""Regular LDPC codes with min-sum (soft) and bit-flipping (hard) decoding.

Modern (3-D TLC/QLC) flash controllers pair the soft read voltages the paper's
generative model produces with soft-decision LDPC decoding.  This module
provides the minimal but complete machinery for that study: a Gallager-style
regular parity-check construction, systematic encoding via Gaussian
elimination over GF(2), a normalised min-sum belief-propagation decoder
(Chen & Fossorier, *IEEE Trans. Commun.* 2002) that consumes
log-likelihood ratios (see :mod:`repro.ecc.llr`), and a hard-decision
bit-flipping decoder as the cheap baseline.

A code is stored as the edge list of its Tanner graph: one ``(check,
variable)`` pair per one in ``H``.  The decoders keep one message per edge
and reach them through two padded indexes, check-major and variable-major,
so their cost scales with the number of edges rather than with the size of
``H`` (756 edges against 31,752 entries for the n = 252 code).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        check-major.  Both padded indexes point their empty slots at edge
        ``E``, a message slot the decoders keep at zero.
        """
        self._edges = edges.astype(np.intp)
        self._parity_positions = parity_positions.astype(np.intp)
        self._parity_dependencies = dependencies.astype(np.int64)
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
                    self._parity_dependencies.astype(np.uint8), axis=1)}

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

    @property
    def rate(self) -> float:
        """Design rate k / n (using the rank of H)."""
        return self.k / self.n

    # ------------------------------------------------------------------ #
    # Encoding and syndromes
    # ------------------------------------------------------------------ #
    def encode(self, message: np.ndarray) -> np.ndarray:
        """Encode ``k`` message bits into an ``n``-bit codeword."""
        message = np.asarray(message)
        if message.shape != (self.k,):
            raise ValueError(f"message must have shape ({self.k},), "
                             f"got {message.shape}")
        return self.encode_batch(message[None])[0]

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode a ``(B, k)`` batch of messages in one matrix product."""
        messages = np.asarray(messages).astype(np.int64) & 1
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(f"messages must have shape (B, {self.k}), "
                             f"got {messages.shape}")
        codewords = np.zeros((len(messages), self.n), dtype=np.int64)
        codewords[:, self._message_positions] = messages
        codewords[:, self._parity_positions] = \
            (messages @ self._parity_dependencies.T) % 2
        return codewords

    def message_from_codeword(self, codeword: np.ndarray) -> np.ndarray:
        """Extract the message bits from a codeword."""
        codeword = np.asarray(codeword)
        if codeword.shape != (self.n,):
            raise ValueError(f"codeword must have shape ({self.n},)")
        return codeword[self._message_positions].astype(np.int64)

    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        """XOR of each check's variables over a ``(B, n)`` 0/1 batch;
        padded index slots read the zero column ``n``."""
        padded = np.zeros((len(words), self.n + 1), dtype=np.int64)
        padded[:, :self.n] = words
        return np.bitwise_xor.reduce(
            padded.take(self._check_variables, axis=1), axis=2)

    def syndrome(self, word: np.ndarray) -> np.ndarray:
        """Parity-check syndrome ``H w`` over GF(2)."""
        word = np.asarray(word)
        if word.shape != (self.n,):
            raise ValueError(f"word must have shape ({self.n},)")
        return self.syndrome_batch(word[None])[0]

    def is_codeword(self, word: np.ndarray) -> bool:
        return not self.syndrome(word).any()

    def syndrome_batch(self, words: np.ndarray) -> np.ndarray:
        """Parity-check syndromes of a ``(B, n)`` batch, shape ``(B, m)``."""
        words = np.asarray(words).astype(np.int64) & 1
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"words must have shape (B, {self.n}), "
                             f"got {words.shape}")
        return self._syndromes(words)

    # ------------------------------------------------------------------ #
    # Decoders
    # ------------------------------------------------------------------ #
    def decode_min_sum(self, llrs: np.ndarray, max_iterations: int = 30,
                       scale: float = 0.8) -> LDPCDecodingResult:
        """Normalised min-sum decoding of one codeword's channel LLRs.

        The one-row case of :meth:`decode_min_sum_batch`.
        """
        llrs = np.asarray(llrs, dtype=float)
        if llrs.shape != (self.n,):
            raise ValueError(f"llrs must have shape ({self.n},)")
        return self.decode_min_sum_batch(llrs[None], max_iterations,
                                         scale)[0]

    def _variable_totals(self, llrs: np.ndarray,
                         messages: np.ndarray) -> np.ndarray:
        """Channel LLR plus every incoming check message, per variable.

        The messages are added in ascending check order, the order in which
        a column sum over a dense ``H``-shaped message array adds them.
        """
        edges = self._variable_edges
        incoming = messages.take(edges[:, 0], axis=1)
        for column in range(1, edges.shape[1]):
            incoming += messages.take(edges[:, column], axis=1)
        return llrs + incoming

    def decode_min_sum_batch(self, llrs_batch: np.ndarray,
                             max_iterations: int = 30,
                             scale: float = 0.8) -> list[LDPCDecodingResult]:
        """Normalised min-sum decoding of a ``(B, n)`` batch of LLR vectors.

        Parameters
        ----------
        llrs_batch:
            Channel log-likelihood ratios, positive meaning "bit is 0".
        max_iterations:
            Iteration cap.
        scale:
            Min-sum normalisation factor (0.8 is a common choice).

        Check-to-variable messages live on the Tanner graph's edges, one
        ``(B, E + 1)`` array whose last slot is the zero the padded index
        entries read.  Codewords that converge drop out of the working set,
        so each codeword's result does not depend on the rest of the batch.
        """
        llrs_batch = np.asarray(llrs_batch, dtype=float)
        if llrs_batch.ndim != 2 or llrs_batch.shape[1] != self.n:
            raise ValueError(f"llrs_batch must have shape (B, {self.n}), "
                             f"got {llrs_batch.shape}")
        if not 0 < scale <= 1:
            raise ValueError("scale must lie in (0, 1]")
        batch = llrs_batch.shape[0]
        num_edges = self._edges.shape[1]
        index = self._check_edges
        variables = np.minimum(self._check_variables, self.n - 1)
        mask = index < num_edges
        degrees = mask.sum(axis=1)
        positions = np.arange(index.shape[1])

        codewords = (llrs_batch < 0).astype(np.int64)
        iterations = np.zeros(batch, dtype=np.int64)
        success = ~self._syndromes(codewords).any(axis=1)
        active = np.nonzero(~success)[0]
        llrs = llrs_batch[active]
        messages = np.zeros((active.size, num_edges + 1))

        for iteration in range(1, max_iterations + 1):
            if active.size == 0:
                break
            totals = self._variable_totals(llrs, messages)
            # Check-node update: extrinsic inputs per edge, the product of
            # their signs and the two smallest magnitudes per check, then
            # the normalised min-sum outgoing messages.
            incoming = totals.take(variables, axis=1) \
                - messages.take(index, axis=1)
            signs = np.where(incoming < 0, -1.0, 1.0)
            magnitudes = np.where(mask, np.abs(incoming), np.inf)
            smallest_two = np.partition(magnitudes, 1, axis=-1) \
                if magnitudes.shape[-1] > 1 else magnitudes
            smallest = smallest_two[..., 0]
            second = np.where(degrees > 1,
                              smallest_two[..., min(1, magnitudes.shape[-1] - 1)],
                              smallest)
            minimum_position = np.argmin(magnitudes, axis=-1)
            product_sign = np.prod(np.where(mask, signs, 1.0), axis=-1)
            outgoing = np.where(positions == minimum_position[..., None],
                                second[..., None], smallest[..., None])
            update = scale * product_sign[..., None] * signs * outgoing
            messages[:, index] = np.where(mask, update, 0.0)
            hard = (self._variable_totals(llrs, messages) < 0).astype(np.int64)
            converged = ~self._syndromes(hard).any(axis=1)
            codewords[active] = hard
            iterations[active] = iteration
            success[active] = converged
            running = ~converged
            active, llrs, messages = \
                active[running], llrs[running], messages[running]

        return [LDPCDecodingResult(
                    codeword=codewords[i],
                    message=self.message_from_codeword(codewords[i]),
                    iterations=int(iterations[i]), success=bool(success[i]))
                for i in range(batch)]

    def decode_bit_flipping(self, received: np.ndarray,
                            max_iterations: int = 50) -> LDPCDecodingResult:
        """Gallager hard-decision bit-flipping decoding."""
        word = np.asarray(received).astype(np.int64) & 1
        if word.shape != (self.n,):
            raise ValueError(f"received word must have shape ({self.n},)")
        word = word.copy()
        for iteration in range(1, max_iterations + 1):
            syndrome = self.syndrome(word)
            if not syndrome.any():
                return LDPCDecodingResult(
                    codeword=word, message=self.message_from_codeword(word),
                    iterations=iteration - 1, success=True)
            # Number of unsatisfied checks touching each variable.
            on_edges = np.append(syndrome[self._edges[0]], 0)
            unsatisfied = on_edges[self._variable_edges].sum(axis=1)
            worst = unsatisfied.max()
            if worst == 0:
                break
            word[unsatisfied == worst] ^= 1
        success = self.is_codeword(word)
        return LDPCDecodingResult(codeword=word,
                                  message=self.message_from_codeword(word),
                                  iterations=max_iterations, success=success)
