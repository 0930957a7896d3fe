"""Binary BCH codes: construction, systematic encoding and decoding.

BCH codes are the classic hard-decision ECC of NAND flash controllers; they
are the natural consumer of the hard error rates the channel model predicts
(Fig. 5's error counts translate directly into a required correction
capability ``t``).  The implementation is textbook:

* the generator polynomial is the LCM of the minimal polynomials of
  ``alpha, alpha^2, ..., alpha^{2t}``;
* encoding is systematic (parity bits, then the message bits);
* decoding computes syndromes, runs the Berlekamp-Massey algorithm to find
  the error-locator polynomial and locates the errors by Chien search
  (Lin & Costello, *Error Control Coding*, ch. 6).

Encoding, syndromes and the Chien search are lookups in tables built once
per code, so a batch of words is encoded and decoded together; only
Berlekamp-Massey runs per word, for the words whose syndrome is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.galois import GaloisField, Gf2Polynomial

__all__ = ["BCHCode", "BCHDecodingResult"]


@dataclass
class BCHDecodingResult:
    """Outcome of decoding one BCH codeword."""

    codeword: np.ndarray
    message: np.ndarray
    corrected_errors: int
    success: bool


class BCHCode:
    """A binary primitive BCH code of length ``n = 2^m - 1``.

    Parameters
    ----------
    m:
        Field extension degree; the code length is ``2^m - 1``.
    t:
        Design error-correction capability (number of correctable bit errors).
    """

    def __init__(self, m: int, t: int):
        if t < 1:
            raise ValueError("t must be positive")
        self.field = GaloisField(m)
        self.m = m
        self.t = t
        self.n = self.field.order
        self.generator = self._build_generator()
        self.n_minus_k = self.generator.degree
        self.k = self.n - self.n_minus_k
        if self.k <= 0:
            raise ValueError(f"BCH(m={m}, t={t}) has no message bits; "
                             f"reduce t or increase m")
        self._build_tables()

    def _build_generator(self) -> Gf2Polynomial:
        generator = Gf2Polynomial([1])
        seen: set[Gf2Polynomial] = set()
        for power in range(1, 2 * self.t + 1):
            minimal = self.field.minimal_polynomial(
                self.field.alpha_power(power))
            if minimal in seen:
                continue
            seen.add(minimal)
            generator = generator * minimal
        return generator

    def _build_tables(self) -> None:
        """Precompute the encoder matrix and the syndrome and Chien tables.

        Field elements and their logs fit 16 bits, parity bits 8, which
        keeps a pickled code small.
        """
        order = self.field.order
        self._exp = self.field.exp_table.tolist()
        self._log = self.field.log_table.tolist()
        # Row i is x^(n-k+i) mod g(x): the parity that message bit i adds.
        self._parity_matrix = np.zeros((self.k, self.n_minus_k),
                                       dtype=np.uint8)
        for row in range(self.k):
            monomial = Gf2Polynomial([0] * (self.n_minus_k + row) + [1])
            remainder = (monomial % self.generator).coefficients
            self._parity_matrix[row, :len(remainder)] = remainder
        positions = np.arange(self.n)[:, None]
        # S_j = sum_i r_i alpha^(i j), j = 1..2t, is an XOR over this table.
        self._syndrome_table = self.field.exp_table[
            positions * np.arange(1, 2 * self.t + 1) % order
        ].astype(np.uint16)
        # An error at position i is a root alpha^(-i) of the error locator:
        # log(alpha^(-i d)) for every position i and locator degree d <= t.
        self._chien_logs = (-positions * np.arange(self.t + 1)
                            % order).astype(np.uint16)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematically encode ``k`` message bits into an ``n``-bit codeword.

        The codeword layout is ``[parity | message]`` (coefficients lowest
        degree first) where the parity bits are the remainder of
        ``message(x) * x^(n-k)`` modulo the generator.
        """
        message = np.asarray(message)
        if message.shape != (self.k,):
            raise ValueError(f"message must have shape ({self.k},), "
                             f"got {message.shape}")
        return self.encode_batch(message[None])[0]

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode a ``(B, k)`` batch of messages in one GF(2) matrix product.

        The remainder is linear in the message, so the parity of a message
        is the XOR of the precomputed remainders of its one bits.
        """
        messages = np.asarray(messages).astype(np.int64) & 1
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(f"messages must have shape (B, {self.k}), "
                             f"got {messages.shape}")
        # Float64 puts the product on BLAS, and it stays exact: every sum
        # is at most k.
        parity = (messages.astype(np.float64)
                  @ self._parity_matrix.astype(np.float64)) % 2
        return np.concatenate([parity.astype(np.int64), messages], axis=1)

    def message_from_codeword(self, codeword: np.ndarray) -> np.ndarray:
        """Extract the systematic message bits from a codeword."""
        codeword = np.asarray(codeword)
        if codeword.shape != (self.n,):
            raise ValueError(f"codeword must have shape ({self.n},)")
        return codeword[self.n_minus_k:].astype(np.int64)

    def is_codeword(self, word: np.ndarray) -> bool:
        """Whether ``word`` has all-zero syndromes."""
        word = np.asarray(word)
        if word.shape != (self.n,):
            raise ValueError(f"word must have shape ({self.n},)")
        return not self._syndromes(word[None] & 1).any()

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def _syndromes(self, words: np.ndarray) -> np.ndarray:
        """``(B, 2t)`` syndromes of a ``(B, n)`` 0/1 batch."""
        selected = np.where(words[:, :, None] != 0, self._syndrome_table, 0)
        return np.bitwise_xor.reduce(selected, axis=1)

    def _berlekamp_massey(self, syndromes: list[int]) -> list[int]:
        """Error-locator polynomial (coefficients, lowest degree first)."""
        exp, log, order = self._exp, self._log, self.field.order

        def multiply(a: int, b: int) -> int:
            return exp[log[a] + log[b]] if a and b else 0

        locator = [1]
        previous = [1]
        shift = 1
        previous_discrepancy = 1
        for index in range(2 * self.t):
            discrepancy = syndromes[index]
            for degree in range(1, min(len(locator), index + 1)):
                discrepancy ^= multiply(locator[degree],
                                        syndromes[index - degree])
            if discrepancy == 0:
                shift += 1
                continue
            scale = exp[(log[discrepancy] - log[previous_discrepancy])
                        % order]
            candidate = locator + [0] * max(
                0, len(previous) + shift - len(locator))
            for degree, coefficient in enumerate(previous):
                candidate[degree + shift] ^= multiply(scale, coefficient)
            if 2 * (len(locator) - 1) <= index:
                previous = list(locator)
                previous_discrepancy = discrepancy
                shift = 1
            else:
                shift += 1
            locator = candidate
        while len(locator) > 1 and locator[-1] == 0:
            locator.pop()
        return locator

    def _error_positions(self, syndromes: list[int]) -> np.ndarray | None:
        """Error positions of one word, or ``None`` past the capability.

        The locator's degree is checked first, so the Chien search (the
        locator evaluated at every ``alpha^(-i)`` in one table lookup)
        only sees degrees the table covers.
        """
        locator = self._berlekamp_massey(syndromes)
        degree = len(locator) - 1
        if degree > self.t:
            return None
        coefficients = np.array(locator)
        terms = np.nonzero(coefficients)[0]
        logs = self.field.log_table[coefficients[terms]]
        values = np.bitwise_xor.reduce(
            self.field.exp_table[self._chien_logs[:, terms] + logs], axis=1)
        positions = np.nonzero(values == 0)[0]
        return positions if positions.size == degree else None

    def decode(self, received: np.ndarray) -> BCHDecodingResult:
        """Decode one (possibly corrupted) ``n``-bit word.

        The one-row case of :meth:`decode_batch`.
        """
        received = np.asarray(received)
        if received.shape != (self.n,):
            raise ValueError(f"received word must have shape ({self.n},)")
        return self.decode_batch(received[None])[0]

    def decode_batch(self, received: np.ndarray) -> list[BCHDecodingResult]:
        """Decode a ``(B, n)`` batch of (possibly corrupted) words.

        Returns, per word, the corrected codeword, the extracted message,
        the number of corrected bits, and a success flag.  Decoding fails
        (success=False, word returned uncorrected) when the error pattern
        exceeds the design capability: the locator's degree exceeds ``t``,
        disagrees with its number of roots, or the corrected word is not a
        codeword.  Syndromes and the re-check are batched table lookups;
        Berlekamp-Massey runs only for words with a nonzero syndrome.
        """
        received = np.asarray(received).astype(np.int64) & 1
        if received.ndim != 2 or received.shape[1] != self.n:
            raise ValueError(f"received words must have shape (B, {self.n}), "
                             f"got {received.shape}")
        corrected = received.copy()
        errors = np.zeros(len(received), dtype=np.int64)
        success = np.ones(len(received), dtype=bool)
        syndromes = self._syndromes(received)
        located = []
        for row in np.nonzero(syndromes.any(axis=1))[0]:
            positions = self._error_positions(syndromes[row].tolist())
            if positions is None:
                success[row] = False
                continue
            corrected[row, positions] ^= 1
            errors[row] = positions.size
            located.append(row)
        located = np.array(located, dtype=np.intp)
        rejected = located[self._syndromes(corrected[located]).any(axis=1)]
        corrected[rejected] = received[rejected]
        errors[rejected] = 0
        success[rejected] = False
        return [BCHDecodingResult(codeword=corrected[row],
                                  message=self.message_from_codeword(
                                      corrected[row]),
                                  corrected_errors=int(errors[row]),
                                  success=bool(success[row]))
                for row in range(len(received))]

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    @property
    def rate(self) -> float:
        """Code rate k / n."""
        return self.k / self.n

    def describe(self) -> dict[str, float | int]:
        """Key parameters of the code."""
        return {"n": self.n, "k": self.k, "t": self.t, "m": self.m,
                "rate": self.rate,
                "parity_bits": self.n_minus_k}
