"""Tests for the binary BCH code."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import build_channel
from repro.ecc import (BCHCode, BCHDecodingResult, Gf2Polynomial,
                       evaluate_bch_over_channel)
from repro.flash import BlockGeometry


# ---------------------------------------------------------------------- #
# Oracles: the scalar polynomial-division encoder and the Horner/Chien
# decoder, field operation by field operation.
# ---------------------------------------------------------------------- #
def _reference_encode(code: BCHCode, message: np.ndarray) -> np.ndarray:
    """``[message(x) * x^(n-k) mod g(x) | message]`` by long division."""
    shifted = Gf2Polynomial([0] * code.n_minus_k + list(message))
    remainder = (shifted % code.generator).coefficients
    parity = np.zeros(code.n_minus_k, dtype=np.int64)
    parity[:len(remainder)] = remainder
    return np.concatenate([parity, message])


def _reference_syndromes(code: BCHCode, received: np.ndarray) -> list[int]:
    return [code.field.poly_eval(received.tolist(),
                                 code.field.alpha_power(power))
            for power in range(1, 2 * code.t + 1)]


def _reference_berlekamp_massey(code: BCHCode,
                                syndromes: list[int]) -> list[int]:
    field = code.field
    locator = [1]
    previous = [1]
    shift = 1
    previous_discrepancy = 1
    for index in range(2 * code.t):
        discrepancy = syndromes[index]
        for degree in range(1, len(locator)):
            if degree <= index:
                discrepancy ^= field.multiply(locator[degree],
                                              syndromes[index - degree])
        if discrepancy == 0:
            shift += 1
            continue
        scale = field.divide(discrepancy, previous_discrepancy)
        candidate = locator + [0] * max(
            0, len(previous) + shift - len(locator))
        for degree, coefficient in enumerate(previous):
            candidate[degree + shift] ^= field.multiply(scale, coefficient)
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


def _reference_chien_search(code: BCHCode, locator: list[int]) -> list[int]:
    # An error at position i corresponds to a root alpha^(-i).
    return [position for position in range(code.n)
            if code.field.poly_eval(locator,
                                    code.field.alpha_power(-position)) == 0]


def _reference_decode(code: BCHCode, received: np.ndarray
                      ) -> BCHDecodingResult:
    received = np.asarray(received).astype(np.int64) & 1
    failure = BCHDecodingResult(
        codeword=received.copy(),
        message=code.message_from_codeword(received),
        corrected_errors=0, success=False)
    syndromes = _reference_syndromes(code, received)
    if not any(syndromes):
        return BCHDecodingResult(
            codeword=received.copy(),
            message=code.message_from_codeword(received),
            corrected_errors=0, success=True)
    locator = _reference_berlekamp_massey(code, syndromes)
    positions = _reference_chien_search(code, locator)
    locator_degree = len(locator) - 1
    if locator_degree > code.t or len(positions) != locator_degree:
        return failure
    corrected = received.copy()
    corrected[positions] ^= 1
    if any(_reference_syndromes(code, corrected)):
        return failure
    return BCHDecodingResult(codeword=corrected,
                             message=code.message_from_codeword(corrected),
                             corrected_errors=len(positions), success=True)


def _assert_same_result(result: BCHDecodingResult,
                        expected: BCHDecodingResult) -> None:
    assert result.success == expected.success
    assert result.corrected_errors == expected.corrected_errors
    np.testing.assert_array_equal(result.codeword, expected.codeword)
    np.testing.assert_array_equal(result.message, expected.message)


@pytest.fixture(scope="module")
def bch_15_7() -> BCHCode:
    """BCH(15, 7) correcting 2 errors."""
    return BCHCode(m=4, t=2)


@pytest.fixture(scope="module")
def bch_63() -> BCHCode:
    """BCH(63, 45) correcting 3 errors."""
    return BCHCode(m=6, t=3)


class TestConstruction:
    def test_classic_code_parameters(self, bch_15_7, bch_63):
        assert (bch_15_7.n, bch_15_7.k, bch_15_7.t) == (15, 7, 2)
        assert (bch_63.n, bch_63.k, bch_63.t) == (63, 45, 3)

    def test_single_error_code_is_hamming(self):
        code = BCHCode(m=4, t=1)
        assert (code.n, code.k) == (15, 11)

    def test_rate_and_describe(self, bch_15_7):
        summary = bch_15_7.describe()
        assert summary["rate"] == pytest.approx(7 / 15)
        assert summary["parity_bits"] == 8

    def test_invalid_t_rejected(self):
        with pytest.raises(ValueError):
            BCHCode(m=4, t=0)

    def test_maximum_t_collapses_to_single_message_bit(self):
        """Asking for t=7 over GF(2^4) leaves the (15, 1) code."""
        code = BCHCode(m=4, t=7)
        assert code.k == 1
        # The single-information-bit code survives huge error patterns.
        codeword = code.encode(np.array([1]))
        assert int(codeword.sum()) >= 2 * code.t + 1

    def test_generator_divides_codewords(self, bch_15_7):
        message = np.ones(bch_15_7.k, dtype=int)
        codeword = bch_15_7.encode(message)
        assert bch_15_7.is_codeword(codeword)


class TestEncoding:
    def test_encoding_is_systematic(self, bch_15_7):
        rng = np.random.default_rng(0)
        message = rng.integers(0, 2, size=bch_15_7.k)
        codeword = bch_15_7.encode(message)
        np.testing.assert_array_equal(
            bch_15_7.message_from_codeword(codeword), message)

    def test_zero_message_encodes_to_zero(self, bch_15_7):
        codeword = bch_15_7.encode(np.zeros(bch_15_7.k, dtype=int))
        assert not codeword.any()

    def test_encoding_is_linear(self, bch_15_7):
        rng = np.random.default_rng(1)
        first = rng.integers(0, 2, size=bch_15_7.k)
        second = rng.integers(0, 2, size=bch_15_7.k)
        combined = bch_15_7.encode((first + second) % 2)
        np.testing.assert_array_equal(
            combined, (bch_15_7.encode(first) + bch_15_7.encode(second)) % 2)

    def test_wrong_message_length_rejected(self, bch_15_7):
        with pytest.raises(ValueError):
            bch_15_7.encode(np.zeros(bch_15_7.k + 1, dtype=int))

    def test_wrong_codeword_length_rejected(self, bch_15_7):
        with pytest.raises(ValueError):
            bch_15_7.message_from_codeword(np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            bch_15_7.decode(np.zeros(3, dtype=int))


class TestDecoding:
    def test_error_free_word_decodes_immediately(self, bch_15_7):
        message = np.array([1, 0, 1, 1, 0, 0, 1])
        codeword = bch_15_7.encode(message)
        result = bch_15_7.decode(codeword)
        assert result.success
        assert result.corrected_errors == 0
        np.testing.assert_array_equal(result.message, message)

    @pytest.mark.parametrize("num_errors", [1, 2])
    def test_corrects_up_to_t_errors(self, bch_15_7, num_errors):
        rng = np.random.default_rng(10 + num_errors)
        for _ in range(20):
            message = rng.integers(0, 2, size=bch_15_7.k)
            codeword = bch_15_7.encode(message)
            corrupted = codeword.copy()
            positions = rng.choice(bch_15_7.n, size=num_errors, replace=False)
            corrupted[positions] ^= 1
            result = bch_15_7.decode(corrupted)
            assert result.success
            assert result.corrected_errors == num_errors
            np.testing.assert_array_equal(result.codeword, codeword)
            np.testing.assert_array_equal(result.message, message)

    def test_corrects_three_errors_on_longer_code(self, bch_63):
        rng = np.random.default_rng(77)
        message = rng.integers(0, 2, size=bch_63.k)
        codeword = bch_63.encode(message)
        corrupted = codeword.copy()
        corrupted[[0, 31, 62]] ^= 1
        result = bch_63.decode(corrupted)
        assert result.success
        np.testing.assert_array_equal(result.codeword, codeword)

    def test_beyond_capability_is_flagged_or_miscorrected(self, bch_15_7):
        """t+1 errors either fail or land on a different valid codeword."""
        rng = np.random.default_rng(3)
        detected_failures = 0
        for _ in range(30):
            message = rng.integers(0, 2, size=bch_15_7.k)
            codeword = bch_15_7.encode(message)
            corrupted = codeword.copy()
            positions = rng.choice(bch_15_7.n, size=bch_15_7.t + 1,
                                   replace=False)
            corrupted[positions] ^= 1
            result = bch_15_7.decode(corrupted)
            if not result.success:
                detected_failures += 1
            else:
                # Any successful decode must at least return a codeword.
                assert bch_15_7.is_codeword(result.codeword)
        assert detected_failures > 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_correctable_patterns(self, bch_63, data):
        message = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=bch_63.k, max_size=bch_63.k)))
        num_errors = data.draw(st.integers(min_value=0, max_value=bch_63.t))
        positions = data.draw(st.lists(
            st.integers(min_value=0, max_value=bch_63.n - 1),
            min_size=num_errors, max_size=num_errors, unique=True))
        codeword = bch_63.encode(message)
        corrupted = codeword.copy()
        corrupted[positions] ^= 1
        result = bch_63.decode(corrupted)
        assert result.success
        np.testing.assert_array_equal(result.codeword, codeword)

    def test_minimum_distance_at_least_design_distance(self, bch_15_7):
        """Every non-zero codeword has weight >= 2t + 1 (exhaustive check)."""
        minimum_weight = bch_15_7.n
        for value in range(1, 2 ** bch_15_7.k):
            message = np.array([(value >> bit) & 1
                                for bit in range(bch_15_7.k)])
            weight = int(bch_15_7.encode(message).sum())
            minimum_weight = min(minimum_weight, weight)
        assert minimum_weight >= 2 * bch_15_7.t + 1


@pytest.fixture(scope="module")
def bch_63_t4() -> BCHCode:
    """BCH(63, 39) correcting 4 errors, the code of the ECC campaigns."""
    return BCHCode(m=6, t=4)


class TestBatchedCodec:
    """The batched table paths against the scalar oracles."""

    @pytest.mark.parametrize("m, t", [(4, 2), (6, 3), (6, 4), (4, 7)])
    def test_encode_batch_matches_encode_and_long_division(self, m, t):
        code = BCHCode(m=m, t=t)
        messages = np.random.default_rng(40 + t).integers(
            0, 2, size=(20, code.k))
        batch = code.encode_batch(messages)
        np.testing.assert_array_equal(
            batch, np.stack([code.encode(message) for message in messages]))
        np.testing.assert_array_equal(
            batch, np.stack([_reference_encode(code, message)
                             for message in messages]))

    @pytest.mark.parametrize("m, t", [(6, 4), (8, 8)])
    def test_float_parity_product_equals_the_integer_one(self, m, t):
        """The encoder multiplies 0/1 operands in float64; every sum is at
        most k, so its parity bits are the integer product's, all-ones
        messages (the largest sums) included."""
        code = BCHCode(m=m, t=t)
        messages = np.concatenate([
            np.random.default_rng(m + t).integers(0, 2, size=(9, code.k)),
            np.ones((1, code.k), dtype=np.int64)])
        codewords = code.encode_batch(messages)
        assert codewords.dtype == np.int64
        np.testing.assert_array_equal(
            codewords[:, :code.n_minus_k],
            messages @ code._parity_matrix.astype(np.int64) % 2)
        np.testing.assert_array_equal(codewords[:, code.n_minus_k:],
                                      messages)

    def test_batch_validation(self, bch_15_7):
        with pytest.raises(ValueError):
            bch_15_7.encode_batch(np.zeros(bch_15_7.k, dtype=int))
        with pytest.raises(ValueError):
            bch_15_7.encode_batch(np.zeros((2, bch_15_7.k + 1), dtype=int))
        with pytest.raises(ValueError):
            bch_15_7.decode_batch(np.zeros(bch_15_7.n, dtype=int))
        with pytest.raises(ValueError):
            bch_15_7.decode_batch(np.zeros((2, bch_15_7.n - 1), dtype=int))
        with pytest.raises(ValueError):
            bch_15_7.is_codeword(np.zeros(3, dtype=int))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_decode_batch_matches_scalar_oracle(self, bch_63_t4, data):
        """0 to 3t errors per word: past t, Berlekamp-Massey can return a
        locator of degree greater than t."""
        code = bch_63_t4
        rows = data.draw(st.integers(min_value=1, max_value=8))
        seed = data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        words = code.encode_batch(rng.integers(0, 2, size=(rows, code.k)))
        for word in words:
            errors = data.draw(st.integers(min_value=0, max_value=3 * code.t))
            word[rng.choice(code.n, size=errors, replace=False)] ^= 1
        for word, result in zip(words, code.decode_batch(words)):
            _assert_same_result(result, _reference_decode(code, word))

    def test_locator_beyond_capability_fails_like_the_oracle(self,
                                                             bch_63_t4):
        code = bch_63_t4
        rng = np.random.default_rng(41)
        words = np.zeros((200, code.n), dtype=np.int64)
        for word in words:
            word[rng.choice(code.n, size=3 * code.t, replace=False)] = 1
        degrees = [len(_reference_berlekamp_massey(
                       code, _reference_syndromes(code, word))) - 1
                   for word in words]
        assert max(degrees) > code.t
        for word, result in zip(words, code.decode_batch(words)):
            _assert_same_result(result, _reference_decode(code, word))


class _OracleBCHCode(BCHCode):
    """Encodes by long division and decodes by Horner/Chien, row by row."""

    def encode_batch(self, messages):
        return np.stack([_reference_encode(self, message)
                         for message in np.asarray(messages)])

    def decode_batch(self, received):
        return [_reference_decode(self, word) for word in received]


def test_campaign_frame_records_match_the_oracle():
    """A seeded BCH campaign at 100k P/E over the 16x16 simulator, where
    most frames fail and many exceed the design capability."""
    records = []
    for code in (BCHCode(m=6, t=4), _OracleBCHCode(m=6, t=4)):
        channel = build_channel("simulator", geometry=BlockGeometry(16, 16),
                                rng=np.random.default_rng(0))
        result = evaluate_bch_over_channel(code, channel, 100_000,
                                           num_codewords=128, seed=9)
        records.append(result.frame_records)
    assert 0 < records[0][:, 1].mean() < 1
    np.testing.assert_array_equal(records[0], records[1])

