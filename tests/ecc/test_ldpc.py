"""Tests for the LDPC code, its min-sum decoder and the Gallager
construction."""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import build_channel
from repro.ecc import (LDPCCode, LDPCDecodingResult,
                       evaluate_ldpc_over_channel,
                       gallager_parity_check_matrix)
from repro.flash import BlockGeometry
from repro.nn import backend as backend_mod
from repro.nn.backend import LDPC_LLR_LIMIT, LDPC_MESSAGE_CAP, use_backend


@pytest.fixture(scope="module")
def code() -> LDPCCode:
    return LDPCCode.regular(n=96, column_weight=3, row_weight=6,
                            rng=np.random.default_rng(0))


def _satisfies_parity(code: LDPCCode, word: np.ndarray) -> bool:
    """Every check of the dense ``H`` is even on ``word``."""
    return not (code.parity_check @ word % 2).any()


def _bpsk_llrs(codeword: np.ndarray, noise_sigma: float,
               rng: np.random.Generator) -> np.ndarray:
    """Channel LLRs of a codeword sent over a BPSK/AWGN channel."""
    symbols = 1.0 - 2.0 * codeword
    received = symbols + rng.normal(0.0, noise_sigma, size=codeword.shape)
    return 2.0 * received / noise_sigma ** 2


class TestGallagerConstruction:
    def test_column_and_row_weights(self):
        matrix = gallager_parity_check_matrix(24, 3, 6,
                                              rng=np.random.default_rng(1))
        assert matrix.shape == (12, 24)
        np.testing.assert_array_equal(matrix.sum(axis=0), 3)
        np.testing.assert_array_equal(matrix.sum(axis=1), 6)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gallager_parity_check_matrix(1, 3, 6, rng=rng)
        with pytest.raises(ValueError):
            gallager_parity_check_matrix(24, 1, 6, rng=rng)
        with pytest.raises(ValueError):
            gallager_parity_check_matrix(24, 3, 1, rng=rng)
        with pytest.raises(ValueError):
            gallager_parity_check_matrix(25, 3, 6, rng=rng)


def _clean_llrs(codewords: np.ndarray) -> np.ndarray:
    """Noiseless LLRs of a batch of codewords."""
    return 10.0 * (1.0 - 2.0 * codewords)


class TestLDPCCodeStructure:
    def test_rate_roughly_half(self, code):
        assert 0.45 <= code.k / code.n <= 0.60

    def test_parity_check_must_be_2d(self):
        with pytest.raises(ValueError):
            LDPCCode(np.zeros(10))

    def test_all_encoded_words_satisfy_parity(self, code):
        rng = np.random.default_rng(2)
        codewords = code.encode_batch(rng.integers(0, 2, size=(10, code.k)))
        for codeword in codewords:
            assert _satisfies_parity(code, codeword)

    def test_encoding_is_systematic(self, code):
        """A decoded codeword's message is the encoded one."""
        rng = np.random.default_rng(3)
        messages = rng.integers(0, 2, size=(3, code.k))
        decoded = code.decode_min_sum_batch(
            _clean_llrs(code.encode_batch(messages)))
        for result, message in zip(decoded, messages):
            np.testing.assert_array_equal(result.message, message)

    def test_encoding_is_linear(self, code):
        rng = np.random.default_rng(4)
        first, second = rng.integers(0, 2, size=(2, code.k))
        words = code.encode_batch(np.stack([(first + second) % 2, first,
                                            second]))
        np.testing.assert_array_equal(words[0], (words[1] + words[2]) % 2)

    def test_zero_message_gives_zero_codeword(self, code):
        assert not code.encode_batch(np.zeros((1, code.k), dtype=int)).any()

    def test_syndrome_of_corrupted_word_nonzero(self, code):
        codeword = code.encode_batch(np.ones((1, code.k), dtype=int))[0]
        corrupted = codeword.copy()
        corrupted[0] ^= 1
        assert not _satisfies_parity(code, corrupted)


class TestMinSumDecoder:
    def test_noiseless_llrs_decode_in_zero_iterations(self, code):
        rng = np.random.default_rng(5)
        codeword = code.encode_batch(rng.integers(0, 2, size=(1, code.k)))
        [result] = code.decode_min_sum_batch(_clean_llrs(codeword))
        assert result.success
        assert result.iterations == 0
        np.testing.assert_array_equal(result.codeword, codeword[0])

    def test_corrects_moderate_awgn_noise(self, code):
        rng = np.random.default_rng(6)
        codewords = code.encode_batch(rng.integers(0, 2, size=(10, code.k)))
        llrs = _bpsk_llrs(codewords, noise_sigma=0.6, rng=rng)
        results = code.decode_min_sum_batch(llrs, max_iterations=50)
        successes = sum(result.success
                        and np.array_equal(result.codeword, codeword)
                        for result, codeword in zip(results, codewords))
        assert successes >= 8

    def test_soft_beats_hard_decisions(self, code):
        """Min-sum on LLRs corrects frames the raw hard decision gets wrong."""
        rng = np.random.default_rng(7)
        codewords = code.encode_batch(rng.integers(0, 2, size=(10, code.k)))
        llrs = _bpsk_llrs(codewords, noise_sigma=0.7, rng=rng)
        hard_errors = np.count_nonzero((llrs < 0) != codewords, axis=1)
        results = code.decode_min_sum_batch(llrs, max_iterations=50)
        decoded_errors = np.array([np.count_nonzero(result.codeword
                                                    != codeword)
                                   for result, codeword
                                   in zip(results, codewords)])
        assert np.count_nonzero((hard_errors > 0)
                                & (decoded_errors < hard_errors)) >= 5

    def test_hopeless_llrs_reported_as_failure(self, code):
        rng = np.random.default_rng(8)
        codeword = code.encode_batch(rng.integers(0, 2, size=(1, code.k)))
        # Flip the sign of half the LLRs: far beyond any code's capability.
        llrs = 5.0 * (1.0 - 2.0 * codeword)
        flip = rng.choice(code.n, size=code.n // 2, replace=False)
        llrs[0, flip] *= -1.0
        [result] = code.decode_min_sum_batch(llrs, max_iterations=5)
        assert not result.success or \
            not np.array_equal(result.codeword, codeword[0])

    def test_validation(self, code):
        with pytest.raises(ValueError):
            code.decode_min_sum_batch(np.zeros((1, code.n - 1)))
        with pytest.raises(ValueError):
            code.decode_min_sum_batch(np.zeros((1, code.n)), scale=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_llrs_rejected(self, code, bad):
        """A NaN reads as bit 0, so an all-NaN word used to decode as the
        all-zero codeword in 0 iterations, reported as a success."""
        with pytest.raises(ValueError, match="finite"):
            code.decode_min_sum_batch(np.full((2, code.n), bad))
        llrs = np.full(code.n, 5.0)
        llrs[17] = bad
        with pytest.raises(ValueError, match="finite"):
            code.decode_min_sum_batch(llrs[None])
        with pytest.raises(ValueError, match="finite"):
            code.decode_min_sum_batch(np.stack([np.full(code.n, 5.0), llrs]))

    @pytest.mark.parametrize("backend_name", ["numpy", "cjit"])
    def test_llrs_beyond_the_limit_rejected(self, code_252, backend_name,
                                            cjit_backend):
        """Near the float64 limit a variable total overflows to inf and
        inf - inf is NaN, where the two backends' minimum searches
        disagree; such LLRs are refused on every backend.  LLRs at the
        limit stay far below the message cap and decode as unit LLRs do:
        every word with 6% of its signs flipped is corrected, in the same
        number of iterations."""
        rng = np.random.default_rng(16)
        codewords = code_252.encode_batch(
            rng.integers(0, 2, size=(16, code_252.k)))
        signs = (1.0 - 2.0 * codewords) \
            * np.where(rng.random(codewords.shape) < 0.06, -1.0, 1.0)
        backend = cjit_backend if backend_name == "cjit" else backend_name
        with use_backend(backend):
            with pytest.raises(ValueError, match="magnitude at most 1e"):
                code_252.decode_min_sum_batch(1.7e308 * signs)
            with pytest.raises(ValueError, match="magnitude at most 1e"):
                code_252.decode_min_sum_batch(
                    np.nextafter(LDPC_LLR_LIMIT, np.inf) * signs[:1])
            unit = code_252.decode_min_sum_batch(signs)
            with np.errstate(all="raise"):
                at_limit = code_252.decode_min_sum_batch(LDPC_LLR_LIMIT
                                                         * signs)
        for result, small, codeword in zip(at_limit, unit, codewords):
            assert result.success
            np.testing.assert_array_equal(result.codeword, codeword)
            assert result.iterations == small.iterations

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_decoded_word_is_always_valid_or_flagged(self, code, seed):
        rng = np.random.default_rng(seed)
        codewords = code.encode_batch(rng.integers(0, 2, size=(3, code.k)))
        llrs = _bpsk_llrs(codewords, noise_sigma=0.9, rng=rng)
        for result in code.decode_min_sum_batch(llrs, max_iterations=20):
            if result.success:
                assert _satisfies_parity(code, result.codeword)


def _reference_min_sum(code: LDPCCode, llrs: np.ndarray,
                       max_iterations: int = 30, scale: float = 0.8
                       ) -> tuple[np.ndarray, int, bool]:
    """The pre-vectorization per-check Python loop over a dense message
    array, kept as the oracle.  It reads the Tanner graph from the rows of
    ``code.parity_check`` only, never from the decoder's edge indexes."""
    llrs = np.asarray(llrs, dtype=float)
    parity_check = code.parity_check
    check_neighbours = [np.nonzero(row)[0] for row in parity_check]
    check_to_variable = np.zeros(parity_check.shape)
    hard = (llrs < 0).astype(np.int64)
    if not (parity_check @ hard % 2).any():
        return hard, 0, True
    for iteration in range(1, max_iterations + 1):
        totals = llrs + check_to_variable.sum(axis=0)
        for check, neighbours in enumerate(check_neighbours):
            if neighbours.size == 0:
                continue  # an all-zero row sends no messages
            incoming = totals[neighbours] - check_to_variable[check,
                                                              neighbours]
            signs = np.sign(incoming)
            signs[signs == 0] = 1.0
            magnitudes = np.abs(incoming)
            order = np.argsort(magnitudes)
            smallest = magnitudes[order[0]]
            second = magnitudes[order[1]] if neighbours.size > 1 else smallest
            product_sign = np.prod(signs)
            outgoing = np.minimum(
                np.where(np.arange(neighbours.size) == order[0], second,
                         smallest), LDPC_MESSAGE_CAP)
            check_to_variable[check, neighbours] = \
                scale * product_sign * signs * outgoing
        totals = llrs + check_to_variable.sum(axis=0)
        hard = (totals < 0).astype(np.int64)
        if not (parity_check @ hard % 2).any():
            return hard, iteration, True
    return hard, max_iterations, False


def _assert_matches_reference(code: LDPCCode, llrs: np.ndarray,
                              max_iterations: int, backends) -> None:
    """The batch decoder agrees with the oracle on every row of ``llrs``,
    under each array backend of ``backends``."""
    expected = [_reference_min_sum(code, row, max_iterations=max_iterations)
                for row in llrs]
    for backend in backends:
        with use_backend(backend):
            results = code.decode_min_sum_batch(
                llrs, max_iterations=max_iterations)
        for result, (codeword, iterations, success) in zip(results,
                                                           expected):
            np.testing.assert_array_equal(result.codeword, codeword)
            assert result.iterations == iterations
            assert result.success == success


def _irregular_parity_check() -> np.ndarray:
    """A Gallager matrix with a degree-1 check row, an all-zero row, a
    duplicated row and a shortened row among its degree-6 rows."""
    parity = gallager_parity_check_matrix(48, 3, 6,
                                          rng=np.random.default_rng(3))
    parity[0] = 0
    parity[0, 5] = 1
    parity[1] = 0
    parity[2] = parity[3]
    parity[4, :2] = 0
    return parity


@pytest.fixture(scope="module")
def code_252() -> LDPCCode:
    """The n = 252 code the ECC campaigns and benchmarks use."""
    return LDPCCode.regular(n=252, column_weight=3, row_weight=6,
                            rng=np.random.default_rng(1))


class TestVectorizedMinSumRegression:
    """The edge-list decoder must match the dense per-check loop exactly,
    under the NumPy loop and the compiled kernel alike."""

    @pytest.fixture
    def backends(self, cjit_backend):
        """Both decoders; on a host without a C compiler the explicitly
        built cjit backend runs the NumPy loop too."""
        return ("numpy", cjit_backend)

    @pytest.mark.parametrize("noise_sigma", [0.5, 0.7, 0.9])
    def test_identical_decode_results(self, code, noise_sigma, backends):
        rng = np.random.default_rng(int(noise_sigma * 100))
        codewords = code.encode_batch(rng.integers(0, 2, size=(8, code.k)))
        llrs = _bpsk_llrs(codewords, noise_sigma=noise_sigma, rng=rng)
        _assert_matches_reference(code, llrs, max_iterations=30,
                                  backends=backends)

    def test_identical_on_irregular_parity_check(self, backends):
        """Padded adjacency handles rows of different degree."""
        rng = np.random.default_rng(0)
        parity = gallager_parity_check_matrix(24, 3, 6, rng=rng)
        parity[0, :3] = 0  # degree-3 row among degree-6 rows
        irregular = LDPCCode(parity)
        llrs = []
        for seed in range(6):
            noise = np.random.default_rng(seed)
            codeword = irregular.encode_batch(
                noise.integers(0, 2, size=(1, irregular.k)))[0]
            llrs.append(_bpsk_llrs(codeword, noise_sigma=0.8, rng=noise))
        _assert_matches_reference(irregular, np.stack(llrs),
                                  max_iterations=20, backends=backends)

    @pytest.mark.parametrize("noise_sigma", [0.6, 0.9, 1.5])
    def test_batch_matches_reference_on_the_campaign_code(self, code_252,
                                                          noise_sigma,
                                                          backends):
        """At sigma 1.5 every frame runs all 30 iterations, so a message
        added in the wrong order or on the wrong edge has time to show."""
        rng = np.random.default_rng(int(noise_sigma * 10))
        codewords = code_252.encode_batch(
            rng.integers(0, 2, size=(8, code_252.k)))
        llrs = _bpsk_llrs(codewords, noise_sigma, rng)
        _assert_matches_reference(code_252, llrs, max_iterations=30,
                                  backends=backends)

    @pytest.mark.parametrize("noise_sigma", [0.6, 0.9, 1.5])
    def test_batch_matches_reference_on_degenerate_rows(self, noise_sigma,
                                                        backends):
        irregular = LDPCCode(_irregular_parity_check())
        rng = np.random.default_rng(int(noise_sigma * 10))
        codewords = irregular.encode_batch(
            rng.integers(0, 2, size=(16, irregular.k)))
        llrs = _bpsk_llrs(codewords, noise_sigma, rng)
        _assert_matches_reference(irregular, llrs, max_iterations=30,
                                  backends=backends)

    @pytest.mark.parametrize("code_name", ["campaign", "degenerate"])
    def test_messages_capped(self, code_name, code_252, backends):
        """LLRs near the message cap, which decoding refuses but the
        kernels take, drive messages past it within a few iterations; both
        kernels cap them as the oracle does, with no floating-point
        overflow on the way."""
        code = code_252 if code_name == "campaign" \
            else LDPCCode(_irregular_parity_check())
        rng = np.random.default_rng(17)
        codewords = code.encode_batch(rng.integers(0, 2, size=(12, code.k)))
        llrs = LDPC_MESSAGE_CAP * rng.uniform(0.5, 1.0,
                                              size=codewords.shape) \
            * (1.0 - 2.0 * codewords) \
            * np.where(rng.random(codewords.shape) < 0.1, -1.0, 1.0)
        expected = [_reference_min_sum(code, row) for row in llrs]
        for backend in backends:
            with use_backend(backend), np.errstate(all="raise"):
                got = backend_mod.get_backend().ldpc_min_sum(
                    llrs, code._check_edges, code._check_variables,
                    code._variable_edges, 30, 0.8)
            for index, (codeword, iterations, success) in enumerate(expected):
                np.testing.assert_array_equal(got[0][index], codeword)
                assert (got[1][index], got[2][index]) == (iterations, success)

    def test_threads_match_serial_decode(self, code_252, backends):
        """Eight threads decoding through one code get the serial results:
        the compiled kernel keeps its scratch per call and runs outside
        the GIL, so the threads really overlap."""
        rng = np.random.default_rng(40)
        batches = [_bpsk_llrs(code_252.encode_batch(
                       rng.integers(0, 2, size=(8, code_252.k))), 1.0, rng)
                   for _ in range(16)]
        for backend in backends:
            def decode(llrs, backend=backend):
                with use_backend(backend):
                    return [(result.codeword, result.iterations,
                             result.success)
                            for result in code_252.decode_min_sum_batch(llrs)]

            serial = [decode(llrs) for llrs in batches]
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(decode, batches))
            for serial_batch, threaded_batch in zip(serial, threaded):
                for (codeword, iterations, success), got in zip(
                        serial_batch, threaded_batch):
                    np.testing.assert_array_equal(got[0], codeword)
                    assert got[1:] == (iterations, success)


class TestEdgeList:
    """The code is its Tanner graph's edge list; ``H`` is a view of it."""

    def test_parity_check_round_trips_and_is_read_only(self):
        parity = _irregular_parity_check()
        code = LDPCCode(parity)
        np.testing.assert_array_equal(code.parity_check, parity)
        assert code.num_checks == parity.shape[0]
        with pytest.raises(ValueError):
            code.parity_check[0, 0] = 1

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_totals_add_messages_in_dense_column_order(self, code_252,
                                                       degenerate):
        """Bit-identity with the dense decoder rests on adding each
        variable's messages in ascending check order; magnitudes spread
        over many decades make any other order round differently."""
        code = LDPCCode(_irregular_parity_check()) if degenerate \
            else code_252
        rng = np.random.default_rng(33)
        num_edges = code.parity_check.sum()
        messages = np.zeros((4, num_edges + 1))
        messages[:, :-1] = rng.choice([-1.0, 1.0], size=(4, num_edges)) \
            * 10.0 ** rng.uniform(-8, 8, size=(4, num_edges))
        llrs = rng.normal(size=(4, code.n))
        dense = np.zeros((4, code.num_checks, code.n))
        checks, variables = np.nonzero(code.parity_check)
        dense[:, checks, variables] = messages[:, :-1]
        np.testing.assert_array_equal(
            backend_mod._variable_totals(llrs, messages,
                                         code._variable_edges),
            llrs + dense.sum(axis=1))

    def test_syndromes_match_dense_parity_check(self):
        code = LDPCCode(_irregular_parity_check())
        parity = code.parity_check
        rng = np.random.default_rng(30)
        words = rng.integers(0, 2, size=(12, code.n))
        np.testing.assert_array_equal(
            backend_mod._tanner_syndromes(words, code._check_variables),
            words @ parity.T % 2)

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_single_flip_syndrome_is_its_parity_column(self, code_252,
                                                       degenerate):
        """Min-sum's stopping rule sees every codeword as valid, and a
        codeword with bit ``j`` flipped fails exactly the checks on ``j``."""
        code = LDPCCode(_irregular_parity_check()) if degenerate \
            else code_252
        rng = np.random.default_rng(31)
        codewords = code.encode_batch(rng.integers(0, 2, size=(4, code.k)))
        assert not backend_mod._tanner_syndromes(
            codewords, code._check_variables).any()
        flipped = rng.integers(0, code.n, size=len(codewords))
        words = codewords.copy()
        words[np.arange(len(words)), flipped] ^= 1
        np.testing.assert_array_equal(
            backend_mod._tanner_syndromes(words, code._check_variables),
            code.parity_check[:, flipped].T)


class TestPickledCode:
    """A pickled code is its edge list plus a bit-packed encoder."""

    def test_loaded_code_encodes_checks_and_decodes_identically(self,
                                                                code_252):
        loaded = pickle.loads(pickle.dumps(code_252))
        rng = np.random.default_rng(31)
        messages = rng.integers(0, 2, size=(8, code_252.k))
        codewords = code_252.encode_batch(messages)
        np.testing.assert_array_equal(loaded.encode_batch(messages),
                                      codewords)
        words = rng.integers(0, 2, size=(8, code_252.n))
        np.testing.assert_array_equal(
            backend_mod._tanner_syndromes(words, loaded._check_variables),
            words @ code_252.parity_check.T % 2)
        llrs = _bpsk_llrs(codewords, 0.9, rng)
        for original, restored in zip(code_252.decode_min_sum_batch(llrs),
                                      loaded.decode_min_sum_batch(llrs)):
            np.testing.assert_array_equal(restored.codeword,
                                          original.codeword)
            assert restored.iterations == original.iterations
            assert restored.success == original.success
        np.testing.assert_array_equal(loaded.parity_check,
                                      code_252.parity_check)
        assert (loaded.n, loaded.k, loaded.rank) == \
            (code_252.n, code_252.k, code_252.rank)

    def test_degenerate_code_survives_pickling(self):
        code = LDPCCode(_irregular_parity_check())
        loaded = pickle.loads(pickle.dumps(code))
        np.testing.assert_array_equal(loaded.parity_check, code.parity_check)
        messages = np.random.default_rng(32).integers(0, 2, size=(2, code.k))
        np.testing.assert_array_equal(loaded.encode_batch(messages),
                                      code.encode_batch(messages))

    def test_wire_form_stays_small_after_every_public_method(self, code_252):
        code = pickle.loads(pickle.dumps(code_252))
        codeword = code.encode_batch(np.ones((1, code.k), dtype=int))
        assert code.parity_check.shape == (126, 252)
        code.decode_min_sum_batch(2.0 - 4.0 * codeword)
        assert len(pickle.dumps(code)) <= 16_000

    def test_unpickling_does_not_redo_the_elimination(self, code_252,
                                                      monkeypatch):
        from repro.ecc import ldpc

        payload = pickle.dumps(code_252)

        def refuse(parity):
            raise AssertionError("Gaussian elimination ran on unpickling")

        monkeypatch.setattr(ldpc, "_systematic_form", refuse)
        loaded = pickle.loads(payload)
        assert loaded.k == code_252.k


class TestBatchOperations:
    """The batch encode/decode paths: exact products, and each row's
    result independent of the others."""

    @pytest.mark.parametrize("code_name", ["regular", "degenerate"])
    def test_float_parity_product_equals_the_integer_one(self, code,
                                                         code_name):
        """The encoder multiplies 0/1 operands in float64; every sum is at
        most k, so its parity bits are the integer product's, all-ones
        messages (the largest sums) included."""
        if code_name == "degenerate":
            code = LDPCCode(_irregular_parity_check())
        rng = np.random.default_rng(20)
        messages = np.concatenate([rng.integers(0, 2, size=(9, code.k)),
                                   np.ones((1, code.k), dtype=np.int64)])
        generator = code._parity_generator.astype(np.int64)
        codewords = code.encode_batch(messages)
        assert codewords.dtype == np.int64
        np.testing.assert_array_equal(codewords[:, code._parity_positions],
                                      messages @ generator % 2)
        np.testing.assert_array_equal(codewords[:, code._message_positions],
                                      messages)

    def test_encode_batch_validation(self, code):
        with pytest.raises(ValueError):
            code.encode_batch(np.zeros((2, code.k + 1), dtype=int))
        with pytest.raises(ValueError):
            code.encode_batch(np.zeros(code.k, dtype=int))

    def test_decode_batch_matches_one_row_batches(self, code, cjit_backend):
        """Across noise levels spanning clean to failing decodes, a row
        decoded in a batch (sharing SIMD lanes under cjit) gets the
        result it gets alone."""
        rng = np.random.default_rng(22)
        for noise_sigma in (0.3, 0.7, 1.1):
            messages = rng.integers(0, 2, size=(6, code.k))
            codewords = code.encode_batch(messages)
            llrs = _bpsk_llrs(codewords, noise_sigma, rng)
            for backend in ("numpy", cjit_backend):
                with use_backend(backend):
                    batch = code.decode_min_sum_batch(llrs,
                                                      max_iterations=15)
                    for index in range(len(codewords)):
                        [alone] = code.decode_min_sum_batch(
                            llrs[index:index + 1], max_iterations=15)
                        assert batch[index].success == alone.success
                        assert batch[index].iterations == alone.iterations
                        np.testing.assert_array_equal(batch[index].codeword,
                                                      alone.codeword)
                        np.testing.assert_array_equal(batch[index].message,
                                                      alone.message)

    def test_decode_batch_validation(self, code):
        with pytest.raises(ValueError):
            code.decode_min_sum_batch(np.zeros(code.n))
        with pytest.raises(ValueError):
            code.decode_min_sum_batch(np.zeros((2, code.n)), scale=0.0)


class _OracleLDPCCode(LDPCCode):
    """Decodes row by row through the per-check oracle."""

    def decode_min_sum_batch(self, llrs_batch, max_iterations=30,
                             scale=0.8):
        results = []
        for llrs in llrs_batch:
            codeword, iterations, success = _reference_min_sum(
                self, llrs, max_iterations=max_iterations, scale=scale)
            results.append(LDPCDecodingResult(
                codeword=codeword,
                message=codeword[self._message_positions],
                iterations=iterations, success=success))
        return results


def test_campaign_frame_records_match_the_oracle():
    """A seeded LDPC campaign at 100k P/E over the 16x16 simulator (FER
    about 0.4; each failing frame runs all 30 iterations).  The n = 96
    code keeps the per-check oracle within the tier-1 budget."""
    parity = gallager_parity_check_matrix(96, 3, 6,
                                          rng=np.random.default_rng(1))
    records = []
    for code in (LDPCCode(parity), _OracleLDPCCode(parity)):
        channel = build_channel("simulator", geometry=BlockGeometry(16, 16),
                                rng=np.random.default_rng(0))
        result = evaluate_ldpc_over_channel(code, channel, 100_000,
                                            num_codewords=128, seed=9)
        records.append(result.frame_records)
    assert 0 < records[0][:, 1].mean() < 1
    np.testing.assert_array_equal(records[0], records[1])

