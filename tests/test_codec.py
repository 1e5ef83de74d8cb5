import bisect
import dataclasses
import itertools
import math
import pickle
import random
import re
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import gwrdp
from gwrdp.codec import (
    PAGE_ROWS,
    _SCRATCH,
    AlphabetError,
    Codebook,
    EmptyTypicalSetError,
    PagedLayer,
    ResourceCapError,
    TypeTable,
    _blocks,
    _cached_bounds,
    _first_jointly_typical,
    _first_under_threshold,
    _page_of,
    _page_span,
    _SymbolBudget,
    _type_table,
    circular_shift,
    compute_code_sizes,
    count_bounds,
    decode,
    encode,
    encode_batch,
    generate_codebook,
    joint_set_empty,
    sample_uniform_cond_typical,
)
from gwrdp.prob import JointPmf, Kernel
from gwrdp.solver import hamming
from oracles import (
    TypicalSetSpec,
    encode_loop,
    first_under_threshold_loop,
    is_cond_typical,
    is_jointly_typical,
    is_typical,
    per_letter_distortion,
    rejection_sample_typical,
    sample_uniform_cond_typical_uncached,
    sample_uniform_typical,
    shift_position,
)

HAM = hamming(2)


def with_rule(cb, threshold, dx=HAM, dy=HAM):
    """``cb`` encoding under the distortion matrices dx and dy, with
    ``threshold`` on both branches."""
    return dataclasses.replace(cb, distortions=(dx, dy), thresholds=(threshold, threshold))


class TestShift:
    def test_position_map_examples(self):
        assert shift_position(5, 0, 3) == 3
        assert shift_position(5, 2, 4) == 1
        assert shift_position(4, 3, 2) == 1

    def test_position_map_range_checks(self):
        with pytest.raises(ValueError):
            shift_position(5, 5, 1)
        with pytest.raises(ValueError):
            shift_position(5, 0, 0)

    def test_identity_at_zero(self):
        seq = np.arange(7)
        assert np.array_equal(circular_shift(0, seq), seq)

    def test_direct_example(self):
        out = circular_shift(1, np.array([10, 20, 30, 40]))
        assert out.tolist() == [20, 30, 40, 10]

    def test_inverse_pair(self):
        rng = np.random.default_rng(0)
        seq = rng.integers(0, 3, size=11)
        for k in range(11):
            assert np.array_equal(circular_shift(k, circular_shift(-k, seq)), seq)

    def test_output_positions_follow_map(self):
        seq = np.arange(6)
        for k in range(6):
            out = circular_shift(k, seq)
            for t in range(1, 7):
                assert out[t - 1] == seq[shift_position(6, k, t) - 1]

    def test_pair_shift_and_length_check(self):
        x = np.arange(5)
        with pytest.raises(ValueError):
            circular_shift(1, x, np.arange(4))
        ox, oy = circular_shift(2, x, x + 10)
        assert np.array_equal(oy - ox, np.full(5, 10))

    @pytest.mark.parametrize("k,shape", [([1, 2], (5,)), (1, (2, 5)), ([0, 1, 2], (2, 5))],
                             ids=["1d-with-seeds", "batch-with-scalar", "batch-with-3-seeds"])
    def test_seed_shape_must_fit_sequences(self, k, shape):
        with pytest.raises(ValueError, match=r"1-D sequence takes one scalar k, a \(rows, n\) "
                                             r"batch one k per row"):
            circular_shift(k, np.zeros(shape, dtype=int))


class TestTypicality:
    def test_balanced_binary(self):
        spec = TypicalSetSpec(np.array([0.5, 0.5]), 0.2, 10)
        assert is_typical(np.array([0, 1] * 5), spec)

    def test_skewed_binary_rejected(self):
        spec = TypicalSetSpec(np.array([0.5, 0.5]), 0.2, 10)
        assert not is_typical(np.array([1] * 8 + [0] * 2), spec)

    def test_zero_probability_symbol_forbidden(self):
        spec = TypicalSetSpec(np.array([0.5, 0.5, 0.0]), 0.5, 10)
        seq = np.array([0, 1] * 5)
        assert is_typical(seq, spec)
        seq2 = seq.copy()
        seq2[0] = 2
        assert not is_typical(seq2, spec)

    def test_cond_typicality_is_joint_band(self):
        jq = np.array([[0.4, 0.1], [0.1, 0.4]])
        cond = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        seq = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 0])
        assert is_cond_typical(seq, cond, jq, 0.25)
        assert not is_cond_typical(np.ones(10, dtype=int), cond, jq, 0.25)

    def test_joint_triple(self):
        q = np.full((2, 2, 1), 0.25)
        x = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        y = np.array([0, 1, 0, 1, 0, 1, 1, 0])
        w = np.zeros(8, dtype=int)
        assert is_jointly_typical(x, y, w, q, 0.2)
        assert not is_jointly_typical(x, np.zeros(8, dtype=int), w, q, 0.2)

    def test_count_bounds_agree_with_predicate(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            q = rng.dirichlet(np.ones(3))
            n = int(rng.integers(4, 40))
            delta = float(rng.uniform(0.05, 0.6))
            lo, hi = count_bounds(q, n, delta)
            for i, qi in enumerate(q):
                for c in range(0, n + 1):
                    inside = lo[i] <= c <= hi[i]
                    assert inside == (abs(c / n - qi) <= delta * qi)


class TestUniformSampler:
    def test_support_and_uniformity_tiny(self):
        # band so narrow only balanced length-4 sequences qualify: 6 of them
        spec = TypicalSetSpec(np.array([0.5, 0.5]), 1e-9, 4)
        draws = sample_uniform_typical(spec, 60_000, 0)
        vals, counts = np.unique(draws, axis=0, return_counts=True)
        assert len(vals) == 6
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_every_draw_is_typical(self):
        spec = TypicalSetSpec(np.array([0.3, 0.45, 0.25]), 0.3, 24)
        draws = sample_uniform_typical(spec, 300, 1)
        assert all(is_typical(s, spec) for s in draws)

    def test_chi_square_against_enumeration_binary(self):
        for n, delta in ((8, 0.3), (10, 0.2), (12, 0.25)):
            spec = TypicalSetSpec(np.array([0.5, 0.5]), delta, n)
            members = [np.array(s) for s in itertools.product((0, 1), repeat=n)
                       if is_typical(np.array(s), spec)]
            index = {tuple(m.tolist()): i for i, m in enumerate(members)}
            draws = sample_uniform_typical(spec, 40_000, 2)
            counts = np.zeros(len(members))
            for d in draws:
                counts[index[tuple(int(v) for v in d)]] += 1
            _, p_value = stats.chisquare(counts)
            assert p_value > 0.01, f"n={n} delta={delta}: p={p_value}"

    def test_empty_set_reports_offending_cell(self):
        spec = TypicalSetSpec(np.array([0.05, 0.95]), 0.15, 8)
        with pytest.raises(EmptyTypicalSetError) as err:
            sample_uniform_typical(spec, 1, 0)
        assert "cell" in str(err.value)

    def test_conditional_draws_are_cond_typical(self):
        jq = np.array([[0.35, 0.15], [0.15, 0.35]])
        cond = np.array([0, 1] * 8)
        draws = sample_uniform_cond_typical(jq, 0.3, cond, 200, 3)
        assert all(is_cond_typical(d, cond, jq, 0.3) for d in draws)

    def test_conditional_uniformity_small(self):
        jq = np.array([[0.5, 0.25], [0.0, 0.25]])  # symbol 1 impossible when cond=0
        cond = np.array([0, 0, 1, 1])
        draws = sample_uniform_cond_typical(jq, 1.0, cond, 40_000, 4)
        assert np.all(draws[:, :2] == 0)
        vals, counts = np.unique(draws[:, 2:], axis=0, return_counts=True)
        # enumerate reachable tails by predicate
        members = [s for s in itertools.product((0, 1), repeat=2)
                   if is_cond_typical(np.array([0, 0, *s]), cond, jq, 1.0)]
        assert len(vals) == len(members)
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_rejection_sampler_matches_support(self):
        spec = TypicalSetSpec(np.array([0.5, 0.5]), 0.25, 8)
        exact = sample_uniform_typical(spec, 4_000, 5)
        rej = rejection_sample_typical(spec, 4_000, 6)
        assert all(is_typical(s, spec) for s in rej)
        # same support, statistically indistinguishable type frequencies
        t_exact = np.sort(exact.sum(axis=1))
        t_rej = np.sort(rej.sum(axis=1))
        lo, hi = t_exact.min(), t_exact.max()
        assert t_rej.min() >= lo and t_rej.max() <= hi


class TestCodeSizes:
    def test_hand_example_identity_channel(self):
        # uniform binary X copied to Xtilde, W constant, n=10, delta=0.1:
        # I(X;Xt|W)=1, H(Xt|W)=1 so the exponent is 10*(1 + 2*0.1*2) = 14
        q_xyw = JointPmf(np.full((2, 2, 1), 0.25), ("X", "Y", "W"))
        tc = Kernel(np.eye(2).reshape(2, 1, 2))
        sizes = compute_code_sizes(q_xyw, tc, tc, 10, 0.1)
        assert sizes.m1 == 2 ** 14
        assert sizes.slack_x == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("n, delta, exponent", [(10203, 0.1, "14284.2"),
                                                    (10, 1e20, "4e+21"), (10, 1e308, "inf")])
    def test_sizes_past_what_a_report_writes_refused_from_the_exponent(self, n, delta,
                                                                      exponent):
        # the example above at exponent n * (1 + 4 delta): exact integers
        # past int64 at n = 64 (89.6), and up to 4,300 digits at n = 10202
        q_xyw = JointPmf(np.full((2, 2, 1), 0.25), ("X", "Y", "W"))
        tc = Kernel(np.eye(2).reshape(2, 1, 2))
        assert 2 ** 89 < compute_code_sizes(q_xyw, tc, tc, 64, 0.1).m1 < 2 ** 90
        assert len(str(compute_code_sizes(q_xyw, tc, tc, 10202, 0.1).m1)) == 4300
        with pytest.raises(ResourceCapError, match=f"a code of 2\\*\\*{re.escape(exponent)} "):
            compute_code_sizes(q_xyw, tc, tc, n, delta)

    def test_copy_common_layer(self):
        # W = (X,Y) on four uniform atoms: I(X,Y;W) = 2, H(W|XY) = 0
        probs = np.zeros((2, 2, 4))
        for x in range(2):
            for y in range(2):
                probs[x, y, 2 * x + y] = 0.25
        q_xyw = JointPmf(probs, ("X", "Y", "W"))
        tc = Kernel(np.broadcast_to(np.eye(2)[:, None, :], (2, 4, 2)).copy())
        sizes = compute_code_sizes(q_xyw, tc, tc, 8, 0.1)
        want = math.floor(2 ** (8 * (2.0 + 2 * 0.1 * (2.0 + 0.0))))
        assert sizes.m0 == want
        assert sizes.recompute() == (sizes.m0, sizes.m1, sizes.m2)

    def test_independent_w_common_layer_is_one(self):
        q_xyw = JointPmf(np.full((2, 2, 1), 0.25), ("X", "Y", "W"))
        tc = Kernel(np.full((2, 1, 2), 0.5))
        sizes = compute_code_sizes(q_xyw, tc, tc, 50, 1e-9)
        assert sizes.m0 == 1

    def test_recompute_identity_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            q_xyw = JointPmf(rng.dirichlet(np.ones(8)).reshape(2, 2, 2), ("X", "Y", "W"))
            tc_x = Kernel(rng.dirichlet(np.ones(2), size=(2, 2)))
            tc_y = Kernel(rng.dirichlet(np.ones(2), size=(2, 2)))
            sizes = compute_code_sizes(q_xyw, tc_x, tc_y, int(rng.integers(4, 20)), 0.2)
            assert sizes.recompute() == (sizes.m0, sizes.m1, sizes.m2)


def small_codebook(seed=11, n=12, delta=0.25):
    p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
    q_xyw = p_xy.extend(Kernel(np.ones((2, 2, 1))), "W")
    tc = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
    sizes = compute_code_sizes(q_xyw, tc, tc, n, delta)
    return generate_codebook(q_xyw, tc, tc, (HAM, HAM), sizes, delta, n, seed), q_xyw, tc


class TestCodebook:
    def test_deterministic_generation(self):
        a, _, _ = small_codebook()
        b, _, _ = small_codebook()
        assert np.array_equal(a.common, b.common)
        assert np.array_equal(a.priv_x, b.priv_x)
        assert np.array_equal(a.priv_y, b.priv_y)

    def test_all_codewords_typical(self):
        cb, q_xyw, _ = small_codebook()
        q_w = np.asarray(q_xyw.probs).sum(axis=(0, 1))
        w_spec = TypicalSetSpec(q_w, cb.delta, cb.n)
        assert all(is_typical(w, w_spec) for w in cb.common[0])
        for i in range(cb.common.shape[1]):
            assert all(is_cond_typical(c, cb.common[0, i], cb.priv_x.joint, cb.delta)
                       for c in cb.priv_x[i])
            assert all(is_cond_typical(c, cb.common[0, i], cb.priv_y.joint, cb.delta)
                       for c in cb.priv_y[i])

    def test_single_codeword_chain(self):
        p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
        q_xyw = p_xy.extend(Kernel(np.ones((2, 2, 1))), "W")
        tc = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
        sizes = compute_code_sizes(q_xyw, tc, tc, 8, 0.3)
        forced = dataclasses.replace(sizes, m0=1, m1=1, m2=1)
        cb = generate_codebook(q_xyw, tc, tc, (HAM, HAM), forced, 0.3, 8, seed=1)
        assert cb.sizes == (1, 1, 1)
        assert is_cond_typical(cb.priv_x[0, 0], cb.common[0, 0], cb.priv_x.joint, 0.3)

    @pytest.mark.parametrize("oversized", ["W", "reconstruction"])
    def test_alphabet_over_256_symbols_rejected(self, oversized):
        # codeword symbols are stored as uint8; a 257th symbol would wrap to 0
        _, q_xyw, tc = small_codebook(n=8, delta=0.3)
        sizes = compute_code_sizes(q_xyw, tc, tc, 8, 0.3)
        if oversized == "W":
            q_xyw = q_xyw.marginal("X", "Y").extend(Kernel(np.full((2, 2, 257), 1 / 257)), "W")
            tc = Kernel(np.tile(tc.probs, (1, 257, 1)))
            tc_x = tc_y = tc
        else:
            tc_x, tc_y = tc, Kernel(np.full((2, 1, 257), 1 / 257))
        with pytest.raises(AlphabetError, match="257 symbols"):
            generate_codebook(q_xyw, tc_x, tc_y, (HAM, HAM), sizes, 0.3, 8, seed=1)


class TestEncodeDecode:
    def test_self_encoding_succeeds(self):
        cb, _, _ = small_codebook()
        rng = np.random.default_rng(0)
        # use an actual codeword pair as the source so a perfect match exists
        xs = cb.priv_x[0, 3].astype(np.int64)
        ys = cb.priv_y[0, 5].astype(np.int64)
        enc = encode(with_rule(cb, 0.5), xs, ys, 0)
        assert not enc.miss_x and not enc.miss_y
        assert per_letter_distortion(HAM, xs, cb.priv_x[enc.s0, enc.s1]) <= 0.5

    def test_forced_fallback_flags(self):
        p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
        q_xyw = p_xy.extend(Kernel(np.ones((2, 2, 1))), "W")
        tc = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
        sizes = compute_code_sizes(q_xyw, tc, tc, 8, 0.3)
        forced = dataclasses.replace(sizes, m0=1, m1=1, m2=1)
        cb = generate_codebook(q_xyw, tc, tc, (HAM, HAM), forced, 0.3, 8, seed=1)
        xs = 1 - cb.priv_x[0, 0].astype(np.int64)  # worst-case source
        enc = encode(with_rule(cb, 0.1), xs, xs, 0)
        assert enc.s1 == 0 and enc.s2 == 0
        assert enc.miss_x and enc.miss_y

    def test_encoder_depends_only_on_unshifted_pair(self):
        cb = with_rule(small_codebook()[0], 0.4)
        rng = np.random.default_rng(1)
        xs = rng.integers(0, 2, cb.n)
        ys = rng.integers(0, 2, cb.n)
        for k in range(cb.n):
            xk, yk = circular_shift(k, xs, ys)  # pre-shift so unshift matches
            a = encode(cb, xk, yk, k)
            b = encode(cb, xs, ys, 0)
            assert (a.s0, a.s1, a.s2) == (b.s0, b.s1, b.s2)

    def test_decode_shifts_codewords(self):
        cb, _, _ = small_codebook()
        for k in (0, 3, 7):
            xh, yh = decode(cb, 0, 2, 4, k)
            assert np.array_equal(xh, circular_shift(k, cb.priv_x[0, 2]))
            assert np.array_equal(yh, circular_shift(k, cb.priv_y[0, 4]))
        x0, _ = decode(cb, 0, 2, 4, 0)
        assert np.array_equal(x0, cb.priv_x[0, 2])

    def test_decode_range_errors(self):
        cb, _, _ = small_codebook()
        with pytest.raises(IndexError):
            decode(cb, 0, cb.sizes[1], 0, 0)
        with pytest.raises(IndexError, match=f"\\(0, {cb.sizes[1]}, 0\\)"):
            decode(cb, [0, 0], [1, cb.sizes[1]], [0, 0], [0, 0])

    def test_decode_rejects_blocks_without_one_seed_each(self):
        # a scalar seed with two blocks once dropped the second block, and
        # a one-seed list shifted both blocks by it
        cb, _, _ = small_codebook()
        for k in (0, [0]):
            with pytest.raises(ValueError, match="all scalars or all sequences of one length"):
                decode(cb, [0, 0], [1, 2], [3, 4], k)

    def test_roundtrip_meets_threshold(self):
        cb = with_rule(small_codebook()[0], 0.6)
        rng = np.random.default_rng(2)
        for k in (0, 5, 11):
            xs = rng.integers(0, 2, cb.n)
            ys = rng.integers(0, 2, cb.n)
            enc = encode(cb, xs, ys, k)
            if enc.miss_x or enc.miss_y:
                continue
            xh, yh = decode(cb, enc.s0, enc.s1, enc.s2, k)
            assert per_letter_distortion(HAM, xs, xh) <= 0.6
            assert per_letter_distortion(HAM, ys, yh) <= 0.6


class TestInvariantSweeps:
    """Exact invariants on randomized cases."""

    N_CASES = 10_000

    def test_shift_preserves_types_and_distortion(self):
        rng = np.random.default_rng(3)
        n = 16
        a = rng.integers(0, 2, size=(self.N_CASES, n))
        b = rng.integers(0, 2, size=(self.N_CASES, n))
        ks = rng.integers(0, n, size=self.N_CASES)
        base_dist = (a != b).mean(axis=1)
        cols = np.arange(n)
        shifted_idx = (cols[None, :] + ks[:, None]) % n
        a_s = np.take_along_axis(a, shifted_idx, axis=1)
        b_s = np.take_along_axis(b, shifted_idx, axis=1)
        # distortion is exactly invariant under the paired shift
        np.testing.assert_array_equal((a_s != b_s).mean(axis=1), base_dist)
        # types are exactly invariant
        np.testing.assert_array_equal(a_s.sum(axis=1), a.sum(axis=1))

    def test_negative_shift_is_taken_mod_n(self):
        seq = np.arange(5)
        assert np.array_equal(circular_shift(-1, seq), circular_shift(4, seq))
        assert np.array_equal(circular_shift([-1, 2], np.stack([seq, seq])),
                              np.stack([circular_shift(4, seq), circular_shift(2, seq)]))

    def test_empirical_type_matches_library_shift(self):
        rng = np.random.default_rng(4)
        seq = rng.integers(0, 3, size=30)
        base = np.bincount(seq, minlength=3)
        for k in range(30):
            assert np.array_equal(np.bincount(circular_shift(k, seq), minlength=3), base)


SCAN_ROWS = 6000   # rows of a planted layer: past the first full page
PAGE_5 = 5456      # first codeword of page 5, the first page after a full one


def _boundary_hits(width: int, inside=()) -> list:
    """First hits on either side of every block boundary of a scan over
    SCAN_ROWS codewords of ``width`` one-hot elements each, and of each row
    in ``inside``, at both ends, and a miss (None)."""
    stops = [stop for _, stop in _blocks(SCAN_ROWS, width)][:-1] + list(inside)
    return sorted({0, SCAN_ROWS - 1} | {s + d for s in stops for d in (-1, 0, 1)}) + [None]


class TestScanEquivalence:
    """The block scans return what one-codeword-at-a-time loops return,
    with the first hit on either side of every block boundary."""

    M = SCAN_ROWS
    # n = 16 over binary reconstructions and |W| = 2, and hits inside
    # blocks as well
    HITS = _boundary_hits(16 * 2, inside=(64, 320, 1344, 3392, 4096))

    @pytest.mark.parametrize("hit", HITS)
    def test_private_scan_first_hit(self, hit):
        n = 16
        rng = np.random.default_rng(7)
        codewords = rng.integers(0, 2, size=(self.M, n)).astype(np.uint8)
        codewords[:, :4] = 1            # distortion >= 4/16 against all zeros
        if hit is not None:
            for i in (hit, hit + 1, self.M - 1):   # later hits must not win
                if i < self.M:
                    codewords[i] = 0
                    codewords[i, 5] = 1             # distortion 1/16
        ref = np.zeros(n, dtype=np.int64)
        want = first_under_threshold_loop(codewords, ref, HAM, 0.2)
        assert want == (-1 if hit is None else hit)
        assert _first_under_threshold(codewords[None], 0, ref[None], HAM, 0.2).tolist() == [want]

    @pytest.mark.parametrize("planted", [20, 100, 1500])
    def test_private_scan_ties_under_a_non_dyadic_distortion(self, planted):
        # every codeword from `planted` on rearranges one reconstruction
        # among the positions where the reference holds the same symbol, so
        # their distortions are equal in exact arithmetic and differ only in
        # summation order; the threshold sits at, just under and just over
        # the planted codeword's mean
        n = 48
        delta_mat = np.array([[0.1, 1 / 3, 0.7], [0.7, 0.1, 1 / 3]])
        rng = np.random.default_rng(planted)
        ref = rng.integers(0, 2, size=n)
        codewords = np.tile(np.where(ref == 0, 2, 0), (2000, 1)).astype(np.uint8)   # all 0.7
        base = rng.integers(0, 3, size=n)
        for row in codewords[planted:]:
            for sym in (0, 1):
                at = np.flatnonzero(ref == sym)
                row[at] = rng.permutation(base[at])
        mean = delta_mat[ref, codewords[planted]].mean()
        for threshold in (mean, np.nextafter(mean, -np.inf), np.nextafter(mean, np.inf)):
            want = first_under_threshold_loop(codewords, ref, delta_mat, threshold)
            got = _first_under_threshold(codewords[None], 0, ref[None], delta_mat, threshold)
            assert got.tolist() == [want]

    def test_block_schedules(self):
        # an all-miss batch reads each block once, in the lone scan's sizes:
        # the pages, cut for long codewords at the scratch cap
        class Recorder:
            def __init__(self, rows):
                self.rows, self.shape, self.spans = rows, rows.shape, []

            def __getitem__(self, key):
                span = key[-1] if isinstance(key, tuple) else key
                self.spans.append((span.start, span.stop))
                return self.rows[key]

        private = Recorder(np.ones((2, self.M, 4), dtype=np.uint8))
        refs = np.zeros((3, 4), dtype=np.int64)
        assert _first_under_threshold(private, 1, refs, HAM, 0.5).tolist() == [-1] * 3
        pages = [(0, 16), (16, 80), (80, 336), (336, 1360), (1360, PAGE_5), (PAGE_5, self.M)]
        assert private.spans == pages
        common = Recorder(np.zeros((1, self.M, 4), dtype=np.uint8))
        never = np.ones(2, dtype=np.int64), np.zeros(2, dtype=np.int64)   # lo > hi
        assert _first_jointly_typical(common, refs, *never).tolist() == [-1] * 3
        assert common.spans == pages
        # 64 positions over 2 symbols: 65536 // 128 = 512 rows at most
        wide = Recorder(np.ones((1, self.M, 64), dtype=np.uint8))
        assert _first_under_threshold(wide, 0, np.zeros((3, 64), dtype=np.int64), HAM,
                                      0.5).tolist() == [-1] * 3
        assert wide.spans == [(0, 16), (16, 80), (80, 336), (336, 848), (848, 1360),
                              *((a, a + 512) for a in range(1360, PAGE_5, 512)),
                              (PAGE_5, PAGE_5 + 512), (PAGE_5 + 512, self.M)]

    def _planted_codebook(self, hit):
        # uniform pair, W uniform and independent, n = 16, delta = 0.5: each
        # (x, y, w) count must lie in [1, 3]. The source takes every pair
        # value 4 times, so a common codeword is typical exactly when it
        # puts both symbols on each pair value's 4 positions.
        n, m = 16, self.M
        q_xyw = np.full((2, 2, 2), 1 / 8)
        rng = np.random.default_rng(8)
        common = rng.integers(0, 2, size=(m, n)).astype(np.uint8)
        common[:, :4] = 0               # pair value (0, 0) gets w = 0 only
        if hit is not None:
            common[hit:] = np.where(rng.random((m - hit, 1)) < 0.1,
                                    np.tile([0, 1], n // 2), common[hit:])
            common[hit] = np.tile([0, 1], n // 2)
        priv = rng.integers(0, 2, size=(m, 3, n)).astype(np.uint8)
        cb = Codebook(common=common[None], priv_x=priv, priv_y=priv[:, ::-1],
                      q_xyw=q_xyw, distortions=(HAM, HAM), thresholds=(0.4, 0.4),
                      n=n, delta=0.5)
        xs = np.repeat([0, 0, 1, 1], 4)
        ys = np.repeat([0, 1, 0, 1], 4)
        return cb, xs, ys

    @pytest.mark.parametrize("hit", HITS)
    def test_common_scan_first_hit(self, hit):
        cb, xs, ys = self._planted_codebook(hit)
        assert not joint_set_empty(cb.q_xyw, cb.n, cb.delta)
        for k in (0, 5):
            xk, yk = circular_shift(k, xs, ys)   # encode undoes the shift
            got = encode(cb, xk, yk, k)
            want = encode_loop(cb, xk, yk, k)
            assert dataclasses.astuple(got) == want
        enc = encode(cb, xs, ys, 0)
        assert enc.miss_common == (hit is None)
        assert enc.s0 == (0 if hit is None else hit)

    @pytest.mark.parametrize("delta, seed", [(0.05, 3), (0.1, 4)])
    def test_encode_matches_loop_on_generated_codebooks(self, delta, seed):
        # uniform pair, n = 16, sizes (23, 9, 9) and (195, 84, 84); half the
        # sources are drawn given a common codeword, so the common scan hits
        # at many indices as well as missing
        n = 16
        p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
        aux = np.array([[0.75, 0.25], [0.5, 0.5], [0.5, 0.5], [0.25, 0.75]])
        q_xyw = p_xy.extend(Kernel(aux.reshape(2, 2, 2)), "W")
        tc = Kernel(np.full((2, 2, 2), 0.5))
        sizes = compute_code_sizes(q_xyw, tc, tc, n, delta)
        cb = with_rule(generate_codebook(q_xyw, tc, tc, (HAM, HAM), sizes, delta, n, seed), 0.3)
        assert not joint_set_empty(cb.q_xyw, n, delta)
        q_pair_given_w = (cb.q_xyw / cb.q_xyw.sum(axis=(0, 1))).reshape(4, 2)
        rng = np.random.default_rng(seed)
        hits0, miss_x = set(), set()
        for trial in range(400):
            if trial % 2:
                w = cb.common[0, rng.integers(0, cb.common.shape[1])]
                pair = np.array([rng.choice(4, p=q_pair_given_w[:, s]) for s in w])
            else:
                pair = rng.integers(0, 4, size=n)
            k = int(rng.integers(0, n))
            xs, ys = circular_shift(k, pair // 2, pair % 2)
            got = encode(cb, xs, ys, k)
            want = encode_loop(cb, xs, ys, k)
            assert dataclasses.astuple(got) == want
            hits0.add(-1 if got.miss_common else got.s0)
            miss_x.add(got.miss_x)
        assert -1 in hits0 and len(hits0) > 3 and miss_x == {False, True}

    def test_empty_joint_band_skips_the_scan(self, monkeypatch):
        # DSBS(0.1) with independent W at n = 16, delta = 0.15: the 0.05
        # cells need a count in [0.68, 0.92]
        q_xyw = np.array([[0.45, 0.05], [0.05, 0.45]])[:, :, None]
        assert joint_set_empty(q_xyw, 16, 0.15)
        assert not joint_set_empty(q_xyw, 40, 0.15)
        # every cell admits a count, but the counts cannot sum to n: at
        # n = 4 each cell allows only 1, at n = 5 only 2
        for q, n in (([0.35, 0.325, 0.325], 4), ([0.32, 0.34, 0.34], 5)):
            q = np.array(q).reshape(1, 3, 1)
            lo, hi = count_bounds(q, n, 0.3)
            assert np.all(lo <= hi)
            assert joint_set_empty(q, n, 0.3)
            assert not any(is_jointly_typical(np.zeros(n, dtype=int), seq, np.zeros(n, dtype=int),
                                              q, 0.3)
                           for seq in itertools.product(range(3), repeat=n))
        cb, xs, ys = self._planted_codebook(0)
        q = np.array([[0.45, 0.05], [0.05, 0.45]])[:, :, None] * np.array([0.5, 0.5])
        empty_cb = Codebook(common=cb.common, priv_x=cb.priv_x, priv_y=cb.priv_y,
                            q_xyw=q, distortions=cb.distortions, thresholds=cb.thresholds,
                            n=cb.n, delta=0.15)
        assert joint_set_empty(q, 16, 0.15)

        def no_scan(*args):
            raise AssertionError("common layer scanned for an empty band")

        monkeypatch.setattr("gwrdp.codec._first_jointly_typical", no_scan)
        enc = encode(empty_cb, xs, ys, 0)
        assert dataclasses.astuple(enc) == encode_loop(empty_cb, xs, ys, 0)
        assert enc.miss_common and enc.s0 == 0
        ks = [0, 3, 9]
        xk, yk = circular_shift(ks, np.stack([xs] * 3), np.stack([ys, 1 - ys, ys]))
        s0, s1, s2, miss = encode_batch(empty_cb, xk, yk, ks)
        assert list(zip(s0.tolist(), s1.tolist(), s2.tolist(), *miss.tolist())) == [
            encode_loop(empty_cb, x, y, k) for x, y, k in zip(xk, yk, ks)]
        assert miss[0].all() and not s0.any()


def _balanced_pairs(rng, count):
    """Rows of 32 positions holding each (x, y) pair value 8 times."""
    pair = np.stack([rng.permutation(np.repeat(np.arange(4), 8)) for _ in range(count)])
    return pair // 2, pair % 2


def _x_keyed_codebook(common, priv_x, priv_y, threshold):
    """W = X at n = 32, delta = 0.5: a common codeword is jointly typical
    with a balanced source pair exactly when it equals the unshifted x
    sequence (the cells with w != x have q = 0). Hamming distortion, with
    ``threshold`` on both branches."""
    q_xyw = np.zeros((2, 2, 2))
    q_xyw[0, :, 0] = q_xyw[1, :, 1] = 0.25
    return Codebook(common=common[None], priv_x=priv_x, priv_y=priv_y, q_xyw=q_xyw,
                    distortions=(HAM, HAM), thresholds=(threshold, threshold),
                    n=32, delta=0.5)


def _plant(rows, hits, seqs):
    """Copy seqs[i] into row hits[i] (None plants nothing) and into one
    later row no hit uses, so only the first copy may win."""
    free = [j for j in range(rows.shape[0] - 1, -1, -1) if j not in set(hits)]
    for hit, seq in zip(hits, seqs):
        if hit is not None:
            rows[hit] = seq
            later = free.pop(0)
            if later > hit:
                rows[later] = seq


def _batch_vs_loop(cb, xs, ys, ks, thr):
    """encode_batch and the per-trial loop oracle, as lists of tuples, with
    Hamming distortion and ``thr`` on both branches."""
    cb = with_rule(cb, thr)
    s0, s1, s2, miss = encode_batch(cb, xs, ys, ks)
    got = list(zip(s0.tolist(), s1.tolist(), s2.tolist(), *miss.tolist()))
    want = [encode_loop(cb, x, y, k) for x, y, k in zip(xs, ys, ks)]
    return got, want


class TestBatchEncode:
    """One batch of trials gets, trial by trial, what the one-codeword-at-a-
    time loop gives a lone encoding: first hits on either side of every
    block boundary and misses in the same batch, several common indices,
    and any scratch bound."""

    M = SCAN_ROWS
    # n = 32 over binary reconstructions and |W| = 2
    HITS = _boundary_hits(32 * 2)
    SCRATCH = [None, 1, 3000]

    @staticmethod
    def _shifted(rng, xs, ys):
        ks = rng.integers(0, 32, size=len(xs))
        return (*circular_shift(ks, np.asarray(xs), np.asarray(ys)), ks)

    @pytest.fixture(scope="class")
    def common_case(self):
        rng = np.random.default_rng(20)
        hits = self.HITS
        xs, ys = _balanced_pairs(rng, len(hits))
        common = np.zeros((self.M, 32), dtype=np.uint8)   # typical with no source
        _plant(common, hits, xs)
        priv = rng.integers(0, 2, size=(self.M, 2, 32)).astype(np.uint8)
        cb = _x_keyed_codebook(common, priv, priv[:, ::-1], 0.45)
        xk, yk, ks = self._shifted(rng, xs, ys)
        want = [encode_loop(cb, x, y, k) for x, y, k in zip(xk, yk, ks)]
        assert [w[0] if not w[3] else None for w in want] == hits
        return cb, xk, yk, ks, want

    @pytest.mark.parametrize("scratch", SCRATCH)
    def test_common_hits_across_blocks(self, common_case, scratch, monkeypatch):
        if scratch is not None:
            monkeypatch.setattr("gwrdp.codec._SCRATCH", scratch)
        cb, xk, yk, ks, want = common_case
        s0, s1, s2, miss = encode_batch(cb, xk, yk, ks)
        assert list(zip(s0.tolist(), s1.tolist(), s2.tolist(), *miss.tolist())) == want

    @pytest.fixture(scope="class")
    def private_case(self):
        # common indices 0, 1 and 2 hold group sources; every fourth trial
        # has a source no common codeword fits and falls back to index 0.
        # Trials of a group share x but not y, so each plants its own y hit.
        rng = np.random.default_rng(21)
        hits = self.HITS
        base_x, base_y = _balanced_pairs(rng, 4)
        groups = [i % 4 for i in range(len(hits))]
        xs = base_x[groups]
        ys = base_y[groups]
        for x, y in zip(xs, ys):
            for sym in (0, 1):
                at = np.flatnonzero(x == sym)
                y[at] = rng.permutation(y[at])
        priv_x = rng.integers(0, 2, size=(3, self.M, 32)).astype(np.uint8)
        priv_y = rng.integers(0, 2, size=(3, self.M, 32)).astype(np.uint8)
        for g, x_hit in enumerate((5, 1361, 4097)):
            priv_x[g, x_hit] = base_x[g]
        s0_of = [g % 3 for g in groups]
        for g in range(3):
            mine = [i for i, s0 in enumerate(s0_of) if s0 == g]
            _plant(priv_y[g], [hits[i] for i in mine], ys[mine])
        cb = _x_keyed_codebook(base_x[:3].astype(np.uint8), priv_x, priv_y, 0.0)
        xk, yk, ks = self._shifted(rng, xs, ys)
        want = [encode_loop(cb, x, y, k) for x, y, k in zip(xk, yk, ks)]
        assert [w[0] for w in want] == s0_of
        assert [w[3] for w in want] == [g == 3 for g in groups]
        assert [None if w[5] else w[2] for w in want] == hits
        assert [None if w[4] else w[1] for w in want] == [(5, 1361, 4097, None)[g] for g in groups]
        return cb, xk, yk, ks, want

    @pytest.mark.parametrize("scratch", SCRATCH)
    def test_private_hits_across_blocks_and_groups(self, private_case, scratch, monkeypatch):
        if scratch is not None:
            monkeypatch.setattr("gwrdp.codec._SCRATCH", scratch)
        cb, xk, yk, ks, want = private_case
        s0, s1, s2, miss = encode_batch(cb, xk, yk, ks)
        assert list(zip(s0.tolist(), s1.tolist(), s2.tolist(), *miss.tolist())) == want

    def test_generated_codebook_batch(self):
        # the generated codebook of the loop test above, its 400 sources
        # encoded as one batch
        n, delta, seed = 16, 0.1, 4
        p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
        aux = np.array([[0.75, 0.25], [0.5, 0.5], [0.5, 0.5], [0.25, 0.75]])
        q_xyw = p_xy.extend(Kernel(aux.reshape(2, 2, 2)), "W")
        tc = Kernel(np.full((2, 2, 2), 0.5))
        cb = generate_codebook(q_xyw, tc, tc, (HAM, HAM),
                               compute_code_sizes(q_xyw, tc, tc, n, delta), delta, n, seed)
        q_pair_given_w = (cb.q_xyw / cb.q_xyw.sum(axis=(0, 1))).reshape(4, 2)
        rng = np.random.default_rng(seed)
        pairs = [np.array([rng.choice(4, p=q_pair_given_w[:, s]) for s in
                           cb.common[0, rng.integers(0, cb.common.shape[1])]])
                 if t % 2 else rng.integers(0, 4, size=n) for t in range(400)]
        ks = rng.integers(0, n, size=400)
        xs, ys = circular_shift(ks, np.stack(pairs) // 2, np.stack(pairs) % 2)
        got, want = _batch_vs_loop(cb, xs, ys, ks, 0.3)
        assert got == want
        assert len({g[0] for g in got if not g[3]}) > 3

    def test_pair_type_outside_the_band_skips_the_scan(self, monkeypatch):
        # uniform pair with |W| = 2 at n = 16, delta = 0.1: a pair count
        # outside the band's sums over w rules out every common codeword,
        # so only the other trials reach the scan, and every trial still
        # gets the loop's indices and flags
        n, delta = 16, 0.1
        p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
        aux = np.array([[0.75, 0.25], [0.5, 0.5], [0.5, 0.5], [0.25, 0.75]])
        q_xyw = p_xy.extend(Kernel(aux.reshape(2, 2, 2)), "W")
        tc = Kernel(np.full((2, 2, 2), 0.5))
        cb = generate_codebook(q_xyw, tc, tc, (HAM, HAM),
                               compute_code_sizes(q_xyw, tc, tc, n, delta), delta, n, 4)
        lo, hi = count_bounds(cb.q_xyw, n, delta)
        scanned = []

        def recorded(common, pairs, lo, hi):
            scanned.append(pairs)
            return _first_jointly_typical(common, pairs, lo, hi)

        monkeypatch.setattr("gwrdp.codec._first_jointly_typical", recorded)
        rng = np.random.default_rng(5)
        pairs = np.stack([rng.permutation(np.repeat(np.arange(4), 4)) if t % 2
                          else rng.integers(0, 4, size=n) for t in range(200)])
        ks = rng.integers(0, n, size=200)
        xs, ys = circular_shift(ks, pairs // 2, pairs % 2)
        got, want = _batch_vs_loop(cb, xs, ys, ks, 0.3)
        assert got == want
        (rows,) = scanned
        counts = np.stack([np.bincount(r, minlength=4) for r in rows])
        assert np.all((counts >= lo.sum(axis=-1).ravel()) & (counts <= hi.sum(axis=-1).ravel()))
        assert 0 < len(rows) < len(pairs)
        assert any(not g[3] for g in got)


class TestNonBinaryBatchEncode:
    """encode_batch against the loop oracle on a 3x2 source with |W| = 3,
    reconstruction alphabets of other sizes than their sources' and non-
    dyadic distortions at scales 1e-6, 1 and 1e6: common and private first
    hits on either side of every block boundary, misses, and the scratch
    bound at 1 and at its default."""

    M, N = SCAN_ROWS, 36
    # |W| = 3, and the y scans, whose hits these are, over 3 reconstructions
    HITS = _boundary_hits(N * 3)
    DX = np.array([[0.1, 0.7], [1 / 3, 0.1], [0.7, 1 / 3]])       # X (3) -> Xhat (2)
    DY = np.array([[0.1, 1 / 3, 0.7], [0.7, 0.1, 1 / 3]])         # Y (2) -> Yhat (3)
    BEST_X, BEST_Y = np.array([0, 1, 1]), np.array([0, 1])        # least-distortion maps
    THRESHOLD = 0.2   # the best maps score 0.178 and 0.1, random codewords 0.38 on average
    # the common scan does not read the distortions, so the common case
    # runs at one scale
    PRIVATE_RUNS = [(1e-6, None), (1.0, None), (1e6, None), (1.0, 1)]

    @classmethod
    def _codebook(cls, common, priv_x, priv_y):
        """W = X: a common codeword is jointly typical with a balanced pair
        (each of the 6 pair values 6 times) exactly when it equals the
        unshifted x sequence, since every cell with w != x has q = 0."""
        q_xyw = np.zeros((3, 2, 3))
        for x in range(3):
            q_xyw[x, :, x] = 1 / 6
        return Codebook(common=common[None], priv_x=priv_x, priv_y=priv_y, q_xyw=q_xyw,
                        distortions=(cls.DX, cls.DY), thresholds=(cls.THRESHOLD,) * 2,
                        n=cls.N, delta=0.5)

    @classmethod
    def _pairs(cls, rng, count):
        pair = np.stack([rng.permutation(np.repeat(np.arange(6), 6)) for _ in range(count)])
        return pair // 2, pair % 2

    @classmethod
    def _check(cls, case, scale, scratch, monkeypatch):
        """encode_batch of the case's trials, under random shifts, equals
        the loop oracle's encodings (computed once per scale)."""
        cb, xs, ys, wants = case
        if scratch is not None:
            monkeypatch.setattr("gwrdp.codec._SCRATCH", scratch)
        ks = np.random.default_rng(1).integers(0, cls.N, size=len(xs))
        xk, yk = circular_shift(ks, xs, ys)
        cb = with_rule(cb, cls.THRESHOLD * scale, cls.DX * scale, cls.DY * scale)
        if scale not in wants:
            wants[scale] = [encode_loop(cb, x, y, k) for x, y, k in zip(xk, yk, ks)]
        s0, s1, s2, miss = encode_batch(cb, xk, yk, ks)
        assert list(zip(s0.tolist(), s1.tolist(), s2.tolist(), *miss.tolist())) == wants[scale]
        return wants[scale]

    @pytest.fixture(scope="class")
    def common_case(self):
        rng = np.random.default_rng(30)
        hits = self.HITS
        xs, ys = self._pairs(rng, len(hits))
        common = np.zeros((self.M, self.N), dtype=np.uint8)   # typical with no source
        _plant(common, hits, xs)
        priv_x = rng.integers(0, 2, size=(self.M, 2, self.N)).astype(np.uint8)
        priv_y = rng.integers(0, 3, size=(self.M, 2, self.N)).astype(np.uint8)
        return self._codebook(common, priv_x, priv_y), xs, ys, {}

    @pytest.mark.parametrize("scratch", [None, 1])
    def test_common_hits(self, common_case, scratch, monkeypatch):
        want = self._check(common_case, 1.0, scratch, monkeypatch)
        hits = self.HITS
        assert [None if w[3] else w[0] for w in want] == hits

    @pytest.fixture(scope="class")
    def private_case(self):
        # common indices 0, 1 and 2 hold the x of groups 0-2; group 3's x
        # fits no common codeword and falls back to index 0. Every trial
        # plants its own y hit; each group shares one x hit, group 3 none.
        rng = np.random.default_rng(31)
        hits = self.HITS
        base_x, base_y = self._pairs(rng, 4)
        groups = [i % 4 for i in range(len(hits))]
        xs, ys = base_x[groups], base_y[groups]
        for x, y in zip(xs, ys):
            for sym in range(3):
                at = np.flatnonzero(x == sym)
                y[at] = rng.permutation(y[at])
        priv_x = rng.integers(0, 2, size=(3, self.M, self.N)).astype(np.uint8)
        priv_y = rng.integers(0, 3, size=(3, self.M, self.N)).astype(np.uint8)
        for g, x_hit in enumerate((79, 1360, 5457)):
            priv_x[g, x_hit] = self.BEST_X[base_x[g]]
        s0_of = [g % 3 for g in groups]
        for g in range(3):
            mine = [i for i, s0 in enumerate(s0_of) if s0 == g]
            _plant(priv_y[g], [hits[i] for i in mine], self.BEST_Y[ys[mine]])
        return self._codebook(base_x[:3].astype(np.uint8), priv_x, priv_y), xs, ys, {}

    @pytest.mark.parametrize("scale, scratch", PRIVATE_RUNS)
    def test_private_hits(self, private_case, scale, scratch, monkeypatch):
        want = self._check(private_case, scale, scratch, monkeypatch)
        groups = [i % 4 for i in range(len(want))]
        assert [w[0] for w in want] == [g % 3 for g in groups]
        assert [w[3] for w in want] == [g == 3 for g in groups]
        assert [None if w[4] else w[1] for w in want] == [(79, 1360, 5457, None)[g]
                                                          for g in groups]
        assert [None if w[5] else w[2] for w in want] == self.HITS

    @pytest.mark.parametrize("branch, symbol", [("y", 2), ("x", 3), ("x", -1), ("y", -1)])
    def test_source_symbols_outside_the_alphabets_raise(self, common_case, branch, symbol):
        cb, xs, ys, _ = common_case
        bad = {"x": xs[:2].copy(), "y": ys[:2].copy()}
        bad[branch][1, 5] = symbol
        with pytest.raises(ValueError, match="outside the 3x2 pair alphabet"):
            encode_batch(with_rule(cb, 0.3, self.DX, self.DY), bad["x"], bad["y"], [0, 0])


# first hits on either side of each page boundary, and the pages a scan
# draws to reach them; the tests add hits inside page 4
PAGE_EDGE_HITS = [(15, 1), (16, 2), (79, 2), (80, 3), (335, 3), (336, 4), (1359, 4), (1360, 5),
                  (PAGE_5 - 1, 5), (PAGE_5, 6)]


# (joint q, delta, conditioning sequence): one stratum holding a single
# type, several types, a conditioning symbol that never occurs, and a class
# total past 2**63, which takes the big-integer inverse CDF
SAMPLER_CASES = {
    "single-type": (np.array([[0.5], [0.5]]), 1e-9, np.zeros(8, dtype=int)),
    "single-and-multi-type": (np.array([[0.5, 0.2], [0.0, 0.3]]), 0.5,
                              np.array([0, 1] * 10)),
    "multi-type": (np.array([[0.35, 0.15], [0.15, 0.35]]), 0.3, np.array([0, 1] * 8)),
    "ternary": (np.array([[0.2, 0.1], [0.15, 0.2], [0.15, 0.2]]), 0.6,
                np.array([0, 1, 1, 0, 1] * 5)),
    "absent-symbol": (np.array([[0.3, 0.0], [0.7, 0.0]]), 0.4, np.zeros(10, dtype=int)),
    "big-integer": (np.array([[0.5], [0.5]]), 0.2, np.zeros(70, dtype=int)),
}

# band and stratum faults: a cell no count fits, a stratum whose column
# types cannot sum to its length, and a required symbol the conditioning
# sequence never takes
SAMPLER_FAULTS = {
    "empty-cell": (np.array([[0.05], [0.95]]), 0.15, np.zeros(8, dtype=int)),
    "no-column-type": (np.full((2, 2), 0.25), 0.01, np.array([0] * 3 + [1] * 5)),
    "absent-required-symbol": (np.array([[0.5, 0.25], [0.25, 0.0]]), 0.01,
                               np.zeros(4, dtype=int)),
}


class TestCachedSampler:
    """The sampler's cached band and type tables change no draw and no error."""

    @pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_draws_equal_the_uncached_sampler(self, case, seed):
        jq, delta, cond = SAMPLER_CASES[case]
        count = 40 if case == "big-integer" else 300
        rngs = [np.random.Generator(np.random.Philox(seed)) for _ in range(2)]
        got = sample_uniform_cond_typical(jq, delta, cond, count, rngs[0])
        want = sample_uniform_cond_typical_uncached(jq, delta, cond, count, rngs[1])
        assert got.dtype == want.dtype and np.array_equal(got, want)
        # the two leave the stream in the same state
        assert rngs[0].integers(2**62) == rngs[1].integers(2**62)

    def test_cases_cover_every_path(self):
        kinds = {}
        for case, (jq, delta, cond) in SAMPLER_CASES.items():
            lo, hi, _ = _cached_bounds(jq.tobytes(), jq.shape, cond.size, delta)
            tables = [_type_table(tuple(lo[:, b].tolist()), tuple(hi[:, b].tolist()),
                                  int(np.sum(cond == b))) for b in np.unique(cond)]
            kinds[case] = ({len(t.types) for t in tables}, max(t.total for t in tables),
                           jq.shape[1] - len(tables))
        assert kinds["single-type"][0] == {1}
        assert 1 in kinds["single-and-multi-type"][0]
        assert max(kinds["single-and-multi-type"][0]) > 1
        assert min(kinds["multi-type"][0]) > 1
        assert kinds["absent-symbol"][2] == 1
        assert kinds["big-integer"][1] >= 2 ** 63
        assert all(k[1] < 2 ** 63 for c, k in kinds.items() if c != "big-integer")

    @pytest.mark.parametrize("case", sorted(SAMPLER_FAULTS))
    def test_errors_equal_the_uncached_sampler(self, case):
        jq, delta, cond = SAMPLER_FAULTS[case]
        with pytest.raises(EmptyTypicalSetError) as want:
            sample_uniform_cond_typical_uncached(jq, delta, cond, 5, 0)
        for _ in range(2):   # the second call reads the cached tables
            with pytest.raises(EmptyTypicalSetError) as got:
                sample_uniform_cond_typical(jq, delta, cond, 5, 0)
            assert str(got.value) == str(want.value)

    def test_cached_bounds_are_read_only(self):
        lo, hi, _ = _cached_bounds(np.full(4, 0.25).tobytes(), (2, 2), 8, 0.3)
        with pytest.raises(ValueError, match="read-only"):
            lo[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            hi[0, 0] = 0

    def test_a_layer_enumerates_each_stratum_once(self, monkeypatch):
        # 20 pages under 5 conditioning rows whose symbol counts repeat:
        # types are enumerated once per distinct (lo, hi, n_b), not per page
        calls, enumerate_types = [], gwrdp.codec._compositions

        def counting(lo, hi, total):
            calls.append((tuple(lo.tolist()), tuple(hi.tolist()), total))
            return enumerate_types(lo, hi, total)

        monkeypatch.setattr(gwrdp.codec, "_compositions", counting)
        _type_table.cache_clear()
        n, zeros = 20, (10, 10, 9, 11, 10)
        parent = np.array([[[0] * z + [1] * (n - z) for z in zeros]], dtype=np.uint8)
        joint = np.array([[0.35, 0.15], [0.15, 0.35]])
        layer = PagedLayer(parent, joint, 0.3, 1400, 5, 1, _SymbolBudget(None))
        for s0 in range(5):
            for p in range(4):
                cond = parent[0, s0]
                rng = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(5, spawn_key=(1, s0, p))))
                start, stop = _page_span(p)
                want = sample_uniform_cond_typical_uncached(joint, 0.3, cond, stop - start, rng)
                assert np.array_equal(layer.page(s0, p), want)
        assert layer.pages_drawn == 20
        lo, hi = count_bounds(joint, n, 0.3)
        keys = {(tuple(lo[:, b].tolist()), tuple(hi[:, b].tolist()), int(np.sum(row == b)))
                for row in parent[0] for b in (0, 1)}
        assert sorted(calls) == sorted(keys) and len(keys) == 6


def paged_codebook(m0=2, m=3 * PAGE_ROWS + 100, n=32, memory_cap=None, seed=3):
    """Uniform pair, one W symbol, soft test channels, with forced code
    sizes: private layers of m codewords per common index (the size
    formula's when m is None)."""
    p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
    q_xyw = p_xy.extend(Kernel(np.ones((2, 2, 1))), "W")
    tc = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
    sizes = compute_code_sizes(q_xyw, tc, tc, n, 0.3)
    sizes = dataclasses.replace(sizes, m0=m0, m1=m or sizes.m1, m2=m or sizes.m2)
    return generate_codebook(q_xyw, tc, tc, (HAM, HAM), sizes, 0.3, n, seed,
                             memory_cap=memory_cap)


class TestPageGeometry:
    """Page p holds 16 * 4**p codewords while that is below PAGE_ROWS, then
    PAGE_ROWS; the scan's blocks are the pages, cut at the scratch cap."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 20_000), st.integers(0, 2 ** 70)))
    def test_a_python_int_lies_in_its_page(self, j):
        start, stop = _page_span(_page_of(j))
        assert start <= j < stop

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 20_000), st.integers(0, 2 ** 63 - 1)),
                    min_size=0, max_size=20))
    def test_an_int64_array_lies_in_its_pages(self, js):
        pages = _page_of(np.array(js, dtype=np.int64))
        assert pages.dtype == np.int64
        assert pages.tolist() == [_page_of(j) for j in js]
        for j in js:   # a 0-d array takes the array path too
            assert _page_of(np.array(j, dtype=np.int64)) == _page_of(j)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30_000), st.integers(1, 2 ** 17))
    def test_spans_tile_and_blocks_stay_in_pages(self, m, width):
        last = _page_of(m - 1)
        spans = [_page_span(p) for p in range(last + 1)]
        assert spans[0][0] == 0 and spans[-1][0] < m <= spans[-1][1]
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        blocks = list(_blocks(m, width))
        assert blocks[0][0] == 0 and blocks[-1][1] == m
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        for start, stop in blocks:
            assert 0 < stop - start <= max(1, _SCRATCH // width)
            assert _page_of(start) == _page_of(stop - 1)


class TestPagedLayers:
    """Private layers drawn lazily in counter-keyed pages of 16, 64, 256,
    1024 and then PAGE_ROWS codewords."""

    def test_pages_drawn_out_of_order_match_in_order(self):
        in_order, shuffled = paged_codebook(), paged_codebook()
        for s0, p in ((1, 3), (0, 2), (1, 0), (0, 3), (1, 2), (0, 0)):
            shuffled.priv_y.page(s0, p)
            shuffled.priv_x.page(1 - s0, 3 - p)
        for layer in ("priv_x", "priv_y"):
            want = np.asarray(getattr(in_order, layer))
            assert want.shape == (2, 3 * PAGE_ROWS + 100, 32)
            assert np.array_equal(np.asarray(getattr(shuffled, layer)), want)

    def test_pickled_layers_redraw_identical_rows(self):
        cb = paged_codebook()
        before = pickle.loads(pickle.dumps(cb))
        cb.priv_x[0, PAGE_ROWS + 5]
        cb.priv_y[1, :10]
        after = pickle.loads(pickle.dumps(cb))
        assert after.priv_x.pages_drawn == 0 and after.priv_y.pages_drawn == 0
        for copy in (before, after):
            assert np.array_equal(np.asarray(copy.priv_x), np.asarray(cb.priv_x))
            assert np.array_equal(np.asarray(copy.priv_y), np.asarray(cb.priv_y))
        whole = np.asarray(cb.priv_x)
        assert np.array_equal(cb.priv_x[1, -1], whole[1, -1])
        for rows in (slice(PAGE_ROWS - 3, PAGE_ROWS + 1), slice(PAGE_ROWS, 2 * PAGE_ROWS),
                     slice(5, 2 * PAGE_ROWS + 9), slice(-3, None), slice(None, None, -PAGE_ROWS),
                     slice(7, 7)):
            assert np.array_equal(cb.priv_x[1][rows], whole[1, rows])
            assert np.array_equal(cb.priv_x[0, rows], whole[0, rows])

    @pytest.mark.parametrize("hit", [PAGE_ROWS - 1, PAGE_ROWS, PAGE_ROWS + 1,
                                     PAGE_5 - 1, PAGE_5, PAGE_5 + 1, None])
    def test_encode_matches_loop_across_pages(self, hit):
        # distinct codewords differ in at least 1 of 32 positions, so with
        # the threshold at 1/64 only an exact copy of the source hits
        cb = with_rule(paged_codebook(m0=1), 1 / 64)
        k = 5
        xs = np.zeros(cb.n, dtype=np.int64) if hit is None else cb.priv_x[0, hit].astype(np.int64)
        ys = cb.priv_y[0, 7].astype(np.int64)
        xk, yk = circular_shift(k, xs, ys)
        got = encode(cb, xk, yk, k)
        assert dataclasses.astuple(got) == encode_loop(cb, xk, yk, k)
        assert (got.s1, got.miss_x) == ((0, True) if hit is None else (hit, False))
        assert got.s2 == 7
        x_hat, y_hat = decode(cb, got.s0, got.s1, got.s2, k)
        plain = Codebook(common=cb.common, priv_x=np.asarray(cb.priv_x),
                         priv_y=np.asarray(cb.priv_y), q_xyw=cb.q_xyw,
                         distortions=cb.distortions, thresholds=cb.thresholds,
                         n=cb.n, delta=cb.delta)
        want_x, want_y = decode(plain, got.s0, got.s1, got.s2, k)
        assert np.array_equal(x_hat, want_x) and np.array_equal(y_hat, want_y)

    def test_encode_batch_across_pages(self):
        cb = paged_codebook(m0=1)
        hits = [15, 16, PAGE_5 - 1, PAGE_5, PAGE_5 + 1, None]
        xs = np.stack([np.zeros(cb.n, dtype=np.uint8) if h is None else cb.priv_x[0, h]
                       for h in hits])
        ys = np.stack([cb.priv_y[0, 7]] * len(hits))
        ks = [5, 0, 31, 12, 3, 9]
        xk, yk = circular_shift(ks, xs, ys)
        got, want = _batch_vs_loop(cb, xk, yk, ks, 1 / 64)
        assert got == want
        assert [None if g[4] else g[1] for g in got] == hits
        assert {g[2] for g in got} == {7}

    def test_batched_decode_reads_what_single_decodes_read(self):
        batched, single = paged_codebook(), paged_codebook()
        s0 = [1, 0, 1, 1, 0, 1]
        s1 = [2 * PAGE_ROWS + 7, 3, 5, PAGE_ROWS, 3 * PAGE_ROWS + 99, 2 * PAGE_ROWS + 8]
        s2 = [0, 4095, 4096, 1, 2, 3]
        ks = [0, 5, 31, 7, 7, 1]
        x, y = decode(batched, s0, s1, s2, ks)
        for i, idx in enumerate(zip(s0, s1, s2, ks)):
            want_x, want_y = decode(single, *idx)
            assert np.array_equal(x[i], want_x) and np.array_equal(y[i], want_y)
        for layer in ("priv_x", "priv_y"):
            assert getattr(batched, layer)._pages.keys() == getattr(single, layer)._pages.keys()

    def test_drawn_count_equals_pages_touched(self):
        # pages 0-4 end at 16, 80, 336, 1360 and 5456, page 5 at 9552, and
        # page 6 is cut short at m = 12388
        m = 3 * PAGE_ROWS + 100
        cb = paged_codebook(m=m)
        layer = cb.priv_x
        assert layer.pages_drawn == 0 and layer.nbytes == 0
        layer[1, 2 * PAGE_ROWS + 7]                 # page (1, 5)
        layer[0, 1358:1362]                         # pages (0, 3) and (0, 4)
        layer[0, 1000]                              # cached
        layer[1, :1]                                # page (1, 0)
        assert layer.pages_drawn == 4
        assert layer.codewords_drawn == PAGE_ROWS + 1024 + PAGE_ROWS + 16
        layer[1, -1]                                # the short last page (1, 6)
        assert layer.pages_drawn == 5
        assert layer.codewords_drawn == 2 * PAGE_ROWS + 1040 + m - 9552
        assert layer.nbytes == layer.codewords_drawn * cb.n
        assert cb.priv_y.pages_drawn == 0
        assert decode(cb, 1, 2 * PAGE_ROWS, 0, 0)[0].shape == (cb.n,)
        assert cb.priv_y.pages_drawn == 1 and layer.pages_drawn == 5
        assert layer[0].shape == (m, cb.n)          # every page under index 0
        assert layer.pages_drawn == 10

    def test_index_arrays_follow_the_scalar_rule(self):
        layer = paged_codebook().priv_x
        m0, m, _ = layer.shape
        assert np.array_equal(layer[[-1], [0]], layer[m0 - 1, 0][None])
        assert np.array_equal(layer[[-1, 0], [-1, 5]], np.stack([layer[1, m - 1], layer[0, 5]]))
        assert np.array_equal(layer[np.array([[0], [1]]), [3, -m]],
                              np.asarray(layer)[[[0], [1]], [3, 0]])
        for s0, j, bad, size in (([0], [m], m, m), ([1, 0], [0, -m - 1], -m - 1, m),
                                 ([m0], [0], m0, m0), (0, m, m, m), (-m0 - 1, 0, -m0 - 1, m0)):
            with pytest.raises(IndexError, match=f"index {bad} is out of bounds for size {size}"):
                layer[s0, j]

    def test_a_layer_past_int64_encodes_and_decodes(self):
        # 2**88.9 codewords per branch, as the size formula gives at n = 64;
        # a hit on page 4 draws pages 0-4, every index fits in int64
        source, cb = (paged_codebook(m0=1, m=None, n=64) for _ in range(2))
        m = cb.sizes[1]
        assert m > 2 ** 88 and cb.sizes[2] == m
        xs, ys = circular_shift(5, source.priv_x[0, PAGE_ROWS + 9].astype(np.int64),
                                source.priv_y[0, 3].astype(np.int64))
        got = encode(with_rule(cb, 1 / 128), xs, ys, 5)
        assert (got.s1, got.miss_x, got.s2, got.miss_y) == (PAGE_ROWS + 9, False, 3, False)
        assert sorted(cb.priv_x._pages) == [(0, p) for p in range(5)]
        x, y = decode(cb, got.s0, got.s1, got.s2, 5)
        assert np.array_equal(x, xs) and np.array_equal(y, ys)
        far = [2 ** 63 - 1]
        assert np.array_equal(cb.priv_x[[0], far], source.priv_x[[0], far])
        for j in ([-1], [2 ** 63]):
            with pytest.raises(IndexError, match=f"index {j[0]} is outside \\[0, 2\\*\\*63\\)"):
                cb.priv_x[[0], np.array(j, dtype=np.uint64 if j[0] > 0 else np.int64)]
        with pytest.raises(IndexError, match="outside codebook sizes"):
            decode(cb, 0, -1, 0, 0)

    @pytest.mark.parametrize("hit, pages", PAGE_EDGE_HITS
                             + [(h, 5) for h in (1400, 3000, 4095, 4100)] + [(None, 7)])
    def test_a_scan_draws_a_page_only_when_it_reaches_it(self, hit, pages):
        # with the threshold at 1/64 only an exact copy of the source hits
        # (see above), and an all-zero x is no codeword; the source's
        # codewords come from a second, identical codebook, so reading them
        # draws nothing in the scanned one. A miss draws all 7 pages.
        source, cb = (paged_codebook(m0=1, m=3 * PAGE_ROWS) for _ in range(2))
        xs = (np.zeros(cb.n, dtype=np.int64) if hit is None
              else source.priv_x[0, hit].astype(np.int64))
        ys = source.priv_y[0, 7].astype(np.int64)
        got = encode(with_rule(cb, 1 / 64), xs, ys, 0)
        assert (got.s1, got.miss_x, got.s2, got.miss_y) == (hit or 0, hit is None, 7, False)
        assert sorted(cb.priv_x._pages) == [(0, p) for p in range(pages)]
        assert sorted(cb.priv_y._pages) == [(0, 0)]

    def test_all_miss_scan_stops_at_the_cap(self):
        # the n = 64 witness's private layers hold about 1.3e12 codewords
        n, m, cap = 64, 1_315_903_492_825, 2 ** 20
        cb = paged_codebook(m0=1, m=m, n=n, memory_cap=cap)
        assert cb.sizes == (1, m, m)
        xs = cb.priv_x[0, 0].astype(np.int64)
        with pytest.raises(ResourceCapError, match="cap is 1048576"):
            encode(with_rule(cb, -1.0), xs, xs, 0)
        # pages 0-6 end at codeword 13648; page 7 would pass the cap
        assert cb.priv_x.pages_drawn == 7 and cb.priv_x.codewords_drawn == 13_648
        assert cb.priv_x.nbytes + cb.common.nbytes <= cap < (13_648 + PAGE_ROWS + 1) * n

    def test_common_layer_over_the_cap_raises(self):
        # the first page of each layer, the common layer's 10 codewords and
        # 16 of each private one, is the least any encoding draws
        least = (10 + 2 * 16) * 32
        with pytest.raises(ResourceCapError,
                           match=f"needs at least {least} symbols, cap is {least - 1};"):
            paged_codebook(m0=10, n=32, memory_cap=least - 1)
        cb = paged_codebook(m0=10, n=32, memory_cap=least)
        assert [cb.common.pages_drawn, cb.priv_x.pages_drawn, cb.priv_y.pages_drawn] == [0, 0, 0]


class TestDecoderGrouping:
    """Index-array reads group their codewords by (s0, page) and draw the
    pages in that order, each once."""

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
    def test_empty_index_arrays_draw_nothing(self, shape):
        cb = paged_codebook(m0=3)
        empty = np.zeros(shape, dtype=np.int64)
        for layer in (cb.common, cb.priv_x):
            got = layer[empty, empty]
            assert got.shape == shape + (cb.n,) and got.dtype == np.uint8
        x, y = decode(cb, *[np.zeros(0, dtype=np.int64)] * 4)
        assert x.shape == y.shape == (0, cb.n)
        assert [cb.common.pages_drawn, cb.priv_x.pages_drawn, cb.priv_y.pages_drawn] == [0] * 3

    @pytest.mark.parametrize("empty", [[], (), np.zeros(0)])
    def test_empty_sequences_decode_to_empty_rows(self, empty):
        # np.asarray([]) is float64, which no shift seed may be
        cb = paged_codebook(m0=3)
        x, y = decode(cb, empty, empty, empty, empty)
        assert x.shape == y.shape == (0, cb.n) and x.dtype == np.uint8
        assert cb.priv_x.pages_drawn == cb.priv_y.pages_drawn == 0

    def test_float_seeds_are_refused(self):
        cb = paged_codebook(m0=3)
        with pytest.raises(IndexError):
            decode(cb, [0, 1], [0, 1], [0, 1], np.array([1.0, 2.0]))

    def test_a_shuffled_batch_with_repeats_equals_elementwise_reads(self):
        # 3 conditioning indices, 4 pages each (0, 2, 4 and the cut last
        # page 6), every pair read at least twice, in shuffled order
        batched, single = paged_codebook(m0=3), paged_codebook(m0=3)
        rng = np.random.default_rng(4)
        m = batched.sizes[1]
        js = [0, 15, 80, 300, PAGE_5 - 1, 1360, m - 1, m - 50]
        pairs = [(s0, j) for s0 in range(3) for j in js] * 2
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        s0, j = (np.array(v) for v in zip(*pairs))
        got = batched.priv_x[s0, j]
        assert got.shape == (len(pairs), batched.n)
        for row, (a, b) in zip(got, pairs):
            assert np.array_equal(row, single.priv_x[a, b])
        assert sorted(batched.priv_x._pages) == sorted(single.priv_x._pages)
        assert sorted(batched.priv_x._pages) == [(a, p) for a in range(3) for p in (0, 2, 4, 6)]
        # a 2-D batch keeps its shape
        assert np.array_equal(batched.priv_x[s0.reshape(6, -1), j.reshape(6, -1)],
                              got.reshape(6, -1, batched.n))

    def test_pages_are_drawn_in_s0_then_page_order(self):
        # the cap lets the batch draw the common page and the first five
        # (s0, page) groups in sorted order, and trips on the sixth, (1, 2)
        m0, n = 3, 32
        wanted = [(s0, p) for s0 in range(3) for p in range(3)]
        order = [wanted[i] for i in (8, 5, 0, 4, 2, 7, 1, 3, 6)]
        symbols = [(_page_span(p)[1] - _page_span(p)[0]) * n for _, p in wanted]
        used = m0 * n + sum(symbols[:5])
        cap = used + symbols[5] - 1
        cb = paged_codebook(m0=m0, n=n, memory_cap=cap)
        s0 = np.array([a for a, _ in order])
        j = np.array([_page_span(p)[0] + 1 for _, p in order])
        with pytest.raises(ResourceCapError,
                           match=f"^codebook would hold {used + symbols[5]} symbols, "
                                 f"cap is {cap};"):
            cb.priv_x[s0, j]
        assert sorted(cb.priv_x._pages) == wanted[:5]
        assert cb.common.pages_drawn == 1 and cb.priv_x.budget.used == used


def common_paged_codebook(seed=3):
    """W = X over a uniform pair at n = 32, delta = 0.5, with forced sizes
    (2 * PAGE_ROWS + 100, 3, 3). Every cell with w != x has q = 0, so a
    common codeword is jointly typical with a pair from ``pair_for`` exactly
    when it equals the pair's unshifted x."""
    p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
    q_xyw = p_xy.extend(Kernel(np.repeat(np.eye(2)[:, None, :], 2, axis=1)), "W")
    tc = Kernel(np.full((2, 2, 2), 0.5))
    sizes = dataclasses.replace(compute_code_sizes(q_xyw, tc, tc, 32, 0.5),
                                m0=2 * PAGE_ROWS + 100, m1=3, m2=3)
    return generate_codebook(q_xyw, tc, tc, (HAM, HAM), sizes, 0.5, 32, seed)


def pair_for(x):
    """x and a y that splits each x symbol's positions in half, so every
    (x, y) cell holds a count in [4, 12] when x is in W's band."""
    x = np.asarray(x, dtype=np.int64)
    y = np.zeros_like(x)
    for a in (0, 1):
        y[np.flatnonzero(x == a)[1::2]] = 1
    return x, y


class TestPagedCommonLayer:
    """The common layer is a PagedLayer of shape (1, M0, n): branch 0, one
    conditioning index, conditioned on one all-zero row."""

    HITS = [15, 16, PAGE_ROWS, PAGE_5 - 1, PAGE_5, PAGE_5 + 1, None]
    MISS = np.tile([0, 1], 16)   # typical for W, and no codeword of seed 3

    def _source(self, hit):
        x = self.MISS if hit is None else common_paged_codebook().common[0, hit]
        return pair_for(x)

    def test_generation_draws_no_codeword(self):
        cb = common_paged_codebook()
        assert cb.common.shape == (1, 2 * PAGE_ROWS + 100, 32)
        assert cb.sizes == (2 * PAGE_ROWS + 100, 3, 3)
        assert [cb.common.pages_drawn, cb.priv_x.pages_drawn, cb.priv_y.pages_drawn] == [0, 0, 0]

    def test_page_zero_is_the_sampler_keyed_0_0_0(self):
        cb = common_paged_codebook()
        stream = np.random.SeedSequence(3, spawn_key=(0, 0, 0))
        want = sample_uniform_cond_typical(np.full((2, 1), 0.5), 0.5, np.zeros(32, dtype=int),
                                           16, np.random.Generator(np.random.Philox(stream)))
        assert np.array_equal(cb.common.page(0, 0), want)
        # a private page is keyed (branch, s0, p) and conditioned on common[0, s0]
        stream = np.random.SeedSequence(3, spawn_key=(2, 5, 0))
        want = sample_uniform_cond_typical(cb.priv_y.joint, 0.5, cb.common[0, 5], 3,
                                           np.random.Generator(np.random.Philox(stream)))
        assert np.array_equal(cb.priv_y[5], want)

    def test_batch_scans_match_the_loop_across_pages(self):
        cb = common_paged_codebook()
        xs, ys = map(np.stack, zip(*(self._source(hit) for hit in self.HITS)))
        ks = [5, 0, 31, 12, 3, 9, 20]
        xk, yk = circular_shift(ks, xs, ys)
        got, want = _batch_vs_loop(cb, xk, yk, ks, 0.5)
        assert got == want
        assert [None if g[3] else g[0] for g in got] == self.HITS

    @pytest.mark.parametrize("hit, pages", PAGE_EDGE_HITS + [(h, 5) for h in (4095, 4096, 4097)]
                             + [(None, 6)])
    def test_a_scan_draws_a_page_only_when_it_reaches_it(self, hit, pages):
        # M0 = 8292: a miss draws pages 0-5
        cb = common_paged_codebook()
        xs, ys = self._source(hit)
        got = encode(with_rule(cb, 0.5), xs, ys, 0)
        assert (got.miss_common, got.s0) == ((True, 0) if hit is None else (False, hit))
        assert sorted(cb.common._pages) == [(0, p) for p in range(pages)]
        assert cb.priv_x.pages_drawn == cb.priv_y.pages_drawn == 1

    def test_pickled_codebook_redraws_identical_common_pages(self):
        cb = common_paged_codebook()
        before = pickle.loads(pickle.dumps(cb))
        cb.common[0, PAGE_ROWS + 5]
        cb.priv_x[PAGE_ROWS + 5]
        after = pickle.loads(pickle.dumps(cb))
        assert after.common.pages_drawn == 0 and after.priv_x.pages_drawn == 0
        assert after.priv_x.parent is after.common and after.common.budget is after.priv_x.budget
        assert after.common.budget.used == 0
        whole = np.asarray(cb.common)
        for copy in (before, after):
            assert np.array_equal(np.asarray(copy.common), whole)
            assert np.array_equal(copy.priv_x[PAGE_ROWS + 5], cb.priv_x[PAGE_ROWS + 5])


class TestIndexDraws:
    def test_sorted_search_agrees_with_bisect_everywhere(self):
        types = [(c, 9 - c) for c in range(2, 8)]
        table = TypeTable(types, 9)
        cum = np.asarray(table.cum, dtype=np.int64)
        u = np.arange(table.total)
        got = np.searchsorted(cum, u, side="right")
        want = [bisect.bisect_right(table.cum, int(v)) for v in u]
        assert got.tolist() == want

    def test_int64_draws_cover_the_table(self):
        table = TypeTable([(c, 9 - c) for c in range(2, 8)], 9)
        idx = table.draw_indices(np.random.default_rng(0), 20_000)
        assert idx.dtype.kind == "i"
        assert set(idx.tolist()) == set(range(len(table.types)))
        # class sizes C(9, c) for c = 2..7 over their sum
        weights = np.array([math.comb(9, c) for c in range(2, 8)], dtype=float)
        expected = 20_000 * weights / weights.sum()
        assert stats.chisquare(np.bincount(idx), expected).pvalue > 1e-4

    def test_totals_beyond_int64_take_the_big_integer_path(self, monkeypatch):
        table = TypeTable([(c, 70 - c) for c in range(71)], 70)
        assert table.total == 2 ** 70
        made = []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                made.append(seed)
                super().__init__(seed)

        monkeypatch.setattr("gwrdp.codec.random.Random", CountingRandom)
        a = table.draw_indices(np.random.default_rng(5), 500)
        b = table.draw_indices(np.random.default_rng(5), 500)
        assert len(made) == 2
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < len(table.types)
        # binomial(70, 1/2) mass sits near the middle
        assert 30 <= np.median(a) <= 40


def test_version_matches_pyproject():
    meta = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert meta["project"]["version"] == gwrdp.__version__
