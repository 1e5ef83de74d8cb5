import itertools
import math

import numpy as np
import pytest
from scipy import stats

from gwrdp.codec import (
    AlphabetError,
    Codebook,
    EmptyTypicalSetError,
    TypicalSetSpec,
    ShiftSeed,
    circular_shift,
    compute_code_sizes,
    count_bounds,
    decode,
    encode,
    generate_codebook,
    is_cond_typical,
    is_jointly_typical,
    is_typical,
    per_letter_distortion,
    rejection_sample_typical,
    sample_uniform_cond_typical,
    sample_uniform_typical,
    shift_position,
)
from gwrdp.prob import JointPmf, Kernel, empirical_type
from gwrdp.solver import hamming

HAM = hamming(2)


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

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            ShiftSeed(k=5, n=5)
        assert ShiftSeed(k=4, n=5).k == 4


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
    return generate_codebook(q_xyw, tc, tc, sizes, delta, n, seed), q_xyw, tc


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
        assert all(is_typical(w, w_spec) for w in cb.common)
        for i in range(cb.common.shape[0]):
            assert all(is_cond_typical(c, cb.common[i], cb.joint_xt_w, cb.delta)
                       for c in cb.priv_x[i])
            assert all(is_cond_typical(c, cb.common[i], cb.joint_yt_w, cb.delta)
                       for c in cb.priv_y[i])

    def test_single_codeword_chain(self):
        p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
        q_xyw = p_xy.extend(Kernel(np.ones((2, 2, 1))), "W")
        tc = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
        sizes = compute_code_sizes(q_xyw, tc, tc, 8, 0.3)
        forced = type(sizes)(m0=1, m1=1, m2=1, slack_w=sizes.slack_w,
                             slack_x=sizes.slack_x, slack_y=sizes.slack_y,
                             i_pair_w=sizes.i_pair_w, i_x=sizes.i_x, i_y=sizes.i_y,
                             n=8, delta=0.3)
        cb = generate_codebook(q_xyw, tc, tc, forced, 0.3, 8, seed=1)
        assert cb.sizes == (1, 1, 1)
        assert is_cond_typical(cb.priv_x[0, 0], cb.common[0], cb.joint_xt_w, 0.3)

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
            generate_codebook(q_xyw, tc_x, tc_y, sizes, 0.3, 8, seed=1)

    def test_json_roundtrip(self):
        cb, _, _ = small_codebook(n=8, delta=0.3)
        back = Codebook.from_json(cb.to_json())
        assert np.array_equal(back.priv_x, cb.priv_x)
        assert back.n == cb.n and back.delta == cb.delta


class TestEncodeDecode:
    def test_self_encoding_succeeds(self):
        cb, _, _ = small_codebook()
        rng = np.random.default_rng(0)
        # use an actual codeword pair as the source so a perfect match exists
        xs = cb.priv_x[0, 3].astype(np.int64)
        ys = cb.priv_y[0, 5].astype(np.int64)
        enc = encode(cb, xs, ys, 0, HAM, HAM, 0.5, 0.5)
        assert not enc.miss_x and not enc.miss_y
        assert per_letter_distortion(HAM, xs, cb.priv_x[enc.s0, enc.s1]) <= 0.5

    def test_forced_fallback_flags(self):
        p_xy = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
        q_xyw = p_xy.extend(Kernel(np.ones((2, 2, 1))), "W")
        tc = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
        sizes = compute_code_sizes(q_xyw, tc, tc, 8, 0.3)
        forced = type(sizes)(m0=1, m1=1, m2=1, slack_w=sizes.slack_w,
                             slack_x=sizes.slack_x, slack_y=sizes.slack_y,
                             i_pair_w=sizes.i_pair_w, i_x=sizes.i_x, i_y=sizes.i_y,
                             n=8, delta=0.3)
        cb = generate_codebook(q_xyw, tc, tc, forced, 0.3, 8, seed=1)
        xs = 1 - cb.priv_x[0, 0].astype(np.int64)  # worst-case source
        enc = encode(cb, xs, xs, 0, HAM, HAM, 0.1, 0.1)
        assert enc.s1 == 0 and enc.s2 == 0
        assert enc.miss_x and enc.miss_y

    def test_encoder_depends_only_on_unshifted_pair(self):
        cb, _, _ = small_codebook()
        rng = np.random.default_rng(1)
        xs = rng.integers(0, 2, cb.n)
        ys = rng.integers(0, 2, cb.n)
        for k in range(cb.n):
            xk, yk = circular_shift(k, xs, ys)  # pre-shift so unshift matches
            a = encode(cb, xk, yk, k, HAM, HAM, 0.4, 0.4)
            b = encode(cb, xs, ys, 0, HAM, HAM, 0.4, 0.4)
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

    def test_roundtrip_meets_threshold(self):
        cb, _, _ = small_codebook()
        rng = np.random.default_rng(2)
        for k in (0, 5, 11):
            xs = rng.integers(0, 2, cb.n)
            ys = rng.integers(0, 2, cb.n)
            enc = encode(cb, xs, ys, k, HAM, HAM, 0.6, 0.6)
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

    def test_empirical_type_matches_library_shift(self):
        rng = np.random.default_rng(4)
        seq = rng.integers(0, 3, size=30)
        base = empirical_type(seq, 3)
        for k in range(30):
            assert empirical_type(circular_shift(k, seq), 3) == base
