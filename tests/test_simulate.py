import dataclasses
import json
import logging
import math
import pickle
import re

import numpy as np
import pytest
from scipy import stats

import gwrdp.simulate
from gwrdp.codec import compute_code_sizes, decode, encode, encode_batch, generate_codebook
from gwrdp.derandom import build_seed_map
from gwrdp.prob import JointPmf, Kernel, tv_distance
from gwrdp.region import AuxChannel, Budgets, rate_triple_for_aux
from gwrdp.simulate import (
    MODES,
    ResourceCapError,
    SimConfig,
    _run_trials,
    _TrialBatch,
    run_simulation,
    wilson_halfwidth,
)

from oracles import hamming_tv_problem

UNIFORM4 = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
IDENTITY_TC = Kernel(np.eye(2).reshape(2, 1, 2))
SOFT_TC = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))


def cfg(**kw):
    base = dict(p_xy=UNIFORM4, aux=AuxChannel.independent(2, 2),
                test_channel_x=SOFT_TC, test_channel_y=SOFT_TC,
                n=8, delta=0.3, trials=400, master_seed=1,
                budgets=Budgets(0.3, 0.3, 0.5, 0.5))
    base.update(kw)
    return SimConfig(**base)


def exact_small_instance(seed):
    """Exhaustive oracle at n=2, uniform pair, identity test channels,
    delta=1: enumerate all 16 source pairs and both shift seeds for one
    generated codebook and average the codec outputs exactly."""
    from gwrdp.codec import compute_code_sizes, decode, encode, encode_batch, generate_codebook

    q_xyw = UNIFORM4.extend(AuxChannel.independent(2, 2).kernel, "W")
    sizes = compute_code_sizes(q_xyw, IDENTITY_TC, IDENTITY_TC, 2, 1.0)
    ham = np.array([[0.0, 1.0], [1.0, 0.0]])
    cb = generate_codebook(q_xyw, IDENTITY_TC, IDENTITY_TC, (ham, ham), sizes, 1.0, 2, seed)
    cb = dataclasses.replace(cb, thresholds=(0.5, 0.5))
    dist = 0.0
    miss0 = 0.0
    marg = np.zeros((2, 2))
    for xs0 in range(2):
        for xs1 in range(2):
            for ys0 in range(2):
                for ys1 in range(2):
                    xs = np.array([xs0, xs1])
                    ys = np.array([ys0, ys1])
                    for k in (0, 1):
                        enc = encode(cb, xs, ys, k)
                        xh, _ = decode(cb, enc.s0, enc.s1, enc.s2, k)
                        dist += (xs != xh).mean() / 32.0
                        miss0 += enc.miss_common / 32.0
                        for t in range(2):
                            marg[t, xh[t]] += 1.0 / 32.0
    return cb, dist, miss0, marg


class TestExactSmallInstance:
    """n=2, uniform pair, identity test channels, delta=1. Per codebook
    realization, statistics are computed exactly by enumerating all 16
    source pairs and both seeds. Two checks: the Monte Carlo harness must
    reproduce its own codebook's exact values within sampling error, and
    averaging the exact values over many codebook draws must approach the
    ensemble closed forms (miss rate 4/16; mean distortion 1/3, since a
    drawn codeword qualifies unless it is the bitwise complement and the
    first qualifying draw is exact with probability 1/3)."""

    @pytest.fixture(scope="class")
    @staticmethod
    def report():
        c = cfg(n=2, delta=1.0, trials=10_000,
                test_channel_x=IDENTITY_TC, test_channel_y=IDENTITY_TC,
                budgets=Budgets(0.0, 0.0, 0.5, 0.5))
        return run_simulation(c)

    def test_sizes_from_formula(self, report):
        # M0: I(X,Y;W)=0 and H(W)=H(W|XY)=0; M1: 2^(2*(1 + 2*1*(1+1)))
        assert report.sizes == (1, 1024, 1024)

    def test_harness_matches_exhaustive_oracle(self, report):
        _, dist, miss0, marg = exact_small_instance(seed=1)
        assert report.x.mean_distortion == pytest.approx(dist, abs=0.02)
        assert report.freq_no_common_codeword == pytest.approx(miss0, abs=0.02)
        np.testing.assert_allclose(report.x.marginals, marg, atol=0.02)

    def test_miss_rate_is_codebook_free(self, report):
        # joint typicality of the pair does not involve private codewords
        assert report.freq_no_common_codeword == pytest.approx(0.25, abs=0.015)

    def test_positions_have_identical_marginals(self, report):
        # the uniform shift equalizes positions even for one codebook
        np.testing.assert_allclose(report.x.marginals[0], report.x.marginals[1],
                                   atol=0.02)

    def test_codebook_ensemble_matches_closed_form(self):
        dists, margs = [], []
        for seed in range(60):
            _, dist, _, marg = exact_small_instance(seed)
            dists.append(dist)
            margs.append(marg)
        assert np.mean(dists) == pytest.approx(1 / 3, abs=0.02)
        np.testing.assert_allclose(np.mean(margs, axis=0), 0.5, atol=0.05)


class TestDeterminism:
    def test_rerun_identical(self):
        a = run_simulation(cfg())
        b = run_simulation(cfg())
        assert a.to_dict() == b.to_dict()

    def test_parallel_identical(self):
        a = run_simulation(cfg())
        c = run_simulation(cfg(), parallel=3)
        assert a.to_dict() == c.to_dict()

    def test_seed_changes_output(self):
        a = run_simulation(cfg())
        b = run_simulation(cfg(master_seed=2))
        assert a.to_dict() != b.to_dict()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("trials", [255, 257, 513])
    def test_parallel_identical_across_chunk_boundaries(self, trials, mode):
        # later workers' spans start inside a block of the serial run
        config = cfg(trials=trials, mode=mode)
        serial = run_simulation(config).to_dict()
        for parallel in (2, 3):
            assert run_simulation(config, parallel=parallel).to_dict() == serial

    def test_readme_two_symbol_w_instance_parallel_identical(self):
        # README's example: every worker draws its own common pages, each
        # keyed by its index, so the reports match the serial run's
        rows = np.array([[0.6, 0.4], [0.5, 0.5], [0.5, 0.5], [0.4, 0.6]])
        p_xy, aux = dsbs(0.25), AuxChannel(Kernel(rows.reshape(2, 2, 2)))
        budgets = Budgets(0.3, 0.3, 0.1, 0.1)
        pt = rate_triple_for_aux(hamming_tv_problem(p_xy), aux, budgets)
        config = SimConfig(p_xy=p_xy, aux=aux, test_channel_x=pt.test_channel_x,
                           test_channel_y=pt.test_channel_y, n=32, delta=0.05, trials=2000,
                           master_seed=0, budgets=budgets, mode="deterministic",
                           memory_cap=2 ** 26)
        serial = run_simulation(config)
        assert serial.sizes[0] == 130 and 0 < serial.freq_no_common_codeword < 1
        for parallel in (2, 3):
            assert run_simulation(config, parallel=parallel).to_dict() == serial.to_dict()

    @pytest.mark.parametrize("mode", MODES)
    def test_spans_cut_inside_blocks_match_one_span(self, mode):
        # a span draws whole 256-trial blocks and keeps its own rows
        config = cfg(trials=600, mode=mode)
        q_xyw = config.p_xy.extend(config.aux.kernel, "W")
        sizes = compute_code_sizes(q_xyw, config.test_channel_x, config.test_channel_y,
                                   config.n, config.delta)
        codebook = generate_codebook(q_xyw, config.test_channel_x, config.test_channel_y,
                                     (config.delta_x_mat.values, config.delta_y_mat.values),
                                     sizes, config.delta, config.n, config.master_seed)
        seed_map = (build_seed_map(config.p_xy, config.tail_length(), config.n)
                    if mode == "deterministic" else None)
        whole = _run_trials(config, codebook, seed_map, 0, 600)
        cuts = [0, 1, 255, 256, 300, 513, 600]
        merged = _TrialBatch.merge([_run_trials(config, codebook, seed_map, a, b)
                                    for a, b in zip(cuts, cuts[1:])])
        for name in ("dist", "head", "miss"):
            np.testing.assert_array_equal(getattr(merged, name), getattr(whole, name))
        for got, want in zip(merged.hist, whole.hist):
            np.testing.assert_array_equal(got, want)


class TestSelfCodingSanity:
    def test_codebook_source_roundtrip(self):
        c = cfg(trials=1)
        report = run_simulation(c)
        assert report.x.mean_distortion <= 1.0
        # thresholds come from the configured test channels
        q_xyw = c.p_xy.extend(c.aux.kernel, "W")
        sizes = compute_code_sizes(q_xyw, c.test_channel_x, c.test_channel_y, c.n, c.delta)
        thr_x, thr_y = generate_codebook(q_xyw, c.test_channel_x, c.test_channel_y,
                                         (c.delta_x_mat.values, c.delta_y_mat.values),
                                         sizes, c.delta, c.n, c.master_seed).thresholds
        assert report.x.threshold == pytest.approx(thr_x)
        assert thr_x == pytest.approx(0.25 + 0.15)

    def test_distortion_below_threshold_when_no_miss(self):
        report = run_simulation(cfg(trials=2000))
        if report.x.freq_no_codeword == 0.0:
            assert report.x.mean_distortion <= report.x.threshold + 1e-12


class TestPerceptionMechanism:
    def test_positer_marginals_agree_across_positions(self):
        report = run_simulation(cfg(trials=4000))
        counts = np.rint(report.x.marginals * report.trials).astype(int)
        _, p_value, _, _ = stats.chi2_contingency(counts)
        assert p_value > 0.01

    def test_codeword_level_tv_bound(self):
        # average codeword type within delta of the target marginal (exact)
        c = cfg()
        report = run_simulation(c, parallel=1)
        from gwrdp.codec import generate_codebook, compute_code_sizes
        q_xyw = c.p_xy.extend(c.aux.kernel, "W")
        sizes = compute_code_sizes(q_xyw, c.test_channel_x, c.test_channel_y,
                                   c.n, c.delta)
        cb = generate_codebook(q_xyw, c.test_channel_x, c.test_channel_y,
                               (c.delta_x_mat.values, c.delta_y_mat.values),
                               sizes, c.delta, c.n, c.master_seed)
        q_xt = cb.priv_x.joint.sum(axis=1)
        mean_type = np.stack([np.bincount(cw, minlength=2) / c.n
                              for cw in cb.priv_x[0]]).mean(axis=0)
        assert tv_distance(mean_type, q_xt) <= c.delta + 1e-12

    def test_tv_excess_uses_budget(self):
        report = run_simulation(cfg(trials=2000))
        assert report.x.max_tv_excess(report.budgets.p1) == pytest.approx(
            float(report.x.tv.max() - report.budgets.p1))


class TestDeterministicMode:
    def test_head_distortion_matches_cr_mode(self):
        base = cfg(trials=3000, n=8)
        cr = run_simulation(base)
        det = run_simulation(cfg(trials=3000, n=8, mode="deterministic"))
        width = 2 * (cr.x.stderr_distortion + det.x.stderr_distortion) + 1e-3
        assert abs(det.x.mean_distortion_head - cr.x.mean_distortion) <= width

    def test_overhead_reported_exactly(self):
        det = run_simulation(cfg(trials=50, n=8, mode="deterministic"))
        assert det.n0 == 3
        assert det.seed_overhead == pytest.approx(math.log2(8) / (8 + 3))
        m0, m1, m2 = det.sizes
        assert det.rates[1] == pytest.approx(math.log2(m1) / 8 + det.seed_overhead)

    def test_full_block_distortion_includes_tail(self):
        det = run_simulation(cfg(trials=3000, n=8, mode="deterministic"))
        assert det.x.mean_distortion >= det.x.mean_distortion_head - 1e-12


class TestCapsAndErrors:
    def test_memory_cap_rejection_before_running(self):
        # private layers of 2**88.9 codewords, but a cap below one page each
        with pytest.raises(ResourceCapError, match=r"needs at least \d+ symbols, cap is 10000"):
            run_simulation(cfg(n=64, delta=0.3, memory_cap=10_000))

    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(trials=0)
        with pytest.raises(ValueError):
            cfg(n=1)
        with pytest.raises(ValueError):
            cfg(mode="nope")
        with pytest.raises(ValueError, match="n must lie"):
            cfg(n=2 ** 32 + 1)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="master_seed"):
                cfg(master_seed=seed)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_memory_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match=f"memory_cap must be at least 1, got {cap}"):
            cfg(memory_cap=cap)

    def test_tail_longer_than_block_rejected_before_running(self):
        # the deterministic tail copies its n0 symbols from the head
        with pytest.raises(ValueError, match="n0=9"):
            cfg(n=8, mode="deterministic", n0=9)


class TestPageLog:
    def test_pages_drawn_logged_outside_the_report(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="gwrdp.simulate"):
            serial = run_simulation(cfg(trials=300))
            parallel = run_simulation(cfg(trials=300), parallel=2)
        lines = [r.getMessage() for r in caplog.records if r.name == "gwrdp.simulate"]
        assert len(lines) == 2
        counts = [re.fullmatch(r"private pages drawn: x (\d+) \((\d+) codewords\), "
                               r"y (\d+) \((\d+) codewords\)", line) for line in lines]
        assert all(counts)
        # sizes (M0, M1, M2) with M1, M2 below one page: one page per common
        # index the serial run touched, drawn again by each worker that needs it
        x_pages, x_words, y_pages, y_words = map(int, counts[0].groups())
        assert 1 <= x_pages <= serial.sizes[0] and x_words == x_pages * serial.sizes[1]
        assert 1 <= y_pages <= serial.sizes[0] and y_words == y_pages * serial.sizes[2]
        assert int(counts[1].group(1)) >= x_pages
        assert serial.to_dict() == parallel.to_dict()
        assert "pages" not in json.dumps(serial.to_dict())


class TestBatchedTrials:
    @pytest.mark.parametrize("mode", MODES)
    def test_pages_and_indices_match_a_per_trial_loop(self, monkeypatch, mode):
        # |W| = 2 at n = 16: two common indices in use, private layers of
        # two pages each, scans that hit on either page or miss
        tc = Kernel(np.repeat([[[0.85, 0.15]], [[0.15, 0.85]]], 2, axis=1))
        aux = AuxChannel(Kernel(np.array([[0.75, 0.25], [0.5, 0.5], [0.5, 0.5],
                                          [0.25, 0.75]]).reshape(2, 2, 2)))
        config = cfg(aux=aux, test_channel_x=tc, test_channel_y=tc, n=16, delta=0.1,
                     trials=300, mode=mode)
        batches = []
        real = gwrdp.simulate.encode_batch

        def spy(codebook, xs, ys, ks):
            out = real(codebook, xs, ys, ks)
            batches.append((codebook, xs, ys, np.array(ks), out))
            return out

        monkeypatch.setattr("gwrdp.simulate.encode_batch", spy)
        run_simulation(config)
        codebook = batches[0][0]
        loop = pickle.loads(pickle.dumps(codebook))   # same codewords, no pages drawn
        assert loop.priv_x.pages_drawn == 0
        for _, xs, ys, ks, (s0, s1, s2, miss) in batches:
            for i, k in enumerate(ks.tolist()):
                enc = encode(loop, xs[i], ys[i], k)
                assert dataclasses.astuple(enc) == (s0[i], s1[i], s2[i], *miss[:, i])
                decode(loop, enc.s0, enc.s1, enc.s2, k)
        assert sum(len(b[3]) for b in batches) == 300
        assert len({int(s) for b in batches for s in b[4][0]}) >= 2
        for layer in ("priv_x", "priv_y"):
            drawn, want = getattr(codebook, layer), getattr(loop, layer)
            assert drawn._pages.keys() == want._pages.keys()
            assert drawn.codewords_drawn == want.codewords_drawn
            # some scan crossed into a row's second page, and some row's did not
            rows = {s0 for s0, _ in drawn._pages}
            assert {p for _, p in drawn._pages} == {0, 1} and len(drawn._pages) < 2 * len(rows)


def dsbs(a):
    return JointPmf([[0.5 * (1 - a), 0.5 * a], [0.5 * a, 0.5 * (1 - a)]], ("X", "Y"))


class TestJointSetEmpty:
    """The report says when the joint (x, y, w) typical set is empty, so an
    all-miss common layer is not mistaken for a measured miss rate."""

    @staticmethod
    def simulate(p_xy, aux, n, delta, trials, budgets):
        pt = rate_triple_for_aux(hamming_tv_problem(p_xy), aux, budgets)
        return run_simulation(SimConfig(
            p_xy=p_xy, aux=aux, test_channel_x=pt.test_channel_x,
            test_channel_y=pt.test_channel_y, n=n, delta=delta, trials=trials,
            master_seed=3, budgets=budgets, memory_cap=2 ** 26))

    def test_two_symbol_w_instance_is_not_vacuous(self):
        # the benchmark's sim-common instance: |W| = 2, sizes (130, 650, 650)
        rows = np.array([[0.6, 0.4], [0.5, 0.5], [0.5, 0.5], [0.4, 0.6]])
        report = self.simulate(dsbs(0.25), AuxChannel(Kernel(rows.reshape(2, 2, 2))),
                               32, 0.05, 2500, Budgets(0.3, 0.3, 0.1, 0.1))
        assert report.sizes == (130, 650, 650)
        assert not report.joint_set_empty
        assert 0.0 < report.freq_no_common_codeword < 1.0
        assert report.to_dict()["joint_set_empty"] is False

    def test_dsbs_witness_at_16_is_empty(self):
        # 0.05 * 16 * (1 +- 0.15) holds no integer
        report = self.simulate(dsbs(0.1), AuxChannel.independent(2, 2), 16, 0.15, 200,
                               Budgets(0.4, 0.4, 0.1, 0.1))
        assert report.joint_set_empty
        assert report.freq_no_common_codeword == 1.0
        assert report.to_dict()["joint_set_empty"] is True


class TestKnownFailureFamilies:
    """Runs that a fix should turn into unexpected passes, which fail."""

    @pytest.mark.xfail(strict=True, raises=ResourceCapError,
                       reason="a private scan no codeword can serve draws pages until the "
                              "memory cap; no type-level check reports the miss first")
    def test_private_miss_no_codeword_can_serve(self):
        # the |W| = 1 corner of the CLI tests' grid region, simulated at
        # n = 16: trial 159's y has 2 ones against 6-10 in every band
        # codeword, so its least distortion 4/16 is above the threshold;
        # no earlier trial of seed 4 trips the cap
        budgets = Budgets(0.1, 0.1, 0.6, 0.6)
        p_xy, aux = dsbs(0.1), AuxChannel.independent(2, 2)
        pt = rate_triple_for_aux(hamming_tv_problem(p_xy), aux, budgets)
        config = SimConfig(p_xy=p_xy, aux=aux, test_channel_x=pt.test_channel_x,
                           test_channel_y=pt.test_channel_y, n=16, delta=0.3, trials=160,
                           master_seed=4, budgets=budgets)
        try:
            report = run_simulation(config)
        except ResourceCapError as err:
            # the scan draws the pages it always drew, so the cap trips where it did
            assert "codebook would hold 16777232 symbols" in str(err)
            raise
        assert report.x.freq_no_codeword > 0

    @pytest.mark.xfail(strict=True, raises=ResourceCapError,
                       reason="a private scan no codeword can serve draws pages until the "
                              "memory cap; no type-level check reports the miss first")
    def test_private_miss_no_codeword_can_serve_direct(self):
        # the run above, without its draws: an all-zero x has no ones
        # against 6-10 in every band codeword of the seed-4 codebook, so its
        # least distortion is above the threshold
        budgets = Budgets(0.1, 0.1, 0.6, 0.6)
        p_xy, aux = dsbs(0.1), AuxChannel.independent(2, 2)
        pt = rate_triple_for_aux(hamming_tv_problem(p_xy), aux, budgets)
        q_xyw = p_xy.extend(aux.kernel, "W")
        tcs = (pt.test_channel_x, pt.test_channel_y)
        sizes = compute_code_sizes(q_xyw, *tcs, 16, 0.3)
        ham = np.array([[0.0, 1.0], [1.0, 0.0]])
        codebook = generate_codebook(q_xyw, *tcs, (ham, ham), sizes, 0.3, 16, 4,
                                     memory_cap=gwrdp.simulate.DEFAULT_MEMORY_CAP)
        zeros = np.zeros((1, 16), dtype=np.int64)
        try:
            *_, miss = encode_batch(codebook, zeros, zeros, [0])
        except ResourceCapError as err:
            assert "codebook would hold 16777232 symbols" in str(err)
            raise
        assert miss[1, 0]


class TestWilson:
    def test_halfwidth_formula(self):
        # against the standard closed form at p=0.5, n=100, z=1.96
        z, n, p = 1.96, 100, 0.5
        want = (z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))) / (1 + z * z / n)
        assert wilson_halfwidth(p, n, z) == pytest.approx(want, abs=1e-15)

    def test_shrinks_with_n(self):
        assert wilson_halfwidth(0.3, 10_000) < wilson_halfwidth(0.3, 100)
