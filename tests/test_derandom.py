import dataclasses
import logging
import re
import signal
import tracemalloc

import numpy as np
import pytest

import gwrdp.derandom
from gwrdp.codec import Kernel, ResourceCapError, compute_code_sizes, encode, generate_codebook
from gwrdp.derandom import (
    SeedMapError,
    _pour,
    build_seed_map,
    default_tail_length,
    deterministic_decode,
    deterministic_encode,
    seed_rate_overhead,
)
from gwrdp.prob import JointPmf
from gwrdp.solver import hamming
from oracles import greedy_pour_counts, greedy_seed_assignment, level_order_assignment

HAM = hamming(2)


def dsbs(a):
    return JointPmf([[0.5 * (1 - a), 0.5 * a], [0.5 * a, 0.5 * (1 - a)]], ("X", "Y"))


UNIFORM4 = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))
# distinct symbol probabilities, and a 2x3 pmf with two equal ones; the
# np.kron floats of their atoms split and merge symbol-count classes
DISTINCT4 = JointPmf([[0.1, 0.2], [0.3, 0.4]], ("X", "Y"))
TIED6 = JointPmf([[0.3, 0.05, 0.15], [0.1, 0.25, 0.15]], ("X", "Y"))
# six distinct symbol probabilities: no level of 4 symbols has more than 4! atoms
DISTINCT6 = JointPmf([[0.3, 0.05, 0.14], [0.1, 0.25, 0.16]], ("X", "Y"))
DIRICHLET9 = JointPmf(np.random.default_rng(3).dirichlet(np.ones(9)).reshape(3, 3), ("X", "Y"))


def _rounded_dirichlet(seed):
    """A 2x2 pmf rounded to one or two decimals, so symbols tie, with a
    seeded n0 and n."""
    rng = np.random.default_rng(seed)
    q = np.round(rng.dirichlet(np.ones(4)), 1 if seed % 2 else 2)
    return (JointPmf((q / q.sum()).reshape(2, 2), ("X", "Y")),
            int(rng.integers(5, 9)), int(rng.integers(2, 64)))


# every atom with a 1e-20 symbol lies far below the spacing of floats near
# 1/n, so adding it to a bin mass leaves the mass unchanged
ABSORBED = JointPmf([[0.5, 1e-20], [1e-20, 0.5 - 2e-20]], ("X", "Y"))
ZEROS = JointPmf([[0.5, 0.0], [0.25, 0.25]], ("X", "Y"))

LEVEL_CASES = [
    ("uniform-single-run", UNIFORM4, 8, 32),
    ("uniform-single-run-n5", UNIFORM4, 8, 5),
    ("dsbs-0.25", dsbs(0.25), 8, 32),
    ("zeros-n3", ZEROS, 8, 3),
    ("zeros-n16", ZEROS, 8, 16),
    ("absorbed-n3", ABSORBED, 8, 3),
    ("absorbed-n4", ABSORBED, 8, 4),
    ("absorbed-n8", ABSORBED, 8, 8),
    ("uniform-n2", UNIFORM4, 7, 2),
] + [(f"rounded-dirichlet-{seed}", *_rounded_dirichlet(seed)) for seed in range(20)]


def kron_power(flat, n0):
    """Every atom's probability as np.kron forms it, in atom index order."""
    probs = flat
    for _ in range(n0 - 1):
        probs = np.kron(probs, flat)
    return probs


def symbol_counts(flat, n0):
    """(distinct symbol probabilities, atoms): how often each atom's symbols
    take each distinct probability."""
    symbol = np.unique(flat, return_inverse=True)[1].reshape(-1)
    digits = symbol[np.indices((flat.size,) * n0).reshape(n0, -1)]   # (n0, atoms)
    return np.stack([np.sum(digits == s, axis=0) for s in range(symbol.max() + 1)])


def record_pours(monkeypatch):
    """Every level build_seed_map pours, as (bin masses before, k, p, counts)."""
    calls = []
    pour = gwrdp.derandom._pour

    def recording(masses, k, p):
        before = masses.copy()
        counts = pour(masses, k, p)
        calls.append((before, int(k), float(p), counts))
        return counts

    monkeypatch.setattr(gwrdp.derandom, "_pour", recording)
    return calls


class TestBuild:
    def test_uniform_two_bins(self):
        sm = build_seed_map(UNIFORM4, 1, 2)
        np.testing.assert_allclose(sm.bin_masses, [0.5, 0.5], atol=1e-15)
        assert sm.max_deviation <= sm.p_max
        assert sm.p_max == 0.25

    def test_uniform_one_atom_per_bin(self):
        sm = build_seed_map(UNIFORM4, 1, 4)
        np.testing.assert_allclose(sm.bin_masses, np.full(4, 0.25), atol=1e-15)
        assert sm.max_deviation == 0.0

    def test_dsbs_exhaustive_audit(self):
        sm = build_seed_map(dsbs(0.1), 6, 8)
        audit = sm.audit()
        assert audit["atoms"] == 4 ** 6
        assert audit["within_bound"]
        assert sm.p_max == pytest.approx(0.45 ** 6, abs=1e-15)
        # exhaustive recomputation of bin masses from the assignment table
        probs = kron_power(np.asarray(dsbs(0.1).probs).reshape(-1), 6)
        masses = np.zeros(8)
        np.add.at(masses, sm.assignment, probs)
        np.testing.assert_allclose(masses, sm.bin_masses, atol=1e-15)
        assert np.abs(masses - 1 / 8).max() <= 0.45 ** 6

    def test_greedy_gap_bounded_by_largest_atom(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = JointPmf(rng.dirichlet(np.ones(4)).reshape(2, 2), ("X", "Y"))
            n = int(rng.integers(2, 9))
            sm = build_seed_map(p, 4, n)
            gap = sm.bin_masses.max() - sm.bin_masses.min()
            assert gap <= sm.p_max + 1e-15

    def test_too_few_atoms(self):
        with pytest.raises(SeedMapError):
            build_seed_map(UNIFORM4, 1, 5)

    def test_too_few_atoms_names_least_tail_length(self):
        # math.log(125, 5) is 3.0000000000000004, whose ceiling would say 4
        five = JointPmf(np.full((5, 1), 0.2), ("X", "Y"))
        with pytest.raises(SeedMapError, match="need n0 >= 3 "):
            build_seed_map(five, 2, 125)
        assert build_seed_map(five, 3, 125).assignment.shape == (125,)

    def test_atom_cap(self, monkeypatch):
        build_seed_map(UNIFORM4, 5, 4)   # 1,024 atoms fit the default cap
        monkeypatch.setattr(gwrdp.derandom, "_ATOM_CAP", 1000)
        with pytest.raises(ResourceCapError, match=r"4\*\*5 atoms exceed the cap of 1000"):
            build_seed_map(UNIFORM4, 5, 4)

    @pytest.mark.parametrize("n0", [23, 10 ** 9])
    def test_huge_tail_refused_without_counting_atoms(self, n0):
        # 4 ** 10**9 has 6e8 digits: forming it takes seconds, printing it fails
        with pytest.raises(ResourceCapError, match=rf"4\*\*{n0} atoms exceed the cap"):
            build_seed_map(UNIFORM4, n0, 4)

    def test_single_symbol_pair_with_huge_tail(self):
        # one atom whatever n0, so the map must not take n0 steps to build
        def expire(signum, frame):
            raise TimeoutError("build_seed_map with n0 = 10**9 did not return")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            sm = build_seed_map(JointPmf([[1.0]], ("X", "Y")), 10 ** 9, 1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert sm.assignment.tolist() == [0]
        assert sm.bin_masses.tolist() == [1.0]

    def test_default_tail_length(self):
        assert default_tail_length(4, 16) == 4    # 4^4 = 256 >= 256
        assert default_tail_length(4, 8) == 3     # 4^3 = 64 >= 64
        assert default_tail_length(4, 2) == 1

    def test_default_tail_length_rejects_single_symbol_pairs(self):
        # 1 ** n0 never reaches n ** 2, so a search without the check never
        # ends; the alarm turns such a hang into a failure
        def expire(signum, frame):
            raise TimeoutError("default_tail_length(1, 8) did not return")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match="size 1"):
                default_tail_length(1, 8)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_bins_past_the_atom_cap_are_a_resource_refusal(self):
        # 4**11 atoms are one short of the bins, and 4**12 is past the cap
        with pytest.raises(ResourceCapError, match=r"4194305 bins need n0 >= 12, but "
                                                   r"4\*\*12 atoms exceed the cap of 4194304"):
            build_seed_map(UNIFORM4, 11, 4_194_305)

    @pytest.mark.parametrize("p_xy, n0, n", [
        (dsbs(0.25), 7, 32),
        (TIED6, 4, 24),
        (DISTINCT4, 5, 7),
        (DISTINCT6, 4, 24),
    ] + [pytest.param(*case[1:], id=case[0]) for case in LEVEL_CASES])
    def test_assignment_matches_pop_push_loop(self, monkeypatch, p_xy, n0, n):
        # whole levels are poured in float arithmetic, so the map matches the
        # atom-by-atom greedy in its bin masses, not atom for atom
        poured = record_pours(monkeypatch)
        sm = build_seed_map(p_xy, n0, n)
        flat = np.asarray(p_xy.probs).reshape(-1)
        probs = kron_power(flat, n0)
        want = np.bincount(greedy_seed_assignment(flat, n0, n), weights=probs, minlength=n)
        np.testing.assert_allclose(np.sort(sm.bin_masses), np.sort(want), rtol=0, atol=1e-12)
        assert sm.max_deviation <= np.abs(want - 1 / n).max() + 1e-12
        assert sm.max_deviation <= sm.p_max
        np.testing.assert_allclose(np.bincount(sm.assignment, weights=probs, minlength=n),
                                   sm.bin_masses, rtol=0, atol=1e-12)
        # one pour per symbol-count class, whose per-bin counts sum to its size
        classes, sizes = np.unique(symbol_counts(flat, n0), axis=1, return_inverse=True,
                                   return_counts=True)[1:]
        assert sorted(k for _, k, _, _ in poured) == sorted(sizes.tolist())
        assert all(counts.sum() == k for _, k, _, counts in poured)
        # a class's atoms, in index order, take nondecreasing bins
        order = np.argsort(classes.reshape(-1), kind="stable")
        same_class = np.diff(classes.reshape(-1)[order]) == 0
        assert np.all(np.diff(sm.assignment[order].astype(np.int64))[same_class] >= 0)

    @pytest.mark.parametrize("p_xy, n0, split, merged", [
        (DISTINCT4, 5, 28, 29),
        (TIED6, 4, 31, 25),
    ])
    def test_kron_floats_split_and_merge_symbol_count_classes(self, monkeypatch, p_xy, n0,
                                                              split, merged):
        # atoms that hold each symbol probability equally often have one
        # exact probability, but np.kron rounds their products in different
        # orders, and rounding also makes floats of other classes coincide;
        # so the seed map pours one level per class, not per float
        flat = np.asarray(p_xy.probs).reshape(-1)
        probs = kron_power(flat, n0)
        classes = np.unique(symbol_counts(flat, n0), axis=1, return_inverse=True)[1].reshape(-1)
        floats = np.unique(probs, return_inverse=True)[1].reshape(-1)
        pairs = np.unique(np.stack([classes, floats]), axis=1)
        assert np.sum(np.bincount(pairs[0]) > 1) == split    # classes holding two floats
        assert np.sum(np.bincount(pairs[1]) > 1) == merged   # floats of two classes
        poured = record_pours(monkeypatch)
        build_seed_map(p_xy, n0, 8)
        assert len(poured) == classes.max() + 1

    def test_dsbs_4_10_map_peak_memory(self):
        # one byte of map and one of level-major bins per atom, about 2.5
        # MiB with the blocks' scratch; a per-atom int32 rank or position
        # array would add 4 MiB, and a stable sort's int64 order 8 MiB
        tracemalloc.start()
        try:
            build_seed_map(dsbs(0.25), 10, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_distinct_alphabet_peak_memory(self):
        # 100 distinct symbol probabilities give 5,050 levels of two
        # symbols. The tables of prepending a symbol hold one entry per
        # (shorter level, symbol) pair; a dense (longer level, symbol)
        # table and its running sums would take about 8 MiB here
        p_xy = JointPmf(np.random.default_rng(5).dirichlet(np.ones(100)).reshape(10, 10),
                        ("X", "Y"))
        tracemalloc.start()
        try:
            sm = build_seed_map(p_xy, 2, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert np.array_equal(sm.assignment, level_order_assignment(p_xy.probs, 2, 4))

    @pytest.mark.parametrize("p_xy, n0, n", [
        pytest.param(dsbs(0.25), 10, 32, id="dsbs-4^10"),
        pytest.param(dsbs(0.25), 6, 300, id="dsbs-n300-uint16"),
        pytest.param(TIED6, 4, 24, id="tied-2x3"),
        pytest.param(DISTINCT6, 3, 24, id="distinct-2x3"),
        # 9**5 atoms: blocks of two heads over 9**4 tails, the last one short
        pytest.param(DIRICHLET9, 5, 37, id="dirichlet-3x3"),
        pytest.param(JointPmf([[1.0]], ("X", "Y")), 10 ** 9, 1, id="one-symbol"),
    ] + [pytest.param(*case[1:], id=case[0]) for case in LEVEL_CASES])
    def test_assignment_matches_the_level_order_oracle(self, p_xy, n0, n):
        # atom for atom: a level's atoms, in index order, take its bins in order
        sm = build_seed_map(p_xy, n0, n)
        assert sm.assignment.dtype == np.min_scalar_type(n - 1)
        assert np.array_equal(sm.assignment, level_order_assignment(p_xy.probs, n0, n))

    @pytest.mark.parametrize("block", [1, 5, 40])
    @pytest.mark.parametrize("p_xy, n0, n", [
        (dsbs(0.25), 5, 24),
        (TIED6, 3, 24),
        (DIRICHLET9, 3, 37),
    ])
    def test_small_blocks_match_the_oracle(self, monkeypatch, block, p_xy, n0, n):
        # blocks shorter than one symbol's atoms leave no tail, and blocks
        # of a few tails gather several heads at once
        monkeypatch.setattr(gwrdp.derandom, "_BLOCK", block)
        sm = build_seed_map(p_xy, n0, n)
        assert np.array_equal(sm.assignment, level_order_assignment(p_xy.probs, n0, n))

    def test_every_atom_assigned_once(self):
        sm = build_seed_map(dsbs(0.2), 3, 5)
        assert sm.assignment.shape[0] == 4 ** 3
        assert sm.assignment.min() >= 0 and sm.assignment.max() <= 4
        assert np.all(np.bincount(sm.assignment, minlength=5) > 0)


SEED_MAP_LOG = re.compile(r"seed map: (\d+) atoms, (\d+) levels poured; "
                          r"max deviation (\S+), bound (\S+)")


class TestSeedMapLog:
    def test_one_debug_record_per_build(self, caplog, monkeypatch):
        poured = record_pours(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="gwrdp.derandom"):
            sm = build_seed_map(dsbs(0.25), 8, 32)
        lines = [r.getMessage() for r in caplog.records if r.name == "gwrdp.derandom"]
        assert len(lines) == 1
        atoms, levels, dev, bound = SEED_MAP_LOG.fullmatch(lines[0]).groups()
        assert (int(atoms), int(levels)) == (4 ** 8, len(poured)) == (65536, 9)
        assert float(dev) == pytest.approx(sm.max_deviation, rel=1e-6)
        assert float(bound) == pytest.approx(sm.p_max, rel=1e-6)
        assert float(dev) <= float(bound)


class TestPour:
    """One level's water-fill into the bins."""

    @pytest.mark.parametrize("masses, k, p", [
        # dyadic masses and p, so the loop's float sums are exact
        (np.arange(8) / 64, 3, 1 / 128),                    # k < n
        (np.arange(8) / 64, 5, 1 / 4),                      # k < n, p past every gap
        (np.array([3, 0, 5, 0, 1]) / 16, 1000, 1 / 1024),   # k >> n
        (np.array([3, 0, 5, 0, 1]) / 16, 7, 0.0),           # p = 0: the first lightest bin
        (np.full(6, 1 / 8), 20, 1 / 32),                    # ties by bin
        (np.array([1, 2]) / 4, 1, 1 / 2),
    ])
    def test_counts_match_the_one_at_a_time_loop(self, masses, k, p):
        assert np.array_equal(_pour(masses, k, p), greedy_pour_counts(masses, k, p))

    def test_absorbed_atoms_spread_over_the_lightest_bins(self):
        # each atom is far below the float spacing of the masses, so the
        # one-at-a-time loop would leave every mass unchanged and pile all
        # atoms into bin 0; the level shares them as exact arithmetic would
        masses = np.array([85, 86, 85]) / 256
        assert _pour(masses, 2048, 2.0 ** -70).tolist() == [1024, 0, 1024]
        assert _pour(masses, 2049, 2.0 ** -70).tolist() == [1025, 0, 1024]

    def test_every_level_ends_within_p_of_the_lightest_bin(self, monkeypatch):
        poured = record_pours(monkeypatch)
        for p_xy, n0, n in [(ABSORBED, 8, 3), (ZEROS, 8, 16), (dsbs(0.25), 8, 32),
                            (DISTINCT4, 5, 7)]:
            build_seed_map(p_xy, n0, n)
        kinds = set()
        for before, k, p, counts in poured:
            after = before + counts * p
            received = counts > 0
            assert np.all(after[received] - after.min() <= p + 1e-15), (k, p)
            kinds.add("k < n" if k < len(before) else "k >> n" if k >= 10 * len(before)
                      else "k ~ n")
            if p == 0:
                kinds.add("p = 0")
            elif np.all(before[received] + p == before[received]):
                kinds.add("absorbed")
        assert {"k < n", "k >> n", "p = 0", "absorbed"} <= kinds


class TestSeedLookup:
    def test_batched_lookup_covers_every_atom(self):
        # a 2x3 pair alphabet, so swapped digits or a wrong radix show
        p_xy = JointPmf([[0.3, 0.05, 0.15], [0.1, 0.25, 0.15]], ("X", "Y"))
        sm = build_seed_map(p_xy, 3, 5)
        atoms = np.arange(6 ** 3)
        digits = np.stack([atoms // 36, atoms // 6 % 6, atoms % 6], axis=1)
        x_tails, y_tails = digits // 3, digits % 3
        assert np.array_equal(sm.seeds_for_tails(x_tails, y_tails), sm.assignment)
        assert [sm.seed_for_tail(x, y) for x, y in zip(x_tails, y_tails)] == sm.assignment.tolist()

    @pytest.mark.parametrize("x_tail, y_tail", [
        ([0, 0, 0], [0, 0, 2]),    # read as pair digit 2, the tail (0, 0, 1)/(0, 0, 0)
        ([0, -1, 0], [0, 0, 0]),
        ([0, 0, 2], [0, 0, 0]),
        ([0, 0, 0], [-1, 0, 0]),
    ])
    def test_out_of_alphabet_tails_rejected(self, x_tail, y_tail):
        sm = build_seed_map(dsbs(0.2), 3, 5)
        with pytest.raises(ValueError, match="outside"):
            sm.seed_for_tail(np.array(x_tail), np.array(y_tail))
        good = np.zeros((2, 3), dtype=int)
        with pytest.raises(ValueError, match="outside"):
            sm.seeds_for_tails(np.vstack([good, x_tail]), np.vstack([good, y_tail]))

    @pytest.mark.parametrize("x_tail, y_tail", [
        ([0, 0.7, 0], [0, 0, 0]),        # a cast to int would read symbol 0
        ([0, 0, 0], [1.0, 0.0, 1.0]),    # integer values in a float array
        ([0, 0, 0], [True, False, True]),
    ])
    def test_non_integer_tails_rejected(self, x_tail, y_tail):
        sm = build_seed_map(dsbs(0.2), 3, 5)
        with pytest.raises(ValueError, match="must be integers"):
            sm.seed_for_tail(np.array(x_tail), np.array(y_tail))
        with pytest.raises(ValueError, match="must be integers"):
            sm.seeds_for_tails(np.array([x_tail]), np.array([y_tail]))


def tiny_system(n=8, delta=0.3, seed=2):
    p_xy = UNIFORM4
    q_xyw = p_xy.extend(Kernel(np.ones((2, 2, 1))), "W")
    tc = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
    sizes = compute_code_sizes(q_xyw, tc, tc, n, delta)
    cb = generate_codebook(q_xyw, tc, tc, (HAM, HAM), sizes, delta, n, seed)
    cb = dataclasses.replace(cb, thresholds=(0.5, 0.5))
    sm = build_seed_map(p_xy, default_tail_length(4, n), n)
    return cb, sm


class TestDeterministicCodec:
    def test_rate_overhead_formula(self):
        assert seed_rate_overhead(16, 4) == pytest.approx(4.0 / 20.0)
        assert seed_rate_overhead(8, 3) == pytest.approx(3.0 / 11.0)

    def test_same_input_same_output(self):
        cb, sm = tiny_system()
        rng = np.random.default_rng(5)
        xs = rng.integers(0, 2, cb.n + sm.n0)
        ys = rng.integers(0, 2, cb.n + sm.n0)
        a, ka = deterministic_encode(cb, sm, xs, ys)
        b, kb = deterministic_encode(cb, sm, xs, ys)
        assert (a, ka) == (b, kb)

    def test_tail_in_same_bin_gives_same_messages(self):
        cb, sm = tiny_system()
        rng = np.random.default_rng(6)
        xs = rng.integers(0, 2, cb.n + sm.n0)
        ys = rng.integers(0, 2, cb.n + sm.n0)
        _, k0 = deterministic_encode(cb, sm, xs, ys)
        # find another tail mapping to the same bin and splice it in
        base = deterministic_encode(cb, sm, xs, ys)[0]
        found = False
        for atom in range(4 ** sm.n0):
            if sm.assignment[atom] != k0:
                continue
            digits = []
            rem = atom
            for _ in range(sm.n0):
                digits.append(rem % 4)
                rem //= 4
            digits = digits[::-1]
            x_tail = np.array([d // 2 for d in digits])
            y_tail = np.array([d % 2 for d in digits])
            xs2 = np.concatenate([xs[:cb.n], x_tail])
            ys2 = np.concatenate([ys[:cb.n], y_tail])
            enc2, k2 = deterministic_encode(cb, sm, xs2, ys2)
            assert k2 == k0
            assert (enc2.s0, enc2.s1, enc2.s2) == (base.s0, base.s1, base.s2)
            found = True
            break
        assert found

    def test_seed_matches_head_only_encoding(self):
        cb, sm = tiny_system()
        rng = np.random.default_rng(7)
        xs = rng.integers(0, 2, cb.n + sm.n0)
        ys = rng.integers(0, 2, cb.n + sm.n0)
        enc, k_sim = deterministic_encode(cb, sm, xs, ys)
        direct = encode(cb, xs[:cb.n], ys[:cb.n], k_sim)
        assert (enc.s0, enc.s1, enc.s2) == (direct.s0, direct.s1, direct.s2)

    def test_decode_tail_copies_head_prefix(self):
        cb, sm = tiny_system()
        xr, yr = deterministic_decode(cb, 0, 1, 2, 3, sm.n0)
        assert xr.shape[0] == cb.n + sm.n0
        np.testing.assert_array_equal(xr[cb.n:], xr[:sm.n0])
        np.testing.assert_array_equal(yr[cb.n:], yr[:sm.n0])

    def test_decode_zero_tail_matches_randomized(self):
        cb, _ = tiny_system()
        from gwrdp.codec import decode
        a, b = deterministic_decode(cb, 0, 1, 2, 3, 0)
        xh, yh = decode(cb, 0, 1, 2, 3)
        np.testing.assert_array_equal(a, xh)
        np.testing.assert_array_equal(b, yh)

    def test_seed_out_of_range(self):
        cb, sm = tiny_system()
        with pytest.raises(IndexError):
            deterministic_decode(cb, 0, 0, 0, cb.n, sm.n0)

    def test_batch_seed_out_of_range_names_the_first_bad_block(self):
        # the error once formatted the whole seed array over several lines
        cb, sm = tiny_system()
        seeds = np.arange(300) % cb.n
        seeds[[7, 100]] = [-1, cb.n]
        zeros = np.zeros(300, dtype=int)
        with pytest.raises(IndexError) as err:
            deterministic_decode(cb, zeros, zeros, zeros, seeds, sm.n0)
        assert str(err.value) == f"seed -1 of block 7 outside [0, {cb.n - 1}]"

    def test_length_mismatch(self):
        cb, sm = tiny_system()
        with pytest.raises(ValueError):
            deterministic_encode(cb, sm, np.zeros(cb.n, dtype=int), np.zeros(cb.n, dtype=int))
