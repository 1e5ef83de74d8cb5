import dataclasses
import signal

import numpy as np
import pytest

import gwrdp.derandom
from gwrdp.codec import Kernel, ResourceCapError, compute_code_sizes, encode, generate_codebook
from gwrdp.derandom import (
    SeedMapError,
    build_seed_map,
    default_tail_length,
    deterministic_decode,
    deterministic_encode,
    seed_rate_overhead,
)
from gwrdp.prob import JointPmf
from gwrdp.solver import hamming
from oracles import greedy_seed_assignment

HAM = hamming(2)


def dsbs(a):
    return JointPmf([[0.5 * (1 - a), 0.5 * a], [0.5 * a, 0.5 * (1 - a)]], ("X", "Y"))


UNIFORM4 = JointPmf(np.full((2, 2), 0.25), ("X", "Y"))


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

BULK_CASES = [
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
        flat = np.asarray(dsbs(0.1).probs).reshape(-1)
        probs = flat.copy()
        for _ in range(5):
            probs = np.kron(probs, flat)
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

    @pytest.mark.parametrize("p_xy, n0, n", [
        (dsbs(0.25), 7, 32),
        (JointPmf([[0.3, 0.05, 0.15], [0.1, 0.25, 0.15]], ("X", "Y")), 4, 24),
    ] + [pytest.param(*case[1:], id=case[0]) for case in BULK_CASES])
    def test_assignment_matches_pop_push_loop(self, p_xy, n0, n):
        sm = build_seed_map(p_xy, n0, n)
        flat = np.asarray(p_xy.probs).reshape(-1)
        want = greedy_seed_assignment(flat, n0, n)
        assert np.array_equal(sm.assignment, want)
        probs = flat
        for _ in range(n0 - 1):
            probs = np.kron(probs, flat)
        masses = np.zeros(n)
        np.add.at(masses, want, probs)
        assert np.array_equal(sm.bin_masses, masses)

    def test_every_atom_assigned_once(self):
        sm = build_seed_map(dsbs(0.2), 3, 5)
        assert sm.assignment.shape[0] == 4 ** 3
        assert sm.assignment.min() >= 0 and sm.assignment.max() <= 4
        assert np.all(np.bincount(sm.assignment, minlength=5) > 0)


class TestBulkPlacement:
    """Which atoms the bulk step places, and its certificate."""

    def test_bulk_path_places_every_run(self, monkeypatch):
        # every run of DSBS(0.25) with n0 = 8 has at least 256 atoms
        def refuse(heap, item):
            raise AssertionError("an atom went through the heap loop")

        monkeypatch.setattr(gwrdp.derandom.heapq, "heapreplace", refuse)
        sm = build_seed_map(dsbs(0.25), 8, 32)
        want = greedy_seed_assignment(np.asarray(dsbs(0.25).probs).reshape(-1), 8, 32)
        assert np.array_equal(sm.assignment, want)

    @pytest.mark.parametrize("p_xy, n0, n, heap_atoms", [
        # six distinct symbol probabilities: no run has more than 4! atoms,
        # fewer than the bulk step's minimum
        (JointPmf([[0.3, 0.05, 0.14], [0.1, 0.25, 0.16]], ("X", "Y")), 4, 24, 6 ** 4),
        # long runs of absorbed atoms, whose table would need all k columns
        (ABSORBED, 8, 8, 4 ** 8 - 2 ** 8),
    ])
    def test_heap_loop_places_the_rest(self, monkeypatch, p_xy, n0, n, heap_atoms):
        calls = []
        heapreplace = gwrdp.derandom.heapq.heapreplace

        def count(heap, item):
            calls.append(item)
            return heapreplace(heap, item)

        monkeypatch.setattr(gwrdp.derandom.heapq, "heapreplace", count)
        sm = build_seed_map(p_xy, n0, n)
        assert len(calls) == heap_atoms
        want = greedy_seed_assignment(np.asarray(p_xy.probs).reshape(-1), n0, n)
        assert np.array_equal(sm.assignment, want)

    def test_certificate_refuses_an_exhausted_bin(self):
        # heap[0] is not the lightest bin, so the candidate count is too
        # small: the seven empty bins take about 114 atoms each
        heap = [(0.5, 0)] + [(0.0, b) for b in range(1, 8)]
        atoms = np.arange(800)
        with pytest.raises(AssertionError, match="filled all"):
            gwrdp.derandom._place_run_in_bulk(heap, atoms, 1e-3, np.empty(800, dtype=np.int64))


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
