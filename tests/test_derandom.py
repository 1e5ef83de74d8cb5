import signal

import numpy as np
import pytest

from gwrdp.codec import Kernel, compute_code_sizes, encode, generate_codebook
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

    def test_atom_cap(self):
        with pytest.raises(SeedMapError):
            build_seed_map(UNIFORM4, 12, 4, atom_cap=1000)

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
    ])
    def test_assignment_matches_pop_push_loop(self, p_xy, n0, n):
        sm = build_seed_map(p_xy, n0, n)
        want = greedy_seed_assignment(np.asarray(p_xy.probs).reshape(-1), n0, n)
        assert np.array_equal(sm.assignment, want)

    def test_every_atom_assigned_once(self):
        sm = build_seed_map(dsbs(0.2), 3, 5)
        assert sm.assignment.shape[0] == 4 ** 3
        assert sm.assignment.min() >= 0 and sm.assignment.max() <= 4
        assert np.all(np.bincount(sm.assignment, minlength=5) > 0)


def tiny_system(n=8, delta=0.3, seed=2):
    p_xy = UNIFORM4
    q_xyw = p_xy.extend(Kernel(np.ones((2, 2, 1))), "W")
    tc = Kernel(np.array([[[0.75, 0.25]], [[0.25, 0.75]]]))
    sizes = compute_code_sizes(q_xyw, tc, tc, n, delta)
    cb = generate_codebook(q_xyw, tc, tc, sizes, delta, n, seed)
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
        a, ka = deterministic_encode(cb, sm, xs, ys, HAM, HAM, 0.5, 0.5)
        b, kb = deterministic_encode(cb, sm, xs, ys, HAM, HAM, 0.5, 0.5)
        assert (a, ka) == (b, kb)

    def test_tail_in_same_bin_gives_same_messages(self):
        cb, sm = tiny_system()
        rng = np.random.default_rng(6)
        xs = rng.integers(0, 2, cb.n + sm.n0)
        ys = rng.integers(0, 2, cb.n + sm.n0)
        _, k0 = deterministic_encode(cb, sm, xs, ys, HAM, HAM, 0.5, 0.5)
        # find another tail mapping to the same bin and splice it in
        base = deterministic_encode(cb, sm, xs, ys, HAM, HAM, 0.5, 0.5)[0]
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
            enc2, k2 = deterministic_encode(cb, sm, xs2, ys2, HAM, HAM, 0.5, 0.5)
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
        enc, k_sim = deterministic_encode(cb, sm, xs, ys, HAM, HAM, 0.5, 0.5)
        direct = encode(cb, xs[:cb.n], ys[:cb.n], k_sim, HAM, HAM, 0.5, 0.5)
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

    def test_length_mismatch(self):
        cb, sm = tiny_system()
        with pytest.raises(ValueError):
            deterministic_encode(cb, sm, np.zeros(cb.n, dtype=int),
                                 np.zeros(cb.n, dtype=int), HAM, HAM, 0.5, 0.5)
