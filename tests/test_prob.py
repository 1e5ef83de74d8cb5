import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwrdp.prob import (
    AlphabetMismatchError,
    JointPmf,
    Kernel,
    Pmf,
    kl_divergence,
    mutual_information,
    tv_distance,
)
from oracles import conditional_mutual_information, entropy


def random_pmf(rng, k):
    return Pmf(rng.dirichlet(np.ones(k)))


def random_joint(rng, shape, axes):
    flat = rng.dirichlet(np.ones(int(np.prod(shape))))
    return JointPmf(flat.reshape(shape), axes)


def dsbs(crossover):
    """Doubly symmetric binary source: uniform X, Y = X flipped w.p. crossover."""
    a = crossover
    return JointPmf([[0.5 * (1 - a), 0.5 * a], [0.5 * a, 0.5 * (1 - a)]], ("X", "Y"))


class TestConstruction:
    def test_pmf_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf([1.2, -0.2])

    def test_pmf_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.4])

    def test_pmf_accepts_tolerance_and_renormalizes(self):
        p = Pmf([0.5 + 4e-13, 0.5])
        assert abs(p.probs.sum() - 1.0) < 1e-15

    def test_pmf_immutable(self):
        p = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    def test_joint_axis_labels(self):
        j = dsbs(0.1)
        assert j.axes == ("X", "Y")
        with pytest.raises(ValueError):
            JointPmf([[0.5, 0.5]], ("X",))
        with pytest.raises(ValueError):
            JointPmf([[0.25] * 2] * 2, ("X", "X"))

    def test_kernel_rows_validated(self):
        with pytest.raises(ValueError):
            Kernel([[0.5, 0.4], [0.5, 0.5]])
        k = Kernel([[0.3, 0.7], [1.0, 0.0]])
        assert k.cond_shape == (2,)
        assert k.out_size == 2

    @given(st.integers(2, 69), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_kernel_keeps_a_normalized_kernel(self, width, rows, seed):
        # a normalized row often sums to 1 +- 1 ulp; dividing it again moved
        # its entries, so re-wrapping a kernel changed it
        k = Kernel(np.random.default_rng(seed).dirichlet(np.ones(width), size=rows))
        assert Kernel(k.probs) == k


class TestMutualInformation:
    def test_product_is_zero(self):
        j = JointPmf(np.full((2, 2), 0.25), ("A", "B"))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_copy_channel(self):
        j = JointPmf([[0.5, 0.0], [0.0, 0.5]], ("A", "B"))
        assert mutual_information(j) == pytest.approx(1.0, abs=1e-12)

    def test_dsbs(self):
        # frozen: 1 - H2(0.1) by direct summation
        assert mutual_information(dsbs(0.1)) == pytest.approx(0.5310, abs=1e-3)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            j = random_joint(rng, (3, 2), ("A", "B"))
            assert mutual_information(j) >= 0.0


class TestDivergences:
    def test_tv_identical(self):
        assert tv_distance(Pmf([0.5, 0.5]), Pmf([0.5, 0.5])) == 0.0

    def test_tv_disjoint_is_two(self):
        # unhalved convention: disjoint supports give 2
        assert tv_distance(Pmf([1.0, 0.0]), Pmf([0.0, 1.0])) == pytest.approx(2.0)

    def test_tv_direct(self):
        assert tv_distance(Pmf([0.7, 0.3]), Pmf([0.5, 0.5])) == pytest.approx(0.4)

    def test_tv_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            tv_distance(Pmf([0.5, 0.5]), Pmf([0.3, 0.3, 0.4]))

    def test_kl_zero_denominator_is_inf(self):
        assert kl_divergence(Pmf([0.5, 0.5]), Pmf([1.0, 0.0])) == math.inf

    def test_kl_zero_numerator_ok(self):
        assert kl_divergence(Pmf([1.0, 0.0]), Pmf([0.5, 0.5])) == pytest.approx(1.0)

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_tv_metric_properties(self, k, seed):
        rng = np.random.default_rng(seed)
        p, q, r = (random_pmf(rng, k) for _ in range(3))
        assert tv_distance(p, p) == 0.0
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
        if tv_distance(p, q) == 0.0:
            assert np.array_equal(p.probs, q.probs)


class TestIdentities:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_chain_rule(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng, (3, 2), ("A", "B"))
        h_ab = entropy(j.probs)
        h_a = entropy(j.marginal("A"))
        # H(B|A) from the conditional decomposition
        pa = j.probs.sum(axis=1)
        h_b_given_a = h_ab - h_a
        assert h_ab == pytest.approx(h_a + h_b_given_a, abs=1e-10)
        assert mutual_information(j) == pytest.approx(
            entropy(j.marginal("B")) - h_b_given_a, abs=1e-10)
        assert pa.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_mi_chain_rule(self, seed):
        # I(A,B;C) = I(A;C) + I(B;C|A)
        rng = np.random.default_rng(seed)
        j = random_joint(rng, (2, 2, 2), ("A", "B", "C"))
        p = j.probs
        lhs = mutual_information(JointPmf(p.reshape(4, 2), ("AB", "C")))
        i_ac = mutual_information(JointPmf(p.sum(axis=1), ("A", "C")))
        # I(B;C|A): reorder axes to (B, C, A)
        i_bc_a = conditional_mutual_information(
            JointPmf(np.transpose(p, (1, 2, 0)), ("B", "C", "A")))
        assert lhs == pytest.approx(i_ac + i_bc_a, abs=1e-10)
        assert conditional_mutual_information(
            JointPmf(p, ("A", "B", "C"))) >= 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_marginalization_is_normalized(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint(rng, (2, 3, 2), ("A", "B", "C"))
        for lab in ("A", "B", "C"):
            m = j.marginal(lab)
            assert m.probs.sum() == pytest.approx(1.0, abs=1e-12)
        m2 = j.marginal("C", "A")
        assert isinstance(m2, JointPmf)
        assert m2.axes == ("C", "A")
        np.testing.assert_allclose(m2.probs, j.probs.sum(axis=1).T, atol=1e-15)


class TestSerialization:
    def test_schema_shape(self):
        # the {alphabets, probs} dict the CLI writes for every channel
        obj = Kernel(np.array([[[0.25, 0.75]], [[1.0, 0.0]]])).to_dict()
        assert obj["alphabets"] == [2, 1, 2]
        assert obj["probs"] == [0.25, 0.75, 1.0, 0.0]


class TestKernelAndCompose:
    def test_extend_builds_joint(self):
        p_xy = dsbs(0.1)
        aux = Kernel(np.full((2, 2, 2), 0.5))
        j = p_xy.extend(aux, "W")
        assert j.axes == ("X", "Y", "W")
        np.testing.assert_allclose(j.marginal("X", "Y").probs, p_xy.probs, atol=1e-15)
        assert mutual_information(
            JointPmf(j.probs.reshape(4, 2), ("XY", "W"))) == pytest.approx(0.0, abs=1e-12)
