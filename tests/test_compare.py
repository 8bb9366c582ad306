from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cobalt.compare import bidirectional_f, one_way_f

# Two partitions over partially overlapping node sets. The first groups
# {pi, pj} together plus a singleton; the second keeps pi alone and holds two
# entities the first has never seen. Worked by hand:
#   first as truth:  macro P = 1/2, macro R = 1/4, F = 1/3
#   second as truth: macro P = 1/6, macro R = 1/3, F = 2/9
#   harmonic mean of the two F values: 4/15
PART_A = {"pi": 0, "pj": 0, "pk": 1}
PART_M = {"pi": 0, "py": 1, "pz": 2}


small_partitions = st.dictionaries(
    st.sampled_from([f"n{i}" for i in range(8)]),
    st.integers(0, 3),
    min_size=1,
    max_size=8,
)


class TestOneWayF:
    def test_forward_direction_exact(self):
        macro_p, macro_r, f = one_way_f(PART_A, PART_M)
        assert macro_p == pytest.approx(0.5, abs=1e-15)
        assert macro_r == pytest.approx(0.25, abs=1e-15)
        assert f == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_reverse_direction_exact(self):
        macro_p, macro_r, f = one_way_f(PART_M, PART_A)
        assert macro_p == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert macro_r == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert f == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_identical_partitions_perfect(self):
        part = {"a": 0, "b": 0, "c": 1, "d": 2}
        assert one_way_f(part, part) == (1.0, 1.0, 1.0)

    def test_shares_no_element_is_zero(self):
        assert one_way_f({"a": 0}, {"b": 0}) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("p_gt, p_sys", [({}, {"a": 0}), ({"a": 0}, {}), ({}, {})])
    def test_empty_side_is_zero(self, p_gt, p_sys):
        assert one_way_f(p_gt, p_sys) == (0.0, 0.0, 0.0)

    def test_tie_goes_to_smaller_canonical_id(self):
        # gt community {a, b} overlaps both system singletons equally; the
        # canonically-first one (containing 'a') must win
        gt = {"a": 0, "b": 0}
        sys_small_first = {"a": 5, "b": 9}
        macro_p, macro_r, _ = one_way_f(gt, sys_small_first)
        assert macro_p == 1.0
        assert macro_r == 0.5

    def test_brute_force_overlap_equivalence(self):
        # macro P/R must match a direct overlap-matrix computation
        gt = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 2}
        sys = {"a": 0, "b": 1, "c": 1, "d": 1, "e": 0}
        gt_groups = [{"a", "b"}, {"c", "d"}, {"e"}]
        sys_groups = [{"a", "e"}, {"b", "c", "d"}]
        ps, rs = [], []
        for g in gt_groups:
            overlaps = [len(g & s) for s in sys_groups]
            best = max(range(len(sys_groups)), key=lambda i: (overlaps[i], -i))
            ps.append(overlaps[best] / len(sys_groups[best]))
            rs.append(overlaps[best] / len(g))
        macro_p, macro_r, _ = one_way_f(gt, sys)
        assert macro_p == pytest.approx(sum(ps) / 3)
        assert macro_r == pytest.approx(sum(rs) / 3)


class TestBidirectionalF:
    def test_worked_harmonic_mean(self):
        expected = Fraction(2) * Fraction(1, 3) * Fraction(2, 9) / (
            Fraction(1, 3) + Fraction(2, 9)
        )
        assert expected == Fraction(4, 15)
        assert bidirectional_f(PART_A, PART_M) == pytest.approx(
            4.0 / 15.0, abs=1e-12
        )

    def test_identical(self):
        part = {"a": 0, "b": 1, "c": 0}
        assert bidirectional_f(part, part) == 1.0

    def test_shares_no_element_is_zero(self):
        # every community of either side overlaps nothing of the other, so
        # both directions score zero and so does their harmonic mean
        a = {"x": 0, "q1": 1}
        b = {"y": 0, "q2": 1}
        assert bidirectional_f(a, b) == 0.0
        assert bidirectional_f({"a": 0}, {"b": 0}) == 0.0

    @pytest.mark.parametrize("a, b", [({}, {"a": 0, "b": 1}), ({"a": 0}, {})])
    def test_empty_side_is_zero(self, a, b):
        assert bidirectional_f(a, b) == bidirectional_f(b, a) == 0.0

    @given(small_partitions, small_partitions)
    def test_disjoint_partitions_score_zero_in_both_orders(self, a, b):
        b = {f"other_{k}": v for k, v in b.items()}
        assert bidirectional_f(a, b) == 0.0
        assert bidirectional_f(b, a) == 0.0

    @given(small_partitions, small_partitions)
    @settings(max_examples=150)
    def test_symmetry_and_range(self, a, b):
        f_ab = bidirectional_f(a, b)
        f_ba = bidirectional_f(b, a)
        assert f_ab == pytest.approx(f_ba, abs=1e-12)
        assert 0.0 <= f_ab <= 1.0

    @given(small_partitions)
    def test_reflexivity(self, a):
        assert bidirectional_f(a, a) == pytest.approx(1.0)

    @given(small_partitions, small_partitions, st.permutations(list(range(4))))
    @settings(max_examples=150)
    def test_label_invariance(self, a, b, perm):
        relabeled = {k: perm[v] for k, v in a.items()}
        assert bidirectional_f(a, b) == pytest.approx(
            bidirectional_f(relabeled, b), abs=1e-12
        )
