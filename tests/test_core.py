"""Data model, scoring, and spec arithmetic."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fairtopk.core import (
    Candidate,
    Dataset,
    DataFormatError,
    FairnessSpec,
    WeightRegion,
    WeightVector,
    encode_profile,
    group_counts,
    is_fair_counts,
    subset_utility,
    utility_loss,
    w_difference,
)


class TestCandidateDataset:
    def test_duplicate_ids_rejected(self):
        cands = [Candidate(0, (0.1, 0.2), set()), Candidate(0, (0.3, 0.4), set())]
        with pytest.raises(DataFormatError):
            Dataset(cands)

    def test_mixed_dimensions_rejected(self):
        cands = [Candidate(0, (0.1, 0.2), set()), Candidate(1, (0.3, 0.4, 0.5), set())]
        with pytest.raises(DataFormatError):
            Dataset(cands)

    def test_groups_normalize_to_plain_ints(self):
        c = Candidate(0, (0.1, 0.2), (1.0, 2))
        assert c.groups == frozenset({1, 2})
        assert all(type(g) is int for g in c.groups)
        for groups in ([np.int64(3)], frozenset({np.int64(3)})):
            c = Candidate(1, (0.1, 0.2), groups)
            assert c.groups == {3} and all(type(g) is int for g in c.groups)

    def test_int_frozenset_kept_as_given(self):
        groups = frozenset({0, 2})
        c = Candidate(0, (0.1, 0.2), groups)
        assert c.groups is groups
        assert not hasattr(c, "__dict__")

    def test_points_matrix_matches_candidates(self, five_dataset):
        pts = five_dataset.points
        assert pts.shape == (5, 2)
        assert_allclose(pts[2], (0.7, 0.35))

    def test_points_matrix_is_readonly(self, five_dataset):
        with pytest.raises(ValueError):
            five_dataset.points[0, 0] = 9.0

    def test_group_mask(self, five_dataset):
        # profiles: one code per row and one membership row per group,
        # built once and kept with the dataset
        codes, member = five_dataset.profiles(1)
        assert codes.tolist() == [0, 0, 1, 1, 0]
        assert codes.dtype == np.uint8 and member.dtype == np.uint8
        assert member.shape == (1, 5)
        assert member[0].astype(bool).tolist() == [False, False, True, True, False]
        again = five_dataset.profiles(1)
        assert again[0] is codes and again[1] is member

    def test_scores_are_linear(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pts = rng.random((8, 3))
            data = Dataset([Candidate(i, tuple(p), set()) for i, p in enumerate(pts)])
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(3))
            mix = 0.5 * a + 0.5 * b
            sa, sb = data.scores(a), data.scores(b)
            assert_allclose(data.scores(mix), 0.5 * sa + 0.5 * sb, atol=1e-12)


class TestWeightVector:
    def test_renormalizes_to_unit_sum(self):
        with pytest.warns(UserWarning):
            w = WeightVector((2.0, 2.0))
        assert_allclose(w.as_array(), (0.5, 0.5))

    def test_rejects_negative_component(self):
        with pytest.raises(ValueError):
            WeightVector((1.2, -0.2))

    def test_rejects_single_attribute(self):
        with pytest.raises(ValueError):
            WeightVector((1.0,))

    def test_tiny_negative_noise_tolerated(self):
        w = WeightVector((1.0, -1e-13))
        assert w.as_array()[1] >= 0.0


class TestMetrics:
    def test_w_difference_is_a_metric(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = WeightVector(tuple(rng.dirichlet(np.ones(4))))
            b = WeightVector(tuple(rng.dirichlet(np.ones(4))))
            c = WeightVector(tuple(rng.dirichlet(np.ones(4))))
            ab, ba = w_difference(a, b), w_difference(b, a)
            assert_allclose(ab, ba, atol=1e-15)
            assert w_difference(a, a) == 0.0
            assert ab <= w_difference(a, c) + w_difference(c, b) + 1e-12

    def test_utility_loss_zero_reference(self):
        assert utility_loss(0.0, 0.0) == 0.0

    def test_utility_loss_positive_over_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            utility_loss(1.0, 0.0)

    def test_utility_loss_fraction(self):
        assert_allclose(utility_loss(1.4, 1.45), 0.05 / 1.45, atol=1e-15)

    def test_subset_utility_ignores_order(self, five_dataset, wo_half):
        u1 = subset_utility(five_dataset, (2, 4), wo_half)
        u2 = subset_utility(five_dataset, (4, 2), wo_half)
        assert u1 == u2
        assert_allclose(u1, 0.525 + 0.9, atol=1e-15)

    def test_subset_utility_empty(self, five_dataset, wo_half):
        assert subset_utility(five_dataset, (), wo_half) == 0.0


class TestProfileCodes:
    def test_roundtrip_exhaustive(self):
        # every code is the group set of its set bits, and bit j is group j
        for n_protected in range(1, 7):
            for code in range(2**n_protected):
                groups = {j for j in range(n_protected) if code >> j & 1}
                assert encode_profile(groups, n_protected) == code
            for j in range(n_protected):
                assert encode_profile({j}, n_protected) == 1 << j

    def test_encode_ignores_unprotected_group_ids(self):
        assert encode_profile({0, 3}, 2) == encode_profile({0}, 2)


class TestFairnessSpec:
    def test_validate_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            FairnessSpec(lower=[3], upper=[1]).validate(4)

    def test_validate_rejects_lower_above_k(self):
        with pytest.raises(ValueError):
            FairnessSpec(lower=[5], upper=[5]).validate(4)

    def test_overlapping_group_demands_allowed(self):
        # a candidate may belong to several groups, so sums of lower
        # bounds may legitimately exceed k
        FairnessSpec(lower=[2, 2], upper=[2, 2]).validate(2)

    def test_vacuous_accepts_every_profile(self):
        spec = FairnessSpec.vacuous(2, 5)
        assert spec.lower == (0, 0)
        assert spec.upper == (5, 5)

    def test_from_fractions_exact_counts_survive_rounding(self):
        spec = FairnessSpec.from_fractions([(0.2, 0.4)], 10)
        assert spec.lower == (2,)
        assert spec.upper == (4,)
        spec = FairnessSpec.from_fractions([(1 / 3, 1 / 3)], 3)
        assert (spec.lower, spec.upper) == ((1,), (1,))

    def test_from_fractions_rejects_empty_integer_window(self):
        # ceil(0.25 * 10) = 3 > floor(0.25 * 10) = 2
        with pytest.raises(ValueError):
            FairnessSpec.from_fractions([(0.25, 0.25)], 10)

    def test_group_counts_and_fairness(self, five_dataset, five_spec):
        counts = group_counts(five_dataset, (2, 4), 1)
        assert counts == (1,)
        assert is_fair_counts(counts, five_spec)
        assert not is_fair_counts(group_counts(five_dataset, (0, 1), 1), five_spec)


class TestWeightRegion:
    def test_box_contains_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
            region = WeightRegion.box(wo, epsilon=0.1)
            assert region.contains(wo)

    def test_box_excludes_far_points(self):
        wo = WeightVector((0.5, 0.5))
        region = WeightRegion.box(wo, epsilon=0.05)
        assert not region.contains(WeightVector((0.9, 0.1)))

    def test_extra_halfspace_rows_respected(self):
        # row (a1, a2, b) encodes a . w + b >= 0; here w_1 <= 0.52
        wo = WeightVector((0.5, 0.5))
        region = WeightRegion.box(wo, epsilon=0.3, extra=[(-1.0, 0.0, 0.52)])
        assert region.contains(WeightVector((0.5, 0.5)))
        assert not region.contains(WeightVector((0.6, 0.4)))

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            WeightRegion.box(WeightVector((0.5, 0.5)), 0.1, objective="l2")
