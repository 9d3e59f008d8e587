"""Metamorphic properties of the engines (Chen, Cheung and Yiu, 1998).

Each property changes an instance in a way whose effect on the answer is
known without solving it, and checks that sweep2d (at d = 2), klevel and
milp all follow: a relabelling or a dominated extra candidate changes
nothing, a smaller region never improves the objective, and at a weight
exactly on a crossing of two score lines the engines agree with the 2-d
brute force.  Instances are seeded random_instance draws (n <= 14, k 3-5,
two protected groups, 20% duplicate points) whose reference weight is
unfair, so every engine has to search.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairtopk.core import (
    OBJECTIVES,
    Candidate,
    Dataset,
    FairnessSpec,
    WeightRegion,
    WeightVector,
)
from fairtopk.generators import random_instance, random_spec
from fairtopk.klevel import traverse
from fairtopk.milp import build_milp, solve_milp
from fairtopk.pipeline import brute_select_2d
from fairtopk.sweep2d import sweep_select
from fairtopk.tolerances import TIE_EPS
from fairtopk.verify import decompose_topk, verify_fair

EPSILON = 0.12
VALUE_TOL = 1e-9

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from((2, 3))
objectives = st.sampled_from(OBJECTIVES)
examples = settings(derandomize=True, deadline=None, database=None, max_examples=50)


def held(data, k, w):
    """Group 0 seats in the top-k at w, ties broken as decompose_topk does."""
    return sum(0 in data.by_id(c).groups for c in decompose_topk(data, k, w).order[:k])


def seat_off(data, k, wo, rng):
    """Group 0 one seat off what the top-k at wo holds, group 1 drawn
    around its size: wo is unfair unless a tie at the cutoff saves it."""
    h = held(data, k, wo)
    lo, hi = (h + 1, k) if h < k else (0, k - 1)
    other = random_spec(rng, data, k, 2)
    return FairnessSpec((lo, other.lower[1]), (hi, other.upper[1]))


def instance(seed, d):
    """(data, k, spec, wo, rng) with wo unfair; rng draws what a property adds.

    Group 0 is held, when one of a few weights near wo allows it, to a
    count the top-k there has and the one at wo lacks, so a fair weight
    often lies in the box; otherwise it is one seat off wo's."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 6))
    data = random_instance(rng, n=int(rng.integers(k + 4, 15)), d=d, n_protected=2, dup_rate=0.2)
    wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
    spec = seat_off(data, k, wo, rng)
    for _ in range(8):
        y = np.clip(wo.as_array() + rng.uniform(-EPSILON, EPSILON, d), 0.0, None)
        h = held(data, k, WeightVector(y / y.sum()))
        near = FairnessSpec((h, spec.lower[1]), (h, spec.upper[1]))
        if not verify_fair(data, k, near, wo):
            spec = near
            break
    assume(not verify_fair(data, k, spec, wo))
    return data, k, spec, wo, rng


def answers(data, k, spec, region):
    out = {
        "klevel": traverse(data, k, spec, region),
        "milp": solve_milp(build_milp(data, k, spec, region)),
    }
    if data.d == 2:
        out["sweep2d"] = sweep_select(data, k, spec, region)
    return out


def assert_same(got, want, what):
    assert (got is None) == (want is None), what
    if got is not None:
        assert abs(got.value - want.value) <= VALUE_TOL, (what, got.value, want.value)


def check_unchanged(before, after):
    for engine, result in before.items():
        assert_same(after[engine], result, engine)


@examples
@given(seeds, dims, objectives)
def test_permuted_rows_and_renamed_ids_change_nothing(seed, d, objective):
    data, k, spec, wo, rng = instance(seed, d)
    region = WeightRegion.box(wo, EPSILON, objective=objective)
    order = rng.permutation(len(data))
    ids = rng.permutation(len(data)) * 3 + 7
    moved = Dataset(
        [Candidate(int(i), data.candidates[j].point, data.candidates[j].groups)
         for i, j in zip(ids, order)]
    )
    check_unchanged(answers(data, k, spec, region), answers(moved, k, spec, region))


@examples
@given(seeds, dims, objectives)
def test_swapped_groups_with_their_bounds_change_nothing(seed, d, objective):
    data, k, spec, wo, _ = instance(seed, d)
    region = WeightRegion.box(wo, EPSILON, objective=objective)
    swapped = Dataset([Candidate(c.cid, c.point, {1 - g for g in c.groups}) for c in data.candidates])
    spec2 = FairnessSpec(spec.lower[::-1], spec.upper[::-1])
    check_unchanged(answers(data, k, spec, region), answers(swapped, k, spec2, region))


@examples
@given(seeds, dims, objectives)
def test_a_candidate_k_others_dominate_changes_nothing(seed, d, objective):
    data, k, spec, wo, _ = instance(seed, d)
    region = WeightRegion.box(wo, EPSILON, objective=objective)
    pts = data.points
    above = pts[np.argsort(-pts.min(axis=1))[:k]]  # the k rows with the highest floor
    point = above.min(axis=0) / 2.0
    assume(np.all(above > point + TIE_EPS))
    extra = Candidate(max(data.ids) + 1, point, {0, 1})
    grown = Dataset(list(data.candidates) + [extra])
    check_unchanged(answers(data, k, spec, region), answers(grown, k, spec, region))


@examples
@given(seeds, dims, objectives)
def test_shrinking_epsilon_never_improves_the_objective(seed, d, objective):
    data, k, spec, wo, _ = instance(seed, d)
    wide = answers(data, k, spec, WeightRegion.box(wo, EPSILON, objective=objective))
    narrow = answers(data, k, spec, WeightRegion.box(wo, EPSILON / 2, objective=objective))
    for engine, result in narrow.items():
        if wide[engine] is None:
            assert result is None, engine
        elif result is not None:
            assert wide[engine].value <= result.value + VALUE_TOL, engine


def crossing(data, k, rng):
    """Abscissa in (0.02, 0.98) where two score lines cross, preferring a
    pair that ties at the k-th score there."""
    pts = data.points
    slope, inter = pts[:, 0] - pts[:, 1], pts[:, 1]
    found, at_cutoff = [], []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if slope[i] == slope[j]:
                continue
            x = (inter[j] - inter[i]) / (slope[i] - slope[j])
            if not 0.02 < x < 0.98:
                continue
            found.append(x)
            scores = slope * x + inter
            kth = np.sort(scores)[::-1][k - 1]
            if abs(scores[i] - kth) <= TIE_EPS:
                at_cutoff.append(x)
    pool = at_cutoff or found
    assume(pool)
    return float(pool[int(rng.integers(len(pool)))])


@settings(examples, max_examples=120)  # cheap, and the one that probes ties
@given(seeds, objectives)
def test_engines_agree_on_a_score_line_crossing(seed, objective):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 6))
    data = random_instance(rng, n=int(rng.integers(k + 4, 15)), d=2, n_protected=2, dup_rate=0.2)
    x = crossing(data, k, rng)
    wo = WeightVector((x, 1.0 - x))
    spec = seat_off(data, k, wo, rng)
    for epsilon in (0.0, 0.05):
        region = WeightRegion.box(wo, epsilon, objective=objective)
        want = brute_select_2d(data, k, spec, region)
        for engine, result in answers(data, k, spec, region).items():
            assert_same(result, want, (engine, epsilon))
