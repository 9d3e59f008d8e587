"""Every engine reports the numbers verify computes at its answer weight."""

import numpy as np
import pytest

from fairtopk.core import (
    UTILITY_LOSS,
    W_DIFFERENCE,
    WeightRegion,
    WeightVector,
    utility_loss,
    w_difference,
)
from fairtopk.klevel import traverse
from fairtopk.milp import build_milp, solve_milp
from fairtopk.sweep2d import sweep_select
from fairtopk.verify import (
    fair_topk_witness,
    finish_result,
    max_fair_utility,
    reference_topk_utility,
)
from conftest import tied_instance

ENGINES = {
    "sweep2d": sweep_select,
    "klevel": traverse,
    "milp": lambda data, k, spec, region: solve_milp(build_milp(data, k, spec, region)),
}


def assert_recomputed(data, k, spec, region, res):
    """value and subset equal verify's answer at res.weight, bit for bit."""
    wo = region.reference
    if region.objective == W_DIFFERENCE:
        witness = fair_topk_witness(data, k, spec, res.weight, W_DIFFERENCE)
        assert res.value == w_difference(res.weight, wo)
        assert res.utility is None
    else:
        witness, util = max_fair_utility(data, k, spec, res.weight, wo)
        assert res.utility == util
        assert res.value == utility_loss(util, reference_topk_utility(data, k, wo))
    assert res.subset == tuple(sorted(witness))


def seeded_cases(engine, objective):
    rng = np.random.default_rng(311)
    for _ in range(6):
        d = 2 if engine == "sweep2d" else int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        data, spec = tied_instance(rng, n=9, d=d, n_protected=2, k=k, dup_rate=0.3)
        wo = WeightVector(tuple(rng.dirichlet(np.ones(d))))
        yield data, k, spec, WeightRegion.box(wo, 0.2, objective=objective)


@pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_worked_example_reports_recomputed_numbers(engine, objective, five_dataset, five_spec):
    region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.5, objective=objective)
    res = ENGINES[engine](five_dataset, 2, five_spec, region)
    assert res.engine == engine and res.subset == (2, 4)
    assert_recomputed(five_dataset, 2, five_spec, region, res)


@pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_seeded_batch_reports_recomputed_numbers(engine, objective):
    solved = 0
    for data, k, spec, region in seeded_cases(engine, objective):
        res = ENGINES[engine](data, k, spec, region)
        if res is None:
            continue
        solved += 1
        assert_recomputed(data, k, spec, region, res)
    assert solved >= 2


@pytest.mark.parametrize("objective", [W_DIFFERENCE, UTILITY_LOSS])
def test_a_weight_outside_the_region_is_passed_over(objective, five_dataset, five_spec):
    # both weights put (2, 4) or (3, 4) on top, fair either way; only the
    # second lies in the box, whose first component ends at 0.6
    region = WeightRegion.box(WeightVector((0.5, 0.5)), 0.1, objective=objective)
    outside = WeightVector((0.6 + 1e-6, 0.4 - 1e-6))
    inside = WeightVector((0.58, 0.42))
    assert not region.contains(outside) and region.contains(inside)
    res = finish_result(five_dataset, 2, five_spec, region, [outside, inside], "klevel")
    assert res.weight.weights == inside.weights
    assert_recomputed(five_dataset, 2, five_spec, region, res)
    # the reference lies in the box, but its top 2 is (4 and one of 0, 1),
    # no protected candidate: an unfair weight is passed over too
    unfair = WeightVector((0.5, 0.5))
    assert region.contains(unfair)
    res = finish_result(five_dataset, 2, five_spec, region, [unfair, inside], "brute2d")
    assert res.weight.weights == inside.weights and res.engine == "brute2d"
    assert_recomputed(five_dataset, 2, five_spec, region, res)
