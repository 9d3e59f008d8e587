"""Shared fixtures: the worked five-candidate dataset and random builders."""

import os

# one BLAS thread, set before numpy loads: the LPs' small solves only pay
# for a thread pool's start-up and contention
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from fairtopk.core import Candidate, Dataset, FairnessSpec, WeightVector  # noqa: E402
from fairtopk.generators import random_instance, random_spec  # noqa: E402

FIVE_POINTS = [(0.4, 0.7), (0.5, 0.6), (0.7, 0.35), (0.8, 0.2), (0.9, 0.9)]


def five_candidate_dataset(protected=(2, 3)):
    """The worked 2-attribute example; one protected group by default."""
    cands = [
        Candidate(i, p, {0} if i in protected else set())
        for i, p in enumerate(FIVE_POINTS)
    ]
    return Dataset(cands)


@pytest.fixture
def five_dataset():
    return five_candidate_dataset()


@pytest.fixture
def five_spec():
    return FairnessSpec(lower=[1], upper=[2])


@pytest.fixture
def wo_half():
    return WeightVector((0.5, 0.5))


def tied_instance(rng, n=20, d=2, n_protected=2, k=4, dup_rate=0.5):
    """Random instance with clustered duplicate points plus a spec."""
    data = random_instance(rng, n=n, d=d, n_protected=n_protected, dup_rate=dup_rate)
    spec = random_spec(rng, data, k, n_protected)
    return data, spec
