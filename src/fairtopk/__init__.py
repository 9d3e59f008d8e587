"""Fair top-k selection: verification of linear scoring weights against
per-group count intervals and synthesis of the closest fair weights."""

from .core import (
    BudgetExceededError,
    Candidate,
    DataFormatError,
    Dataset,
    FairResult,
    FairTopkError,
    FairnessSpec,
    LpStallError,
    UTILITY_LOSS,
    W_DIFFERENCE,
    WeightRegion,
    WeightVector,
    group_counts,
    is_fair_counts,
    utility_loss,
    w_difference,
)
from .verify import (
    decompose_topk,
    fair_topk_witness,
    max_fair_utility,
    naive_verify_oracle,
    verify_fair,
)
from .sweep2d import sweep_select
from .klevel import traverse
from .milp import build_milp, export_lp, solve_milp
from .stability import StableResult, stable_weight
from .pipeline import (
    RunConfig,
    SampleReport,
    brute_select_2d,
    kskyband,
    load_csv,
    normalize,
    sample_unfair,
    select,
    write_csv,
)
from .generators import (
    GeneratedInstance,
    gen_ov,
    gen_setcover,
    gen_tov,
    random_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Candidate",
    "DataFormatError",
    "Dataset",
    "FairResult",
    "FairTopkError",
    "FairnessSpec",
    "GeneratedInstance",
    "LpStallError",
    "RunConfig",
    "SampleReport",
    "StableResult",
    "UTILITY_LOSS",
    "W_DIFFERENCE",
    "WeightRegion",
    "WeightVector",
    "brute_select_2d",
    "build_milp",
    "decompose_topk",
    "export_lp",
    "fair_topk_witness",
    "gen_ov",
    "gen_setcover",
    "gen_tov",
    "group_counts",
    "is_fair_counts",
    "kskyband",
    "load_csv",
    "max_fair_utility",
    "naive_verify_oracle",
    "normalize",
    "random_instance",
    "sample_unfair",
    "select",
    "solve_milp",
    "stable_weight",
    "sweep_select",
    "traverse",
    "utility_loss",
    "verify_fair",
    "w_difference",
    "write_csv",
]
