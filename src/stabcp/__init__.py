"""stabcp: distribution-free regression intervals from a single model fit.

A conformal-prediction toolkit that traps the conformity function between two
envelopes computable from one model fit plus per-point algorithmic-stability
bounds.  Includes split/oracle/root-finding/grid baselines and a benchmark
harness reporting coverage, interval length, and normalized timing.
"""

from .core import (
    PredictionSet,
    ScoreFunction,
    TabularDataset,
    conformity_scores,
    default_candidate_grid,
    rank,
)
from .conformal import (
    ConformityBounds,
    MethodReport,
    PiBounds,
    anchor_bounds,
    gap_profile,
    grid_cp,
    oracle_cp,
    pi_exact,
    root_cp,
    split_cp,
    split_pi,
    stab_cp_interval,
)
from .data import (
    GeneratorSpec,
    gen_friedman1,
    gen_linear_gaussian,
    generate,
    load_csv,
    read_csv_columns,
    save_csv,
)
from .errors import DataError, InvalidInputError, NotFittedError, NumericalError
from .models import (
    LadRidgeModel,
    PretrainedLinearModel,
    RidgeModel,
)
from .stability import (
    StabilityBounds,
    tau_user_supplied,
)

__version__ = "0.1.0"
