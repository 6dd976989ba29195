"""Dilated-sum rate functions, lattice combinatorics, and window-law experiments."""

from .errors import (
    BudgetExceededError,
    CapacityError,
    DegenerateObservableError,
    InputError,
    NcsumsError,
    ToleranceError,
)
from .model import (
    FiniteDistribution,
    Observable,
    center,
    load_spec,
    preset,
    product_observable,
)
from .lattice import (
    PrimeBasis,
    SmoothSequence,
    d_count_int,
    partition_check,
    primes_up_to,
    smooth_numbers,
)
from .rates import (
    CramerRate,
    Pressure,
    RateJ,
    chain_index_structure,
)
from .simulate import (
    LdpEstimate,
    ldp_estimate,
    mix64,
    trajectory,
    x_value,
)
from .erlaw import ErPoint, ExperimentResult, b_window, experiment, window_max

__version__ = "0.1.0"
