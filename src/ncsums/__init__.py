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
    evaluate,
    load_spec,
    make_observable,
    negate,
    preset,
    product_observable,
)
from .lattice import (
    PrimeBasis,
    SmoothSequence,
    b_set,
    coprime_set,
    d_count,
    d_count_int,
    partition_check,
    primes_up_to,
    smooth_numbers,
    window_index_set,
    windows_iid,
)
from .rates import (
    CramerRate,
    Pressure,
    RateJ,
    chain_index_structure,
    finite_pressure,
    mgf,
    r_l,
    r_l_mc,
)
from .simulate import (
    LdpEstimate,
    Trajectory,
    TrajectorySpec,
    ldp_estimate,
    mix64,
    trajectory,
    x_value,
)
from .erlaw import ErPoint, ExperimentResult, b_window, experiment, window_max

__version__ = "0.1.0"
