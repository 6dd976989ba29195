"""A conjugate grid equals its u's searched alone, bit for bit, as a property.

Grids of repeats, 0, both signs and points past the domain's ends go
through ``RateJ.grid`` at once, as the rows of its array search; each u
also goes through a grid of its own (the search on floats), a grid of it and
0 (the array search with one row) and the reference search of
tests/oracles.py.  J, and the error of
the first u that fails, must agree bit for bit, also when the searches run
out of evaluations.  Besides the fiber pressure of two laws at ell = 2, the
searches run over Cramér's exact ln phi of a drawn law, whose steps are
more often bisections.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_conjugate_oracle import compare  # noqa: E402
from ncsums import rates  # noqa: E402
from ncsums.errors import ToleranceError  # noqa: E402
from ncsums.model import FiniteDistribution, center, preset, product_observable  # noqa: E402
from ncsums.rates import Pressure, RateJ  # noqa: E402

PRESSURES = {
    name: Pressure(*preset(name, ell=2), tol=1e-9)  # bernoulli-product is centred
    for name in ("rademacher-product", "bernoulli-product")
}


def log_mgf(seed: int) -> RateJ:
    """The conjugate of ln phi of a centred law of 3 to 5 normal values, uncapped, to 1e-12."""
    rng = np.random.default_rng(seed)
    s = int(rng.integers(3, 6))
    probs = rng.dirichlet(np.ones(s))
    dist = FiniteDistribution(
        values=tuple(np.sort(rng.normal(size=s)).tolist()),
        probs=tuple((probs / probs.sum()).tolist()),
    )
    obs = center(product_observable(dist, 1), dist)
    return RateJ(rates._LogMgf(dist, obs, 1e-12), lambda_cap=math.inf)


@st.composite
def grids(draw, obs):
    """2 to 7 u, drawn from a pool of at most 9, so that repeats are common."""
    lo, hi = -1.2 * obs.sup_neg, 1.2 * obs.sup_pos
    pool = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=4))
    pool += [0.0, obs.sup_pos, -obs.sup_neg, 1.05 * obs.sup_pos, -0.999 * obs.sup_neg]
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=7))


@pytest.mark.parametrize("max_evals", [rates.MAX_EVALS, 2, 6])
@pytest.mark.parametrize("law", [*PRESSURES, "ln phi"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grid_equals_each_u_alone(law, max_evals, data):
    if law in PRESSURES:
        conj = RateJ(PRESSURES[law])
    else:
        conj = log_mgf(data.draw(st.integers(0, 2**32 - 1)))
    us = data.draw(grids(conj.pressure.obs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rates, "MAX_EVALS", max_evals)
        alone = compare(conj, us)  # each u searched alone against the reference
        try:
            got = [float(j).hex() for j in conj.grid(us)]
        except ToleranceError as exc:
            got = (str(exc), exc.achievable_tol.hex())
    errors = [o for o in alone if isinstance(o, tuple)]
    assert got == (errors[0] if errors else alone)  # the first failing u's error
