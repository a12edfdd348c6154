"""Hypothesis property tests of beta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_beta import rigidity
from billiard_beta.geometry import scaled
from billiard_beta.models import make_system
from billiard_beta.twist import beta_rational

# beta of the domain scaled by r is r**power times beta: length-type models
# scale with r, area-type models with r**2.
SCALE_POWER = {"birkhoff": 1, "fourth": 1, "symplectic": 2, "outer": 2}


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.floats(0.25, 4.0),
    rho=st.sampled_from([(1, 3), (2, 5)]),
)
def test_scaling_homogeneity(seed, r, rho):
    dom = rigidity.random_domain(np.random.default_rng(seed))
    big = scaled(dom, r)
    for tag, power in SCALE_POWER.items():
        beta = beta_rational(make_system(dom, tag), *rho)
        assert beta_rational(make_system(big, tag), *rho) == pytest.approx(r**power * beta, rel=1e-9, abs=1e-12)
