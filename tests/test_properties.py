"""Hypothesis property tests of beta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_beta import rigidity
from billiard_beta.geometry import AffineMap, affine_image, scaled
from billiard_beta.models import MODEL_TAGS, make_system
from billiard_beta.twist import beta_rational

# beta of the domain scaled by r is r**power times beta: length-type models
# scale with r, area-type models with r**2.
SCALE_POWER = {"birkhoff": 1, "fourth": 1, "symplectic": 2, "outer": 2}
RHOS = ((1, 3), (2, 5))
# A fixed non-orthogonal linear map, det 1.25; symplectic and outer beta are
# areas, so they scale by det A under it.
SHEAR = AffineMap([[1.5, 0.5], [0.2, 0.9]])


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


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), angle=st.floats(0.0, 2 * np.pi))
def test_rotation_invariance(seed, angle):
    dom = rigidity.random_domain(np.random.default_rng(seed))
    turned = affine_image(dom, AffineMap.rotation(angle))
    for tag in MODEL_TAGS:
        for rho in RHOS:
            beta = beta_rational(make_system(dom, tag), *rho)
            assert beta_rational(make_system(turned, tag), *rho) == pytest.approx(beta, rel=1e-9, abs=1e-12)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_area_models_affine_equivariance(seed):
    dom = rigidity.random_domain(np.random.default_rng(seed))
    image = affine_image(dom, SHEAR)
    for tag in ("symplectic", "outer"):
        for rho in RHOS:
            beta = beta_rational(make_system(dom, tag), *rho)
            assert beta_rational(make_system(image, tag), *rho) == pytest.approx(SHEAR.det * beta, rel=1e-9, abs=1e-12)
