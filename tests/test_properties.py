"""Hypothesis property tests of beta and of the CLI's input checks."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from billiard_beta import rigidity
from billiard_beta.cli import main
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


# A valid parameter list per CLI domain family; disk, ellipse and gutkin take
# exactly that many parameters, constwidth and squeezed one or two.
VALID_PARAMS = {
    "disk": ["1"],
    "ellipse": ["2", "1"],
    "gutkin": ["4", "0.05"],
    "constwidth": ["0.05", "3"],
    "squeezed": ["0.1", "0.3"],
}
WRONG_COUNTS = {"disk": [0, 2, 3], "ellipse": [0, 1, 3], "gutkin": [0, 1, 3], "constwidth": [0, 3], "squeezed": [0, 3]}
NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
# No digits and none of the letters of nan or inf, so no token parses as a number.
NON_NUMBER = st.text(alphabet="bcxyz_+-.eE ", min_size=1, max_size=4)


@st.composite
def malformed_domain(draw):
    family = draw(st.sampled_from(sorted(VALID_PARAMS)))
    params = list(VALID_PARAMS[family])
    if draw(st.booleans()):
        params = (params * 3)[: draw(st.sampled_from(WRONG_COUNTS[family]))]
    else:
        params[draw(st.integers(0, len(params) - 1))] = draw(NON_FINITE | NON_NUMBER)
    return f"{family}:{','.join(params)}"


MALFORMED_ROT = NON_FINITE | NON_NUMBER | st.integers(-3, 3).map(lambda p: f"{p}/0")


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    case=st.one_of(
        malformed_domain().map(lambda dom: (dom, "1/3")),
        MALFORMED_ROT.map(lambda rot: ("disk:1", f"1/3,{rot}")),
    )
)
def test_malformed_spec_fails_fast(case):
    domain, rot = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["beta", "--domain", domain, "--rot", rot])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
