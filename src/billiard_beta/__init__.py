"""Mather beta-function computations for four planar billiard models.

Convex tables are given by truncated Fourier support functions; the minimal
average action of Birkhoff, symplectic, outer and outer-length billiards is
computed variationally, and the isoperimetric-type inequalities relating a
table to the disk of equal perimeter or area can be verified numerically.
"""

from .geometry import (
    AffineMap,
    BoundaryPoint,
    SupportDomain,
    affine_image,
    area,
    boundary_point,
    boundary_xy,
    constant_width,
    disk,
    ellipse,
    eval_support,
    gutkin,
    load_domain,
    make_named,
    perimeter,
    radon_check,
    save_domain,
    scaled,
    squeezed_disk,
    support_jet,
)
from .models import (
    MODEL_TAGS,
    beta_disk,
    config_vertices,
    forward_map,
    make_system,
    orbit_deviation,
    outer_polygon,
)
from .rigidity import (
    GutkinRootSet,
    InequalityReport,
    constant_width_equality,
    gutkin_equality_check,
    gutkin_roots,
    in_R,
    invariant_curve_spread,
    outer_counterexample,
    outer_quarter_relation,
    outer_rigidity_theorem,
    outer_third_relation,
    run_inequality_suite,
    sample_random_domains,
    triangle_midpoint_property,
    verify_main_inequality,
)
from .twist import (
    BetaResult,
    Configuration,
    RotationNumber,
    TwistSystem,
    action,
    action_gradient,
    beta_irrational,
    beta_irrational_result,
    beta_rational,
    equispaced_average_action,
    farey_fractions,
    make_toy_system,
    minimize_periodic,
    minimize_with_fixed_start,
)

__version__ = "0.1.0"
