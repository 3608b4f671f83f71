"""geoconvex: numerical convexity checks for remapped functions on
manifolds with closed-form geodesics.

An Instance bundles a scalar function h, a point remap E, and a gap
bifunction phi over a sampled domain.  Checks test the generalized
convexity inequality

    h(curve_{E(mu1),E(mu2)}(t)) <= h(E(mu2)) + t * phi(h(E(mu1)), h(E(mu2)))

and related set/epigraph conditions, reporting either "holds on samples"
or an explicit counterexample witness.  Statement-level verifiers combine
these checks into premise -> conclusion implication tests.
"""

from .algebra import DomainSet, Instance, ProductSet
from .checker import (
    CheckConfig,
    Report,
    Verdict,
    Witness,
    check_additive,
    check_antisymmetric,
    check_geodesic_E_convex_set,
    check_geodesic_phiE_convex_fn,
    check_geodesic_phiE_convex_set,
    check_nonneg_homogeneous,
    check_nonneg_linear,
    check_phiE_convex_interval,
    check_seq_upper_bounded,
    check_slope_inequality,
    epigraph_membership,
    search_counterexample,
)
from .exprlang import (
    Bifunction,
    EndoMap,
    Expr,
    ScalarFn,
    differentiate_numeric,
    evaluate,
    expr_to_source,
    parse,
)
from .manifold import (
    GeodesicSpec,
    Manifold,
    ManifoldKind,
    Point,
    distance,
    euclidean,
    exp_map,
    geodesic,
    log_map,
    poincare_ball,
    sphere,
)

__version__ = "0.1.0"
