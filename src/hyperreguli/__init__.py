"""Exact enumeration of circle-geometry covers, regular 2-spreads and
hyper-reguli in PG(5,q), with exhaustive verification of their counts."""

from .census import (
    CensusReport,
    TraceCheck,
    run_census,
    trace_is_cover_check,
    type_a_count,
    type_b_count,
    type_c_count,
)
from .covers import (
    Cover,
    CoverSet,
    cover_type1,
    cover_type2,
    enumerate_covers,
    kind1_count,
    kind2_count,
    total_count,
)
from .gf import FieldCtx, make_field
from .hyperreg import (
    HyperRegulus,
    SwitchingPair,
    andre_switching_sets,
    hyper_regulus,
    split_switching_classes,
    transversal_count,
    transversal_planes,
)
from .pg5 import (
    Plane,
    count_planes,
    gaussian_binomial,
    plane_from_points,
    plane_points,
)
from .spread import Spread, build_spread, infinity_label, spread_element

__version__ = "0.1.0"
