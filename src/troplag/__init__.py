"""troplag: tropical curves in the plane and their Lagrangian lifts.

Exact polyhedral/tropical combinatorics, torus-side coamoeba geometry,
the pair-of-pants potential and its leg Legendre fibrations, smooth gluing of
lifts of plane tropical curves, and toric closure bookkeeping.
"""

__version__ = "0.1.0"

from .polyhedral import (LatticePolytope, LiftingFunction, discrete_legendre,
                         regular_subdivision)
from .tropical import (TropicalComplex, balancing_check, is_smooth,
                       load_curve_json, tropical_hypersurface, vertex_frames)
from .coamoeba import Coamoeba
from .pants import PantsMap, eta_curve, gamma_curve
from .lift import (GluingSchedule, default_schedule, exactness_check,
                   hausdorff_distance, maslov_winding, pl_lift, smooth_lift,
                   symplectic_residual, twist)
from .toric import (DelzantPolygon, classify_boundary, delzant_check,
                    lift_topology, monotone_report)

__all__ = [
    "LatticePolytope", "LiftingFunction", "regular_subdivision",
    "discrete_legendre", "TropicalComplex", "tropical_hypersurface",
    "is_smooth", "balancing_check", "vertex_frames", "load_curve_json", "Coamoeba",
    "PantsMap", "gamma_curve", "eta_curve", "pl_lift", "smooth_lift",
    "default_schedule", "GluingSchedule", "symplectic_residual",
    "hausdorff_distance", "twist", "exactness_check",
    "maslov_winding", "DelzantPolygon", "delzant_check", "classify_boundary",
    "lift_topology", "monotone_report",
]
