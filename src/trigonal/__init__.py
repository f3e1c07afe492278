"""Trigonality of plane algebraic curves.

Given a plane projective curve of genus >= 3 with ordinary rational
singularities, decide whether it carries a degree-3 map to the projective
line and, when it does, construct and verify one.  The decision runs through
the canonical embedding, the space of quadrics through the canonical image,
and the Lie algebra of that quadric system; an independent
quadric-generation test cross-checks every verdict.
"""

from .curve import (PlaneCurve, SingularPoint, gen_method1, gen_singular_model,
                    gen_trigonal_projection, genus, parse_curve_file,
                    singular_locus, validate_curve, write_curve_file)
from .errors import TrigonalError
from .pipeline import Report, decide, g3_map, map_degree
from .poly import MPoly, parse_poly, poly_str

__version__ = "0.1.0"

__all__ = ["PlaneCurve", "SingularPoint", "Report", "TrigonalError",
           "MPoly", "decide", "map_degree", "g3_map", "genus",
           "singular_locus", "validate_curve", "gen_trigonal_projection",
           "gen_method1", "gen_singular_model",
           "parse_poly", "poly_str", "parse_curve_file", "write_curve_file",
           "__version__"]
