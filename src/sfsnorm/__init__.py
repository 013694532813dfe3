"""Z/2-Thurston norms of small Seifert fibered spaces.

Exact integer computation of the minimal genus of one-sided surfaces in
every nonzero Z/2-homology class of S^2((a1,b1),(a2,b2),(a3,b3)), by
enumerating pseudo-vertical and pseudo-horizontal candidates and pricing
each through the Bredon-Wood genus function of lens space slopes.
Everything else lives in the submodules.
"""

from .errors import (
    InternalInvariantError,
    LensCurveError,
    NotationSyntaxError,
    PresentationError,
    SfsNormError,
)
from .lens import LensCurve, n_genus
from .notation import parse_presentation
from .report import norm_report_from_json
from .search import SearchBudget, compute_norms
from .seifert import SeifertPresentation
from .surfaces import (
    PHParams,
    horizontal_report,
    ph_class,
    ph_exists,
    ph_genus,
    vertical_surfaces,
)

__version__ = "0.1.0"

__all__ = [
    "InternalInvariantError",
    "LensCurve",
    "LensCurveError",
    "NotationSyntaxError",
    "PHParams",
    "PresentationError",
    "SearchBudget",
    "SeifertPresentation",
    "SfsNormError",
    "compute_norms",
    "horizontal_report",
    "n_genus",
    "norm_report_from_json",
    "parse_presentation",
    "ph_class",
    "ph_exists",
    "ph_genus",
    "vertical_surfaces",
]
