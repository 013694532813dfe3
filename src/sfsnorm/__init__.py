"""Z/2-Thurston norms of small Seifert fibered spaces.

Exact integer computation of the minimal genus of one-sided surfaces in
every nonzero Z/2-homology class of S^2((a1,b1),(a2,b2),(a3,b3)), by
enumerating pseudo-vertical and pseudo-horizontal candidates and pricing
each through the Bredon-Wood genus function of lens space slopes.
"""

from .errors import (
    InternalInvariantError,
    LensCurveError,
    NotationSyntaxError,
    PresentationError,
    SfsNormError,
)
from .lens import (
    CFDigits,
    LensCurve,
    b_sequence,
    cf_expand,
    n_genus,
    n_genus_oracle,
    normalize_lens,
    normalize_lens_steps,
    skip_sum,
)
from .notation import (
    canonical_form,
    detect_notation,
    format_presentation,
    parse_presentation,
)
from .search import (
    ClassNorm,
    NormReport,
    SearchBudget,
    compute_norms,
    enumerate_case1,
    enumerate_case3,
    enumerate_case4,
    family_scan,
    norm_report_from_json,
)
from .seifert import (
    FiberMatrix,
    HomologyCase,
    HomologyStructure,
    SeifertPresentation,
    Z2Class,
    complete_matrix,
    homology_structure,
    to_orlik_normal_form,
)
from .surfaces import (
    PHParams,
    SurfaceReport,
    VerticalSurface,
    horizontal_report,
    ph_class,
    ph_exists,
    ph_genus,
    ph_obstruction,
    surface_report_from_json,
    vertical_surfaces,
)

__version__ = "0.1.0"

__all__ = [
    "CFDigits",
    "ClassNorm",
    "FiberMatrix",
    "HomologyCase",
    "HomologyStructure",
    "InternalInvariantError",
    "LensCurve",
    "LensCurveError",
    "NormReport",
    "NotationSyntaxError",
    "PHParams",
    "PresentationError",
    "SearchBudget",
    "SeifertPresentation",
    "SfsNormError",
    "SurfaceReport",
    "VerticalSurface",
    "Z2Class",
    "b_sequence",
    "canonical_form",
    "cf_expand",
    "complete_matrix",
    "compute_norms",
    "detect_notation",
    "enumerate_case1",
    "enumerate_case3",
    "enumerate_case4",
    "family_scan",
    "format_presentation",
    "homology_structure",
    "horizontal_report",
    "n_genus",
    "n_genus_oracle",
    "norm_report_from_json",
    "normalize_lens",
    "normalize_lens_steps",
    "parse_presentation",
    "ph_class",
    "ph_exists",
    "ph_genus",
    "ph_obstruction",
    "skip_sum",
    "surface_report_from_json",
    "to_orlik_normal_form",
    "vertical_surfaces",
]
