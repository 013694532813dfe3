"""Every public callable answers or raises the package's error.

Each callable of ``sfsnorm.__all__``, and each value constructor that
reading a record reaches, is called with valid arguments, then with
each wrong value below in place of one argument at a time; every call
must return or raise an ``SfsNormError``, never a ``TypeError``,
``AttributeError`` or other stray exception.
"""

import pytest

import sfsnorm
from sfsnorm import (
    LensCurve,
    PHParams,
    PresentationError,
    SfsNormError,
    compute_norms,
)
from sfsnorm.seifert import SeifertPresentation, homology_structure
from sfsnorm.surfaces import SurfaceReport, VerticalSurface

WRONG = (None, 5, 1.5, True, b"x", "x", {}, [], [1, 2, 3], {"a": 1})

# One presentation with a cyclic H_2 and one with a Klein four group,
# whose class ``ph_class`` reads off the slopes, each with the slopes of
# a surface in it.
PRESENTATIONS = (
    ("S2((2,-1),(3,1),(8,1))", ((2, -1), (3, 1), (6, 1))),
    ("S2((2,-1),(2,1),(6,1))", ((2, -1), (4, 1), (4, 1))),
)


# Well-typed slopes that bound no surface, with a presentation of each
# case: they fail the congruence in the cyclic one and the slope sum in
# the Klein four ones, where their parities (1, 1, 1) name no class.
NO_SURFACE = (
    ("S2((2,-1),(3,1),(8,1))", ((1, 0), (1, 1), (1, -1))),
    ("S2((2,-1),(2,1),(6,1))", ((2, 1), (2, 1), (2, 1))),
    ("S2((2,1),(2,1),(4,-1))", ((2, 1), (2, 1), (2, 1))),
)


def valid_arguments(text, slopes):
    """Valid positional arguments for every callable of ``__all__``."""
    m = sfsnorm.parse_presentation(text)
    params = PHParams(slopes)
    arguments = {
        "LensCurve": (8, 1),
        "PHParams": (slopes,),
        "SearchBudget": (2, 3),
        "SeifertPresentation": (m.fibers,),
        "compute_norms": (m, sfsnorm.SearchBudget()),
        "horizontal_report": (m, params),
        "n_genus": (LensCurve(8, 1),),
        "norm_report_from_json": (compute_norms(m).to_json_dict(),),
        "parse_presentation": (text,),
        "ph_class": (m, params),
        "ph_exists": (m, params),
        "ph_genus": (m, params),
        "vertical_surfaces": (m,),
    }
    for name in sfsnorm.__all__:
        if name.endswith("Error"):
            arguments[name] = ("message",)
    return arguments


def stray_calls(name, function, args):
    """The calls of ``function`` with one of ``args`` replaced by a
    wrong value that raise anything but an ``SfsNormError``."""
    function(*args)
    stray = []
    for position in range(len(args)):
        for wrong in WRONG:
            call = list(args)
            call[position] = wrong
            try:
                function(*call)
            except SfsNormError:
                pass
            except Exception as err:
                stray.append(f"{name} argument {position} = {wrong!r}: "
                             f"{type(err).__name__}: {err}")
    return stray


@pytest.mark.parametrize("text, slopes", PRESENTATIONS,
                         ids=["cyclic", "klein_four"])
def test_every_public_call_answers_or_raises_sfsnorm_error(text, slopes):
    arguments = valid_arguments(text, slopes)
    assert sorted(arguments) == sorted(sfsnorm.__all__)
    stray = []
    for name, args in arguments.items():
        stray += stray_calls(name, getattr(sfsnorm, name), args)
    assert not stray, "\n".join(stray)


@pytest.mark.parametrize("text, slopes", NO_SURFACE,
                         ids=["cyclic", "klein_four", "klein_four_2214"])
def test_slopes_that_bound_no_surface_raise_presentation_error(text,
                                                                slopes):
    # Every pricing function reads the one checked entry, so none of
    # them answers for a surface that does not exist.
    m = sfsnorm.parse_presentation(text)
    params = PHParams(slopes)
    assert sfsnorm.ph_exists(m, params) is False
    for name in ("ph_class", "ph_genus", "horizontal_report"):
        with pytest.raises(PresentationError, match="no pseudo-horizontal"):
            getattr(sfsnorm, name)(m, params)


def test_value_constructors_outside_all_raise_sfsnorm_error():
    # The constructors that reading a JSON record or a presentation
    # reaches, though ``__all__`` does not name them.
    m = sfsnorm.parse_presentation(PRESENTATIONS[0][0])
    surface = VerticalSurface((1, 2))
    calls = {
        "VerticalSurface": (VerticalSurface, (surface.connects,)),
        "SurfaceReport": (SurfaceReport, (
            surface, 3, homology_structure(m).nonzero_classes[0])),
        "SeifertPresentation.from_pairs": (
            SeifertPresentation.from_pairs, (m.pairs(),)),
    }
    stray = []
    for name, (function, args) in calls.items():
        stray += stray_calls(name, function, args)
    # A report's class is read by its JSON form, so no wrong value there
    # may even return.
    for wrong in WRONG:
        try:
            SurfaceReport(surface, 3, wrong)
        except SfsNormError:
            continue
        stray.append(f"SurfaceReport argument 2 = {wrong!r}: returned")
    assert not stray, "\n".join(stray)
