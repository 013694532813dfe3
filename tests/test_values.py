"""Value semantics of the package's immutable classes.

Every value class keeps the repr, equality, hashing, immutability and
copy/pickle behaviour it had as a frozen dataclass; ``Z2Class`` keeps
identity equality and comes back from a copy as the same object.  And
loading the package pulls in no ``dataclasses``.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from sfsnorm.lens import LensCurve
from sfsnorm.report import ClassNorm, NormReport
from sfsnorm.search import SearchBudget
from sfsnorm.seifert import (
    FiberMatrix,
    HomologyCase,
    HomologyStructure,
    SeifertPresentation,
    Z2Class,
)
from sfsnorm.surfaces import (
    HORIZONTAL,
    VERTICAL,
    PHParams,
    SurfaceReport,
    VerticalSurface,
)

SRC = Path(__file__).resolve().parent.parent / "src"

FIBERS = "FiberMatrix(alpha=2, beta=-1, gamma=-1, delta=1)"
CLASS = "Z2Class(parities=(1, 1, 0))"
PRESENTATION = ("SeifertPresentation(fibers=(" + FIBERS + ", FiberMatrix("
                "alpha=4, beta=1, gamma=3, delta=1), FiberMatrix(alpha=6, "
                "beta=1, gamma=5, delta=1)))")
REPORT = ("SurfaceReport(surface=VerticalSurface(connects=(1, 2)), "
          "genus=3, z2class=" + CLASS + ")")
CLASS_NORM = ("ClassNorm(witness=" + REPORT + ", witness_kinds="
              "('vertical',), min_vertical_genus=3, exhaustive=True)")


def presentation(last_beta=1):
    return SeifertPresentation.from_pairs(((2, -1), (4, 1), (6, last_beta)))


def klein_four(last=(0, 1, 1)):
    return HomologyStructure(HomologyCase.KLEIN_FOUR,
                             (Z2Class((1, 1, 0)), Z2Class((1, 0, 1)),
                              Z2Class(last)))


def report(genus=3):
    return SurfaceReport(VerticalSurface((2, 1)), genus, Z2Class((1, 1, 0)))


def class_norm(exhaustive=True):
    return ClassNorm(witness=report(), witness_kinds=(VERTICAL,),
                     min_vertical_genus=3, exhaustive=exhaustive)


# (build an instance, build one that differs in one field, its repr).
CASES = {
    "FiberMatrix": (lambda: FiberMatrix(2, -1, -1, 1),
                    lambda: FiberMatrix(2, -1, 1, 0), FIBERS),
    "SeifertPresentation": (presentation, lambda: presentation(5),
                            PRESENTATION),
    "Z2Class": (lambda: Z2Class((1, 1, 0)), lambda: Z2Class((1, 0, 1)),
                CLASS),
    "HomologyStructure": (
        klein_four, lambda: klein_four((1, 1, 1)),
        "HomologyStructure(case=<HomologyCase.KLEIN_FOUR: 'klein_four'>, "
        "nonzero_classes=(" + CLASS + ", Z2Class(parities=(1, 0, 1)), "
        "Z2Class(parities=(0, 1, 1))))"),
    "PHParams": (lambda: PHParams(((1, 0), (2, 1), (3, 1))),
                 lambda: PHParams(((1, 0), (2, 1), (3, 2))),
                 "PHParams(pairs=((1, 0), (2, 1), (3, 1)))"),
    "VerticalSurface": (lambda: VerticalSurface((2, 1)),
                        lambda: VerticalSurface((1, 3)),
                        "VerticalSurface(connects=(1, 2))"),
    "SurfaceReport": (report, lambda: report(5), REPORT),
    "LensCurve": (lambda: LensCurve(46, 7), lambda: LensCurve(46, 9),
                  "LensCurve(twok=46, q=7)"),
    "ClassNorm": (class_norm, lambda: class_norm(False), CLASS_NORM),
    "NormReport": (
        lambda: NormReport(presentation(), (class_norm(),)),
        lambda: NormReport(presentation(), ()),
        "NormReport(presentation=" + PRESENTATION + ", entries=("
        + CLASS_NORM + ",))"),
    "SearchBudget": (lambda: SearchBudget(5), lambda: SearchBudget(5, 7),
                     "SearchBudget(mu_window=5, lambda_cap=None)"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_repr(case):
    build, _, text = case
    assert repr(build()) == text
    assert type(build()).__name__ == text.split("(", 1)[0]


def test_equality_and_hash(case):
    build, differ, _ = case
    value, twin, other = build(), build(), differ()
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert value != other and not value == other
    assert value.__eq__(object()) is NotImplemented
    assert value != repr(value)


def test_fields_are_read_only(case):
    build, _, text = case
    value = build()
    field = text.split("(", 2)[1].split("=", 1)[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy] + [
    (lambda value, p=p: pickle.loads(pickle.dumps(value, protocol=p)))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)])
def test_copies_round_trip(case, how):
    build, _, text = case
    value = build()
    twin = how(value)
    assert type(twin) is type(value)
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == text
    if isinstance(value, Z2Class):
        assert twin is value


def test_ph_params_keep_the_cover_degree():
    params = PHParams(((1, 0), (2, 1), (3, 1)))
    assert params.lam == 6
    assert pickle.loads(pickle.dumps(params)).lam == 6
    with pytest.raises(AttributeError):
        params.lam = 7
    report = SurfaceReport(params, 4, Z2Class((1, 1, 1)))
    assert report.surface is params and report.kind == HORIZONTAL


def test_import_leaves_dataclasses_out():
    # Building a frozen dataclass costs the import far more than a
    # slotted class does; this keeps the code generator from returning.
    code = ("import sys, sfsnorm.cli; "
            "print('dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
