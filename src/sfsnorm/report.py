"""Result types of ``compute_norms`` and their JSON form.

A ``NormReport`` holds one ``ClassNorm`` per nonzero Z/2 class of a
presentation; neither stores what its presentation or witness fixes.
``to_json_dict`` gives what ``sfs-norm norm --format json`` prints, and
``norm_report_from_json`` reads it back into an equal report, so the
JSON output is a lossless record of a search.  The reader reads only the
presentation and, per class, the witness's kind and params, the witness
kinds and ``exhaustive``; it prices the witness and derives the rest.
"""

from __future__ import annotations

import json
from operator import attrgetter

from ._value import Value, _set
from .errors import PresentationError
from .notation import canonical_form, format_presentation, parse_presentation
from .seifert import homology_structure
from .surfaces import (
    HORIZONTAL,
    VERTICAL,
    json_fields,
    surface_report_from_json,
    vertical_surfaces,
)

class ClassNorm(Value):
    """Search result for one nonzero Z/2 class: its class and minimal
    genus are those of the witness, and ``witness_kinds`` the kinds that
    reach that genus.  ``min_vertical_genus`` is the genus of the class's
    pseudo-vertical surface, None when it has none.
    ``min_horizontal_genus`` is ``min_genus`` when a pseudo-horizontal
    surface reaches it, else None: the search prunes every horizontal
    candidate that cannot reach the class minimum, so it reports no
    horizontal genus above it.  Both are exact wherever they are given.
    """

    __slots__ = _fields = ("witness", "witness_kinds", "min_vertical_genus",
                           "exhaustive")

    def __init__(self, witness, witness_kinds, min_vertical_genus,
                 exhaustive):
        _set(self, "witness", witness)
        _set(self, "witness_kinds", witness_kinds)
        _set(self, "min_vertical_genus", min_vertical_genus)
        _set(self, "exhaustive", exhaustive)

    z2class = property(attrgetter("witness.z2class"))
    min_genus = property(attrgetter("witness.genus"))

    @property
    def min_horizontal_genus(self):
        return self.min_genus if HORIZONTAL in self.witness_kinds else None

    @property
    def norm(self):
        return max(0, self.min_genus - 2)

    def to_json_dict(self):
        e1, e2, e3 = self.z2class.parities
        return {
            "class": self.z2class.label,
            "e1": e1, "e2": e2, "e3": e3,
            "min_genus": self.min_genus,
            "norm": self.norm,
            "witness": self.witness.to_json_dict(),
            "witness_kinds": list(self.witness_kinds),
            "min_vertical_genus": self.min_vertical_genus,
            "min_horizontal_genus": self.min_horizontal_genus,
            "exhaustive": self.exhaustive,
        }


class NormReport(Value):
    """Per-class minima for one presentation."""

    __slots__ = _fields = ("presentation", "entries")

    def __init__(self, presentation, entries):
        _set(self, "presentation", presentation)
        _set(self, "entries", entries)

    @property
    def case(self):
        return homology_structure(self.presentation).case

    @property
    def per_class(self):
        return {entry.z2class: entry for entry in self.entries}

    @property
    def exhaustive(self):
        return all(entry.exhaustive for entry in self.entries)

    def to_json_dict(self):
        return {
            "presentation": format_presentation(self.presentation),
            "canonical_form": canonical_form(self.presentation),
            "homology": self.case.value,
            "exhaustive": self.exhaustive,
            "classes": [entry.to_json_dict() for entry in self.entries],
        }


def norm_report_from_json(data):
    """The ``NormReport`` whose ``to_json_dict`` is ``data``; raises
    ``PresentationError`` when there is none.  The classes must be the
    presentation's nonzero classes, in order, and each class's kinds its
    witness's kind, or both kinds sorted as ``compute_norms`` sorts them."""
    text, classes = json_fields(data, "norm record", {
        "presentation": (str,), "classes": (list,)})
    presentation = parse_presentation(text)
    vertical = {report.z2class: report.genus
                for report in vertical_surfaces(presentation)}
    entries = []
    for item in classes:
        witness, kinds, exhaustive = json_fields(item, "class record", {
            "witness": (dict,), "witness_kinds": (list,),
            "exhaustive": (bool,)})
        surface = surface_report_from_json(witness, presentation)
        if kinds not in ([surface.kind], [HORIZONTAL, VERTICAL]):
            raise PresentationError(f"witness kinds {kinds!r} do not fit "
                                    f"a {surface.kind} witness")
        entries.append(ClassNorm(
            witness=surface, witness_kinds=tuple(kinds),
            min_vertical_genus=vertical.get(surface.z2class),
            exhaustive=exhaustive))
    if tuple([entry.z2class for entry in entries]) != \
            homology_structure(presentation).nonzero_classes:
        raise PresentationError("norm record has the wrong classes")
    report = NormReport(presentation, tuple(entries))
    # The JSON texts, not the values: 3.0 == 3 and True == 1 in Python.
    try:
        forged = json.dumps(data, sort_keys=True) != \
            json.dumps(report.to_json_dict(), sort_keys=True)
    except (TypeError, ValueError):  # no JSON text, or unsortable keys
        forged = True
    if forged:
        raise PresentationError("norm record contradicts its own witness")
    return report
