"""Result types of ``compute_norms`` and their JSON form.

A ``NormReport`` holds one ``ClassNorm`` per nonzero Z/2 class of a
presentation.  ``to_json_dict`` gives what ``sfs-norm norm --format
json`` prints, and ``norm_report_from_json`` reads it back into an equal
report, so the JSON output is a lossless record of a search.
"""

from __future__ import annotations

from ._value import Value, _set
from .notation import canonical_form, format_presentation, parse_presentation
from .seifert import HomologyCase, Z2Class
from .surfaces import surface_report_from_json


class ClassNorm(Value):
    """Search result for one nonzero Z/2 class.

    ``min_vertical_genus`` is the genus of the class's pseudo-vertical
    surface, None when it has none.  ``min_horizontal_genus`` is
    ``min_genus`` when a pseudo-horizontal surface reaches it, else None:
    the search prunes every horizontal candidate that cannot reach the
    class minimum, so it reports no horizontal genus above it.  Both are
    exact wherever they are given.
    """

    __slots__ = _fields = ("z2class", "min_genus", "witness",
                           "witness_kinds", "min_vertical_genus",
                           "min_horizontal_genus", "exhaustive")

    def __init__(self, z2class, min_genus, witness, witness_kinds,
                 min_vertical_genus, min_horizontal_genus, exhaustive):
        _set(self, "z2class", z2class)
        _set(self, "min_genus", min_genus)
        _set(self, "witness", witness)
        _set(self, "witness_kinds", witness_kinds)
        _set(self, "min_vertical_genus", min_vertical_genus)
        _set(self, "min_horizontal_genus", min_horizontal_genus)
        _set(self, "exhaustive", exhaustive)

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

    __slots__ = _fields = ("presentation", "case", "entries")

    def __init__(self, presentation, case, entries):
        _set(self, "presentation", presentation)
        _set(self, "case", case)
        _set(self, "entries", entries)

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
    """The ``NormReport`` whose ``to_json_dict`` is ``data``."""
    presentation = parse_presentation(data["presentation"])
    entries = []
    for item in data["classes"]:
        entries.append(ClassNorm(
            z2class=Z2Class((item["e1"], item["e2"], item["e3"])),
            min_genus=item["min_genus"],
            witness=surface_report_from_json(item["witness"]),
            witness_kinds=tuple(item["witness_kinds"]),
            min_vertical_genus=item["min_vertical_genus"],
            min_horizontal_genus=item["min_horizontal_genus"],
            exhaustive=item["exhaustive"],
        ))
    return NormReport(presentation, HomologyCase(data["homology"]),
                      tuple(entries))
