"""Result types of ``compute_norms`` and their JSON form.

A ``NormReport`` holds one ``ClassNorm`` per nonzero Z/2 class of a
presentation.  ``to_json_dict`` gives what ``sfs-norm norm --format
json`` prints, and ``norm_report_from_json`` reads it back into an equal
report, so the JSON output is a lossless record of a search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .notation import canonical_form, format_presentation, parse_presentation
from .seifert import HomologyCase, SeifertPresentation, Z2Class
from .surfaces import SurfaceReport, surface_report_from_json


@dataclass(frozen=True)
class ClassNorm:
    """Search result for one nonzero Z/2 class.

    ``min_vertical_genus`` and ``min_horizontal_genus`` are the least
    genus of each kind the search priced.  The vertical one is exact,
    since every pseudo-vertical surface is priced.  The horizontal one
    is exact only when it equals ``min_genus``; otherwise it is an upper
    bound, because the search prunes every candidate that cannot beat
    the class minimum.
    """

    z2class: Z2Class
    min_genus: int
    witness: SurfaceReport
    witness_kinds: tuple
    min_vertical_genus: int | None
    min_horizontal_genus: int | None
    exhaustive: bool

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


@dataclass(frozen=True)
class NormReport:
    """Per-class minima for one presentation."""

    presentation: SeifertPresentation
    case: HomologyCase
    entries: tuple

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
