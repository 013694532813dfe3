"""Frozen per-class norms of a seeded corpus (see record_norm_fixture.py).

A pruning change must leave every row as recorded, or re-record the
fixture and list the rows it changes.
"""

import json

from record_norm_fixture import FIXTURE, corpus, rows
from sfsnorm.notation import format_presentation, parse_presentation


def test_fixture_covers_the_corpus():
    table = json.loads(FIXTURE.read_text())
    assert len(table) >= 500
    assert list(table) == list(dict.fromkeys(
        format_presentation(m) for m in corpus()))


def test_norms_match_fixture():
    table = json.loads(FIXTURE.read_text())
    changed = [text for text, recorded in table.items()
               if rows(parse_presentation(text)) != recorded]
    assert changed == []
