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
    changed = {}
    for text, recorded in table.items():
        now = rows(parse_presentation(text))
        if now != recorded:
            changed[text] = (recorded, now)
    shown = "".join(f"\n{text}\n  recorded {recorded}\n  now      {now}"
                    for text, (recorded, now) in list(changed.items())[:10])
    assert not changed, f"{len(changed)} presentations differ:{shown}"
