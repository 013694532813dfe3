"""The benchmark tracer (``perfbench/tracer.py``) still fits the package.

The tracer wraps functions of ``sfsnorm`` by module and attribute name
and raises when one is missing, so a rename would break a traced
benchmark run; this test makes it break the test suite first.
"""

import importlib.util
import logging
import sys
from pathlib import Path

import pytest

import sfsnorm.cli
import sfsnorm.lens
import sfsnorm.search
import sfsnorm.surfaces
from sfsnorm.seifert import SeifertPresentation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts(monkeypatch):
    tracer_module = load_tracer_module()
    points = [(sys.modules[module], attr)
              for module, attr, _ in tracer_module.SPANS + tracer_module.COUNTS]
    originals = [getattr(target, attr) for target, attr in points]
    tracer = tracer_module.Tracer()
    with monkeypatch.context() as patch:
        for (target, attr), original in zip(points, originals):
            # Registered so that leaving the context puts it back.
            patch.setattr(target, attr, original)
        tracer.install(sys.modules)
        # One scan line: one parse and one compute_norms, on an all-odd
        # presentation so that all three enumerators run.
        rows = sfsnorm.cli.family_scan("S2((3,2),(5,2),(7,4))", [])
    assert [getattr(target, attr) for target, attr in points] == originals
    assert [row["min_genus"] for row in rows] == [4]

    counts = tracer.counts
    assert counts["search.compute_norms"] == 1
    assert counts["notation.parse_presentation"] == 1
    # Existence is checked inside horizontal_report, once per candidate.
    assert counts["surfaces.ph_obstruction"] == \
        counts["surfaces.horizontal_report"] + counts["surfaces.ph_exists"]
    idle = {"surfaces.ph_exists"}
    assert [name for name, count in counts.items()
            if count == 0 and name not in idle] == []
    assert tracer.enumerated > 0
    assert tracer.max_degree > 0
    assert tracer.slopes
    own = tracer.self_times()
    opened = {name for _, _, name in tracer_module.SPANS} - idle
    assert opened <= set(own)
    assert tracer.cumulative("search.compute_norms") > 0


# A plain benchmark pass (perfbench/one_pass.py) does not install the
# tracer.  It times each presentation by wrapping
# ``sfsnorm.search.compute_norms`` and counts skipped instances on the
# ``sfsnorm.search`` logger, so both must stay where it looks.
SCAN_LINE = "S2((2,-1),(3,1),(n,1)) | n=1..4\n"  # n = 1 is no presentation


def test_plain_pass_times_every_presentation(monkeypatch, tmp_path):
    compute_norms, seen = sfsnorm.search.compute_norms, []

    def wrapper(presentation, *args, **kwargs):
        seen.append(presentation.pairs())
        return compute_norms(presentation, *args, **kwargs)
    monkeypatch.setattr(sfsnorm.search, "compute_norms", wrapper)
    spec = tmp_path / "fam.txt"
    spec.write_text(SCAN_LINE)
    assert sfsnorm.cli.main(["scan", str(spec)]) == 0
    assert seen == [((2, -1), (3, 1), (n, 1)) for n in (2, 3, 4)]


def test_plain_pass_sees_skips(caplog, tmp_path):
    spec = tmp_path / "fam.txt"
    spec.write_text(SCAN_LINE)
    with caplog.at_level(logging.WARNING, logger="sfsnorm.search"):
        assert sfsnorm.cli.main(["scan", str(spec)]) == 0
    skipped = [record.args[0] for record in caplog.records
               if record.name == "sfsnorm.search"]
    assert skipped == ["S2((2,-1),(3,1),(1,1))"]


@pytest.mark.parametrize("pairs", [
    ((2, -1), (3, 1), (8, 1)),
    ((3, 2), (5, 2), (7, 4)),
], ids=["case4_and_3", "all_odd"])
def test_enumerators_return_lists(pairs):
    # The tracer counts the candidates of an enumerator that returns
    # rather than yields with len().
    m = SeifertPresentation.from_pairs(pairs)
    for enumerate_case in (sfsnorm.search.enumerate_case4,
                           sfsnorm.search.enumerate_case3,
                           sfsnorm.search.enumerate_case1):
        state = sfsnorm.search._SearchState(m)
        assert isinstance(enumerate_case(state), list)
