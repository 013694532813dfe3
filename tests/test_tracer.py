"""The benchmark tracer (``perfbench/tracer.py``) still fits the package.

The tracer wraps functions of ``sfsnorm`` by module and attribute name
and raises when one is missing, so a rename would break a traced
benchmark run; this test makes it break the test suite first.
"""

import importlib.util
import sys
from pathlib import Path

import sfsnorm.cli
import sfsnorm.lens
import sfsnorm.search
import sfsnorm.surfaces

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
