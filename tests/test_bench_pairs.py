"""The summary of ``tools/bench_pairs.py``, on synthetic runs.

The tool runs the benchmark in two checkouts; its medians and its claim
sentence are plain functions of the runs, checked here without running
anything.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool_module():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair(parent, change):
    return {"parent": {"wall_s": parent}, "change": {"wall_s": change}}


RUNS = [pair(1.0, 0.9), pair(1.2, 1.0), pair(1.1, 1.3), pair(1.3, 1.0)]


def test_medians():
    tool = load_tool_module()
    m = tool.medians(RUNS)["wall_s"]
    assert m["parent_median"] == 1.15 and m["change_median"] == 1.0
    assert m["change_pct"] == -13.0
    assert m["change_lower_pairs"] == 3 and m["change_higher_pairs"] == 1
    assert m["parent_iqr"] == pytest.approx(0.25)  # exclusive quartiles
    assert tool.medians([]) == {}
    # Against a parent median of 0 the change has no percentage.
    zero = tool.medians([pair(0.0, 0.5)])["wall_s"]
    assert zero["change_median"] == 0.5 and zero["change_pct"] is None
    assert zero["change_higher_pairs"] == 1


def test_claim_text():
    tool = load_tool_module()
    workloads = {"mix": {"pairs": len(RUNS), "medians": tool.medians(RUNS)}}
    assert tool.claim_text(workloads, "mix:wall_s") == (
        "wall_s on mix against the parent: -13.0% in the median, lower in "
        "3 of 4 pairs, against a parent interquartile range of 21.7%")
    with pytest.raises(ValueError, match="reports no peak_rss_mb"):
        tool.claim_text(workloads, "mix:peak_rss_mb")
    empty = {"mix": {"pairs": 0, "medians": tool.medians([])}}
    with pytest.raises(ValueError, match="no pair of mix completed"):
        tool.claim_text(empty, "mix:wall_s")
    # No change in percent can be stated against a parent median of 0.
    zero = [pair(0.0, 0.0), pair(0.0, 0.1), pair(0.2, 0.0)]
    workloads = {"mix": {"pairs": len(zero), "medians": tool.medians(zero)}}
    with pytest.raises(ValueError, match="parent median of wall_s on mix "
                                         "is 0"):
        tool.claim_text(workloads, "mix:wall_s")


def test_claim_without_pairs_is_one_line_error(tmp_path, monkeypatch,
                                               capsys):
    tool = load_tool_module()
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    failed = [{"seed": 1, "first": "parent",
               "failed": {"change": "exit code 1"}}]
    monkeypatch.setattr(tool, "run_pairs", lambda *args: ([], failed))
    with pytest.raises(SystemExit) as exit_info:
        tool.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                   "--workload", "mix", "--pairs", "1", "--claim",
                   "mix:wall_s"])
    assert exit_info.value.code == "error: --claim mix:wall_s: no pair of " \
        "mix completed"


def test_runs_compile_from_source(tmp_path, monkeypatch):
    # Each run writes no bytecode and sets no PYTHONPYCACHEPREFIX, so
    # Python reads the standard library's compiled files as usual and
    # compiles the checkout, which holds no __pycache__, from source.
    tool = load_tool_module()
    seen = []

    def fake_run(command, cwd, capture_output, text, timeout, env):
        seen.append(env)
        return subprocess.CompletedProcess(command, 0, '{"x": 1}\n', "")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run_once(str(tmp_path), "mix", 1, 1) == {"x": 1}
    (env,) = seen
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert "PYTHONPYCACHEPREFIX" not in env


@pytest.mark.parametrize("top", ["src", "perfbench", "tools"])
def test_refuses_checkout_with_bytecode(tmp_path, monkeypatch, top):
    # A checkout's own __pycache__ would spare its passes the compiling
    # that a new checkout pays; the tool names it and runs nothing.
    tool = load_tool_module()
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        (tmp_path / side / "tests" / "__pycache__").mkdir(parents=True)
    cache = tmp_path / "change" / top / "pkg" / "__pycache__"
    cache.mkdir(parents=True)
    monkeypatch.setattr(tool, "run_pairs", lambda *args: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exit_info:
        tool.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                   "--workload", "mix"])
    assert exit_info.value.code == f"error: the change checkout holds " \
        f"{cache}; run on a fresh checkout"
    assert cache.is_dir()


def fake_output(wall_s, correct=True):
    return json.dumps({"correct": correct, "attempted": 1, "failed": 0,
                       "metrics": {"wall_s": {"value": wall_s}}})


@pytest.mark.parametrize("stdout, reason", [
    ("", "the last line of output is not a JSON object"),
    ("done\n", "the last line of output is not a JSON object"),
    ('{"metrics": {}\n', "the last line of output is not a JSON object"),
    ("[1, 2]\n", "the last line of output is not a JSON object"),
    (fake_output(9.0, correct=False), 'it reported "correct": false'),
    (None, "timed out after 600 s"),
], ids=["empty", "text", "truncated", "not_object", "incorrect", "timeout"])
def test_bad_run_is_listed_and_left_out(tmp_path, monkeypatch, stdout,
                                        reason):
    # A run that exits 0 with no usable result, reports wrong answers or
    # times out (stdout None) fails its pair: the pair is listed with the
    # reason, its times stay out of the medians, the other pairs count.
    tool = load_tool_module()
    checkouts = {side: str(tmp_path / side) for side in ("parent", "change")}
    calls = []

    def fake_run(command, cwd, capture_output, text, timeout, env):
        calls.append(cwd)
        seed = int(command[command.index("--seed") + 1])
        side = "parent" if cwd == checkouts["parent"] else "change"
        out = stdout if (seed, side) == (2, "change") else \
            fake_output(1.0 if side == "parent" else 0.5)
        if out is None:
            raise subprocess.TimeoutExpired(command, timeout)
        return subprocess.CompletedProcess(command, 0, out, "")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    runs, failed = tool.run_pairs(checkouts, "mix", 3, 1, 1)
    assert len(calls) == 6
    assert [run["seed"] for run in runs] == [1, 3]
    assert failed == [{"seed": 2, "first": "change",
                       "failed": {"change": reason}}]
    m = tool.medians(runs)["wall_s"]
    assert m["parent_median"] == 1.0 and m["change_median"] == 0.5
    monkeypatch.setattr(tool.subprocess, "run", lambda command, **kwargs:
                        subprocess.CompletedProcess(command, 3, "", "boom"))
    with pytest.raises(tool.RunFailed, match="exit code 3"):
        tool.run_once(checkouts["parent"], "mix", 1, 1)


END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "passed_share", "better": "higher", "bound": 0.01},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]


def shares(parent, change):
    return {"parent": {"passed_share": parent},
            "change": {"passed_share": change}}


@pytest.mark.parametrize("wall, share, expected", [
    ((1.0, 1.24), (1.0, 0.995), []),
    ((1.0, 1.26), (1.0, 1.0), ["mix:wall_s"]),
    ((1.0, 0.5), (1.0, 0.98), ["mix:passed_share"]),
    ((2.0, 1.0), (0.5, 1.0), []),
], ids=["within_bounds", "slower", "fewer_passed", "better"])
def test_worse_than_bound(wall, share, expected):
    # Worse means more than bound * parent median away in the metric's
    # better direction; a metric the runs do not report is not listed.
    tool = load_tool_module()
    runs = [{side: {**pair(*wall)[side], **shares(*share)[side]}
             for side in ("parent", "change")}]
    workloads = {"mix": {"pairs": 1, "medians": tool.medians(runs)}}
    assert tool.worse_than_bound(workloads, END_TO_END) == expected


def test_claim_text_follows_better_direction():
    tool = load_tool_module()
    runs = [shares(0.9, 1.0), shares(0.9, 0.95), shares(1.0, 0.9)]
    workloads = {"mix": {"pairs": len(runs), "medians": tool.medians(runs)}}
    assert tool.claim_text(workloads, "mix:passed_share", END_TO_END) == (
        "passed_share on mix against the parent: +5.6% in the median, "
        "higher in 2 of 3 pairs, against a parent interquartile range of "
        "11.1%")


def test_main_writes_worse_than_bound(tmp_path, monkeypatch, capsys):
    tool = load_tool_module()
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "parent" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": END_TO_END}))
    runs = [pair(1.0, 1.3), pair(1.0, 1.4)]
    monkeypatch.setattr(tool, "run_pairs", lambda *args: (runs, []))
    out = tmp_path / "bench.json"
    tool.main([str(tmp_path / "parent"), str(tmp_path / "change"),
               "--workload", "mix", "--out", str(out)])
    assert json.loads(out.read_text())["worse_than_bound"] == ["mix:wall_s"]
    assert "worse than bound: ['mix:wall_s']" in capsys.readouterr().err


@pytest.mark.parametrize("claim, message", [
    ("mix", "--claim mix is not WORKLOAD:METRIC"),
    ("mix:", "--claim mix: is not WORKLOAD:METRIC"),
    ("other:wall_s", "--claim other:wall_s names no --workload"),
    ("mix:wall", "--claim mix:wall: wall is no end_to_end metric of the "
                 "parent's BENCHMARK.json"),
], ids=["no_metric", "empty_metric", "other_workload", "misspelt_metric"])
def test_bad_claim_is_refused_before_any_run(tmp_path, monkeypatch, capsys,
                                             claim, message):
    tool = load_tool_module()
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "parent" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": END_TO_END}))
    monkeypatch.setattr(tool, "run_once", lambda *args: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exit_info:
        tool.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                   "--workload", "mix", "--claim", claim])
    assert exit_info.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
