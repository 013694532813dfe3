"""README's library example runs, and every ``sfsnorm.<name>`` it gives
exists."""

import ast
import re
from pathlib import Path

import sfsnorm

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def test_library_block_runs():
    block = re.search(r"## Library\n.*?```python\n(.*?)```", README,
                      re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # A line "expression  # value" states the value of the expression.
    claims = re.findall(r"^(\S.*?)\s+# (.+)$", block, re.M)
    assert claims
    for expression, value in claims:
        assert eval(expression, namespace) == ast.literal_eval(value), \
            expression


def test_named_attributes_resolve():
    names = set(re.findall(r"\bsfsnorm(?:\.\w+)+", README))
    assert "sfsnorm.norm_report_from_json" in names
    for name in sorted(names):
        target = sfsnorm
        for part in name.split(".")[1:]:
            assert hasattr(target, part), name
            target = getattr(target, part)
