"""Settings for the whole test session.

No bytecode is written, by the tests or by the interpreters they start,
so a test run leaves ``src``, ``perfbench`` and ``tools`` without a
``__pycache__``, as in a new checkout: ``tools/bench_pairs.py`` refuses
a checkout that holds one.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
