"""The README's Library example runs and prints what its comments state."""

import ast
import re
from collections import Counter
from pathlib import Path

from gpforce.tables import PUBLISHED_ORBIT_ROWS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    for comment in ("# 34x^3+11x^2", "# 22 alternating cycles", "# f = 3", "# C = 2"):
        assert comment in block
    namespace = {}
    exec(block, namespace)
    poly, rows, f, packing = capsys.readouterr().out.splitlines()
    assert poly == "34x^3+11x^2"
    assert Counter(ast.literal_eval(rows)) == Counter(PUBLISHED_ORBIT_ROWS[11])
    assert len(namespace["cycles"]) == 22
    assert (f, packing) == ("3", "2")
