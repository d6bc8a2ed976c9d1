"""The library examples in README.md run as written."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)


def test_the_readme_has_library_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("example", EXAMPLES, ids=[f"example{i + 1}" for i in range(len(EXAMPLES))])
def test_a_readme_example_runs(example, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples open fixtures by paths relative to the repository
    exec(compile(example, "README.md", "exec"), {"__name__": "readme"})
