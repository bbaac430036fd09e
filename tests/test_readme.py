"""The README's library example runs as written, so it names only live API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("## Library overview", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README}:library-overview", "exec"), namespace)
    assert len(namespace["table"]) == namespace["stats"]["count"]
