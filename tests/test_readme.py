"""The README's code runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block under the README's ``## heading``."""
    section = README.read_text().split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(_python_block("Library quick start"), str(README), "exec"), {})
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
