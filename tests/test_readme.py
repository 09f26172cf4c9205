import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index):
    # Each block stands alone, as a reader would paste it.
    code = compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "__readme__"})
