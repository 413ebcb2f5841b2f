"""The package's public names, and the README example that uses them."""

import re
from pathlib import Path

import heckeskein

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in heckeskein.__all__ if not hasattr(heckeskein, name)]
    assert missing == []
    namespace = {}
    exec("from heckeskein import *", namespace)
    assert set(heckeskein.__all__) <= set(namespace)


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "from heckeskein import *" in block
    exec(compile(block, "README.md", "exec"), {})
