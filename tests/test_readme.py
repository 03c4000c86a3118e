"""The README's Python example runs as shown.

A public name the README still uses but the package no longer has fails
here, and so does a verdict that no longer matches its comment.
"""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        verdict = comment.split(",")[0].strip()
        if verdict in ("True", "False"):
            assert eval(code, namespace) is (verdict == "True"), line
            checked.append(verdict)
    assert checked == ["False", "True"]
