"""The README's Library section against the package: it names every export
and nothing else, and its example runs."""

import re
from pathlib import Path

import numpy as np

import siglex

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Library\n"):]


def test_library_section_lists_exactly_the_exports():
    section = library_section()
    exports = section[section.index("Exports (`siglex.__all__`)"):]
    exports = exports[exports.index("\n\n"):]
    listed = re.findall(r"`([A-Za-z_]\w*)`", exports[:exports.find("\n\n", 2)])
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(siglex.__all__)


def test_library_example_runs():
    section = library_section()
    code = section[section.index("```python\n") + 10:section.index("```\n", 10)]
    t = 0.01 * np.arange(500)
    namespace = {"g": np.sin(t), "raw_samples": np.cos(7.0 * t)}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["labels"]) == len(namespace["scores"]) == 5
    assert len(namespace["runs"]) > 0
