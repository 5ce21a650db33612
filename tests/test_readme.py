"""The README against the package: the Library section names every export
and nothing else, its example runs, and the CLI section lists the fields
the config reader reads."""

import inspect
import re
from pathlib import Path

import numpy as np

import siglex
from siglex import cli

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


def test_config_field_lists_equal_the_reader_tables():
    text = README.read_text(encoding="utf-8")
    start = text.index("\n* ", text.index("Config fields, one list per object"))
    documented = []
    for bullet in text[start + 3:text.index("\n\n", start)].split("\n* "):
        # the object's label ends at the first ": " outside a JSON literal
        fields = re.split(r"(?<=[\w`]): ", bullet, maxsplit=1)[1]
        required, _, optional = ("; " + fields).partition("; optional ")
        documented.append((re.findall(r"`(\w+)`", required),
                           re.findall(r"`(\w+)`", optional)))
    names = re.findall(r"_fields\(.*?, (_[A-Z][A-Z_]*)\)", inspect.getsource(cli))
    assert len(names) == len(set(names)) == len(documented)
    read = [([key for key, _, *default in table if not default],
             [key for key, _, *default in table if default])
            for table in [getattr(cli, name) for name in names]]
    assert sorted(documented) == sorted(read)
