"""The README's library overview names only what the modules define."""

import functools
import importlib
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def overview_names():
    """(module, name) for each backticked identifier in the second column
    of the "Library overview" table: `name`, `name(...)` or `A.b`."""
    section = README.read_text().split("## Library overview", 1)[1]
    section = section.split("\n## ", 1)[0]
    out = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        module = re.fullmatch(r"`(qproj\.\w+)`", cells[0])
        if module is None or len(cells) < 2:
            continue
        for token in re.findall(r"`([^`]+)`", cells[1]):
            name = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", token)
            if name:
                out.append((module.group(1), name.group(1)))
    return out


def test_overview_names_resolve():
    names = overview_names()
    assert len({m for m, _ in names}) >= 9 and len(names) >= 40
    missing = []
    for module, name in names:
        try:
            functools.reduce(getattr, name.split("."),
                             importlib.import_module(module))
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert not missing
