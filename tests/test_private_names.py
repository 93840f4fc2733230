"""No module of ``src/repro`` reads another module's private name.

A parameter the simulator reads belongs to one module, under a public
name, so the kernel and the oracle's scalar models read the same
definition.  A read of ``mod._name`` or ``from repro.x import _name`` is a
second owner in the making; this test parses every source file and fails
on either.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_module(dotted: str, src: pathlib.Path) -> bool:
    path = src.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def private_reads(source: str, src: pathlib.Path = SRC) -> list[str]:
    """Every read of another ``repro`` module's private name in ``source``,
    as ``line: module._name``: an attribute of a name bound to a ``repro``
    module by an import, or a ``from repro.x import _name``."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # local name -> dotted module path
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["repro"] = "repro"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] != "repro":
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
                elif _is_module(f"{node.module}.{alias.name}", src):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        chain, value = [], node.value
        while isinstance(value, ast.Attribute):
            chain.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name) and value.id in modules:
            dotted = ".".join([modules[value.id], *reversed(chain)])
            if _is_module(dotted, src):
                found.append((node.lineno, f"{dotted}.{node.attr}"))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_module_reads_another_modules_private_names():
    hits = {
        str(path.relative_to(SRC)): reads
        for path in sorted((SRC / "repro").rglob("*.py"))
        if (reads := private_reads(path.read_text()))
    }
    assert hits == {}


def test_checker_finds_private_reads():
    source = (
        "import repro.radio.phy\n"
        "import repro.net.latency as lat\n"
        "from repro.radio import channel\n"
        "from repro.mobility import engine as ho\n"
        "from repro.store.format import DatasetReader, _is_size\n"
        "a = channel._NOISE + channel.NOISE_FLOOR_DBM\n"
        "b = lat._SPIKE * ho._RATE * repro.radio.phy._FLOOR\n"
        "c = DatasetReader._parse + self._x + channel.__name__\n"
    )
    assert private_reads(source) == [
        "5: repro.store.format._is_size",
        "6: repro.radio.channel._NOISE",
        "7: repro.mobility.engine._RATE",
        "7: repro.net.latency._SPIKE",
        "7: repro.radio.phy._FLOOR",
    ]
