"""No module of ``src/repro`` builds record rows outside the two that own them.

A dataset holds every table as columns, and records exist only as the
read-only view :class:`~repro.campaign.dataset.DriveDataset` builds from
them (through :meth:`~repro.store.columnar.ColumnTable.rows`).  A module
that constructs a record of a :data:`~repro.campaign.dataset.RECORD_FAMILIES`
class, or calls ``.rows()``, writes or reads rows beside that one form;
this test parses every source file and fails on either.
"""

from __future__ import annotations

import ast
import pathlib

from repro.campaign.dataset import RECORD_FAMILIES

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: The modules that turn columns into records: the dataset's record view
#: and the column table.
OWNERS = frozenset({"repro/campaign/dataset.py", "repro/store/columnar.py"})

RECORD_CLASSES = frozenset(f.record.__name__ for f in RECORD_FAMILIES)


def record_rows(source: str) -> list[str]:
    """Every record-class call and argument-less ``.rows()`` call in
    ``source``, as ``line: name`` (``rows(table)`` methods that count rows
    are another thing)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        rows = isinstance(func, ast.Attribute) and name == "rows" and not (
            node.args or node.keywords
        )
        if name in RECORD_CLASSES or rows:
            found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_no_module_builds_record_rows():
    hits = {
        rel: found
        for path in sorted((SRC / "repro").rglob("*.py"))
        if (rel := str(path.relative_to(SRC))) not in OWNERS
        and (found := record_rows(path.read_text()))
    }
    assert hits == {}


def test_checker_finds_record_rows():
    source = (
        "from repro.campaign import dataset\n"
        "from repro.campaign.dataset import VideoRunResult\n"
        "a = VideoRunResult(**run)\n"
        "b = dataset.TestRecord(*fields)\n"
        "c = trace.table.rows()\n"
        "d = rows() + info.rows(t) + index.rows(ids=i) + VideoRunResult.__name__\n"
    )
    assert record_rows(source) == [
        "3: VideoRunResult",
        "4: TestRecord",
        "5: rows",
    ]
