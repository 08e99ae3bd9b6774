"""Cross-references from the code and the documents resolve.

Every ``ROADMAP <n>[letter]`` names an item ROADMAP.md still lists as
open, every ``benchmarks/...py`` / ``tests/...py`` path that is mentioned
exists, and a ``path.py::name`` after one names a ``def`` or ``class`` of
that file (the name may wrap onto the next line).  Every ``§n[letter]``
names a ``## n[letter].`` heading of DESIGN.md, every rule id or family
(``W302``, ``E7xx``) names a rule of ``repro.analysis.RULES``, and every
backticked ``repro.<dotted>`` name imports: its longest importable prefix
is a module and each name after it an attribute.  A retired sub-item is
written ``(a) → done, ...`` (or ``→ item n``) in ROADMAP.md; that arrow is
what this test reads.  The root documents also keep to a size: DESIGN,
README and EXPERIMENTS to a byte budget, and each CHANGES entry to a
short ledger.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "README.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    *sorted((ROOT / "src").rglob("*.py")),
]

#: Where a rule id is a promise about the catalogue: the documents above,
#: plus CI (it greps lint output for ids) and the examples.
RULE_SOURCES = [
    *SOURCES,
    ROOT / ".github" / "workflows" / "ci.yml",
    *sorted((ROOT / "examples").glob("*.py")),
]

ROADMAP_REF = re.compile(r"ROADMAP(?: item)? (\d+)([a-z])?\b")
TEST_PATH = re.compile(r"\b((?:benchmarks|tests)/[\w/.-]*\.py)\b")
#: ``path.py::name``, the name possibly wrapped onto the next line
TEST_ID = re.compile(r"\b((?:benchmarks|tests)/[\w/.-]*\.py)::\s*(\w+)")
SECTION_REF = re.compile(r"§\s?(\d+[a-z]?)\b")
RULE_REF = re.compile(r"\b([BCEFGMPWZ][1-9])(\d\d|xx)\b")
#: in Markdown backticks, RST double backticks or a Sphinx role (``~`` too)
DOTTED_REF = re.compile(r"`~?(repro(?:\.\w+)+)")


def open_items(roadmap: str) -> "dict[int, set[str]]":
    """Item number -> its open sub-item letters, from ``## Open items``."""
    section = roadmap.split("## Open items", 1)[1].split("\n## ", 1)[0]
    items: dict[int, set[str]] = {}
    for body in re.split(r"\n(?=\d+\. \*\*)", section)[1:]:
        number = int(body.split(".", 1)[0])
        retired = {
            letter
            for group in re.findall(r"((?:\([a-z]\),?\s*)+)→", body)
            for letter in re.findall(r"\(([a-z])\)", group)
        }
        items[number] = set(re.findall(r"\(([a-z])\)", body)) - retired
    return items


def _mentions(pattern, sources=SOURCES):
    for path in sources:
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for match in pattern.finditer(line):
                yield f"{path.relative_to(ROOT)}:{lineno}", match


def test_the_parser_reads_retirements():
    items = open_items(
        "## Open items\n\nintro (a)\n\n"
        "2. **Two.** (a) open; (b) → done, PR 1; (c), (d)\n   → item 3.\n\n"
        "3. **Three.** no letters\n\n## Recent\n\n9. **Not an item.**\n"
    )
    assert items == {2: {"a"}, 3: set()}


def test_roadmap_references_name_open_items():
    items = open_items((ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    assert items, "no open items parsed from ROADMAP.md"
    dangling = [
        f"{where}: {match.group(0)}"
        for where, match in _mentions(ROADMAP_REF)
        if int(match.group(1)) not in items
        or (match.group(2) and match.group(2) not in items[int(match.group(1))])
    ]
    assert not dangling, "\n".join(dangling)


def test_mentioned_test_and_bench_files_exist():
    missing = [
        f"{where}: {match.group(1)}"
        for where, match in _mentions(TEST_PATH)
        if not (ROOT / match.group(1)).is_file()
    ]
    assert not missing, "\n".join(missing)


def defined_names(path: Path) -> "set[str]":
    """The top-level ``def`` and ``class`` names of a Python file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def test_mentioned_test_ids_name_a_def_or_class():
    dangling = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for match in TEST_ID.finditer(text):
            target = ROOT / match.group(1)
            if not target.is_file() or match.group(2) not in defined_names(target):
                lineno = text.count("\n", 0, match.start()) + 1
                dangling.append(
                    f"{path.relative_to(ROOT)}:{lineno}: "
                    f"{match.group(1)}::{match.group(2)}"
                )
    assert not dangling, "\n".join(dangling)


def test_section_references_name_design_headings():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    headings = set(re.findall(r"^## (\d+[a-z]?)\.", design, re.MULTILINE))
    dangling = [
        f"{where}: {match.group(0)}"
        for where, match in _mentions(SECTION_REF)
        if match.group(1) not in headings
    ]
    assert not dangling, "\n".join(dangling)


def test_mentioned_rules_are_in_the_catalogue():
    from repro.analysis import RULES

    families = {rule[:2] for rule in RULES}
    unknown = [
        f"{where}: {match.group(0)}"
        for where, match in _mentions(RULE_REF, RULE_SOURCES)
        if (match.group(1) not in families if match.group(2) == "xx"
            else match.group(0) not in RULES)
    ]
    assert not unknown, "\n".join(unknown)


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or attributes of its longest module."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def test_the_resolver_reads_modules_and_attributes():
    assert resolves("repro.viz.filters.RasterZFilter.result")
    assert resolves("repro.engines")
    assert not resolves("repro.viz.nowhere")
    assert not resolves("repro.viz.filters.RasterZFilter.nothing")


def test_mentioned_repro_names_resolve():
    dangling = [
        f"{where}: {match.group(1)}"
        for where, match in _mentions(DOTTED_REF)
        if not resolves(match.group(1))
    ]
    assert not dangling, "\n".join(dangling)


#: Bytes each document may hold: a change that needs more room in one
#: first says something once instead of twice.
BUDGETS = {"DESIGN.md": 67740, "EXPERIMENTS.md": 16848, "README.md": 21357}
#: A CHANGES entry is a ledger: its claim, verdict, numbers, check changes
#: and open findings, not the design, which DESIGN holds.
ENTRY_LINES, ENTRY_BYTES = 16, 2500
ENTRY_HEAD = re.compile(r"^- (?:PR|ISSUE) \d+", re.MULTILINE)


def changes_entries(text: str) -> "list[str]":
    """The entries of CHANGES.md: each ``- PR n`` / ``- ISSUE n`` line and
    every line after it up to the next such line."""
    starts = [match.start() for match in ENTRY_HEAD.finditer(text)]
    return [text[a:b].rstrip("\n") for a, b in zip(starts, [*starts[1:], len(text)])]


def test_documents_keep_to_their_budgets():
    over = [
        f"{name}: {size} bytes, budget {budget}"
        for name, budget in BUDGETS.items()
        if (size := len((ROOT / name).read_bytes())) > budget
    ]
    assert not over, "\n".join(over)


def test_every_changes_entry_is_a_short_ledger():
    text = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    entries = changes_entries(text)
    heads = [line for line in text.splitlines() if line.startswith(("- PR ", "- ISSUE "))]
    assert entries and len(entries) == len(heads), "CHANGES.md entries misparsed"
    long = [
        f"{entry.splitlines()[0][:60]}: {entry.count(chr(10)) + 1} lines, "
        f"{len(entry.encode())} bytes"
        for entry in entries
        if entry.count("\n") + 1 > ENTRY_LINES or len(entry.encode()) > ENTRY_BYTES
    ]
    assert not long, "\n".join(long)
