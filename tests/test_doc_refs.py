"""Cross-references from the code and the documents resolve (ROADMAP 12d).

Every ``ROADMAP <n>[letter]`` names an item ROADMAP.md still lists as
open, every ``benchmarks/...py`` / ``tests/...py`` path that is mentioned
exists, and every rule id or family (``W302``, ``E7xx``) names a rule of
``repro.analysis.RULES``.  A retired sub-item is written ``(a) → done, ...``
(or ``→ item n``) in ROADMAP.md; that arrow is what this test reads.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    ROOT / "DESIGN.md",
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
RULE_REF = re.compile(r"\b([BCEFGMPWZ][1-9])(\d\d|xx)\b")


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
