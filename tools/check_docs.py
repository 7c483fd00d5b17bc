#!/usr/bin/env python
"""Documentation checker: execute fenced Python snippets, verify links.

Usage::

    PYTHONPATH=src python tools/check_docs.py [files...]

With no arguments, checks the default documentation set (README.md,
EXPERIMENTS.md, docs/ARCHITECTURE.md).  Two checks per file:

1. **Snippets.**  Every ` ```python ` fenced block is executed, blocks
   of one file sharing a single namespace in order (so a quickstart can
   build on earlier blocks).  A block immediately preceded (within two
   lines) by the marker ``<!-- docs:no-run -->`` is parsed with
   :func:`compile` for syntax but not executed.  ``bash``/``text``
   fences are ignored.

2. **Links.**  Every intra-repository markdown link target
   (``[text](path)`` where path is not ``http(s)://`` or ``mailto:``)
   must exist relative to the file's directory.  Anchor fragments are
   checked too: ``#section`` must name a heading of the current file,
   and ``other.md#section`` a heading of the linked markdown file
   (GitHub anchor slugging: lowercase, punctuation stripped, spaces to
   hyphens, ``-N`` suffixes for duplicates).

Every run also checks that each ``*.md`` path named in a docstring
under ``src/`` (module, class or function) exists relative to the
repository root, so code cannot cite a document that is gone, and that
every fully qualified ``repro.…`` Sphinx cross-reference in those
docstrings (``:meth:``, ``:func:``, ``:class:``, ``:attr:``, ``:data:``,
``:mod:``, ``:exc:``) imports, so code cannot cite a name that is gone.  When
README.md is checked, its bench table must be exactly what
``tools/render_bench_table.py`` renders from the committed
``BENCH_*.json`` baselines, so a regenerated baseline cannot leave a
stale row behind.

Exit status 0 when everything passes; 1 with a per-failure report
otherwise.  The checker itself has no third-party dependencies; the
snippets and the bench table need ``repro`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import ast
import difflib
import importlib
import re
import sys
import traceback
from pathlib import Path
from typing import List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILES = ["README.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md"]

NO_RUN_MARKER = "<!-- docs:no-run -->"
FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def extract_blocks(text: str) -> List[Tuple[int, str, str, bool]]:
    """Return (start_line, language, code, no_run) for each fenced block."""
    blocks = []
    lines = text.splitlines()
    in_block = False
    language = ""
    start = 0
    buffer: List[str] = []
    for number, line in enumerate(lines, start=1):
        match = FENCE_RE.match(line.strip())
        if match and not in_block:
            in_block = True
            language = match.group(1).lower()
            start = number
            buffer = []
        elif line.strip() == "```" and in_block:
            in_block = False
            lookback = lines[max(0, start - 3) : start - 1]
            no_run = any(NO_RUN_MARKER in previous for previous in lookback)
            blocks.append((start, language, "\n".join(buffer), no_run))
        elif in_block:
            buffer.append(line)
    return blocks


def check_snippets(path: Path, text: str, failures: List[str]) -> int:
    namespace: dict = {"__name__": f"docs_snippet_{path.stem}"}
    executed = 0
    for start, language, code, no_run in extract_blocks(text):
        if language != "python":
            continue
        label = f"{path}:{start}"
        try:
            compiled = compile(code, label, "exec")
        except SyntaxError:
            failures.append(f"{label}: python block does not parse\n{traceback.format_exc()}")
            continue
        if no_run:
            continue
        try:
            exec(compiled, namespace)  # noqa: S102 - executing our own docs is the point
            executed += 1
        except Exception:
            failures.append(f"{label}: python block raised\n{traceback.format_exc()}")
    return executed


HEADING_RE = re.compile(r"^(#{1,6})\s+(.+?)\s*$")


def heading_anchors(text: str) -> set:
    """GitHub-style anchor slugs for every markdown heading in ``text``."""
    anchors = set()
    counts: dict = {}
    in_fence = False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()) or line.strip() == "```":
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        # GitHub slugger: lowercase, drop everything but word chars,
        # hyphens and spaces, then spaces -> hyphens; duplicates get -N.
        slug = re.sub(r"[^\w\- ]", "", match.group(2).lower()).replace(" ", "-")
        occurrence = counts.get(slug, 0)
        counts[slug] = occurrence + 1
        anchors.add(slug if occurrence == 0 else f"{slug}-{occurrence}")
    return anchors


def check_links(path: Path, text: str, failures: List[str]) -> int:
    checked = 0
    in_fence = False
    anchor_cache = {path.resolve(): heading_anchors(text)}
    for number, line in enumerate(text.splitlines(), start=1):
        if FENCE_RE.match(line.strip()) or line.strip() == "```":
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            checked += 1
            relative, _, anchor = target.partition("#")
            resolved = (path.parent / relative).resolve() if relative else path.resolve()
            if not resolved.exists():
                failures.append(f"{path}:{number}: broken intra-repo link -> {target}")
                continue
            if not anchor or resolved.suffix.lower() not in (".md", ".markdown"):
                continue
            if resolved not in anchor_cache:
                anchor_cache[resolved] = heading_anchors(
                    resolved.read_text(encoding="utf-8")
                )
            if anchor not in anchor_cache[resolved]:
                failures.append(
                    f"{path}:{number}: broken anchor -> {target} "
                    f"(no heading slug {anchor!r} in {resolved.name})"
                )
    return checked


DOC_PATH_RE = re.compile(r"[\w./-]+\.md\b")


def _docstrings(src: Path):
    """``(module path, docstring)`` of every module, class and function under ``src``."""
    for module in sorted(src.rglob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                yield module, ast.get_docstring(node, clean=False) or ""


def check_docstring_paths(src: Path, failures: List[str]) -> int:
    """Every ``*.md`` path a ``src`` docstring names must exist under the repo root."""
    checked = 0
    for module, docstring in _docstrings(src):
        for name in DOC_PATH_RE.findall(docstring):
            checked += 1
            if not (REPO_ROOT / name).exists():
                label = module.relative_to(REPO_ROOT)
                failures.append(f"{label}: docstring names missing document {name}")
    return checked


#: A Sphinx cross-reference to a fully qualified ``repro`` name, in any of
#: the forms ``repro.x``, ``~repro.x`` and ``title <repro.x>``.
XREF_RE = re.compile(r":(?:meth|func|class|attr|data|mod|exc):`(?:[^`<]*<)?~?(repro(?:\.\w+)+)>?`")


def resolves(name: str) -> bool:
    """True when the dotted ``name`` is an importable module or an attribute inside one."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_docstring_references(src: Path, failures: List[str]) -> int:
    """Every fully qualified ``repro.…`` cross-reference in a ``src`` docstring must import."""
    checked = 0
    for module, docstring in _docstrings(src):
        for name in XREF_RE.findall(docstring):
            checked += 1
            if not resolves(name):
                label = module.relative_to(src.parent)
                failures.append(f"{label}: docstring refers to {name}, which does not import")
    return checked


BENCH_TABLE_HEADER = "| bench | topology | result |"


def check_bench_table(text: str, failures: List[str]) -> None:
    """README's bench table must equal the render of the committed baselines."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import render_bench_table
    finally:
        sys.path.remove(str(REPO_ROOT / "tools"))
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    expected = render_bench_table.render(render_bench_table.load_artifacts(paths)).splitlines()
    lines = text.splitlines()
    if BENCH_TABLE_HEADER not in lines:
        failures.append(f"README.md: no bench table (a {BENCH_TABLE_HEADER!r} line)")
        return
    start = lines.index(BENCH_TABLE_HEADER)
    stop = start
    while stop < len(lines) and lines[stop].startswith("|"):
        stop += 1
    if lines[start:stop] != expected:
        diff = "\n".join(
            difflib.unified_diff(lines[start:stop], expected, "README.md", "rendered", lineterm="")
        )
        failures.append(
            "README.md: bench table differs from tools/render_bench_table.py output "
            f"over the committed BENCH_*.json; re-render it\n{diff}"
        )


def main(argv: List[str]) -> int:
    names = argv or DEFAULT_FILES
    failures: List[str] = []
    for name in names:
        path = (REPO_ROOT / name).resolve()
        if not path.exists():
            failures.append(f"{name}: documentation file is missing")
            continue
        text = path.read_text(encoding="utf-8")
        executed = check_snippets(path, text, failures)
        links = check_links(path, text, failures)
        print(f"{name}: {executed} snippet(s) executed, {links} intra-repo link(s) checked")
        if path == REPO_ROOT / "README.md":
            check_bench_table(text, failures)
    named = check_docstring_paths(REPO_ROOT / "src", failures)
    print(f"src/: {named} document path(s) named in docstrings checked")
    references = check_docstring_references(REPO_ROOT / "src", failures)
    print(f"src/: {references} repro cross-reference(s) in docstrings resolved")
    if failures:
        print(f"\n{len(failures)} documentation failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("docs OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
