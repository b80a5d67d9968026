#!/usr/bin/env python3
"""Markdown cross-reference checker.

Validates every relative link in the repository's markdown files:

* the linked file exists (relative to the linking document), and
* if the link carries a ``#anchor``, the target file contains a heading
  whose GitHub-style anchor matches.

External links (http/https/mailto) are deliberately not fetched -- CI
must not depend on the network.  Fenced code blocks are skipped so
example snippets cannot produce false positives.

It also checks that README's "Configuration switches" table lists
exactly the ``REPRO_*`` environment variables the code reads: every
``env`` row must name a variable some ``getenv("REPRO_...")`` under
``src/``, ``bench/`` or ``tools/`` reads, and every such variable must
have a row.

Finally it checks that every ``bench/<x>`` or ``build/bench/<x>`` named
in a document that describes the tree (README, DESIGN, EXPERIMENTS,
ROADMAP and ``docs/``) still exists: ``<x>`` must be a file under
``bench/`` (with or without its extension) or a ``retest_bench(<x>)``
target.  CHANGES.md is history and names deleted drivers on purpose.
Code blocks are checked too, since a stale name there is a command
that no longer runs.

Usage: python3 scripts/check_docs.py   (from the repository root)
Exits non-zero and lists every broken reference if any check fails.
"""
from __future__ import annotations

import os
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
FENCE_RE = re.compile(r"^\s*(```|~~~)")
GETENV_RE = re.compile(r'getenv\(\s*"(REPRO_[A-Z0-9_]+)"')
ENV_ROW_RE = re.compile(r"^\|\s*`(REPRO_[A-Z0-9_]+)[^`]*`\s*\|\s*env\s*\|")
SWITCH_DIRS = ("src", "bench", "tools")
BENCH_REF_RE = re.compile(r"(?<![\w./-])(?:build/)?bench/([A-Za-z0-9_]+)")
BENCH_TARGET_RE = re.compile(r"retest_bench\((\w+)\)")
TREE_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")
SWITCH_HEADING = "### Configuration switches"


def doc_files(root: str) -> list[str]:
    files = sorted(
        f for f in os.listdir(root) if f.endswith(".md")
    )
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        files += sorted(
            os.path.join("docs", f)
            for f in os.listdir(docs_dir)
            if f.endswith(".md")
        )
    return files


def visible_lines(path: str) -> list[str]:
    """File lines with fenced code blocks blanked out."""
    lines = []
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if FENCE_RE.match(line):
                in_fence = not in_fence
                lines.append("")
                continue
            lines.append("" if in_fence else line.rstrip("\n"))
    return lines


def github_anchor(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, dash spaces."""
    text = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path: str) -> set[str]:
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    for line in visible_lines(path):
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_anchor(m.group(2))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def env_vars_read(root: str) -> set[str]:
    """REPRO_* names passed to getenv as literals in the C++ sources."""
    names: set[str] = set()
    for top in SWITCH_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, top)):
            for name in filenames:
                if name.endswith((".h", ".cpp")):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8") as f:
                        names.update(GETENV_RE.findall(f.read()))
    return names


def env_rows_documented(readme: str) -> set[str]:
    """Variable names of the ``env`` rows in README's switch table."""
    names: set[str] = set()
    in_section = False
    for line in visible_lines(readme):
        if HEADING_RE.match(line):
            in_section = line.strip() == SWITCH_HEADING
            continue
        m = ENV_ROW_RE.match(line)
        if in_section and m:
            names.add(m.group(1))
    return names


def switch_table_errors(root: str) -> list[str]:
    readme = os.path.join(root, "README.md")
    documented = env_rows_documented(readme)
    if not documented:
        return [f"README.md: no env rows under {SWITCH_HEADING!r}"]
    read = env_vars_read(root)
    errors = [f"README.md: switch table lists {name}, which no getenv "
              f"under {'/, '.join(SWITCH_DIRS)}/ reads"
              for name in sorted(documented - read)]
    errors += [f"README.md: {name} is read by getenv but missing from the "
               f"switch table" for name in sorted(read - documented)]
    return errors


def bench_ref_errors(root: str) -> list[str]:
    """Stale ``bench/<x>`` names in the documents that describe the tree."""
    bench_dir = os.path.join(root, "bench")
    known = {name.split(".")[0] for name in os.listdir(bench_dir)}
    with open(os.path.join(bench_dir, "CMakeLists.txt"),
              encoding="utf-8") as f:
        known.update(BENCH_TARGET_RE.findall(f.read()))
    docs = [d for d in doc_files(root)
            if d in TREE_DOCS or d.startswith("docs" + os.sep)]
    errors = []
    for doc in docs:
        with open(os.path.join(root, doc), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                for name in BENCH_REF_RE.findall(line):
                    if name not in known:
                        errors.append(f"{doc}:{lineno}: bench/{name} is "
                                      f"neither a file under bench/ nor a "
                                      f"retest_bench target")
    return errors


def main() -> int:
    root = os.getcwd()
    errors: list[str] = switch_table_errors(root) + bench_ref_errors(root)
    checked = 0
    for doc in doc_files(root):
        doc_dir = os.path.dirname(os.path.join(root, doc))
        for lineno, line in enumerate(visible_lines(os.path.join(root, doc)),
                                      start=1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                checked += 1
                path_part, _, anchor = target.partition("#")
                if path_part:
                    full = os.path.normpath(os.path.join(doc_dir, path_part))
                    if not os.path.exists(full):
                        errors.append(
                            f"{doc}:{lineno}: missing file {target!r}")
                        continue
                else:
                    full = os.path.join(root, doc)  # same-file anchor
                if anchor and full.endswith(".md"):
                    if anchor not in anchors_of(full):
                        errors.append(
                            f"{doc}:{lineno}: missing anchor {target!r}")
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {checked} relative links, the README switch table "
          f"and bench/ names "
          f"({'OK' if not errors else f'{len(errors)} broken'})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
