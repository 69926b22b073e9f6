#!/usr/bin/env python3
"""Checks intra-repo links and anchors in the repository's Markdown files.

Scans every *.md file (outside build trees) for inline links and
reference-style definitions, and fails if

  * a relative link points at a file or directory that does not exist, or
  * a fragment — `#anchor` within the same file, or `other.md#anchor`
    across files — names a heading that does not exist in the target
    Markdown file (GitHub slug rules: lowercase, punctuation stripped,
    spaces to hyphens, `-N` suffixes for duplicates).

External schemes (http, https, mailto) are ignored; fenced code blocks are
skipped so code samples cannot produce false positives.

It also fails if a file under src/, bench/, examples/, tests/, tools/ or
perfbench/ cites a document — a `*.md` token whose base name starts with
a capital letter, optionally with a directory prefix — that matches no
tracked file: `docs/SERVER.md` must be that path, a bare `README.md`
must be the base name of some tracked file.

Usage: python3 tools/check_md_links.py [repo_root]
Exit status: 0 if every intra-repo link and anchor resolves, 1 otherwise.
"""

import os
import re
import subprocess
import sys

SKIP_DIRS = {".git", "build", "build-tsan", "node_modules"}
INLINE_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)")
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
MD_LINK_TEXT = re.compile(r"\[([^\]]*)\]\([^)]*\)")
SLUG_STRIP = re.compile(r"[^\w\- ]")
CODE_DIRS = ("src", "bench", "examples", "tests", "tools", "perfbench")
DOC_CITATION = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[A-Z][\w-]*\.md)\b")


def find_markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith("build")
        ]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def non_fenced_lines(path):
    in_fence = False
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            yield line_number, line


def links_in(path):
    for line_number, line in non_fenced_lines(path):
        for match in INLINE_LINK.finditer(line):
            yield line_number, match.group(1)
        match = REFERENCE_DEF.match(line)
        if match:
            yield line_number, match.group(1)


def github_slug(text):
    """The anchor GitHub generates for a heading (close enough: lowercase,
    markdown markup dropped, punctuation removed — underscores KEPT —
    spaces hyphenated)."""
    text = MD_LINK_TEXT.sub(r"\1", text)       # [text](url) -> text
    text = text.replace("`", "").replace("*", "")
    text = SLUG_STRIP.sub("", text.lower())
    return text.strip().replace(" ", "-")


def anchors_in(path):
    """All heading anchors of one Markdown file, with duplicate -N suffixes."""
    seen = {}
    anchors = set()
    for _, line in non_fenced_lines(path):
        match = HEADING.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def tracked_files(root):
    """Repository-relative paths of the tracked files (a directory walk
    outside build trees when git is unavailable)."""
    try:
        listing = subprocess.run(
            ["git", "-C", root, "ls-files", "-z"], check=True,
            capture_output=True).stdout.decode("utf-8")
        return [path for path in listing.split("\0") if path]
    except (OSError, subprocess.CalledProcessError):
        paths = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [
                d for d in dirnames
                if d not in SKIP_DIRS and not d.startswith("build")
            ]
            paths.extend(os.path.relpath(os.path.join(dirpath, name), root)
                         for name in filenames)
        return paths


def missing_doc_citations(root):
    """(file, line, citation) for every document cited in code that matches
    no tracked file."""
    tracked = [path.replace(os.sep, "/") for path in tracked_files(root)]
    tracked_paths = set(tracked)
    tracked_names = {path.rsplit("/", 1)[-1] for path in tracked}
    missing = []
    for path in tracked:
        if path.split("/", 1)[0] not in CODE_DIRS:
            continue
        try:
            with open(os.path.join(root, path), encoding="utf-8") as handle:
                lines = handle.readlines()
        except (OSError, UnicodeDecodeError):
            continue  # binary or vanished: nothing to cite
        for line_number, line in enumerate(lines, start=1):
            for citation in DOC_CITATION.findall(line):
                known = (citation in tracked_paths if "/" in citation
                         else citation in tracked_names)
                if not known:
                    missing.append((path, line_number, citation))
    return missing


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    anchor_cache = {}

    def anchors_of(path):
        if path not in anchor_cache:
            anchor_cache[path] = anchors_in(path)
        return anchor_cache[path]

    dead = []
    dangling = []
    checked = anchors_checked = 0
    for md_file in find_markdown_files(root):
        for line_number, target in links_in(md_file):
            if EXTERNAL.match(target):
                continue
            relative, _, fragment = target.partition("#")
            if not relative:
                resolved = md_file  # pure #anchor: same file
            elif relative.startswith("/"):
                resolved = os.path.join(root, relative.lstrip("/"))
            else:
                resolved = os.path.join(os.path.dirname(md_file), relative)
            if relative:
                checked += 1
                if not os.path.exists(resolved):
                    dead.append(
                        (os.path.relpath(md_file, root), line_number, target))
                    continue
            if fragment and resolved.endswith(".md") and os.path.isfile(resolved):
                anchors_checked += 1
                if fragment.lower() not in anchors_of(resolved):
                    dangling.append(
                        (os.path.relpath(md_file, root), line_number, target))
    missing = missing_doc_citations(root)
    status = 0
    if dead:
        print("dead intra-repo links:")
        for md_file, line_number, target in dead:
            print(f"  {md_file}:{line_number}: {target}")
        status = 1
    if dangling:
        print("dangling anchors (no such heading in the target file):")
        for md_file, line_number, target in dangling:
            print(f"  {md_file}:{line_number}: {target}")
        status = 1
    if missing:
        print("documents cited in code that match no tracked file:")
        for path, line_number, citation in missing:
            print(f"  {path}:{line_number}: {citation}")
        status = 1
    if status == 0:
        print(f"ok: {checked} intra-repo links and {anchors_checked} anchors "
              f"resolve, and every document cited in code exists")
    return status


if __name__ == "__main__":
    sys.exit(main())
