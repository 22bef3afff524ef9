#!/usr/bin/env python3
"""Docs honesty gate: links resolve, flags exist, no drift.

Three checks:

 1. Link check — every relative markdown link target in docs/*.md
    and README.md must exist on disk (anchors and external
    http(s)/mailto links are skipped).

 2. Flag drift — every `--flag` spelled in docs/*.md must be
    declared somewhere in the CLIs/benches/CI scripts (catches
    typos and docs describing removed flags), and every flag of
    the *user-facing* binaries (race_detector, trace_tool, the
    shared source flags) must be mentioned in the docs (catches
    new flags landing without documentation).

 3. Cited documents — every `.md` file a comment names in the C++
    sources under src/, bench/, examples/ and tests/ must exist,
    resolved from the repository root or from the citing file's
    directory (catches comments pointing at deleted documents).

Exit 1 with a per-finding report on any failure, 0 when clean.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

LINK_FILES = sorted(ROOT.glob("docs/*.md")) + [ROOT / "README.md"]
DOC_FILES = sorted(ROOT.glob("docs/*.md"))

# Where flags are declared. The user-facing set (documentation is
# mandatory) is a subset of the declared set (spelling must match).
USER_FACING_SOURCES = [
    ROOT / "examples" / "race_detector.cc",
    ROOT / "examples" / "trace_tool.cc",
    ROOT / "src" / "support" / "source_cli.cc",
]
DECLARED_SOURCES = (
    USER_FACING_SOURCES
    + sorted(ROOT.glob("examples/*.cc"))
    + sorted(ROOT.glob("bench/*.cc"))
    + sorted(ROOT.glob("bench/*.hh"))
    + sorted(ROOT.glob("ci/*.py"))
)

# External tools whose flags legitimately appear in prose
# (ctest/cmake invocations in runbooks).
EXTERNAL_FLAGS = {"output-on-failure", "test-dir", "help"}

CC_FLAG_RE = re.compile(
    r'add(?:Optional)?(?:Bool|Int|String|Double)\s*\(\s*'
    r'"([a-z][a-z0-9-]*)"')
PY_FLAG_RE = re.compile(r'add_argument\(\s*"--([a-z][a-z0-9-]*)"')
DOC_FLAG_RE = re.compile(r"--([a-z][a-z0-9-]*)")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

CITING_SOURCES = sorted(
    path
    for tree in ("src", "bench", "examples", "tests")
    for suffix in ("*.cc", "*.hh")
    for path in (ROOT / tree).rglob(suffix))
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
MD_NAME_RE = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")


def declared_flags(paths):
    flags = set()
    for path in paths:
        text = path.read_text()
        flags.update(CC_FLAG_RE.findall(text))
        flags.update(PY_FLAG_RE.findall(text))
    return flags


def cited_documents(path):
    """(line, name) of every .md file named in @p path's comments."""
    text = path.read_text()
    for comment in COMMENT_RE.finditer(text):
        for name in MD_NAME_RE.finditer(comment.group()):
            at = comment.start() + name.start()
            yield text.count("\n", 0, at) + 1, name.group()


def main():
    failures = []

    for doc in LINK_FILES:
        for target in LINK_RE.findall(doc.read_text()):
            if target.startswith(("http://", "https://",
                                  "mailto:", "#")):
                continue
            resolved = (doc.parent / target.split("#")[0]).resolve()
            if not resolved.exists():
                failures.append(
                    f"{doc.relative_to(ROOT)}: broken link "
                    f"'{target}'")

    for source in CITING_SOURCES:
        for line, name in cited_documents(source):
            if not ((ROOT / name).exists() or
                    (source.parent / name).exists()):
                failures.append(
                    f"{source.relative_to(ROOT)}:{line}: comment "
                    f"cites '{name}', which does not exist")

    declared = declared_flags(DECLARED_SOURCES)
    user_facing = declared_flags(USER_FACING_SOURCES)
    documented = set()
    flag_origin = {}
    for doc in DOC_FILES:
        for flag in DOC_FLAG_RE.findall(doc.read_text()):
            documented.add(flag)
            flag_origin.setdefault(flag, doc.relative_to(ROOT))

    for flag in sorted(documented - declared - EXTERNAL_FLAGS):
        failures.append(
            f"{flag_origin[flag]}: documents --{flag}, which no "
            f"CLI declares (typo, or the flag was removed)")
    for flag in sorted(user_facing - documented):
        failures.append(
            f"docs/: user-facing flag --{flag} is not documented "
            f"anywhere under docs/")

    if failures:
        for failure in failures:
            print(f"DOCS GATE: {failure}")
        print(f"DOCS GATE: {len(failures)} failure(s)")
        return 1
    print(f"docs gate OK: {len(LINK_FILES)} files link-checked, "
          f"{len(user_facing)} user-facing flags documented, "
          f"{len(documented & declared)} documented flags "
          f"verified against declarations, "
          f"{len(CITING_SOURCES)} sources' cited documents found")
    return 0


if __name__ == "__main__":
    sys.exit(main())
