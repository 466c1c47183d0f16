"""Compile-database handling.

The analyzer is driven off the CMake-exported compile_commands.json
(CMAKE_EXPORT_COMPILE_COMMANDS=ON since PR 5): the database defines
which translation units make up the program (so dead files don't feed
the cross-TU summary pass) and, for the libclang frontend, the exact
flags each TU compiles with.

Headers carry most of this repo's inline definitions, so the program
model is: every .cc listed in the database (filtered to the analysis
scope) plus every header under the scope directories, each parsed once.
The cross-TU pass is whole-program, which makes per-TU include
resolution unnecessary for the internal frontend.

When no database exists (tree not configured yet) the loader falls
back to scanning the scope directories directly — the analyzer must be
runnable before the first cmake configure.
"""

import json
import os

# Program-rule scope: the cycle-domain production tree. bench/ and
# tests/ intentionally live outside it — they run in the host domain
# (wall timing is allowlisted there) and would drown the taint pass in
# deliberate noise. The line rules scan them (lines.LINE_SCOPE).
DEFAULT_SCOPE = ("src",)

SOURCE_EXTS = (".cc", ".cpp")
HEADER_EXTS = (".h", ".hpp")


def repo_rel(root, path):
    return os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")


def load_entries(compile_db_path):
    """Returns [{file, directory, arguments}] or [] when unreadable."""
    try:
        with open(compile_db_path, encoding="utf-8") as f:
            db = json.load(f)
    except (OSError, ValueError):
        return []
    out = []
    for e in db:
        path = e.get("file")
        if not path:
            continue
        args = e.get("arguments")
        if args is None and e.get("command"):
            args = e["command"].split()
        out.append({"file": os.path.join(e.get("directory", ""), path)
                    if not os.path.isabs(path) else path,
                    "directory": e.get("directory", ""),
                    "arguments": args or []})
    return out


def in_scope(rel_path, scope):
    return any(rel_path == s or rel_path.startswith(s + "/") for s in scope)


def walk_scope(root, scope):
    """Every C++ file under the scope directories, repo-relative and in
    sorted order. fixtures/ directories are skipped: the self-test's
    fixtures violate on purpose and are staged into a tree of their own."""
    for top in scope:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "fixtures")
            for name in sorted(filenames):
                if name.endswith(HEADER_EXTS + SOURCE_EXTS):
                    yield repo_rel(root, os.path.join(dirpath, name))


def collect_tus(root, compile_db_path=None, scope=DEFAULT_SCOPE,
                explicit_paths=None):
    """Returns (sources, entries_by_rel):

    sources: ordered list of repo-relative paths to parse — every
    in-scope .cc from the compile database (or a directory scan when
    absent) plus every in-scope header.
    entries_by_rel: rel path -> compile-db entry (for the clang
    frontend's flags); internal-frontend-only paths map to None.
    """
    if explicit_paths:
        rels = [repo_rel(root, p) for p in explicit_paths]
        return rels, {r: None for r in rels}

    entries_by_rel = {}
    sources = []
    seen = set()

    for e in load_entries(compile_db_path) if compile_db_path else []:
        rel = repo_rel(root, e["file"])
        if not in_scope(rel, scope) or not rel.endswith(SOURCE_EXTS):
            continue
        if rel in seen:
            continue
        seen.add(rel)
        sources.append(rel)
        entries_by_rel[rel] = e

    # Directory scan: headers always, and any in-scope .cc the database
    # missed (stale database, file not yet wired into CMake) — a source
    # file must never escape analysis just because it wasn't built.
    for rel in walk_scope(root, scope):
        if rel not in seen:
            seen.add(rel)
            sources.append(rel)
            entries_by_rel[rel] = None
    return sources, entries_by_rel
