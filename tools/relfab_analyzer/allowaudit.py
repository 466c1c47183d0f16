"""allow-audit: semantic re-verification of inline suppressions.

The unordered-iteration line rule accepts `// relfab-lint:
allow(unordered-iteration) <reason>` on faith — the reason invariably
claims the container is "lookup-only". This pass checks the claim
against the program model:

  1. the marker must actually cover a std::unordered_* declaration
     (member or local) on its own line or the next — otherwise it is
     stale and reported;
  2. the declared container must never be iterated anywhere in the
     program: no range-for over it, no .begin()/.end()/.cbegin()/
     .cend() on it (erase(find(...)) and count/find/at/contains/
     operator[] are lookups and stay legal).

An iteration anywhere turns the marker's promise false: the finding
points at the iterating statement, names the marker it contradicts,
and must be fixed either by switching to an ordered container or by
making the iteration genuinely order-insensitive *outside* the cycle
domain (and re-justifying the marker).
"""

import re

from .findings import Finding
from .ir import UNORDERED_TYPE_RE_TEXT

UNORDERED_DECL_RE = re.compile(UNORDERED_TYPE_RE_TEXT)
# .begin() starts an iteration; .end()/.cend() alone are the sentinel
# half of the `find(k) != m.end()` lookup idiom and prove nothing.
ITERATION_CALLEES = {"begin", "cbegin", "rbegin"}


class AllowAuditPass:
    def __init__(self, program, allow_index, root):
        self.program = program
        self.allow = allow_index
        self.root = root
        self.findings = []

    def run(self):
        # marker sites: (file, line, reason, covered container name|None)
        markers = []
        for tu in self.program.tus:
            for line, reason in self.allow.markers(tu.path,
                                                   "unordered-iteration"):
                name = self._covered_container(tu, line)
                markers.append((tu.path, line, reason, name))
        if not markers:
            return self.findings

        for path, line, reason, name in markers:
            if name is None:
                self.findings.append(Finding(
                    path, line, "allow-audit",
                    "allow(unordered-iteration) marker does not cover a "
                    "std::unordered_* declaration on this or the next "
                    "line; remove the stale marker",
                    symbol=""))
                continue
            for site in self._iteration_sites(name):
                site_fn, site_line, how = site
                self.findings.append(Finding(
                    site_fn.file, site_line, "allow-audit",
                    f"'{name}' is promised lookup-only by the "
                    f"allow(unordered-iteration) marker at {path}:{line} "
                    f"(\"{reason}\") but {site_fn.qual_name}() iterates "
                    f"it ({how}); iteration order is implementation-"
                    f"defined and can leak into cycle accounting",
                    symbol=site_fn.qual_name))
        return self.findings

    def _covered_container(self, tu, marker_line):
        """Name of the unordered member/local declared on the marker's
        line or the next one, else None."""
        for cls in tu.classes.values():
            for m in cls.members.values():
                if m.line in (marker_line, marker_line + 1) \
                        and UNORDERED_DECL_RE.search(
                            m.type_text.replace(" ", "")):
                    return m.name
        for fn in tu.functions:
            for st in fn.body.walk():
                if st.kind == "decl" and st.target \
                        and st.line in (marker_line, marker_line + 1) \
                        and "unordered_" in (st.decl_type or ""):
                    return st.target
        return None

    def _iteration_sites(self, name):
        """All (function, line, description) where `name` is iterated."""
        sites = []
        for fn in self.program.functions:
            for st in fn.body.walk():
                if st.kind == "rangefor" and st.expr is not None:
                    heads = set(st.expr.idents)
                    for chain in st.expr.members:
                        heads.add(chain.split(".")[-1])
                    if name in heads:
                        sites.append((fn, st.line, "range-for"))
                        continue
                if st.expr is None:
                    continue
                for call in st.expr.all_calls():
                    if call.callee in ITERATION_CALLEES and call.base:
                        base_tail = call.base.split(".")[-1]
                        if base_tail == name:
                            sites.append((fn, st.line,
                                          f".{call.callee}()"))
        return sites
