"""Findings, inline allow markers, JSON schema, and the baseline file.

The findings JSON schema:

    {
      "tool": "relfab_analyzer",
      "schema_version": 1,
      "root": "<abs repo root>",
      "files_scanned": N,
      "findings": [
        {"path": "src/...", "line": 42, "rule": "taint-flow",
         "message": "...", "fingerprint": "0123abcd..."},
        ...
      ]
    }

Fingerprints are line-number-independent — sha1 over
(path | rule | symbol | normalized message) — so unrelated edits above
a finding do not churn the committed baseline
(tools/relfab_analyzer/baseline.json). The baseline holds the accepted
program-rule findings; CI and the tier-1 ctest fail only on
fingerprints *not* in the baseline, and print which baseline entries
went stale (fixed) so they can be pruned with --write-baseline. A line
finding's fingerprint names no site, so one entry would waive the rule
for the whole file: line rules are never baselined.

Suppression is one inline marker for every rule
(docs/static-analysis.md): `// relfab-lint: allow(<rule>) <reason>` on
the finding's line or the line above. A reason is mandatory; a bare
marker suppresses nothing and is itself a `bare-allow` finding.
"""

import hashlib
import json
import os
import re

ALLOW_RE = re.compile(
    r"//\s*relfab-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)\s*(.*)")

SCHEMA_VERSION = 1


class Finding:
    def __init__(self, path, line, rule, message, symbol=""):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.symbol = symbol  # enclosing function/class, part of the key

    @property
    def fingerprint(self):
        norm = re.sub(r"\d+", "#", self.message)
        key = "|".join((self.path, self.rule, self.symbol, norm))
        return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]

    def to_json(self):
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "message": self.message, "symbol": self.symbol,
                "fingerprint": self.fingerprint}

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.rule, self.message)


class AllowIndex:
    """One reader for every file's lines and inline allow markers (a
    marker covers its own line and the next)."""

    def __init__(self, root):
        self.root = root
        self._lines = {}
        self._markers = {}

    def lines(self, rel_path):
        """The file's lines, numbered as the frontends number them
        ([] when the file is unreadable)."""
        if rel_path not in self._lines:
            try:
                with open(os.path.join(self.root, rel_path),
                          encoding="utf-8", errors="replace") as f:
                    self._lines[rel_path] = f.read().split("\n")
            except OSError:
                self._lines[rel_path] = []
        return self._lines[rel_path]

    def _all_markers(self, rel_path):
        """[(line, rules, reason, marker text)] in source order."""
        if rel_path not in self._markers:
            out = []
            for idx, line in enumerate(self.lines(rel_path), start=1):
                m = ALLOW_RE.search(line)
                if m:
                    rules = {r.strip() for r in m.group(1).split(",")}
                    out.append((idx, rules, m.group(2).strip(),
                                m.group(0).strip()))
            self._markers[rel_path] = out
        return self._markers[rel_path]

    def allowed(self, rel_path, line, rule):
        return any(reason and rule in rules and line - idx in (0, 1)
                   for idx, rules, reason, _ in self._all_markers(rel_path))

    def markers(self, rel_path, rule):
        """All (line, reason) markers for `rule` in a file (for audits)."""
        return [(idx, reason)
                for idx, rules, reason, _ in self._all_markers(rel_path)
                if rule in rules]

    def bare_markers(self, rel_path):
        """All (line, marker text) markers that give no reason."""
        return [(idx, text)
                for idx, _, reason, text in self._all_markers(rel_path)
                if not reason]


def dedupe(findings):
    seen = set()
    out = []
    for f in sorted(findings, key=Finding.sort_key):
        key = (f.fingerprint, f.line)
        if key in seen:
            continue
        seen.add(key)
        out.append(f)
    return out


def write_json(path, tool, root, files_scanned, findings):
    doc = {
        "tool": tool,
        "schema_version": SCHEMA_VERSION,
        "root": os.path.abspath(root),
        "files_scanned": files_scanned,
        "findings": [f.to_json() for f in findings],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_baseline(path):
    """Returns {fingerprint: entry} (empty when the file is absent)."""
    if not path or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return {e["fingerprint"]: e for e in doc.get("findings", [])}


def write_baseline(path, findings):
    doc = {
        "tool": "relfab_analyzer",
        "schema_version": SCHEMA_VERSION,
        "comment": "Accepted findings; CI fails only on fingerprints not "
                   "listed here. Regenerate with analyze.py "
                   "--write-baseline after auditing each entry "
                   "(docs/static-analysis.md).",
        "findings": [f.to_json() for f in findings],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def diff_against_baseline(findings, baseline, waivable_rules):
    """Splits findings into (new, accepted) and finds stale baseline
    entries; returns (new_findings, stale_entries). Only findings of
    `waivable_rules` can be accepted."""
    current = {f.fingerprint for f in findings}
    new = [f for f in findings
           if f.rule not in waivable_rules or f.fingerprint not in baseline]
    stale = [e for fp, e in sorted(baseline.items()) if fp not in current]
    return new, stale
