"""Determinism taint analysis.

The fabric's contract is that answers and simulated cycles are pure
functions of (data, plan, seeds) — never of host state. This pass
tracks host-nondeterministic values (*sources*) through assignments,
returns, and call arguments until they reach cycle-domain state
(*sinks*), within each function and across translation units via a
conservative summary fixpoint.

Sources (kind tags used in messages):
  wall-clock           std::chrono::*_clock::now, time(), clock(),
                       gettimeofday, rdtsc
  thread-id            std::this_thread::get_id, gettid, getpid
  host-concurrency     std::thread::hardware_concurrency
  ambient-random       std::random_device, mt19937 (unseeded path),
                       rand/srand/drand48
  pointer-identity     reinterpret_cast<uintptr_t/intptr_t/size_t>(p):
                       pointer values are ASLR-dependent, so using one
                       as a number (map key, hash, comparison) is host
                       state
  unordered-iteration  the loop variable of a range-for over a
                       std::unordered_{map,set}: visit order is
                       implementation-defined

Sinks:
  - writes (=, +=, ...) to cycle accounting fields: `cycles`,
    `sim_cycles`, `total_cycles`, `cpu_cycles`, `channel_cycles`,
    any `*_cycles`, and the MemStats event counters
  - arguments to charge/pricing APIs: MemorySystem Charge*/AddRepeated,
    NetworkModel ShipRows/ShipAggs/WireCycles/MessagesFor
  - digest/telemetry feeds: DigestSet/Histogram Observe,
    Telemetry OnStatement

Sanitization falls out of the model rather than being special-cased:
`relfab::Random` is deterministic by construction (the ambient-random
line rule bans ambient seeding), so a Random seeded from clean plan
state and every value drawn from it carry no labels. Only a Random
seeded from a *tainted* expression stays tainted.

Cross-TU: each function gets a summary — which labels its return value
carries and which parameters reach a sink — iterated to a fixpoint
over the whole compile database (call resolution is by callee name,
deliberately over-approximate). A tainted argument to a summarized
sink-reaching parameter is reported at the call site.
"""

import re

from .findings import Finding

WALL_CLOCK_CALLEES = {"time", "clock", "gettimeofday", "rdtsc", "__rdtsc"}
THREAD_ID_CALLEES = {"gettid", "getpid"}
AMBIENT_RANDOM_CALLEES = {"rand", "srand", "drand48", "lrand48",
                          "random_device", "mt19937", "mt19937_64"}

SINK_FIELDS = {
    "cycles", "sim_cycles", "total_cycles", "cpu_cycles", "channel_cycles",
    "wire_cycles", "serialize_cycles", "configure_cycles",
    # MemStats event counters (src/sim/stats.h)
    "l1_hits", "l1_misses", "l2_hits", "l2_misses", "fabric_reads",
    "prefetch_covered", "prefetch_uncovered", "dram_row_hits",
    "dram_row_misses", "dram_lines_demand", "dram_lines_gather",
    "fabric_refills",
}
SINK_CALLEE_RE = re.compile(r"^Charge[A-Z]\w*$")
SINK_CALLEES = {"AddRepeated", "AddCycles", "Observe", "ShipRows",
                "ShipAggs", "WireCycles", "MessagesFor", "OnStatement"}

UNORDERED_TYPE_RE = re.compile(r"unordered_(map|set|multimap|multiset)")
PTR_CAST_RE = re.compile(
    r"(reinterpret|static)_cast<\s*(::)?\s*(std::)?\s*"
    r"(uintptr_t|intptr_t|ptrdiff_t|size_t|uint64_t)\b")

SRC_KINDS = {
    "wall-clock": "ambient wall-clock time",
    "thread-id": "host thread/process id",
    "host-concurrency": "std::thread::hardware_concurrency (host core count)",
    "ambient-random": "nondeterministic randomness",
    "pointer-identity": "pointer value cast to an integer (ASLR-dependent)",
    "unordered-iteration": "std::unordered_* iteration order",
}


def classify_source_call(call):
    """Returns a source kind for a Call, or None."""
    qual = call.qual
    callee = call.callee
    if callee == "now" and "_clock" in qual:
        return "wall-clock"
    if callee in WALL_CLOCK_CALLEES and ("std" in qual or qual == callee):
        return "wall-clock"
    if callee == "get_id" and "this_thread" in qual:
        return "thread-id"
    if callee in THREAD_ID_CALLEES and qual == callee:
        return "thread-id"
    if callee == "hardware_concurrency":
        return "host-concurrency"
    if callee in AMBIENT_RANDOM_CALLEES:
        return "ambient-random"
    if callee in ("reinterpret_cast", "static_cast") \
            and PTR_CAST_RE.match(qual.replace(" ", "")):
        # Only a source when the operand involves a pointer-ish value;
        # conservatively require a non-literal argument containing '&',
        # 'this', or an identifier that is not itself integer-typed —
        # approximated as: any identifier argument for reinterpret_cast,
        # never for static_cast (static_cast of integers is routine).
        if callee == "reinterpret_cast":
            return "pointer-identity"
    return None


class Summary:
    __slots__ = ("returns_src", "return_params", "sink_params",
                 "returns_statusor")

    def __init__(self):
        self.returns_src = {}      # kind -> origin text
        self.return_params = set() # param indices flowing to the return
        self.sink_params = {}      # index -> sink description
        self.returns_statusor = False

    def key(self):
        return (tuple(sorted(self.returns_src)),
                tuple(sorted(self.return_params)),
                tuple(sorted(self.sink_params)))

    def merge(self, other):
        self.returns_src.update(other.returns_src)
        self.return_params |= other.return_params
        for k, v in other.sink_params.items():
            self.sink_params.setdefault(k, v)
        self.returns_statusor |= other.returns_statusor


class TaintPass:
    def __init__(self, program, allow_index):
        self.program = program          # analyzer.Program
        self.allow = allow_index
        self.summaries = {}             # callee name -> Summary
        self.findings = []

    # -- label sets: dict label -> origin description ---------------------

    def expr_labels(self, expr, env, fn, emit=False):
        labels = {}
        if expr is None:
            return labels
        for ident in expr.idents:
            if ident in env:
                labels.update(env[ident])
        for chain in expr.members:
            head = chain.split(".")[0]
            if head in env:
                labels.update(env[head])
            if chain in env:
                labels.update(env[chain])
        for call in expr.all_calls():
            labels.update(self.call_labels(call, env, fn, emit=emit))
        return labels

    def call_labels(self, call, env, fn, emit=False):
        labels = {}
        kind = classify_source_call(call)
        if kind is not None:
            labels[("src", kind)] = (
                f"{call.qual or call.callee}() at line {call.line}")
        arg_labels = [self.expr_labels(a, env, fn, emit=emit)
                      for a in call.args]
        # Receiver taint propagates through method calls (x.size(),
        # rng.Next() on a tainted rng, ...).
        if call.base:
            head = call.base.split(".")[0].split("::")[-1]
            if head in env:
                labels.update(env[head])
        summary = self.summaries.get(call.callee)
        if summary is not None:
            for kind, origin in summary.returns_src.items():
                labels[("src", kind)] = (
                    f"{call.callee}() (cross-TU: {origin})")
            for i in summary.return_params:
                if i < len(arg_labels):
                    labels.update(arg_labels[i])
            for i, sink_desc in summary.sink_params.items():
                if i < len(arg_labels):
                    self.sink_hit(fn, call.line,
                                  f"argument {i + 1} of {call.callee}() "
                                  f"(cross-TU: {sink_desc})",
                                  arg_labels[i], emit)
        else:
            # Unknown callee: conservatively flows its arguments through
            # to its return value.
            for al in arg_labels:
                labels.update(al)
        # Direct sink call?
        if self.is_sink_call(call):
            for i, al in enumerate(arg_labels):
                self.sink_hit(fn, call.line,
                              f"argument {i + 1} of "
                              f"{(call.base + '.') if call.base else ''}"
                              f"{call.callee}()", al, emit)
        return labels

    @staticmethod
    def is_sink_call(call):
        return call.callee in SINK_CALLEES \
            or SINK_CALLEE_RE.match(call.callee) is not None

    def sink_hit(self, fn, line, sink_desc, labels, emit):
        summary = self.current_summary
        for label, origin in labels.items():
            if label[0] == "src":
                if emit:
                    self.emit(fn, line, sink_desc, label[1], origin)
            elif label[0] == "param":
                summary.sink_params.setdefault(label[1], sink_desc)

    def emit(self, fn, line, sink_desc, kind, origin):
        msg = (f"{SRC_KINDS[kind]} flows into cycle-domain sink "
               f"{sink_desc}; source: {origin}. Cycle accounting must be "
               f"a pure function of (data, plan, seeds)")
        if self.allow.allowed(fn.file, line, "taint-flow"):
            return
        self.findings.append(Finding(fn.file, line, "taint-flow", msg,
                                     symbol=fn.qual_name))

    # -- sinks on assignment targets --------------------------------------

    @staticmethod
    def sink_field(target):
        if not target:
            return None
        last = target.split(".")[-1].split("::")[-1].rstrip("_")
        if last in SINK_FIELDS or last.endswith("_cycles"):
            return last
        return None

    # -- per-function analysis --------------------------------------------

    def analyze_function(self, fn, emit=False):
        env = {}
        decl_types = {}
        for i, p in enumerate(fn.params):
            env[p.name] = {("param", i): f"parameter '{p.name}'"}
            decl_types[p.name] = p.type_text
        self.current_summary = Summary()
        self.current_summary.returns_statusor = \
            "StatusOr" in (fn.return_type or "")
        cls = self.program.classes.get(fn.cls) if fn.cls else None

        for _ in range(6):
            changed = self._run_body(fn, fn.body, env, decl_types, cls,
                                     emit=False)
            if not changed:
                break
        if emit:
            self._run_body(fn, fn.body, env, decl_types, cls, emit=True)
        return self.current_summary

    def _container_is_unordered(self, expr, decl_types, cls):
        """Does this range-for container expression name an unordered
        container (by declared local/param/member type)?"""
        names = set(expr.idents)
        for chain in expr.members:
            names.add(chain.split(".")[-1])
            names.add(chain.split(".")[0])
        for name in names:
            t = decl_types.get(name)
            if t is None and cls is not None and name in cls.members:
                t = cls.members[name].type_text
            if t is not None and UNORDERED_TYPE_RE.search(t):
                return True
        # Direct call returning an unordered member? out of scope.
        return False

    def _run_body(self, fn, block, env, decl_types, cls, emit):
        changed = False
        for st in block.statements:
            changed |= self._run_statement(fn, st, env, decl_types, cls,
                                           emit)
        return changed

    def _set(self, env, key, labels, strong):
        old = env.get(key)
        if strong:
            new = dict(labels)
        else:
            new = dict(old or {})
            new.update(labels)
        if not new:
            if old:
                env.pop(key, None)
                return True
            return False
        if old != new:
            env[key] = new
            return True
        return False

    def _run_statement(self, fn, st, env, decl_types, cls, emit):
        changed = False
        k = st.kind
        if k in ("decl", "assign"):
            labels = self.expr_labels(st.expr, env, fn, emit=emit)
            if k == "decl" and st.target:
                decl_types.setdefault(st.target, st.decl_type or "")
            if st.target:
                strong = (st.op in ("=", "(") and k == "decl") or \
                         (st.op == "=" and "." not in st.target)
                changed |= self._set(env, st.target, labels, strong)
                field = self.sink_field(st.target)
                if field is not None and labels:
                    self.sink_hit(fn, st.line,
                                  f"write to '{st.target}'", labels, emit)
        elif k == "return":
            labels = self.expr_labels(st.expr, env, fn, emit=emit)
            s = self.current_summary
            for label, origin in labels.items():
                if label[0] == "src" and label[1] not in s.returns_src:
                    s.returns_src[label[1]] = origin
                    changed = True
                elif label[0] == "param" \
                        and label[1] not in s.return_params:
                    s.return_params.add(label[1])
                    changed = True
        elif k == "rangefor":
            labels = self.expr_labels(st.expr, env, fn, emit=emit)
            if self._container_is_unordered(st.expr, decl_types, cls):
                labels = dict(labels)
                labels[("src", "unordered-iteration")] = (
                    f"range-for over unordered container at line {st.line}")
            if st.target:
                changed |= self._set(env, st.target, labels, strong=False)
        elif k in ("call", "other", "if", "loop"):
            if st.expr is not None:
                self.expr_labels(st.expr, env, fn, emit=emit)
        if st.body is not None:
            changed |= self._run_body(fn, st.body, env, decl_types, cls,
                                      emit)
        if st.else_body is not None:
            changed |= self._run_body(fn, st.else_body, env, decl_types,
                                      cls, emit)
        return changed

    # -- whole-program driver ---------------------------------------------

    def run(self):
        # Summary fixpoint (no findings emitted yet).
        for _ in range(4):
            new_summaries = {}
            for fn in self.program.functions:
                s = self.analyze_function(fn, emit=False)
                if fn.name in new_summaries:
                    new_summaries[fn.name].merge(s)
                else:
                    new_summaries[fn.name] = s
                if fn.qual_name != fn.name:
                    q = new_summaries.setdefault(fn.qual_name, Summary())
                    q.merge(s)
            stable = (
                {k: v.key() for k, v in new_summaries.items()} ==
                {k: v.key() for k, v in self.summaries.items()})
            self.summaries = new_summaries
            if stable:
                break
        # Reporting pass.
        for fn in self.program.functions:
            self.analyze_function(fn, emit=True)
        return self.findings
