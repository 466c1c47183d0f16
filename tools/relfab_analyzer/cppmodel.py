"""Internal C++ frontend: a conservative structure parser.

Lowers one C++ source file into the analyzer IR (relfab_analyzer.ir)
with no dependency beyond the Python stdlib. It is *not* a C++ parser;
it is a bracket-matching structure scanner plus a statement classifier
tuned to this repo's house style (clang-format, no macros that open or
close braces, one statement per `;`). Constructs it cannot classify
degrade to `other` statements whose identifiers are still scanned, so
downstream passes stay conservative (may miss, never crash).

Pipeline:
  1. scrub(): strip comments / string & char literal bodies, preserving
     newlines so token line numbers survive.
  2. tokenize(): identifiers, numbers, and punctuation with line info.
  3. StructureParser: tracks namespace/class nesting, extracts member
     declarations (with RELFAB_GUARDED_BY attributes) and function
     definitions, and hands each function body to parse_block().
  4. parse_block()/parse_statement(): statements and nesting; RHS token
     regions become Expr facts via parse_expr().
"""

import re

from .ir import (Block, Call, ClassInfo, Expr, Function, Member, Param,
                 Statement, TranslationUnit)

IDENT_RE = re.compile(r"[A-Za-z_]\w*")
TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"                 # identifier / keyword
    r"|\d[\w.+\-]*"                 # numeric literal (incl. 1e-6, 0x1f)
    r"|::|->\*?|\.\*|<<=|>>=|<=>"   # multi-char operators
    r"|<<|>>|<=|>=|==|!=|&&|\|\||\+\+|--"
    r"|[-+*/%&|^]=|=|[{}()\[\];,<>.:?~!&|^*/%+-]"
    r"|\"\"|''"                     # scrubbed literals
)

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "do", "else", "case", "default", "goto", "new",
                    "delete", "sizeof", "alignof", "throw", "co_return",
                    "co_await", "static_assert", "decltype", "noexcept"}
TYPE_KEYWORDS = {"const", "constexpr", "mutable", "static", "inline",
                 "volatile", "unsigned", "signed", "long", "short",
                 "auto", "void", "bool", "char", "int", "float", "double",
                 "struct", "class", "enum", "typename", "extern",
                 "register", "thread_local", "explicit", "virtual",
                 "friend", "using", "typedef"}
POST_SIG_QUALIFIERS = {"const", "noexcept", "override", "final", "&", "&&",
                       "try", "->", "throw"}
ANNOTATION_MACROS = {"RELFAB_REQUIRES", "RELFAB_ACQUIRE", "RELFAB_RELEASE",
                     "RELFAB_EXCLUDES", "RELFAB_GUARDED_BY",
                     "RELFAB_PT_GUARDED_BY", "RELFAB_NO_THREAD_SAFETY_ANALYSIS",
                     "RELFAB_RETURN_CAPABILITY"}


class Token:
    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text!r}@{self.line}"


def scrub(text):
    """Removes comments and literal bodies; preserves newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:end]))
            i = end
        elif c == '"':
            # Raw strings R"( ... )" get the same treatment; delimiter
            # forms R"xx( )xx" are rare in this repo and degrade to a
            # normal scan that still terminates at the quote.
            if i > 0 and text[i - 1] == "R":
                j = text.find(')"', i + 1)
                end = n if j < 0 else j + 2
                out.append('""')
                out.append("".join(ch for ch in text[i:end] if ch == "\n"))
                i = end
                continue
            out.append('""')
            i += 1
            while i < n:
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == "\n":
                    out.append("\n")
                if text[i] == '"':
                    i += 1
                    break
                i += 1
        elif c == "'":
            # Char literal vs digit separator (1'000, 0xFF'FF): a
            # separator sits inside a number token, which starts with a
            # digit; u'x' and case'a' open char literals. A char
            # literal never spans lines, so a stray quote stops at the
            # newline and line numbers survive.
            j = i
            while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "'"):
                j -= 1
            if j < i and text[j].isdigit() and nxt.isalnum():
                i += 1
                continue
            out.append("''")
            i += 1
            while i < n and text[i] != "\n":
                if text[i] == "\\":
                    i += 2
                    continue
                if text[i] == "'":
                    i += 1
                    break
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(text):
    tokens = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        tokens.append(Token(m.group(0), line))
    return tokens


def match_paren(tokens, i):
    """tokens[i] must be an opener; returns index of its matching closer
    (or len(tokens) if unbalanced)."""
    pairs = {"(": ")", "{": "}", "[": "]"}
    opener = tokens[i].text
    closer = pairs[opener]
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return j
    return len(tokens)


def skip_template_args(tokens, i):
    """If tokens[i] is '<' opening a plausible template argument list,
    returns the index just past the matching '>'; else returns i."""
    if i >= len(tokens) or tokens[i].text != "<":
        return i
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j].text
        if t == "<":
            depth += 1
        elif t in (">", ">>"):
            depth -= 2 if t == ">>" else 1
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}"):
            return i  # not a template list (comparison operator)
        j += 1
    return i


def tokens_text(tokens):
    return " ".join(t.text for t in tokens)


# --------------------------------------------------------------------------
# Expressions


def parse_expr(tokens, line=0):
    """Builds Expr facts from a token region."""
    e = Expr(line=line or (tokens[0].line if tokens else 0),
             text=tokens_text(tokens[:40]))
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if IDENT_RE.fullmatch(t) and t not in CONTROL_KEYWORDS \
                and t not in TYPE_KEYWORDS:
            # Assemble the longest a::b.c->d chain starting here.
            chain = [t]
            j = i + 1
            while j + 1 < n and tokens[j].text in ("::", ".", "->") \
                    and IDENT_RE.fullmatch(tokens[j + 1].text):
                chain.append(tokens[j].text)
                chain.append(tokens[j + 1].text)
                j += 2
            # Template args on the tail (Foo<Bar>(...), static_cast<T>(x)).
            j2 = skip_template_args(tokens, j)
            tmpl = tokens[j:j2]
            j = j2
            if j < n and tokens[j].text == "(":
                close = match_paren(tokens, j)
                call = Call(callee=chain[-1],
                            base="".join(chain[:-2]).replace("->", "."),
                            qual="".join(chain) +
                                 ("".join(x.text for x in tmpl) if tmpl else ""),
                            line=tokens[i].line)
                # Split top-level commas into argument Exprs.
                arg = []
                depth = 0
                for k in range(j + 1, close):
                    tk = tokens[k]
                    if tk.text in "([{":
                        depth += 1
                    elif tk.text in ")]}":
                        depth -= 1
                    if tk.text == "," and depth == 0:
                        if arg:
                            call.args.append(parse_expr(arg))
                        arg = []
                    else:
                        arg.append(tk)
                if arg:
                    call.args.append(parse_expr(arg))
                e.calls.append(call)
                # The receiver chain itself is also a read.
                _record_chain(e, chain[:-2])
                i = close + 1
                # Method chaining: .value().foo — continue normally.
                continue
            _record_chain(e, chain)
            i = j
            continue
        i += 1
    return e


def _record_chain(e, chain):
    """Records an identifier chain (tokens incl. separators) as a read."""
    if not chain:
        return
    idents = [c for c in chain if IDENT_RE.fullmatch(c)]
    if not idents:
        return
    if len(idents) == 1:
        e.idents.add(idents[0])
        return
    # a::b stays one qualified ident; a.b / a->b become member chains.
    if "." in chain or "->" in chain:
        e.members.add(".".join(idents))
        e.idents.add(idents[0])
    else:
        e.idents.add(idents[-1])


# --------------------------------------------------------------------------
# Statements


def looks_like_decl(tokens, eq_index):
    """Heuristic: is tokens[:eq_index] `Type name` rather than an lvalue
    chain? True when >= 2 identifier groups separated by more than
    ::/./-> (i.e. a type precedes the final name)."""
    lhs = tokens[:eq_index]
    if not lhs:
        return False
    if any(t.text in TYPE_KEYWORDS for t in lhs):
        return True
    # Count identifiers that are not glued by member/scope separators.
    groups = 0
    prev_sep = True
    prev_ident = False
    i = 0
    while i < len(lhs):
        t = lhs[i].text
        if IDENT_RE.fullmatch(t):
            # Two adjacent identifiers (`MutexLock lock`) can only be
            # `Type name`, so the second starts a new group.
            if prev_sep or prev_ident:
                groups += 1
            prev_sep = False
            prev_ident = True
            i += 1
            continue
        prev_ident = False
        if t in ("::", ".", "->"):
            prev_sep = False
        elif t == "[":
            # Index expression (`rigs_[i] = x`): skip the subscript and
            # keep the chain glued — identifiers inside are not a type.
            # (`Type name[N]` still counts as a decl via its two groups
            # or a type keyword before the bracket.)
            depth = 1
            i += 1
            while i < len(lhs) and depth:
                if lhs[i].text == "[":
                    depth += 1
                elif lhs[i].text == "]":
                    depth -= 1
                i += 1
            prev_sep = False
            continue
        elif t in ("<",):
            j = skip_template_args(lhs, i)
            if j == i:
                prev_sep = True  # comparison operator, not template args
            else:
                # Foo<Bar> name — the next identifier starts a new group.
                i = j - 1
                prev_sep = True
        else:
            prev_sep = True
        i += 1
    return groups >= 2


def lhs_chain_text(tokens):
    """Normalizes an lvalue token region to a dotted chain (`a.b`)."""
    parts = []
    for t in tokens:
        if IDENT_RE.fullmatch(t.text):
            parts.append(t.text)
        elif t.text in (".", "->"):
            parts.append(".")
        elif t.text == "::":
            parts.append("::")
        elif t.text in ("(", ")", "*", "&"):
            continue
        elif t.text == "[":
            break
        else:
            continue
    text = "".join(parts)
    text = re.sub(r"\.+", ".", text).strip(".")
    return text


ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}


def split_top_level_assign(tokens):
    """Finds a top-level assignment operator; returns (index, op) or
    (None, None)."""
    depth = 0
    i = 0
    while i < len(tokens):
        t = tokens[i].text
        if t in "([{":
            depth += 1
        elif t in ")]}":
            depth -= 1
        elif t == "<":
            j = skip_template_args(tokens, i)
            if j != i:
                i = j
                continue
        elif depth == 0 and t in ASSIGN_OPS:
            return i, t
        i += 1
    return None, None


def last_decl_name(tokens):
    """Declared name = last identifier in the region (past type and
    template args)."""
    for t in reversed(tokens):
        if IDENT_RE.fullmatch(t.text) and t.text not in TYPE_KEYWORDS:
            return t.text
    return None


def classify_simple_statement(tokens):
    """Classifies a `;`-terminated statement token region -> Statement."""
    if not tokens:
        return Statement(kind="other", line=0, expr=Expr())
    line = tokens[0].line
    first = tokens[0].text

    if first == "return":
        rest = tokens[1:]
        return Statement(kind="return", line=line,
                         expr=parse_expr(rest, line) if rest else None)
    if first in ("break", "continue", "goto", "using", "typedef",
                 "static_assert", "friend", "template", "public",
                 "private", "protected"):
        return Statement(kind="other", line=line, expr=parse_expr(tokens, line))
    if first == "throw":
        return Statement(kind="other", line=line,
                         expr=parse_expr(tokens[1:], line))

    eq, op = split_top_level_assign(tokens)
    if eq is not None:
        lhs, rhs = tokens[:eq], tokens[eq + 1:]
        rhs_expr = parse_expr(rhs, line)
        if op == "=" and looks_like_decl(tokens, eq):
            name = last_decl_name(lhs)
            type_text = tokens_text(lhs[:-1]) if name else tokens_text(lhs)
            return Statement(kind="decl", line=line, target=name,
                             decl_type=type_text, op="=", expr=rhs_expr)
        st = Statement(kind="assign", line=line, target=lhs_chain_text(lhs),
                       op=op, expr=rhs_expr)
        st.expr.idents |= parse_expr(lhs, line).idents  # index reads etc.
        return st

    # Constructor-style declaration: `Type name(args);` / `Type name{..};`
    # Needs a type chain then a fresh identifier then an opener.
    for i, t in enumerate(tokens):
        if t.text in ("(", "{") and i >= 2:
            prev = tokens[i - 1].text
            if IDENT_RE.fullmatch(prev) and prev not in TYPE_KEYWORDS \
                    and tokens[i - 2].text not in ("::", ".", "->") \
                    and looks_like_decl(tokens, i):
                close = match_paren(tokens, i)
                init = parse_expr(tokens[i + 1:close], line)
                return Statement(kind="decl", line=line, target=prev,
                                 decl_type=tokens_text(tokens[:i - 1]),
                                 op="(", expr=init)
            break
        if t.text in (";",):
            break
    # Plain declaration without initializer: `Type name;`
    if tokens[-1].text not in (")",) and looks_like_decl(
            tokens, len(tokens)) and not any(
            t.text == "(" for t in tokens):
        name = last_decl_name(tokens)
        if name:
            return Statement(kind="decl", line=line, target=name,
                             decl_type=tokens_text(tokens[:-1]), expr=None)

    expr = parse_expr(tokens, line)
    kind = "call" if expr.calls else "other"
    return Statement(kind=kind, line=line, expr=expr)


def parse_block(tokens, start, end):
    """Parses tokens[start:end] (inside braces) into a Block; returns it."""
    block = Block()
    i = start
    while i < end:
        t = tokens[i].text
        line = tokens[i].line
        if t == ";":
            i += 1
            continue
        if t == "{":
            close = match_paren(tokens, i)
            inner = parse_block(tokens, i + 1, close)
            block.statements.append(Statement(kind="block", line=line,
                                              body=inner))
            i = close + 1
            continue
        if t == "}":
            i += 1
            continue
        if t in ("if", "while", "switch"):
            j = i + 1
            if j < end and tokens[j].text == "constexpr":
                j += 1
            if j < end and tokens[j].text == "(":
                close = match_paren(tokens, j)
                cond = parse_expr(tokens[j + 1:close], line)
                body, nxt = _parse_controlled(tokens, close + 1, end)
                st = Statement(kind="if" if t == "if" else "loop",
                               line=line, expr=cond, body=body)
                i = nxt
                if t == "if" and i < end and tokens[i].text == "else":
                    ebody, nxt2 = _parse_controlled(tokens, i + 1, end)
                    st.else_body = ebody
                    i = nxt2
                block.statements.append(st)
                continue
        if t == "do":
            body, nxt = _parse_controlled(tokens, i + 1, end)
            block.statements.append(Statement(kind="loop", line=line,
                                              body=body))
            i = nxt
            continue
        if t == "for":
            j = i + 1
            if j < end and tokens[j].text == "(":
                close = match_paren(tokens, j)
                head = tokens[j + 1:close]
                colon = _top_level_colon(head)
                body, nxt = _parse_controlled(tokens, close + 1, end)
                if colon is not None:
                    var = last_decl_name(head[:colon])
                    container = parse_expr(head[colon + 1:], line)
                    st = Statement(kind="rangefor", line=line, target=var,
                                   expr=container, body=body)
                else:
                    st = Statement(kind="loop", line=line,
                                   expr=parse_expr(head, line), body=body)
                block.statements.append(st)
                i = nxt
                continue
        if t in ("try",):
            i += 1
            continue
        if t in ("catch",):
            # skip (decl) then treat body as block
            j = i + 1
            if j < end and tokens[j].text == "(":
                j = match_paren(tokens, j) + 1
            i = j
            continue
        if t == "case":
            while i < end and tokens[i].text != ":":
                i += 1
            i += 1
            continue
        if t in ("default", "else") and i + 1 < end \
                and tokens[i + 1].text == ":":
            i += 2
            continue
        # Lambda introduced as a statement start is rare; fall through.
        # Generic statement: collect to top-level ';'
        j = i
        depth = 0
        while j < end:
            tj = tokens[j].text
            if tj in "([{":
                depth += 1
            elif tj in ")]}":
                depth -= 1
                if depth < 0:
                    break
            elif tj == ";" and depth == 0:
                break
            j += 1
        stmt_tokens = tokens[i:j]
        # Lambdas inside the statement: parse their bodies as nested
        # blocks so their statements are visible (flattened semantics).
        lam_blocks = _extract_lambda_bodies(stmt_tokens)
        st = classify_simple_statement(_without_lambda_bodies(stmt_tokens))
        if lam_blocks:
            inner = Block()
            for lb in lam_blocks:
                inner.statements.extend(lb.statements)
            st.body = inner if st.body is None else st.body
        block.statements.append(st)
        i = j + 1
    return block


def _top_level_colon(tokens):
    depth = 0
    for i, t in enumerate(tokens):
        if t.text in "([{<":
            depth += 1
        elif t.text in ")]}>":
            depth -= 1
        elif t.text == "::":
            continue
        elif t.text == ":" and depth == 0:
            return i
    return None


def _parse_controlled(tokens, i, end):
    """Parses the body of a control statement starting at i: either a
    braced block or a single statement. Returns (Block, next_index)."""
    while i < end and tokens[i].text == ";":
        return Block(), i + 1
    if i < end and tokens[i].text == "{":
        close = match_paren(tokens, i)
        return parse_block(tokens, i + 1, close), close + 1
    # single statement: find its extent (may itself be a control stmt)
    if i < end and tokens[i].text in ("if", "for", "while", "do", "switch"):
        b = Block()
        sub = parse_block(tokens, i, _control_extent(tokens, i, end))
        b.statements.extend(sub.statements)
        return b, _control_extent(tokens, i, end)
    j = i
    depth = 0
    while j < end:
        tj = tokens[j].text
        if tj in "([{":
            depth += 1
        elif tj in ")]}":
            depth -= 1
        elif tj == ";" and depth == 0:
            break
        j += 1
    b = Block()
    st = classify_simple_statement(tokens[i:j])
    b.statements.append(st)
    return b, j + 1


def _control_extent(tokens, i, end):
    """End index (exclusive of trailing token) of a nested control
    statement used as an unbraced body."""
    depth = 0
    j = i
    while j < end:
        tj = tokens[j].text
        if tj in "([{":
            depth += 1
        elif tj in ")]}":
            depth -= 1
        elif tj == ";" and depth == 0:
            # include potential else chain
            if j + 1 < end and tokens[j + 1].text == "else":
                j += 1
                continue
            return j + 1
        j += 1
    return end


LAMBDA_INTRO_RE = re.compile(r"\[[&=,\w\s.*]*\]")


def _lambda_regions(tokens):
    """Finds [capture](params){body} regions; returns list of
    (body_start, body_end) plus the full region span for removal."""
    regions = []
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].text == "[":
            close_b = match_paren(tokens, i)
            j = close_b + 1
            if j < n and tokens[j].text == "(":
                j = match_paren(tokens, j) + 1
            while j < n and tokens[j].text in ("mutable", "noexcept", "->"):
                if tokens[j].text == "->":
                    j += 2
                else:
                    j += 1
            if j < n and tokens[j].text == "{":
                close = match_paren(tokens, j)
                regions.append((i, j + 1, close))
                i = close + 1
                continue
        i += 1
    return regions


def _extract_lambda_bodies(tokens):
    return [parse_block(tokens, b, e) for (_, b, e) in
            _lambda_regions(tokens)]


def _without_lambda_bodies(tokens):
    regions = _lambda_regions(tokens)
    if not regions:
        return tokens
    out = []
    skip_until = -1
    spans = [(start, close) for (start, _, close) in regions]
    i = 0
    while i < len(tokens):
        for (s, c) in spans:
            if i == s:
                skip_until = c
                break
        if skip_until >= 0:
            i = skip_until + 1
            skip_until = -1
            continue
        out.append(tokens[i])
        i += 1
    return out


# --------------------------------------------------------------------------
# Top-level structure


GUARDED_RE_TOK = ("RELFAB_GUARDED_BY", "RELFAB_PT_GUARDED_BY")


class StructureParser:
    def __init__(self, rel_path, tokens):
        self.path = rel_path
        self.tokens = tokens
        self.tu = TranslationUnit(path=rel_path)
        # scope stack entries: ("namespace"|"class"|"skip", name, end_index)
        self.scopes = []

    def class_stack(self):
        return [s[1] for s in self.scopes if s[0] == "class"]

    def parse(self):
        tokens = self.tokens
        i = 0
        n = len(tokens)
        while i < n:
            # Pop finished scopes.
            while self.scopes and i >= self.scopes[-1][2]:
                self.scopes.pop()
            t = tokens[i].text
            if t == "namespace":
                j = i + 1
                while j < n and tokens[j].text not in ("{", ";", "="):
                    j += 1
                if j < n and tokens[j].text == "{":
                    close = match_paren(tokens, j)
                    self.scopes.append(("namespace", "", close))
                    i = j + 1
                    continue
                i = j + 1
                continue
            if t == "template":
                j = i + 1
                if j < n and tokens[j].text == "<":
                    j = skip_template_args(tokens, j)
                i = j
                continue
            if t in ("class", "struct"):
                cls, nxt = self._try_class(i)
                if cls is not None:
                    i = nxt
                    continue
                i += 1
                continue
            if t in ("enum", "union"):
                # skip to ; or matching brace
                j = i + 1
                while j < n and tokens[j].text not in ("{", ";"):
                    j += 1
                if j < n and tokens[j].text == "{":
                    j = match_paren(tokens, j) + 1
                i = j + 1
                continue
            if t == "extern" and i + 1 < n and tokens[i + 1].text == '""':
                i += 2
                continue
            fn, nxt = self._try_function(i)
            if fn is not None:
                self.tu.functions.append(fn)
                i = nxt
                continue
            # Inside a class body: member declaration attempt.
            if self.class_stack():
                nxt = self._try_member(i)
                if nxt is not None:
                    i = nxt
                    continue
            i += 1
        return self.tu

    # -- classes ----------------------------------------------------------

    def _try_class(self, i):
        tokens = self.tokens
        n = len(tokens)
        j = i + 1
        # attributes / alignas / RELFAB_CAPABILITY(...)
        name = None
        while j < n:
            t = tokens[j].text
            if IDENT_RE.fullmatch(t):
                if t in ANNOTATION_MACROS or t == "RELFAB_CAPABILITY" \
                        or t == "alignas":
                    j += 1
                    if j < n and tokens[j].text == "(":
                        j = match_paren(tokens, j) + 1
                    continue
                name = t
                j += 1
                j = skip_template_args(tokens, j)
                continue
            break
        if name is None:
            return None, i + 1
        # base-clause then body?
        while j < n and tokens[j].text not in ("{", ";"):
            if tokens[j].text == "<":
                j2 = skip_template_args(tokens, j)
                if j2 != j:
                    j = j2
                    continue
            j += 1
        if j >= n or tokens[j].text == ";":
            return None, j + 1  # forward declaration
        close = match_paren(tokens, j)
        cls = self.tu.classes.get(name)
        if cls is None:
            cls = ClassInfo(name=name, file=self.path, line=tokens[i].line)
            self.tu.classes[name] = cls
        self.scopes.append(("class", name, close))
        return cls, j + 1

    # -- members ----------------------------------------------------------

    def _try_member(self, i):
        """At class scope: tries to consume one member declaration ending
        at ';' with no parens-before-name (functions handled elsewhere).
        Returns next index or None."""
        tokens = self.tokens
        n = len(tokens)
        scope_end = self.scopes[-1][2]
        j = i
        depth = 0
        while j < n and j < scope_end:
            t = tokens[j].text
            if t in "([{":
                depth += 1
            elif t in ")]}":
                depth -= 1
            elif t == "<" and depth == 0:
                j2 = skip_template_args(tokens, j)
                if j2 != j:
                    j = j2
                    continue
            elif t == ";" and depth == 0:
                break
            elif t == "{" and depth == 0:
                return None
            j += 1
        if j >= min(n, scope_end):
            return None
        region = tokens[i:j]
        if not region:
            return j + 1
        # access specifiers
        if region[0].text in ("public", "private", "protected"):
            return i + 2 if i + 1 < n and tokens[i + 1].text == ":" else j + 1
        # Does it look like a function declaration? name followed by '('
        # before any '=' — skip those (prototypes).
        guarded = None
        k = 0
        cleaned = []
        while k < len(region):
            t = region[k].text
            if t in GUARDED_RE_TOK:
                if k + 1 < len(region) and region[k + 1].text == "(":
                    close = match_paren(region, k + 1)
                    inner = [x.text for x in region[k + 2:close]
                             if IDENT_RE.fullmatch(x.text)]
                    guarded = inner[0] if inner else None
                    k = close + 1
                    continue
            cleaned.append(region[k])
            k += 1
        eq, _ = split_top_level_assign(cleaned)
        decl_part = cleaned[:eq] if eq is not None else cleaned
        # function prototype?
        for idx, tok in enumerate(decl_part):
            if tok.text == "(":
                # `Type name(...)` prototype or in-class definition —
                # in-class definitions are caught by _try_function first.
                return j + 1
        name = last_decl_name(decl_part)
        if name is None:
            return j + 1
        cls_name = self.class_stack()[-1]
        cls = self.tu.classes[cls_name]
        if name not in cls.members:
            cls.members[name] = Member(
                name=name,
                type_text=tokens_text(decl_part[:-1]),
                guarded_by=guarded,
                line=region[0].line,
                file=self.path)
        return j + 1

    # -- functions --------------------------------------------------------

    def _try_function(self, i):
        """Tries to recognize a function definition starting at i.
        Returns (Function, next_index) or (None, i)."""
        tokens = self.tokens
        n = len(tokens)
        # Find the parameter list: scan forward within the statement for
        # ident '(' ... ')' [quals] '{'. Abort at ';' or '}' at depth 0.
        j = i
        depth = 0
        name_idx = None
        while j < n:
            t = tokens[j].text
            if t == ";" and depth == 0:
                return None, i
            if t == "}" and depth == 0:
                return None, i
            if t == "=" and depth == 0:
                return None, i
            if t == "<" and depth == 0:
                j2 = skip_template_args(tokens, j)
                if j2 != j:
                    j = j2
                    continue
            if t == "(" and depth == 0:
                prev = tokens[j - 1].text if j > 0 else ""
                prev2 = tokens[j - 2].text if j > 1 else ""
                is_name = (IDENT_RE.fullmatch(prev)
                           and prev not in CONTROL_KEYWORDS
                           and prev not in TYPE_KEYWORDS)
                is_op = (prev2 == "operator"
                         or (j > 1 and tokens[j - 2].text == "operator"))
                if is_name or is_op:
                    close = match_paren(tokens, j)
                    k = close + 1
                    requires = set()
                    body_at = None
                    while k < n:
                        tk = tokens[k].text
                        if tk in ("const", "noexcept", "override", "final",
                                  "mutable", "&", "&&", "try"):
                            k += 1
                            continue
                        if tk == "->":  # trailing return type
                            k += 1
                            while k < n and tokens[k].text not in ("{", ";"):
                                if tokens[k].text == "<":
                                    k = skip_template_args(tokens, k)
                                    continue
                                k += 1
                            continue
                        if tk in ANNOTATION_MACROS:
                            k += 1
                            if k < n and tokens[k].text == "(":
                                cl = match_paren(tokens, k)
                                if tk2_requires(tk):
                                    for x in tokens[k + 1:cl]:
                                        if IDENT_RE.fullmatch(x.text):
                                            requires.add(x.text)
                                k = cl + 1
                            continue
                        if tk == ":" and is_name:  # ctor initializer list
                            k += 1
                            d = 0
                            while k < n:
                                tt = tokens[k].text
                                if tt in "([{":
                                    if tt == "{" and d == 0:
                                        break
                                    d += 1
                                elif tt in ")]}":
                                    d -= 1
                                k += 1
                            continue
                        if tk == "{":
                            body_at = k
                        break
                    if body_at is None:
                        return None, i
                    name_idx = j - 1
                    return self._build_function(i, name_idx, j, close,
                                                body_at, requires)
                depth_adjust = match_paren(tokens, j)
                j = depth_adjust + 1
                continue
            if t in "[{":
                return None, i
            j += 1
        return None, i

    def _build_function(self, stmt_start, name_idx, open_paren, close_paren,
                        body_open, requires):
        tokens = self.tokens
        name = tokens[name_idx].text
        # Qualified chain behind the name: A::B::name
        quals = []
        k = name_idx - 1
        while k - 1 >= 0 and tokens[k].text == "::" \
                and IDENT_RE.fullmatch(tokens[k - 1].text):
            quals.insert(0, tokens[k - 1].text)
            k -= 2
            if k >= 0 and tokens[k].text == ">":
                break
        ret_type = tokens_text(tokens[stmt_start:max(k + 1, stmt_start)])
        cls = None
        if quals:
            cls = quals[-1]
        elif self.class_stack():
            cls = self.class_stack()[-1]
        qual_name = "::".join((quals or ([cls] if cls else [])) + [name]) \
            if (quals or cls) else name
        params = []
        region = tokens[open_paren + 1:close_paren]
        arg = []
        depth = 0
        idx = 0
        while idx < len(region):
            t = region[idx]
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            elif t.text == "<":
                j2 = skip_template_args(region, idx)
                if j2 != idx:
                    arg.extend(region[idx:j2])
                    idx = j2
                    continue
            if t.text == "," and depth == 0:
                _append_param(params, arg)
                arg = []
            else:
                arg.append(t)
            idx += 1
        _append_param(params, arg)

        body_close = match_paren(tokens, body_open)
        body = parse_block(tokens, body_open + 1, body_close)
        is_ctor_dtor = (cls is not None and
                        (name == cls or name == "~" + cls or
                         (name_idx > 0 and tokens[name_idx - 1].text == "~")))
        fn = Function(name=name, qual_name=qual_name, cls=cls,
                      return_type=ret_type, params=params, body=body,
                      requires=requires, line=tokens[name_idx].line,
                      file=self.path, is_ctor_dtor=is_ctor_dtor)
        return fn, body_close + 1


def tk2_requires(macro):
    return macro in ("RELFAB_REQUIRES", "RELFAB_ACQUIRE")


def _append_param(params, arg_tokens):
    arg_tokens = [t for t in arg_tokens if t.text not in ("=",)]
    if not arg_tokens:
        return
    # Default arguments: cut at '='.
    cut = len(arg_tokens)
    for i, t in enumerate(arg_tokens):
        if t.text == "=":
            cut = i
            break
    region = arg_tokens[:cut]
    name = last_decl_name(region)
    if name is None:
        return
    params.append(Param(type_text=tokens_text(region[:-1]), name=name))


def parse_file(abs_path, rel_path):
    """Parses one file into a TranslationUnit (never raises on content)."""
    with open(abs_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    tokens = tokenize(scrub(text))
    try:
        tu = StructureParser(rel_path, tokens).parse()
    except (RecursionError, IndexError):
        tu = TranslationUnit(path=rel_path)
    tu.frontend = "internal"
    return tu
