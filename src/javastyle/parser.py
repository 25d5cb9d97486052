"""Recursive-descent parser for the supported Java subset.

Two phases: a declaration pass builds the type/member skeleton and records
the token span of every method or constructor body; a second pass scans
those spans for statement-level facts (catch clauses, loops, string
concatenation sites, member accesses, local variables).

Supported: classes, enums, interfaces, records, nested types, generics
(parsed and ignored), annotations, all loop forms, try/catch/finally,
switch, lambdas. Module declarations, annotation-type bodies, record
headers, enum-constant bodies and initializer blocks are parsed
permissively and produce no facts.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import NoReturn

from .javadoc import extract_javadoc
from .lexer import JavaSyntaxError, Token, tokenize
from .model import (
    AccessFact,
    BodyFacts,
    CatchFact,
    CommentFact,
    ConcatSiteFact,
    ImportFact,
    JavadocFact,
    LocalVarFact,
    LoopFact,
    MemberFact,
    ParamFact,
    SourceFileModel,
    TypeFact,
)

_PRIMITIVES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double", "void"}
)
_MODIFIER_WORDS = frozenset(
    {
        "public", "protected", "private", "static", "final", "abstract",
        "strictfp", "transient", "volatile", "synchronized", "native",
        "default", "sealed",
    }
)
_LOCAL_DECL_PREV = frozenset({";", "{", "}", "(", ","})
# Deepest type nesting parsed; deeper files are skipped with a diagnostic
# instead of exhausting the interpreter's recursion limit.
MAX_TYPE_NESTING = 100


def _simple(type_name: str) -> str:
    return type_name.rsplit(".", 1)[-1]


def parse_compilation_unit(text: str, path: str) -> SourceFileModel:
    """Parse one Java file into a SourceFileModel.

    Raises JavaSyntaxError (with line/col) on text outside the supported
    subset; callers skip the file and report the error.
    """
    return _Parser(text, path).parse()


def match_brackets(tokens: list[Token]) -> list[int]:
    """Index of each bracket's partner, -1 for unmatched and non-brackets.

    One stack per bracket kind, so every bracket pairs as a same-kind
    depth count would pair it, unbalanced text included.
    """
    partner = [-1] * len(tokens)
    opens: dict[str, list[int]] = {"(": [], "[": [], "{": []}
    closes = {")": opens["("], "]": opens["["], "}": opens["{"]}
    for i, tok in enumerate(tokens):
        v = tok.value
        if v in opens:
            opens[v].append(i)
        elif v in closes and closes[v]:
            j = closes[v].pop()
            partner[i], partner[j] = j, i
    return partner


class _Parser:
    def __init__(self, text: str, path: str) -> None:
        self.path = path
        self.tokens, self.comments = tokenize(text)
        last = self.tokens[-1] if self.tokens else Token("eof", "", 1, 1)
        self.tokens.append(Token("eof", "", last.line, last.col))
        self.last = len(self.tokens) - 1  # the end-of-file sentinel
        self.partner = match_brackets(self.tokens)
        self.pos = 0
        self.line_count = sum(1 for ln in text.split("\n") if ln.strip())
        # Index of the token after each comment, in source order.
        self.comment_next = [com.next_token_index for com in self.comments]
        self.doc_by_next: dict[int, object] = {}
        for com in self.comments:
            if com.is_javadoc:
                self.doc_by_next[com.next_token_index] = com
        # (member, enclosing type stack, open brace idx, close brace idx)
        self.body_jobs: list[tuple[MemberFact, tuple[TypeFact, ...], int, int]] = []
        self.type_stack: list[TypeFact] = []
        # statement start -> index of its last token (bodies are disjoint)
        self.stmt_ends: dict[int, int] = {}

    # ------------------------------------------------------------------
    # token plumbing

    def peek(self, off: int = 0) -> Token:
        return self.tokens[min(self.pos + off, self.last)]

    def peek_more(self) -> Token:
        """The current token; fails at the end of the file."""
        tok = self.tokens[self.pos]
        if tok.kind == "eof":
            self.fail("unexpected end of file")
        return tok

    def pop(self) -> Token:
        tok = self.peek_more()
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        return self.tokens[self.pos].value == value

    def match(self, value: str) -> bool:
        if self.at(value):
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.value != value:
            self.fail(f"expected '{value}'")
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            self.fail("expected identifier")
        self.pos += 1
        return tok

    def fail(self, message: str) -> NoReturn:
        tok = self.tokens[self.pos]
        raise JavaSyntaxError(message, tok.line, tok.col)

    def skip_balanced(self, open_val: str) -> tuple[int, int]:
        """Skip from the current open token past its matching close.

        Returns (open index, close index).
        """
        open_idx = self.pos
        self.expect(open_val)
        close_idx = self.partner[open_idx]
        if close_idx < 0:
            self.pos = self.last
            self.fail("unexpected end of file")
        self.pos = close_idx + 1
        return open_idx, close_idx

    def dims(self) -> str:
        """Consume [] pairs; returns them as a type suffix."""
        start = self.pos
        self.pos = self._dims_end(start, self.last)
        return "[]" * ((self.pos - start) // 2)

    def _dims_end(self, j: int, limit: int) -> int:
        """Index after the [] pairs starting at token j, up to limit."""
        toks = self.tokens
        while j + 1 <= limit and toks[j].value == "[" and toks[j + 1].value == "]":
            j += 2
        return j

    def skip_angles(self) -> None:
        """Skip a balanced <...> region; >> and >>> close two/three."""
        self.expect("<")
        depth = 1
        while depth > 0:
            tok = self.pop()
            if tok.value == "<":
                depth += 1
            elif tok.value == ">":
                depth -= 1
            elif tok.value == ">>":
                depth -= 2
            elif tok.value == ">>>":
                depth -= 3

    # ------------------------------------------------------------------
    # compilation unit

    def parse(self) -> SourceFileModel:
        model = SourceFileModel(path=self.path, package=None)
        while (tok := self.peek()).kind != "eof":
            if tok.value == ";":
                self.pop()
            elif tok.value == "package" and model.package is None:
                self.pop()
                model.package = self.dotted_name()
                self.expect(";")
                model.package_line = tok.line
            elif tok.value == "import":
                model.imports.append(self.parse_import())
            elif tok.value == "module" or (
                tok.value == "open" and self.peek(1).value == "module"
            ):
                while not self.at("{") and self.peek().kind != "eof":
                    self.pop()
                self.skip_balanced("{")
            else:
                model.types.append(self.parse_declaration(None, None))

        self.finish(model)
        return model

    def dotted_name(self) -> str:
        parts = [self.expect_ident().value]
        while self.at(".") and self.peek(1).kind == "ident":
            self.pop()
            parts.append(self.pop().value)
        return ".".join(parts)

    def parse_import(self) -> ImportFact:
        tok = self.expect("import")
        is_static = self.match("static")
        target = self.dotted_name()
        is_wildcard = self.match(".")
        if is_wildcard and not self.match("*"):
            self.fail("expected identifier")
        self.expect(";")
        return ImportFact(target=target + (".*" if is_wildcard else ""), line=tok.line,
                          is_static=is_static, is_wildcard=is_wildcard)

    # ------------------------------------------------------------------
    # declarations

    def parse_declaration(
        self, container_name: str | None, container_kind: str | None
    ) -> TypeFact | list[MemberFact]:
        """Parse one type or member declaration.

        Returns the TypeFact of a top-level type (container_name None),
        else the declared members: none for an initializer block.
        """
        doc = self.doc_by_next.get(self.pos)
        annotations: list[str] = []
        mods: set[str] = set()
        ann_type = False
        while True:
            tok = self.peek()
            if tok.value == "@":
                if self.peek(1).value == "interface":
                    self.pop()
                    ann_type = True
                    break
                annotations.append(self.parse_annotation())
            elif tok.value in _MODIFIER_WORDS:
                mods.add(tok.value)
                self.pop()
            elif (
                tok.value == "non" and self.peek(1).value == "-"
                and self.peek(2).value == "sealed"
            ):
                self.pos += 3
            else:
                break

        tok = self.peek_more()
        javadoc = None
        if doc is not None:
            javadoc = extract_javadoc(doc.text, doc.line)

        is_record = (
            tok.value == "record" and self.peek(1).kind == "ident"
            and self.peek(2).value == "("
        )
        if ann_type or tok.value in ("class", "enum", "interface") or is_record:
            tf = self.parse_type_tail(
                "annotation" if ann_type else tok.value,
                annotations, mods, javadoc, container_kind,
            )
            if container_name is None:
                return tf
            member = MemberFact(
                kind="innerType",
                name=tf.name,
                visibility=tf.visibility,
                line=tf.line,
                annotations=annotations,
                nested=tf,
            )
            return [member]

        if container_name is None:
            self.fail("expected type declaration")
        return self.parse_member_tail(
            annotations, mods, javadoc, container_name, container_kind
        )

    def parse_annotation(self) -> str:
        self.expect("@")
        name = self.dotted_name()
        if self.at("("):
            self.skip_balanced("(")
        return _simple(name)

    def parse_type_tail(
        self,
        kind: str,
        annotations: list[str],
        mods: set[str],
        javadoc: JavadocFact | None,
        container_kind: str | None,
    ) -> TypeFact:
        if len(self.type_stack) >= MAX_TYPE_NESTING:
            self.fail("type nesting too deep")
        self.pop()  # class/enum/interface/record/interface-after-@
        name_tok = self.expect_ident()
        if self.at("<"):
            self.skip_angles()
        if kind == "record" and self.at("("):
            self.skip_balanced("(")  # components carry no facts

        supertypes: list[str] = []
        while True:
            if self.match("extends") or self.match("implements"):
                supertypes.append(self.parse_type_ref())
                while self.match(","):
                    supertypes.append(self.parse_type_ref())
            elif self.at("permits"):
                self.pop()
                self.parse_type_ref()
                while self.match(","):
                    self.parse_type_ref()
            else:
                break

        tf = TypeFact(
            kind=kind,
            name=name_tok.value,
            visibility=self._visibility(mods, container_kind),
            line=name_tok.line,
            is_nested=container_kind is not None,
            supertypes=supertypes,
            javadoc=javadoc,
            annotations=annotations,
        )

        if kind == "annotation":
            self.skip_balanced("{")  # permissive, no facts
            return tf

        self.type_stack.append(tf)
        self.expect("{")
        if kind == "enum":
            self.parse_enum_constants()
        while not self.at("}"):
            if not self.match(";"):
                tf.members.extend(self.parse_declaration(tf.name, tf.kind))
        self.expect("}")
        self.type_stack.pop()
        return tf

    def parse_enum_constants(self) -> None:
        while not (self.match(";") or self.at("}")):
            while self.at("@"):
                self.parse_annotation()
            self.expect_ident()
            if self.at("("):
                self.skip_balanced("(")
            if self.at("{"):
                self.skip_balanced("{")
            if not self.match(","):
                self.match(";")
                return

    def parse_member_tail(
        self,
        annotations: list[str],
        mods: set[str],
        javadoc: JavadocFact | None,
        container_name: str,
        container_kind: str | None,
    ) -> list[MemberFact]:
        if self.at("{"):  # instance or static initializer: no facts
            self.skip_balanced("{")
            return []
        if self.at("<"):
            self.skip_angles()

        tok = self.peek_more()
        # Constructor: TypeName followed directly by (
        if (
            tok.kind == "ident"
            and tok.value == container_name
            and self.peek(1).value == "("
        ):
            name_tok = self.pop()
            return [self.finish_callable(
                "constructor", name_tok, None, annotations, mods,
                javadoc, container_kind,
            )]

        rtype = self.parse_type_ref()

        # Compact record constructor: TypeName { ... }
        if self.at("{") and rtype == container_name:
            member = MemberFact(
                kind="constructor",
                name=container_name,
                visibility=self._visibility(mods, container_kind),
                line=tok.line,
                annotations=annotations,
                javadoc=javadoc,
            )
            self.skip_body(member)
            return [member]

        name_tok = self.expect_ident()
        if self.at("("):
            member = self.finish_callable(
                "staticMethod" if "static" in mods else "instanceMethod",
                name_tok, rtype, annotations, mods, javadoc, container_kind,
            )
            return [member]
        return self.finish_fields(
            name_tok, rtype, annotations, mods, javadoc, container_kind
        )

    def finish_callable(
        self,
        kind: str,
        name_tok: Token,
        rtype: str | None,
        annotations: list[str],
        mods: set[str],
        javadoc: JavadocFact | None,
        container_kind: str | None,
    ) -> MemberFact:
        params = self.parse_params()
        dims = self.dims()
        if rtype is not None:
            rtype += dims
        thrown: list[str] = []
        if self.match("throws"):
            thrown.append(_simple(self.parse_type_ref()))
            while self.match(","):
                thrown.append(_simple(self.parse_type_ref()))
        member = MemberFact(
            kind=kind,
            name=name_tok.value,
            visibility=self._visibility(mods, container_kind),
            line=name_tok.line,
            annotations=annotations,
            javadoc=javadoc,
            params=params,
            return_type=rtype,
            thrown_types=thrown,
        )
        if self.at("{"):
            self.skip_body(member)
        elif self.match("default"):
            # annotation-member default; unreachable here but permissive
            while not self.at(";"):
                self.pop()
            self.expect(";")
        else:
            self.expect(";")
        return member

    def skip_body(self, member: MemberFact) -> None:
        """Skip a { body } now and queue it for the phase-two scan."""
        member.body = BodyFacts()
        open_idx, close_idx = self.skip_balanced("{")
        self.body_jobs.append((member, tuple(self.type_stack), open_idx, close_idx))

    def parse_params(self) -> list[ParamFact]:
        self.expect("(")
        params: list[ParamFact] = []
        if self.match(")"):
            return params
        while True:
            while self.at("@"):
                self.parse_annotation()
            self.match("final")
            ptype = self.parse_type_ref()
            if self.match("..."):
                ptype += "[]"
            if self.at("this"):  # receiver parameter: not a real param
                self.pop()
            else:
                name_tok = self.expect_ident()
                ptype += self.dims()
                params.append(ParamFact(name=name_tok.value, type_name=ptype))
            if self.match(","):
                continue
            self.expect(")")
            return params

    def finish_fields(
        self,
        first_name: Token,
        ftype: str,
        annotations: list[str],
        mods: set[str],
        javadoc: JavadocFact | None,
        container_kind: str | None,
    ) -> list[MemberFact]:
        # Interface fields are constants regardless of written modifiers.
        is_static = "static" in mods or container_kind == "interface"
        is_final = "final" in mods or container_kind == "interface"
        members: list[MemberFact] = []
        name_tok = first_name
        while True:
            dtype = ftype + self.dims()
            members.append(
                MemberFact(
                    kind="staticField" if is_static else "instanceField",
                    name=name_tok.value,
                    visibility=self._visibility(mods, container_kind),
                    line=name_tok.line,
                    is_static_final=is_static and is_final,
                    annotations=annotations,
                    javadoc=javadoc,
                    return_type=dtype,
                )
            )
            if self.match("="):
                self.skip_initializer()
            if self.match(","):
                name_tok = self.expect_ident()
                continue
            self.expect(";")
            return members

    def skip_initializer(self) -> None:
        """Consume an initializer expression up to a declarator , or ; .

        Commas inside generic arguments sit at bracket depth zero, so a
        comma only ends the declarator when what follows looks like
        another declarator (ident, optional dims, then = , or ;).
        """
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                self.fail("unexpected end of file in initializer")
            v = tok.value
            if v in ("(", "[", "{"):
                depth += 1
            elif v in (")", "]", "}"):
                if depth == 0:
                    self.fail("unbalanced initializer")
                depth -= 1
            elif depth == 0 and v == ";":
                return
            elif depth == 0 and v == "," and \
                    self._declarator_ahead(self.pos + 1, self.last):
                return
            self.pop()

    def parse_type_ref(self) -> str:
        while self.at("@"):
            self.parse_annotation()
        tok = self.peek()
        if tok.kind == "keyword" and tok.value in _PRIMITIVES:
            base = tok.value
            self.pop()
        elif tok.value == "var":
            base = "var"
            self.pop()
        elif tok.kind == "ident":
            base = self.pop().value
            while True:
                if self.at("<"):
                    self.skip_angles()
                if self.at(".") and self.peek(1).kind == "ident":
                    self.pop()
                    base += "." + self.pop().value
                else:
                    break
        else:
            self.fail("expected type")
        return base + self.dims()

    @staticmethod
    def _visibility(mods: set[str], container_kind: str | None) -> str:
        for v in ("public", "protected", "private"):
            if v in mods:
                return v
        return "public" if container_kind == "interface" else "package"

    # ------------------------------------------------------------------
    # body scanning (phase two)

    def finish(self, model: SourceFileModel) -> None:
        # Receiver names that denote a class: the file's types, single imports.
        class_names = {imp.simple_name for imp in model.imports if not imp.is_wildcard}
        returns: dict[str, set[str]] = {}
        field_types_by_type: dict[int, dict[str, str]] = {}
        for tf in model.all_types():
            class_names.add(tf.name)
            field_types = field_types_by_type[id(tf)] = {}
            for m in tf.members:
                if m.kind in ("instanceField", "staticField"):
                    field_types[m.name] = _simple(m.return_type or "")
                elif m.kind in ("instanceMethod", "staticMethod") and m.return_type:
                    returns.setdefault(m.name, set()).add(_simple(m.return_type))
        method_returns = {n: next(iter(s)) for n, s in returns.items() if len(s) == 1}

        for member, stack, open_idx, close_idx in self.body_jobs:
            fields: dict[str, str] = {}
            for tf in stack:  # inner shadows outer
                fields.update(field_types_by_type[id(tf)])
            self._scan_body(
                member, stack, open_idx, close_idx, fields,
                class_names, method_returns,
            )

        # Identifier occurrences outside comments and package/import lines.
        # The only identifiers in those lines are the parts of their names.
        counts = Counter(tok.value for tok in self.tokens if tok.kind == "ident")
        for imp in model.imports:
            counts.subtract(imp.target.removesuffix(".*").split("."))
        if model.package is not None:
            counts.subtract(model.package.split("."))
        model.ident_counts = {name: n for name, n in counts.items() if n}

        for imp in model.imports:
            imp.used = imp.is_wildcard or counts[imp.simple_name] > 0

        model.comments = [
            CommentFact(line=c.line, end_line=c.end_line, text=c.text,
                        is_javadoc=c.is_javadoc)
            for c in self.comments
        ]
        model.line_count = self.line_count

    def _scan_body(
        self,
        member: MemberFact,
        stack: tuple[TypeFact, ...],
        open_idx: int,
        close_idx: int,
        field_types: dict[str, str],
        class_names: set[str],
        method_returns: dict[str, str],
    ) -> None:
        facts = member.body
        assert facts is not None
        toks = self.tokens
        in_test = member.name.startswith("test") or "Test" in member.annotations
        enclosing = stack[-1].name if stack else None

        locals_map: dict[str, str] = {}
        param_types = {p.name: _simple(p.type_name) for p in member.params}
        loop_stack: list[int] = []
        do_while_skips: set[int] = set()
        # Receivers of this.x / super.x chains; their accesses go last.
        self_forms = {"this": ("instanceExpr", enclosing), "super": ("implicit", None)}
        self_accesses: list[AccessFact] = []
        accesses = facts.accesses

        def resolve_receiver(name: str) -> tuple[str, str | None]:
            if name in locals_map:
                return "instanceExpr", locals_map[name] or None
            if name in param_types:
                return "instanceExpr", param_types[name]
            if name in field_types:
                return "instanceExpr", field_types[name] or None
            if name in class_names:
                return "className", name
            if name[:1].isupper():
                return "className", name
            return "instanceExpr", None

        # Before `quiet` lies a catch or declaration head: this./super. only.
        i = quiet = open_idx + 1
        while i < close_idx:
            tok = toks[i]
            v = tok.value
            kind = tok.kind
            prev_v = toks[i - 1].value

            if v in self_forms and prev_v not in (".", "::") and \
                    toks[i + 1].value == "." and toks[i + 2].kind == "ident":
                i = self._walk_chain(self_accesses, i + 2, close_idx,
                                     *self_forms[v]) + 1
                continue
            if i < quiet:
                i += 1
                continue
            while loop_stack and i > loop_stack[-1]:
                loop_stack.pop()

            if kind == "keyword":
                if v in ("for", "while", "do") and i not in do_while_skips:
                    end = self._stmt_end(i, close_idx)
                    facts.loops.append(
                        LoopFact(line=tok.line, end_line=toks[end].line, kind=v)
                    )
                    loop_stack.append(end)
                    if v == "do":
                        body_end = self._stmt_end(i + 1, close_idx)
                        if body_end + 1 <= close_idx and \
                                toks[body_end + 1].value == "while":
                            do_while_skips.add(body_end + 1)
                    i += 1
                    continue
                if v == "catch":
                    quiet = self._scan_catch(i, close_idx, facts, in_test)
                    i += 1
                    continue

            if kind == "keyword" or (kind == "ident" and prev_v in _LOCAL_DECL_PREV):
                local = self._try_local_decl(i, close_idx)
                if local is not None:
                    names, base, quiet = local
                    for name_tok in names:
                        locals_map[name_tok.value] = _simple(base)
                        facts.local_vars.append(
                            LocalVarFact(name=name_tok.value,
                                         type_name=_simple(base),
                                         line=name_tok.line)
                        )
                    i += 1
                    continue

            if kind == "ident" and prev_v not in (".", "::"):
                nxt_v = toks[i + 1].value
                if nxt_v in (".", "::") and i + 2 <= close_idx and \
                        toks[i + 2].kind == "ident":
                    form, rtype = resolve_receiver(v)
                    i = self._walk_chain(accesses, i + 2, close_idx, form, rtype) + 1
                    continue
                if nxt_v == "(" and prev_v != "new":
                    accesses.append(
                        AccessFact(line=tok.line, member_name=v,
                                   receiver_form="implicit", receiver_type=None,
                                   is_call=True)
                    )

            elif kind == "op":
                if v == "+=" and loop_stack:
                    prev = toks[i - 1]
                    if prev.kind == "ident":
                        facts.concat_sites.append(
                            ConcatSiteFact(line=tok.line, target=prev.value)
                        )
                elif v == "=" and loop_stack:
                    prev = toks[i - 1]
                    n1 = toks[i + 1]
                    if (
                        prev.kind == "ident"
                        and n1.kind == "ident" and n1.value == prev.value
                        and i + 2 <= close_idx and toks[i + 2].value == "+"
                    ):
                        facts.concat_sites.append(
                            ConcatSiteFact(line=tok.line, target=prev.value)
                        )
                elif v == ")" and i + 2 <= close_idx and \
                        toks[i + 1].value == "." and toks[i + 2].kind == "ident":
                    rtype = None
                    open_paren = self.partner[i]  # -1 when unmatched
                    if open_paren - 1 > open_idx:
                        callee = toks[open_paren - 1]
                        before_v = toks[open_paren - 2].value \
                            if open_paren - 2 > open_idx else ""
                        if callee.kind == "ident" and before_v not in (".", "::"):
                            rtype = method_returns.get(callee.value)
                    i = self._walk_chain(accesses, i + 2, close_idx,
                                         "methodReturn", rtype) + 1
                    continue

            i += 1
        accesses.extend(self_accesses)

        if facts.local_vars:
            occurrences = Counter(tok.value for tok in toks[open_idx + 1:close_idx]
                                  if tok.kind == "ident")
            occurrences.subtract(lv.name for lv in facts.local_vars)
            for lv in facts.local_vars:
                lv.used = occurrences[lv.name] > 0

    def _walk_chain(self, out: list[AccessFact], j: int, close_idx: int,
                    form: str, rtype: str | None) -> int:
        """Append to out the member accesses along a dotted chain starting
        at the member token j. Stops after a call so the `).member` rule
        can resume with methodReturn form. Returns last consumed index."""
        toks = self.tokens
        while True:
            mem = toks[j]
            is_call = j + 1 <= close_idx and toks[j + 1].value == "("
            out.append(
                AccessFact(line=mem.line, member_name=mem.value,
                           receiver_form=form, receiver_type=rtype,
                           is_call=is_call)
            )
            if is_call:
                return j
            if (
                j + 2 <= close_idx
                and toks[j + 1].value in (".", "::")
                and toks[j + 2].kind == "ident"
            ):
                form, rtype = "instanceExpr", None
                j += 2
                continue
            return j

    def _scan_catch(self, i: int, close_idx: int, facts: BodyFacts,
                    in_test: bool) -> int:
        toks = self.tokens
        catch_tok = toks[i]
        j = i + 1
        if j > close_idx or toks[j].value != "(":
            return i + 1
        close_paren = self._matching_close(j)
        var = ""
        k = close_paren - 1
        while k > j:
            if toks[k].kind == "ident":
                var = toks[k].value
                break
            k -= 1
        bopen = close_paren + 1
        if bopen > close_idx or toks[bopen].value != "{":
            return close_paren + 1
        bclose = self._matching_close(bopen)
        body_empty = bclose == bopen + 1
        # A comment lies inside the braces when the next token after it
        # is past the `{` and no later than the `}`.
        after = bisect_right(self.comment_next, bopen)
        has_comment = (after < len(self.comment_next)
                       and self.comment_next[after] <= bclose)
        facts.catches.append(
            CatchFact(line=catch_tok.line, exception_var=var,
                      body_empty=body_empty, has_comment=has_comment,
                      in_test_method=in_test)
        )
        return bopen + 1

    def _matching_close(self, i: int) -> int:
        tok = self.tokens[i]
        if tok.value not in ("(", "[", "{"):
            raise JavaSyntaxError(f"expected a bracket, found {tok.value!r}",
                                  tok.line, tok.col)
        if self.partner[i] < 0:
            raise JavaSyntaxError("unbalanced delimiter", tok.line, tok.col)
        return self.partner[i]

    def _stmt_end(self, i: int, limit: int) -> int:
        """Index of the last token of the statement starting at i.

        Walks down through loop heads, `if` conditions and `do` keywords
        with an explicit stack of the `if`s and `do`s whose inner statement
        is pending, then climbs back up through their `else` branches and
        `while` tails. Every statement start passed on the way is recorded
        with its end, so nested loops cost one walk, not one each.
        """
        toks = self.tokens
        ends = self.stmt_ends
        starts: list[int] = []  # statements ending where the current one does
        pending: list[tuple[str, list[int]]] = []  # ("if"|"do", outer starts)
        while True:
            end = ends.get(i)
            if end is None:
                v = toks[i].value
                if v not in ("for", "while", "if", "do"):
                    end = self._simple_stmt_end(i, limit)
                else:
                    starts.append(i)
                    i = i + 1 if v == "do" else self._matching_close(i + 1) + 1
                    if v in ("if", "do"):
                        pending.append((v, starts))
                        starts = []
                    continue
            while True:
                for start in starts:
                    ends[start] = end
                if not pending:
                    return end
                what, starts = pending.pop()
                j = end + 1
                if what == "if":
                    if j <= limit and toks[j].value == "else":
                        i = j + 1  # the else branch ends the if statement
                        break
                elif j <= limit and toks[j].value == "while":
                    close = self._matching_close(j + 1)
                    if close + 1 <= limit and toks[close + 1].value == ";":
                        end = close + 1
                    else:
                        end = close

    def _simple_stmt_end(self, i: int, limit: int) -> int:
        """End of a statement that is not a loop, `if` or `do`."""
        toks = self.tokens
        v = toks[i].value
        if v == "{":
            return self._matching_close(i)
        if v in ("switch", "synchronized"):
            close = self._matching_close(i + 1)
            return self._matching_close(close + 1)
        if v == "try":
            j = i + 1
            if toks[j].value == "(":
                j = self._matching_close(j) + 1
            end = self._matching_close(j)
            j = end + 1
            while j <= limit and toks[j].value in ("catch", "finally"):
                if toks[j].value == "catch":
                    j = self._matching_close(j + 1) + 1
                else:
                    j += 1
                end = self._matching_close(j)
                j = end + 1
            return end
        # plain statement: first ; at depth zero
        depth = 0
        j = i
        while j <= limit:
            val = toks[j].value
            if val in ("(", "[", "{"):
                depth += 1
            elif val in (")", "]", "}"):
                if depth == 0:
                    return j - 1  # ran into the enclosing close
                depth -= 1
            elif val == ";" and depth == 0:
                return j
            j += 1
        return limit

    def _try_local_decl(
        self, i: int, limit: int
    ) -> tuple[list[Token], str, int] | None:
        """Trial-parse a local variable declaration at token i.

        Returns (declarator name tokens, base type, resume index) where
        the resume index points at the token after the last declarator
        name (so initializer expressions still get scanned), or None.
        """
        toks = self.tokens
        j = i
        if toks[j].value == "final":
            j += 1
        tok = toks[j]
        if tok.kind == "keyword" and tok.value in _PRIMITIVES and tok.value != "void":
            base = tok.value
            j += 1
        elif tok.value == "var" and tok.kind in ("ident", "keyword"):
            base = "var"
            j += 1
        elif tok.kind == "ident":
            base = tok.value
            j += 1
            while (
                j + 1 <= limit
                and toks[j].value == "."
                and toks[j + 1].kind == "ident"
            ):
                base += "." + toks[j + 1].value
                j += 2
            if j <= limit and toks[j].value == "<":
                closed = self._skip_angles_at(j, limit)
                if closed is None:
                    return None
                j = closed + 1
        else:
            return None
        dims_end = self._dims_end(j, limit)
        base += "[]" * ((dims_end - j) // 2)
        j = dims_end
        if j > limit or toks[j].kind != "ident":
            return None
        names = [toks[j]]
        j = self._dims_end(j + 1, limit)
        if j > limit or toks[j].value not in ("=", ";", ",", ":"):
            return None
        resume = j
        # Walk the declarator list for additional names; generic-argument
        # commas are filtered by the declarator lookahead.
        depth = 0
        k = j
        while k <= limit:
            val = toks[k].value
            if val in ("(", "[", "{"):
                depth += 1
            elif val in (")", "]", "}"):
                if depth == 0:
                    break
                depth -= 1
            elif val in (";", ":") and depth == 0:
                break
            elif val == "," and depth == 0 and self._declarator_ahead(k + 1, limit):
                names.append(toks[k + 1])
                k += 1
            k += 1
        return names, base, resume

    def _declarator_ahead(self, j: int, limit: int) -> bool:
        toks = self.tokens
        if toks[j].kind != "ident":
            return False
        j = self._dims_end(j + 1, limit)
        return j <= limit and toks[j].value in ("=", ",", ";")

    def _skip_angles_at(self, i: int, limit: int) -> int | None:
        """Balanced <...> skip by index; None when it does not close."""
        depth = 0
        j = i
        while j <= limit:
            v = self.tokens[j].value
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
            elif v == ">>":
                depth -= 2
            elif v == ">>>":
                depth -= 3
            elif v in (";", "{"):
                return None
            if depth <= 0:
                return j
            j += 1
        return None
