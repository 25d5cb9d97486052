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

from collections import Counter

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


def _simple(type_name: str) -> str:
    return type_name.rsplit(".", 1)[-1]


def parse_compilation_unit(text: str, path: str) -> SourceFileModel:
    """Parse one Java file into a SourceFileModel.

    Raises JavaSyntaxError (with line/col) on text outside the supported
    subset; callers skip the file and report the error.
    """
    return _Parser(text, path).parse()


class _Parser:
    def __init__(self, text: str, path: str) -> None:
        self.path = path
        self.tokens, self.comments = tokenize(text)
        self.pos = 0
        self.line_count = sum(1 for ln in text.split("\n") if ln.strip())
        self.doc_by_next: dict[int, object] = {}
        for com in self.comments:
            if com.is_javadoc:
                self.doc_by_next[com.next_token_index] = com
        # Token-index ranges of package/import statements, excluded from
        # identifier-occurrence counting.
        self.excluded: list[tuple[int, int]] = []
        # (member, enclosing type stack, open brace idx, close brace idx)
        self.body_jobs: list[tuple[MemberFact, tuple[TypeFact, ...], int, int]] = []
        self.type_stack: list[TypeFact] = []

    # ------------------------------------------------------------------
    # token plumbing

    def peek(self, off: int = 0) -> Token | None:
        idx = self.pos + off
        return self.tokens[idx] if idx < len(self.tokens) else None

    def pop(self) -> Token:
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of file")
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.value == value

    def match(self, value: str) -> bool:
        if self.at(value):
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> Token:
        tok = self.peek()
        if tok is None or tok.value != value:
            self.fail(f"expected '{value}'")
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "ident":
            self.fail("expected identifier")
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.peek() or (self.tokens[-1] if self.tokens else None)
        if tok is None:
            raise JavaSyntaxError(message, 1, 1)
        raise JavaSyntaxError(message, tok.line, tok.col)

    def skip_balanced(self, open_val: str, close_val: str) -> tuple[int, int]:
        """Skip from the current open token to its matching close.

        Returns (open index, close index).
        """
        open_idx = self.pos
        self.expect(open_val)
        depth = 1
        while depth:
            tok = self.pop()
            if tok.value == open_val:
                depth += 1
            elif tok.value == close_val:
                depth -= 1
        return open_idx, self.pos - 1

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
        while self.peek() is not None:
            tok = self.peek()
            assert tok is not None
            if tok.value == ";":
                self.pop()
            elif tok.value == "package" and model.package is None:
                start = self.pos
                self.pop()
                model.package = self.dotted_name()
                self.expect(";")
                model.package_line = tok.line
                self.excluded.append((start, self.pos - 1))
            elif tok.value == "import":
                start = self.pos
                model.imports.append(self.parse_import())
                self.excluded.append((start, self.pos - 1))
            elif tok.value == "module" or (
                tok.value == "open"
                and self.peek(1) is not None
                and self.peek(1).value == "module"
            ):
                while self.peek() is not None and not self.at("{"):
                    self.pop()
                self.skip_balanced("{", "}")
            else:
                kind, result = self.parse_declaration(None, None)
                if kind != "type":
                    self.fail("expected type declaration")
                model.types.append(result)

        self.finish(model)
        return model

    def dotted_name(self) -> str:
        parts = [self.expect_ident().value]
        while self.at(".") and self.peek(1) is not None and self.peek(1).kind == "ident":
            self.pop()
            parts.append(self.pop().value)
        return ".".join(parts)

    def parse_import(self) -> ImportFact:
        tok = self.expect("import")
        is_static = self.match("static")
        parts = [self.expect_ident().value]
        is_wildcard = False
        while self.match("."):
            if self.match("*"):
                is_wildcard = True
                break
            parts.append(self.expect_ident().value)
        self.expect(";")
        target = ".".join(parts) + (".*" if is_wildcard else "")
        return ImportFact(target=target, line=tok.line, is_static=is_static,
                          is_wildcard=is_wildcard)

    # ------------------------------------------------------------------
    # declarations

    def parse_declaration(
        self, container_name: str | None, container_kind: str | None
    ) -> tuple[str, object]:
        """Parse one type or member declaration.

        Returns ("type", TypeFact), ("member", [MemberFact, ...]) or
        ("none", None) for initializer blocks.
        """
        start_idx = self.pos
        doc = self.doc_by_next.get(start_idx)
        annotations: list[str] = []
        mods: set[str] = set()
        ann_type = False
        while True:
            tok = self.peek()
            if tok is None:
                self.fail("unexpected end of file")
            if tok.value == "@":
                nxt = self.peek(1)
                if nxt is not None and nxt.value == "interface":
                    self.pop()
                    ann_type = True
                    break
                annotations.append(self.parse_annotation())
            elif tok.value in _MODIFIER_WORDS:
                mods.add(tok.value)
                self.pop()
            elif (
                tok.value == "non"
                and self.peek(1) is not None and self.peek(1).value == "-"
                and self.peek(2) is not None and self.peek(2).value == "sealed"
            ):
                self.pop(); self.pop(); self.pop()
            else:
                break

        javadoc = None
        if doc is not None:
            javadoc = extract_javadoc(doc.text, doc.line)

        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of file")
        is_record = (
            tok.value == "record"
            and self.peek(1) is not None and self.peek(1).kind == "ident"
            and self.peek(2) is not None and self.peek(2).value == "("
        )
        if ann_type or tok.value in ("class", "enum", "interface") or is_record:
            tf = self.parse_type_tail(
                "annotation" if ann_type else tok.value,
                annotations, mods, javadoc, container_kind,
            )
            if container_name is None:
                return "type", tf
            member = MemberFact(
                kind="innerType",
                name=tf.name,
                visibility=tf.visibility,
                line=tf.line,
                annotations=annotations,
                nested=tf,
            )
            return "member", [member]

        if container_name is None:
            self.fail("expected type declaration")
        return "member", self.parse_member_tail(
            annotations, mods, javadoc, container_name, container_kind
        )

    def parse_annotation(self) -> str:
        self.expect("@")
        name = self.dotted_name()
        if self.at("("):
            self.skip_balanced("(", ")")
        return _simple(name)

    def parse_type_tail(
        self,
        kind: str,
        annotations: list[str],
        mods: set[str],
        javadoc: JavadocFact | None,
        container_kind: str | None,
    ) -> TypeFact:
        self.pop()  # class/enum/interface/record/interface-after-@
        name_tok = self.expect_ident()
        if self.at("<"):
            self.skip_angles()
        if kind == "record" and self.at("("):
            self.skip_balanced("(", ")")  # components carry no facts

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
            self.skip_balanced("{", "}")  # permissive, no facts
            return tf

        self.type_stack.append(tf)
        self.expect("{")
        if kind == "enum":
            self.parse_enum_constants()
        while not self.at("}"):
            if self.peek() is None:
                self.fail("unexpected end of file")
            if self.match(";"):
                continue
            what, result = self.parse_declaration(tf.name, tf.kind)
            if what == "member":
                tf.members.extend(result)
            elif what == "type":  # pragma: no cover - defensive
                self.fail("unexpected nested declaration")
        self.expect("}")
        self.type_stack.pop()
        return tf

    def parse_enum_constants(self) -> None:
        while True:
            if self.at(";"):
                self.pop()
                return
            if self.at("}"):
                return
            while self.at("@"):
                self.parse_annotation()
            self.expect_ident()
            if self.at("("):
                self.skip_balanced("(", ")")
            if self.at("{"):
                self.skip_balanced("{", "}")
            if not self.match(","):
                if self.match(";"):
                    return
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
            self.skip_balanced("{", "}")
            return []
        if self.at("<"):
            self.skip_angles()

        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of file")

        # Constructor: TypeName followed directly by (
        if (
            tok.kind == "ident"
            and tok.value == container_name
            and self.peek(1) is not None
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
                body=BodyFacts(),
            )
            open_idx, close_idx = self.skip_balanced("{", "}")
            self.body_jobs.append((member, tuple(self.type_stack), open_idx, close_idx))
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
        while self.at("[") and self.peek(1) is not None and self.peek(1).value == "]":
            self.pop(); self.pop()
            if rtype is not None:
                rtype += "[]"
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
            member.body = BodyFacts()
            open_idx, close_idx = self.skip_balanced("{", "}")
            self.body_jobs.append((member, tuple(self.type_stack), open_idx, close_idx))
        elif self.match("default"):
            # annotation-member default; unreachable here but permissive
            while not self.at(";"):
                self.pop()
            self.expect(";")
        else:
            self.expect(";")
        return member

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
                while self.at("[") and self.peek(1) is not None and \
                        self.peek(1).value == "]":
                    self.pop(); self.pop()
                    ptype += "[]"
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
            dtype = ftype
            while self.at("[") and self.peek(1) is not None and \
                    self.peek(1).value == "]":
                self.pop(); self.pop()
                dtype += "[]"
            members.append(
                MemberFact(
                    kind="staticField" if is_static else "instanceField",
                    name=name_tok.value,
                    visibility=self._visibility(mods, container_kind),
                    line=name_tok.line,
                    is_final=is_final,
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
            if tok is None:
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
            elif depth == 0 and v == "," and self._declarator_follows():
                return
            self.pop()

    def _declarator_follows(self) -> bool:
        """After a comma: ident, optional [] pairs, then = , or ; ."""
        j = self.pos + 1
        tok = self.tokens[j] if j < len(self.tokens) else None
        if tok is None or tok.kind != "ident":
            return False
        j += 1
        while (
            j + 1 < len(self.tokens)
            and self.tokens[j].value == "["
            and self.tokens[j + 1].value == "]"
        ):
            j += 2
        return j < len(self.tokens) and self.tokens[j].value in ("=", ",", ";")

    def parse_type_ref(self) -> str:
        while self.at("@"):
            self.parse_annotation()
        tok = self.peek()
        if tok is None:
            self.fail("expected type")
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
                if (
                    self.at(".")
                    and self.peek(1) is not None
                    and self.peek(1).kind == "ident"
                ):
                    self.pop()
                    base += "." + self.pop().value
                else:
                    break
        else:
            self.fail("expected type")
            raise AssertionError  # unreachable
        while self.at("[") and self.peek(1) is not None and \
                self.peek(1).value == "]":
            self.pop(); self.pop()
            base += "[]"
        return base

    @staticmethod
    def _visibility(mods: set[str], container_kind: str | None) -> str:
        for v in ("public", "protected", "private"):
            if v in mods:
                return v
        return "public" if container_kind == "interface" else "package"

    # ------------------------------------------------------------------
    # body scanning (phase two)

    def finish(self, model: SourceFileModel) -> None:
        method_returns = self._file_method_returns(model)
        field_types_by_type: dict[int, dict[str, str]] = {}
        for tf in model.all_types():
            field_types_by_type[id(tf)] = {
                m.name: _simple(m.return_type or "")
                for m in tf.members
                if m.kind in ("instanceField", "staticField")
            }
        file_type_names = {tf.name for tf in model.all_types()}
        import_names = {
            imp.simple_name for imp in model.imports if not imp.is_wildcard
        }

        for member, stack, open_idx, close_idx in self.body_jobs:
            fields: dict[str, str] = {}
            for tf in stack:  # inner shadows outer
                fields.update(field_types_by_type[id(tf)])
            self._scan_body(
                member, stack, open_idx, close_idx, fields,
                file_type_names, import_names, method_returns,
            )

        # Identifier occurrences outside comments and package/import lines.
        excluded_idx: set[int] = set()
        for lo, hi in self.excluded:
            excluded_idx.update(range(lo, hi + 1))
        counts: Counter[str] = Counter()
        for idx, tok in enumerate(self.tokens):
            if tok.kind == "ident" and idx not in excluded_idx:
                counts[tok.value] += 1
        model.ident_counts = dict(counts)

        for imp in model.imports:
            imp.used = imp.is_wildcard or counts.get(imp.simple_name, 0) > 0

        model.comments = [
            CommentFact(line=c.line, end_line=c.end_line, text=c.text,
                        is_javadoc=c.is_javadoc)
            for c in self.comments
        ]
        model.line_count = self.line_count

    def _file_method_returns(self, model: SourceFileModel) -> dict[str, str]:
        seen: dict[str, set[str]] = {}
        for tf in model.all_types():
            for m in tf.members:
                if m.kind in ("instanceMethod", "staticMethod") and m.return_type:
                    seen.setdefault(m.name, set()).add(_simple(m.return_type))
        return {n: next(iter(s)) for n, s in seen.items() if len(s) == 1}

    def _scan_body(
        self,
        member: MemberFact,
        stack: tuple[TypeFact, ...],
        open_idx: int,
        close_idx: int,
        field_types: dict[str, str],
        file_type_names: set[str],
        import_names: set[str],
        method_returns: dict[str, str],
    ) -> None:
        facts = member.body
        assert facts is not None
        toks = self.tokens
        in_test = member.name.startswith("test") or "Test" in member.annotations
        enclosing = stack[-1].name if stack else None

        locals_map: dict[str, str] = {}
        decl_counts: Counter[str] = Counter()
        param_types = {p.name: _simple(p.type_name) for p in member.params}
        loop_stack: list[int] = []
        do_while_skips: set[int] = set()

        def resolve_receiver(name: str) -> tuple[str, str | None]:
            if name in locals_map:
                return "instanceExpr", locals_map[name] or None
            if name in param_types:
                return "instanceExpr", param_types[name]
            if name in field_types:
                return "instanceExpr", field_types[name] or None
            if name in file_type_names or name in import_names:
                return "className", name
            if name[:1].isupper():
                return "className", name
            return "instanceExpr", None

        def walk_chain(j: int, form: str, rtype: str | None) -> int:
            """Record member accesses along a dotted chain starting at the
            member token j. Stops after a call so the `).member` rule can
            resume with methodReturn form. Returns last consumed index."""
            while True:
                mem = toks[j]
                is_call = j + 1 <= close_idx and toks[j + 1].value == "("
                facts.accesses.append(
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

        i = open_idx + 1
        while i < close_idx:
            while loop_stack and i > loop_stack[-1]:
                loop_stack.pop()
            tok = toks[i]
            v = tok.value

            if tok.kind == "keyword":
                if v in ("for", "while") and i not in do_while_skips:
                    end = self._stmt_end(i, close_idx)
                    facts.loops.append(
                        LoopFact(line=tok.line, end_line=toks[end].line, kind=v)
                    )
                    loop_stack.append(end)
                elif v == "do":
                    end = self._stmt_end(i, close_idx)
                    facts.loops.append(
                        LoopFact(line=tok.line, end_line=toks[end].line, kind="do")
                    )
                    loop_stack.append(end)
                    body_end = self._stmt_end(i + 1, close_idx)
                    if body_end + 1 <= close_idx and \
                            toks[body_end + 1].value == "while":
                        do_while_skips.add(body_end + 1)
                elif v == "catch":
                    i = self._scan_catch(i, close_idx, facts, in_test)
                    continue
                else:
                    local = self._try_local_decl(i, close_idx)
                    if local is not None:
                        names, base, resume = local
                        for name_tok2 in names:
                            decl_counts[name_tok2.value] += 1
                            locals_map[name_tok2.value] = _simple(base)
                            facts.local_vars.append(
                                LocalVarFact(name=name_tok2.value,
                                             type_name=_simple(base),
                                             line=name_tok2.line)
                            )
                        i = resume
                        continue
                i += 1
                continue

            if tok.kind == "ident":
                prev = toks[i - 1] if i > open_idx else None
                nxt = toks[i + 1] if i + 1 < close_idx + 1 else None
                prev_v = prev.value if prev is not None else ""
                if prev_v in (".", "::"):
                    i += 1
                    continue
                local = None
                if prev is None or prev_v in _LOCAL_DECL_PREV:
                    local = self._try_local_decl(i, close_idx)
                if local is not None:
                    names, base, resume = local
                    for name_tok2 in names:
                        decl_counts[name_tok2.value] += 1
                        locals_map[name_tok2.value] = _simple(base)
                        facts.local_vars.append(
                            LocalVarFact(name=name_tok2.value,
                                         type_name=_simple(base),
                                         line=name_tok2.line)
                        )
                    i = resume
                    continue
                if nxt is not None and nxt.value in (".", "::") and \
                        i + 2 <= close_idx and toks[i + 2].kind == "ident":
                    form, rtype = resolve_receiver(tok.value)
                    i = walk_chain(i + 2, form, rtype) + 1
                    continue
                if nxt is not None and nxt.value == "(" and prev_v != "new":
                    facts.accesses.append(
                        AccessFact(line=tok.line, member_name=tok.value,
                                   receiver_form="implicit", receiver_type=None,
                                   is_call=True)
                    )
                i += 1
                continue

            if tok.kind == "op":
                if v == "+=" and loop_stack:
                    prev = toks[i - 1]
                    if prev.kind == "ident":
                        facts.concat_sites.append(
                            ConcatSiteFact(line=tok.line, target=prev.value)
                        )
                elif v == "=" and loop_stack:
                    prev = toks[i - 1]
                    n1 = toks[i + 1] if i + 1 <= close_idx else None
                    n2 = toks[i + 2] if i + 2 <= close_idx else None
                    if (
                        prev.kind == "ident"
                        and n1 is not None and n1.kind == "ident"
                        and n1.value == prev.value
                        and n2 is not None and n2.value == "+"
                    ):
                        facts.concat_sites.append(
                            ConcatSiteFact(line=tok.line, target=prev.value)
                        )
                elif v == ")" and i + 2 <= close_idx and \
                        toks[i + 1].value == "." and toks[i + 2].kind == "ident":
                    rtype = None
                    open_paren = self._matching_open(i)
                    if open_paren is not None and open_paren - 1 > open_idx:
                        callee = toks[open_paren - 1]
                        before = toks[open_paren - 2] if open_paren - 2 > open_idx \
                            else None
                        if callee.kind == "ident" and (
                            before is None or before.value not in (".", "::")
                        ):
                            rtype = method_returns.get(callee.value)
                    i = walk_chain(i + 2, "methodReturn", rtype) + 1
                    continue

            i += 1

        # this.x / super.x accesses: the keyword head is skipped by the
        # ident rules above, so pick them up in one extra pass.
        i = open_idx + 1
        while i < close_idx - 1:
            tok = toks[i]
            if tok.kind == "keyword" and tok.value in ("this", "super") and \
                    toks[i + 1].value == "." and toks[i + 2].kind == "ident":
                prev_v = toks[i - 1].value if i - 1 > open_idx else ""
                if prev_v not in (".", "::"):
                    if tok.value == "this":
                        form, rtype = "instanceExpr", enclosing
                    else:
                        form, rtype = "implicit", None
                    i = self._walk_chain_static(
                        toks, facts, i + 2, form, rtype, close_idx
                    ) + 1
                    continue
            i += 1

        occurrences: Counter[str] = Counter()
        for j in range(open_idx + 1, close_idx):
            if toks[j].kind == "ident":
                occurrences[toks[j].value] += 1
        for lv in facts.local_vars:
            lv.used = occurrences.get(lv.name, 0) > decl_counts.get(lv.name, 0)

    def _walk_chain_static(self, toks, facts, j, form, rtype, close_idx):
        while True:
            mem = toks[j]
            is_call = j + 1 <= close_idx and toks[j + 1].value == "("
            facts.accesses.append(
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
        has_comment = self._comment_between(toks[bopen], toks[bclose])
        facts.catches.append(
            CatchFact(line=catch_tok.line, exception_var=var,
                      body_empty=body_empty, has_comment=has_comment,
                      in_test_method=in_test)
        )
        return bopen + 1

    def _comment_between(self, open_tok: Token, close_tok: Token) -> bool:
        lo = (open_tok.line, open_tok.col)
        hi = (close_tok.line, close_tok.col)
        for com in self.comments:
            if lo < (com.line, com.col) < hi:
                return True
        return False

    def _matching_close(self, i: int) -> int:
        open_val = self.tokens[i].value
        close_val = {"(": ")", "[": "]", "{": "}"}.get(open_val)
        if close_val is None:
            raise JavaSyntaxError(f"expected a bracket, found {open_val!r}",
                                  self.tokens[i].line, self.tokens[i].col)
        depth = 1
        j = i + 1
        while j < len(self.tokens):
            v = self.tokens[j].value
            if v == open_val:
                depth += 1
            elif v == close_val:
                depth -= 1
                if depth == 0:
                    return j
            j += 1
        raise JavaSyntaxError("unbalanced delimiter",
                              self.tokens[i].line, self.tokens[i].col)

    def _matching_open(self, i: int) -> int | None:
        close_val = self.tokens[i].value
        open_val = {")": "(", "]": "[", "}": "{"}[close_val]
        depth = 1
        j = i - 1
        while j >= 0:
            v = self.tokens[j].value
            if v == close_val:
                depth += 1
            elif v == open_val:
                depth -= 1
                if depth == 0:
                    return j
            j -= 1
        return None

    def _stmt_end(self, i: int, limit: int) -> int:
        """Index of the last token of the statement starting at i."""
        toks = self.tokens
        v = toks[i].value
        if v == "{":
            return self._matching_close(i)
        if v == "if":
            close = self._matching_close(i + 1)
            end = self._stmt_end(close + 1, limit)
            if end + 1 <= limit and toks[end + 1].value == "else":
                return self._stmt_end(end + 2, limit)
            return end
        if v in ("for", "while"):
            close = self._matching_close(i + 1)
            return self._stmt_end(close + 1, limit)
        if v == "do":
            body_end = self._stmt_end(i + 1, limit)
            j = body_end + 1
            if j <= limit and toks[j].value == "while":
                close = self._matching_close(j + 1)
                if close + 1 <= limit and toks[close + 1].value == ";":
                    return close + 1
                return close
            return body_end
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
        while j + 1 <= limit and toks[j].value == "[" and toks[j + 1].value == "]":
            base += "[]"
            j += 2
        if j > limit or toks[j].kind != "ident":
            return None
        names = [toks[j]]
        j += 1
        while j + 1 <= limit and toks[j].value == "[" and toks[j + 1].value == "]":
            j += 2
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
            elif val == "," and depth == 0:
                if (
                    k + 1 <= limit
                    and toks[k + 1].kind == "ident"
                    and self._declarator_ahead(k + 1, limit)
                ):
                    names.append(toks[k + 1])
                    k += 1
            k += 1
        return names, base, resume

    def _declarator_ahead(self, j: int, limit: int) -> bool:
        toks = self.tokens
        if toks[j].kind != "ident":
            return False
        j += 1
        while j + 1 <= limit and toks[j].value == "[" and toks[j + 1].value == "]":
            j += 2
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
