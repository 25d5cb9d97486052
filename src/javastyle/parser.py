"""Recursive-descent parser for the supported Java subset.

Two phases: a declaration pass builds the type/member skeleton and records
the token span of every method or constructor body; a second pass
(`_scan_bodies`) scans those spans for statement-level facts (catch
clauses, loops, string concatenation sites, member accesses, local
variables). It is one loop over the bodies that visits each token once,
dispatching on the token's kind, and then builds each member again, once,
with its facts.

Both passes read a construct with the same index-based scanners, which
step over (, [ and { groups through the lexer's bracket table:
`_type_at` reads a type reference, `_angles_end` finds the `>` that
closes a `<` (the one place that counts nesting), and `_stop_at` finds
the first stop token outside bracket pairs. The declaration pass calls
them through `parse_type_ref`, `skip_angles` and `skip_initializer`.

Supported: classes, enums, interfaces, records, nested types, generics
(parsed and ignored), annotations, all loop forms, try/catch/finally,
switch, lambdas. Module declarations, annotation-type bodies, record
headers, enum-constant bodies and initializer blocks are parsed
permissively and produce no facts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress
from typing import NoReturn

from .javadoc import extract_javadoc
from .lexer import (EOF, IDENT, KEYWORD, OP, JavaSyntaxError, is_javadoc,
                    line_col, tokenize)
from .model import (
    AccessRecord,
    BodyFacts,
    CatchFact,
    CommentFact,
    ConcatSiteFact,
    ImportFact,
    JavadocFact,
    LocalVarFact,
    MemberFact,
    ParamFact,
    SourceFileModel,
    TypeFact,
    simple_name_of,
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
# The tokens a local declaration with a class type can follow; a `(` only
# after `for` or `try`, and a `:` only where it ends a switch label.
_LOCAL_DECL_PREV = frozenset({";", "{", "}", "(", ":"})
# The tokens that end the walk back from a `:` to what it belongs to; a
# `?` or an earlier `:` stops it short of a `case` before them.
_COLON_OWNERS = frozenset({"case", "default", "?", ";", "{", "}", ":"})
# The keywords that can start a local declaration.
_DECL_START = _PRIMITIVES - {"void"} | {"var", "final"}
_OPENS = frozenset({"(", "[", "{"})
_CLOSES = frozenset({")", "]", "}"})
# The tokens that end a search for the `>` closing a `<`.
_ANGLE_STOPS = _CLOSES | {";", "{"}
# The tokens that end a statement, a field declarator and a local
# declarator, close brackets included (see `_stop_at`).
_STATEMENT_END = _CLOSES | {";"}
_FIELD_DECLARATOR_END = _STATEMENT_END | {","}
_LOCAL_DECLARATOR_END = _FIELD_DECLARATOR_END | {":"}
# The tokens a lambda can follow.
_LAMBDA_PREV = frozenset({"(", ",", "=", "return", "->", "?", ":", "{", ")"})
# Translates a token's kind code to 1 for an identifier, 0 for the rest.
_IDENTS = bytes(kind == IDENT for kind in range(256))
# The operators that can start a body fact; literals and the other
# operators start none.
_FACT_OPERATORS = frozenset({"+=", "=", ")"})
# Builds a named tuple from a tuple of all its fields, skipping the
# class's Python-level __new__, which costs as much again.
_new = tuple.__new__
# Deepest type nesting parsed; deeper files are skipped with a diagnostic
# instead of exhausting the interpreter's recursion limit.
MAX_TYPE_NESTING = 100


def parse_compilation_unit(text: str, path: str) -> SourceFileModel:
    """Parse one Java file into a SourceFileModel.

    Raises JavaSyntaxError (with line/col) on text outside the supported
    subset; callers skip the file and report the error.
    """
    return _Parser(text, path).parse()


class _Parser:
    def __init__(self, text: str, path: str) -> None:
        self.path = path
        # Parallel token lists, read by index; see lexer.Tokens. The
        # end-of-file sentinel sits at the last token's offset.
        (self.kinds, self.values, self.starts, self.partner, comments,
         self.newlines) = tokenize(text)
        self.starts.append(self.starts[-1] if self.starts else 0)
        self.kinds.append(EOF)
        self.values.append("")
        self.last = len(self.kinds) - 1  # the end-of-file sentinel
        self.pos = 0
        # Non-blank lines: neither empty nor all blanks.
        lines = text.split("\n")
        self.line_count = (len(lines) - lines.count("")
                           - sum(map(str.isspace, lines)))
        self.comments = [
            _new(CommentFact, (bisect_left(self.newlines, start) + 1, body,
                               is_javadoc(body)))
            for start, body, _ in comments]
        # Index of the token after each comment, in source order.
        self.comment_next = [after for _, _, after in comments]
        self.doc_by_next = {after: com for com, after
                            in zip(self.comments, self.comment_next)
                            if com.is_javadoc}
        # (member, enclosing type stack, the member's index in its type's
        # members, open brace idx, close brace idx)
        self.body_jobs: list[
            tuple[MemberFact, tuple[TypeFact, ...], int, int, int]] = []
        # The types around the current token, outermost first.
        self.type_stack: tuple[TypeFact, ...] = ()
        # Every type in declaration order, each before its nested ones.
        self.types: list[TypeFact] = []
        # Index of every identifier token that declares a name.
        self.declaring: list[int] = []
        # statement start -> index of its last token (bodies are disjoint)
        self.stmt_ends: dict[int, int] = {}

    # ------------------------------------------------------------------
    # token plumbing: positions are token indexes into the parallel lists;
    # a line or column is worked out from the token's offset only when a
    # fact or an error needs it.

    def line(self, i: int) -> int:
        return bisect_left(self.newlines, self.starts[i]) + 1

    def peek(self, off: int = 0) -> str:
        """Value of the token off ahead; the sentinel's past the end."""
        return self.values[min(self.pos + off, self.last)]

    def peek_kind(self, off: int = 0) -> int:
        return self.kinds[min(self.pos + off, self.last)]

    def peek_more(self) -> int:
        """The current token's index; fails at the end of the file."""
        if self.kinds[self.pos] == EOF:
            self.fail("unexpected end of file")
        return self.pos

    def pop(self) -> int:
        i = self.peek_more()
        self.pos += 1
        return i

    def at(self, value: str) -> bool:
        return self.values[self.pos] == value

    def match(self, value: str) -> bool:
        if self.values[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> int:
        if self.values[self.pos] != value:
            self.fail(f"expected '{value}'")
        self.pos += 1
        return self.pos - 1

    def expect_ident(self) -> int:
        if self.kinds[self.pos] != IDENT:
            self.fail("expected identifier")
        self.pos += 1
        return self.pos - 1

    def fail(self, message: str, i: int | None = None) -> NoReturn:
        """Raise at token i, by default the current one."""
        offset = self.starts[self.pos if i is None else i]
        raise JavaSyntaxError(message, *line_col(self.newlines, offset))

    def skip_balanced(self, open_val: str) -> tuple[int, int]:
        """Skip from the current open token past its matching close.

        Returns (open index, close index).
        """
        open_idx = self.pos
        self.expect(open_val)
        close_idx = self.partner.get(open_idx, -1)
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
        values = self.values
        while j + 1 <= limit and values[j] == "[" and values[j + 1] == "]":
            j += 2
        return j

    def skip_angles(self) -> None:
        """Skip the <...> region at the current token."""
        end = self._angles_end(self.pos, self.last)
        if end is None:
            self.fail("expected type")
        self.pos = end + 1

    def _angles_end(self, j: int, limit: int) -> int | None:
        """Index of the token that closes the `<` at token j, where `>>`
        and `>>>` close two and three; ( and [ pairs are stepped over.
        None when a `;`, `{` or close bracket comes first, or when
        nothing closes it up to limit."""
        values, partner = self.values, self.partner
        depth = 0
        while j <= limit:
            v = values[j]
            if v == "<":
                depth += 1
            elif v == ">" or v == ">>" or v == ">>>":
                depth -= len(v)
                if depth <= 0:
                    return j
            elif v == "(" or v == "[":
                j = partner.get(j, limit)
            elif v in _ANGLE_STOPS:
                return None
            j += 1
        return None

    def _type_at(self, j: int, limit: int) -> tuple[int, str] | None:
        """The type reference at token j: a primitive, `var`, or a dotted
        name with type arguments after any segment and type annotations
        before any segment but the first, then dims.

        Returns the index after it and its name, dims included and type
        arguments left out; None when no type starts or its type
        arguments do not close before limit.
        """
        kinds, values = self.kinds, self.values
        name = values[j]
        if name in _PRIMITIVES or name == "var":
            j += 1
        elif kinds[j] == IDENT:
            j += 1
            while True:
                if j <= limit and values[j] == "<":
                    end = self._angles_end(j, limit)
                    if end is None:
                        return None
                    j = end + 1
                if j + 1 > limit or values[j] != ".":
                    break
                k = j + 1
                if values[k] == "@":
                    k = self._annotations_end(k, limit)
                if k > limit or kinds[k] != IDENT:
                    break
                name += "." + values[k]
                j = k + 1
        else:
            return None
        if values[j] != "[":
            return j, name
        end = self._dims_end(j, limit)
        return end, name + "[]" * ((end - j) // 2)

    def _annotations_end(self, j: int, limit: int) -> int:
        """Index after the annotations (`@Name`, `@a.Name(...)`) that
        start at token j; j when none does."""
        kinds, values = self.kinds, self.values
        while j + 1 <= limit and values[j] == "@" and kinds[j + 1] == IDENT:
            j += 2
            while j + 1 <= limit and values[j] == "." and \
                    kinds[j + 1] == IDENT:
                j += 2
            if j <= limit and values[j] == "(":
                j = self.partner.get(j, limit) + 1
        return j

    def _stop_at(self, j: int, limit: int, stops: frozenset[str]) -> int:
        """Index of the first token from j to limit that is in stops, which
        hold the close brackets: one whose open lies before j. Bracket
        pairs are stepped over. limit + 1 when there is none."""
        values, partner = self.values, self.partner
        while j <= limit:
            v = values[j]
            if v in stops:
                return j
            if v in _OPENS:
                j = partner.get(j, limit)
            j += 1
        return limit + 1

    # ------------------------------------------------------------------
    # compilation unit

    def parse(self) -> SourceFileModel:
        package = package_line = None
        imports: list[tuple[str, int, bool, bool]] = []
        while self.kinds[self.pos] != EOF:
            v = self.values[self.pos]
            if v == ";":
                self.pop()
            elif v == "package" and package is None:
                package_line = self.line(self.pop())
                package = self.dotted_name()
                self.expect(";")
            elif v == "import":
                imports.append(self.parse_import())
            elif v == "module" or (v == "open" and self.peek(1) == "module"):
                while not self.at("{") and self.kinds[self.pos] != EOF:
                    self.pop()
                self.skip_balanced("{")
            else:
                self.parse_declaration(None, None)
        return self.finish(package, package_line, imports)

    def dotted_name(self) -> str:
        parts = [self.values[self.expect_ident()]]
        while self.at(".") and self.peek_kind(1) == IDENT:
            self.pop()
            parts.append(self.values[self.pop()])
        return ".".join(parts)

    def parse_import(self) -> tuple[str, int, bool, bool]:
        """(target, line, is_static, is_wildcard) of an import."""
        line = self.line(self.expect("import"))
        is_static = self.match("static")
        target = self.dotted_name()
        is_wildcard = self.match(".")
        if is_wildcard and not self.match("*"):
            self.fail("expected identifier")
        self.expect(";")
        return (target + (".*" if is_wildcard else ""), line, is_static,
                is_wildcard)

    # ------------------------------------------------------------------
    # declarations

    def parse_declaration(
        self, container_name: str | None, container_kind: str | None
    ) -> list[MemberFact]:
        """Parse one type or member declaration; a top-level one when
        container_name is None.

        Returns the declared members: none for a top-level type or an
        initializer block.
        """
        values = self.values
        doc = self.doc_by_next.get(self.pos)
        annotations: list[str] = []
        mods: set[str] = set()
        ann_type = False
        while True:
            v = values[self.pos]
            if v == "@":
                if values[self.pos + 1] == "interface":
                    self.pos += 1
                    ann_type = True
                    break
                annotations.append(self.parse_annotation())
            elif v in _MODIFIER_WORDS:
                mods.add(v)
                self.pos += 1
            elif v == "non" and self.peek(1) == "-" and self.peek(2) == "sealed":
                self.pos += 3
            else:
                break

        first = self.peek_more()
        v = values[first]
        javadoc = None
        if doc is not None:
            javadoc = extract_javadoc(doc.text, doc.line)
        visibility = self._visibility(mods, container_kind)

        is_record = (
            v == "record" and self.peek_kind(1) == IDENT and self.peek(2) == "("
        )
        if ann_type or v in ("class", "enum", "interface") or is_record:
            tf = self.parse_type_tail(
                "annotation" if ann_type else v, visibility, javadoc)
            if container_name is None:
                return []
            return [MemberFact("innerType", tf.name, visibility, tf.line,
                               annotations, [], [], nested=tf)]

        if container_name is None:
            self.fail("expected type declaration")
        if v == "{":  # instance or static initializer: no facts
            self.skip_balanced("{")
            return []
        if v == "<":
            self.skip_angles()
            first = self.peek_more()
        # Constructor: TypeName followed directly by (
        if (
            self.kinds[first] == IDENT
            and values[first] == container_name
            and values[first + 1] == "("
        ):
            self.pos += 1
            return [self.finish_callable(
                "constructor", first, None, annotations, visibility, javadoc)]

        rtype = self.parse_type_ref()

        # Compact record constructor: TypeName { ... }
        if values[self.pos] == "{" and rtype == container_name:
            self.declaring.append(first)
            member = MemberFact(
                "constructor", container_name, visibility, self.line(first),
                annotations, [], [], javadoc=javadoc)
            self.skip_body(member)
            return [member]

        name_idx = self.expect_ident()
        if values[self.pos] == "(":
            return [self.finish_callable(
                "staticMethod" if "static" in mods else "instanceMethod",
                name_idx, rtype, annotations, visibility, javadoc)]
        return self.finish_fields(name_idx, rtype, annotations, mods,
                                  visibility, javadoc, container_kind)

    def parse_annotation(self) -> str:
        self.expect("@")
        name = self.dotted_name()
        if self.at("("):
            self.skip_balanced("(")
        return simple_name_of(name)

    def parse_type_tail(self, kind: str, visibility: str,
                        javadoc: JavadocFact | None) -> TypeFact:
        if len(self.type_stack) >= MAX_TYPE_NESTING:
            self.fail("type nesting too deep")
        self.pop()  # class/enum/interface/record/interface-after-@
        name_idx = self.expect_ident()
        self.declaring.append(name_idx)
        if self.at("<"):
            self.skip_angles()
        if kind == "record" and self.at("("):
            self.skip_balanced("(")  # components carry no facts

        values = self.values
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
            name=self.values[name_idx],
            visibility=visibility,
            line=self.line(name_idx),
            supertypes=supertypes,
            members=[],
            javadoc=javadoc,
        )
        self.types.append(tf)

        if kind == "annotation":
            self.skip_balanced("{")  # permissive, no facts
            return tf

        outer = self.type_stack
        self.type_stack = outer + (tf,)
        self.expect("{")
        if kind == "enum":
            self.parse_enum_constants()
        members, name = tf.members, tf.name
        while (v := values[self.pos]) != "}":
            if v == ";":
                self.pos += 1
            else:
                members.extend(self.parse_declaration(name, kind))
        self.pos += 1
        self.type_stack = outer
        return tf

    def parse_enum_constants(self) -> None:
        while not (self.match(";") or self.at("}")):
            while self.at("@"):
                self.parse_annotation()
            self.declaring.append(self.expect_ident())
            if self.at("("):
                self.skip_balanced("(")
            if self.at("{"):
                self.skip_balanced("{")
            if not self.match(","):
                self.match(";")
                return

    def finish_callable(
        self,
        kind: str,
        name_idx: int,
        rtype: str | None,
        annotations: list[str],
        visibility: str,
        javadoc: JavadocFact | None,
    ) -> MemberFact:
        values = self.values
        self.declaring.append(name_idx)
        params = self.parse_params()
        if values[self.pos] == "[":
            dims = self.dims()
            if rtype is not None:
                rtype += dims
        thrown: list[str] = []
        if self.match("throws"):
            thrown.append(simple_name_of(self.parse_type_ref()))
            while self.match(","):
                thrown.append(simple_name_of(self.parse_type_ref()))
        member = _new(MemberFact, (
            kind, values[name_idx], visibility, self.line(name_idx),
            annotations, params, thrown, False, javadoc, rtype, None, None))
        if values[self.pos] == "{":
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
        """Skip a { body } now and queue it for the phase-two scan. The
        member is the next one its type's members will take."""
        open_idx, close_idx = self.skip_balanced("{")
        stack = self.type_stack
        self.body_jobs.append((member, stack, len(stack[-1].members),
                               open_idx, close_idx))

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
                name_idx = self.expect_ident()
                self.declaring.append(name_idx)
                ptype += self.dims()
                params.append(_new(ParamFact, (self.values[name_idx], ptype)))
            if self.match(","):
                continue
            self.expect(")")
            return params

    def finish_fields(
        self,
        name_idx: int,
        ftype: str,
        annotations: list[str],
        mods: set[str],
        visibility: str,
        javadoc: JavadocFact | None,
        container_kind: str | None,
    ) -> list[MemberFact]:
        # Interface fields are constants regardless of written modifiers.
        is_static = "static" in mods or container_kind == "interface"
        is_final = "final" in mods or container_kind == "interface"
        members: list[MemberFact] = []
        while True:
            self.declaring.append(name_idx)
            dtype = ftype + self.dims()
            members.append(_new(MemberFact, (
                "staticField" if is_static else "instanceField",
                self.values[name_idx], visibility, self.line(name_idx),
                annotations, [], [], is_static and is_final, javadoc, dtype,
                None, None)))
            if self.match("="):
                self.skip_initializer()
            if self.match(","):
                name_idx = self.expect_ident()
                continue
            self.expect(";")
            return members

    def skip_initializer(self) -> None:
        """Consume an initializer expression up to a declarator , or ; .

        Commas inside generic arguments lie outside bracket pairs, so a
        comma only ends the declarator when what follows looks like
        another declarator (ident, optional dims, then = , or ;).
        """
        values, last = self.values, self.last
        j = self._stop_at(self.pos, last, _FIELD_DECLARATOR_END)
        while j < last and values[j] == "," and \
                not self._declarator_ahead(j + 1, last):
            j = self._stop_at(j + 1, last, _FIELD_DECLARATOR_END)
        if j > last:
            self.fail("unexpected end of file in initializer", last)
        if values[j] in _CLOSES:
            self.fail("unbalanced initializer", j)
        self.pos = j

    def parse_type_ref(self) -> str:
        while self.values[self.pos] == "@":
            self.parse_annotation()
        found = self._type_at(self.pos, self.last)
        if found is None:
            self.fail("expected type")
        self.pos, name = found
        return name

    @staticmethod
    def _visibility(mods: set[str], container_kind: str | None) -> str:
        for v in ("public", "protected", "private"):
            if v in mods:
                return v
        return "public" if container_kind == "interface" else "package"

    # ------------------------------------------------------------------
    # body scanning (phase two)

    def finish(self, package: str | None, package_line: int | None,
               imports: list[tuple[str, int, bool, bool]]) -> SourceFileModel:
        # Receiver names that denote a class: the file's types, single imports.
        class_names = {simple_name_of(target)
                       for target, _, _, wildcard in imports if not wildcard}
        returns: dict[str, set[str]] = {}
        field_types_by_type: dict[int, dict[str, str]] = {}
        for tf in self.types:
            class_names.add(tf.name)
            field_types = field_types_by_type[id(tf)] = {}
            for m in tf.members:
                kind = m.kind
                if kind == "instanceField" or kind == "staticField":
                    field_types[m.name] = simple_name_of(m.return_type or "")
                elif (kind == "instanceMethod" or kind == "staticMethod") \
                        and m.return_type:
                    returns.setdefault(m.name, set()).add(
                        simple_name_of(m.return_type))
        method_returns = {n: next(iter(s)) for n, s in returns.items() if len(s) == 1}

        self._scan_bodies(field_types_by_type, class_names, method_returns)

        # Identifier occurrences outside comments and package/import lines.
        # The only identifiers in those lines are the parts of their names.
        counts = Counter(compress(self.values,
                                  bytes(self.kinds[:-1]).translate(_IDENTS)))
        for target, _, _, _ in imports:
            counts.subtract(target.removesuffix(".*").split("."))
        if package is not None:
            counts.subtract(package.split("."))
        import_facts = [
            ImportFact(target, line, is_static, is_wildcard,
                       is_wildcard or counts[simple_name_of(target)] > 0)
            for target, line, is_static, is_wildcard in imports]

        # A name's uses are its occurrences minus its declaring ones; a
        # typed lambda parameter may also have been taken for a local.
        self._declare_lambda_params()
        values = self.values
        for k in set(self.declaring):
            counts[values[k]] -= 1
        return SourceFileModel(
            self.path, package, package_line, import_facts, self.types,
            self.comments, self.line_count,
            {name: n for name, n in counts.items() if n > 0})

    def _declare_lambda_params(self) -> None:
        """Add the parameters of every lambda, in bodies and initializers
        alike, to the declaring identifiers.

        A lambda's parameters, `x` or `(a, b)` with optional types, follow
        a token that can start an expression, or a cast's `)`. A `->` after
        anything else ends a switch label or guard, which declares
        nothing; so does `x ->` after `case A,`.
        """
        kinds, values, declaring = self.kinds, self.values, self.declaring
        i = 0
        while True:
            try:
                i = values.index("->", i + 1)
            except ValueError:
                return
            if kinds[i] != OP:
                continue
            j = i - 1
            if kinds[j] == IDENT and values[j - 1] in _LAMBDA_PREV:
                while values[j - 1] in (",", ".") and kinds[j - 2] == IDENT:
                    j -= 2
                if values[j - 1] != "case":
                    declaring.append(i - 1)
            elif values[j] == ")" and \
                    values[self.partner.get(j, 0) - 1] in _LAMBDA_PREV:
                # Type and annotation arguments are stepped over.
                k = self.partner[j] + 1
                while k < j:
                    if values[k] == "<":
                        k = self._angles_end(k, j - 1)
                        if k is None:
                            break
                    elif values[k] == "(":
                        k = self.partner[k]
                    elif kinds[k] == IDENT and values[k + 1] in (",", ")"):
                        declaring.append(k)
                    k += 1

    def _scan_bodies(self, field_types_by_type: dict[int, dict[str, str]],
                     class_names: set[str],
                     method_returns: dict[str, str]) -> None:
        """Scan every queued body for its facts, and build its member
        again, once, with them: `body` and `nested` are a member's last
        fields, and a member with a body nests no type."""
        kinds, values, starts, newlines = (self.kinds, self.values,
                                           self.starts, self.newlines)
        try_local_decl, stmt_end = self._try_local_decl, self._stmt_end
        # The enclosing stack follows from its innermost type, so bodies of
        # one type share its merged, read-only field map.
        merged: dict[int, dict[str, str]] = {}
        do_while_skips: set[int] = set()  # the `while` ending each `do`
        for member, stack, index, open_idx, close_idx in self.body_jobs:
            owner = stack[-1]
            field_types = merged.get(id(owner))
            if field_types is None:
                field_types = merged[id(owner)] = {}
                for tf in stack:  # inner shadows outer
                    field_types.update(field_types_by_type[id(tf)])
            catches: list[CatchFact] = []
            loops = 0
            concat_sites: list[ConcatSiteFact] = []
            accesses: list[AccessRecord] = []
            declared: list[tuple[int, str]] = []  # (name index, type name)
            # Receiver types by name: the parameters, then each local as it
            # is declared, shadowing them; the fields are looked up last.
            # A parameter's type is cut to its simple name when read.
            scope = dict(member.params)
            loop_stack: list[int] = []
            # Only a chain's first link has a receiver whose type is known;
            # the scan steps over the later links. this.x accesses go last.
            this_accesses: list[AccessRecord] = []

            # Before `quiet` lies a catch or declaration head: this. accesses
            # only.
            quiet = open_idx + 1
            for i in range(quiet, close_idx):
                kind = kinds[i]
                if kind == OP:
                    if (v := values[i]) not in _FACT_OPERATORS or i < quiet:
                        pass
                    elif v == ")":
                        if i + 2 <= close_idx and values[i + 1] == "." and \
                                kinds[i + 2] == IDENT:
                            # A bare call whose name has one return type in
                            # the file.
                            callee = self.partner.get(i, -1) - 1  # -2: none
                            if callee > open_idx and kinds[callee] == IDENT \
                                    and values[callee - 1] not in (".", "::"):
                                rtype = method_returns.get(values[callee])
                                if rtype is not None:
                                    accesses.append(_new(AccessRecord, (
                                        bisect_left(newlines, starts[i + 2])
                                        + 1, values[i + 2], False, rtype)))
                    else:  # `+=` or `=`
                        # Loops that ended before i leave the stack only here.
                        while loop_stack and i > loop_stack[-1]:
                            loop_stack.pop()
                        prev_v = values[i - 1]
                        if loop_stack and kinds[i - 1] == IDENT and (
                            v == "+=" or (
                                kinds[i + 1] == IDENT and values[i + 1] == prev_v
                                and i + 2 <= close_idx and values[i + 2] == "+")):
                            concat_sites.append(_new(ConcatSiteFact, (
                                bisect_left(newlines, starts[i]) + 1, prev_v)))
                elif kind == IDENT:
                    prev_v = values[i - 1]
                    nxt_v = values[i + 1]
                    if i < quiet or prev_v == "." or prev_v == "::":
                        pass
                    elif prev_v in _LOCAL_DECL_PREV and (
                            kinds[i + 1] == IDENT or nxt_v in (".", "<", "[")
                    ) and (prev_v != "(" or values[i - 2] in ("for", "try")) \
                            and (prev_v != ":" or self._ends_label(i - 1)) \
                            and (resume := try_local_decl(
                                i, close_idx, scope, declared)):
                        quiet = resume
                    elif (nxt_v == "." or nxt_v == "::") and \
                            i + 2 <= close_idx and kinds[i + 2] == IDENT:
                        name = values[i]
                        rtype = scope.get(name)
                        if rtype is None:
                            rtype = field_types.get(name)
                        else:
                            rtype = simple_name_of(rtype)
                        through_class = rtype is None
                        if through_class and (name in class_names
                                              or name[:1].isupper()):
                            rtype = name
                        if rtype is not None:
                            accesses.append(_new(AccessRecord, (
                                bisect_left(newlines, starts[i + 2]) + 1,
                                values[i + 2], through_class, rtype)))
                elif kind == KEYWORD:
                    v = values[i]
                    if v == "this" and values[i - 1] not in (".", "::") and \
                            values[i + 1] == "." and kinds[i + 2] == IDENT:
                        this_accesses.append(_new(AccessRecord, (
                            bisect_left(newlines, starts[i + 2]) + 1,
                            values[i + 2], False, owner.name)))
                    elif i < quiet:
                        pass
                    elif v in ("for", "while", "do") and \
                            i not in do_while_skips:
                        loops += 1
                        loop_stack.append(stmt_end(i, close_idx))
                        if v == "do":
                            body_end = stmt_end(i + 1, close_idx)
                            if body_end + 1 <= close_idx and \
                                    values[body_end + 1] == "while":
                                do_while_skips.add(body_end + 1)
                    elif v == "catch":
                        quiet = self._scan_catch(i, close_idx, catches)
                    elif v in _DECL_START and (resume := try_local_decl(
                            i, close_idx, scope, declared)):
                        quiet = resume
            accesses.extend(this_accesses)

            local_vars: list[LocalVarFact] = []
            if declared:
                # A token spelled like a local's name is always an identifier.
                body = values[open_idx + 1:close_idx]
                names = [values[k] for k, _ in declared]
                local_vars = [_new(LocalVarFact, (
                    name, type_name, bisect_left(newlines, starts[k]) + 1,
                    body.count(name) > names.count(name)))
                    for name, (k, type_name) in zip(names, declared)]
            owner.members[index] = _new(MemberFact, member[:-2] + (_new(
                BodyFacts, (catches, loops, concat_sites, accesses,
                            local_vars)), None))

    def _scan_catch(self, i: int, close_idx: int,
                    catches: list[CatchFact]) -> int:
        kinds, values = self.kinds, self.values
        j = i + 1
        if j > close_idx or values[j] != "(":
            return i + 1
        close_paren = self._matching_close(j)
        var = ""
        k = close_paren - 1
        while k > j:
            if kinds[k] == IDENT:
                var = values[k]
                self.declaring.append(k)
                break
            k -= 1
        bopen = close_paren + 1
        if bopen > close_idx or values[bopen] != "{":
            return close_paren + 1
        bclose = self._matching_close(bopen)
        body_empty = bclose == bopen + 1
        # A comment lies inside the braces when the next token after it
        # is past the `{` and no later than the `}`.
        after = bisect_right(self.comment_next, bopen)
        has_comment = (after < len(self.comment_next)
                       and self.comment_next[after] <= bclose)
        catches.append(_new(CatchFact, (self.line(i), var, body_empty,
                                        has_comment)))
        return bopen + 1

    def _matching_close(self, i: int) -> int:
        close = self.partner.get(i, -1)
        if close < i:  # not an open bracket that is closed
            v = self.values[i]
            if v not in ("(", "[", "{"):
                self.fail(f"expected a bracket, found {v!r}", i)
            self.fail("unbalanced delimiter", i)
        return close

    def _stmt_end(self, i: int, limit: int) -> int:
        """Index of the last token of the statement starting at i.

        Walks down through loop heads, `if` conditions and `do` keywords
        with an explicit stack of the `if`s and `do`s whose inner statement
        is pending, then climbs back up through their `else` branches and
        `while` tails. Every statement start passed on the way is recorded
        with its end, so nested loops cost one walk, not one each.
        """
        values = self.values
        ends = self.stmt_ends
        starts: list[int] = []  # statements ending where the current one does
        pending: list[tuple[str, list[int]]] = []  # ("if"|"do", outer starts)
        while True:
            end = ends.get(i)
            if end is None:
                v = values[i]
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
                    if j <= limit and values[j] == "else":
                        i = j + 1  # the else branch ends the if statement
                        break
                elif j <= limit and values[j] == "while":
                    close = self._matching_close(j + 1)
                    if close + 1 <= limit and values[close + 1] == ";":
                        end = close + 1
                    else:
                        end = close

    def _simple_stmt_end(self, i: int, limit: int) -> int:
        """End of a statement that is not a loop, `if` or `do`."""
        values = self.values
        v = values[i]
        if v == "{":
            return self._matching_close(i)
        if v in ("switch", "synchronized"):
            close = self._matching_close(i + 1)
            return self._matching_close(close + 1)
        if v == "try":
            j = i + 1
            if values[j] == "(":
                j = self._matching_close(j) + 1
            end = self._matching_close(j)
            j = end + 1
            while j <= limit and values[j] in ("catch", "finally"):
                if values[j] == "catch":
                    j = self._matching_close(j + 1) + 1
                else:
                    j += 1
                end = self._matching_close(j)
                j = end + 1
            return end
        # plain statement: its `;`, or the token before the enclosing close
        end = self._stop_at(i, limit, _STATEMENT_END)
        return end if end <= limit and values[end] == ";" else end - 1

    def _try_local_decl(self, i: int, limit: int, scope: dict[str, str],
                        declared: list[tuple[int, str]]) -> int:
        """Trial-parse a local variable declaration at token i, and record
        its names: as declaring identifiers, in scope and in declared, with
        the simple name of their type.

        Returns the index after the first declarator name and its dims, so
        that initializer expressions still get scanned; 0 when no
        declaration starts at i.
        """
        kinds, values = self.kinds, self.values
        j = i + 1 if values[i] == "final" else i
        type_name = values[j]
        if kinds[j + 1] == IDENT and (kinds[j] == IDENT or type_name == "var"
                                      or type_name in _PRIMITIVES):
            j += 1  # a one-token type, the most common shape
        else:
            found = self._type_at(j, limit)
            if found is None:
                return 0
            j, base = found
            if j > limit or kinds[j] != IDENT:
                return 0
            type_name = simple_name_of(base)
        names = [j]
        j += 1
        if values[j] == "[":
            j = self._dims_end(j, limit)
        if j > limit or values[j] not in ("=", ";", ",", ":"):
            return 0
        # Walk the declarator list for additional names; generic-argument
        # commas are filtered by the declarator lookahead. An initializer of
        # one token and its `;` end the list at once.
        if values[j] != "=" or values[j + 2] != ";" or kinds[j + 1] == OP:
            k = j
            while (k := self._stop_at(k, limit, _LOCAL_DECLARATOR_END)) \
                    <= limit and values[k] == ",":
                if self._declarator_ahead(k + 1, limit):
                    names.append(k + 1)
                    k += 1
                k += 1
            if k <= limit and values[k] == ")" and values[k + 1] == "->":
                return 0  # typed lambda parameters
        self.declaring.extend(names)
        for k in names:
            scope[values[k]] = type_name
            declared.append((k, type_name))
        return j

    def _ends_label(self, k: int) -> bool:
        """Whether the `:` at k ends a switch label (`case 1:`, `default:`),
        not a conditional expression, an enhanced `for` head, an `assert`
        or a statement label."""
        values = self.values
        j = k - 1
        while values[j] not in _COLON_OWNERS:
            j -= 1
        return values[j] in ("case", "default")

    def _declarator_ahead(self, j: int, limit: int) -> bool:
        if self.kinds[j] != IDENT:
            return False
        j = self._dims_end(j + 1, limit)
        return j <= limit and self.values[j] in ("=", ",", ";")
