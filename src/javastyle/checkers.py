"""Violation checks over parsed source models.

Sixteen table categories plus the member-ordering check, registered in
one CHECKS table. Every check is a pure function from one file's facts
to its violations and the number of constructs it inspected, which is
the category's normalization denominator. The two project-scope checks
read the file's compact record (`project_index.file_record`), consult
the project index and skip when resolution would depend on types outside
the project; the file-scope rest read the file's model alone, so
`check_file` runs them before any index exists.
"""

from __future__ import annotations

import enum
import posixpath
import re
from functools import partial
from typing import Callable, NamedTuple

from .lexer import KEYWORDS
from .lexicon import NOUN, VERB, Lexicon, matches_casing, split_identifier
from .model import MemberFact, SourceFileModel, TypeFact, simple_name_of
from .project_index import (FileRecord, ProjectIndex, resolve_override,
                            resolve_static_access)


class Category(enum.Enum):
    CLASS_NAMES = "ClassNames"
    METHOD_NAMES = "MethodNames"
    VARIABLE_NAMES = "VariableNames"
    PACKAGE_NAMES = "PackageNames"
    JAVADOC_CLASS = "JavadocClass"
    JAVADOC_METHOD = "JavadocMethod"
    JAVADOC_CONSTRUCTOR = "JavadocConstructor"
    JAVADOC_FIELD = "JavadocField"
    JAVADOC_FORMATTING = "JavadocFormatting"
    PRIVATE_INSTANCES = "PrivateInstances"
    USELESS = "Useless"
    STRING_CONCATENATION = "StringConcatenation"
    FINALIZE_OVERRIDE = "FinalizeOverride"
    UNQUALIFIED_STATIC_ACCESS = "UnqualifiedStaticAccess"
    EMPTY_CATCH_BLOCK = "EmptyCatchBlock"
    MISSING_OVERRIDE = "MissingOverride"
    ORDERING = "Ordering"


METHOD_NAME_ALLOWLIST = frozenset(
    {"get", "set", "is", "has", "can", "to", "of", "from", "new", "with"}
)

STRING_TYPE_NAMES = frozenset({"String", "java.lang.String"})

_PACKAGE_RE = re.compile(r"^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*)*$")


class Violation(NamedTuple):
    category: Category
    file_path: str
    line: int
    message: str
    detail: str | None = None

    def sort_key(self):
        return (self.category.value, self.file_path, self.line)


class OrderingConfig(NamedTuple):
    id: int
    ranked_groups: tuple[str, ...]

    def rank(self, group: str) -> int:
        return self.ranked_groups.index(group)


ORDERING_CONFIGS: dict[int, OrderingConfig] = {
    1: OrderingConfig(1, (
        "innerTypes", "staticFields", "staticMethods",
        "instanceFields", "constructors", "instanceMethods",
    )),
    2: OrderingConfig(2, (
        "staticFields", "staticMethods", "instanceFields",
        "constructors", "instanceMethods", "innerTypes",
    )),
    3: OrderingConfig(3, (
        "staticFields", "staticMethods", "instanceFields",
        "instanceMethods", "constructors", "innerTypes",
    )),
    4: OrderingConfig(4, (
        "instanceFields", "constructors", "instanceMethods",
        "staticFields", "staticMethods", "innerTypes",
    )),
}

_MEMBER_GROUP = {
    "innerType": "innerTypes",
    "staticField": "staticFields",
    "staticMethod": "staticMethods",
    "instanceField": "instanceFields",
    "constructor": "constructors",
    "instanceMethod": "instanceMethods",
}


class CheckContext(NamedTuple):
    """What a check may consult besides the file it inspects."""

    index: ProjectIndex | None  # None for the file-scope checks
    lexicon: Lexicon
    ordering: OrderingConfig


# One check over one file: its violations and the number of constructs
# it inspected, the category's normalization denominator. A file-scope
# check reads the file's model, a project-scope check its record.
CheckResult = tuple[list[Violation], int]
Check = Callable[[SourceFileModel | FileRecord, CheckContext], CheckResult]


def _methods(t: TypeFact) -> list[MemberFact]:
    return t.members_of_kind("instanceMethod", "staticMethod")


# ---------------------------------------------------------------------------
# naming


def check_class_names(model: SourceFileModel, ctx: CheckContext) -> CheckResult:
    out, inspected = [], 0
    for t in model.types:
        if t.kind not in ("class", "enum"):
            continue
        inspected += 1
        if not matches_casing(t.name, "upperCamel"):
            out.append(Violation(
                Category.CLASS_NAMES, model.path, t.line,
                "type name is not UpperCamelCase", t.name))
            continue
        last = split_identifier(t.name)[-1]
        cats = ctx.lexicon.categories_with_fallback(last)
        if cats and NOUN not in cats:
            out.append(Violation(
                Category.CLASS_NAMES, model.path, t.line,
                "type name does not end in a noun", t.name))
    return out, inspected


def check_method_names(model: SourceFileModel, ctx: CheckContext) -> CheckResult:
    out, inspected = [], 0
    for t in model.types:
        for m in _methods(t):
            inspected += 1
            if not matches_casing(m.name, "lowerCamel"):
                out.append(Violation(
                    Category.METHOD_NAMES, model.path, m.line,
                    "method name is not lowerCamelCase", m.name))
                continue
            first = split_identifier(m.name)[0]
            if first in METHOD_NAME_ALLOWLIST:
                continue
            cats = ctx.lexicon.categories_with_fallback(first)
            if cats and VERB not in cats:
                out.append(Violation(
                    Category.METHOD_NAMES, model.path, m.line,
                    "method name does not start with a verb", m.name))
    return out, inspected


def check_variable_names(model: SourceFileModel,
                         ctx: CheckContext) -> CheckResult:
    out, inspected = [], 0

    def bad(line: int, name: str, what: str, convention: str):
        out.append(Violation(
            Category.VARIABLE_NAMES, model.path, line,
            f"{what} name is not {convention}", name))

    for t in model.types:
        for m in t.members:
            if m.kind in ("instanceField", "staticField"):
                inspected += 1
                if m.is_static_final:
                    if not matches_casing(m.name, "constant"):
                        bad(m.line, m.name, "constant", "UPPER_SNAKE_CASE")
                elif not matches_casing(m.name, "lowerCamel"):
                    bad(m.line, m.name, "field", "lowerCamelCase")
            inspected += len(m.params)
            for p in m.params:
                if not matches_casing(p.name, "lowerCamel"):
                    bad(m.line, p.name, "parameter", "lowerCamelCase")
            if m.body is not None:
                inspected += len(m.body.local_vars)
                for lv in m.body.local_vars:
                    if not matches_casing(lv.name, "lowerCamel"):
                        bad(lv.line, lv.name, "local variable", "lowerCamelCase")
    return out, inspected


def check_package_names(model: SourceFileModel,
                        ctx: CheckContext) -> CheckResult:
    directory = posixpath.dirname(model.path)
    expected = (model.package or "").replace(".", "/")
    if model.package is None:
        if not directory:
            return [], 0  # default package at the root: nothing to name
        message = "file in a package directory has no package declaration"
    elif not _PACKAGE_RE.match(model.package):
        message = "package name is not all-lowercase dotted words"
    elif directory != expected and not directory.endswith("/" + expected):
        message = "package does not match the directory path"
    else:
        return [], 1
    return [Violation(Category.PACKAGE_NAMES, model.path,
                      model.package_line or 1, message, model.package)], 1


# ---------------------------------------------------------------------------
# javadoc

_JAVADOC_MIN_WORDS = 10

# A comment can trip each formatting sub-check once; the two @return
# rules exclude each other, so at most five fire and six is a cap.
JAVADOC_FORMATTING_MAX_PER_COMMENT = 6

_PRESENCE = {
    "class": (Category.JAVADOC_CLASS, "public type"),
    "method": (Category.JAVADOC_METHOD, "public method"),
    "constructor": (Category.JAVADOC_CONSTRUCTOR, "public constructor"),
    "field": (Category.JAVADOC_FIELD, "public field"),
}


def _public_declarations(model: SourceFileModel, kind: str):
    for t in model.types:
        if kind == "class":
            if t.kind in ("class", "enum") and t.visibility == "public":
                yield t.line, t.name, t.javadoc
            continue
        for m in t.members:
            if m.visibility != "public":
                continue
            if kind == "method" and m.kind in ("instanceMethod", "staticMethod"):
                yield m.line, m.name, m.javadoc
            elif kind == "constructor" and m.kind == "constructor":
                yield m.line, m.name, m.javadoc
            elif kind == "field" and m.kind in ("instanceField", "staticField"):
                yield m.line, m.name, m.javadoc


def check_javadoc_presence(model: SourceFileModel, ctx: CheckContext,
                           kind: str) -> CheckResult:
    category, label = _PRESENCE[kind]
    out, inspected = [], 0
    for line, name, doc in _public_declarations(model, kind):
        inspected += 1
        if kind == "field":
            ok = doc is not None
            why = "lacks a documentation comment"
        else:
            ok = doc is not None and doc.word_count >= _JAVADOC_MIN_WORDS
            why = (f"lacks a documentation comment of at least "
                   f"{_JAVADOC_MIN_WORDS} words")
        if not ok:
            out.append(Violation(category, model.path, line,
                                 f"{label} {why}", name))
    return out, inspected


def check_javadoc_formatting(model: SourceFileModel,
                             ctx: CheckContext) -> CheckResult:
    out, inspected = [], 0
    for t in model.types:
        for m in _methods(t):
            doc = m.javadoc
            if doc is None:
                continue
            inspected += 1
            hits: list[str] = []
            param_names = {p.name for p in m.params}
            tag_params = [tag.arg_name for tag in doc.tags
                          if tag.name == "param" and tag.arg_name]
            has_return = any(tag.name == "return" for tag in doc.tags)
            tag_throws = [tag.arg_name for tag in doc.tags
                          if tag.name in ("throws", "exception") and tag.arg_name]
            thrown = [simple_name_of(x) for x in m.thrown_types]

            if any(p not in tag_params for p in param_names):
                hits.append("a parameter has no @param tag")
            if any(a not in param_names for a in tag_params):
                hits.append("a @param tag names no parameter")
            is_void = m.return_type == "void"
            if not is_void and m.return_type is not None and not has_return:
                hits.append("non-void method lacks @return")
            if is_void and has_return:
                hits.append("void method documents a @return")
            documented_throws = {simple_name_of(a) for a in tag_throws}
            if any(x not in documented_throws for x in thrown):
                hits.append("a declared exception has no @throws tag")
            if any(tag.description_word_count == 0 for tag in doc.tags):
                hits.append("a tag has an empty description")

            for msg in hits[:JAVADOC_FORMATTING_MAX_PER_COMMENT]:
                out.append(Violation(
                    Category.JAVADOC_FORMATTING, model.path, doc.line,
                    msg, m.name))
    return out, inspected


# ---------------------------------------------------------------------------
# practices


def check_missing_override(record: FileRecord,
                           ctx: CheckContext) -> CheckResult:
    """Inspects every overriding instance method, annotated or not."""
    out, inspected = [], 0
    for t, owner in zip(record.types, ctx.index.owners[record.path]):
        for m in t.methods:
            r = resolve_override(m, owner, ctx.index)
            if not r.overrides:
                continue
            inspected += 1
            if (not m.override and r.parent_resolved
                    and not r.parent_deprecated):
                out.append(Violation(
                    Category.MISSING_OVERRIDE, record.path, m.line,
                    "overriding method lacks @Override", m.name))
    return out, inspected


def check_empty_catch(model: SourceFileModel, ctx: CheckContext) -> CheckResult:
    out, inspected = [], 0
    for t in model.types:
        for m in t.members:
            if m.body is None:
                continue
            inspected += len(m.body.catches)
            in_test = m.name.startswith("test") or "Test" in m.annotations
            for c in m.body.catches:
                if not c.body_empty or c.has_comment:
                    continue
                if in_test and c.exception_var.startswith("expected"):
                    continue
                out.append(Violation(
                    Category.EMPTY_CATCH_BLOCK, model.path, c.line,
                    "empty catch block without an explanatory comment",
                    c.exception_var))
    return out, inspected


def check_unqualified_static(record: FileRecord,
                             ctx: CheckContext) -> CheckResult:
    """Inspects every access that resolves to a project type's member."""
    out, inspected = [], 0
    for a in record.accesses:
        r = resolve_static_access(a, record.path, ctx.index)
        if not r.resolved:
            continue
        inspected += 1
        if not r.qualified_correctly:
            out.append(Violation(
                Category.UNQUALIFIED_STATIC_ACCESS, record.path, a.line,
                "static member accessed through an instance expression",
                a.member_name))
    return out, inspected


def check_finalize_override(model: SourceFileModel,
                            ctx: CheckContext) -> CheckResult:
    out, inspected = [], 0
    for t in model.types:
        inspected += 1
        for m in _methods(t):
            if m.name == "finalize" and not m.params and m.return_type == "void":
                out.append(Violation(
                    Category.FINALIZE_OVERRIDE, model.path, m.line,
                    "finalize() override", t.name))
    return out, inspected


def check_private_instances(model: SourceFileModel,
                            ctx: CheckContext) -> CheckResult:
    out, inspected = [], 0
    for t in model.types:
        for m in t.members_of_kind("instanceField"):
            inspected += 1
            if m.visibility in ("public", "package"):
                out.append(Violation(
                    Category.PRIVATE_INSTANCES, model.path, m.line,
                    "instance field is not private or protected", m.name))
    return out, inspected


def check_string_concatenation(model: SourceFileModel,
                               ctx: CheckContext) -> CheckResult:
    """Inspects every loop, whether or not it concatenates."""
    out, inspected = [], 0
    for t in model.types:
        field_types = {m.name: m.return_type for m in t.members
                       if m.kind in ("instanceField", "staticField")}
        for m in t.members:
            if m.body is None:
                continue
            inspected += m.body.loops
            local_types = {lv.name: lv.type_name for lv in m.body.local_vars}
            param_types = {p.name: p.type_name for p in m.params}
            for site in m.body.concat_sites:
                declared = (local_types.get(site.target)
                            or param_types.get(site.target)
                            or field_types.get(site.target))
                if declared in STRING_TYPE_NAMES:
                    out.append(Violation(
                        Category.STRING_CONCATENATION, model.path, site.line,
                        "string built by concatenation inside a loop",
                        site.target))
    return out, inspected


# ---------------------------------------------------------------------------
# useless code

_CODEISH_TAIL = (";", "{", "}")
_KEYWORD_START = re.compile(
    r"^([A-Za-z_$][A-Za-z0-9_$]*)\s*([(]|[A-Za-z_$])?")


def _strip_comment_markers(line: str) -> str:
    s = line.strip()
    for prefix in ("//", "/**", "/*"):
        if s.startswith(prefix):
            s = s[len(prefix):]
            break
    else:
        if s.startswith("*"):
            s = s[1:]
    if s.endswith("*/"):
        s = s[:-2]
    return s.strip()


def looks_like_code(comment_line: str) -> bool:
    s = _strip_comment_markers(comment_line)
    if not s:
        return False
    if s.endswith(_CODEISH_TAIL):
        return True
    m = _KEYWORD_START.match(s)
    if m and m.group(1) in KEYWORDS and m.group(2):
        return True
    return False


# The member kinds that declare a name, by the noun a finding uses.
_NAMED_MEMBER = {"instanceField": "field", "staticField": "field",
                 "instanceMethod": "method", "staticMethod": "method"}


def check_useless(model: SourceFileModel, ctx: CheckContext) -> CheckResult:
    """Inspects every non-blank line of the file."""
    out = []
    for imp in model.imports:
        if not imp.used:
            out.append(Violation(
                Category.USELESS, model.path, imp.line,
                "unused import", imp.target))

    # A private member is reachable only from its own top-level class, so
    # this file decides its use: any identifier spelled like it that does
    # not declare a name.
    for t in model.types:
        for m in t.members:
            what = _NAMED_MEMBER.get(m.kind)
            # Annotations often mark reflective entry points of a method.
            exempt = (m.annotations if what == "method"
                      else m.name == "serialVersionUID")
            if (what and m.visibility == "private" and not exempt
                    and m.name not in model.use_counts):
                out.append(Violation(
                    Category.USELESS, model.path, m.line,
                    "unused private " + what, m.name))
            if m.body is not None:
                for lv in m.body.local_vars:
                    if not lv.used:
                        out.append(Violation(
                            Category.USELESS, model.path, lv.line,
                            "unused local variable", lv.name))

    for comment in model.comments:
        if comment.is_javadoc:
            continue
        # Only "\n" ends a line, as in the tokenizer.
        for offset, text_line in enumerate(comment.text.split("\n")):
            if looks_like_code(text_line):
                out.append(Violation(
                    Category.USELESS, model.path, comment.line + offset,
                    "commented-out code"))
    return out, model.line_count


# ---------------------------------------------------------------------------
# ordering


def check_ordering(model: SourceFileModel, ctx: CheckContext) -> CheckResult:
    out, inspected = [], 0
    for t in model.types:
        max_rank = -1
        for m in t.members:
            inspected += 1
            rank = ctx.ordering.rank(_MEMBER_GROUP[m.kind])
            if rank < max_rank:
                out.append(Violation(
                    Category.ORDERING, model.path, m.line,
                    f"{_MEMBER_GROUP[m.kind]} member after a later group",
                    m.name))
            max_rank = max(max_rank, rank)
    return out, inspected


# ---------------------------------------------------------------------------
# registry

CODE_STYLE, PRACTICE, LAYOUT = "code_style", "practice", "layout"
# A file-scope check decides from one file's facts alone, so its results
# can be kept for as long as the file is unchanged. A project-scope check
# resolves names through the project index, so it reruns whenever any
# file of the project changes.
FILE, PROJECT = "file", "project"

# Every category with its group, its scope and its check, in Category
# order, which fixes the order of the derived tuples below and of verdict
# keys.
CHECKS: tuple[tuple[Category, str, str, Check], ...] = (
    (Category.CLASS_NAMES, CODE_STYLE, FILE, check_class_names),
    (Category.METHOD_NAMES, CODE_STYLE, FILE, check_method_names),
    (Category.VARIABLE_NAMES, CODE_STYLE, FILE, check_variable_names),
    (Category.PACKAGE_NAMES, CODE_STYLE, FILE, check_package_names),
    (Category.JAVADOC_CLASS, CODE_STYLE, FILE,
     partial(check_javadoc_presence, kind="class")),
    (Category.JAVADOC_METHOD, CODE_STYLE, FILE,
     partial(check_javadoc_presence, kind="method")),
    (Category.JAVADOC_CONSTRUCTOR, CODE_STYLE, FILE,
     partial(check_javadoc_presence, kind="constructor")),
    (Category.JAVADOC_FIELD, CODE_STYLE, FILE,
     partial(check_javadoc_presence, kind="field")),
    (Category.JAVADOC_FORMATTING, CODE_STYLE, FILE, check_javadoc_formatting),
    (Category.PRIVATE_INSTANCES, PRACTICE, FILE, check_private_instances),
    (Category.USELESS, PRACTICE, FILE, check_useless),
    (Category.STRING_CONCATENATION, PRACTICE, FILE,
     check_string_concatenation),
    (Category.FINALIZE_OVERRIDE, PRACTICE, FILE, check_finalize_override),
    (Category.UNQUALIFIED_STATIC_ACCESS, PRACTICE, PROJECT,
     check_unqualified_static),
    (Category.EMPTY_CATCH_BLOCK, PRACTICE, FILE, check_empty_catch),
    (Category.MISSING_OVERRIDE, PRACTICE, PROJECT, check_missing_override),
    (Category.ORDERING, LAYOUT, FILE, check_ordering),
)

CODE_STYLE_CATEGORIES = tuple(c for c, group, _, _ in CHECKS
                              if group == CODE_STYLE)
PRACTICE_CATEGORIES = tuple(c for c, group, _, _ in CHECKS
                            if group == PRACTICE)

# The sixteen categories that participate in scoring and verdicts.
TABLE_CATEGORIES = CODE_STYLE_CATEGORIES + PRACTICE_CATEGORIES

_FILE_CHECKS = tuple((c, fn) for c, _, scope, fn in CHECKS if scope == FILE)
_PROJECT_CHECKS = tuple((c, fn) for c, _, scope, fn in CHECKS
                        if scope == PROJECT)

# Violations and, per category, the number of constructs inspected.
CheckOutcome = tuple[list[Violation], dict[Category, int]]


def check_file(model: SourceFileModel, ctx: CheckContext) -> CheckOutcome:
    """Run the file-scope checks over one model; `ctx.index` is unused."""
    violations: list[Violation] = []
    counts: dict[Category, int] = {}
    for category, check in _FILE_CHECKS:
        found, counts[category] = check(model, ctx)
        violations.extend(found)
    return violations, counts


def check_project(records: list[FileRecord],
                  ctx: CheckContext) -> CheckOutcome:
    """Run the project-scope checks over the record of every file of the
    project; `ctx.index` is built from the same records."""
    violations: list[Violation] = []
    counts = {category: 0 for category, _ in _PROJECT_CHECKS}
    for record in records:
        for category, check in _PROJECT_CHECKS:
            found, inspected = check(record, ctx)
            violations.extend(found)
            counts[category] += inspected
    return violations, counts
