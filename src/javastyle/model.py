"""Language-neutral fact model extracted from Java source files.

Parsing produces one SourceFileModel per file; every later stage (indexing,
checking, scoring) consumes these facts and never re-reads source text.
All line numbers are 1-based. All paths are repo-relative with ``/``
separators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Closed vocabularies. Kept as plain strings on the facts; these sets are
# the reference for validation in tests.
TYPE_KINDS = frozenset({"class", "enum", "interface", "record", "annotation"})
MEMBER_KINDS = frozenset(
    {
        "instanceField",
        "staticField",
        "constructor",
        "instanceMethod",
        "staticMethod",
        "innerType",
    }
)
VISIBILITIES = frozenset({"public", "protected", "package", "private"})
RECEIVER_FORMS = frozenset({"className", "instanceExpr", "methodReturn", "implicit"})


@dataclass(slots=True)
class TagFact:
    """One block tag inside a Javadoc comment, e.g. ``@param x the input``."""

    name: str
    arg_name: str | None
    description_word_count: int


@dataclass(slots=True)
class JavadocFact:
    line: int
    word_count: int
    tags: list[TagFact] = field(default_factory=list)


@dataclass(slots=True)
class CommentFact:
    line: int
    text: str
    is_javadoc: bool


def simple_name_of(dotted: str) -> str:
    """The last segment of a dotted name; array dims on it stay."""
    return dotted.rsplit(".", 1)[-1]


@dataclass(slots=True)
class ImportFact:
    target: str
    line: int
    is_static: bool = False
    is_wildcard: bool = False
    used: bool = True

    @property
    def simple_name(self) -> str:
        return simple_name_of(self.target)


@dataclass(slots=True)
class CatchFact:
    line: int
    exception_var: str
    body_empty: bool
    has_comment: bool


@dataclass(slots=True)
class ConcatSiteFact:
    """A ``+=`` or ``x = x + ...`` site observed inside a loop span."""

    line: int
    target: str


@dataclass(slots=True)
class AccessFact:
    line: int
    member_name: str
    receiver_form: str  # one of RECEIVER_FORMS
    receiver_type: str | None = None


@dataclass(slots=True)
class LocalVarFact:
    name: str
    type_name: str
    line: int
    used: bool = False


@dataclass(slots=True)
class BodyFacts:
    catches: list[CatchFact] = field(default_factory=list)
    loops: int = 0  # for, while and do statements
    concat_sites: list[ConcatSiteFact] = field(default_factory=list)
    accesses: list[AccessFact] = field(default_factory=list)
    local_vars: list[LocalVarFact] = field(default_factory=list)


@dataclass(slots=True)
class ParamFact:
    name: str
    type_name: str


@dataclass(slots=True)
class MemberFact:
    kind: str  # one of MEMBER_KINDS
    name: str
    visibility: str
    line: int
    is_static_final: bool = False
    javadoc: JavadocFact | None = None
    annotations: list[str] = field(default_factory=list)
    params: list[ParamFact] = field(default_factory=list)
    return_type: str | None = None
    thrown_types: list[str] = field(default_factory=list)
    body: BodyFacts | None = None
    nested: "TypeFact | None" = None  # populated for kind == innerType


@dataclass(slots=True)
class TypeFact:
    kind: str  # one of TYPE_KINDS
    name: str
    visibility: str
    line: int
    supertypes: list[str] = field(default_factory=list)
    members: list[MemberFact] = field(default_factory=list)
    javadoc: JavadocFact | None = None

    def members_of_kind(self, *kinds: str) -> list[MemberFact]:
        return [m for m in self.members if m.kind in kinds]


@dataclass(slots=True)
class SourceFileModel:
    path: str
    package: str | None
    package_line: int | None = None
    imports: list[ImportFact] = field(default_factory=list)
    types: list[TypeFact] = field(default_factory=list)
    comments: list[CommentFact] = field(default_factory=list)
    line_count: int = 0
    # Per name, its identifier tokens that do not declare it: occurrences
    # outside comments and package/import statements, less the declaring
    # ones (types, enum constants, members, parameters, locals, catch and
    # lambda parameters). Names with no use are absent.
    use_counts: dict[str, int] = field(default_factory=dict)
    # The types of `types` and all their nested ones, each before its
    # nested ones, listed by the parser as it declares them. Derived
    # from `types`, so left out of repr and comparison.
    declared_types: list[TypeFact] = field(default_factory=list, repr=False,
                                           compare=False)

    def all_types(self) -> list[TypeFact]:
        """Top-level and nested types, in declaration order."""
        return self.declared_types
