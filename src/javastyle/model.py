"""Language-neutral fact model extracted from Java source files.

Parsing produces one SourceFileModel per file; every later stage (indexing,
checking, scoring) consumes these facts and never re-reads source text.
Every fact is a named tuple that the parser builds once, when its last
field is known; only the lists a fact holds grow while the parser works.
All line numbers are 1-based. All paths are repo-relative with ``/``
separators.
"""

from __future__ import annotations

from typing import NamedTuple

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


class TagFact(NamedTuple):
    """One block tag inside a Javadoc comment, e.g. ``@param x the input``."""

    name: str
    arg_name: str | None
    description_word_count: int


class JavadocFact(NamedTuple):
    line: int
    word_count: int
    tags: list[TagFact]


class CommentFact(NamedTuple):
    line: int
    text: str
    is_javadoc: bool


def simple_name_of(dotted: str) -> str:
    """The last segment of a dotted name; array dims on it stay."""
    return dotted.rsplit(".", 1)[-1]


class ImportFact(NamedTuple):
    target: str
    line: int
    is_static: bool
    is_wildcard: bool
    used: bool  # a wildcard import counts as used

    @property
    def simple_name(self) -> str:
        return simple_name_of(self.target)


class CatchFact(NamedTuple):
    line: int
    exception_var: str
    body_empty: bool
    has_comment: bool


class ConcatSiteFact(NamedTuple):
    """A ``+=`` or ``x = x + ...`` site observed inside a loop span."""

    line: int
    target: str


class AccessRecord(NamedTuple):
    """A body access through an explicit receiver whose type is known.

    A bare call, a `super.` access, a later link of a dotted chain or a
    receiver of unknown type never resolves, so it gets no record.
    """

    line: int
    member_name: str
    through_class: bool  # the receiver names a class, not an instance
    receiver_type: str


class LocalVarFact(NamedTuple):
    name: str
    type_name: str
    line: int
    used: bool


class BodyFacts(NamedTuple):
    catches: list[CatchFact]
    loops: int  # for, while and do statements
    concat_sites: list[ConcatSiteFact]
    accesses: list[AccessRecord]
    local_vars: list[LocalVarFact]


class ParamFact(NamedTuple):
    name: str
    type_name: str


class MemberFact(NamedTuple):
    kind: str  # one of MEMBER_KINDS
    name: str
    visibility: str
    line: int
    annotations: list[str]
    params: list[ParamFact]
    thrown_types: list[str]
    is_static_final: bool = False
    javadoc: JavadocFact | None = None
    return_type: str | None = None
    body: BodyFacts | None = None  # None for a member without a body
    nested: TypeFact | None = None  # set for kind == innerType


class TypeFact(NamedTuple):
    kind: str  # one of TYPE_KINDS
    name: str
    visibility: str
    line: int
    supertypes: list[str]
    members: list[MemberFact]
    javadoc: JavadocFact | None

    def members_of_kind(self, *kinds: str) -> list[MemberFact]:
        return [m for m in self.members if m.kind in kinds]


class SourceFileModel(NamedTuple):
    path: str
    package: str | None
    package_line: int | None
    imports: list[ImportFact]
    # Every type, top-level and nested, in declaration order, each
    # before its nested ones.
    types: list[TypeFact]
    comments: list[CommentFact]
    line_count: int
    # Per name, its identifier tokens that do not declare it: occurrences
    # outside comments and package/import statements, less the declaring
    # ones (types, enum constants, members, parameters, locals, catch and
    # lambda parameters). Names with no use are absent.
    use_counts: dict[str, int]
