"""Language-neutral fact model extracted from Java source files.

Parsing produces one SourceFileModel per file; every later stage (indexing,
checking, scoring) consumes these facts and never re-reads source text.
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


class _Filled:
    """Base of the facts the parser completes after building them.

    Its repr lists ``name=value`` for each field in ``__slots__`` order,
    except those a class names in ``_derived``, as a named tuple's repr
    lists its fields.
    """

    __slots__ = ()
    _derived = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__
                          if name not in self._derived)
        return f"{type(self).__name__}({shown})"


def simple_name_of(dotted: str) -> str:
    """The last segment of a dotted name; array dims on it stay."""
    return dotted.rsplit(".", 1)[-1]


class ImportFact(_Filled):
    __slots__ = ("target", "line", "is_static", "is_wildcard", "used")
    target: str
    line: int
    is_static: bool
    is_wildcard: bool
    used: bool

    def __init__(self, target: str, line: int, is_static: bool,
                 is_wildcard: bool):
        self.target = target
        self.line = line
        self.is_static = is_static
        self.is_wildcard = is_wildcard
        self.used = True

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


class LocalVarFact(_Filled):
    __slots__ = ("name", "type_name", "line", "used")
    name: str
    type_name: str
    line: int
    used: bool

    def __init__(self, name: str, type_name: str, line: int):
        self.name = name
        self.type_name = type_name
        self.line = line
        self.used = False


class BodyFacts(_Filled):
    __slots__ = ("catches", "loops", "concat_sites", "accesses", "local_vars")
    catches: list[CatchFact]
    loops: int  # for, while and do statements
    concat_sites: list[ConcatSiteFact]
    accesses: list[AccessRecord]
    local_vars: list[LocalVarFact]

    def __init__(self):
        self.catches = []
        self.loops = 0
        self.concat_sites = []
        self.accesses = []
        self.local_vars = []


class ParamFact(NamedTuple):
    name: str
    type_name: str


class MemberFact(_Filled):
    __slots__ = ("kind", "name", "visibility", "line", "is_static_final",
                 "javadoc", "annotations", "params", "return_type",
                 "thrown_types", "body", "nested")
    kind: str  # one of MEMBER_KINDS
    name: str
    visibility: str
    line: int
    is_static_final: bool
    javadoc: JavadocFact | None
    annotations: list[str]
    params: list[ParamFact]
    return_type: str | None
    thrown_types: list[str]
    body: BodyFacts | None  # set when the parser meets the body
    nested: TypeFact | None  # set for kind == innerType

    def __init__(self, kind: str, name: str, visibility: str, line: int,
                 annotations: list[str], *, is_static_final: bool = False,
                 javadoc: JavadocFact | None = None,
                 params: list[ParamFact] | None = None,
                 return_type: str | None = None,
                 thrown_types: list[str] | None = None,
                 nested: TypeFact | None = None):
        self.kind = kind
        self.name = name
        self.visibility = visibility
        self.line = line
        self.is_static_final = is_static_final
        self.javadoc = javadoc
        self.annotations = annotations
        self.params = [] if params is None else params
        self.return_type = return_type
        self.thrown_types = [] if thrown_types is None else thrown_types
        self.body = None
        self.nested = nested


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


class SourceFileModel(_Filled):
    __slots__ = ("path", "package", "package_line", "imports", "types",
                 "comments", "line_count", "use_counts", "declared_types")
    # The types of `types` and all their nested ones, each before its
    # nested ones, listed by the parser as it declares them. Derived
    # from `types`, so left out of the repr.
    _derived = ("declared_types",)
    path: str
    package: str | None
    package_line: int | None
    imports: list[ImportFact]
    types: list[TypeFact]
    comments: list[CommentFact]
    line_count: int
    # Per name, its identifier tokens that do not declare it: occurrences
    # outside comments and package/import statements, less the declaring
    # ones (types, enum constants, members, parameters, locals, catch and
    # lambda parameters). Names with no use are absent.
    use_counts: dict[str, int]
    declared_types: list[TypeFact]

    def __init__(self, path: str, declared_types: list[TypeFact]):
        self.path = path
        self.package = None
        self.package_line = None
        self.imports = []
        self.types = []
        self.comments = []
        self.line_count = 0
        self.use_counts = {}
        self.declared_types = declared_types

    def all_types(self) -> list[TypeFact]:
        """Top-level and nested types, in declaration order."""
        return self.declared_types
