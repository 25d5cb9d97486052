"""Project-wide type index for cross-file checks.

Single-file linters cannot tell whether a method overrides a parent or
whether a receiver's type owns a static member. This index registers
every parsed type, resolves inheritance edges project-locally, and
answers those two questions conservatively: anything that would require
knowledge of an external (non-project) type resolves to "unknown" and
is skipped by the callers.

The index and the two checks that consult it read one compact record
per file (`file_record`) instead of the parsed model: plain tuples of
the few facts they need, cheap to keep for a whole tree and to send
between processes. The index reads the records as the workers send
them: it keeps their `TypeRecord`s and adds only the supertypes it
resolves, in one table.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .model import (AccessRecord, MemberFact, SourceFileModel, TypeFact,
                    simple_name_of)

OBJECT_TYPE = "java.lang.Object"


class MethodRecord(NamedTuple):
    """An instance method, as a parent candidate and as an override."""

    name: str
    params: tuple[str, ...]  # erased simple type names
    visibility: str
    line: int
    deprecated: bool
    override: bool  # carries @Override


class TypeRecord(NamedTuple):
    qualified: str
    package: str | None  # of its file
    supertypes: tuple[str, ...]  # as written
    static_names: tuple[str, ...]  # static fields and methods
    instance_names: tuple[str, ...]  # instance fields and methods
    methods: tuple[MethodRecord, ...]  # instance methods, in member order


class FileRecord(NamedTuple):
    path: str
    package: str | None
    imports: tuple[tuple[str, bool], ...]  # non-static: target, is_wildcard
    types: tuple[TypeRecord, ...]  # top-level and nested, declaration order
    accesses: tuple[AccessRecord, ...]  # by type, member and body order


def _method_record(m: MemberFact) -> MethodRecord:
    return MethodRecord(m.name, tuple(simple_name_of(p.type_name)
                                      for p in m.params),
                        m.visibility, m.line, "Deprecated" in m.annotations,
                        "Override" in m.annotations)


def _type_record(t: TypeFact, qualified: str, package: str | None,
                 accesses: list[AccessRecord],
                 nested_names: dict[int, str]) -> TypeRecord:
    static, instance, methods = [], [], []
    for m in t.members:
        if m.nested is not None:
            nested_names[id(m.nested)] = qualified + "." + m.nested.name
        if m.kind in ("staticField", "staticMethod"):
            static.append(m.name)
        elif m.kind in ("instanceField", "instanceMethod"):
            instance.append(m.name)
            if m.kind == "instanceMethod":
                methods.append(_method_record(m))
        if m.body is not None:
            accesses.extend(m.body.accesses)
    return TypeRecord(qualified, package, tuple(t.supertypes),
                      tuple(static), tuple(instance), tuple(methods))


def file_record(model: SourceFileModel) -> FileRecord:
    """What the index and the project-scope checks read of one file."""
    prefix = model.package + "." if model.package else ""
    accesses: list[AccessRecord] = []
    # model.types lists each type before its nested ones, so a nested
    # type's qualified name is known by the time it comes; a type that
    # no member has named is top-level.
    names: dict[int, str] = {}
    types = [_type_record(t, names.get(id(t)) or prefix + t.name,
                          model.package, accesses, names)
             for t in model.types]
    imports = tuple((imp.target, imp.is_wildcard) for imp in model.imports
                    if not imp.is_static)
    return FileRecord(model.path, model.package, imports, tuple(types),
                      tuple(accesses))


# Built-in model of the one JDK type everything inherits from. The
# (name, parameter types, deprecated) triples mirror the overridable
# java.lang.Object methods; finalize is modeled deprecated as in current
# JDKs, which also keeps an unannotated finalize() from being
# double-flagged.
OBJECT_METHODS: tuple[tuple[str, tuple[str, ...], bool], ...] = (
    ("equals", ("Object",), False),
    ("hashCode", (), False),
    ("toString", (), False),
    ("clone", (), False),
    ("finalize", (), True),
)


class _FileContext(NamedTuple):
    package: str | None
    single_imports: dict[str, str]
    wildcard_packages: list[str]
    local_simple: dict[str, str]


class OverrideResolution(NamedTuple):
    overrides: bool
    parent_deprecated: bool
    parent_resolved: bool


class StaticAccessResolution(NamedTuple):
    qualified_correctly: bool
    resolved: bool


# The resolvers return these shared, immutable results instead of
# building one per call.
_OVERRIDES = {(o, d, r): OverrideResolution(o, d, r)
              for o in (False, True) for d in (False, True)
              for r in (False, True)}
_UNRESOLVED = StaticAccessResolution(False, False)
_QUALIFIED = StaticAccessResolution(True, True)
_UNQUALIFIED = StaticAccessResolution(False, True)


class ProjectIndex:
    def __init__(self):
        # The first type of each qualified name; resolve_override says
        # how a later type of that name resolves.
        self.by_qualified: dict[str, TypeRecord] = {}
        # The project types that a kept type's declared supertypes
        # resolve to, for each kept type that declares any.
        self.supers: dict[str, tuple[str, ...]] = {}
        self.diagnostics: list[str] = []
        self._contexts: dict[str, _FileContext] = {}
        self._chains: dict[str, tuple[str, ...]] = {}

    # -- lookups ----------------------------------------------------------

    def resolve_type(self, name: str, file: str) -> TypeRecord | None:
        """Resolve a type name as written, using the file's context.

        Order: same file, same package, explicit import, wildcard
        import; unresolved names are treated as external.
        """
        ctx = self._contexts[file]
        if "." in name:
            entry = self.by_qualified.get(name)
            if entry is not None:
                return entry
            if ctx.package:
                entry = self.by_qualified.get(ctx.package + "." + name)
                if entry is not None:
                    return entry
            head, _, tail = name.partition(".")
            base = self._resolve_simple(head, ctx)
            return (None if base is None
                    else self.by_qualified.get(base.qualified + "." + tail))
        return self._resolve_simple(name, ctx)

    def _resolve_simple(self, name: str, ctx: _FileContext) -> TypeRecord | None:
        qual = ctx.local_simple.get(name)
        if qual is not None:
            return self.by_qualified.get(qual)
        entry = self.by_qualified.get(
            ctx.package + "." + name if ctx.package else name)
        # From the default package, only a default-package type resolves.
        if entry is not None and (ctx.package or entry.package is None):
            return entry
        target = ctx.single_imports.get(name)
        if target is not None:
            return self.by_qualified.get(target)
        for pkg in ctx.wildcard_packages:
            entry = self.by_qualified.get(pkg + "." + name)
            if entry is not None:
                return entry
        return None

    # -- hierarchy walks --------------------------------------------------

    def supertype_chain(self, qualified: str) -> list[str]:
        """Transitive project-local supertypes, BFS order, Object last."""
        if qualified not in self.by_qualified:
            return []
        chain = [qualified]
        visited = {qualified, OBJECT_TYPE}  # never walk into Object
        for q in chain:
            for sup in self.supers.get(q, ()):
                if sup not in visited:
                    visited.add(sup)
                    chain.append(sup)
        if qualified != OBJECT_TYPE:
            chain.append(OBJECT_TYPE)
        return chain[1:]

    def supertypes_of(self, qualified: str) -> tuple[str, ...]:
        """supertype_chain, walked once per type and then kept.

        The resolvers ask for the same type's chain once per method or
        access; they run only after the index is built and its cycles
        are dropped, so a kept chain never goes stale.
        """
        chain = self._chains.get(qualified)
        if chain is None:
            chain = self._chains[qualified] = tuple(self.supertype_chain(qualified))
        return chain


def build_project_index(records: list[FileRecord]) -> ProjectIndex:
    index = ProjectIndex()
    kept_in: dict[str, str] = {}  # qualified name -> path of its kept type

    for record in records:
        ctx = index._contexts[record.path] = _FileContext(
            package=record.package,
            single_imports={simple_name_of(target): target
                            for target, wildcard in record.imports
                            if not wildcard},
            wildcard_packages=[target[:-2]  # drop the ".*"
                               for target, wildcard in record.imports
                               if wildcard],
            local_simple={},
        )
        for t in record.types:
            first = kept_in.get(t.qualified)
            if first is not None:
                index.diagnostics.append(
                    f"duplicate type {t.qualified}: kept {first}, "
                    f"ignored {record.path}")
                continue
            kept_in[t.qualified] = record.path
            index.by_qualified[t.qualified] = t
            ctx.local_simple.setdefault(t.qualified.rpartition(".")[2],
                                        t.qualified)

    for t in index.by_qualified.values():
        if t.supertypes:
            index.supers[t.qualified] = tuple(
                target.qualified for name in t.supertypes
                if (target := index.resolve_type(name, kept_in[t.qualified]))
                is not None and target.qualified != t.qualified)
    _drop_hierarchy_cycles(index)
    return index


def _drop_hierarchy_cycles(index: ProjectIndex) -> None:
    """Depth-first search that drops every edge back into the current path.

    Iterative, with one (node, remaining successors) frame per level, so
    a deep inheritance chain cannot exhaust the recursion limit.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}

    def enter(node: str) -> tuple[str, Iterator[str]]:
        color[node] = GRAY
        return node, iter(index.supers.get(node, ()))

    for root in sorted(index.by_qualified):
        if color.get(root, WHITE) != WHITE:
            continue
        path = [enter(root)]
        while path:
            node, succs = path[-1]
            for succ in succs:
                if succ == OBJECT_TYPE:
                    continue
                state = color.get(succ, WHITE)
                if state == GRAY:
                    index.supers[node] = tuple(
                        s for s in index.supers[node] if s != succ)
                    index.diagnostics.append(
                        f"inheritance cycle: dropped edge {node} -> {succ}")
                elif state == WHITE:
                    path.append(enter(succ))
                    break
            else:
                color[node] = BLACK
                path.pop()


def resolve_override(method: MethodRecord, owner: TypeRecord,
                     index: ProjectIndex) -> OverrideResolution:
    """Decide whether an instance method of `owner` overrides a reachable
    parent.

    Matching is by erased simple-name signature. Only project-local
    supertypes plus the built-in Object model are consulted; when the
    owner's declared supertypes are all external the result reports
    parent_resolved=False so callers can skip conservatively.
    """
    # A type whose qualified name an earlier type took resolves no
    # supertypes of its own, but walks the kept type's chain below.
    parent_resolved = not owner.supertypes or (
        index.by_qualified[owner.qualified] is owner
        and bool(index.supers[owner.qualified]))
    name, params = method.name, method.params

    for qual in index.supertypes_of(owner.qualified):
        if qual == OBJECT_TYPE:
            for obj_name, obj_params, deprecated in OBJECT_METHODS:
                if obj_name == name and obj_params == params:
                    return _OVERRIDES[True, deprecated, parent_resolved]
            continue
        parent = index.by_qualified[qual]
        for cand in parent.methods:
            if (cand.name != name or cand.params != params
                    or cand.visibility == "private"):
                continue
            if (cand.visibility == "package"
                    and parent.package != owner.package):
                continue
            return _OVERRIDES[True, cand.deprecated, parent_resolved]
    return _OVERRIDES[False, False, parent_resolved]


def resolve_static_access(access: AccessRecord, file: str,
                          index: ProjectIndex) -> StaticAccessResolution:
    """Classify an access from `file` against the static-qualification
    rule.

    Resolution succeeds only when the receiver names a project-local
    type that (with its project-local supertypes) declares the accessed
    name as a static member and never also as an instance member; any
    ambiguity or external type yields resolved=False. Bare same-class
    calls have no record, so they are never flagged: the rule governs
    how explicit receivers qualify the member.
    """
    target = index.resolve_type(access.receiver_type, file)
    if target is None:
        return _UNRESOLVED
    chain = index.supertypes_of(target.qualified)
    name = access.member_name
    static = False
    for t in (target, *filter(None, map(index.by_qualified.get, chain))):
        if name in t.instance_names:
            return _UNRESOLVED
        static = static or name in t.static_names
    if not static:
        return _UNRESOLVED
    return _QUALIFIED if access.through_class else _UNQUALIFIED
