"""Project-wide type index for cross-file checks.

Single-file linters cannot tell whether a method overrides a parent or
whether a receiver's type owns a static member. This index registers
every parsed type, resolves inheritance edges project-locally, and
answers those two questions conservatively: anything that would require
knowledge of an external (non-project) type resolves to "unknown" and
is skipped by the callers.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .model import MemberFact, SourceFileModel, TypeFact, simple_name_of

OBJECT_TYPE = "java.lang.Object"


@dataclass(frozen=True)
class MethodSignature:
    name: str
    param_type_names: tuple[str, ...]


def method_signature(member: MemberFact) -> MethodSignature:
    params = tuple(simple_name_of(p.type_name) for p in member.params)
    return MethodSignature(member.name, params)


# Built-in model of the one JDK type everything inherits from. The
# (signature, deprecated) pairs mirror the overridable java.lang.Object
# methods; finalize is modeled deprecated as in current JDKs, which also
# keeps an unannotated finalize() from being double-flagged.
OBJECT_METHODS: tuple[tuple[MethodSignature, bool], ...] = (
    (MethodSignature("equals", ("Object",)), False),
    (MethodSignature("hashCode", ()), False),
    (MethodSignature("toString", ()), False),
    (MethodSignature("clone", ()), False),
    (MethodSignature("finalize", ()), True),
)


@dataclass
class MethodEntry:
    signature: MethodSignature
    visibility: str
    deprecated: bool


@dataclass
class TypeEntry:
    qualified: str
    fact: TypeFact
    file: str
    package: str | None
    resolved_supertypes: list[str] = field(default_factory=list)
    external_supertypes: list[str] = field(default_factory=list)
    static_names: set[str] = field(default_factory=set)
    instance_names: set[str] = field(default_factory=set)
    methods: list[MethodEntry] = field(default_factory=list)  # instance only


@dataclass
class _FileContext:
    package: str | None
    single_imports: dict[str, str]
    wildcard_packages: list[str]
    local_simple: dict[str, str]


@dataclass(frozen=True)
class OverrideResolution:
    overrides: bool
    parent_deprecated: bool
    parent_resolved: bool


@dataclass(frozen=True)
class StaticAccessResolution:
    qualified_correctly: bool
    resolved: bool


class ProjectIndex:
    def __init__(self):
        self.by_qualified: dict[str, TypeEntry] = {}
        self.diagnostics: list[str] = []
        self._entry_by_fact: dict[int, TypeEntry] = {}
        self._contexts: dict[str, _FileContext] = {}
        self._chains: dict[str, tuple[str, ...]] = {}

    # -- lookups ----------------------------------------------------------

    def entry_for(self, fact: TypeFact) -> TypeEntry | None:
        return self._entry_by_fact.get(id(fact))

    def resolve_type(self, name: str, file: str) -> TypeEntry | None:
        """Resolve a type name as written, using the file's context.

        Order: same file, same package, explicit import, wildcard
        import; unresolved names are treated as external.
        """
        ctx = self._contexts.get(file)
        if ctx is None:
            return self.by_qualified.get(name)
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
            if base is not None:
                return self.by_qualified.get(base.qualified + "." + tail)
            return None
        return self._resolve_simple(name, ctx)

    def _resolve_simple(self, name: str, ctx: _FileContext) -> TypeEntry | None:
        qual = ctx.local_simple.get(name)
        if qual is not None:
            return self.by_qualified.get(qual)
        if ctx.package:
            entry = self.by_qualified.get(ctx.package + "." + name)
        else:
            entry = self.by_qualified.get(name)
            entry = entry if entry is not None and entry.package is None else None
        if entry is not None:
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
            for sup in self.by_qualified[q].resolved_supertypes:
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


def build_project_index(models: list[SourceFileModel]) -> ProjectIndex:
    index = ProjectIndex()

    for model in models:
        ctx = _FileContext(
            package=model.package,
            single_imports={
                imp.simple_name: imp.target
                for imp in model.imports
                if not imp.is_wildcard and not imp.is_static
            },
            wildcard_packages=[
                imp.target[:-2] if imp.target.endswith(".*") else imp.target
                for imp in model.imports
                if imp.is_wildcard and not imp.is_static
            ],
            local_simple={},
        )
        index._contexts[model.path] = ctx
        for top in model.types:
            _register(index, model, ctx, top, parent_qual=None)

    _resolve_supertypes(index)
    _drop_hierarchy_cycles(index)
    return index


def _register(index: ProjectIndex, model: SourceFileModel, ctx: _FileContext,
              fact: TypeFact, parent_qual: str | None) -> None:
    if parent_qual is not None:
        qualified = parent_qual + "." + fact.name
    elif model.package:
        qualified = model.package + "." + fact.name
    else:
        qualified = fact.name

    entry = TypeEntry(qualified, fact, model.path, model.package)
    index._entry_by_fact[id(fact)] = entry

    if qualified in index.by_qualified:
        first = index.by_qualified[qualified]
        index.diagnostics.append(
            f"duplicate type {qualified}: kept {first.file}, ignored {model.path}"
        )
    else:
        index.by_qualified[qualified] = entry
        ctx.local_simple.setdefault(fact.name, qualified)
        _register_members(entry)

    for member in fact.members:
        if member.nested is not None:
            _register(index, model, ctx, member.nested, parent_qual=qualified)


def _register_members(entry: TypeEntry) -> None:
    for m in entry.fact.members:
        if m.kind in ("staticField", "staticMethod"):
            entry.static_names.add(m.name)
        elif m.kind in ("instanceField", "instanceMethod"):
            entry.instance_names.add(m.name)
        if m.kind == "instanceMethod":
            entry.methods.append(MethodEntry(
                method_signature(m), m.visibility, "Deprecated" in m.annotations))


def _resolve_supertypes(index: ProjectIndex) -> None:
    for entry in index.by_qualified.values():
        for name in entry.fact.supertypes:
            target = index.resolve_type(name, entry.file)
            if target is not None and target.qualified != entry.qualified:
                entry.resolved_supertypes.append(target.qualified)
            else:
                entry.external_supertypes.append(name)


def _drop_hierarchy_cycles(index: ProjectIndex) -> None:
    """Depth-first search that drops every edge back into the current path.

    Iterative, with one (node, remaining successors) frame per level, so
    a deep inheritance chain cannot exhaust the recursion limit.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}

    def enter(node: str) -> tuple[str, Iterator[str]]:
        color[node] = GRAY
        return node, iter(list(index.by_qualified[node].resolved_supertypes))

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
                    entry = index.by_qualified[node]
                    entry.resolved_supertypes.remove(succ)
                    entry.external_supertypes.append(succ)
                    index.diagnostics.append(
                        f"inheritance cycle: dropped edge {node} -> {succ}"
                    )
                elif state == WHITE:
                    path.append(enter(succ))
                    break
            else:
                color[node] = BLACK
                path.pop()


def resolve_override(method: MemberFact, owner: TypeFact,
                     index: ProjectIndex) -> OverrideResolution:
    """Decide whether an instance method overrides a reachable parent.

    Matching is by erased simple-name signature. Only project-local
    supertypes plus the built-in Object model are consulted; when the
    owner's declared supertypes are all external the result reports
    parent_resolved=False so callers can skip conservatively.
    """
    entry = index.entry_for(owner)
    if entry is None or method.kind != "instanceMethod":
        return OverrideResolution(False, False, False)

    parent_resolved = not entry.fact.supertypes or bool(entry.resolved_supertypes)
    sig = method_signature(method)

    for qual in index.supertypes_of(entry.qualified):
        if qual == OBJECT_TYPE:
            for obj_sig, deprecated in OBJECT_METHODS:
                if obj_sig == sig:
                    return OverrideResolution(True, deprecated, parent_resolved)
            continue
        parent_entry = index.by_qualified[qual]
        for cand in parent_entry.methods:
            if cand.signature != sig or cand.visibility == "private":
                continue
            if (cand.visibility == "package"
                    and parent_entry.package != entry.package):
                continue
            return OverrideResolution(True, cand.deprecated, parent_resolved)
    return OverrideResolution(False, False, parent_resolved)


def resolve_static_access(access, enclosing: TypeFact,
                          index: ProjectIndex) -> StaticAccessResolution:
    """Classify a member access against the static-qualification rule.

    Resolution succeeds only when the receiver names a project-local
    type that (with its project-local supertypes) declares the accessed
    name as a static member and never also as an instance member; any
    ambiguity or external type yields resolved=False. Implicit
    receivers (bare same-class access) are never flagged: the rule
    governs how explicit receivers qualify the member.
    """
    unresolved = StaticAccessResolution(False, False)
    if access.receiver_form == "implicit" or access.receiver_type is None:
        return unresolved
    entry = index.entry_for(enclosing)
    file = entry.file if entry is not None else ""
    target = index.resolve_type(access.receiver_type, file)
    if target is None:
        return unresolved
    chain = index.supertypes_of(target.qualified)
    entries = [target, *filter(None, map(index.by_qualified.get, chain))]
    name = access.member_name
    if any(name in e.instance_names for e in entries) or \
            not any(name in e.static_names for e in entries):
        return unresolved
    return StaticAccessResolution(
        qualified_correctly=access.receiver_form == "className",
        resolved=True,
    )
