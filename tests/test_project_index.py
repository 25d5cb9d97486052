"""Cross-file type/member resolution and override/static-access logic."""

import random
from pathlib import Path

import pytest

from javastyle.analysis import analyze_repository
from javastyle.checkers import CheckContext, check_unqualified_static
from javastyle.model import simple_name_of
from javastyle.parser import parse_compilation_unit
from javastyle.project_index import (OBJECT_TYPE, ProjectIndex,
                                     build_project_index, file_record,
                                     resolve_override, resolve_static_access)

from helpers import write_tree


def index_of(files: dict[str, str]):
    """The records of an in-memory file set, in discovery (path) order,
    and the index built from them."""
    records = [file_record(parse_compilation_unit(text, path))
               for path, text in sorted(files.items())]
    return records, build_project_index(records)


def record_of(records, suffix):
    (record,) = [r for r in records if r.path.endswith(suffix)]
    return record


def entry(index, qualified):
    e = index.by_qualified.get(qualified)
    assert e is not None, qualified
    return e


def find_method(record, type_name, method_name):
    """An instance method's record and the record of its type."""
    for t in record.types:
        if t.qualified.rpartition(".")[2] == type_name:
            for m in t.methods:
                if m.name == method_name:
                    return m, t
    raise AssertionError(f"{type_name}.{method_name} not found")


# --- type registration and resolution ---------------------------------------


def test_qualified_names_and_nesting():
    (record,), index = index_of({
        "a/Outer.java": "package a;\npublic class Outer {\n"
                        "    public static class Inner {}\n}e".replace("}e", "}"),
    })
    assert "a.Outer" in index.by_qualified
    assert index.by_qualified["a.Outer.Inner"] is record.types[1]
    assert [(t.qualified, t.package) for t in record.types] == [
        ("a.Outer", "a"), ("a.Outer.Inner", "a")]


def test_resolution_order_same_file_first():
    _, index = index_of({
        "p/Main.java": "package p;\nimport q.Helper;\n"
                       "class Helper {}\nclass Main extends Helper {}\n",
        "q/Helper.java": "package q;\npublic class Helper {}\n",
    })
    assert index.supers["p.Main"] == ("p.Helper",)


def test_resolution_same_package_then_import_then_wildcard():
    _, index = index_of({
        "p/Main.java": "package p;\nimport r.Exact;\nimport s.*;\n"
                       "class Main extends Local {}\n"
                       "class FromImport extends Exact {}\n"
                       "class FromWild extends Wild {}\n",
        "p/Local.java": "package p;\nclass Local {}\n",
        "r/Exact.java": "package r;\npublic class Exact {}\n",
        "s/Wild.java": "package s;\npublic class Wild {}\n",
    })
    assert index.supers["p.Main"] == ("p.Local",)
    assert index.supers["p.FromImport"] == ("r.Exact",)
    assert index.supers["p.FromWild"] == ("s.Wild",)


def test_dotted_supertypes_resolve():
    _, index = index_of({
        "p/Main.java": "package p;\nimport q.Imported;\n"
                       "class Full extends p.Base {}\n"
                       "class Nested extends Outer.Inner {}\n"
                       "class ViaImport extends Imported.Inner {}\n"
                       "class Missing extends Imported.Absent {}\n",
        "p/Base.java": "package p;\nclass Base {}\n",
        "p/Outer.java": "package p;\nclass Outer { static class Inner {} }\n",
        "q/Imported.java": "package q;\n"
                           "public class Imported { public static class Inner {} }\n",
    })
    assert index.supers["p.Full"] == ("p.Base",)
    assert index.supers["p.Nested"] == ("p.Outer.Inner",)
    assert index.supers["p.ViaImport"] == ("q.Imported.Inner",)
    assert index.supers["p.Missing"] == ()


def test_a_default_package_supertype_resolves_only_there():
    _, index = index_of({
        "Main.java": "class Main extends Base {}\n"
                     "class Other extends Thing {}\n"
                     "class Deep extends Outer.Inner {}\n",
        "Base.java": "class Base {}\n",
        "Outer.java": "class Outer { static class Inner {} }\n",
        "p/Thing.java": "package p;\npublic class Thing {}\n",
    })
    assert index.supers["Main"] == ("Base",)
    assert index.supers["Deep"] == ("Outer.Inner",)
    assert index.supers["Other"] == ()  # p.Thing


def test_unresolvable_supertype_is_external():
    _, index = index_of({
        "p/Main.java": "package p;\n"
                       "class Main extends com.vendor.Widget {}\n",
    })
    assert entry(index, "p.Main").supertypes == ("com.vendor.Widget",)
    assert index.supers["p.Main"] == ()


def test_duplicate_qualified_name_first_wins():
    records, index = index_of({
        "a/p/Thing.java": "package p;\nclass Thing { void one() {} }\n",
        "b/p/Thing.java": "package p;\nclass Thing { void two() {} }\n",
    })
    assert entry(index, "p.Thing") is record_of(records, "a/p/Thing.java").types[0]
    assert any("duplicate type p.Thing" in d for d in index.diagnostics)


def test_hierarchy_cycle_dropped_with_diagnostic():
    _, index = index_of({
        "p/A.java": "package p;\nclass A extends B {}\n",
        "p/B.java": "package p;\nclass B extends A {}\n",
    })
    assert any("cycle" in d.lower() for d in index.diagnostics)
    chain_a = index.supertype_chain("p.A")
    assert "p.A" not in chain_a  # no self-reachability after the drop
    assert chain_a[-1] == OBJECT_TYPE


def test_deep_inheritance_chain_analyzes_cleanly(tmp_path):
    # Sorted order visits the most-derived class first, so the cycle
    # search walks the whole chain in one descent.
    depth = 1500
    source = "package p;\n" + "".join(
        f"class C{k:04d} extends C{k + 1:04d} {{}}\n" for k in range(depth)
    ) + f"class C{depth:04d} {{}}\n"
    write_tree(tmp_path, {"src/p/Chain.java": source})
    result = analyze_repository(str(tmp_path))
    assert result.diagnostics == []
    index = build_project_index([file_record(
        parse_compilation_unit(source, "src/p/Chain.java"))])
    assert len(index.supertype_chain("p.C0000")) == depth + 1


def test_supertype_chain_ends_at_object():
    _, index = index_of({
        "p/A.java": "package p;\nclass A {}\n",
        "p/B.java": "package p;\nclass B extends A {}\n",
        "p/C.java": "package p;\nclass C extends B {}\n",
    })
    assert index.supertype_chain("p.C") == ["p.B", "p.A", OBJECT_TYPE]


def bfs_chain(index, qualified):
    """Breadth-first walk of the resolved supertypes, Object last."""
    chain, seen = [], {qualified, OBJECT_TYPE}
    queue = [qualified]
    for q in queue:
        for sup in index.supers.get(q, ()):
            if sup not in seen:
                seen.add(sup)
                chain.append(sup)
                queue.append(sup)
    return tuple(chain) + (OBJECT_TYPE,)


def fixture_trees():
    root = Path(__file__).parent / "fixtures"
    for tree in sorted(root.glob("*/*")):
        yield {str(p.relative_to(tree)): p.read_text("utf-8")
               for p in sorted(tree.rglob("*.java"))}


DIAMOND = {
    "p/Top.java": "package p;\ninterface Top {}\n",
    "p/Left.java": "package p;\ninterface Left extends Top {}\n",
    "p/Right.java": "package p;\ninterface Right extends Top {}\n",
    "p/Bottom.java": "package p;\nclass Bottom implements Left, Right {}\n",
    "p/Below.java": "package p;\nclass Below extends Bottom implements Top {}\n",
}
CYCLE = {
    "p/A.java": "package p;\nclass A extends C {}\n",
    "p/B.java": "package p;\nclass B extends A {}\n",
    "p/C.java": "package p;\nclass C extends B implements D {}\n",
    "p/D.java": "package p;\ninterface D {}\n",
}


@pytest.mark.parametrize("files", [*fixture_trees(), DIAMOND, CYCLE])
def test_kept_supertype_chain_equals_a_fresh_walk(files):
    _, index = index_of(files)
    for qualified in index.by_qualified:
        chain = index.supertypes_of(qualified)
        assert chain == bfs_chain(index, qualified)
        assert type(chain) is tuple
        assert index.supertypes_of(qualified) is chain


def test_diamond_chain_lists_each_supertype_once():
    _, index = index_of(DIAMOND)
    assert index.supertypes_of("p.Bottom") == ("p.Left", "p.Right", "p.Top",
                                               OBJECT_TYPE)
    assert index.supertypes_of("p.Below") == ("p.Bottom", "p.Top", "p.Left",
                                              "p.Right", OBJECT_TYPE)


def test_erased_simple_type():
    # package prefix goes away, array dims stay: f(int[]) is not f(int)
    assert simple_name_of("java.util.List") == "List"
    assert simple_name_of("int[]") == "int[]"
    assert simple_name_of("java.lang.String[][]") == "String[][]"
    assert simple_name_of("Map") == "Map"


# --- override resolution -----------------------------------------------------

PARENT_CHILD = {
    "p/Parent.java": "package p;\npublic class Parent {\n"
                     "    public void work() {}\n"
                     "    public void sized(int n) {}\n}\n",
    "p/Child.java": "package p;\npublic class Child extends Parent {\n"
                    "    public void work() {}\n"
                    "    public void sized(String s) {}\n"
                    "    public void other() {}\n}\n",
}


def test_resolvers_walk_each_chain_once(monkeypatch):
    walks = []
    walk = ProjectIndex.supertype_chain

    def counted(self, qualified):
        walks.append(qualified)
        return walk(self, qualified)

    monkeypatch.setattr(ProjectIndex, "supertype_chain", counted)
    files = dict(PARENT_CHILD)
    files["p/User.java"] = ("package p;\nclass User {\n    void f(Child c) {\n"
                            "        c.work(); c.other(); Child.work();\n"
                            "    }\n}\n")
    records, index = index_of(files)
    for record in records:
        for t in record.types:
            for m in t.methods:
                resolve_override(m, t, index)
        for access in record.accesses:
            resolve_static_access(access, record.path, index)
    assert sorted(walks) == ["p.Child", "p.Parent", "p.User"]


def test_override_same_signature():
    records, _index = index_of(PARENT_CHILD)
    child = record_of(records, "Child.java")
    m, t = find_method(child, "Child", "work")
    r = resolve_override(m, t, _index)
    assert r.overrides and r.parent_resolved and not r.parent_deprecated


def test_no_override_on_different_param_types():
    records, _index = index_of(PARENT_CHILD)
    child = record_of(records, "Child.java")
    m, t = find_method(child, "Child", "sized")
    assert not resolve_override(m, t, _index).overrides


def test_no_override_on_new_method():
    records, _index = index_of(PARENT_CHILD)
    child = record_of(records, "Child.java")
    m, t = find_method(child, "Child", "other")
    assert not resolve_override(m, t, _index).overrides


def test_override_of_deprecated_parent():
    records, _index = index_of({
        "p/Parent.java": "package p;\npublic class Parent {\n"
                         "    @Deprecated public void work() {}\n}\n",
        "p/Child.java": "package p;\npublic class Child extends Parent {\n"
                        "    public void work() {}\n}\n",
    })
    child = record_of(records, "Child.java")
    m, t = find_method(child, "Child", "work")
    r = resolve_override(m, t, _index)
    assert r.overrides and r.parent_deprecated


def test_external_parent_marks_unresolved():
    records, _index = index_of({
        "p/Child.java": "package p;\n"
                        "public class Child extends vendor.Base {\n"
                        "    public void work() {}\n}\n",
    })
    m, t = find_method(records[0], "Child", "work")
    r = resolve_override(m, t, _index)
    assert not r.overrides
    assert not r.parent_resolved


def test_object_methods_match():
    records, _index = index_of({
        "p/Plain.java": "package p;\npublic class Plain {\n"
                        "    public boolean equals(Object other) { return false; }\n"
                        "    public int hashCode() { return 1; }\n"
                        "    public String toString() { return \"\"; }\n"
                        "    protected void finalize() {}\n"
                        "    public boolean equals(String other) { return false; }\n"
                        "}\n",
    })
    plain = records[0]
    cases = {}
    for t in plain.types:
        for m in t.methods:
            cases[(m.name, m.params[0] if m.params else None)] = (
                resolve_override(m, t, _index))
    assert cases[("equals", "Object")].overrides
    assert cases[("hashCode", None)].overrides
    assert cases[("toString", None)].overrides
    finalize = cases[("finalize", None)]
    assert finalize.overrides and finalize.parent_deprecated
    assert not cases[("equals", "String")].overrides


def test_static_and_private_parents_not_overridable():
    records, _index = index_of({
        "p/Parent.java": "package p;\npublic class Parent {\n"
                         "    public static void util() {}\n"
                         "    private void hidden() {}\n}\n",
        "p/Child.java": "package p;\npublic class Child extends Parent {\n"
                        "    public void util() {}\n"
                        "    public void hidden() {}\n}\n",
    })
    child = record_of(records, "Child.java")
    for name in ("util", "hidden"):
        m, t = find_method(child, "Child", name)
        assert not resolve_override(m, t, _index).overrides, name


def test_package_private_foreign_package_not_overridable():
    records, _index = index_of({
        "a/Parent.java": "package a;\npublic class Parent {\n"
                         "    void work() {}\n}\n",
        "b/Child.java": "package b;\nimport a.Parent;\n"
                        "public class Child extends Parent {\n"
                        "    void work() {}\n}\n",
    })
    child = record_of(records, "Child.java")
    m, t = find_method(child, "Child", "work")
    assert not resolve_override(m, t, _index).overrides


# --- static access resolution ------------------------------------------------

UTIL = ("package p;\npublic class Utils {\n"
        "    public static void doWork() {}\n"
        "    public static int LIMIT = 3;\n}\n")


def run_accesses(caller_body: str):
    files = {
        "p/Utils.java": UTIL,
        "p/Caller.java": "package p;\npublic class Caller {\n"
                         "    Utils utilInstance = new Utils();\n"
                         "    Utils getUtils() { return utilInstance; }\n"
                         f"    void caller() {{\n{caller_body}\n    }}\n"
                         "}\n",
    }
    records, index = index_of(files)
    caller = record_of(records, "Caller.java")
    return [(a, resolve_static_access(a, caller.path, index))
            for a in caller.accesses]


def test_class_name_receiver_is_correctly_qualified():
    results = run_accesses("        Utils.doWork();")
    (a, r), = [x for x in results if x[0].member_name == "doWork"]
    assert a.through_class
    assert r.resolved and r.qualified_correctly


def test_instance_receiver_is_flagged_form():
    results = run_accesses("        utilInstance.doWork();")
    (a, r), = [x for x in results if x[0].member_name == "doWork"]
    assert a == (6, "doWork", False, "Utils")
    assert r.resolved and not r.qualified_correctly


def test_method_return_receiver_is_flagged_form():
    results = run_accesses("        getUtils().doWork();")
    (a, r), = [x for x in results if x[0].member_name == "doWork"]
    assert a == (6, "doWork", False, "Utils")
    assert r.resolved and not r.qualified_correctly


def test_external_receiver_unresolved():
    results = run_accesses("        com.vendor.Lib.doWork();")
    for a, r in results:
        if a.member_name == "doWork":
            assert not r.resolved


def test_implicit_receiver_unresolved_by_design():
    model = parse_compilation_unit(
        "package p;\npublic class Self {\n"
        "    static void helper() {}\n"
        "    void caller() { helper(); }\n}\n", "p/Self.java")
    (caller,) = [m for m in model.types[0].members if m.name == "caller"]
    # Never resolved, so never recorded, inspected or flagged.
    assert caller.body.accesses == []
    record = file_record(model)
    assert record.accesses == ()
    index = build_project_index([record])
    assert check_unqualified_static(
        record, CheckContext(index, None, None)) == ([], 0)


def test_overloaded_static_and_instance_name_is_ambiguous():
    records, index = index_of({
        "p/Mixed.java": "package p;\npublic class Mixed {\n"
                        "    public static void go(int n) {}\n"
                        "    public void go() {}\n}\n",
        "p/User.java": "package p;\npublic class User {\n"
                       "    Mixed mixed = new Mixed();\n"
                       "    void caller() { mixed.go(); }\n}\n",
    })
    user = record_of(records, "User.java")
    (a,) = [a for a in user.accesses if a.member_name == "go"]
    assert not resolve_static_access(a, user.path, index).resolved


def test_field_static_access_through_instance():
    results = run_accesses("        int x = utilInstance.LIMIT;")
    hits = [(a, r) for a, r in results if a.member_name == "LIMIT"]
    assert hits
    a, r = hits[0]
    assert r.resolved and not r.qualified_correctly


# --- randomized oracles -------------------------------------------------------


def random_hierarchy(rng, n_types, members_of):
    """Declarations of classes T0..T{n-1} of package z: {path: (k, parent
    number or None, members)}. Each class extends at most one class, most
    often an earlier one, sometimes any one (a cycle, or itself); some
    are declared a second time, before or after the first in discovery
    order, with a parent and members of their own."""
    def parent(k):
        roll = rng.random()
        if roll < 0.6 and k:
            return rng.randrange(k)
        return rng.randrange(n_types) if roll < 0.8 else None

    decls = {}
    for k in range(n_types):
        decls[f"z/T{k}.java"] = (k, parent(k), members_of())
        if rng.random() < 0.25:
            decls[f"{rng.choice(('a', 'zz'))}/T{k}.java"] = (
                k, parent(k), members_of())
    return decls


def class_source(k, parent, body):
    ext = f" extends T{parent}" if parent is not None else ""
    return f"package z;\npublic class T{k}{ext} {{\n{body}}}\n"


def kept_hierarchy(decls):
    """Brute force of what the index keeps of random_hierarchy: per class
    number the path of its first declaration in discovery order, and the
    parent edges of those declarations once self edges and, walking from
    each class in name order, every edge back into the walk are dropped.
    """
    kept = {}
    for path in sorted(decls):
        kept.setdefault(decls[path][0], path)
    parent_of = {k: decls[path][1] for k, path in kept.items()
                 if decls[path][1] not in (None, k)}
    done = set()
    for node in sorted(kept, key=lambda k: f"z.T{k}"):
        walk = []
        while node is not None and node not in done:
            walk.append(node)
            if parent_of.get(node) in walk:
                del parent_of[node]
                break
            node = parent_of.get(node)
        done.update(walk)
    return kept, parent_of


def ancestors(k, parent_of):
    chain = []
    while k in parent_of:
        k = parent_of[k]
        chain.append(k)
    return chain


OBJECT_SIGS = [(False, ("equals", ("Object",))), (False, ("hashCode", ())),
               (False, ("toString", ())), (True, ("finalize", ()))]


def test_override_resolution_matches_brute_force():
    rng = random.Random(20240816)
    method_pool = [
        ("alpha", ()), ("alpha", ("int",)), ("beta", ()),
        ("beta", ("String",)), ("gamma", ("int",)),
        ("hashCode", ()), ("finalize", ()),
    ]

    def members_of():
        return [(rng.random() < 0.3, sig)
                for sig in rng.sample(method_pool, rng.randint(1, 4))]

    duplicates = cycles = 0
    for trial in range(120):
        n_types = rng.randint(2, 5)
        decls = random_hierarchy(rng, n_types, members_of)
        files = {}
        for path, (k, parent, members) in decls.items():
            body = ""
            for depr, (name, ptypes) in members:
                params = ", ".join(f"{pt} p{n}" for n, pt in enumerate(ptypes))
                ann = "@Deprecated " if depr else ""
                ret, impl = (("int", "{ return 0; }") if name == "hashCode"
                             else ("void", "{}"))
                body += f"    {ann}public {ret} {name}({params}) {impl}\n"
            files[path] = class_source(k, parent, body)

        records, index = index_of(files)
        kept, parent_of = kept_hierarchy(decls)
        dropped = sum(decls[path][1] not in (None, k) and k not in parent_of
                      for k, path in kept.items())
        assert sum("duplicate type" in d for d in index.diagnostics) == \
            len(decls) - len(kept), trial
        assert sum("inheritance cycle" in d
                   for d in index.diagnostics) == dropped, trial
        duplicates += len(decls) - len(kept)
        cycles += dropped
        for record in records:
            k, parent, members = decls[record.path]
            chain = [decls[kept[j]][2] for j in ancestors(k, parent_of)]
            chain.append(OBJECT_SIGS)
            if parent is None:
                want_resolved = True
            else:
                want_resolved = kept[k] == record.path and k in parent_of
            (t,) = record.types
            assert [(m.name, m.params) for m in t.methods] == [
                sig for _, sig in members]
            for m in t.methods:
                sig = (m.name, m.params)
                want_over, want_depr = next(
                    ((True, depr) for level in chain
                     for depr, declared in level if declared == sig),
                    (False, False))
                got = resolve_override(m, t, index)
                where = (trial, record.path, sig)
                assert got.overrides == want_over, where
                assert got.parent_resolved == want_resolved, where
                if want_over:
                    assert got.parent_deprecated == want_depr, where
    assert duplicates > 20 and cycles > 10


MEMBER_DECLS = ("static int {}", "int {}", "static void {}() {{}}",
                "void {}() {{}}")
STATIC_KINDS = {0, 2}


def test_static_access_resolution_matches_brute_force():
    rng = random.Random(20240817)
    names = ["alpha", "beta", "gamma", "delta"]
    pool = [(name, kind) for name in names for kind in range(4)]

    def members_of():
        return rng.sample(pool, rng.randint(0, 5))

    duplicates = cycles = 0
    for trial in range(120):
        n_types = rng.randint(1, 5)
        decls = random_hierarchy(rng, n_types, members_of)
        files = {path: class_source(k, parent, "".join(
                     f"    {MEMBER_DECLS[kind].format(name)};\n"
                     for name, kind in members))
                 for path, (k, parent, members) in decls.items()}
        stmts = []
        for i in range(n_types):
            for name in names:
                for receiver in (f"T{i}", f"p{i}"):
                    stmts.append(f"        {receiver}.{name}();"
                                 if rng.random() < 0.5
                                 else f"        x = {receiver}.{name};")
        params = ", ".join(f"T{i} p{i}" for i in range(n_types))
        files["z/Caller.java"] = (
            "package z;\npublic class Caller {\n"
            f"    void run({params}) {{\n        int x = 0;\n"
            + "\n".join(stmts) + "\n    }\n}\n")

        records, index = index_of(files)
        kept, parent_of = kept_hierarchy(decls)
        duplicates += len(decls) - len(kept)
        cycles += sum("inheritance cycle" in d for d in index.diagnostics)
        caller = record_of(records, "z/Caller.java")
        accesses = [a for a in caller.accesses if a.member_name in names]
        assert len(accesses) == len(stmts), trial
        for a in accesses:
            i = int(a.receiver_type[1:])
            kinds = {kind for j in [i, *ancestors(i, parent_of)]
                     for name, kind in decls[kept[j]][2]
                     if name == a.member_name}
            want = bool(kinds & STATIC_KINDS) and kinds <= STATIC_KINDS
            got = resolve_static_access(a, caller.path, index)
            assert got.resolved == want, (trial, i, a)
            assert got.qualified_correctly == (
                want and a.through_class), (trial, i, a)
    assert duplicates > 20 and cycles > 10


def test_method_signature_erases_dotted_and_array_types():
    model = parse_compilation_unit(
        "class S { void f(java.lang.String[] a, int b) {} }", "S.java")
    (m,) = file_record(model).types[0].methods
    assert m.name == "f"
    assert m.params == ("String[]", "int")


# --- resolution inside a duplicated type -------------------------------------

# p.Thing is declared three times: kept from a/, ignored from b/ and c/.
# An ignored copy resolves its methods along the kept type's chain, but
# parent_resolved follows its own declared supertypes (it has no resolved
# ones), its package is its own and its names resolve in its own file.
DUPLICATED = {
    "a/p/Thing.java": "package p;\nclass Thing extends Base {\n"
                      "    public void work() {}\n"
                      "    void nearby() {}\n}\n",
    "b/p/Thing.java": "package p;\nimport q.Util;\n"
                      "class Thing extends Other {\n"
                      "    public void work() {}\n"
                      "    void nearby() {}\n"
                      "    void use(Util u) { u.LIMIT++; Util.LIMIT++; }\n}\n",
    "c/p/Thing.java": "package p;\nclass Thing {\n"
                      "    public void work() {}\n"
                      "    void use(Util u) { u.LIMIT++; }\n}\n",
    "d/Outer.java": "class p {\n    class Thing extends Base {\n"
                    "        public void work() {}\n"
                    "        void nearby() {}\n    }\n}\n",
    "p/Base.java": "package p;\npublic class Base {\n"
                   "    public void work() {}\n"
                   "    void nearby() {}\n}\n",
    "p/Other.java": "package p;\npublic class Other {}\n",
    "q/Util.java": "package q;\npublic class Util {\n"
                   "    public static int LIMIT = 1;\n}\n",
}


def duplicated_resolutions():
    """(path, method, 'override') or (path, accessed name, 'class' or
    'instance' receiver) -> resolution tuple for every instance method of
    each Thing and every explicit-receiver access."""
    records, index = index_of(DUPLICATED)
    out = {}
    for record in records:
        for t in record.types:
            if not t.qualified.endswith("Thing"):
                continue
            for m in t.methods:
                r = resolve_override(m, t, index)
                out[record.path, m.name, "override"] = (
                    r.overrides, r.parent_deprecated, r.parent_resolved)
        for a in record.accesses:
            r = resolve_static_access(a, record.path, index)
            receiver = "class" if a.through_class else "instance"
            out[record.path, a.member_name, receiver] = (
                r.resolved, r.qualified_correctly)
    return out, records, index


def test_resolution_inside_a_duplicated_type():
    got, records, index = duplicated_resolutions()
    assert index.by_qualified["p.Thing"] is record_of(
        records, "a/p/Thing.java").types[0]
    assert [d for d in index.diagnostics if "duplicate" in d] == [
        "duplicate type p.Thing: kept a/p/Thing.java, ignored b/p/Thing.java",
        "duplicate type p.Thing: kept a/p/Thing.java, ignored c/p/Thing.java",
        "duplicate type p.Thing: kept a/p/Thing.java, ignored d/Outer.java",
    ]
    assert got == {
        # the kept type: its own resolved chain
        ("a/p/Thing.java", "work", "override"): (True, False, True),
        ("a/p/Thing.java", "nearby", "override"): (True, False, True),
        # declares Other, which resolves, yet no supertype of its own is
        # resolved, so the parent does not count as resolved
        ("b/p/Thing.java", "work", "override"): (True, False, False),
        ("b/p/Thing.java", "nearby", "override"): (True, False, False),
        ("b/p/Thing.java", "use", "override"): (False, False, False),
        # q.Util resolves through b's own import
        ("b/p/Thing.java", "LIMIT", "instance"): (True, False),
        ("b/p/Thing.java", "LIMIT", "class"): (True, True),
        # no declared supertypes: resolved
        ("c/p/Thing.java", "work", "override"): (True, False, True),
        ("c/p/Thing.java", "use", "override"): (False, False, True),
        # c has no import of q.Util
        ("c/p/Thing.java", "LIMIT", "instance"): (False, False),
        # in the default package, Base's package-private method is not
        # visible; the public one is
        ("d/Outer.java", "work", "override"): (True, False, False),
        ("d/Outer.java", "nearby", "override"): (False, False, False),
    }


def test_the_index_holds_the_records_own_types():
    # The index keeps the records' TypeRecords, not copies of them.
    for files in [*fixture_trees(), DUPLICATED]:
        records, index = index_of(files)
        own = {id(t): t for record in records for t in record.types}
        assert index.by_qualified
        assert [q for q, t in index.by_qualified.items()
                if own.get(id(t)) is not t] == []
