"""Cross-file type/member resolution and override/static-access logic."""

import random
from pathlib import Path

import pytest

from javastyle.analysis import analyze_repository
from javastyle.model import simple_name_of
from javastyle.parser import parse_compilation_unit
from javastyle.project_index import (OBJECT_TYPE, ProjectIndex,
                                     build_project_index, method_signature,
                                     resolve_override, resolve_static_access)

from helpers import write_tree


def index_of(files: dict[str, str]):
    models = [parse_compilation_unit(text, path)
              for path, text in sorted(files.items())]
    return models, build_project_index(models)


def entry(index, qualified):
    e = index.by_qualified.get(qualified)
    assert e is not None, qualified
    return e


def find_method(model, type_name, method_name):
    for t in model.all_types():
        if t.name == type_name:
            for m in t.members:
                if m.name == method_name:
                    return m, t
    raise AssertionError(f"{type_name}.{method_name} not found")


# --- type registration and resolution ---------------------------------------


def test_qualified_names_and_nesting():
    _, index = index_of({
        "a/Outer.java": "package a;\npublic class Outer {\n"
                        "    public static class Inner {}\n}e".replace("}e", "}"),
    })
    assert "a.Outer" in index.by_qualified
    assert index.by_qualified["a.Outer.Inner"].fact.name == "Inner"


def test_resolution_order_same_file_first():
    models, index = index_of({
        "p/Main.java": "package p;\nimport q.Helper;\n"
                       "class Helper {}\nclass Main extends Helper {}\n",
        "q/Helper.java": "package q;\npublic class Helper {}\n",
    })
    main = entry(index, "p.Main")
    assert main.resolved_supertypes == ["p.Helper"]


def test_resolution_same_package_then_import_then_wildcard():
    models, index = index_of({
        "p/Main.java": "package p;\nimport r.Exact;\nimport s.*;\n"
                       "class Main extends Local {}\n"
                       "class FromImport extends Exact {}\n"
                       "class FromWild extends Wild {}\n",
        "p/Local.java": "package p;\nclass Local {}\n",
        "r/Exact.java": "package r;\npublic class Exact {}\n",
        "s/Wild.java": "package s;\npublic class Wild {}\n",
    })
    assert entry(index, "p.Main").resolved_supertypes == ["p.Local"]
    assert entry(index, "p.FromImport").resolved_supertypes == ["r.Exact"]
    assert entry(index, "p.FromWild").resolved_supertypes == ["s.Wild"]


def test_unresolvable_supertype_is_external():
    _, index = index_of({
        "p/Main.java": "package p;\n"
                       "class Main extends com.vendor.Widget {}\n",
    })
    e = entry(index, "p.Main")
    assert e.resolved_supertypes == []
    assert e.external_supertypes == ["com.vendor.Widget"]


def test_duplicate_qualified_name_first_wins():
    _, index = index_of({
        "a/p/Thing.java": "package p;\nclass Thing { void one() {} }\n",
        "b/p/Thing.java": "package p;\nclass Thing { void two() {} }\n",
    })
    e = entry(index, "p.Thing")
    assert e.file == "a/p/Thing.java"
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
    write_tree(tmp_path, {"src/p/Chain.java": "package p;\n" + "".join(
        f"class C{k:04d} extends C{k + 1:04d} {{}}\n" for k in range(depth)
    ) + f"class C{depth:04d} {{}}\n"})
    result = analyze_repository(str(tmp_path))
    assert result.diagnostics == []
    assert len(result.index.supertype_chain("p.C0000")) == depth + 1


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
        for sup in index.by_qualified[q].resolved_supertypes:
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
    models, index = index_of(files)
    for model in models:
        for t in model.all_types():
            for m in t.members:
                resolve_override(m, t, index)
                for access in m.body.accesses if m.body else ():
                    resolve_static_access(access, t, index)
    assert sorted(walks) == ["p.Child", "p.Parent", "p.User"]


def test_override_same_signature():
    models, _index = index_of(PARENT_CHILD)
    child = [m for m in models if m.path.endswith("Child.java")][0]
    m, t = find_method(child, "Child", "work")
    r = resolve_override(m, t, _index)
    assert r.overrides and r.parent_resolved and not r.parent_deprecated


def test_no_override_on_different_param_types():
    models, _index = index_of(PARENT_CHILD)
    child = [m for m in models if m.path.endswith("Child.java")][0]
    m, t = find_method(child, "Child", "sized")
    assert not resolve_override(m, t, _index).overrides


def test_no_override_on_new_method():
    models, _index = index_of(PARENT_CHILD)
    child = [m for m in models if m.path.endswith("Child.java")][0]
    m, t = find_method(child, "Child", "other")
    assert not resolve_override(m, t, _index).overrides


def test_override_of_deprecated_parent():
    models, _index = index_of({
        "p/Parent.java": "package p;\npublic class Parent {\n"
                         "    @Deprecated public void work() {}\n}\n",
        "p/Child.java": "package p;\npublic class Child extends Parent {\n"
                        "    public void work() {}\n}\n",
    })
    child = [m for m in models if m.path.endswith("Child.java")][0]
    m, t = find_method(child, "Child", "work")
    r = resolve_override(m, t, _index)
    assert r.overrides and r.parent_deprecated


def test_external_parent_marks_unresolved():
    models, _index = index_of({
        "p/Child.java": "package p;\n"
                        "public class Child extends vendor.Base {\n"
                        "    public void work() {}\n}\n",
    })
    child = models[0]
    m, t = find_method(child, "Child", "work")
    r = resolve_override(m, t, _index)
    assert not r.overrides
    assert not r.parent_resolved


def test_object_methods_match():
    models, _index = index_of({
        "p/Plain.java": "package p;\npublic class Plain {\n"
                        "    public boolean equals(Object other) { return false; }\n"
                        "    public int hashCode() { return 1; }\n"
                        "    public String toString() { return \"\"; }\n"
                        "    protected void finalize() {}\n"
                        "    public boolean equals(String other) { return false; }\n"
                        "}\n",
    })
    plain = models[0]
    cases = {}
    for t in plain.all_types():
        for m in t.members:
            cases[(m.name, m.params[0].type_name if m.params else None)] = (
                resolve_override(m, t, _index))
    assert cases[("equals", "Object")].overrides
    assert cases[("hashCode", None)].overrides
    assert cases[("toString", None)].overrides
    finalize = cases[("finalize", None)]
    assert finalize.overrides and finalize.parent_deprecated
    assert not cases[("equals", "String")].overrides


def test_static_and_private_parents_not_overridable():
    models, _index = index_of({
        "p/Parent.java": "package p;\npublic class Parent {\n"
                         "    public static void util() {}\n"
                         "    private void hidden() {}\n}\n",
        "p/Child.java": "package p;\npublic class Child extends Parent {\n"
                        "    public void util() {}\n"
                        "    public void hidden() {}\n}\n",
    })
    child = [m for m in models if m.path.endswith("Child.java")][0]
    for name in ("util", "hidden"):
        m, t = find_method(child, "Child", name)
        assert not resolve_override(m, t, _index).overrides, name


def test_package_private_foreign_package_not_overridable():
    models, _index = index_of({
        "a/Parent.java": "package a;\npublic class Parent {\n"
                         "    void work() {}\n}\n",
        "b/Child.java": "package b;\nimport a.Parent;\n"
                        "public class Child extends Parent {\n"
                        "    void work() {}\n}\n",
    })
    child = [m for m in models if m.path.endswith("Child.java")][0]
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
    models, index = index_of(files)
    caller = [m for m in models if m.path.endswith("Caller.java")][0]
    m, t = find_method(caller, "Caller", "caller")
    return [(a, resolve_static_access(a, t, index)) for a in m.body.accesses]


def test_class_name_receiver_is_correctly_qualified():
    results = run_accesses("        Utils.doWork();")
    (a, r), = [x for x in results if x[0].member_name == "doWork"]
    assert a.receiver_form == "className"
    assert r.resolved and r.qualified_correctly


def test_instance_receiver_is_flagged_form():
    results = run_accesses("        utilInstance.doWork();")
    (a, r), = [x for x in results if x[0].member_name == "doWork"]
    assert a.receiver_form == "instanceExpr"
    assert r.resolved and not r.qualified_correctly


def test_method_return_receiver_is_flagged_form():
    results = run_accesses("        getUtils().doWork();")
    (a, r), = [x for x in results if x[0].member_name == "doWork"]
    assert a.receiver_form == "methodReturn"
    assert r.resolved and not r.qualified_correctly


def test_external_receiver_unresolved():
    results = run_accesses("        com.vendor.Lib.doWork();")
    for a, r in results:
        if a.member_name == "doWork":
            assert not r.resolved


def test_implicit_receiver_unresolved_by_design():
    models, index = index_of({
        "p/Self.java": "package p;\npublic class Self {\n"
                       "    static void helper() {}\n"
                       "    void caller() { helper(); }\n}\n",
    })
    m, t = find_method(models[0], "Self", "caller")
    implicit = [a for a in m.body.accesses if a.receiver_form == "implicit"]
    assert implicit
    assert all(not resolve_static_access(a, t, index).resolved
               for a in implicit)


def test_overloaded_static_and_instance_name_is_ambiguous():
    models, index = index_of({
        "p/Mixed.java": "package p;\npublic class Mixed {\n"
                        "    public static void go(int n) {}\n"
                        "    public void go() {}\n}\n",
        "p/User.java": "package p;\npublic class User {\n"
                       "    Mixed mixed = new Mixed();\n"
                       "    void caller() { mixed.go(); }\n}\n",
    })
    user = [m for m in models if m.path.endswith("User.java")][0]
    m, t = find_method(user, "User", "caller")
    (a,) = [a for a in m.body.accesses if a.member_name == "go"]
    assert not resolve_static_access(a, t, index).resolved


def test_field_static_access_through_instance():
    results = run_accesses("        int x = utilInstance.LIMIT;")
    hits = [(a, r) for a, r in results if a.member_name == "LIMIT"]
    assert hits
    a, r = hits[0]
    assert r.resolved and not r.qualified_correctly


# --- randomized override oracle ----------------------------------------------


def brute_force_overrides(chain_decls, sig):
    """First matching public instance method along the chain, if any.

    chain_decls: list of (deprecated, set of signatures) walking up the
    chain; Object's methods are appended by the caller.
    """
    for deprecated_sigs in chain_decls:
        for is_deprecated, declared_sig in deprecated_sigs:
            if declared_sig == sig:
                return True, is_deprecated
    return False, False


def test_override_resolution_matches_brute_force():
    rng = random.Random(20240816)
    object_sigs = [
        (False, ("equals", ("Object",))),
        (False, ("hashCode", ())),
        (False, ("toString", ())),
        (True, ("finalize", ())),
    ]
    method_pool = [
        ("alpha", ()), ("alpha", ("int",)), ("beta", ()),
        ("beta", ("String",)), ("gamma", ("int",)),
        ("hashCode", ()), ("finalize", ()),
    ]
    for trial in range(60):
        n_types = rng.randint(2, 5)
        parents = [None] + [rng.randrange(i) if rng.random() < 0.8 else None
                            for i in range(1, n_types)]
        decls = [rng.sample(method_pool, rng.randint(1, 4))
                 for _ in range(n_types)]
        deprecated = [[rng.random() < 0.3 for _ in ds] for ds in decls]

        files = {}
        for i in range(n_types):
            lines = [f"package z;", ""]
            ext = f" extends T{parents[i]}" if parents[i] is not None else ""
            lines.append(f"public class T{i}{ext} {{")
            for (name, ptypes), depr in zip(decls[i], deprecated[i]):
                params = ", ".join(f"{pt} p{k}"
                                   for k, pt in enumerate(ptypes))
                ann = "@Deprecated " if depr else ""
                ret = "int" if name == "hashCode" else "void"
                body = "{ return 0; }" if ret == "int" else "{}"
                lines.append(f"    {ann}public {ret} {name}({params}) {body}")
            lines.append("}")
            files[f"z/T{i}.java"] = "\n".join(lines) + "\n"

        models, index = index_of(files)
        by_name = {m.path: m for m in models}
        for i in range(n_types):
            # expected: walk parent chain (excluding self), then Object
            chain = []
            j = parents[i]
            while j is not None:
                chain.append([(deprecated[j][k], decls[j][k])
                              for k in range(len(decls[j]))])
                j = parents[j]
            chain.append(object_sigs)

            model = by_name[f"z/T{i}.java"]
            t = model.types[0]
            for m in t.members:
                if m.kind != "instanceMethod":
                    continue
                sig = (m.name, tuple(p.type_name for p in m.params))
                want_over, want_depr = brute_force_overrides(chain, sig)
                got = resolve_override(m, t, index)
                assert got.overrides == want_over, (trial, i, sig)
                if want_over:
                    assert got.parent_deprecated == want_depr, (trial, i, sig)


# --- randomized static-access oracle -----------------------------------------

MEMBER_DECLS = ("static int {}", "int {}", "static void {}() {{}}",
                "void {}() {{}}")
STATIC_KINDS = {0, 2}


def test_static_access_resolution_matches_brute_force():
    rng = random.Random(20240817)
    names = ["alpha", "beta", "gamma", "delta"]
    pool = [(name, kind) for name in names for kind in range(4)]
    for trial in range(60):
        n_types = rng.randint(1, 5)
        parents = [None] + [rng.randrange(i) if rng.random() < 0.8 else None
                            for i in range(1, n_types)]
        decls = [rng.sample(pool, rng.randint(0, 5)) for _ in range(n_types)]

        files = {}
        for i in range(n_types):
            ext = f" extends T{parents[i]}" if parents[i] is not None else ""
            members = "".join(f"    {MEMBER_DECLS[kind].format(name)};\n"
                              for name, kind in decls[i])
            files[f"z/T{i}.java"] = (f"package z;\npublic class T{i}{ext} {{\n"
                                     f"{members}}}\n")
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

        models, index = index_of(files)
        caller = [m for m in models if m.path == "z/Caller.java"][0]
        m, t = find_method(caller, "Caller", "run")
        accesses = [a for a in m.body.accesses if a.member_name in names]
        assert len(accesses) == len(stmts), trial
        for a in accesses:
            i = int(a.receiver_type[1:])
            kinds = set()
            j = i
            while j is not None:
                kinds |= {kind for name, kind in decls[j]
                          if name == a.member_name}
                j = parents[j]
            want = bool(kinds & STATIC_KINDS) and kinds <= STATIC_KINDS
            got = resolve_static_access(a, t, index)
            assert got.resolved == want, (trial, i, a)
            assert got.qualified_correctly == (
                want and a.receiver_form == "className"), (trial, i, a)


def test_method_signature_erases_dotted_and_array_types():
    model = parse_compilation_unit(
        "class S { void f(java.lang.String[] a, int b) {} }", "S.java")
    m = model.types[0].members[0]
    sig = method_signature(m)
    assert sig.name == "f"
    assert len(sig.param_type_names) == 2
    assert sig.param_type_names == ("String[]", "int")
