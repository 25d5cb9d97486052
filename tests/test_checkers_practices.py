"""Best-practice checks: overrides, catches, statics, finalize, fields,
concatenation, and dead code."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javastyle.analysis import analyze_repository, decode_source
from javastyle.checkers import (CHECKS, ORDERING_CONFIGS, PROJECT, Category,
                                CheckContext, check_empty_catch,
                                check_finalize_override,
                                check_private_instances,
                                check_string_concatenation,
                                check_useless, check_variable_names,
                                looks_like_code)
from javastyle.project_index import build_project_index, file_record

from helpers import analyze_files, of_category, parse_source, run_check

FIXTURES = Path(__file__).parent / "fixtures"


def single(src, checker, path="p/Demo.java"):
    return run_check(checker, parse_source(src, path))


# --- missing @Override ------------------------------------------------------


def override_violations(files, lexicon):
    violations = analyze_files(files, lexicon)
    return of_category(violations, Category.MISSING_OVERRIDE)


PARENT = "package p;\npublic class Base {\n  public void go() {}\n}\n"


def test_cross_file_missing_override(lexicon):
    out = override_violations({
        "p/Base.java": PARENT,
        "p/Child.java": ("package p;\npublic class Child extends Base {\n"
                         "  public void go() {}\n}\n"),
    }, lexicon)
    assert len(out) == 1
    assert out[0].file_path == "p/Child.java" and out[0].line == 3
    assert out[0].detail == "go"


def test_annotated_override_is_clean(lexicon):
    out = override_violations({
        "p/Base.java": PARENT,
        "p/Child.java": ("package p;\npublic class Child extends Base {\n"
                         "  @Override public void go() {}\n}\n"),
    }, lexicon)
    assert out == []


def test_deprecated_parent_method_suppresses(lexicon):
    out = override_violations({
        "p/Base.java": ("package p;\npublic class Base {\n"
                        "  @Deprecated public void go() {}\n}\n"),
        "p/Child.java": ("package p;\npublic class Child extends Base {\n"
                         "  public void go() {}\n}\n"),
    }, lexicon)
    assert out == []


def test_external_parent_not_flagged(lexicon):
    out = override_violations({
        "p/Child.java": ("package p;\nimport com.vendor.Widget;\n"
                         "public class Child extends Widget {\n"
                         "  public void paint() {}\n}\n"),
    }, lexicon)
    assert out == []


def test_object_equals_needs_override(lexicon):
    out = override_violations({
        "p/Thing.java": ("package p;\npublic class Thing {\n"
                         "  public boolean equals(Object other) { return false; }\n"
                         "  public boolean equals(String other) { return false; }\n"
                         "}\n"),
    }, lexicon)
    assert [v.line for v in out] == [3]


def test_object_finalize_is_deprecated_so_suppressed(lexicon):
    out = override_violations({
        "p/Thing.java": ("package p;\npublic class Thing {\n"
                         "  protected void finalize() {}\n}\n"),
    }, lexicon)
    assert out == []


def test_overload_is_not_an_override(lexicon):
    out = override_violations({
        "p/Base.java": PARENT,
        "p/Child.java": ("package p;\npublic class Child extends Base {\n"
                         "  public void go(int speed) {}\n}\n"),
    }, lexicon)
    assert out == []


# --- empty catch blocks ------------------------------------------------------


def catches(src):
    return single(src, check_empty_catch)


def test_empty_catch_flagged():
    src = ("class A { void f() {\n"
           "try { g(); } catch (Exception e) {}\n} void g() {} }")
    out = catches(src)
    assert len(out) == 1 and out[0].line == 2
    assert out[0].category is Category.EMPTY_CATCH_BLOCK


def test_comment_inside_catch_exempts():
    src = ("class A { void f() {\n"
           "try { g(); } catch (Exception e) { /* fine */ }\n} void g() {} }")
    assert catches(src) == []
    src = ("class A { void f() {\n"
           "try { g(); } catch (Exception e) {\n// nothing to do\n}\n"
           "} void g() {} }")
    assert catches(src) == []


def test_expected_name_in_test_method_exempts():
    src = ("class ThingTest { void testPop() {\n"
           "try { g(); } catch (Exception expected) {}\n} void g() {} }")
    assert catches(src) == []
    src = ("class ThingTest { @Test void popFails() {\n"
           "try { g(); } catch (Exception expectedError) {}\n} void g() {} }")
    assert catches(src) == []


def test_expected_name_outside_test_still_fires():
    src = ("class Thing { void pop() {\n"
           "try { g(); } catch (Exception expected) {}\n} void g() {} }")
    assert len(catches(src)) == 1


def test_other_name_in_test_still_fires():
    src = ("class ThingTest { void testPop() {\n"
           "try { g(); } catch (Exception oops) {}\n} void g() {} }")
    assert len(catches(src)) == 1


def test_nonempty_catch_ok():
    src = ("class A { void f() {\n"
           "try { g(); } catch (Exception e) { g(); }\n} void g() {} }")
    assert catches(src) == []


# --- unqualified static access ----------------------------------------------

UTILS = ("package p;\npublic class Utils {\n"
         "  public static int LIMIT = 9;\n"
         "  public static void doWork() {}\n"
         "  public Utils self() { return this; }\n}\n")


def static_access(files, lexicon):
    violations = analyze_files(files, lexicon)
    return of_category(violations, Category.UNQUALIFIED_STATIC_ACCESS)


def test_class_qualified_access_ok(lexicon):
    out = static_access({
        "p/Utils.java": UTILS,
        "p/Use.java": ("package p;\nclass Use { void f() {\n"
                       "Utils.doWork();\nint n = Utils.LIMIT;\n} }\n"),
    }, lexicon)
    assert out == []


def test_instance_receiver_flagged(lexicon):
    out = static_access({
        "p/Utils.java": UTILS,
        "p/Use.java": ("package p;\nclass Use { void f() {\n"
                       "Utils u = new Utils();\n"
                       "u.doWork();\nint n = u.LIMIT;\n} }\n"),
    }, lexicon)
    assert sorted(v.line for v in out) == [4, 5]
    assert all("static" in v.message for v in out)


def test_method_return_receiver_flagged(lexicon):
    out = static_access({
        "p/Utils.java": UTILS,
        "p/Use.java": ("package p;\nclass Use {\n"
                       "Utils getUtils() { return new Utils(); }\n"
                       "void f() { getUtils().doWork(); } }\n"),
    }, lexicon)
    assert len(out) == 1 and out[0].line == 4


def test_this_receiver_flagged(lexicon):
    out = static_access({
        "p/Own.java": ("package p;\nclass Own {\n"
                       "  static int SIZE = 1;\n"
                       "  void f() { int n = this.SIZE; }\n}\n"),
    }, lexicon)
    assert len(out) == 1 and out[0].line == 4


def test_same_line_accesses_report_this_last(lexicon):
    # this.x / super.x accesses are recorded after a body's other accesses,
    # so on one line the other receiver's violation comes first.
    out = static_access({
        "p/Own.java": ("package p;\nclass Own {\n"
                       "  static int M = 1;\n  static int N = 2;\n"
                       "  int f(Own other) { return this.M + other.N; }\n}\n"),
    }, lexicon)
    assert [v.detail for v in out] == ["N", "M"]


def test_external_type_unresolved_ok(lexicon):
    out = static_access({
        "p/Use.java": ("package p;\nimport com.vendor.Widget;\n"
                       "class Use { void f() {\n"
                       "Widget w = new Widget();\nw.spin();\n} }\n"),
    }, lexicon)
    assert out == []


def test_implicit_receiver_exempt(lexicon):
    out = static_access({
        "p/Own.java": ("package p;\nclass Own {\n"
                       "  static void helper() {}\n"
                       "  void f() { helper(); }\n}\n"),
    }, lexicon)
    assert out == []


def test_static_instance_overload_ambiguous(lexicon):
    out = static_access({
        "p/Mix.java": ("package p;\nclass Mix {\n"
                       "  static void go(int n) {}\n"
                       "  void go() {}\n"
                       "  void f() { Mix m = new Mix(); m.go(1); }\n}\n"),
    }, lexicon)
    assert out == []


# --- finalize overrides ------------------------------------------------------


def finalize(src):
    return single(src, check_finalize_override)


def test_finalize_no_arg_void_flagged():
    out = finalize("class A { protected void finalize() {} }")
    assert len(out) == 1
    assert out[0].category is Category.FINALIZE_OVERRIDE


def test_finalize_with_params_ok():
    assert finalize("class A { void finalize(int n) {} }") == []


def test_finalize_nonvoid_ok():
    assert finalize("class A { int finalize() { return 1; } }") == []


def test_static_finalize_also_flagged():
    assert len(finalize("class A { static void finalize() {} }")) == 1


# --- private instances -------------------------------------------------------


def private_instances(src):
    return single(src, check_private_instances)


def test_public_and_package_fields_flagged():
    out = private_instances(
        "class A { public int a; int b; protected int c; private int d; }")
    assert sorted(v.detail for v in out) == ["a", "b"]


def test_static_fields_exempt_final_instance_not():
    out = private_instances(
        "class A { public static int a; public final int b = 1; }")
    assert [v.detail for v in out] == ["b"]


def test_interface_fields_exempt():
    assert private_instances("interface A { int LIMIT = 3; }") == []


# --- string concatenation in loops --------------------------------------------


def concat(src):
    return single(src, check_string_concatenation)


SLOW_LOOP = ('class A { void f() {\nString result = "";\n'
             'for (int i = 0; i < 50000; i++) {\nresult += i + " ";\n}\n} }')


def test_string_concat_in_loop_flagged():
    out = concat(SLOW_LOOP)
    assert len(out) == 1 and out[0].line == 4
    assert out[0].category is Category.STRING_CONCATENATION
    assert out[0].detail == "result"


def test_builder_rewrite_clean():
    src = ('class A { void f() {\nStringBuilder sb = new StringBuilder();\n'
           'for (int i = 0; i < 50000; i++) {\nsb.append(i).append(" ");\n}\n'
           'String result = sb.toString();\n} }')
    assert concat(src) == []


def test_numeric_accumulator_not_flagged():
    src = ('class A { void f() {\nint total = 0;\n'
           'for (int i = 0; i < 9; i++) {\ntotal += i;\n}\n} }')
    assert concat(src) == []


def test_string_field_target_flagged():
    src = ('class A { String log = "";\nvoid f() {\n'
           'while (ready()) {\nlog = log + "x";\n}\n}\n'
           'boolean ready() { return false; }\n}')
    out = concat(src)
    assert len(out) == 1 and out[0].line == 4


def test_string_param_target_flagged():
    src = ('class A { void f(String acc) {\n'
           'do {\nacc += "x";\n} while (go());\n}\n'
           'boolean go() { return false; }\n}')
    out = concat(src)
    assert len(out) == 1 and out[0].line == 3


def test_concat_outside_loop_ok():
    src = 'class A { void f() {\nString s = "";\ns += "x";\n} }'
    assert concat(src) == []


# --- useless code --------------------------------------------------------------


def useless(src, path="p/Demo.java"):
    return single(src, check_useless, path)


def test_unused_import_flagged():
    src = ("package p;\nimport java.util.List;\nimport java.util.Map;\n"
           "class A { List items; }\n")
    out = useless(src)
    assert len(out) == 1 and out[0].line == 3
    assert "import" in out[0].message and out[0].detail == "java.util.Map"


def test_wildcard_import_exempt_unused_static_import_not():
    src = ("package p;\nimport java.util.*;\n"
           "import static java.lang.Math.max;\nclass A {}\n")
    out = useless(src)
    assert [(v.line, v.detail) for v in out] == [(3, "java.lang.Math.max")]
    used = ("package p;\nimport static java.lang.Math.max;\n"
            "class A { int f() { return max(1, 2); } }\n")
    assert useless(used) == []


def test_unused_private_field_flagged():
    src = "class A { private int unused; private int used;\nint f() { return used; } }"
    out = useless(src)
    assert len(out) == 1 and out[0].detail == "unused"


def test_unused_private_method_flagged():
    src = ("class A { private void orphan() {}\n"
           "private void helper() {}\nvoid f() { helper(); } }")
    out = useless(src)
    assert len(out) == 1 and out[0].detail == "orphan"


def test_private_method_called_only_in_another_file_is_unused(lexicon):
    # A private method is reachable only from its own top-level class, so
    # a same-named method declared and called in another file is no use.
    out = of_category(analyze_files({
        "p/A.java": "package p;\nclass A { private void helper() {} }\n",
        "p/B.java": ("package p;\nclass B { private void helper() {}\n"
                     "  void run() { helper(); } }\n"),
    }, lexicon), Category.USELESS)
    assert [(v.file_path, v.message, v.detail) for v in out] == [
        ("p/A.java", "unused private method", "helper")]


def test_private_method_named_like_an_unused_local_is_unused():
    src = ("class A { private void tmp() {}\n"
           "void f() { int tmp = 0; } }")
    assert [(v.line, v.message) for v in useless(src)] == [
        (1, "unused private method"), (2, "unused local variable")]


@pytest.mark.parametrize("member, shadow", [
    ("private int e;",
     "void f() { try { g(); } catch (Exception e) {} } void g() {}"),
    ("private int x;",
     "Object f() { java.util.function.IntUnaryOperator op = x -> 1;"
     " return op; }"),
    ("private int v;", "enum E { v }"),
    ("private void v() {}", "enum E { v }"),
    ("private int B;", "class B {}"),
])
def test_private_member_named_like_another_declaration_is_unused(member,
                                                                 shadow):
    # Every declaring identifier is a declaration, not a use: a catch or
    # lambda parameter, an enum constant, a nested type name.
    out = useless(f"class A {{ {member}\n{shadow} }}")
    assert [(v.line, v.message.split()[-1]) for v in out] == [
        (1, "method" if "(" in member else "field")]


@pytest.mark.parametrize("use", [
    "void f() { try { g(); } catch (Exception e) { n = B; } } void g() {}",
    "Object f() { return (java.util.function.IntUnaryOperator) q -> B; }",
    "enum E { V; int w = B; }",
    "class C { int w = B; }",
    "void f(int k) { switch (k) { case B -> g(); default -> g(); } }"
    " void g() {}",
    "int f(Object o) { return switch (o) { case Integer i when i > B -> 1;"
    " default -> 0; }; }",
    "int f(Object o) { return switch (o) { case Integer i when i.equals(B)"
    " -> 1; default -> 0; }; }",
])
def test_private_member_used_beside_other_declarations_is_used(use):
    src = f"class A {{ private static final int B = 1; private int n;\n{use} }}"
    assert [v.detail for v in useless(src)
            if v.message == "unused private field"] == (
        [] if "n = B" in use else ["n"])


def test_typed_and_parenthesized_lambda_parameters_declare():
    src = ("class A { private int a; private int b; private int c;\n"
           "private int d; private int e;\n"
           "Object f() { Object g = (int a, java.util.Map<String, Integer> b)"
           " -> 0; g = (F) (c) -> 1; g = x -> d -> 2; return (G) e -> 3; } }")
    assert [v.detail for v in useless(src)
            if v.message == "unused private field"] == ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("params", [
    "(int a)",
    "(final int a)",
    "(int a, java.util.Map<String, Integer> b)",
    "(final int a, final java.util.Map<String, Integer> b)",
    "(int a, String b, final long[] c)",
])
def test_typed_lambda_parameters_are_not_locals(params):
    src = f"class A {{ Object f() {{ Object g = {params} -> 0; return g; }} }}"
    model = parse_source(src)
    assert [lv.name for lv in model.types[0].members[0].body.local_vars] == [
        "g"]
    assert check_variable_names(model, CheckContext(None, None, None))[1] == 1
    assert useless(src) == []


# Same-named declarations of every kind a private member can share its
# name with; each declares `n` and uses nothing else.
_SHADOWS = {
    "catch": "void c1() { try { c2(); } catch (Exception n) {} } void c2() {}",
    "lambda": "Object c3() { return (java.util.function.IntUnaryOperator)"
              " n -> 1; }",
    "typed lambda": "Object c4() { java.util.function.IntBinaryOperator o ="
                    " (int n, int k) -> k; return o; }",
    "enum constant": "enum E { n }",
    "nested type": "class n {}",
    "parameter": "int c5(int n) { return 0; }",
    "local": "int c6() { int n = 0; return 1; }",
    "field": "class C { int n; }",
    "method": "class D { void n() {} }",
}


@settings(max_examples=60, deadline=None)
@given(member=st.sampled_from(["private int n;", "private void n() {}",
                               "private static final int n = 1;"]),
       shadows=st.lists(st.sampled_from(sorted(_SHADOWS)), unique=True),
       used=st.booleans())
def test_private_member_is_unused_exactly_when_no_token_uses_it(
        member, shadows, used):
    body = [member, *(_SHADOWS[k] for k in shadows)]
    if used:
        body.append("Object u() { return this.n" +
                    ("()" if "(" in member else "") + "; }")
    out = [v for v in useless("class A {\n" + "\n".join(body) + "\n}")
           if v.message.startswith("unused private") and v.line == 2]
    assert [v.detail for v in out] == ([] if used else ["n"])


def test_unused_local_flagged():
    src = "class A { void f() { int ghost = 1; int used = 2; g(used); } void g(int n) {} }"
    out = useless(src)
    assert len(out) == 1 and out[0].detail == "ghost"


def test_serial_version_uid_exempt():
    src = "class A { private static final long serialVersionUID = 1L; }"
    assert useless(src) == []


def test_annotated_private_method_exempt():
    # Annotations often mark reflective entry points (test hooks, handlers),
    # so unannotated is a precondition for the unused-method finding.
    src = "class A { @Scheduled private void tick() {} }"
    assert useless(src) == []
    bare = "class A { private void tick() {} }"
    assert [v.detail for v in useless(bare)] == ["tick"]


def test_annotated_private_field_still_checked():
    src = "class A { @SuppressWarnings(\"unused\") private int pad; }"
    assert [v.detail for v in useless(src)] == ["pad"]


def test_commented_out_code_per_line():
    src = ("class A {\n// int x = compute();\n"
           "// if (ready) {\n//   launch();\n// }\nvoid f() {}\n}")
    out = [v for v in useless(src) if "commented-out" in v.message]
    assert [v.line for v in out] == [2, 3, 4, 5]


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
def test_commented_out_code_lines_end_only_at_line_feed(char):
    # str.splitlines would also break at char, which the tokenizer and the
    # file reader do not: findings after it would land a line too late, or
    # on a line that does not exist.
    src = (f"class A {{\n/* note{char}\nint x = 1;\nint y = 2; */\n"
           f"int z; // x = 1;{char}y = 2;\n}}")
    out = [v for v in useless(src) if "commented-out" in v.message]
    assert [v.line for v in out] == [3, 4, 5]


@pytest.mark.parametrize("line, code", [
    ("// if (done)", True),
    ("// return total", True),
    ("   * return total", True),
    ("   * while (busy)", True),
    ("   * the total", False),
    ("// note (see above)", False),
    ("   *", False),
])
def test_a_keyword_start_looks_like_code(line, code):
    assert looks_like_code(line) is code


def test_prose_comment_not_flagged():
    src = "class A {\n// explains the approach taken here\nvoid f() {}\n}"
    assert useless(src) == []


def test_documented_heuristic_false_positive():
    # A prose comment ending in a keyword-like phrase trips the heuristic.
    # Kept as a known limit of line-level classification; see README.
    src = "class A {\n// works, trust me; this loop will not break;\nvoid f() {}\n}"
    out = [v for v in useless(src) if "commented-out" in v.message]
    assert len(out) == 1


# --- whole-table sanity ------------------------------------------------------


def test_run_all_covers_every_category(lexicon):
    violations = analyze_files({
        "p/Base.java": PARENT,
        "q/bad.java": (
            "package p;\n"
            "import java.util.Vector;\n"
            "/** Short. */\n"
            "public class bad extends Base {\n"
            "  public int Exposed;\n"
            "  private int unread;\n"
            "  static void finalize() {}\n"
            "  public void go() {}\n"
            "  /**\n   * Words words words words words words words words"
            " words words.\n   * @param ghost x\n   */\n"
            "  public void DoThing() {\n"
            "    String s = \"\";\n"
            "    for (int I = 0; I < 3; I++) {\n"
            "      s += I;\n"
            "      try { hashCode(); } catch (Exception e) {}\n"
            "    }\n"
            "    this.helper();\n"
            "  }\n"
            "  static void helper() {}\n"
            "}\n"),
    }, lexicon)
    seen = {v.category for v in violations}
    expected = {
        Category.PACKAGE_NAMES, Category.CLASS_NAMES, Category.METHOD_NAMES,
        Category.VARIABLE_NAMES, Category.JAVADOC_CLASS,
        Category.JAVADOC_METHOD, Category.JAVADOC_FIELD,
        Category.JAVADOC_FORMATTING, Category.PRIVATE_INSTANCES,
        Category.USELESS, Category.STRING_CONCATENATION,
        Category.FINALIZE_OVERRIDE, Category.UNQUALIFIED_STATIC_ACCESS,
        Category.EMPTY_CATCH_BLOCK, Category.MISSING_OVERRIDE,
    }
    assert expected <= seen


def test_only_two_checks_read_the_project_index(lexicon):
    # Every other check decides from the file alone, so it gives the same
    # result without an index.
    cross_file = {c for c, _, scope, _ in CHECKS if scope == PROJECT}
    assert cross_file == {Category.MISSING_OVERRIDE,
                          Category.UNQUALIFIED_STATIC_ACCESS}
    ordering = ORDERING_CONFIGS[2]
    trees = sorted(FIXTURES.glob("*/*"))
    assert len(trees) == 34
    for tree in trees:
        models = [parse_source(decode_source((tree / path).read_bytes()),
                               path)
                  for path in analyze_repository(str(tree)).paths]
        index = build_project_index([file_record(m) for m in models])
        indexed = CheckContext(index, lexicon, ordering)
        alone = CheckContext(None, lexicon, ordering)
        for model in models:
            for category, _, _, check in CHECKS:
                if category not in cross_file:
                    assert check(model, alone) == check(model, indexed), \
                        (tree.name, model.path, category)


def test_every_violation_carries_location(lexicon):
    violations = analyze_files({
        "p/bad.java": ("package q;\nclass bad { public int X; "
                       "void DoIt() { try { hashCode(); } "
                       "catch (Exception e) {} } }\n"),
    }, lexicon)
    assert violations
    for v in violations:
        assert v.file_path == "p/bad.java"
        assert v.line >= 1
        assert v.message
