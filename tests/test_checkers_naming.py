"""Naming and documentation checks with hand-derived expectations."""

from functools import partial

from javastyle.checkers import (Category, check_class_names,
                                check_javadoc_formatting,
                                check_javadoc_presence, check_method_names,
                                check_package_names, check_variable_names)

from helpers import parse_source, run_check


# --- class names ---------------------------------------------------------


def classes(src, lexicon, path="src/main/java/demo/Demo.java"):
    return run_check(check_class_names, parse_source(src, path),
                     lexicon=lexicon)


def test_class_name_bad_casing(lexicon):
    out = classes("public class dataManager {}", lexicon)
    assert len(out) == 1
    assert out[0].category is Category.CLASS_NAMES
    assert "UpperCamelCase" in out[0].message
    assert out[0].detail == "dataManager"


def test_class_name_noun_last_token_ok(lexicon):
    assert classes("public class DataManager {}", lexicon) == []
    assert classes("public class SortedMap {}", lexicon) == []
    assert classes("public class FastSort {}", lexicon) == []  # sort is n,v


def test_class_name_non_noun_last_token(lexicon):
    out = classes("public class RunFast {}", lexicon)  # fast: adjective/adverb
    assert len(out) == 1
    assert "noun" in out[0].message


def test_class_name_unknown_word_is_permissive(lexicon):
    assert classes("public class Zzxqy {}", lexicon) == []


def test_enum_checked_interface_not(lexicon):
    assert len(classes("enum runFast { A }", lexicon)) == 1
    assert classes("interface runFast {}", lexicon) == []


def test_nested_class_checked(lexicon):
    out = classes("public class Wrapper { class runFast {} }", lexicon)
    assert len(out) == 1 and out[0].detail == "runFast"


# --- method names ----------------------------------------------------------


def methods(src, lexicon):
    return run_check(check_method_names, parse_source(src, "Demo.java"),
                     lexicon=lexicon)


def test_method_name_bad_casing(lexicon):
    out = methods("class A { void DoWork() {} }", lexicon)
    assert len(out) == 1 and "lowerCamelCase" in out[0].message


def test_method_name_verb_first_ok(lexicon):
    assert methods("class A { void sortItems() {} }", lexicon) == []
    assert methods("class A { void doWork() {} }", lexicon) == []


def test_method_name_allowlist_prefixes(lexicon):
    src = ("class A { void getCount() {} void isReady() {} "
           "void toPath() {} void ofThing() {} void withName() {} }")
    assert methods(src, lexicon) == []


def test_method_name_non_verb_first(lexicon):
    out = methods("class A { void fastSort() {} }", lexicon)  # fast: adj/adv
    assert len(out) == 1 and "verb" in out[0].message
    out = methods("class A { void speedily() {} }", lexicon)  # adverb
    assert len(out) == 1


def test_method_name_unknown_word_permissive(lexicon):
    assert methods("class A { void zzxqyThing() {} }", lexicon) == []


def test_constructor_not_method_checked(lexicon):
    assert methods("class A { A() {} }", lexicon) == []


# --- variable names ----------------------------------------------------------


def variables(src):
    return run_check(check_variable_names, parse_source(src, "Demo.java"))


def test_constant_field_conventions():
    src = ("class A { static final int MAX_SIZE = 1; "
           "static final int maxSize = 2; }")
    out = variables(src)
    assert len(out) == 1
    assert out[0].detail == "maxSize"
    assert "UPPER_SNAKE_CASE" in out[0].message


def test_plain_field_param_local_conventions():
    src = ("class A { int Count; "
           "void f(int FooBar) { int x_y = FooBar; } }")
    out = variables(src)
    assert [v.detail for v in out] == ["Count", "FooBar", "x_y"]
    assert {"field", "parameter", "local variable"} == {
        v.message.split(" name")[0] for v in out}


def test_compliant_variables():
    src = ("class A { static final int X2 = 0; int count; "
           "void f(int fooBar) { int total = fooBar; } }")
    assert variables(src) == []


# --- package names -------------------------------------------------------


def packages(src, path):
    return run_check(check_package_names, parse_source(src, path))


def test_package_matches_directory_suffix():
    assert packages("package com.example;\nclass A {}",
                    "src/main/java/com/example/A.java") == []
    assert packages("package com.example;\nclass A {}",
                    "com/example/A.java") == []


def test_package_directory_mismatch():
    out = packages("package com.example;\nclass A {}",
                   "src/main/java/org/other/A.java")
    assert len(out) == 1 and "directory" in out[0].message


def test_package_bad_segment_casing():
    out = packages("package Com.Example;\nclass A {}",
                   "Com/Example/A.java")
    assert len(out) == 1 and "lowercase" in out[0].message
    out = packages("package com.my_app;\nclass A {}", "com/my_app/A.java")
    assert len(out) == 1


def test_missing_package_rules():
    assert packages("class A {}", "A.java") == []  # true root file
    out = packages("class A {}", "src/A.java")
    assert len(out) == 1 and "no package declaration" in out[0].message


def test_package_line_is_reported():
    out = packages("\n\npackage com.example;\nclass A {}", "x/A.java")
    assert out[0].line == 3


# --- javadoc presence ------------------------------------------------------

TEN_WORDS = "Summarizes the behavior in exactly ten words for the reader."
NINE_WORDS = "Summarizes the behavior in nine words for the reader"


def presence(src, kind):
    return run_check(partial(check_javadoc_presence, kind=kind),
                     parse_source(src, "Demo.java"))


def test_public_class_needs_ten_word_doc():
    assert presence(f"/** {TEN_WORDS} */\npublic class A {{}}", "class") == []
    out = presence(f"/** {NINE_WORDS}. */\npublic class A {{}}", "class")
    assert len(out) == 1 and "10 words" in out[0].message
    out = presence("public class A {}", "class")
    assert len(out) == 1


def test_non_public_types_exempt():
    assert presence("class A {}", "class") == []
    assert presence("protected class A {}", "class") == []


def test_public_method_and_constructor_docs():
    src = (f"public class A {{\n/** {TEN_WORDS} */\npublic A() {{}}\n"
           "public A(int x) {}\n"
           f"/** {TEN_WORDS} */\npublic void go() {{}}\n"
           "public void stop() {}\n"
           "void helper() {}\n}")
    ctor_out = presence(src, "constructor")
    assert len(ctor_out) == 1 and ctor_out[0].detail == "A"
    # The 10-word rule holds for constructors too: a short doc is flagged.
    short = "public class B {\n/** Builds a B. */\npublic B(long n) {}\n}"
    assert [v.line for v in presence(short, "constructor")] == [3]
    method_out = presence(src, "method")
    assert len(method_out) == 1 and method_out[0].detail == "stop"


def test_public_field_needs_any_doc():
    src = ("public class A {\n/** Identifier. */\npublic int id;\n"
           "public int other;\nprivate int hidden;\n}")
    out = presence(src, "field")
    assert len(out) == 1 and out[0].detail == "other"


# --- javadoc formatting ----------------------------------------------------


def formatting(src):
    return run_check(check_javadoc_formatting,
                     parse_source(src, "Demo.java"))


def doc_method(doc, signature):
    return f"public class A {{\n{doc}\n{signature}\n}}"


def test_missing_param_tag():
    src = doc_method(
        f"/**\n * {TEN_WORDS}\n * @param a the first\n */",
        "public void f(int a, int b) {}")
    out = formatting(src)
    assert [v.message for v in out] == ["a parameter has no @param tag"]


def test_stray_param_tag():
    src = doc_method(
        f"/**\n * {TEN_WORDS}\n * @param a the first\n"
        " * @param ghost not here\n */",
        "public void f(int a) {}")
    out = formatting(src)
    assert [v.message for v in out] == ["a @param tag names no parameter"]


def test_missing_return_tag():
    src = doc_method(f"/**\n * {TEN_WORDS}\n */", "public int f() { return 1; }")
    out = formatting(src)
    assert [v.message for v in out] == ["non-void method lacks @return"]


def test_return_on_void():
    src = doc_method(
        f"/**\n * {TEN_WORDS}\n * @return nothing at all\n */",
        "public void f() {}")
    out = formatting(src)
    assert [v.message for v in out] == ["void method documents a @return"]


def test_missing_throws_tag():
    src = doc_method(
        f"/**\n * {TEN_WORDS}\n */",
        "public void f() throws java.io.IOException {}")
    out = formatting(src)
    assert [v.message for v in out] == [
        "a declared exception has no @throws tag"]


def test_exception_tag_counts_as_throws():
    src = doc_method(
        f"/**\n * {TEN_WORDS}\n * @exception IOException when reading dies\n */",
        "public void f() throws IOException {}")
    assert formatting(src) == []


def test_empty_tag_description():
    src = doc_method(
        f"/**\n * {TEN_WORDS}\n * @param a\n */",
        "public void f(int a) {}")
    out = formatting(src)
    assert [v.message for v in out] == ["a tag has an empty description"]


def test_each_rule_fires_once_per_comment():
    # two undocumented params still produce one missing-param finding
    src = doc_method(f"/**\n * {TEN_WORDS}\n */",
                     "public void f(int a, int b) {}")
    out = formatting(src)
    assert len(out) == 1


def test_five_findings_from_one_comment():
    src = doc_method(
        f"/**\n * {TEN_WORDS}\n * @param ghost\n * @return value\n */",
        "public void f(int real) throws IOException {}")
    messages = {v.message for v in formatting(src)}
    assert messages == {
        "a parameter has no @param tag",
        "a @param tag names no parameter",
        "void method documents a @return",
        "a declared exception has no @throws tag",
        "a tag has an empty description",
    }


def test_clean_doc_no_findings():
    src = doc_method(
        f"/**\n * {TEN_WORDS}\n * @param a the input value\n"
        " * @return the outcome\n * @throws IOException on failure\n */",
        "public int f(int a) throws IOException { return a; }")
    assert formatting(src) == []


def test_undocumented_method_not_formatting_checked():
    src = doc_method("", "public int f(int a) { return a; }")
    assert formatting(src) == []


def test_violation_line_is_the_comment():
    src = ("public class A {\n\n    /**\n     * Words here.\n"
           "     * @param ghost x\n     */\n    public void f() {}\n}")
    out = formatting(src)
    assert out and all(v.line == 3 for v in out)


def test_inline_tag_text_is_not_a_block_tag():
    src = doc_method(
        f"/**\n * {TEN_WORDS} See {{@link Other}} and @param in prose.\n */",
        "public void f() {}")
    assert formatting(src) == []
