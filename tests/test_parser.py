"""Parsing facts: declarations, members, bodies, comments, counts."""

import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from javastyle.checkers import check_empty_catch
from javastyle.lexer import IDENT, JavaSyntaxError, tokenize
from javastyle.model import (MEMBER_KINDS, TYPE_KINDS, VISIBILITIES,
                             AccessRecord, LocalVarFact, ParamFact,
                             simple_name_of)
from javastyle.parser import _Parser

from helpers import parse_source, run_check

FIXTURE_ROOT = Path(__file__).parent / "fixtures"

SAMPLE = """\
package com.example;

import java.util.List;
import static java.lang.Math.max;
import java.io.*;

/**
 * Does something useful with lists of entries for the caller
 * code, in ten words or more of plain prose.
 */
public class Sample extends Base implements Runnable {
    public static final int LIMIT = 10;
    private int count;

    /** Creates a sample holder with the given starting count value now. */
    public Sample(int start) {
        this.count = start;
    }

    /**
     * Walks the input and accumulates a total for the caller.
     *
     * @param input the text to use
     * @return the combined length
     * @throws IOException when reading fails
     */
    public int process(String input) throws IOException {
        int total = 0;
        for (int i = 0; i < 10; i++) {
            total += i;
        }
        try {
            run();
        } catch (RuntimeException e) {
        }
        return total + input.length();
    }

    @Override
    public void run() {
        List<String> names = new java.util.ArrayList<>();
        names.add(max(1, 2) + "x");
    }

    private static class Helper {
        void help() {}
    }
}
"""


@pytest.fixture(scope="module")
def model():
    return parse_source(SAMPLE, "src/main/java/com/example/Sample.java")


def member(model, name, kind=None):
    for t in model.types:
        for m in t.members:
            if m.name == name and (kind is None or m.kind == kind):
                return m
    raise AssertionError(f"no member {name}")


def test_package_and_imports(model):
    assert model.package == "com.example"
    assert model.package_line == 1
    assert [i.target for i in model.imports] == [
        "java.util.List", "java.lang.Math.max", "java.io.*"]
    assert [i.is_static for i in model.imports] == [False, True, False]
    assert [i.is_wildcard for i in model.imports] == [False, False, True]
    assert model.imports[0].simple_name == "List"


def test_type_declaration_facts(model):
    sample = model.types[0]
    assert sample.kind == "class"
    assert sample.visibility == "public"
    assert sample.line == 11
    assert sample.supertypes == ["Base", "Runnable"]
    assert sample.javadoc is not None and sample.javadoc.word_count >= 10
    assert [t.name for t in model.types] == ["Sample", "Helper"]


NESTED = """\
class A {
  class B { class C {} void m() {} class D { enum E { X } } }
  int x;
  interface F { class G { class H {} } }
}
class I { record J(int y) {} }
"""


def recursive_types(model):
    """Reference pre-order walk of a model's types, from the top-level
    ones: each `innerType` member names the type it nests."""
    by_scoped = {t.scoped: t for t in model.types}
    out = []

    def walk(t):
        out.append(t)
        for m in t.members:
            if m.kind == "innerType":
                walk(by_scoped[t.scoped + "." + m.name])

    for t in model.types:
        if t.scoped == t.name:
            walk(t)
    return out


def test_types_is_a_pre_order_walk():
    nested = parse_source(NESTED)
    assert [t.name for t in nested.types] == list("ABCDEFGHIJ")
    assert [t.scoped for t in nested.types] == [
        "A", "A.B", "A.B.C", "A.B.D", "A.B.D.E", "A.F", "A.F.G", "A.F.G.H",
        "I", "I.J"]
    paths = sorted(FIXTURE_ROOT.rglob("*.java"))
    assert paths
    for m in [nested] + [parse_source(p.read_text("utf-8")) for p in paths]:
        assert [id(t) for t in m.types] == \
            [id(t) for t in recursive_types(m)]


def test_member_kinds_and_order(model):
    sample = model.types[0]
    assert [(m.kind, m.name) for m in sample.members] == [
        ("staticField", "LIMIT"),
        ("instanceField", "count"),
        ("constructor", "Sample"),
        ("instanceMethod", "process"),
        ("instanceMethod", "run"),
        ("innerType", "Helper"),
    ]
    assert all(m.kind in MEMBER_KINDS for m in sample.members)
    assert sample.kind in TYPE_KINDS
    assert all(m.visibility in VISIBILITIES for m in sample.members)


def test_field_facts(model):
    limit = member(model, "LIMIT")
    assert limit.is_static_final and limit.visibility == "public"
    count = member(model, "count")
    assert count.kind == "instanceField"
    assert count.visibility == "private"
    assert count.return_type == "int"


def test_constructor_facts(model):
    ctor = member(model, "Sample", "constructor")
    assert [(p.name, p.type_name) for p in ctor.params] == [("start", "int")]
    assert ctor.javadoc is not None
    assert ctor.javadoc.word_count == 11


def test_method_signature_facts(model):
    process = member(model, "process")
    assert process.return_type == "int"
    assert process.thrown_types == ["IOException"]
    assert [(p.name, p.type_name) for p in process.params] == [
        ("input", "String")]
    run = member(model, "run")
    assert run.annotations == ["Override"]
    assert run.return_type == "void"


def test_javadoc_tags(model):
    doc = member(model, "process").javadoc
    assert [(t.name, t.arg_name) for t in doc.tags] == [
        ("param", "input"), ("return", None), ("throws", "IOException")]
    assert all(t.description_word_count > 0 for t in doc.tags)


def test_body_facts(model):
    body = member(model, "process").body
    assert [lv.name for lv in body.local_vars] == ["total", "i"]
    assert all(lv.used for lv in body.local_vars)
    assert body.loops == 1
    assert [c.exception_var for c in body.catches] == ["e"]
    catch = body.catches[0]
    assert catch.body_empty and not catch.has_comment
    # process is no test method, so its empty catch is reported.
    assert [(v.line, v.detail) for v in run_check(check_empty_catch, model)] \
        == [(catch.line, "e")]
    assert [(s.target) for s in body.concat_sites] == ["total"]


def test_access_facts(model):
    # The bare calls run() and max(1, 2) get no record.
    assert member(model, "run").body.accesses == [
        AccessRecord(42, "add", False, "List")]
    assert member(model, "process").body.accesses == [
        AccessRecord(36, "length", False, "String")]
    assert member(model, "Sample", "constructor").body.accesses == [
        AccessRecord(17, "count", False, "Sample")]


RECEIVER_SHAPES = """\
package p;

class Shapes extends Base {
    Helper field;
    Helper make() { return null; }
    String pick() { return ""; }
    int pick(int n) { return n; }

    void all(Param param) {
        Local local = new Local();
        local.a();
        int x = param.b;
        field.c();
        Helper.d();
        this.e = 1;
        super.f();
        g();
        local.h.i = 2;
        local.j().k = 3;
        Runnable r = local::m;
        new Helper().n();
        make().o();
        pick().p();
        unknown.q();
    }
}
"""


def test_access_records_for_every_receiver_shape():
    """Only a receiver whose type is known gets a record: not super.f,
    the bare g(), the later links i and k, new Helper().n, the call
    with two return types nor the unknown receiver. this.e goes last."""
    model = parse_source(RECEIVER_SHAPES, "p/Shapes.java")
    assert member(model, "all").body.accesses == [
        AccessRecord(11, "a", False, "Local"),
        AccessRecord(12, "b", False, "Param"),
        AccessRecord(13, "c", False, "Helper"),
        AccessRecord(14, "d", True, "Helper"),
        AccessRecord(18, "h", False, "Local"),
        AccessRecord(19, "j", False, "Local"),
        AccessRecord(20, "m", False, "Local"),
        AccessRecord(22, "o", False, "Helper"),
        AccessRecord(15, "e", False, "Shapes"),
    ]


def test_nested_type(model):
    helper_member = member(model, "Helper", "innerType")
    (nested,) = [t for t in model.types if t.scoped == "Sample.Helper"]
    assert nested.visibility == helper_member.visibility == "private"
    assert [m.name for m in nested.members] == ["help"]
    assert nested.members[0].visibility == "package"


def test_ident_counts_and_line_count(model):
    # Declarations are not uses: this.count = start; total += i, return total
    assert model.use_counts["count"] == 1
    assert model.use_counts["total"] == 2
    assert "Sample" not in model.use_counts and "process" not in model.use_counts
    assert "com" not in model.use_counts  # package/import names excluded
    # Also named in import lines; only the body occurrence counts.
    for name in ("List", "max", "java", "util"):
        assert model.use_counts[name] == 1
    assert model.line_count == SAMPLE.count("\n") + (
        0 if SAMPLE.endswith("\n") else 1) - sum(
        1 for ln in SAMPLE.splitlines() if not ln.strip())


def test_comments_recorded(model):
    docs = [c for c in model.comments if c.is_javadoc]
    assert len(docs) == 3


def test_interface_enum_record_kinds():
    m = parse_source(
        "interface Api { void call(); }\n"
        "enum Color { RED, GREEN; void shade() {} }\n"
        "record Pair(int left, int right) {}\n"
        "enum Size { S(1), M(2) { }; int n() { return 0; } }\n",
        "Types.java")
    kinds = {t.name: t.kind for t in m.types}
    assert kinds == {"Api": "interface", "Color": "enum", "Pair": "record",
                     "Size": "enum"}
    assert [(mf.kind, mf.name) for mf in m.types[-1].members] == [
        ("instanceMethod", "n")]
    api = m.types[0]
    assert api.members[0].kind == "instanceMethod"
    assert api.members[0].body is None  # abstract, no body facts


def test_syntax_error_positions():
    with pytest.raises(JavaSyntaxError) as err:
        parse_source("public class {", "Bad.java")
    assert err.value.line == 1
    # A truncated file fails at its last token.
    assert parse_source("", "Empty.java").types == []
    for text, expected in [
        ("public class {", ("expected identifier", 1, 14)),
        ("class A {", ("unexpected end of file", 1, 9)),
        ("class A { void f(", ("expected type", 1, 17)),
        ("class A { int x =", ("unexpected end of file in initializer", 1, 17)),
        ("module m", ("expected '{'", 1, 8)),
        ("class A { <T>", ("unexpected end of file", 1, 13)),
        ("class A<T {", ("expected type", 1, 8)),
        ("class A { List<String f; }", ("expected type", 1, 11)),
        ("class A { int x = a]; }", ("unbalanced initializer", 1, 20)),
        ("class A { int x = f(; }", ("unexpected end of file in initializer",
                                     1, 23)),
    ]:
        with pytest.raises(JavaSyntaxError) as err:
            parse_source(text, "Bad.java")
        assert (err.value.message, err.value.line, err.value.col) == expected


_PARTNER_OF = {"(": ")", "[": "]", "{": "}", ")": "(", "]": "[", "}": "{"}


def scanned_partner(values: list[str], i: int) -> int:
    """Reference pairing: walk from bracket i counting same-kind depth."""
    step = 1 if values[i] in ("(", "[", "{") else -1
    depth, j = 0, i
    while 0 <= j < len(values):
        if values[j] == values[i]:
            depth += 1
        elif values[j] == _PARTNER_OF[values[i]]:
            depth -= 1
            if depth == 0:
                return j
        j += step
    return -1


def assert_table_matches_scan(text: str) -> None:
    """The lexer's partner table pairs each bracket of text as the depth
    scan does, and leaves the unmatched ones out."""
    stream = tokenize(text)
    values = stream.values
    expected = {i: scanned_partner(values, i) for i, v in enumerate(values)
                if v in _PARTNER_OF}
    assert stream.partner == {i: j for i, j in expected.items() if j >= 0}


def test_bracket_table_matches_depth_scan_on_fixtures():
    paths = sorted(FIXTURE_ROOT.rglob("*.java"))
    assert paths
    for path in paths:
        assert_table_matches_scan(path.read_text("utf-8"))


@given(st.lists(st.sampled_from("()[]{};"), max_size=60))
def test_bracket_table_matches_depth_scan(values):
    assert tokenize(" ".join(values)).values == values
    assert_table_matches_scan(" ".join(values))


def loop_spans(text):
    """(keyword, line, end line) of each loop statement in the one method
    of text, from the statement ends the parser recorded; checks that the
    method counts as many loops."""
    p = _Parser(text, "A.java")
    m = p.parse()
    spans = [(p.values[i], p.line(i), p.line(end))
             for i, end in sorted(p.stmt_ends.items())
             if p.values[i] in ("for", "while", "do")]
    assert m.types[0].members[0].body.loops == len(spans)
    return spans


def test_long_else_if_chain_in_loop_is_one_loop():
    links = 3000
    spans = loop_spans(
        "class A {\n  void f(int x) {\n    while (x > 0)\n      if (x == 1) x--;\n"
        + "      else if (x == 2) x--;\n" * links
        + "      else x--;\n  }\n}\n")
    assert spans == [("while", 3, 5 + links)]


def test_deeply_nested_brace_less_loops():
    depth = 3000
    spans = loop_spans(
        "class A { void f() {\n" + "for(;;)\n" * depth + "f();\n} }\n")
    assert len(spans) == depth
    assert {end for _, _, end in spans} == {depth + 2}


def test_deeply_nested_brace_less_ifs_in_loop():
    depth = 3000
    spans = loop_spans(
        "class A { void f() {\nwhile (b)\n" + "if (a)\n" * depth
        + "f();\nelse g();\nh();\n} }\n")
    assert spans == [("while", 2, depth + 4)]


def test_deeply_nested_do_loops():
    depth = 3000
    spans = loop_spans(
        "class A { void f() {\n" + "do\n" * depth + "f();\n"
        + "while (b);\n" * depth + "} }\n")
    assert spans == [("do", 2 + k, 2 * depth + 2 - k) for k in range(depth)]


@pytest.mark.parametrize("catch, commented", [
    ("catch (E e) { // why\n}", True),
    ("catch (E e) { /* why */ }", True),
    ("catch (E /* why */ e) {}", False),
    ("catch (E e) /* why */ {}", False),
    ("catch (E e) {} // why", False),
])
def test_catch_comment_counts_only_inside_the_braces(catch, commented):
    m = parse_source(
        "class A { void f() {\ntry { g(); } " + catch + "\n} }\n", "A.java")
    (c,) = m.types[0].members[0].body.catches
    assert c.body_empty
    assert c.has_comment is commented


def test_many_catches_with_trailing_comments():
    n = 4000
    m = parse_source(
        "class A { void f() {\n" + "".join(
            f"try {{ f(); }} catch (E e{k}) {{ }} // c{k}\n" for k in range(n)
        ) + "} }\n", "A.java")
    catches = m.types[0].members[0].body.catches
    assert [c.exception_var for c in catches] == [f"e{k}" for k in range(n)]
    assert not any(c.has_comment for c in catches)


@pytest.mark.parametrize("nest", ["for(;;)\n", "while (b)\n", "do\n"])
def test_nested_loop_ends_are_walked_once(monkeypatch, nest):
    depth = 500
    calls = 0
    matching_close = _Parser._matching_close

    def counted(self, i):
        nonlocal calls
        calls += 1
        return matching_close(self, i)

    monkeypatch.setattr(_Parser, "_matching_close", counted)
    tail = "while (b);\n" * depth if nest == "do\n" else ""
    m = parse_source(
        "class A { void f() {\n" + nest * depth + "f();\n" + tail + "} }\n",
        "A.java")
    assert m.types[0].members[0].body.loops == depth
    assert calls <= 2 * depth


_FIXTURE_TEXTS = [p.read_text("utf-8")
                  for p in sorted(FIXTURE_ROOT.rglob("*.java"))]
_SNIPPETS = ["if (a)", "do", "for(;;)", "while (b)", "else", "{", "}", "(",
             ")", ";", "try", "catch (E e)", "class B {", "->", "<", ">",
             ">>", ",", "=", "a < b", "final", "int", "var", "x", ".", "[",
             "]", "+=", ":", "case 1:", "this.a", "@A", "a.b.C<D> e"]


@st.composite
def mutated_fixture(draw):
    """A fixture file with tokens inserted, deleted or duplicated, mostly
    inside member bodies (brace depth two or more)."""
    text = draw(st.sampled_from(_FIXTURE_TEXTS))
    stream = tokenize(text)
    spans, in_bodies, depth = [], [], 0
    for k, (value, start) in enumerate(zip(stream.values, stream.starts)):
        spans.append((start, len(value)))
        if depth >= 2:
            in_bodies.append(k)
        depth += (value == "{") - (value == "}")
    edits = draw(st.lists(
        st.tuples(st.sampled_from(in_bodies) | st.integers(0, len(spans) - 1),
                  st.sampled_from(["insert", "delete", "duplicate"]),
                  st.sampled_from(_SNIPPETS),
                  st.sampled_from([1, 2, 3000])),
        min_size=1, max_size=3, unique_by=lambda edit: edit[0]))
    for k, how, snippet, times in sorted(edits, reverse=True):
        start, length = spans[k]
        if how == "duplicate":
            snippet = text[start:start + length]
        if how == "delete":
            text = text[:start] + text[start + length:]
        else:
            text = text[:start] + (snippet + "\n") * times + text[start:]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_fixture())
def test_mutated_fixture_parses_or_raises_syntax_error(text):
    try:
        parse_source(text)
    except JavaSyntaxError:
        pass


def test_annotations_with_arguments():
    m = parse_source(
        '@SuppressWarnings("unchecked")\n'
        "public class Noisy {\n"
        '    @Deprecated @Custom(level = 3) void oldCall() {}\n'
        "}\n",
        "Noisy.java")
    assert m.types[0].name == "Noisy"
    assert m.types[0].members[0].annotations == ["Deprecated", "Custom"]


def test_generic_and_array_types():
    m = parse_source(
        "public class Box {\n"
        "    java.util.Map<String, java.util.List<Integer>> index;\n"
        "    int[] counts;\n"
        "    <T extends Comparable<T>> T pick(T[] options) { return options[0]; }\n"
        "    int f()[] { return null; }\n"
        "}\n",
        "Box.java")
    names = {mm.name: mm for mm in m.types[0].members}
    assert names["index"].kind == "instanceField"
    assert names["counts"].return_type == "int[]"
    assert names["pick"].params[0].type_name == "T[]"
    assert names["f"].return_type == "int[]"


def local_names(body: str) -> list[tuple[str, str]]:
    """(name, type) of each local declared in a method with this body."""
    m = parse_source("class A { int d; void f() {\n" + body + "\n} }\n",
                     "A.java")
    return [(lv.name, lv.type_name)
            for lv in m.types[0].members[1].body.local_vars]


@pytest.mark.parametrize("body", [
    "if (a < b) x = c > d;",
    "g(a < b, c > d, e);",
    "while (a < b) x = c > d;",
    "x = f(y, a < b) ? c > d : e;",
    "g(x, a < b, c > d, e);",
    "x = c ? y : a < b && e > g;",
    "x = c ? d ? y : z : a < b && e > g;",
])
def test_comparisons_declare_no_local(body):
    assert local_names(body) == []



@pytest.mark.parametrize("body", [
    "x = c ? a : b.d();",
    "assert ok : msg;",
    "assert ok : msg.text();",
    "out: for (;;) { break out; }",
    "switch (k) { case 1: assert ok : a < b && e > g; }",
])
def test_other_colons_declare_nothing(body):
    assert local_names(body) == []


@pytest.mark.parametrize("body, declared", [
    ("for (List<String> s : all) {}", [("s", "List")]),
    ("for (Map.Entry<K, V> e = first(); e != null; e = next(e)) {}",
     [("e", "Entry")]),
    ("try (Reader<A> r = open()) {}", [("r", "Reader")]),
    ("Outer<String>.Inner q = null;", [("q", "Inner")]),
    ("Map<A, List<B>> m = f(), n;", [("m", "Map"), ("n", "Map")]),
    ("int[] a = {1, 2}, b[] = {};", [("a", "int[]"), ("b", "int[]")]),
    ("for (Foo f : foo.bar()) {}", [("f", "Foo")]),
    ("switch (k) { case 1: String s = g(); int n = 1;\n"
     "  default: List<String> q = h(); }",
     [("s", "String"), ("n", "int"), ("q", "List")]),
    ("switch (k) { case A, B: Bar r = g(); }", [("r", "Bar")]),
    # dims after the first name belong to it alone and are not recorded
    ("int a[] = {1}, b = 2;", [("a", "int"), ("b", "int")]),
])
def test_local_declaration_shapes(body, declared):
    assert local_names(body) == declared


@pytest.mark.parametrize("members, facts", [
    # an initializer block is skipped: no member and no catch, and the
    # members after it still parse
    ("static { try { f(); } catch (RuntimeException e) {} }\n"
     "int x;\nvoid g() { try { f(); } catch (E e) {} }",
     [("instanceField", "x", 0, 0), ("instanceMethod", "g", 1, 0)]),
    # a try statement as a brace-less loop body: the concatenations in
    # its blocks are in the loop, the one after the loop is not
    ('void f(String s) {\nfor (;;) try (Reader r = null) { s += "x"; }\n'
     '  catch (Exception e) { s += "y"; }\ns += "z";\n}',
     [("instanceMethod", "f", 1, 2)]),
    ('void f(String s) {\nwhile (s.isEmpty()) try { s += "x"; }\n'
     '  catch (Exception e) { s += "y"; } finally { s += "w"; }\n'
     's += "z";\n}',
     [("instanceMethod", "f", 1, 3)]),
])
def test_catches_and_loop_concatenations_of_members(members, facts):
    m = parse_source("class A {\n" + members + "\n}\n", "A.java")
    assert [(mf.kind, mf.name, len(mf.body.catches) if mf.body else 0,
             len(mf.body.concat_sites) if mf.body else 0)
            for mf in m.types[0].members] == facts


# Statements of generated method bodies over a small pool of names, so
# that declarations and uses of one name meet. A name between backticks
# declares it; the backticks are dropped before parsing.
_BODY_STATEMENTS = [
    "int `{n}` = 1;", "String `{n}`;", "java.util.List<String> `{n}` = f();",
    "int `{n}` = {m}, `{k}`;", "for (int `{n}` = 0; {n} < 3; {n}++) {{}}",
    "for (String `{n}` : {m}) {{}}",
    "try (java.io.Reader `{n}` = {m}.open()) {{}}",
    "try {{ g(); }} catch (Exception `{n}`) {{}}",
    "Runnable `{n}` = () -> g({m});",
    "java.util.function.IntUnaryOperator `{n}` = `{m}` -> {m} + {k};",
    "g({n});", "{n} = {m};", "{n}.run({m});", "this.{n} = 1;", "{n} += {m};",
    "// {n}", 's = "{n}";',
]
_MEMBERS = [
    "int `{n}`;", "private String `{n}` = {m};", "static int `{n}` = {m};",
    "void `{n}`(int `{m}`) {{\n{body}\n}}", "`A`() {{\n{body}\n}}",
    "enum `{N}` {{ `{n}`, `{m}` }}", "class `{N}` {{ int `{n}`; }}",
]
_IMPORTS = ["import java.util.List;", "import java.util.*;",
            "import static java.lang.Math.max;", "import a.b.C;"]
_POOL = st.sampled_from(["a", "b", "c", "d", "max", "List", "java"])
_MARK = re.compile(r"`(\w+)`")


@st.composite
def marked_statements(draw, templates=_BODY_STATEMENTS):
    picked = draw(st.lists(st.sampled_from(templates), max_size=6))
    return "\n".join(
        t.format(n=draw(_POOL), m=draw(_POOL), k=draw(_POOL),
                 N=draw(st.sampled_from(["B", "C", "List"])),
                 body=draw(marked_statements()) if "{body}" in t else "")
        for t in picked)


@settings(max_examples=200, deadline=None)
@given(marked_statements())
def test_a_local_is_used_exactly_when_its_body_spells_it_more_often_than_it_declares_it(
        marked):
    body = _MARK.sub(r"\1", marked)
    locals_ = parse_source("class A { void f() {\n" + body + "\n} }",
                           "A.java").types[0].members[0].body.local_vars
    spelled = tokenize(body).values
    for lv in locals_:
        declared = sum(1 for other in locals_ if other.name == lv.name)
        assert lv.used == (spelled.count(lv.name) > declared), lv


@settings(max_examples=200, deadline=None)
@given(package=st.booleans(), imports=st.lists(st.sampled_from(_IMPORTS)),
       members=marked_statements(_MEMBERS))
# The names of a multi-constant `case` label are uses; the parameters of a
# lambda with qualified, generic or annotated parameter types declare.
@example(package=False, imports=[], members=(
    "int `f`(int `k`) {\nswitch (k) { case B, z -> h(); }\n"
    "Object `o` = (java.util.Map<String, Integer> `a`, Integer `s`) -> 1;\n"
    "o = (@SuppressWarnings(NAME) String `t`) -> 1;\nreturn 0;\n}"))
# Enum constants with arguments, and a body after them.
@example(package=True, imports=[], members="enum `E` { `X`(1), `Y`(B) { } }")
def test_use_counts_are_identifiers_outside_package_and_imports_less_declarations(
        package, imports, members):
    marked = "\n".join((["package p.q;"] if package else []) + imports
                       + ["class `A` {", members, "}"])
    text = _MARK.sub(r"\1", marked)
    stream = tokenize(text)
    expected = Counter()
    in_header = False  # inside a package or import statement
    for kind, value in zip(stream.kinds, stream.values):
        if value in ("package", "import"):
            in_header = True
        elif in_header:
            in_header = value != ";"
        elif kind == IDENT:
            expected[value] += 1
    expected.subtract(_MARK.findall(marked))
    assert parse_source(text, "A.java").use_counts == {
        name: n for name, n in expected.items() if n > 0}


# Declaration shapes the fixtures lack: annotation types, sealed
# hierarchies, enum constants with annotations or bodies, compact record
# constructors, receiver and varargs parameters, field declarator lists,
# type annotations, and braceless loop bodies that are a switch,
# synchronized or try statement.
SHAPES = """\
@interface Marker {
  String value() default "";
  int[] sizes() default {1, 2};
}

sealed interface Shape permits Circle, Square {}

non-sealed class Circle implements Shape {}

final class Square implements Shape {}

enum Color {
  @Deprecated RED,
  GREEN {
    @Override
    String label() { return "g"; }
  },
  BLUE;

  String label() { return name(); }
}

record Range(int lo, int hi) {
  Range {
    if (lo > hi) throw new IllegalArgumentException();
  }
}

class Holder {
  int a, b;
  Map<String, Integer> m = new HashMap<String, Integer>(), n;
  @Marker("x") java.util.List<@Marker String> typed;

  void run(@Marker("p") final String name, int... rest)
      throws java.io.IOException, InterruptedException {
    String s = "";
    for (int i = 0; i < 3; i++)
      switch (i) { case 1: s += "a"; break; default: s += "b"; }
    s += "1";
    while (rest.length > 0)
      synchronized (this) { s += "c"; }
    s += "2";
    do
      try { s += "d"; } finally { s = s + "e"; }
    while (s.isEmpty());
    s += "3";
  }

  void take(Holder this, String[] parts) {}
}
"""


def test_facts_of_rarer_declaration_shapes():
    m = parse_source(SHAPES, "Shapes.java")
    assert [(t.kind, t.name, t.line, t.supertypes) for t in m.types] == [
        ("annotation", "Marker", 1, []), ("interface", "Shape", 6, []),
        ("class", "Circle", 8, ["Shape"]), ("class", "Square", 10, ["Shape"]),
        ("enum", "Color", 12, []), ("record", "Range", 23, []),
        ("class", "Holder", 29, [])]
    # The members of annotation types and enum-constant bodies are not
    # pinned here: the parser skips both bodies today (CHANGES.md, FOUND).
    members = {t.name: [(mf.kind, mf.name, mf.line) for mf in t.members]
               for t in m.types if t.kind != "annotation"}
    assert ("instanceMethod", "label", 20) in members.pop("Color")
    assert members == {
        "Shape": [], "Circle": [], "Square": [],
        "Range": [("constructor", "Range", 24)],
        "Holder": [("instanceField", "a", 30), ("instanceField", "b", 30),
                   ("instanceField", "m", 31), ("instanceField", "n", 31),
                   ("instanceField", "typed", 32),
                   ("instanceMethod", "run", 34),
                   ("instanceMethod", "take", 49)]}
    holder = {mf.name: mf for mf in m.types[-1].members}
    assert [holder[n].return_type for n in "abmn"] == [
        "int", "int", "Map", "Map"]
    assert holder["typed"].return_type == "java.util.List"
    assert holder["typed"].annotations == ["Marker"]
    run, take = holder["run"], holder["take"]
    assert [(p.name, p.type_name) for p in run.params] == [
        ("name", "String"), ("rest", "int[]")]
    assert run.thrown_types == ["IOException", "InterruptedException"]
    assert [(p.name, p.type_name) for p in take.params] == [
        ("parts", "String[]")]
    assert m.types[-2].members[0].params == []  # compact constructor
    # Concatenations in each braceless loop body count; the one after
    # each loop does not.
    body = run.body
    assert body.loops == 3
    assert [(c.line, c.target) for c in body.concat_sites] == [
        (38, "s"), (38, "s"), (41, "s"), (44, "s"), (44, "s")]
    assert [(lv.name, lv.type_name) for lv in body.local_vars] == [
        ("s", "String"), ("i", "int")]


_TYPE_NAMES = st.sampled_from(["A", "b", "Map", "java", "util", "Outer",
                               "Inner", "T"])


@st.composite
def type_refs(draw, depth=2):
    """(source text, name the parser records) of a type reference."""
    if draw(st.integers(0, 3)) == 0:
        source = name = draw(st.sampled_from(
            ["boolean", "byte", "char", "short", "int", "long", "float",
             "double"]))
    else:
        segments = draw(st.lists(_TYPE_NAMES, min_size=1, max_size=3))
        name = ".".join(segments)
        source = ""
        for k, segment in enumerate(segments):
            source += ("." if k else "") + segment
            if depth and draw(st.booleans()):
                args = draw(st.lists(
                    type_refs(depth - 1) | st.just(("?", "?")),
                    min_size=1, max_size=2))
                source += "<" + ", ".join(a for a, _ in args) + ">"
    dims = "[]" * draw(st.integers(0, 2))
    return source + dims, name + dims


@settings(max_examples=200, deadline=None)
@given(type_refs())
def test_field_and_local_of_a_type_record_one_type_name(ref):
    source, name = ref
    m = parse_source(
        f"class A {{ {source} f; void m() {{ {source} q = null; }} }}\n",
        "A.java")
    field, method = m.types[0].members
    assert field.return_type == name
    (local,) = method.body.local_vars
    assert local.type_name == simple_name_of(name)


def test_type_annotation_inside_a_qualified_type():
    m = parse_source(
        "class A extends java.lang.@Deprecated Object {\n"
        "  java.util.@Deprecated List<String> xs;\n"
        "  void f(java.util.@a.B(x = 1) List<String> ys) {\n"
        "    java.util.@Deprecated List<String> zs = ys;\n"
        "  }\n"
        "}\n"
        "class B extends @Deprecated Object {}\n", "A.java")
    t, b = m.types
    assert t.supertypes == ["java.lang.Object"]
    assert b.supertypes == ["Object"]
    field, method = t.members
    assert field.return_type == "java.util.List"
    assert method.params == [ParamFact("ys", "java.util.List")]
    assert method.body.local_vars == [LocalVarFact("zs", "List", 4, False)]
