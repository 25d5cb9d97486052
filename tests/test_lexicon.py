"""Word lexicon, identifier splitting, and casing conventions."""

import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from javastyle.lexicon import (ADJECTIVE, ADVERB, CATEGORY_BY_LETTER, NOUN,
                               VERB, Lexicon, LexiconError, decode_source,
                               matches_casing, split_identifier)

from helpers import parse_source, run_check
from javastyle.checkers import check_class_names


# --- bundled lexicon content -------------------------------------------------

PINNED = {
    "map": {NOUN, VERB},
    "maps": {NOUN, VERB},
    "sorted": {ADJECTIVE, VERB},
    "fast": {ADJECTIVE, ADVERB},
    "speedily": {ADVERB},
    "data": {NOUN},
    "manager": {NOUN},
    "customer": {NOUN},
    "sort": {NOUN, VERB},
    "hash": {NOUN, VERB},
}


def test_pinned_single_category_words(lexicon):
    for word, expected in PINNED.items():
        assert lexicon.categories(word) == frozenset(expected), word


def test_pinned_multi_category_words(lexicon):
    for word in ("do", "work", "run"):
        cats = lexicon.categories(word)
        assert NOUN in cats and VERB in cats, word
    for word in ("total", "equal"):
        cats = lexicon.categories(word)
        assert {ADJECTIVE, NOUN, VERB} <= cats, word
    for word in ("running", "building"):
        cats = lexicon.categories(word)
        assert ADJECTIVE in cats and VERB in cats, word


def test_unknown_words_are_absent(lexicon):
    assert lexicon.categories("zzxqy") == frozenset()
    assert lexicon.categories("main") == frozenset()


def test_lookup_is_case_insensitive(lexicon):
    assert lexicon.categories("Sort") == lexicon.categories("sort")
    assert lexicon.categories("DATA") == {NOUN}


def test_bundled_file_is_well_formed(lexicon):
    import importlib.resources
    entry = re.compile(r"^[a-z]+\t[nvaro](,[nvaro])*$")
    data = (importlib.resources.files("javastyle")
            .joinpath("data/lexicon.txt").read_text())
    lines = data.splitlines()
    assert len(lines) > 10000
    for ln in lines:
        assert entry.match(ln), ln


# --- loader ------------------------------------------------------------------


def make_lexicon(tmp_path, text):
    p = tmp_path / "lex.txt"
    p.write_text(text, encoding="utf-8")
    return p


def test_from_file_roundtrip(tmp_path):
    p = make_lexicon(tmp_path, "carry\tv\nstop\tn,v\n")
    lex = Lexicon.from_file(str(p))
    assert lex.categories("carry") == {VERB}
    assert lex.categories("stop") == {NOUN, VERB}


def test_duplicate_words_union(tmp_path):
    p = make_lexicon(tmp_path, "level\tn\nlevel\tv\n")
    lex = Lexicon.from_file(str(p))
    assert lex.categories("level") == {NOUN, VERB}


def test_malformed_lines_all_reported(tmp_path):
    p = make_lexicon(
        tmp_path,
        "good\tn\nbad line\nalso,bad\nfine\tv\nworse\tx\nlast\tn,\n")
    with pytest.raises(LexiconError) as err:
        Lexicon.from_file(str(p))
    message = str(err.value)
    assert str(p) in message
    assert "2, 3, 5, 6" in message


@pytest.mark.parametrize("data, line", [
    (b"word\tn\n\xff\tn\n", 2),
    (b"\xffword\tn\n", 1),
    (b"a\tn\r\nb\tn\rc\tv\nd\xe9\tn\n", 4),
])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, data, line):
    p = tmp_path / "lex.txt"
    p.write_bytes(data)
    with pytest.raises(LexiconError) as err:
        Lexicon.from_file(str(p))
    assert (err.value.path, err.value.lines) == (str(p), [line])
    assert str(err.value) == f"{p}: malformed lexicon line(s): {line}"


def test_a_line_ends_only_at_lf_cr_and_crlf(tmp_path):
    # A form feed stays in its line, as in an editor and in the count of
    # `undecodable_line`.
    p = make_lexicon(tmp_path, "run\tv\n\fother\tn\nbad line\n")
    with pytest.raises(LexiconError) as err:
        Lexicon.from_file(str(p))
    assert err.value.lines == [2, 3]


def test_lexicon_error_survives_pickling(tmp_path):
    # A corpus worker process sends the error back to the parent.
    p = make_lexicon(tmp_path, "good\tn\nbad line\nworse\tx\n")
    with pytest.raises(LexiconError) as err:
        Lexicon.from_file(str(p))
    copy = pickle.loads(pickle.dumps(err.value))
    assert type(copy) is LexiconError
    assert (copy.path, copy.lines) == (str(p), [2, 3])
    assert str(copy) == str(err.value)


def test_blank_and_comment_lines_are_malformed(tmp_path):
    # one entry per line, nothing else: blanks and pseudo-comments are
    # reported rather than skipped silently
    p = make_lexicon(tmp_path, "\n# comment\nword\tn\n")
    with pytest.raises(LexiconError) as err:
        Lexicon.from_file(str(p))
    assert "1, 2" in str(err.value)


def reference_parse(text: str):
    """The loader's rules, one line at a time, each ending at LF: the
    words' category sets, or the numbers of the malformed lines."""
    entries, bad = {}, []
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        m = re.match(r"^(\S+)\t([nvaro](?:,[nvaro])*)$", line)
        if m is None:
            bad.append(lineno)
            continue
        cats = {CATEGORY_BY_LETTER[c] for c in m.group(2).split(",")}
        entries.setdefault(m.group(1).lower(), set()).update(cats)
    return bad or {w: frozenset(c) for w, c in entries.items()}


LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028"]
LEXICON_LINES = st.one_of(
    st.builds("{}\t{}".format, st.sampled_from(["run", "Run", "RUNS", "a",
                                                "x-y", "caf\xe9"]),
              st.sampled_from(["n", "v", "a,v", "n,v,a", "r", "o,o"])),
    st.sampled_from(["", "run", "run\t", "run\tx", "run\tn,", " run\tn",
                     "run\tn ", "run\t\tn", "# c", "run n",
                     "run\tn run\tv", "run\tn\trun\tv"]))


@given(st.lists(st.tuples(LEXICON_LINES, st.sampled_from(LINE_ENDS)),
                max_size=12), st.booleans())
def test_loader_matches_the_line_by_line_rules(lines, last_end):
    text = "".join(line + end for line, end in lines)
    if lines and not last_end:
        text = text[:-len(lines[-1][1])]
    # As a file is read: CR and CRLF become "\n"; "\x0b", "\x85" and
    # "\u2028" stay in their line.
    text = decode_source(text.encode())
    want = reference_parse(text)
    if isinstance(want, list):
        with pytest.raises(LexiconError) as err:
            Lexicon._parse(text, "t.txt")
        assert err.value.lines == want
    else:
        got = Lexicon._parse(text, "t.txt")
        assert {w: got.categories(w) for w in want} == want
        assert len(got._entries) == len(want)


def test_bundled_lexicon_matches_the_line_by_line_rules(lexicon):
    import importlib.resources
    text = (importlib.resources.files("javastyle")
            .joinpath("data/lexicon.txt").read_text(encoding="utf-8"))
    want = reference_parse(text)
    assert {w: lexicon.categories(w) for w in want} == want
    assert len(lexicon._entries) == len(want)


# --- suffix fallback ---------------------------------------------------------


def test_suffix_fallback_variants(tmp_path):
    p = make_lexicon(tmp_path, "tokenize\tv\ncarry\tv\nstop\tv\nbox\tn\n")
    lex = Lexicon.from_file(str(p))
    assert lex.categories_with_fallback("tokenizes") == {VERB}
    assert lex.categories_with_fallback("tokenized") == {VERB}
    assert lex.categories_with_fallback("tokenizing") == {VERB}
    assert lex.categories_with_fallback("carries") == {VERB}
    assert lex.categories_with_fallback("carried") == {VERB}
    assert lex.categories_with_fallback("stopped") == {VERB}
    assert lex.categories_with_fallback("stopping") == {VERB}
    assert lex.categories_with_fallback("boxes") == {NOUN}
    assert lex.categories_with_fallback("nonsense") == frozenset()


def test_exact_hit_wins_over_fallback(tmp_path):
    # "sorted" has its own entry; fallback to "sort" must not replace it
    p = make_lexicon(tmp_path, "sort\tn,v\nsorted\ta\n")
    lex = Lexicon.from_file(str(p))
    assert lex.categories_with_fallback("sorted") == {ADJECTIVE}


# --- identifier splitting ----------------------------------------------------


@pytest.mark.parametrize("name,words", [
    ("getXMLHttpRequest", ["get", "xml", "http", "request"]),
    ("HTTPSConnection2", ["https", "connection", "2"]),
    ("parseJSON", ["parse", "json"]),
    ("value", ["value"]),
    ("MAX_VALUE", ["max", "value"]),
    ("dataManager", ["data", "manager"]),
    ("a1b2", ["a", "1", "b", "2"]),
])
def test_split_identifier_words(name, words):
    assert split_identifier(name) == words


def test_split_identifier_degenerate():
    assert split_identifier("___") == ["___"]
    assert split_identifier("$") == ["$"]


@given(st.from_regex(r"[A-Za-z0-9]+", fullmatch=True))
def test_split_reconstructs_alphanumeric_names(name):
    words = split_identifier(name)
    assert "".join(words) == name.lower()


@given(st.from_regex(r"[A-Za-z0-9_$]+", fullmatch=True))
def test_split_always_yields_words(name):
    assert split_identifier(name)


# --- casing conventions ------------------------------------------------------


@pytest.mark.parametrize("name,ok", [
    ("Foo", True), ("FooBar", True), ("F", True), ("FOO", True),
    ("Foo2Bar", True),
    ("fooBar", False), ("Foo_Bar", False), ("2Foo", False), ("", False),
])
def test_upper_camel(name, ok):
    assert matches_casing(name, "upperCamel") is ok


@pytest.mark.parametrize("name,ok", [
    ("foo", True), ("fooBar", True), ("x2", True), ("fooBAR", True),
    ("Foo", False), ("foo_bar", False), ("_foo", False), ("", False),
])
def test_lower_camel(name, ok):
    assert matches_casing(name, "lowerCamel") is ok


@pytest.mark.parametrize("name,ok", [
    ("MAX", True), ("MAX_VALUE", True), ("MAX_VALUE2", True), ("M", True),
    ("A2_B3", True),
    ("Max", False), ("MAX__V", False), ("MAX_", False), ("_MAX", False),
    ("max", False), ("", False),
])
def test_constant_case(name, ok):
    assert matches_casing(name, "constant") is ok


def test_unknown_convention_raises():
    with pytest.raises(ValueError):
        matches_casing("x", "shoutyKebab")


@given(st.from_regex(r"[A-Za-z][A-Za-z0-9]*", fullmatch=True))
def test_upper_and_lower_camel_disjoint(name):
    assert not (matches_casing(name, "upperCamel")
                and matches_casing(name, "lowerCamel"))


# --- monotonicity: growing an existing word's categories never creates a
# --- class-name violation; adding a brand-new word can (documented below)


def class_name_violations(lex, name):
    model = parse_source(f"public class {name} {{}}", "Demo.java")
    return run_check(check_class_names, model, lexicon=lex)


def test_category_growth_never_flips_compliant_to_violating(tmp_path):
    small = Lexicon.from_file(
        str(make_lexicon(tmp_path, "sort\tn\nfast\ta\n")))
    grown = Lexicon.from_file(
        str(make_lexicon(tmp_path / "..", "sort\tn,v,a\nfast\ta,r\n")))
    for name in ("QuickSort", "Sort", "DataSort"):
        before = class_name_violations(small, name)
        after = class_name_violations(grown, name)
        assert not before and not after


def test_new_word_entry_can_create_a_violation(tmp_path):
    # A lexicon that does not know "fast" accepts RunFast (unknown word);
    # teaching it "fast" as adjective/adverb makes RunFast a violation.
    # This is why the monotonicity claim holds only for category growth
    # of existing entries, not for word additions.
    without = Lexicon.from_file(str(make_lexicon(tmp_path, "run\tn,v\n")))
    assert class_name_violations(without, "RunFast") == []
    with_fast = Lexicon.from_file(
        str(make_lexicon(tmp_path / "..", "run\tn,v\nfast\ta,r\n")))
    assert len(class_name_violations(with_fast, "RunFast")) == 1
