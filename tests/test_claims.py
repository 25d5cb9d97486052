"""Documentation claim scanning over temp repository trees."""

from javastyle.claims import (GOOGLE_EXPLICIT, MENTION_CODE_STYLE, NO_MENTION,
                              scan_claims)

from helpers import write_tree


def classify(tmp_path, files, deep=False):
    write_tree(tmp_path, files)
    return scan_claims(str(tmp_path), deep=deep)


def test_no_docs_means_no_mention(tmp_path):
    result = classify(tmp_path, {"src/A.java": "class A {}"})
    assert result.category == NO_MENTION and result.evidence == []


def test_bland_readme_is_no_mention(tmp_path):
    result = classify(tmp_path, {
        "README.md": "# widget\n\nBuilds widgets quickly.\n"})
    assert result.category == NO_MENTION


def test_generic_style_mention(tmp_path):
    result = classify(tmp_path, {
        "README.md": "Please follow our code style when contributing.\n"})
    assert result.category == MENTION_CODE_STYLE
    assert result.evidence[0].file == "README.md"
    assert result.evidence[0].line == 1
    assert result.evidence[0].matched == "code style"


def test_generic_patterns_variants(tmp_path):
    for phrase in ("our code-style rules", "project coding standards",
                   "see the style guide", "one coding standard"):
        sub = tmp_path / phrase.replace(" ", "_").replace("-", "_")
        sub.mkdir()
        result = classify(sub, {"README.md": phrase + "\n"})
        assert result.category == MENTION_CODE_STYLE, phrase


def test_google_guide_mention_wins(tmp_path):
    result = classify(tmp_path, {
        "README.md": ("We enforce our code style.\n"
                      "It follows the Google Java Style guide.\n")})
    assert result.category == GOOGLE_EXPLICIT
    assert any(e.line == 2 for e in result.evidence)
    assert all(e.matched for e in result.evidence)


def test_evidence_lines_end_only_at_lf_cr_and_crlf(tmp_path):
    # A form feed stays in its line, as in an editor; CR and CRLF end one.
    for text, line in [("intro\fmore\nWe follow the Google Java Style.\n", 2),
                       ("a\rb\r\nc\vd\nWe follow the Google Java Style.", 4)]:
        (tmp_path / "README.md").write_bytes(text.encode())
        result = scan_claims(str(tmp_path))
        assert [e.line for e in result.evidence] == [line], text


def test_google_url_counts(tmp_path):
    result = classify(tmp_path, {
        "CONTRIBUTING.md":
            "See https://google.github.io/styleguide/javaguide.html\n"})
    assert result.category == GOOGLE_EXPLICIT


def test_matching_is_case_insensitive(tmp_path):
    result = classify(tmp_path, {
        "readme.md": "GOOGLE JAVA STYLE is the law here.\n"})
    assert result.category == GOOGLE_EXPLICIT


def test_checkstyle_config_counts_as_style_claim(tmp_path):
    result = classify(tmp_path, {
        "checkstyle.xml": "<module name=\"TreeWalker\"/>\n"})
    assert result.category == MENTION_CODE_STYLE
    assert result.evidence[0].file == "checkstyle.xml"


def test_google_token_inside_config_upgrades(tmp_path):
    result = classify(tmp_path, {
        "checkstyle.xml": "<!-- google_checks profile -->\n"})
    assert result.category == GOOGLE_EXPLICIT


def test_pmd_and_ruleset_names_recognized(tmp_path):
    for name in ("pmd.xml", "ruleset.xml", "checkstyle-rules.xml"):
        sub = tmp_path / name.replace(".", "_")
        sub.mkdir()
        result = classify(sub, {name: "<rules/>\n"})
        assert result.category == MENTION_CODE_STYLE, name


def test_non_config_xml_ignored(tmp_path):
    result = classify(tmp_path, {"pom.xml": "<project>google</project>\n"})
    assert result.category == NO_MENTION


def test_docs_directory_needs_deep_flag(tmp_path):
    files = {"docs/style.md": "Google Java Style applies.\n"}
    assert classify(tmp_path, files).category == NO_MENTION
    assert scan_claims(str(tmp_path), deep=True).category == GOOGLE_EXPLICIT


def test_deep_scan_reports_relative_paths(tmp_path):
    write_tree(tmp_path, {
        "docs/dev/conventions.md": "Follow the style guide.\n"})
    result = scan_claims(str(tmp_path), deep=True)
    assert result.category == MENTION_CODE_STYLE
    assert result.evidence[0].file == "docs/dev/conventions.md"


def test_nested_markdown_outside_docs_not_scanned(tmp_path):
    result = classify(tmp_path, {
        "src/notes.md": "Google Java Style applies.\n"}, deep=True)
    assert result.category == NO_MENTION


def test_classification_ignores_file_order(tmp_path):
    # the google hit must win regardless of which file sorts first
    a = tmp_path / "a"
    a.mkdir()
    ra = classify(a, {
        "AAA.md": "code style\n",
        "ZZZ.md": "google java style\n"})
    b = tmp_path / "b"
    b.mkdir()
    rb = classify(b, {
        "AAA.md": "google java style\n",
        "ZZZ.md": "code style\n"})
    assert ra.category == rb.category == GOOGLE_EXPLICIT


def test_every_evidence_row_is_located(tmp_path):
    result = classify(tmp_path, {
        "README.md": ("style guide\n\ncode style\n"
                      "google java style\n")})
    assert result.category == GOOGLE_EXPLICIT
    for e in result.evidence:
        assert e.file == "README.md" and e.line >= 1 and e.matched
