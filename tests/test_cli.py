"""End-to-end command behavior through the in-process entry point."""

import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from javastyle.cli import ConfigError, main, parse_config_file
from javastyle.lexicon import load

from helpers import write_tree
from test_history import add_commit, make_repo

CLEAN_REPO = {
    "src/main/java/com/acme/Widget.java": (
        "package com.acme;\n\n"
        "/** Produces configured widgets for every stage of the assembly"
        " pipeline demo. */\n"
        "public class Widget {\n"
        "  private int size;\n\n"
        "  /**\n"
        "   * Returns the size that was configured for the current widget"
        " run.\n"
        "   * @return the configured size\n"
        "   */\n"
        "  public int getSize() { return size; }\n"
        "}\n"),
    "README.md": "# acme\n\nFollows the Google Java Style guide.\n",
}

MESSY_REPO = {
    "src/main/java/com/acme/thing.java": (
        "package com.acme;\n"
        "public class thing {\n"
        "  public int Count;\n"
        "  void DoIt() { try { hashCode(); } catch (Exception e) {} }\n"
        "}\n"),
}


def run_captured(capsysbinary, *argv):
    code = main(list(argv))
    out = capsysbinary.readouterr().out
    return code, out


def test_analyze_clean_repo_exits_zero(tmp_path, capsysbinary):
    write_tree(tmp_path, CLEAN_REPO)
    code, out = run_captured(capsysbinary, "analyze", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["totalNormalized"] == 0.0
    assert data["claim"]["category"] == "GoogleExplicit"
    assert data["violations"] == []


def test_analyze_output_is_byte_identical(tmp_path, capsysbinary):
    write_tree(tmp_path, MESSY_REPO)
    _, first = run_captured(capsysbinary, "analyze", str(tmp_path))
    _, second = run_captured(capsysbinary, "analyze", str(tmp_path))
    assert first == second


def test_fixture_report_matches_golden_bytes(capsysbinary, monkeypatch):
    # tests/golden/fixtures.json pins the report bytes across code
    # versions; regenerate it from the repository root with
    # `javastyle analyze tests/fixtures --format json` only when a change
    # to the report is intended.
    tests_dir = Path(__file__).parent
    monkeypatch.chdir(tests_dir.parent)
    monkeypatch.delenv("JAVASTYLE_CONFIG", raising=False)
    code, out = run_captured(capsysbinary, "analyze", "tests/fixtures",
                             "--format", "json")
    assert code == 0
    assert out == (tests_dir / "golden" / "fixtures.json").read_bytes()


@pytest.mark.parametrize("module", ["javastyle", "javastyle.cli"])
def test_module_entry_point_prints_the_golden_report(module):
    # `python -m javastyle` and `python -m javastyle.cli` run the same
    # command line as the `javastyle` console script.
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "JAVASTYLE_CONFIG"}
    proc = subprocess.run(
        [sys.executable, "-m", module, "analyze", "tests/fixtures",
         "--format", "json"],
        capture_output=True, cwd=root,
        env={**env, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == (root / "tests" / "golden" / "fixtures.json").read_bytes()


def test_fail_over_flips_exit_code(tmp_path, capsysbinary):
    write_tree(tmp_path, MESSY_REPO)
    code, _ = run_captured(capsysbinary, "analyze", str(tmp_path))
    assert code == 0  # without the flag the breach only shows in the verdict
    code, out = run_captured(capsysbinary, "analyze", str(tmp_path),
                             "--fail-over")
    assert code == 1
    data = json.loads(out)
    assert not all(data["verdict"]["perCategory"].values())


def test_fail_over_on_clean_repo_stays_zero(tmp_path, capsysbinary):
    write_tree(tmp_path, CLEAN_REPO)
    code, _ = run_captured(capsysbinary, "analyze", str(tmp_path),
                           "--fail-over")
    assert code == 0


def test_markdown_and_csv_formats(tmp_path, capsysbinary):
    write_tree(tmp_path, CLEAN_REPO)
    code, out = run_captured(capsysbinary, "analyze", str(tmp_path),
                             "--format", "markdown")
    assert code == 0 and out.startswith(b"# Style report:")
    code, out = run_captured(capsysbinary, "analyze", str(tmp_path),
                             "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == b"category,absolute,denominator,normalized,adherent"


def test_markdown_of_a_file_name_that_is_not_utf8(tmp_path, capsysbinary):
    (tmp_path / "p").mkdir()
    try:
        (tmp_path / "p" / os.fsdecode(b"B\xff.java")).write_bytes(
            b"package p;\nclass bad_name {}\n")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    for fmt, spelled in [("markdown", b"ClassNames at p/B\\udcff.java:2 -"),
                         ("json", b'"file": "p/B\\udcff.java"')]:
        code, out = run_captured(capsysbinary, "analyze", str(tmp_path),
                                 "--format", fmt)
        assert code == 0 and spelled in out, fmt


def test_missing_repo_is_fatal(capsysbinary):
    code, _ = run_captured(capsysbinary, "analyze", "/no/such/path")
    assert code == 3


def test_unknown_flag_is_usage_error(tmp_path, capsysbinary):
    write_tree(tmp_path, CLEAN_REPO)
    code, _ = run_captured(capsysbinary, "analyze", str(tmp_path),
                           "--what-is-this")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsysbinary):
    code, _ = run_captured(capsysbinary)
    assert code == 2


def test_threshold_flag_changes_verdict(tmp_path, capsysbinary):
    write_tree(tmp_path, MESSY_REPO)
    code, _ = run_captured(capsysbinary, "analyze", str(tmp_path),
                           "--threshold", "1.5", "--fail-over")
    assert code == 0  # every ratio tops out at 1.0 for single constructs


def test_exclude_flag_drops_subtree(tmp_path, capsysbinary):
    files = dict(CLEAN_REPO)
    files["src/main/java/com/acme/vendor/bad.java"] = (
        "package com.acme.vendor;\nclass bad { public int X; }\n")
    write_tree(tmp_path, files)
    code, out = run_captured(capsysbinary, "analyze", str(tmp_path))
    assert json.loads(out)["totalNormalized"] > 0
    code, out = run_captured(
        capsysbinary, "analyze", str(tmp_path),
        "--exclude", "src/main/java/com/acme/vendor")
    assert code == 0 and json.loads(out)["totalNormalized"] == 0.0


def test_comparison_after_if_declares_no_local(tmp_path, capsysbinary):
    write_tree(tmp_path, {"src/main/java/p/Pick.java": (
        "package p;\n"
        "class Pick {\n"
        "  private int d;\n"
        "  boolean pick(int a, int b, int c) {\n"
        "    boolean x = false;\n"
        "    if (a < b) x = c > d;\n"
        "    return x;\n"
        "  }\n"
        "}\n")})
    _, out = run_captured(capsysbinary, "analyze", str(tmp_path))
    data = json.loads(out)
    assert [v for v in data["violations"] if v["category"] == "Useless"] == []
    (names,) = [row for row in data["scores"]
                if row["category"] == "VariableNames"]
    assert names["denominator"] == 5  # d, a, b, c, x


def _class_names_denominator(out: bytes) -> int:
    return next(row["denominator"] for row in json.loads(out)["scores"]
                if row["category"] == "ClassNames")


def test_exclude_prefixes_are_normalised(tmp_path, capsysbinary):
    write_tree(tmp_path, {
        "repo/src/main/java/p/A.java": "package p;\nclass A {}\n",
        "repo/src/main/java/gen/b.java": "package gen;\nclass b {}\n",
    })
    repo = str(tmp_path / "repo")
    config = tmp_path / "style.cfg"
    config.write_text("exclude = ./src/main/java//gen/\n", encoding="utf-8")
    code, out = run_captured(capsysbinary, "analyze", repo)
    assert code == 0 and _class_names_denominator(out) == 2
    digests = set()
    for flags in (["--exclude", "src/main/java/gen"],
                  ["--exclude", "./src/main/java/gen"],
                  ["--exclude", "src/main/java//gen"],
                  ["--exclude", "src/main/java/gen/."],
                  ["--exclude", "src/main/java/p/../gen/"],
                  ["--config", str(config)]):
        code, out = run_captured(capsysbinary, "analyze", repo, *flags)
        assert code == 0 and _class_names_denominator(out) == 1, flags
        digests.add(json.loads(out)["configDigest"])
    assert len(digests) == 1


@pytest.mark.parametrize("prefix", [".", "./", "", "/src/main/java/gen",
                                    "//gen", "..", "../repo/gen", "a/../.."])
def test_exclude_prefix_outside_the_tree_is_usage_error(tmp_path, capsys,
                                                        prefix):
    write_tree(tmp_path, CLEAN_REPO)
    code = main(["analyze", str(tmp_path), "--exclude", prefix])
    assert code == 2
    assert "exclude prefix" in capsys.readouterr().err
    if prefix:  # the config file rejects an empty value on its own
        config = tmp_path / "style.cfg"
        config.write_text(f"exclude = {prefix}\n", encoding="utf-8")
        assert main(["analyze", str(tmp_path), "--config", str(config)]) == 2


def test_config_file_and_flag_precedence(tmp_path, capsysbinary, monkeypatch):
    write_tree(tmp_path, MESSY_REPO)
    config = tmp_path / "style.cfg"
    config.write_text("# relaxed profile\nthreshold = 1.5\nordering = 3\n",
                      encoding="utf-8")

    code, out = run_captured(capsysbinary, "analyze", str(tmp_path),
                             "--config", str(config), "--fail-over")
    assert code == 0  # config threshold forgives everything
    assert json.loads(out)["verdict"]["threshold"] == 1.5

    # a flag must beat the file
    code, out = run_captured(capsysbinary, "analyze", str(tmp_path),
                             "--config", str(config),
                             "--threshold", "0.0001", "--fail-over")
    assert code == 1
    assert json.loads(out)["verdict"]["threshold"] == 0.0001

    # the environment variable names the same file
    monkeypatch.setenv("JAVASTYLE_CONFIG", str(config))
    code, out = run_captured(capsysbinary, "analyze", str(tmp_path),
                             "--fail-over")
    assert code == 0
    assert json.loads(out)["verdict"]["threshold"] == 1.5


def test_config_digest_tracks_settings(tmp_path, capsysbinary):
    write_tree(tmp_path, CLEAN_REPO)
    _, a = run_captured(capsysbinary, "analyze", str(tmp_path))
    _, b = run_captured(capsysbinary, "analyze", str(tmp_path),
                        "--ordering", "3")
    assert (json.loads(a)["configDigest"] != json.loads(b)["configDigest"])


def test_malformed_config_is_usage_error(tmp_path, capsys):
    write_tree(tmp_path, CLEAN_REPO)
    config = tmp_path / "style.cfg"
    config.write_text("threshold 0.05\n", encoding="utf-8")
    code = main(["analyze", str(tmp_path), "--config", str(config)])
    assert code == 2
    assert "style.cfg:1" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["--config", "JAVASTYLE_CONFIG",
                                  "--lexicon", "corpus"])
def test_an_input_file_that_is_not_utf8_ends_in_one_error_line(
        tmp_path, capsysbinary, monkeypatch, case):
    write_tree(tmp_path / "repo", CLEAN_REPO)
    repo = str(tmp_path / "repo")
    bad = tmp_path / "bad.txt"
    if case == "corpus":
        bad.write_bytes(os.fsencode(repo) + b"\n\xff\n")
        argv, code = ["corpus", str(bad)], 3
        expected = f"cannot read paths file: {bad}:2: not valid UTF-8"
    elif case == "--lexicon":
        bad.write_bytes(b"word\tn\n\xff\tn\n")
        argv, code = ["analyze", repo, "--lexicon", str(bad)], 3
        expected = f"{bad}: malformed lexicon line(s): 2"
    else:
        bad.write_bytes(b"threshold=0.1\r\n# caf\xe9\n")
        argv, code = ["analyze", repo], 2
        expected = f"{bad}:2: not valid UTF-8"
        if case == "--config":
            argv += ["--config", str(bad)]
        else:
            monkeypatch.setenv("JAVASTYLE_CONFIG", str(bad))
    assert main(argv) == code
    captured = capsysbinary.readouterr()
    assert (captured.out, captured.err.decode()) == (b"", f"error: {expected}\n")


def bom_and_cr_line_ends(text: str) -> bytes:
    """`text` after a byte order mark, its lines ended by CRLF and CR in
    turn."""
    lines = text.split("\n")
    ends = ["\r\n", "\r"] * len(lines)
    return ("\ufeff" + "".join(map(str.__add__, lines[:-1], ends))
            + lines[-1]).encode()


@pytest.mark.parametrize("case", ["--config", "JAVASTYLE_CONFIG",
                                  "--lexicon", "corpus", "sample"])
def test_a_byte_order_mark_and_cr_line_ends_read_as_the_plain_file(
        tmp_path, capsysbinary, monkeypatch, case):
    write_tree(tmp_path / "repo", CLEAN_REPO)
    repo = str(tmp_path / "repo")
    if case == "sample":
        write_tree(tmp_path / "messy", MESSY_REPO)
        assert main(["analyze", str(tmp_path / "messy")]) == 0
        text = capsysbinary.readouterr().out.decode()
        file = tmp_path / "reports" / "r.json"
        file.parent.mkdir()
        argv = ["sample", str(file.parent), "--groups", "1"]
    else:
        file = tmp_path / "input.txt"
        if case == "corpus":
            text = f"{repo}\n# listed twice\n{repo}\n"
            argv = ["corpus", str(file)]
        elif case == "--lexicon":
            text = "widget\tv\nsize\tn\nrun\tv\n"
            argv = ["analyze", repo, "--lexicon", str(file)]
        else:
            text = "threshold=0.5\nordering=1\n"
            argv = ["analyze", repo]
            if case == "--config":
                argv += ["--config", str(file)]
            else:
                monkeypatch.setenv("JAVASTYLE_CONFIG", str(file))
    results = []
    for data in (text.encode(), bom_and_cr_line_ends(text)):
        file.write_bytes(data)
        load.cache_clear()  # so the lexicon at the same path is read again
        results.append((main(argv), capsysbinary.readouterr().out))
    assert results[0][1] and results[0] == results[1]


def test_config_file_keys_and_bad_values(tmp_path):
    config = tmp_path / "style.cfg"
    config.write_text("lexicon = words.tsv\nexclude = gen\nexclude = old\n",
                      encoding="utf-8")
    assert parse_config_file(str(config)) == {
        "lexicon": "words.tsv", "excludes": ["gen", "old"]}
    for line, value in [("threshold = high", "'high'"),
                        ("ordering = 2.5", "'2.5'")]:
        config.write_text(f"# profile\n{line}\n", encoding="utf-8")
        key = line.split()[0]
        with pytest.raises(ConfigError) as raised:
            parse_config_file(str(config))
        assert str(raised.value) == (
            f"{config}:2: bad value for {key}: {value}")


def test_unknown_ordering_is_usage_error(tmp_path, capsysbinary):
    write_tree(tmp_path, CLEAN_REPO)
    config = tmp_path / "style.cfg"
    config.write_text("ordering = 9\n", encoding="utf-8")
    code, _ = run_captured(capsysbinary, "analyze", str(tmp_path),
                           "--config", str(config))
    assert code == 2


def test_version_flag(capsysbinary):
    code, out = run_captured(capsysbinary, "--version")
    assert code == 0 and out.startswith(b"javastyle ")


def test_claims_subcommand(tmp_path, capsysbinary):
    write_tree(tmp_path, CLEAN_REPO)
    code, out = run_captured(capsysbinary, "claims", str(tmp_path))
    assert code == 0
    data = json.loads(out)
    assert data["category"] == "GoogleExplicit"
    assert data["evidence"][0]["file"] == "README.md"


def test_evolve_subcommand(tmp_path, capsysbinary):
    repo = make_repo(tmp_path / "repo")
    for i in range(40):
        y, m = divmod(2021 * 12 + i, 12)
        add_commit(repo, datetime(y, m + 1, 15, 12, tzinfo=timezone.utc),
                   {"src/p/A.java": f"package p;\nclass A {{ int f{i}; }}\n"})
    code, out = run_captured(capsysbinary, "evolve", str(repo),
                             "--as-of", "2024-05-01", "--months", "3")
    assert code == 0
    data = json.loads(out)
    # docs/report-schema.md, "Evolve document"
    assert list(data) == ["repo", "months", "asOf", "minGapDays", "samples"]
    assert (data["months"], data["asOf"]) == (3, "2024-05-01")
    assert [s["month"] for s in data["samples"]] == [
        "2024-02", "2024-03", "2024-04"]
    assert all(not s["failed"] for s in data["samples"])
    assert data["minGapDays"] >= 10


def test_evolve_bad_date_is_usage_error(tmp_path, capsysbinary):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, datetime(2024, 1, 15, tzinfo=timezone.utc), {"a": "1"})
    code, _ = run_captured(capsysbinary, "evolve", str(repo),
                           "--as-of", "May 2024")
    assert code == 2


@pytest.mark.parametrize("months", ["0", "-3"])
def test_evolve_months_below_one_is_usage_error(tmp_path, capsysbinary,
                                                months):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, datetime(2024, 1, 15, tzinfo=timezone.utc), {"a": "1"})
    code = main(["evolve", str(repo), "--as-of", "2024-05-01",
                 "--months", months, "--force"])
    captured = capsysbinary.readouterr()
    assert code == 2
    assert captured.out == b""
    assert b"--months must be at least 1" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_corpus_jobs_below_one_is_usage_error(tmp_path, capsysbinary, jobs):
    clean = tmp_path / "clean"
    write_tree(clean, CLEAN_REPO)
    paths_file = tmp_path / "paths.txt"
    paths_file.write_text(f"{clean}\n", encoding="utf-8")
    code = main(["corpus", str(paths_file), "--jobs", jobs])
    captured = capsysbinary.readouterr()
    assert code == 2
    assert captured.out == b""
    assert b"--jobs must be at least 1" in captured.err


def test_evolve_ineligible_is_fatal(tmp_path, capsysbinary):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, datetime(2024, 1, 15, tzinfo=timezone.utc), {"a": "1"})
    code = main(["evolve", str(repo), "--as-of", "2024-05-01"])
    captured = capsysbinary.readouterr()
    assert code == 3
    assert captured.out == b""
    assert captured.err == (
        b"error: repository not eligible: age: first commit in 2024-01 is "
        b"4 months before 2024-05, need 36; activity gap: no commits in "
        b"2023-05, 2023-06, 2023-07, 2023-08, 2023-09, 2023-10, 2023-11, "
        b"2023-12, 2024-02, 2024-03, 2024-04\n")


def test_evolve_outside_a_git_repository_is_fatal(tmp_path, capsysbinary):
    plain = tmp_path / "plain"
    plain.mkdir()
    code = main(["evolve", str(plain), "--as-of", "2024-05-01", "--force"])
    captured = capsysbinary.readouterr()
    assert code == 3
    assert captured.out == b""
    assert captured.err.startswith(b"error: git status --porcelain failed: ")
    assert b"not a git repository" in captured.err
    assert captured.err.count(b"\n") == 1


def test_sample_subcommand_roundtrip(tmp_path, capsysbinary):
    repos_dir = tmp_path / "repos"
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    for i in range(4):
        repo = repos_dir / f"r{i}"
        write_tree(repo, MESSY_REPO)
        code, out = run_captured(capsysbinary, "analyze", str(repo))
        assert code == 0
        (reports_dir / f"r{i}.json").write_bytes(out)

    code, out = run_captured(capsysbinary, "sample", str(reports_dir),
                             "--groups", "2", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["repos"] == 4 and data["groups"] == 2
    picked = data["samples"]["EmptyCatchBlock"]
    assert len(picked) == 2
    assert {p["group"] for p in picked} == {0, 1}
    for p in picked:
        assert p["file"].endswith("thing.java") and p["line"] == 4


def test_sample_too_many_groups_is_usage_error(tmp_path, capsysbinary):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    (reports_dir / "only.json").write_text(
        json.dumps({"repo": "x", "violations": []}), encoding="utf-8")
    code, _ = run_captured(capsysbinary, "sample", str(reports_dir),
                           "--groups", "5")
    assert code == 2


@pytest.mark.parametrize("groups", ["0", "-1"])
def test_sample_groups_below_one_is_usage_error(tmp_path, capsysbinary,
                                                groups):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    (reports_dir / "only.json").write_text(
        json.dumps({"repo": "x", "violations": []}), encoding="utf-8")
    code = main(["sample", str(reports_dir), "--groups", groups])
    captured = capsysbinary.readouterr()
    assert (code, captured.out) == (2, b"")
    assert captured.err == (
        f"error: --groups must be at least 1, got {groups}\n".encode())


def test_sample_garbage_json_is_fatal(tmp_path, capsysbinary):
    reports_dir = tmp_path / "reports"
    reports_dir.mkdir()
    for text in ("{nope", "[]", '"x"', "3"):
        (reports_dir / "bad.json").write_text(text, encoding="utf-8")
        code, _ = run_captured(capsysbinary, "sample", str(reports_dir),
                               "--groups", "1")
        assert code == 3, text


def test_corpus_subcommand(tmp_path, capsysbinary):
    clean = tmp_path / "clean"
    messy = tmp_path / "messy"
    write_tree(clean, CLEAN_REPO)
    write_tree(messy, MESSY_REPO)
    paths_file = tmp_path / "paths.txt"
    paths_file.write_text(f"# corpus\n{clean}\n\n{messy}\n", encoding="utf-8")

    code, out = run_captured(capsysbinary, "corpus", str(paths_file))
    assert code == 0
    data = json.loads(out)
    assert data["repos"] == 2
    catch = data["stats"]["EmptyCatchBlock"]
    assert catch["min"] == 0.0 and catch["max"] == 1.0
    row = {r["threshold"]: r["percent"]
           for r in data["thresholdTable"]["EmptyCatchBlock"]}
    assert row[0.25] == 50.0 and row[0] == 50.0

    code, out = run_captured(capsysbinary, "corpus", str(paths_file),
                             "--format", "csv", "--jobs", "2")
    assert code == 0
    assert out.splitlines()[0] == b"category,min,max,mean,median"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_corpus_output_is_the_same_for_every_job_count(tmp_path, capsysbinary,
                                                        fmt):
    write_tree(tmp_path / "clean", CLEAN_REPO)
    write_tree(tmp_path / "messy", MESSY_REPO)
    paths_file = tmp_path / "paths.txt"
    paths_file.write_text(f"{tmp_path / 'clean'}\n{tmp_path / 'messy'}\n",
                          encoding="utf-8")
    outputs = set()
    for jobs in ("1", "2", "3"):  # 3 jobs for 2 repositories is fine
        code, out = run_captured(capsysbinary, "corpus", str(paths_file),
                                 "--format", fmt, "--jobs", jobs)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize("case", ["lexicon", "path"])
def test_corpus_errors_are_the_same_for_every_job_count(tmp_path,
                                                         capsysbinary, case):
    write_tree(tmp_path / "clean", CLEAN_REPO)
    listed = [tmp_path / "clean", tmp_path / "clean"]
    extra = []
    if case == "lexicon":
        bad = tmp_path / "bad.tsv"
        bad.write_text("foo\tbad\n", encoding="utf-8")
        extra = ["--lexicon", str(bad)]
        expected = f"error: {bad}: malformed lexicon line(s): 1\n"
    else:
        listed.insert(1, tmp_path / "gone")
        expected = f"error: not a directory: {tmp_path / 'gone'}\n"
    paths_file = tmp_path / "paths.txt"
    paths_file.write_text("".join(f"{p}\n" for p in listed), encoding="utf-8")
    for jobs in ("1", "2"):
        code = main(["corpus", str(paths_file), "--jobs", jobs, *extra])
        captured = capsysbinary.readouterr()
        assert code == 3, jobs
        assert captured.out == b""
        assert captured.err.decode() == expected, jobs
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


def test_importing_the_cli_loads_no_process_machinery():
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        ["python3", "-c",
         "import sys, javastyle.cli; print(sorted(m for m in "
         "('multiprocessing', 'concurrent.futures.process') "
         "if m in sys.modules))"],
        capture_output=True, text=True, cwd=pkg_root,
        env={**os.environ, "PYTHONPATH": os.path.join(pkg_root, "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_corpus_empty_paths_file_is_fatal(tmp_path, capsysbinary):
    paths_file = tmp_path / "paths.txt"
    paths_file.write_text("# nothing\n", encoding="utf-8")
    code, _ = run_captured(capsysbinary, "corpus", str(paths_file))
    assert code == 3


def test_console_script_entry(tmp_path):
    write_tree(tmp_path, CLEAN_REPO)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        ["python3", "-c",
         "import sys; sys.argv = ['javastyle', 'analyze', sys.argv[1]]; "
         "from javastyle.cli import run; run()",
         str(tmp_path)],
        capture_output=True, cwd=pkg_root,
        env={**os.environ, "PYTHONPATH": os.path.join(pkg_root, "src")})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["totalNormalized"] == 0.0
