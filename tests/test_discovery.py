"""Source discovery: layout preference, exclusions, ordering."""

import pytest

from javastyle.discovery import discover_sources

from helpers import write_tree


def test_prefers_src_main_java_when_present(tmp_path):
    write_tree(tmp_path, {
        "src/main/java/com/app/Main.java": "class Main {}",
        "src/main/java/com/app/util/Help.java": "class Help {}",
        "src/test/java/com/app/MainTest.java": "class MainTest {}",
        "scripts/Tool.java": "class Tool {}",
        "README.md": "hi",
    })
    assert discover_sources(str(tmp_path)) == [
        "src/main/java/com/app/Main.java",
        "src/main/java/com/app/util/Help.java",
    ]


def test_multi_module_main_roots(tmp_path):
    write_tree(tmp_path, {
        "core/src/main/java/A.java": "class A {}",
        "web/src/main/java/B.java": "class B {}",
        "web/src/test/java/BTest.java": "class BTest {}",
    })
    assert discover_sources(str(tmp_path)) == [
        "core/src/main/java/A.java",
        "web/src/main/java/B.java",
    ]


def test_flat_layout_scans_everything_except_tests(tmp_path):
    write_tree(tmp_path, {
        "Main.java": "class Main {}",
        "lib/Util.java": "class Util {}",
        "src/test/Probe.java": "class Probe {}",
        "notes.txt": "x",
    })
    assert discover_sources(str(tmp_path)) == [
        "Main.java", "lib/Util.java"]


def test_skips_vcs_and_build_output(tmp_path):
    write_tree(tmp_path, {
        "app/Code.java": "class Code {}",
        ".git/objects/Fake.java": "class Fake {}",
        "target/Gen.java": "class Gen {}",
        "build/Out.java": "class Out {}",
    })
    assert discover_sources(str(tmp_path)) == ["app/Code.java"]


def test_results_sorted_and_slash_separated(tmp_path):
    write_tree(tmp_path, {
        "b/Z.java": "class Z {}",
        "a/Y.java": "class Y {}",
    })
    found = discover_sources(str(tmp_path))
    assert found == sorted(found)
    assert all("\\" not in p for p in found)


@pytest.mark.parametrize("files, empty_dirs, expected", [
    # a main root nested in another lists its files once
    ({"src/main/java/x/src/main/java/A.java": "class A {}"}, [],
     ["src/main/java/x/src/main/java/A.java"]),
    # an empty main root still switches to main-root mode
    ({"lib/D.java": "class D {}"}, ["src/main/java"], []),
    # a main root under test sources is never walked: no mode switch
    ({"src/test/x/src/main/java/T.java": "class T {}",
      "lib/D.java": "class D {}"}, [], ["lib/D.java"]),
])
def test_main_root_selection(tmp_path, files, empty_dirs, expected):
    write_tree(tmp_path, files)
    for rel in empty_dirs:
        (tmp_path / rel).mkdir(parents=True)
    assert discover_sources(str(tmp_path)) == expected


def test_missing_root_raises(tmp_path):
    with pytest.raises(NotADirectoryError):
        discover_sources(str(tmp_path / "nope"))
