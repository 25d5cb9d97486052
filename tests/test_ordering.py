"""Member-layout checks against a quadratic reference oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from javastyle.checkers import ORDERING_CONFIGS, check_ordering
from javastyle.model import MEMBER_KINDS

from helpers import parse_source, run_check

KINDS = ("staticField", "staticMethod", "instanceField",
         "constructor", "instanceMethod", "innerType")


def render(kinds, class_name="Box"):
    """One member per line so violation lines are predictable."""
    lines = [f"class {class_name} {{"]
    for i, kind in enumerate(kinds):
        if kind == "staticField":
            lines.append(f"static int sf{i};")
        elif kind == "staticMethod":
            lines.append(f"static void sm{i}() {{}}")
        elif kind == "instanceField":
            lines.append(f"int f{i};")
        elif kind == "constructor":
            params = ", ".join(f"int p{j}" for j in range(i + 1))
            lines.append(f"{class_name}({params}) {{}}")
        elif kind == "instanceMethod":
            lines.append(f"void m{i}() {{}}")
        else:
            lines.append(f"class Inner{i} {{}}")
    lines.append("}")
    return "\n".join(lines)


def violations_for(kinds, ordering_id):
    model = parse_source(render(kinds), "p/Box.java")
    return run_check(check_ordering, model,
                     ordering=ORDERING_CONFIGS[ordering_id])


def oracle_count(kinds, ordering_id):
    """A member offends iff any earlier member belongs to a later group."""
    ranks = [ORDERING_CONFIGS[ordering_id].index(k) for k in kinds]
    return sum(
        1 for i, r in enumerate(ranks) if any(e > r for e in ranks[:i]))


def test_static_field_after_instance_field():
    out = violations_for(
        ["staticField", "instanceField", "staticField"], 2)
    assert len(out) == 1
    assert out[0].detail == "sf2" and out[0].line == 4


def test_each_config_ranks_every_member_kind_once():
    for ranked in ORDERING_CONFIGS.values():
        assert sorted(ranked) == sorted(MEMBER_KINDS)


def test_canonical_layout_of_each_config():
    for own, kinds in ORDERING_CONFIGS.items():
        assert violations_for(kinds, own) == []
        for other in ORDERING_CONFIGS:
            if other != own:
                assert len(violations_for(kinds, other)) > 0


def test_default_layout_counts_under_other_configs():
    kinds = ["staticField", "staticMethod", "instanceField",
             "constructor", "instanceMethod", "innerType"]
    assert len(violations_for(kinds, 1)) == 1  # inner type belongs first
    assert len(violations_for(kinds, 3)) == 1  # constructor belongs later
    assert len(violations_for(kinds, 4)) == 3  # statics belong after members


def test_empty_and_single_member_bodies():
    assert violations_for([], 2) == []
    for kind in KINDS:
        assert violations_for([kind], 2) == []


def test_each_offending_member_counted_once():
    # two statics after an instance field: two separate findings
    out = violations_for(
        ["instanceField", "staticField", "staticField"], 2)
    assert [v.detail for v in out] == ["sf1", "sf2"]


def test_nested_types_checked_independently():
    src = ("class Outer {\nvoid m() {}\nint late;\n"
           "class Inner {\nvoid n() {}\nstatic int sf;\n}\n}")
    out = run_check(check_ordering, parse_source(src, "p/Outer.java"),
                    ordering=ORDERING_CONFIGS[2])
    assert sorted(v.detail for v in out) == ["late", "sf"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(KINDS), max_size=8),
       st.sampled_from([1, 2, 3, 4]))
def test_matches_pairwise_oracle(kinds, ordering_id):
    assert len(violations_for(kinds, ordering_id)) == oracle_count(
        kinds, ordering_id)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(KINDS), max_size=6),
       st.sampled_from(KINDS),
       st.integers(min_value=0, max_value=6),
       st.sampled_from([1, 2, 3, 4]))
def test_insertion_never_lowers_count(kinds, extra, pos, ordering_id):
    before = len(violations_for(kinds, ordering_id))
    grown = kinds[:min(pos, len(kinds))] + [extra] + kinds[min(pos, len(kinds)):]
    assert len(violations_for(grown, ordering_id)) >= before
