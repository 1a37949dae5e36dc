import re

import pytest

import lexparse.parse
import lexparse.verify
from conftest import record_builds
from lexparse.cli import main
from lexparse.closedforms import EditedFibDecomposition
from lexparse.fibwords import edited_fib
from lexparse.suffixes import build_suffix_array
from lexparse.verify import (
    ORD_AB,
    CheckResult,
    GROUP_NAMES,
    GROUPS,
    _Checker,
    all_passed,
    run_verification,
)


def test_all_groups_pass_in_stated_range():
    results = run_verification([6, 7])
    assert results
    failures = [r for r in results if r.asserted and not r.ok]
    assert failures == []
    assert all_passed(results)


def test_full_range_6_to_12():
    # the complete structural suite (parse displays, predecessor chains,
    # decomposition identities, suffix pairs) over the whole stated range
    results = run_verification(range(6, 13))
    failures = [r.line() for r in results if r.asserted and not r.ok]
    assert failures == [], failures


@pytest.mark.slow
@pytest.mark.parametrize(
    "argv",
    [
        # inside the benchmark's range: every group, and alone the two groups
        # that share the edited word's suffix array
        ["--k", "6..10"],
        ["--k", "6..8", "--only", "suffixes"],
        ["--k", "6..8", "--only", "edited"],
        # k = 14 and 15 build words of n = 317,811 and 832,040 symbols
        ["--k", "14..15"],
    ],
    ids=["6..10", "6..8-suffixes", "6..8-edited", "14..15"],
)
def test_closed_forms_hold_past_the_benchmark_range(capsys, argv):
    code = main(["verify", *argv])
    summary = capsys.readouterr().out.splitlines()[-1]
    assert code == 0
    passed = re.fullmatch(r"OK: (\d+)/(\d+) checks passed, \d+ informational", summary)
    assert passed and passed[1] == passed[2], summary


def test_each_group_runs_alone():
    for name in GROUP_NAMES:
        results = run_verification([6], only=name)
        assert results
        assert all(r.group == name for r in results)
        assert all_passed(results)


def test_each_word_and_ordering_is_built_once(monkeypatch):
    builds = record_builds(monkeypatch, lexparse.verify, lexparse.parse)
    assert all_passed(run_verification(range(6, 14)))
    # per k: F_2k[:-2], the edited word, its deletion and sentinel variants, F_k twice
    assert len(builds) == 48
    assert sum(len(text) for text, _ in builds) == 786_494
    assert len(set(builds)) == len(builds)


@pytest.mark.parametrize("only", ["suffixes", "edited"])
def test_one_group_alone_builds_the_edited_word_once_per_k(monkeypatch, only):
    builds = record_builds(monkeypatch, lexparse.verify, lexparse.parse)
    ks = range(6, 10)
    assert all_passed(run_verification(ks, only=only))
    for k in ks:
        assert builds.count((edited_fib(2 * k), "ab")) == 1, k


def test_groups_report_alike_alone_and_together():
    # k = 4 and 5 are informational for `edited` and skipped for `orderings`
    ks = range(4, 10)
    together = [r.line() for r in run_verification(ks)]
    alone = [
        r.line()
        for k in ks
        for g in GROUPS
        for r in run_verification([k], only=g.name)
    ]
    assert together == alone


def test_below_range_is_reported_not_asserted():
    results = run_verification([5], only="edited")
    assert results
    assert all(not r.asserted for r in results)
    assert all_passed(results)  # informational results never fail the run
    results = run_verification([5], only="orderings")
    assert len(results) == 1
    assert results[0].name == "skipped"
    assert not results[0].asserted


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        run_verification([6], only="nonsense")


def test_check_result_lines():
    assert CheckResult("g", "x", 6, True).line().startswith("PASS")
    assert CheckResult("g", "x", 6, False).line().startswith("FAIL")
    assert CheckResult("g", "x", 6, True, asserted=False).line().startswith("REPORT")
    assert "[why]" in CheckResult("g", "x", 6, False, detail="why").line()


def test_checker_records_mismatch_detail():
    c = _Checker("g", 3)
    assert not c.eq("seq", ["aa", "bb"], ["aa", "cc"])
    (res,) = [r for r in c.results if not r.ok]
    assert "item 2" in res.detail
    assert "cc" in res.detail and "bb" in res.detail
    assert not c.eq("scalar", 4, 5)
    assert c.eq("fine", 1, 1)


def test_all_passed_ignores_informational_failures():
    results = [
        CheckResult("g", "a", 6, True),
        CheckResult("g", "b", 5, False, asserted=False),
    ]
    assert all_passed(results)
    results.append(CheckResult("g", "c", 6, False))
    assert not all_passed(results)


def _shifted(real, at, by):
    """``real``, a closed form of an index i (its last argument), off by ``by`` from i = ``at`` on."""
    return lambda *args: real(*args) + (by if args[-1] >= at else type(by)())


def _left_ref_detail(k):
    start = EditedFibDecomposition(k).left_ref_start(2)
    return f"left reference broken at i=2: prev={start}, expected {start + 1}"


def _chain_detail(k):
    dec = EditedFibDecomposition(k)
    z = dec.z_start(k - 2) + 1
    prev = build_suffix_array(edited_fib(2 * k), ORD_AB).previous_suffix(z)
    return f"prev of suffix {z} is {prev}, expected {dec.z_start(k - 3)}"


# (group, check, owner of the closed form, its name, first index off, offset, detail at k)
_BROKEN_FORMS = [
    ("edited", "decomposition_identities", EditedFibDecomposition, "x_expected", 3, "a",
     lambda k: "identity broken at i=3"),
    ("edited", "suffix_chain_refs", EditedFibDecomposition, "z_start", 7, 1, _chain_detail),
    ("edited", "left_refs", EditedFibDecomposition, "left_ref_start", 2, 1, _left_ref_detail),
    ("orderings", "suffix_pairs", lexparse.verify, "gib_suffix_start", 4, 1,
     lambda k: "suffix pair broken at i=4"),
]


@pytest.mark.parametrize(
    "group, name, owner, form, at, by, detail",
    _BROKEN_FORMS,
    ids=[case[1] for case in _BROKEN_FORMS],
)
def test_a_broken_closed_form_fails_its_check_at_the_first_bad_index(
    capsys, monkeypatch, group, name, owner, form, at, by, detail
):
    # Each of these checks loops over i and stops at the first failing index.
    # One closed form, off from one index of k = 9 on (z_start from k - 2 = 7,
    # which only the chain reads), fails that check alone, with that index in
    # its detail, and fails `lexparse verify`.
    k = 9
    want = f"FAIL   {group}/{name} k={k}  [{detail(k)}]"
    monkeypatch.setattr(owner, form, _shifted(getattr(owner, form), at, by))
    results = run_verification([k], only=group)
    assert [r.line() for r in results if not r.ok] == [want]
    assert not all_passed(results)
    assert main(["verify", "--k", str(k), "--only", group]) == 1
    assert want in capsys.readouterr().out.splitlines()
