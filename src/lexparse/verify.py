"""Structural verification suite: recomputes parses, factorizations and
suffix structures and compares them against their closed forms.

Each group function returns a list of :class:`CheckResult`; nothing raises on
mismatch, so callers (CLI, tests) can render full reports.  Results with
``asserted=False`` are informational: the claim is outside its stated index
range and is reported without counting as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable

from .alphabet import AlphabetOrdering
from .closedforms import (
    EditedFibDecomposition,
    edited_lyndon_factors,
    edited_parse_lengths,
    edited_parse_phrases,
    edited_sa_prefix,
    fib_even_lyndon_factors,
    fib_parse_count,
    fib_parse_phrases,
    fib_suffix,
    fib_suffix_start,
    gib_suffix,
    gib_suffix_start,
    inserted_parse_phrases,
)
from .fibwords import (
    edited_fib,
    edited_fib_deleted,
    edited_fib_inserted,
    fib_length,
    fib_lyndon_factor,
    fibonacci,
    gib,
    phi_power_a,
    phi_run,
)
from .lyndon import lyndon_factorize
from .parse import lex_parse, lz77_count, phrase_strings, v_count
from .suffixes import SuffixArray, build_suffix_array
from .textops import is_primitive, longest_border, occurrences

ORD_AB = AlphabetOrdering.from_string("ab")
ORD_BA = AlphabetOrdering.from_string("ba")


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    k: int
    ok: bool
    asserted: bool = True
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        if not self.asserted:
            status = "REPORT"
        base = f"{status:6s} {self.group}/{self.name} k={self.k}"
        return base + (f"  [{self.detail}]" if self.detail else "")


class _Checker:
    """Accumulates CheckResults for one group at one index."""

    def __init__(self, group: str, k: int):
        self.group = group
        self.k = k
        self.results: list[CheckResult] = []

    def eq(self, name: str, got, expected) -> bool:
        ok = got == expected
        return self.ok(name, ok, "" if ok else _mismatch(got, expected))

    def ok(self, name: str, condition: bool, detail: str = "") -> bool:
        self.results.append(
            CheckResult(self.group, name, self.k, condition, detail="" if condition else detail)
        )
        return condition

    def first_fault(self, name: str, faults: Iterable[str]) -> bool:
        """Record check ``name`` as failed at the first detail ``faults`` yields, else passed."""
        detail = next(iter(faults), "")
        return self.ok(name, not detail, detail)


def _preview(x, width: int = 24) -> str:
    s = str(x)
    return s if len(s) <= width else s[: width - 3] + f"..({len(s)})"


def _mismatch(got, expected) -> str:
    if isinstance(got, (list, tuple)) and isinstance(expected, (list, tuple)):
        lines = [f"expected {len(expected)} items, got {len(got)}"]
        for idx in range(max(len(got), len(expected))):
            g = _preview(got[idx]) if idx < len(got) else "<missing>"
            e = _preview(expected[idx]) if idx < len(expected) else "<missing>"
            if g != e:
                lines.append(f"  item {idx + 1}: expected {e} got {g}")
        return "; ".join(lines)
    return f"expected {_preview(expected)} got {_preview(got)}"


class _Words:
    """What more than one group reads at index ``k``, each built on first use.

    The ``suffixes`` and ``edited`` groups both read the edited word and its
    suffix array under ``ab``.  Words and arrays that only one group reads stay
    local to that group, so they are freed when it returns.
    :func:`run_verification` makes one holder per k and drops it when k moves
    on, so peak memory stays that of one k.
    """

    def __init__(self, k: int):
        self.k = k

    @cached_property
    def edited_sa(self) -> SuffixArray:
        return build_suffix_array(edited_fib(2 * self.k), ORD_AB)


# --- group: fib (elementary combinatorics) ---------------------------------


def verify_fib_combinatorics(words: _Words) -> list[CheckResult]:
    """Border, occurrence, forbidden-factor and primitivity facts for the k-th word."""
    k = words.k
    c = _Checker("fib", k)
    F = fibonacci(k)
    c.eq("length", len(F), fib_length(k))
    if k >= 3:
        c.eq("recurrence", F, fibonacci(k - 1) + fibonacci(k - 2))
        G = gib(k)
        c.eq("swapped_tail_forward", F, G[:-2] + G[-1] + G[-2])
        c.eq("swapped_tail_backward", G, F[:-2] + F[-1] + F[-2])
    if k >= 4:
        c.eq("border", longest_border(F), fib_length(k - 2))
    c.eq("no_aaa", "aaa" in F, False)
    c.eq("no_bb", "bb" in F, False)
    c.ok("primitive", is_primitive(F), "word is a proper power")
    if k >= 6:
        c.eq(
            "three_occurrences",
            occurrences(fibonacci(k - 2), F),
            [1, fib_length(k - 2) + 1, fib_length(k - 1) + 1],
        )
    if k >= 8:
        c.eq("eight_occurrences", len(occurrences(fibonacci(k - 4), F)), 8)
    return c.results


# --- group: lyndon ----------------------------------------------------------


def verify_lyndon(words: _Words) -> list[CheckResult]:
    """Closed-form Lyndon structure of the (2k)-th word and its shortenings."""
    k = words.k
    c = _Checker("lyndon", k)
    F2k = fibonacci(2 * k)
    lf_full = lyndon_factorize(F2k, ORD_AB)
    c.eq("factors_full", [lam for lam, _ in lf_full.factors], fib_even_lyndon_factors(k))
    c.eq("exponents_full", [p for _, p in lf_full.factors], [1] * (k))
    Fpp = F2k[:-2]
    lf = lyndon_factorize(Fpp, ORD_AB)
    expected = edited_lyndon_factors(k)
    c.eq("factors_shortened", [lam for lam, _ in lf.factors], expected)
    c.eq("exponents_shortened", [p for _, p in lf.factors], [1] * len(expected))
    ell_k = fib_lyndon_factor(k)
    lf_shrunk = lyndon_factorize(ell_k[:-1], ORD_AB)
    c.eq(
        "factors_shrunk_factor",
        [lam for lam, _ in lf_shrunk.factors],
        [phi_power_a(i) for i in range(k - 1, -1, -1)],
    )
    c.ok(
        "telescoping_prefix",
        phi_power_a(k).startswith(phi_run(k - 1)),
        "morphism run is not a prefix of the next image",
    )
    c.eq("run_length", len(phi_run(k)), fib_length(2 * k + 3) - 1)
    sig = lf.significant_suffixes()
    npp = len(Fpp)
    expected_starts = [npp - (fib_length(2 * i + 1) - 1) + 1 for i in range(k - 1, 0, -1)]
    c.eq("significant_starts", sig, expected_starts)
    sa = build_suffix_array(Fpp, ORD_AB)
    c.eq(
        "significant_ranks",
        [sa.rank_of(s) for s in reversed(sig)],
        list(range(1, k)),
    )
    return c.results


# --- group: suffixes --------------------------------------------------------


def verify_suffix_structs(words: _Words) -> list[CheckResult]:
    """Closed-form suffix-array prefix and maximal suffix of the edited word."""
    k = words.k
    c = _Checker("suffixes", k)
    sa = words.edited_sa
    prefix = [sa.suffix_start(r) for r in range(1, k + 2)]
    c.eq("sa_prefix", prefix, edited_sa_prefix(k))
    if k >= 3:
        c.eq("max_suffix", sa.suffix_start(sa.n), fib_length(2 * k - 3))
    return c.results


# --- group: edited (single-edit witness parses) -----------------------------


def verify_edited_word(words: _Words) -> list[CheckResult]:
    """Parse structure of the three single-edit witnesses built from the (2k)-th word."""
    k = words.k
    c = _Checker("edited", k)
    sa = words.edited_sa
    T = sa.text
    n = sa.n
    parse = lex_parse(T, sa=sa)
    c.eq("sub_phrase_count", parse.v, 2 * k - 2)
    lengths = edited_parse_lengths(k)
    c.eq("sub_phrase_lengths", parse.lengths(), lengths)
    c.eq("sub_length_sum", sum(lengths), fib_length(2 * k))
    c.eq("sub_phrases", phrase_strings(parse, T), edited_parse_phrases(k))
    c.eq("aaa_once", occurrences("aaa", T), [n - 2])
    c.ok("ends_baaa", T.endswith("baaa"), "edited word does not end with baaa")

    dec = EditedFibDecomposition(k)

    def identity_faults():
        for i in range(1, k - 2):
            x = T[dec.x_start(i) - 1 :]
            ys, ye = dec.y_span(i)
            y = T[ys - 1 : ye]
            z = T[dec.z_start(i) - 1 :]
            if not (x == dec.x_expected(i) and y == dec.y_expected(i)
                    and z == dec.z_expected(i) and x == y + z):
                yield f"identity broken at i={i}"

    def chain_faults():
        for i in range(1, k - 1):
            got = sa.previous_suffix(dec.z_start(i))
            if got != dec.z_start(i - 1):
                yield f"prev of suffix {dec.z_start(i)} is {got}, expected {dec.z_start(i - 1)}"

    def left_ref_faults():
        maxsuf = T[fib_length(2 * k - 3) - 1 :]
        for i in range(1, k - 2):
            start = dec.left_ref_start(i)
            ys, ye = dec.y_span(i)
            got = sa.previous_suffix(dec.x_start(i))
            if T[start - 1 :] != T[ys - 1 : ye] + "a" + maxsuf or got != start:
                yield f"left reference broken at i={i}: prev={got}, expected {start}"

    c.first_fault("decomposition_identities", identity_faults())
    c.first_fault("suffix_chain_refs", chain_faults())
    c.first_fault("left_refs", left_ref_faults())
    c.eq("max_suffix_rank", sa.suffix_start(n), dec.max_suffix_start())

    D = edited_fib_deleted(2 * k)
    c.eq("del_phrase_count", v_count(D, ORD_AB), 2 * k - 2)

    S = edited_fib_inserted(2 * k)
    ins_order = AlphabetOrdering.from_string("$ab")
    ins_parse = lex_parse(S, ins_order)
    ins_strings = phrase_strings(ins_parse, S)
    c.eq("ins_phrase_count", ins_parse.v, 2 * k)
    c.eq("ins_phrases", ins_strings, inserted_parse_phrases(k))
    c.eq("ins_tail", ins_strings[-5:], ["a", "ba", "$", "b", "a"])
    return c.results


# --- group: orderings (parse structure of the plain words) ------------------


def verify_fib_orderings(words: _Words) -> list[CheckResult]:
    """Four-case phrase counts and displayed parses of the k-th word under both orders."""
    k = words.k
    c = _Checker("orderings", k)
    F = fibonacci(k)
    sa_ab = build_suffix_array(F, ORD_AB)
    for spec, sa in (("ab", sa_ab), ("ba", build_suffix_array(F, ORD_BA))):
        parse = lex_parse(F, sa=sa)
        c.eq(f"count_{spec}", parse.v, fib_parse_count(k, spec))
        c.eq(f"phrases_{spec}", phrase_strings(parse, F), fib_parse_phrases(k, spec))

    def pair_faults():
        for i in range(4, k - 2, 2):
            short_suffix = fib_suffix(k, i)
            long_suffix = gib_suffix(k, i)
            if not (
                F.endswith(long_suffix)
                and long_suffix.startswith(short_suffix)
                and long_suffix == short_suffix + gib(i)
                and sa_ab.previous_suffix(gib_suffix_start(k, i)) == fib_suffix_start(k, i)
            ):
                yield f"suffix pair broken at i={i}"

    if k % 2 == 1 and k >= 7:
        c.first_fault("suffix_pairs", pair_faults())
    return c.results


# --- group: lz --------------------------------------------------------------


def verify_lz(words: _Words) -> list[CheckResult]:
    """Greedy LZ77 factor count of the k-th word grows linearly: exactly k-1.

    (Under this package's index base, where the first two words are "b" and
    "a"; literature that starts the family at "a", "ab" states the same fact
    as k factors for the k-th word.)
    """
    k = words.k
    c = _Checker("lz", k)
    c.eq("factor_count", lz77_count(fibonacci(k)), k - 1)
    return c.results


# --- registry / runner ------------------------------------------------------


@dataclass(frozen=True)
class Group:
    name: str
    func: Callable[[_Words], list[CheckResult]]
    min_defined: int  # smallest k the checks can be computed at
    min_asserted: int  # smallest k the claims are stated for


GROUPS: tuple[Group, ...] = (
    Group("fib", verify_fib_combinatorics, 1, 1),
    Group("lyndon", verify_lyndon, 2, 2),
    Group("suffixes", verify_suffix_structs, 2, 2),
    Group("edited", verify_edited_word, 4, 6),
    Group("orderings", verify_fib_orderings, 6, 6),
    Group("lz", verify_lz, 2, 2),
)

GROUP_NAMES = tuple(g.name for g in GROUPS)


def run_verification(
    k_values: Iterable[int], only: str | None = None
) -> list[CheckResult]:
    """Run all (or one) verification groups over the given indices.

    Indices below a group's stated range but still computable produce
    informational results; indices below the computable range are skipped
    with a note.  The groups of one k share one :class:`_Words`, so each
    (word, ordering) pair is built once per k.
    """
    groups = [g for g in GROUPS if only is None or g.name == only]
    if only is not None and not groups:
        raise ValueError(f"unknown group {only!r}; expected one of {GROUP_NAMES}")
    results: list[CheckResult] = []
    for k in k_values:
        words = _Words(k)
        for g in groups:
            if k < g.min_defined:
                results.append(
                    CheckResult(g.name, "skipped", k, True, asserted=False,
                                detail=f"not defined below k={g.min_defined}")
                )
                continue
            res = g.func(words)
            if k < g.min_asserted:
                res = [replace(r, asserted=False) for r in res]
            results.extend(res)
    return results


def all_passed(results: Iterable[CheckResult]) -> bool:
    return all(r.ok for r in results if r.asserted)
