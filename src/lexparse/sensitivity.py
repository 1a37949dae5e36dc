"""Exhaustive edit-sensitivity and alphabet-ordering-sensitivity scans.

Ratios are kept as exact rationals (``fractions.Fraction``): every quantity
involved is a small integer, so exact arithmetic removes any tolerance
question.  Scans are pure and deterministic; ties are broken by the first
candidate in enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .alphabet import AlphabetOrdering, all_orderings
from .fibwords import DEFAULT_MAX_N, edited_fib, fib_length, fibonacci
from .parse import lex_parse, v_count
from .textops import EditCandidate, edit_candidates, normalize_kind

MAX_AO_SIGMA = 8


@dataclass(frozen=True)
class EditRow:
    """One scanned candidate: the edit metadata and the resulting phrase count."""

    kind: str
    position: int
    old: str | None
    new: str | None
    v: int


@dataclass(frozen=True)
class EditSensitivityReport:
    """Result of an exhaustive single-edit scan of one text."""

    kind: str
    ordering: AlphabetOrdering
    base_v: int
    max_v: int
    max_ratio: Fraction
    witness: EditCandidate
    candidates: int
    rows: tuple[EditRow, ...] | None = None


def edit_sensitivity_scan(
    text: str,
    kind: str,
    ordering: AlphabetOrdering | None = None,
    keep_rows: bool = False,
) -> EditSensitivityReport:
    """Parse every single-edit neighbour of ``text`` and report the worst ratio.

    The candidate alphabet is the ordering's symbol set, so passing an
    ordering with extra symbols (e.g. a sentinel ranked below everything)
    deliberately widens the insertion alphabet.  The witness is the first
    candidate, in position-major order, to reach the maximum.
    """
    kind = normalize_kind(kind)
    ordering = AlphabetOrdering.for_text(text, ordering)
    if kind == "del" and len(text) < 2:
        raise ValueError("deletion scan needs a text of length >= 2")
    base_v = v_count(text, ordering)
    max_v = -1
    witness: EditCandidate | None = None
    rows: list[EditRow] | None = [] if keep_rows else None
    count = 0
    for cand in edit_candidates(text, kind, ordering):
        v = v_count(cand.text, ordering)
        count += 1
        if rows is not None:
            rows.append(EditRow(cand.kind, cand.position, cand.old, cand.new, v))
        if v > max_v:
            max_v = v
            witness = cand
    assert witness is not None  # kinds guarantee at least one candidate
    return EditSensitivityReport(
        kind=kind,
        ordering=ordering,
        base_v=base_v,
        max_v=max_v,
        max_ratio=Fraction(max_v, base_v),
        witness=witness,
        candidates=count,
        rows=tuple(rows) if rows is not None else None,
    )


@dataclass(frozen=True)
class AOSensitivityReport:
    """Phrase counts of one text under every ordering of its symbols."""

    per_ordering: dict[str, int]
    max_v: int
    min_v: int
    ratio: Fraction
    argmax: str
    argmin: str


def ao_sensitivity_scan(text: str) -> AOSensitivityReport:
    """Exhaustively parse ``text`` under every permutation of its symbol set.

    Refuses texts with more than 8 distinct symbols, where factorial
    enumeration stops being a desk-scale computation.
    """
    symbols = AlphabetOrdering.for_text(text).symbols
    sigma = len(symbols)
    if sigma > MAX_AO_SIGMA:
        raise ValueError(
            f"text has {sigma} distinct symbols; exhaustive ordering enumeration is "
            f"limited to {MAX_AO_SIGMA} ({sigma}! orderings would be infeasible). "
            "Reduce the alphabet or scan chosen orderings individually."
        )
    per: dict[str, int] = {}
    argmax = argmin = ""
    max_v = -1
    min_v = None
    for ordering in all_orderings(symbols):
        v = v_count(text, ordering)
        per[ordering.spec] = v
        if v > max_v:
            max_v, argmax = v, ordering.spec
        if min_v is None or v < min_v:
            min_v, argmin = v, ordering.spec
    assert min_v is not None
    return AOSensitivityReport(
        per_ordering=per,
        max_v=max_v,
        min_v=min_v,
        ratio=Fraction(max_v, min_v),
        argmax=argmax,
        argmin=argmin,
    )


@dataclass(frozen=True)
class GrowthRow:
    """One row of the sensitivity growth table for the even Fibonacci family."""

    k: int
    n: int
    base_v: int
    witness_v: int
    ratio: Fraction


def sensitivity_growth_table(
    k_min: int, k_max: int, max_n: int = DEFAULT_MAX_N
) -> list[GrowthRow]:
    """Ratio growth of the canonical substitution witness over the even family.

    For each k the row parses the (2k)-th Fibonacci word and its rightmost-b
    substitution witness.  ``witness_v`` is the witness's exact phrase count,
    a certified lower bound on the full-scan maximum; the exhaustive scan is
    quadratic in the text length and is deliberately not run here (use
    :func:`edit_sensitivity_scan` on sizes where it is feasible).
    """
    if not 6 <= k_min <= k_max:
        raise ValueError(f"need 6 <= k_min <= k_max, got {k_min}..{k_max}")
    if fib_length(2 * k_max, max_n) > max_n:
        raise ValueError(
            f"f({2 * k_max}) is more than {max_n} symbols and exceeds the size cap"
        )
    rows = []
    for k in range(k_min, k_max + 1):
        F = fibonacci(2 * k)
        T = edited_fib(2 * k)
        ordering = AlphabetOrdering.from_string("ab")
        base = lex_parse(F, ordering).v
        wit = lex_parse(T, ordering).v
        rows.append(GrowthRow(k, len(F), base, wit, Fraction(wit, base)))
    return rows
