"""Exhaustive edit-sensitivity and alphabet-ordering-sensitivity scans.

Ratios are kept as exact rationals (``fractions.Fraction``): every quantity
involved is a small integer, so exact arithmetic removes any tolerance
question.  Scans are pure and deterministic; ties are broken by the first
candidate in enumeration order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .alphabet import AlphabetOrdering, all_orderings
from .fibwords import DEFAULT_MAX_N, edited_fib, fib_length, fibonacci
from .parse import lex_parse
from .suffixes import build_suffix_array
from .textops import EditCandidate, _lce, edit_candidates, normalize_kind

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
    """Count the phrases of every single-edit neighbour of ``text`` and report the worst ratio.

    The candidate alphabet is the ordering's symbol set, so passing an
    ordering with extra symbols (e.g. a sentinel ranked below everything)
    deliberately widens the insertion alphabet.  The witness is the first
    candidate, in position-major order, to reach the maximum.  One suffix
    array is built, for ``text``; each neighbour is then counted by queries
    on it (see :class:`_EditedCounter`), at a cost that grows with its
    phrase count rather than with a construction of its own.

    Distinct edits can give the same text, and each text is counted once.
    Inserting c right after a c gives the text of inserting it one position
    earlier, and deleting a symbol equal to its left neighbour gives the
    text of deleting that neighbour; such a candidate reuses the count of
    the earlier one.  An insertion scan thus counts (n+1)*sigma - n texts
    and a deletion scan one per run of equal symbols, but every candidate
    still gets its row.
    """
    ordering = AlphabetOrdering.for_text(text, ordering)
    kind = normalize_kind(kind)
    if kind == "del" and len(text) < 2:
        raise ValueError("deletion scan needs a text of length >= 2")
    if kind == "sub" and len(ordering.symbols) < 2:
        raise ValueError(
            f"substitution scan needs an ordering of two or more symbols, got {ordering.spec!r}"
        )
    counter = _EditedCounter(text, ordering)
    max_v = -1
    witness: EditCandidate | None = None
    rows: list[EditRow] | None = [] if keep_rows else None
    count = 0
    last: dict[str | None, int] = {}  # new symbol (None: deletion) -> v of its latest candidate
    for cand in edit_candidates(text, kind, ordering):
        p = cand.position - 1
        if p > 0 and cand.kind != "sub" and text[p - 1] == (cand.new or cand.old):
            v = last[cand.new]  # the text of the same edit at p - 1
        else:
            v = counter.edited_v(cand)
        last[cand.new] = v
        count += 1
        if rows is not None:
            rows.append(EditRow(cand.kind, cand.position, cand.old, cand.new, v))
        if v > max_v:
            max_v = v
            witness = cand
    assert witness is not None  # the checks above leave at least one candidate
    return EditSensitivityReport(
        kind=kind,
        ordering=ordering,
        base_v=counter.base_v,
        max_v=max_v,
        max_ratio=Fraction(max_v, counter.base_v),
        witness=witness,
        candidates=count,
        rows=tuple(rows) if rows is not None else None,
    )


class _EditedCounter:
    """Lex-parse phrase counts of the single-edit neighbours of one text.

    Texts are read as their rank bytes (:meth:`AlphabetOrdering.ranks`), so
    that ``bytes`` comparison is the order under the ordering (a proper
    prefix sorts first, as with no end marker).  In these terms the base
    text is ``u`` and a neighbour is ``t = u[:a] + e + u[b:]``, with
    ``b = a + 1`` for a substitution or a deletion, ``b = a`` for an
    insertion, and ``e`` empty for a deletion.

    A phrase starting at i copies the longest common prefix of ``x = t[i:]``
    with a smaller suffix of ``t``.  ``x`` names that suffix, which is read in
    place: ``x[l]`` is ``t[i + l]`` and ``x[:L]`` is ``t[i:i + L]``, and only
    the binary search of step 1, whose key compares whole suffixes, copies
    it.  Every other suffix of ``t`` is in one of three groups: a tail suffix
    (starting after the edit), equal to a base suffix; an unaffected head
    ``t[j:]`` (j < a, sharing fewer than ``a - j`` symbols with ``x``), which
    compares with ``x`` as its base copy ``u[j:]`` does; or an affected head
    ``x[:m] + t[a:]`` with ``m = a - j >= 0``, the edited suffix ``t[a:]``
    being the one with m = 0.  At each phrase start :meth:`edited_v` takes
    the best of the first two groups from one neighbour rule in the base
    suffix array, tail and head starts alike, and the best affected head
    from one search of the starts ``a - top`` through ``a``.

    An affected head needs ``u[j:a]`` to occur at another start of ``t``, so
    its ``m = a - j`` is at most the longest suffix of ``t[:a]`` that does.
    ``left[a]``, built once per scan from the same suffix array's ranks and
    LCPs, is that length for occurrences that do not touch the edit; each
    candidate tops it up by finds in a window around the edit
    (:func:`_reach_bound`), never by a scan of the whole text.
    """

    def __init__(self, text: str, ordering: AlphabetOrdering):
        self.u = ordering.ranks(text)
        # each edit's e (None: a deletion's), renamed once per scan
        self.edits = {c: ordering.ranks(c) for c in ordering.symbols}
        self.edits[None] = b""
        sa = build_suffix_array(text, ordering)
        self.sa, self.rank, self.lcp = sa.sa, sa.rank, sa.lcp  # read as built, 1-based
        self.base_v = lex_parse(text, ordering, sa=sa).v
        # left[a]: the longest suffix of u[:a] that also occurs at another
        # start.  That is a - j for the least j with j + h >= a, h the larger
        # LCP of u[j:] with its two rank neighbours, so one sweep over j fills
        # the table: each j takes the entries past the last one filled, up to
        # j + h.
        n, lcp = len(text), self.lcp
        self.left = left = array("i", [0])
        for j, r in enumerate(sa.rank):
            h = lcp[r - 1]
            if r < n and lcp[r] > h:
                h = lcp[r]
            left.extend(range(len(left) - j, h + 1))
        if len(left) == n:  # the last symbol occurs nowhere else
            left.append(0)

    def edited_v(self, cand: EditCandidate) -> int:
        """Phrase count of the neighbour of the base text that ``cand`` describes.

        The neighbour is built once, renamed, as ``t``; ``cand.text`` is not
        read.

        The affected heads are searched only at phrase starts where one can
        beat the best of the other groups: where that best is below
        ``n - i - 1``, and ``x[:best + 1]`` occurs at some start other than
        i in ``[a - reach, a]``.  One or two finds test that, and the
        leftmost such start bounds the search.  Its windows of ``m`` double
        from one that takes every ``m`` from 0 to below ``2 (best + 1)``; each
        is a find of the longest prefix of ``x`` that every winning head in it
        starts with, an occurrence that may cross the edit.  The first window
        starts at the leftmost start found, when it reaches back that far, and
        takes that occurrence without a second find.
        """
        u, sa, rank, lcp = self.u, self.sa, self.rank, self.lcp
        a = cand.position - 1
        b = a + (cand.old is not None)
        e = self.edits[cand.new]
        t = u[:a] + e + u[b:]
        n = len(t)
        tail = a + len(e)  # t[j:] == u[j + b - tail:] for j >= tail
        # Before the edit, x = u[i:a] + t[a:] agrees with u[i:] on a - i + c
        # symbols, c the LCP of t[a:] and u[a:], and the order of t[a:] and
        # u[a:] is the order of x and u[i:].
        c = _lce(t, a, u, a)
        edited_below = a + c == n or (a + c < len(u) and t[a + c] < u[a + c])
        reach = _reach_bound(t, a, self.left[a])
        v = i = 0
        while i < n - 1:  # no phrase reaches the last symbol, which is one of its own
            # 1. The nearest smaller base suffix that is not affected: its LCP
            # with x is the best of all unaffected ones, since LCPs with x do
            # not grow going down the suffix array.  k is x's insertion point,
            # next to u[i:] (x itself at a tail start), of 0-based rank r: x
            # shares ``agree`` symbols with it and sorts below it if ``below``.
            if i < tail:
                r, agree, below = rank[i] - 1, a - i + c, edited_below
            else:
                r, agree, below = rank[i + b - tail] - 1, n - i, True
            k = -1
            if below:
                if lcp[r] < agree:
                    k, best = r, lcp[r]
            elif r + 1 == len(sa) or lcp[r + 1] < agree:
                k, best = r + 1, agree
            if k < 0:  # x sorts on the side of u[i:] that ``below`` says
                lo, hi = (0, r) if below else (r + 1, len(sa))
                k = bisect_left(sa, t[i:], lo, hi, key=lambda p: u[p - 1 :])
                best = _lce(t, i, u, sa[k - 1] - 1) if k else 0
            k -= 1
            while k >= 0:
                p = sa[k]  # the 1-based start of the suffix of 0-based rank k
                if p > b or (p <= a and best <= a - p):
                    break
                if lcp[k] < best:
                    best = lcp[k]
                k -= 1
            else:  # every smaller base suffix is affected
                best = 0
            # 2. Each affected head t[j:] == x[:m] + t[a:], m = a - j, the edited
            # suffix t[a:] being m = 0, is smaller than x when t[a:] is smaller
            # than x[m:].  Its m cannot exceed ``reach``, and it does better than
            # ``best`` only if x[:best + 1] starts it in t, for an m below best + 1
            # as for one above.  So the leftmost such start other than i in
            # [a - reach, a] bounds every winning m (``top``), and no start at all
            # rules the phrase out.  No smaller suffix shares all of x, so
            # best = n - i - 1 cannot grow.  (Conditionals, not min() and max() calls.)
            if best < n - i - 1:
                top = reach if reach < n - i else n - i
                head = t[i : i + best + 1]
                j = t.find(head, a - top, a + best + 1)
                if j == i:
                    j = t.find(head, i + 1, a + best + 1)
                top = a - j if j >= 0 else -1
                # A winning head with m in [first, 2 ell) starts with x[:L] in t,
                # L = max(ell, best + 1); an occurrence with m <= L starts at or
                # crosses the edit and is such a head.  One window takes every m
                # below 2 (best + 1), then the windows double; the first starts at
                # the hit j unless it is too short to reach back to it.
                ell, first, L = best + 1, 0, best + 1
                while first <= top:
                    if ell > L:
                        L = ell
                        head = t[i : i + L]
                    if 2 * ell <= top:
                        j = t.find(head, a - 2 * ell + 1, a - first + L)
                    elif first:
                        j = t.find(head, a - top, a - first + L)
                    while j >= 0:
                        m = a - j
                        if j != i and (m <= L or u[j + L : a] == t[i + L : i + m]):
                            l = _lce(t, a, t, i + m)
                            if a + l == n or (i + m + l < n and t[a + l] < t[i + m + l]):
                                best = m + l
                                L = best + 1
                                head = t[i : i + L]
                        j = t.find(head, j + 1, a - first + L)
                    first = ell = 2 * ell
            v += 1
            i += best or 1
        return v + 1


def _reach_bound(t: bytes, a: int, left: int) -> int:
    """An upper bound on the longest suffix of ``t[:a]`` that also occurs in ``t`` at another start.

    ``left`` is the longest suffix of ``t[:a]`` that ends elsewhere in the
    base text.  An occurrence elsewhere in ``t`` that does not touch the
    edit is one in the base text too; one that does starts in
    ``[a - L + 1, a]`` for a length L, and a find in that window settles
    it.  Every length up to the exact answer passes the test "at most
    ``left``, or found in its window", so galloping from ``left`` and then
    binary search stop at or above the exact answer.
    """

    def passes(length: int) -> bool:
        return t.find(t[a - length : a], a - length + 1, a + length) >= 0

    lo, step = left, 1
    while lo + step <= a and passes(lo + step):
        lo, step = lo + step, 2 * step
    hi = min(lo + step, a + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
    """Count the phrases of ``text`` under every permutation of its symbol set.

    One suffix array is built, for the code-point ordering; each ordering's
    count is then a walk over the ordering-free tree of
    :class:`_OrderingFreeTree`, with no construction of its own.  Refuses
    texts with more than 8 distinct symbols, where factorial enumeration
    stops being a desk-scale computation.
    """
    ordering = AlphabetOrdering.for_text(text)
    sigma = len(ordering.symbols)
    if sigma > MAX_AO_SIGMA:
        raise ValueError(
            f"text has {sigma} distinct symbols; exhaustive ordering enumeration is "
            f"limited to {MAX_AO_SIGMA} ({sigma}! orderings would be infeasible). "
            "Reduce the alphabet or scan chosen orderings individually."
        )
    tree = _OrderingFreeTree(text, ordering)
    per = {each.spec: tree.v(each) for each in all_orderings(ordering.symbols)}
    # max and min keep the first of equal counts, in enumeration order.
    argmax = max(per, key=per.__getitem__)
    argmin = min(per, key=per.__getitem__)
    return AOSensitivityReport(
        per_ordering=per,
        max_v=per[argmax],
        min_v=per[argmin],
        ratio=Fraction(per[argmax], per[argmin]),
        argmax=argmax,
        argmin=argmin,
    )


class _OrderingFreeTree:
    """Lex-parse phrase counts of one text under any ordering of its symbols.

    The suffix tree's shape and string depths do not depend on the ordering;
    only the order of each node's children does (Abouelhoda, Kurtz &
    Ohlebusch, "Replacing suffix trees with enhanced suffix arrays", JDA
    2004).  The tree is the LCP-interval tree of one suffix array and its
    ``lcp``, built in one pass: the suffix being placed lies below every node
    open on the stack, so it stands for each of them.  Node w has a string
    depth, a parent, and a bitmask of the first symbols of its children (bit
    b for the b-th symbol of the ordering it is built under), plus bit sigma
    when a suffix ends at w.  With no end marker, a suffix that ends at w is a
    proper prefix of every other suffix below w, as if the text ended in a
    symbol sigma that sorts before every other.

    Suffix x = text[i:] copies its longest common prefix with its
    predecessor under the ordering.  That predecessor lies below the deepest
    proper ancestor w of leaf i that holds a smaller suffix outside x's own
    branch: one that ends at w (x does not end there), or one in a child
    whose first symbol sorts before ``text[i + depth[w]]``.  The common
    prefix is then ``depth[w]`` symbols long.  The root's mask has every bit
    set, so a climb that meets no such node stops there with depth 0.
    """

    def __init__(self, text: str, ordering: AlphabetOrdering):
        self.index = {c: b for b, c in enumerate(ordering.symbols)}
        self.s = s = (*ordering.ranks(text), len(ordering.symbols))  # then symbol sigma
        built = build_suffix_array(text, ordering)
        sa, lcp = built.sa, built.lcp
        n = len(text)
        depth, parent, mask = [0], [-1], [0]  # node 0 is the root

        def new_node(d: int) -> int:
            depth.append(d)
            parent.append(-1)
            mask.append(0)
            return len(depth) - 1

        stack = [0]  # the open nodes, deepest last
        leaf = [0] * n  # leaf[i]: the deepest node above suffix i
        for r in range(n):
            i = sa[r] - 1
            h = lcp[r + 1] if r + 1 < n else 0  # LCP with the next suffix
            if h > depth[stack[-1]]:  # the top's depth is the LCP with the previous one
                stack.append(new_node(h))
            w = leaf[i] = stack[-1]
            mask[w] |= 1 << s[i + depth[w]]
            while depth[stack[-1]] > h:  # close the nodes deeper than h
                x = stack.pop()
                if depth[stack[-1]] < h:
                    stack.append(new_node(h))
                w = parent[x] = stack[-1]
                mask[w] |= 1 << s[i + depth[w]]  # suffix i stands for x
        mask[0] = -1
        self.leaf, self.depth, self.parent, self.mask = leaf, depth, parent, mask

    def v(self, ordering: AlphabetOrdering) -> int:
        """Phrase count of the text under ``ordering``, a permutation of its symbols.

        Costs sigma mask updates and one climb per phrase; nothing is sorted.
        """
        s, leaf, depth, parent, mask = self.s, self.leaf, self.depth, self.parent, self.mask
        # below[b]: the symbols that sort before symbol b, and the end bit.  None
        # sort before symbol sigma, so a climb leaves a leaf where its suffix ends.
        below = [0] * (len(self.index) + 1)
        seen = 1 << len(self.index)
        for c in ordering.symbols:
            b = self.index[c]
            below[b] = seen
            seen |= 1 << b
        n = len(s) - 1
        v = i = 0
        while i < n:
            w = leaf[i]
            while not mask[w] & below[s[i + depth[w]]]:
                w = parent[w]
            v += 1
            i += depth[w] or 1
        return v


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
