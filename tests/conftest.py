"""Shared helpers for the test suite."""

import itertools
from fractions import Fraction

from lexparse.alphabet import all_orderings
from lexparse.parse import v_count
from lexparse.sensitivity import AOSensitivityReport
from lexparse.textops import edit_candidates


def all_binary_strings(min_len, max_len):
    """Every string over {a, b} with length in [min_len, max_len], shortest first."""
    for n in range(min_len, max_len + 1):
        for tup in itertools.product("ab", repeat=n):
            yield "".join(tup)


def random_text(rng, alphabet, max_len, min_len=1):
    n = rng.randint(min_len, max_len)
    return "".join(rng.choice(alphabet) for _ in range(n))


def assert_lcp_matches_direct_scans(sa):
    """The lazy Kasai LCP array against direct scans of adjacent-rank suffixes."""
    assert sa.lcp[0] == 0
    for r in range(2, sa.n + 1):
        assert sa.lcp[r - 1] == sa.lcp_between(sa.sa[r - 2], sa.sa[r - 1]), r


def edit_scan_oracle(text, kind, ordering):
    """Each candidate's phrase count from a suffix array of its own: the
    independent oracle of the edit scans, which build only the base text's."""
    return [v_count(c.text, ordering) for c in edit_candidates(text, kind, ordering)]


def exact_reach(t, a):
    """Length of the longest suffix of ``t[:a]`` that also occurs in ``t`` at
    another start, by whole-text finds: the oracle of the edit scans' reach
    bound.  Such lengths are closed downwards, so galloping and then binary
    search find it."""

    def elsewhere(length):
        s = t[a - length : a]
        f = t.find(s)
        return f != a - length or t.find(s, f + 1) >= 0

    lo, hi = 0, 1
    while hi <= a and elsewhere(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, a + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if elsewhere(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ao_scan_oracle(text):
    """The ordering-scan report from a suffix array and a parse per ordering: the
    independent oracle of the ordering scan, which builds one suffix array in all."""
    per = {o.spec: v_count(text, o) for o in all_orderings(set(text))}
    max_v, min_v = max(per.values()), min(per.values())
    return AOSensitivityReport(
        per_ordering=per,
        max_v=max_v,
        min_v=min_v,
        ratio=Fraction(max_v, min_v),
        argmax=next(k for k, v in per.items() if v == max_v),
        argmin=next(k for k, v in per.items() if v == min_v),
    )
