import random

import pytest

from conftest import all_binary_strings, assert_lcp_matches_direct_scans, random_text
from lexparse import suffixes
from lexparse.alphabet import AlphabetOrdering, all_orderings
from lexparse.closedforms import edited_sa_prefix
from lexparse.fibwords import edited_fib, fib_length, fibonacci
from lexparse.suffixes import _break_ties, _sais, build_suffix_array, build_suffix_array_naive

ORD_AB = AlphabetOrdering.from_string("ab")
ORD_BA = AlphabetOrdering.from_string("ba")


def test_run_of_a():
    sa = build_suffix_array("aaa")
    assert tuple(sa.sa) == (3, 2, 1)
    assert sa.lcp == (0, 1, 2)


def test_worked_example_sa():
    # sorted by hand: a, aaba, aba, ababbaaba, abbaaba, ba, baaba, babbaaba, bbaaba
    sa = build_suffix_array("ababbaaba", ORD_AB)
    assert tuple(sa.sa) == (9, 6, 7, 1, 3, 8, 5, 2, 4)
    for i in range(1, sa.n + 1):
        assert sa.rank_of(sa.suffix_start(i)) == i


def test_previous_suffix_examples():
    sa = build_suffix_array("ababbaaba", ORD_AB)
    assert sa.previous_suffix(1) == 7
    assert sa.previous_suffix(9) is None  # smallest suffix "a"
    with pytest.raises(ValueError):
        sa.previous_suffix(0)
    with pytest.raises(ValueError):
        sa.previous_suffix(10)


def test_lcp_between_examples():
    w = "ababbaaba"
    sa = build_suffix_array(w, ORD_AB)
    n = len(w)
    for i in (1, 4, 9):
        assert sa.lcp_between(i, i) == n - i + 1
    assert sa.lcp_between(1, 7) == 3  # common prefix "aba"
    # adjacent ranks reproduce the lcp array
    for r in range(2, n + 1):
        assert sa.lcp_between(sa.suffix_start(r - 1), sa.suffix_start(r)) == sa.lcp[r - 1]
    with pytest.raises(ValueError):
        sa.lcp_between(0, 3)


def test_lcp_between_equals_range_minimum():
    rng = random.Random(4242)
    for _ in range(50):
        w = random_text(rng, "abc", 30)
        sa = build_suffix_array(w)
        i = rng.randint(1, len(w))
        j = rng.randint(1, len(w))
        ri, rj = sorted((sa.rank_of(i), sa.rank_of(j)))
        if ri == rj:
            continue
        expected = min(sa.lcp[r - 1] for r in range(ri + 1, rj + 1))
        assert sa.lcp_between(i, j) == expected


def test_doubling_matches_naive_exhaustive():
    for w in all_binary_strings(1, 10):
        for ordering in (ORD_AB, ORD_BA):
            fast = build_suffix_array(w, ordering)
            slow = build_suffix_array_naive(w, ordering)
            assert fast.sa == slow.sa
            assert fast.rank == slow.rank
            assert_lcp_matches_direct_scans(fast)


def test_doubling_matches_naive_random():
    rng = random.Random(99)
    for _ in range(120):
        w = random_text(rng, "abcd", 80)
        ordering = AlphabetOrdering(tuple(rng.sample(sorted(set(w)), len(set(w)))))
        fast = build_suffix_array(w, ordering)
        slow = build_suffix_array_naive(w, ordering)
        assert fast.sa == slow.sa
        assert_lcp_matches_direct_scans(fast)


def assert_matches_naive(w, ordering=None):
    fast = build_suffix_array(w, ordering)
    slow = build_suffix_array_naive(w, ordering)
    assert (fast.sa, fast.rank) == (slow.sa, slow.rank), (w, ordering)


def test_sais_matches_naive_on_unary_texts():
    # one LMS position (the sentinel's): the induce passes alone sort the text
    for n in range(1, 201):
        assert_matches_naive("a" * n)


def test_sais_matches_naive_on_run_heavy_texts():
    # long runs of one symbol between single other symbols
    rng = random.Random(31)
    for _ in range(150):
        main, *others = rng.sample("abcd", rng.randint(2, 4))
        w = "".join(main * rng.randint(0, 40) + rng.choice(others) for _ in range(rng.randint(1, 8)))
        w += main * rng.randint(0, 40)
        symbols = sorted(set(w))
        assert_matches_naive(w, AlphabetOrdering(tuple(rng.sample(symbols, len(symbols)))))


def test_sais_matches_naive_on_fibonacci_words():
    # every level of SA-IS on a Fibonacci word recurses (6 levels at index 16);
    # the quadratic oracle stops at index 16 (987 symbols)
    for ordering in (ORD_AB, ORD_BA):
        for k in range(1, 17):
            assert_matches_naive(fibonacci(k), ordering)
        for k in range(2, 9):
            assert_matches_naive(edited_fib(2 * k), ordering)


def test_sais_matches_naive_over_all_256_byte_values():
    # the top level's symbols span their whole range, 1..256 over the sentinel 0,
    # with long runs of single symbols at both ends of the range and in between
    rng = random.Random(256)
    values = [chr(c) for c in range(256)]
    rng.shuffle(values)
    runs = "".join(c * rng.randint(50, 200) for c in ("\x00", "\xff", values[0], "\x80"))
    w = "".join(values) + runs + "".join(reversed(values)) + "\x00\xff" * 40 + "\xff" * 120
    forward = AlphabetOrdering(tuple(chr(c) for c in range(256)))
    assert_matches_naive(w)  # the default ordering is code-point order: forward
    assert_matches_naive(w, AlphabetOrdering(forward.symbols[::-1]))


@pytest.mark.parametrize("sigma", [255, 256])
def test_sais_matches_naive_over_astral_alphabets(sigma):
    # 255 and 256 symbols above U+FFFF put the top level on the list path,
    # where each rank goes up by one as the list is built
    rng = random.Random(sigma)
    symbols = [chr(0x1F000 + c) for c in range(sigma)]
    rng.shuffle(symbols)
    runs = "".join(c * rng.randint(20, 60) for c in (symbols[0], symbols[-1], symbols[1]))
    w = "".join(symbols) + runs + "".join(rng.choices(symbols, k=400)) + symbols[-1] * 30
    ordering = AlphabetOrdering(tuple(symbols))
    assert_matches_naive(w, ordering)
    assert_matches_naive(w, AlphabetOrdering(ordering.symbols[::-1]))
    assert_matches_naive(w)


def types_by_definition(s):
    """Suffix types of ``s`` symbol by symbol, right to left: 1 where suffix
    i is S-type, 0 where it is L-type; the last suffix is S-type."""
    n = len(s)
    stype = [1] * n
    for i in range(n - 2, -1, -1):
        stype[i] = int(s[i] < s[i + 1] or (s[i] == s[i + 1] and stype[i + 1]))
    return stype


def lms_positions(stype):
    return [i for i in range(1, len(stype)) if stype[i] and not stype[i - 1]]


def lms_substrings(s):
    """The LMS substrings of ``s`` as (symbol, type) tuples, by definition,
    each up to and including the next LMS position."""
    n = len(s)
    stype = types_by_definition(s)
    lms = lms_positions(stype)
    ends = lms[1:] + [n - 1]
    return [tuple(zip(s[a : b + 1], stype[a : b + 1])) for a, b in zip(lms, ends)]


def run_heavy_level(rng, pool, n):
    """``n`` symbols ending with the sentinel 0, the others drawn from ``pool``
    in runs of 1 to 9."""
    s = []
    while len(s) < n - 1:
        s += [rng.choice(pool)] * rng.randint(1, 9)
    return s[: n - 1] + [0]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, suffixes._TYPE_CHUNK])
def test_types_match_the_definition(monkeypatch, chunk):
    # chunks of a few positions put their boundaries inside runs and on LMS
    # positions; the carry into each chunk is the type of its right neighbour
    monkeypatch.setattr(suffixes, "_TYPE_CHUNK", chunk)
    rng = random.Random(chunk)
    pools = {2: (1,), 3: (1, 2), 256: (1, 2, 128, 254, 255), 70_000: (1, 255, 256, 65_535, 65_536, 69_999)}
    # n = 1 and 2, an S-type position 0, and every suffix but the sentinel's L-type
    levels = [([0], 2), ([1, 0], 2), ([1, 1, 2, 0], 3), ([1, 1, 1, 0], 2)]
    for k, pool in pools.items():
        levels += [(run_heavy_level(rng, pool, rng.randint(1, 60)), k) for _ in range(60)]
    on_lms = 0
    for s, k in levels:
        want = types_by_definition(s)
        assert list(suffixes._types(s, k)) == want, (s, k)
        if k <= 256:  # a byte level, as bytes and as a list
            assert list(suffixes._types(bytes(s), k)) == want, (s, k)
        boundaries = range(len(s) - 1 - chunk, 0, -chunk)
        on_lms += len(set(lms_positions(want)).intersection(boundaries))
    assert on_lms > 0 or chunk > 60


def byte_keys(s):
    """``_byte_keys`` of a byte level ``s``, with types and LMS flags by definition."""
    stype = types_by_definition(s)
    lms = set(lms_positions(stype))
    lms_at = bytes(i in lms for i in range(1, len(s)))
    return suffixes._byte_keys(bytes(s), bytearray(stype), lms_at)


def assert_keys_order_like_substrings(s):
    keys, subs = byte_keys(s), lms_substrings(s)
    assert len(keys) == len(subs), s
    assert keys[-1] == b""  # the sentinel's
    for i in range(len(keys)):
        for j in range(len(keys)):
            assert (keys[i] < keys[j], keys[i] == keys[j]) == (subs[i] < subs[j], subs[i] == subs[j]), (s, i, j)


def test_byte_keys_split_at_the_lms_positions():
    # m = 1: the sentinel is the only LMS position, and its key is the only key
    assert byte_keys([3, 2, 2, 1, 0]) == [b""]
    # position n - 2 is always L-type (its symbol is above the sentinel's), so
    # the last regular LMS position is at most n - 3; at n - 3 its key ends
    # where the last record holds the sentinel's 0
    assert byte_keys([2, 1, 3, 0]) == [bytes([1, 2, 3, 1, 1, 3, 1]), b""]
    assert_keys_order_like_substrings([2, 1, 3, 0])
    assert_keys_order_like_substrings([1, 2, 1, 2, 1, 2, 0])
    rng = random.Random(5)
    for k, pool in ((3, (1, 2)), (5, (1, 2, 3, 4)), (256, (1, 2, 254, 255))):
        for _ in range(100):
            assert_keys_order_like_substrings(run_heavy_level(rng, pool, rng.randint(2, 40)))


def sais_levels(monkeypatch, s, k):
    """``_sais(s, k)`` checked against a full sort of the suffixes of ``s``;
    returns the string each of its levels sorted, ``s`` first."""
    calls = []

    def recorded(s, k):
        calls.append(s)
        return _sais(s, k)

    monkeypatch.setattr(suffixes, "_sais", recorded)
    assert suffixes._sais(s, k) == sorted(range(len(s)), key=lambda i: s[i:])
    return calls


def test_sais_names_distinct_lms_substrings(monkeypatch):
    # distinct symbols make every LMS substring distinct: the sort's order is final
    rng = random.Random(11)
    for n in (2, 3, 10, 500):
        s = rng.sample(range(1, n), n - 1) + [0]
        subs = lms_substrings(s)
        assert len(set(subs)) == len(subs)
        assert len(sais_levels(monkeypatch, s, n)) == 1


def test_sais_recurses_on_repeated_names(monkeypatch):
    # Fibonacci words repeat their LMS substrings at every level
    for k in (12, 16):
        s = [1 + (c == "b") for c in fibonacci(k)] + [0]
        subs = lms_substrings(s)
        assert len(set(subs)) < len(subs)
        assert len(sais_levels(monkeypatch, s, 3)) >= 3


def test_sais_over_an_alphabet_wider_than_two_bytes(monkeypatch):
    # codes 2 * symbol + type reach 139,999: three significant bytes.  The
    # symbols straddle byte boundaries and repeat, so the keys' byte order
    # decides the names and many LMS suffixes share a bucket
    rng = random.Random(70_000)
    k = 70_000
    pool = (1, 2, 255, 256, 257, 511, 512, 65_535, 65_536, 65_537, 69_998, 69_999)
    s = rng.choices(pool, k=3_000) + [0]
    assert len(sais_levels(monkeypatch, s, k)) >= 2


def test_byte_level_names_distinct_lms_substrings(monkeypatch):
    # distinct symbols make every LMS substring distinct: one level, no names
    rng = random.Random(255)
    s = bytes(rng.sample(range(1, 256), 255)) + b"\0"
    subs = lms_substrings(s)
    assert len(set(subs)) == len(subs) > 80
    assert sais_levels(monkeypatch, s, 256) == [s]


def test_byte_level_names_repeated_lms_substrings(monkeypatch):
    # the reduced string holds each LMS substring's rank among the distinct ones
    rng = random.Random(4)
    block = bytes(rng.choices(b"\1\2\3\4", k=300))
    for s in (block * 3 + b"\0", bytes(1 + (c == "b") for c in fibonacci(14)) + b"\0"):
        subs = lms_substrings(s)
        distinct = sorted(set(subs))
        assert len(distinct) < len(subs)
        reduced = sais_levels(monkeypatch, s, 5)[1]
        assert list(reduced) == [distinct.index(sub) for sub in subs]


def tie_breaks(monkeypatch):
    """The results of ``_break_ties``, level by level, from now on."""
    results = []

    def recorded(order, keys):
        results.append(_break_ties(order, keys))
        return results[-1]

    monkeypatch.setattr(suffixes, "_break_ties", recorded)
    return results


def planted_level(rng, k, n, block, times):
    """``n`` random symbols over ``1..k-1`` ending with the sentinel 0, with
    ``block`` written over them at ``times`` random places; ``bytes`` if the
    level fits a byte."""
    s = rng.choices(range(1, k), k=n - 1) + [0]
    for _ in range(times):
        p = rng.randrange(n - 1 - len(block))
        s[p : p + len(block)] = block
    return bytes(s) if k <= 256 else s


def ties(s):
    """The number of LMS substrings of ``s`` and how many of them repeat one before."""
    subs = lms_substrings(s)
    return len(subs), len(subs) - len(set(subs))


# Its LMS substring from the 100 to the 110 is the same in every copy, and
# so is each following one that ends inside the block.
TIED = [200, 100, 150, 120, 110, 130]


@pytest.mark.parametrize("k", [256, 1_000])
def test_sais_breaks_a_few_ties_by_the_keys_that_follow(monkeypatch, k):
    # Twelve copies of the block tie one LMS substring twelve ways, and the
    # random symbols after each copy break the ties within the window: at
    # most m/8 ties, ordered at the level itself, without naming or recursing.
    s = planted_level(random.Random(k), k, 3_000, TIED, 12)
    m, tied = ties(s)
    assert 11 <= tied and 8 * tied <= m
    breaks = tie_breaks(monkeypatch)
    assert len(sais_levels(monkeypatch, s, k)) == 1
    assert breaks == [True]


def test_sais_names_and_recurses_when_a_window_ties(monkeypatch):
    # A random block of 100 symbols, twice: about 30 LMS substrings tie in
    # pairs, with the same keys following each pair past the window.  Few
    # enough to try the keys, so the level falls back to naming and recurses.
    rng = random.Random(100)
    parts = [rng.choices(range(1, 256), k=1_000) for _ in range(3)]
    block = rng.choices(range(1, 256), k=100)
    s = bytes(parts[0] + block + parts[1] + block + parts[2] + [0])
    m, tied = ties(s)
    assert suffixes._WINDOW < tied and 8 * tied <= m
    breaks = tie_breaks(monkeypatch)
    assert len(sais_levels(monkeypatch, s, 256)) >= 2
    assert breaks[0] is False


@pytest.mark.parametrize("k", [256, 1_000])
def test_sais_breaks_ties_whose_windows_reach_the_sentinel(monkeypatch, k):
    # The block's last copy ends the level, so the window after its tied LMS
    # substring holds the one that ends at the sentinel and the sentinel's
    # own key, and stops there; the other copy's window goes on.
    rng = random.Random(k)
    breaks = tie_breaks(monkeypatch)
    for _ in range(20):
        head = rng.choices(range(1, k), k=rng.randint(20, 200))
        s = head + TIED + head[: rng.randint(0, 3)] + TIED + [0]
        assert ties(s)[1] > 0
        assert len(sais_levels(monkeypatch, bytes(s) if k <= 256 else s, k)) == 1
    assert breaks == [True] * 20


def test_sais_with_a_window_of_one(monkeypatch):
    # The keys of one LMS substring past each tie break some ties; a block
    # that fixes the next LMS substring too makes the level name and recurse.
    monkeypatch.setattr(suffixes, "_WINDOW", 1)
    rng = random.Random(1)
    breaks = tie_breaks(monkeypatch)
    for i in range(40):
        block = TIED + [90, 140, 80, 160] if i % 2 else TIED
        for k in (256, 1_000):
            s = planted_level(rng, k, rng.randint(200, 600), block, rng.randint(2, 6))
            sais_levels(monkeypatch, s, k)
    assert True in breaks and False in breaks


def sais_level_types(monkeypatch, w, ordering=None):
    """``build_suffix_array(w, ordering)`` checked against the oracle; returns
    the type of the string each SA-IS level sorts, top level first, after
    checking that a level is ``bytes`` exactly when its alphabet fits a byte."""
    levels = []

    def recorded(s, k):
        levels.append((type(s), k))
        return _sais(s, k)

    monkeypatch.setattr(suffixes, "_sais", recorded)
    assert_matches_naive(w, ordering)
    assert all((t is bytes) == (k <= 256) for t, k in levels), levels
    return [t for t, _ in levels]


def test_sais_top_level_is_bytes_up_to_254_symbols(monkeypatch):
    # the top level's alphabet is the sentinel, the ranks shifted up by one and
    # the leading symbol: k = sigma + 2
    rng = random.Random(254)
    for sigma, top in ((253, bytes), (254, bytes), (255, list), (256, list)):
        symbols = [chr(c) for c in range(sigma)]
        rng.shuffle(symbols)
        w = "".join(symbols) + "".join(rng.choices(symbols, k=1_000))
        types = sais_level_types(monkeypatch, w, AlphabetOrdering(tuple(symbols)))
        assert types[0] is top, sigma


def test_sais_recursion_switches_between_bytes_and_lists(monkeypatch):
    # A block repeated twice repeats every LMS substring, so SA-IS recurses;
    # the names of a random block of 1,000-1,200 symbols outnumber a byte.
    rng = random.Random(2_000)
    values = [chr(c) for c in range(256)]
    rng.shuffle(values)
    block = "".join(rng.choices(values, k=1_000))
    assert sais_level_types(monkeypatch, "".join(values) + block * 2)[:3] == [list, list, bytes]
    block = "".join(rng.choices("abcdefghijklmnopqrst", k=1_200))
    assert sais_level_types(monkeypatch, block * 2)[:3] == [bytes, list, bytes]
    # a short block gives few names: a list level over all 256 values recurses on bytes
    block = "".join(rng.choices(values, k=30))
    assert sais_level_types(monkeypatch, "".join(values) + block * 10)[:2] == [list, bytes]
    assert set(sais_level_types(monkeypatch, fibonacci(14), ORD_AB)) == {bytes}


def test_suffix_array_of_random_bytes_is_sorted():
    # 200,000 symbols: past what the quadratic oracle can sort, with codes
    # above one byte; suffixes compare on 32-symbol slices, fully on a tie
    rng = random.Random(200_000)
    text = "".join(map(chr, rng.choices(range(256), k=200_000)))
    sa = build_suffix_array(text)
    starts = [p - 1 for p in sa.sa]
    assert sorted(starts) == list(range(len(text)))
    for p, q in zip(starts, starts[1:]):
        a, b = text[p : p + 32], text[q : q + 32]
        assert a < b or (a == b and text[p:] < text[q:]), (p, q)


@pytest.mark.slow
def test_suffix_array_of_a_million_random_bytes_is_sorted():
    # suffix pair by pair; the top level (a list) has 332,800 LMS substrings
    # under 330,713 names, few enough ties to order them by their keys
    # without recursing
    t = "".join(map(chr, random.Random(1).choices(range(256), k=10**6)))
    sa = [p - 1 for p in build_suffix_array(t).sa]
    assert sorted(sa) == list(range(len(t)))
    for p, q in zip(sa, sa[1:]):
        a, b = t[p : p + 32], t[q : q + 32]
        assert a < b or (a == b and t[p:] < t[q:]), (p, q)


@pytest.mark.slow
def test_suffix_arrays_of_a_million_symbols_held_as_bytes_are_sorted():
    # Suffix pair by pair: 10^6 acgt symbols with runs of up to 40,000, past
    # the type scan's chunks; 10^6 symbols over 254 values, whose top level
    # is 256 symbols wide; and 10^6 uniform acgt symbols, the parse
    # benchmark's shape, whose second level (a list of 291,574 symbols)
    # orders its 93,218 LMS substrings, under 88,686 names, by their keys.
    # On a tie of first symbols the pair is ordered by the ranks of the
    # suffixes one on, which compares long runs in O(1) where slices would
    # copy them.
    rng = random.Random(1)
    runs, n = [], 0
    while n < 10**6:
        runs.append(rng.choice("acgt") * (rng.randint(1, 8) if rng.random() > 0.001 else rng.randint(20_000, 40_000)))
        n += len(runs[-1])
    symbols = [chr(c) for c in range(254)]
    texts = ("".join(runs)[: 10**6], "".join(symbols) + "".join(rng.choices(symbols, k=10**6 - 254)))
    for t in (*texts, "".join(rng.choices("acgt", k=10**6))):
        sa = [p - 1 for p in build_suffix_array(t).sa]
        assert sorted(sa) == list(range(len(t)))
        rank = [0] * (len(t) + 1)  # the empty suffix past the end ranks lowest
        for r, p in enumerate(sa, 1):
            rank[p] = r
        for p, q in zip(sa, sa[1:]):
            assert t[p] < t[q] or (t[p] == t[q] and rank[p + 1] < rank[q + 1]), (p, q)


def test_ordering_absorbed_by_renaming():
    rng = random.Random(7)
    for _ in range(60):
        w = random_text(rng, "abcd", 60)
        symbols = sorted(set(w))
        for ordering in all_orderings(symbols):
            renamed = w.translate(
                {ord(c): ord("a") + ordering.rank(c) for c in symbols}
            )
            direct = build_suffix_array(w, ordering)
            via_rename = build_suffix_array(renamed)
            assert direct.sa == via_rename.sa
            assert_lcp_matches_direct_scans(direct)
            break  # one non-standard ordering per sample keeps this quick
    # plus a deterministic full check on a fixed word
    w = "cabbage"
    for ordering in all_orderings(sorted(set(w))):
        renamed = w.translate({ord(c): ord("a") + ordering.rank(c) for c in set(w)})
        assert build_suffix_array(w, ordering).sa == build_suffix_array(renamed).sa


def test_suffix_invariants_hold():
    sa = build_suffix_array("mississippi")
    key, text = sa.ordering.key, sa.text
    for r in range(2, sa.n + 1):
        assert key(text[sa.suffix_start(r - 1) - 1 :]) < key(text[sa.suffix_start(r) - 1 :])


def test_edited_word_sa_prefix_closed_form():
    for k in (4, 5, 6):
        sa = build_suffix_array(edited_fib(2 * k), ORD_AB)
        assert [sa.suffix_start(r) for r in range(1, k + 2)] == edited_sa_prefix(k)
    sa = build_suffix_array(edited_fib(12), ORD_AB)
    assert tuple(sa.sa[:3]) == (144, 143, 142)
    assert sa.suffix_start(sa.n) == fib_length(9)  # largest suffix


def test_errors():
    with pytest.raises(ValueError):
        build_suffix_array("")
    with pytest.raises(ValueError):
        build_suffix_array("abc", ORD_AB)  # c not covered by the ordering
