import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

import lexparse.parse
import lexparse.sensitivity
from conftest import ao_scan_oracle, edit_scan_oracle, exact_reach, random_text, record_builds
from lexparse.alphabet import AlphabetOrdering, all_orderings
from lexparse.cli import main
from lexparse.fibwords import fib_length, fibonacci
from lexparse.parse import lex_parse_naive, v_count
from lexparse.sensitivity import (
    _EditedCounter,
    _reach_bound,
    ao_sensitivity_scan,
    edit_sensitivity_scan,
    sensitivity_growth_table,
)
from lexparse.textops import edit_candidates

ORD_AB = AlphabetOrdering.from_string("ab")


def test_scan_exactness_against_naive_parse():
    # independent recomputation: same candidate set, quadratic oracle parser
    rng = random.Random(515)
    for _ in range(25):
        w = random_text(rng, "ab", 60, min_len=2)
        for kind in ("sub", "ins", "del"):
            report = edit_sensitivity_scan(w, kind, ORD_AB)
            oracle_max = max(
                lex_parse_naive(c.text, ORD_AB).v
                for c in edit_candidates(w, kind, ORD_AB)
            )
            assert report.max_v == oracle_max
            assert report.max_ratio == Fraction(oracle_max, lex_parse_naive(w, ORD_AB).v)


def test_witness_reproduces_max():
    report = edit_sensitivity_scan(fibonacci(10), "sub", ORD_AB, keep_rows=True)
    assert v_count(report.witness.text, ORD_AB) == report.max_v
    assert report.rows is not None
    assert max(r.v for r in report.rows) == report.max_v
    assert all(Fraction(r.v, report.base_v) <= report.max_ratio for r in report.rows)


def test_single_symbol_substitution():
    report = edit_sensitivity_scan("a", "sub", AlphabetOrdering.from_string("ab"))
    assert report.candidates == 1
    assert report.witness.text == "b"
    assert report.max_ratio == Fraction(1, 1)


def test_deletion_scan_contains_shortened_witness():
    # deleting the rightmost b of the 12th word leaves the known 10-phrase text
    F = fibonacci(12)
    report = edit_sensitivity_scan(F, "del", ORD_AB, keep_rows=True)
    assert report.base_v == 4
    row = next(r for r in report.rows if r.position == 143)
    assert row.old == "b"
    assert row.v == 10
    assert report.max_v == 10


def test_deletion_needs_two_symbols():
    for text, kind, ordering, message in (
        ("a", "del", None, "length >= 2"),
        # a substitution needs a second symbol to substitute
        ("aaa", "sub", None, "two or more symbols, got 'a'"),
        ("aaa", "sub", AlphabetOrdering.from_string("a"), "two or more symbols, got 'a'"),
    ):
        with pytest.raises(ValueError, match=message):
            edit_sensitivity_scan(text, kind, ordering)


@pytest.mark.parametrize("kind, spec", [("sub", "ab"), ("ins", "$ab"), ("del", "ab")])
def test_scan_rows_match_per_candidate_rebuilds_on_fibonacci_words(kind, spec):
    ordering = AlphabetOrdering.from_string(spec)
    for k in (12, 13, 14):
        F = fibonacci(k)
        report = edit_sensitivity_scan(F, kind, ordering, keep_rows=True)
        assert report.base_v == v_count(F, ordering)
        assert [r.v for r in report.rows] == edit_scan_oracle(F, kind, ordering), k


@pytest.mark.parametrize(
    "kind, spec, calls, candidates",
    [
        ("sub", "ab", 610, 610),
        ("ins", "$ab", 1223, 1833),  # (n+1)*3 - n distinct texts
        ("ins", "ab", 612, 1222),  # (n+1)*2 - n distinct texts
        ("del", "ab", 466, 610),  # one text per run of equal symbols
    ],
)
def test_scan_counts_each_distinct_text_once(monkeypatch, kind, spec, calls, candidates):
    counted = []
    edited_v = _EditedCounter.edited_v

    def counting(self, cand):
        counted.append(cand)
        return edited_v(self, cand)

    monkeypatch.setattr(_EditedCounter, "edited_v", counting)
    F = fibonacci(15)
    ordering = AlphabetOrdering.from_string(spec)
    report = edit_sensitivity_scan(F, kind, ordering, keep_rows=True)
    assert len(counted) == calls
    assert report.candidates == len(report.rows) == candidates
    distinct = {c.text for c in edit_candidates(F, kind, ordering)}
    assert {c.text for c in counted} == distinct and len(distinct) == calls


@pytest.mark.parametrize("text", ["aaaabbbaaab", "abbbbbbba", "aaaaaaaa", "abcccba"])
def test_scan_rows_match_per_candidate_rebuilds_on_texts_with_runs(text):
    # equal neighbours reuse an earlier count: next to the first symbol, at
    # the end of the text and across run boundaries
    own = AlphabetOrdering.for_text(text)
    wide = AlphabetOrdering.from_string("$" + own.spec)
    for kind, ordering in (("ins", own), ("ins", wide), ("del", own)):
        report = edit_sensitivity_scan(text, kind, ordering, keep_rows=True)
        assert [r.v for r in report.rows] == edit_scan_oracle(text, kind, ordering), (
            kind, ordering.spec)


@pytest.mark.parametrize(
    "kind, spec",
    [("sub", "ab"), ("ins", "$ab"), ("del", "ab"), ("sub", "abc"), ("ins", "$abc"), ("del", "abc")],
)
def test_scan_rows_match_per_candidate_rebuilds_on_every_short_binary_word(kind, spec):
    # all 508 words over {a, b} of length 2..8: every edit position, reach
    # and head window these lengths allow; and all 360 over {a, b, c} of
    # length 2..5, where a substituted symbol can sort between the other two
    # and an inserted $ below all three
    symbols = spec.lstrip("$")
    ordering = AlphabetOrdering.from_string(spec)
    for length in range(2, 9 if len(symbols) == 2 else 6):
        for w in itertools.product(symbols, repeat=length):
            text = "".join(w)
            report = edit_sensitivity_scan(text, kind, ordering, keep_rows=True)
            assert [r.v for r in report.rows] == edit_scan_oracle(text, kind, ordering), text


# Four astral symbols, smallest first; the texts below lack the one ranked second.
ASTRAL = "\U0001F40D\U0001F300\U0001F9E9\U0001F4A1"


@pytest.mark.parametrize("kind", ["sub", "ins", "del"])
def test_scan_rows_match_per_candidate_rebuilds_under_an_astral_ordering(kind):
    # Symbols above U+00FF, and one in the ordering that the text lacks, go
    # through the counter's rank bytes as the rebuilds' key() tuples.
    ordering = AlphabetOrdering(tuple(ASTRAL))
    rng = random.Random(4)
    shown = ASTRAL[0] + ASTRAL[2:]
    texts = [fibonacci(10).translate({ord("a"): ASTRAL[3], ord("b"): ASTRAL[0]})]
    texts += [random_text(rng, shown, 40, min_len=2) for _ in range(12)]
    for text in texts:
        report = edit_sensitivity_scan(text, kind, ordering, keep_rows=True)
        assert [r.v for r in report.rows] == edit_scan_oracle(text, kind, ordering), text


def _straddling_texts():
    """Texts whose edit counts ask many LCE queries that end at 7, 8 or 9
    symbols, on either side of the 8 that ``_lce`` compares one at a time:
    runs ``a^7 b``, ``a^8 b``, ``a^9 b`` and their concatenations, and
    prefixes of powers of random words of length 7 to 9 over {a, b}."""
    runs = ["a" * r + "b" for r in (7, 8, 9)]
    for count in (1, 2, 3):
        for blocks in itertools.product(runs, repeat=count):
            yield "".join(blocks)
    rng = random.Random(2703)
    for _ in range(12):
        word = random_text(rng, "ab", 9, 7)
        yield (word * 9)[: rng.randint(30, 60)]


def test_scan_rows_match_per_candidate_rebuilds_where_lces_straddle_the_head(monkeypatch):
    answers = []
    lce = lexparse.sensitivity._lce

    def recording(s, i, t, j):
        answers.append(lce(s, i, t, j))
        return answers[-1]

    monkeypatch.setattr(lexparse.sensitivity, "_lce", recording)
    for text in _straddling_texts():
        for kind, spec in (("sub", "ab"), ("ins", "$ab"), ("del", "ab")):
            ordering = AlphabetOrdering.from_string(spec)
            report = edit_sensitivity_scan(text, kind, ordering, keep_rows=True)
            assert [r.v for r in report.rows] == edit_scan_oracle(text, kind, ordering), (
                text, kind)
    assert all(answers.count(l) >= 500 for l in (7, 8, 9))


def _random_texts(seed, count, max_len):
    """(text, alphabet) pairs over 2 to 4 symbols: uniform, in runs of equal
    symbols, or a prefix of a power of a short word, so that the ends repeat."""
    rng = random.Random(seed)
    for i in range(count):
        alphabet = "abcd"[: 2 + i % 3]
        shape = i // 3 % 3
        if shape == 0:
            text = random_text(rng, alphabet, max_len, min_len=2)
        elif shape == 1:
            text = "".join(rng.choice(alphabet) * rng.randint(1, 6) for _ in range(max_len))
            text = text[: rng.randint(2, max_len)]
        else:
            word = random_text(rng, alphabet, 5)
            text = (word * max_len)[: rng.randint(2, max_len)]
        yield text, alphabet


def _assert_reach_bounds(text, ordering):
    counter = _EditedCounter(text, ordering)
    u = counter.u
    # left[a] is the exact reach of u[:a] within u itself
    assert list(counter.left) == [exact_reach(u, a) for a in range(len(u) + 1)], text
    edited_at = set()
    for kind in ("sub", "ins", "del"):
        for cand in edit_candidates(text, kind, ordering):
            t = ordering.ranks(cand.text)
            a = cand.position - 1
            assert exact_reach(t, a) <= _reach_bound(t, a, counter.left[a]) <= a, (text, cand)
            edited_at.add(a)
    assert {0, len(text)} <= edited_at  # the table's edge entries left[0] and left[n]


def test_reach_bound_covers_the_exact_reach_on_random_texts():
    for text, alphabet in _random_texts(2024, 90, 50):
        _assert_reach_bounds(text, AlphabetOrdering.from_string("$" + alphabet))
    # The table's sweep at its edges: texts of length 1 and 2, a unary text,
    # one whose symbols are all distinct (no suffix recurs, so left is all
    # 0), and a reversed ordering, which the table must not depend on.
    for text, spec in (
        ("a", "$a"),
        ("ab", "$ab"),
        ("bb", "$b"),
        ("a" * 12, "$a"),
        ("dbeac", "$abcde"),
        (fibonacci(9), "ba$"),
    ):
        _assert_reach_bounds(text, AlphabetOrdering.from_string(spec))


@pytest.mark.parametrize("k", range(8, 15))
def test_reach_bound_covers_the_exact_reach_on_fibonacci_words(k):
    _assert_reach_bounds(fibonacci(k), AlphabetOrdering.from_string("$ab"))


def test_each_scan_builds_one_suffix_array(monkeypatch):
    builds = record_builds(monkeypatch, lexparse.sensitivity, lexparse.parse)
    text = fibonacci(10)
    for kind, spec in (("sub", "ab"), ("ins", "$ab"), ("ins", "ab"), ("del", "ab")):
        builds.clear()
        edit_sensitivity_scan(text, kind, AlphabetOrdering.from_string(spec))
        assert builds == [(text, spec)], (kind, spec)
    builds.clear()
    ao_sensitivity_scan("cabcab")
    assert builds == [("cabcab", "abc")]


def test_edits_at_the_text_ends_match_per_candidate_rebuilds():
    for text, alphabet in _random_texts(4051, 45, 60):
        n = len(text)
        sigma = len(alphabet)
        for kind, spec, last, per_end in (
            ("sub", alphabet, n, sigma - 1),
            ("ins", "$" + alphabet, n + 1, sigma + 1),
            ("del", alphabet, n, 1),
        ):
            ordering = AlphabetOrdering.from_string(spec)
            report = edit_sensitivity_scan(text, kind, ordering, keep_rows=True)
            oracle = edit_scan_oracle(text, kind, ordering)
            ends = [(r, v) for r, v in zip(report.rows, oracle) if r.position in (1, last)]
            assert len(ends) == 2 * per_end, (text, kind)
            assert all(r.v == v for r, v in ends), (text, kind, ends)


@pytest.mark.parametrize("k", [6, 7, 8, 9])
def test_exhaustive_scans_reach_the_witness_counts(k):
    # the paper's lower-bound witnesses: no single edit of F_2k beats them
    F = fibonacci(2 * k)
    n = len(F)
    for kind, spec, max_v, witness_at in (
        ("sub", "ab", 2 * k - 2, n - 8),
        ("del", "ab", 2 * k - 2, n - 8),
        ("ins", "$ab", 2 * k, n - 7),
    ):
        report = edit_sensitivity_scan(F, kind, AlphabetOrdering.from_string(spec))
        assert report.max_v == max_v, kind
        if k >= 7:
            assert report.witness.position == witness_at, kind


# Exhaustive fib:20 and fib:22 edit scans (n = 6,765 and 17,711): (k, kind,
# ordering, candidates, max_v, witness position, SHA-256 of the ``--rows
# --format json`` report).  Each counts the base word's 4 phrases and every
# candidate (n, or 3 (n + 1) for ins $ab) and reaches the closed-form witness
# count; the digest pins every row's count.
_EXHAUSTIVE_SCANS = [
    (20, "sub", "ab", 6765, 18, 6757, "8470a797f0c467b4ada3eac4d6aa56e4c812712047cf4b5b5c4a789f60061f09"),
    (20, "del", "ab", 6765, 18, 6757, "35689f5457bda93fdf6e26ee7b6d73748356d3c3d015f9826ae78bb710b011e3"),
    (20, "ins", "$ab", 20298, 20, 6758, "ad68f1d47e38b554e47f851ce5e554dd5b3eea965147caf1ede2f7279bc4bb8d"),
    (22, "sub", "ab", 17711, 20, 17703, "356639905d44f0655e5989201a354d5c612d4cbc8e9e2808e3a141375826e2df"),
    (22, "del", "ab", 17711, 20, 17703, "65749762f181ff0a9d5f0b601ecdeb51c0f3f9944268aca64910dfe0f29b5030"),
    (22, "ins", "$ab", 53136, 22, 17704, "3b708383e35f86d52458bec89cc612103e5b5e97e8258c25e7c715c278fbf7ab"),
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "k, kind, spec, candidates, max_v, at, digest",
    _EXHAUSTIVE_SCANS,
    ids=[f"fib:{k}-{kind}-{spec}" for k, kind, spec, *_ in _EXHAUSTIVE_SCANS],
)
def test_exhaustive_scan_reports_are_pinned(capsys, k, kind, spec, candidates, max_v, at, digest):
    code = main(["scan", "edit", "--gen", f"fib:{k}", "--kind", kind, "--order", spec,
                 "--rows", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    report = json.loads(out)
    got = [report["v_base"], report["candidates"], report["max_v"], report["witness"]["position"]]
    assert got == [4, candidates, max_v, at]


def test_insertion_alphabet_is_the_orderings():
    # a sentinel ranked below everything widens the insertion alphabet and
    # unlocks strictly worse candidates than the plain alphabet allows
    F = fibonacci(10)
    plain = edit_sensitivity_scan(F, "ins", ORD_AB)
    assert plain.candidates == (len(F) + 1) * 2
    assert plain.max_v == 8
    widened = edit_sensitivity_scan(F, "ins", AlphabetOrdering.from_string("$ab"),
                                    keep_rows=True)
    assert widened.candidates == (len(F) + 1) * 3
    assert widened.max_v == 10
    row = next(r for r in widened.rows if r.position == 54 and r.new == "$")
    assert row.v == 10


def test_ao_scan_fib13():
    report = ao_sensitivity_scan(fibonacci(13))
    assert report.per_ordering == {"ab": 8, "ba": 4}
    assert report.ratio == Fraction(2, 1)
    assert report.argmax == "ab"
    assert report.argmin == "ba"


def test_ao_scan_fib14():
    report = ao_sensitivity_scan(fibonacci(14))
    assert report.per_ordering == {"ab": 4, "ba": 8}
    assert report.ratio == Fraction(2, 1)
    assert report.argmax == "ba"


def test_ao_scan_unary():
    report = ao_sensitivity_scan("aaaa")
    assert report.per_ordering == {"a": 2}
    assert report.ratio == Fraction(1, 1)


def _benchmark_shaped_text(seed, symbols, n):
    """A random text that holds every symbol, drawn as the benchmark draws its ordering-scan input."""
    rng = random.Random(seed)
    head = list(symbols)
    rng.shuffle(head)
    return "".join(head) + "".join(rng.choices(symbols, k=n - len(head)))


@pytest.mark.parametrize(
    "text",
    ["a", "aaaa", "ab", "ba", "abab", "aab", fibonacci(15)]
    + [_benchmark_shaped_text(seed, "abcdef", 500) for seed in (1, 7)],
    ids=["a", "aaaa", "ab", "ba", "abab", "aab", "fib15", "sigma6-seed1", "sigma6-seed7"],
)
def test_ao_scan_matches_per_ordering_rebuilds_on_fixed_texts(text):
    report, oracle = ao_sensitivity_scan(text), ao_scan_oracle(text)
    assert report == oracle
    assert list(report.per_ordering) == list(oracle.per_ordering)


def test_ao_scan_sigma8_sampled_orderings():
    text = _benchmark_shaped_text(8, "abcdefgh", 300)
    report = ao_sensitivity_scan(text)
    orderings = list(all_orderings(set(text)))
    assert list(report.per_ordering) == [o.spec for o in orderings]
    for o in random.Random(8).sample(orderings, 50):
        assert report.per_ordering[o.spec] == v_count(text, o), o.spec


def test_ao_scan_matches_per_ordering_rebuilds_on_astral_texts():
    # the tree's per-ordering symbol bits are read from rank bytes
    rng = random.Random(44)
    for n in (4, 9, 30, 60):
        text = ASTRAL + random_text(rng, ASTRAL, n, min_len=n)
        assert ao_sensitivity_scan(text) == ao_scan_oracle(text), text


def test_ao_scan_refuses_wide_alphabets():
    text = "abcdefghi"  # 9 distinct symbols
    with pytest.raises(ValueError, match="distinct symbols"):
        ao_sensitivity_scan(text)


def test_ao_renaming_symmetry():
    rng = random.Random(31337)
    mapping = str.maketrans("abc", "xqz")
    for _ in range(20):
        w = random_text(rng, "abc", 40, min_len=3)
        base = ao_sensitivity_scan(w)
        renamed = ao_sensitivity_scan(w.translate(mapping))
        assert renamed.ratio == base.ratio
        assert sorted(renamed.per_ordering.values()) == sorted(base.per_ordering.values())
        # the renamed argmax attains the same maximum
        assert renamed.per_ordering[renamed.argmax] == base.max_v


def test_growth_table():
    rows = sensitivity_growth_table(6, 8)
    assert [r.k for r in rows] == [6, 7, 8]
    for r in rows:
        assert r.n == fib_length(2 * r.k)
        assert r.base_v == 4
        assert r.witness_v == 2 * r.k - 2
        assert r.ratio == Fraction(2 * r.k - 2, 4)
    ratios = [r.ratio for r in rows]
    assert ratios == sorted(ratios)


def test_growth_table_validation():
    with pytest.raises(ValueError):
        sensitivity_growth_table(5, 8)
    with pytest.raises(ValueError):
        sensitivity_growth_table(8, 6)
    with pytest.raises(ValueError, match="exceeds"):
        sensitivity_growth_table(6, 30)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        edit_sensitivity_scan("", "sub")
    with pytest.raises(ValueError):
        ao_sensitivity_scan("")


def _sigma3_text(shape, seed, n):
    """A seeded text over ``abc``: uniform, or in runs of 1 to 12 equal symbols cut to ``n``."""
    rng = random.Random(seed)
    if shape == "uniform":
        return "".join(rng.choices("abc", k=n))
    return "".join(rng.choice("abc") * rng.randint(1, 12) for _ in range(n))[:n]


_SIGMA3_TEXTS = {
    "uniform-300": _sigma3_text("uniform", 300, 300),
    "uniform-600": _sigma3_text("uniform", 600, 600),
    "runs-400": _sigma3_text("runs", 400, 400),
}


def _rows_scans():
    for k in range(12, 17):
        for kind, spec in (("sub", "ab"), ("ins", "$ab"), ("ins", "ab"), ("del", "ab")):
            yield f"fib:{k}", ("--gen", f"fib:{k}"), kind, spec
    for name, text in _SIGMA3_TEXTS.items():
        for kind, spec in (("sub", "abc"), ("ins", "$abc"), ("del", "abc")):
            yield name, ("--text", text), kind, spec


# SHA-256 of ``scan edit ... --rows --format csv`` per (input, kind, ordering),
# generated once from an earlier edit counter, which sliced each phrase's
# suffix: a faster counter must write the same rows byte for byte.
_ROWS_DIGESTS = {
    ("fib:12", "sub", "ab"): "68a44426c4c65b7c3c4a97188a7d5542f58494bdb6078bf8445910edb9946969",
    ("fib:12", "ins", "$ab"): "793095f113b2b1823f0522b54f0912ed91792b3192c130e9eb5b8ec85f7cd56f",
    ("fib:12", "ins", "ab"): "1eae3c5e106f90f0a622da66495d37d65c30f77d32e6493149802fa366f4efc7",
    ("fib:12", "del", "ab"): "5a72c775513f2d530f04628855ab2234609055ca0f840e39acdc40a494557734",
    ("fib:13", "sub", "ab"): "00780b03c4ce99b13d7ac80cc91970198f40ca279678934e350fd49968f14be3",
    ("fib:13", "ins", "$ab"): "328be964671cfd704869e90ec84860559c4b42cda8d3d1de4361e8b1ca73cf8b",
    ("fib:13", "ins", "ab"): "d7c6748ef3be0b3ed667f5f8ba4fb46c131ef3e0dae645a2df391c23b4980393",
    ("fib:13", "del", "ab"): "9478b0ed961a98068d1fa0e6b70a56ca366e0b6e381cbb689bb8155281c0b04f",
    ("fib:14", "sub", "ab"): "c2fdac3da27d69c9f784451d8db761125c5d58e4c4b962b038eba384ad75805c",
    ("fib:14", "ins", "$ab"): "05f8289a47f785f4c06376529c04d3e1324289af258806df475866372d8e4fa7",
    ("fib:14", "ins", "ab"): "f076d4b349327bb67eefbd4e591dc6042ca56c8c210c9f08678060c0d8e8d75a",
    ("fib:14", "del", "ab"): "83ba487a27929cc3f1bfcb6db1daf4c8e071c3e266fdea4f4bb6d58578e7de38",
    ("fib:15", "sub", "ab"): "bca0b8fffd99e71fd162bff7011056cbe81c3d7fb83c7ca4206e5dcc2e9353a5",
    ("fib:15", "ins", "$ab"): "e0bd123eaddb9ed4618c329e5be32535205cc23422e4c79fc8a1ab805c40c599",
    ("fib:15", "ins", "ab"): "ded5f7b2113ceb0c2bf5089dbaa2b9259433979776b7f89bace51e9eb41cf3e6",
    ("fib:15", "del", "ab"): "fd79049ff34277910e93c6dcc6509346e0b5b7cb4aaedb685b86e111f3fc1959",
    ("fib:16", "sub", "ab"): "7e7ef8f32787d81d6512a60830784ec94d7953bdf9364cc6a68f8e3991cb99f6",
    ("fib:16", "ins", "$ab"): "cbbbd369fb0003b79490a503e8c6b10c6c2e71d2db0806ef225fa7db379fd778",
    ("fib:16", "ins", "ab"): "b7a234962de54e604b7a7cce61e91d2d15a7f4798541a9ae175d4d510663fdbc",
    ("fib:16", "del", "ab"): "76dda6baaaa095292b2c389763061040d8e0631ebaceba0d99f4f78c06e7c324",
    ("uniform-300", "sub", "abc"): "8cc125134bf4639b18bafcf1115178f42ca33844bd0aca2c5a8c6bc3f949d678",
    ("uniform-300", "ins", "$abc"): "a3d33d0fba2b3f44eda861d8952d7088a1c5ba64aeabdcc3f5d5db432b158fed",
    ("uniform-300", "del", "abc"): "1a0bfcdee1ecf5bd1d4c2191285ebc89acffe90153a27c78a882276a8acdf670",
    ("uniform-600", "sub", "abc"): "eaa84228fc869b312401712951328ede56fc71679fa06513d7ed3d867a5ba357",
    ("uniform-600", "ins", "$abc"): "6e6518aaf2cdd5c2b49611c99b33a574e7573a86eca927a1c76a065a4d623a16",
    ("uniform-600", "del", "abc"): "900613893b1d00d42e0576842f4b0ecbb5f605cc641c38ea5b05b32afdeeb35b",
    ("runs-400", "sub", "abc"): "f190d654f6ab27ab53f12587a89fe79bca7c3c05be5186e5733a45a9cfe2b414",
    ("runs-400", "ins", "$abc"): "6db1a5acc305fa1404e51b4135d84f06278d2a8da04218e3250282695b6789e0",
    ("runs-400", "del", "abc"): "5a73cd293595705582b0bc42827aeb695bb037287c811d7fadf8829b256ea2cb",
}


@pytest.mark.parametrize(
    "name, source, kind, spec",
    list(_rows_scans()),
    ids=[f"{name}-{kind}-{spec}" for name, _, kind, spec in _rows_scans()],
)
def test_scan_rows_are_pinned_by_digest(capsys, name, source, kind, spec):
    code = main(["scan", "edit", *source, "--kind", kind, "--order", spec, "--rows", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _ROWS_DIGESTS[name, kind, spec]


def _unary(n):
    return ("a" * n, "b" * n)


def _alternating(n):
    return (("ab" * n)[:n], ("ba" * n)[:n])


_BINARY_EDITS = (("sub", "ab"), ("del", "ab"), ("ins", "$ab"))

# The worst single edit over every word on {a, b} of length n: per scan of
# _BINARY_EDITS, the largest max_ratio and every word that reaches it, in
# enumeration order.
_BINARY_WORST = {
    2: (("1", ("aa", "ab", "ba", "bb")), ("1/2", ("aa", "ab", "ba", "bb")),
        ("3/2", ("aa", "ab", "ba", "bb"))),
    3: (("3/2", _unary(3)), ("1", _unary(3)), ("2", _unary(3))),
    4: (("2", _unary(4)),
        ("1", ("aaaa", "aaab", "abab", "abbb", "baaa", "baba", "bbba", "bbbb")),
        ("2", _unary(4))),
    5: (("2", _unary(5)), ("4/3", _alternating(5)), ("5/2", _unary(5))),
    6: (("5/2", _unary(6)), ("4/3", _alternating(6)), ("5/2", _unary(6))),
    **{n: (("5/2", _unary(n)), ("5/3", _alternating(n)), ("5/2", _unary(n))) for n in range(7, 11)},
    11: (("5/2", _unary(11)),
         ("7/4", ("ababbababab", "bbababababb", "bbababbabab", "bbabbababab")),
         ("5/2", _unary(11))),
    12: (("5/2", _unary(12)),
         ("7/4", ("abababbababb", "ababbabababa", "ababbabababb", "abbababababb", "abbabbababab",
                  "bababbababab")),
         ("5/2", _unary(12))),
}

# The worst ratio of the most to the fewest phrases over the orderings of
# {a, b, c}, over every word on those symbols of length n, and the words that
# reach it up to a renaming of their symbols: each stands for its six
# renamings.  Up to n = 5 every word has ratio 1.
_TERNARY_WORST = {
    6: ("5/4", ("aaabab", "ababbb", "abbaba", "abbbab")),
    7: ("5/4", ("aaaabab", "aaabaab", "aaababa", "aababaa", "abaaaba", "ababaaa", "ababaab",
                "ababbbb", "abbbbab")),
    8: ("5/4", ("aaaaabab", "aaaababa", "aaababab", "aabaaaba", "aababaab", "abaaaaba",
                "abaabaaa", "ababaaaa", "abababbb", "ababbaba", "ababbabb", "ababbbbb",
                "abbababa", "abbababb", "abbabbbb", "abbbbbab")),
    9: ("3/2", ("abaabaaaa",)),
}


def _worst(words, ratio):
    """The largest ``ratio(w)`` over ``words`` and every word that reaches it, in order."""
    ratios = {w: ratio(w) for w in words}
    top = max(ratios.values())
    return top, tuple(w for w, r in ratios.items() if r == top)


def _words(symbols, n):
    return ["".join(w) for w in itertools.product(symbols, repeat=n)]


def _assert_binary_worst(n):
    words = _words("ab", n)
    for (kind, spec), (ratio, worst) in zip(_BINARY_EDITS, _BINARY_WORST[n]):
        ordering = AlphabetOrdering.from_string(spec)
        got = _worst(words, lambda w: edit_sensitivity_scan(w, kind, ordering).max_ratio)
        assert got == (Fraction(ratio), worst), (n, kind)


def _assert_ternary_worst(n):
    ratio, worst = _TERNARY_WORST.get(n, ("1", None))
    renamings = [str.maketrans("abc", "".join(p)) for p in itertools.permutations("abc")]
    got_ratio, got = _worst(_words("abc", n), lambda w: ao_sensitivity_scan(w).ratio)
    assert got_ratio == Fraction(ratio), n
    if worst is None:
        assert len(got) == 3**n
    else:
        assert len(got) == 6 * len(worst), n
        assert set(got) == {w.translate(table) for w in worst for table in renamings}, n


def test_worst_single_edit_over_every_short_binary_word():
    for n in range(2, 11):
        _assert_binary_worst(n)


def test_worst_ordering_over_every_short_ternary_word():
    for n in range(1, 8):
        _assert_ternary_worst(n)
    for n in range(1, 7):
        for text in _words("abc", n):
            assert ao_sensitivity_scan(text) == ao_scan_oracle(text), text


@pytest.mark.slow
def test_worst_cases_over_longer_short_words():
    for n in (11, 12):
        _assert_binary_worst(n)
    for n in (8, 9):
        _assert_ternary_worst(n)
