"""Caption normalization and dictionary construction."""

import re
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaklearn.textpipe import (
    Dictionary,
    build_dictionary,
    count_tokens,
    dictionary_from_counts,
    encode_targets,
    load_dictionary,
    normalize_text,
    save_dictionary,
)


def reference_normalize(text: str) -> list[str]:
    """Character-at-a-time restatement of the normalization contract."""
    kept = []
    for ch in unicodedata.normalize("NFD", text.lower()):
        if unicodedata.combining(ch):
            continue
        if ch in "-/_":
            kept.append(" ")
        elif "a" <= ch <= "z" or ch.isspace():
            kept.append(ch)
    return "".join(kept).split()


# pool of fragments covering accents, digits, punctuation, wide chars, emoji
_FRAGMENTS = [
    "Hello, World!",
    "#café",
    "naïve résumé",
    "A1B2C3",
    "foo-bar_baz/qux",
    "ÀÉÎÕÜ àéîõü",
    "tab\tand\nnewline",
    "象形文字",
    "smiley 😀 face",
    "O'Neill's",
    "co-operate",
    "x" * 30,
    "  spaced   out  ",
    "MiXeD CaSe",
    "100% (sure)",
    "über-cool",
    "left—dash",
    "«quoted»",
    "ß sharp",
    "İstanbul",
]


def build_corpus(n: int) -> list[str]:
    rng = np.random.default_rng(2024)
    corpus = []
    for _ in range(n):
        parts = rng.choice(len(_FRAGMENTS), size=rng.integers(1, 5))
        corpus.append(" ".join(_FRAGMENTS[p] for p in parts))
    return corpus


def test_normalize_known_captions():
    assert normalize_text("Hello, World! 2014 #café") == ["hello", "world", "cafe"]
    assert normalize_text("") == []
    assert normalize_text("Ümlaut-test... A1B2") == ["umlaut", "test", "ab"]


def test_normalize_folds_non_ascii_beside_ascii():
    cases = {
        "İstanbul café": ["istanbul", "cafe"],  # dotted capital I lowers to i + combining dot
        "ﬁsh and chips": ["sh", "and", "chips"],  # the fi ligature has no canonical decomposition
        "Å ring": ["a", "ring"],
        "\u212bngstrom \u212aelvin": ["angstrom", "kelvin"],  # the Angstrom and Kelvin signs
    }
    for text, tokens in cases.items():
        assert normalize_text(text) == tokens == reference_normalize(text), repr(text)


def test_normalize_splits_on_hyphen_slash_underscore():
    assert normalize_text("foo-bar") == ["foo", "bar"]
    assert normalize_text("foo/bar_baz") == ["foo", "bar", "baz"]
    # other punctuation is deleted without splitting
    assert normalize_text("don't") == ["dont"]


def test_normalize_matches_reference_on_corpus():
    for text in build_corpus(100):
        assert normalize_text(text) == reference_normalize(text), repr(text)


def test_normalize_output_is_plain_lowercase_ascii():
    for text in build_corpus(100):
        for tok in normalize_text(text):
            assert tok
            assert all("a" <= c <= "z" for c in tok), repr((text, tok))


@given(st.text(max_size=80))
def test_normalize_idempotent(text):
    tokens = normalize_text(text)
    assert normalize_text(" ".join(tokens)) == tokens


def test_build_dictionary_orders_by_count_then_drops_stop_words():
    docs = [["a", "a", "a", "b", "b", "c"]]
    d = build_dictionary(docs, k=2, stop_count=1)
    assert d.words == ["b", "c"]
    assert d.counts.tolist() == [2, 1]
    assert d.stop_count == 1


def test_build_dictionary_breaks_ties_lexicographically():
    d = build_dictionary([["x", "y"], ["y", "x"]], k=2, stop_count=0)
    assert d.words == ["x", "y"]
    assert d.counts.tolist() == [2, 2]


def test_stop_boundary_tie_removes_smallest_words_first():
    # p, q, r all tie at the top; stop_count=2 must remove p and q
    docs = [["p", "q", "r"] * 4 + ["s"]]
    d = build_dictionary(docs, k=10, stop_count=2)
    assert d.words == ["r", "s"]


def test_build_dictionary_matches_planned_counts():
    # Construct a corpus with counts known by design, then check the
    # selection against a sort of the plan itself.
    rng = np.random.default_rng(11)
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = sorted({"".join(rng.choice(list(letters), size=5)) for _ in range(80)})
    planned = {w: int(rng.integers(1, 40)) for w in vocab}
    planned[vocab[3]] = planned[vocab[7]] = 39  # force a tie near the top
    stream = [w for w, c in planned.items() for _ in range(c)]
    rng.shuffle(stream)
    docs = [stream[i : i + 7] for i in range(0, len(stream), 7)]

    k, stop = 25, 10
    d = build_dictionary(docs, k=k, stop_count=stop)

    expected = sorted(planned.items(), key=lambda kv: (-kv[1], kv[0]))[stop : stop + k]
    assert d.words == [w for w, _ in expected]
    assert d.counts.tolist() == [c for _, c in expected]


def test_build_dictionary_is_chunking_invariant():
    tokens = ["red", "green", "red", "blue", "red", "green"] * 9
    as_one = build_dictionary([tokens], k=3, stop_count=0)
    per_token = build_dictionary([[t] for t in tokens], k=3, stop_count=0)
    assert as_one.words == per_token.words
    assert np.array_equal(as_one.counts, per_token.counts)


def test_sharded_counts_merge_associatively():
    docs = [["a", "b"], ["b", "c"], ["c", "c"]]
    merged = count_tokens(docs[:1]) + count_tokens(docs[1:])
    assert merged == count_tokens(docs)


def test_dictionary_errors():
    with pytest.raises(ValueError, match="empty vocabulary"):
        build_dictionary([], k=2, stop_count=0)
    with pytest.raises(ValueError, match="empty vocabulary"):
        build_dictionary([["a", "b"]], k=1, stop_count=2)
    with pytest.raises(ValueError, match="invalid K"):
        dictionary_from_counts(Counter({"a": 1}), k=0, stop_count=0)
    with pytest.raises(ValueError, match="invalid stop_count"):
        dictionary_from_counts(Counter({"a": 1}), k=1, stop_count=-1)


def test_dictionary_validates_order():
    with pytest.raises(ValueError, match="non-increasing"):
        Dictionary(words=["a", "b"], counts=np.array([1, 2]), stop_count=0)
    with pytest.raises(ValueError, match="ascending word order"):
        Dictionary(words=["b", "a"], counts=np.array([2, 2]), stop_count=0)
    with pytest.raises(ValueError, match="duplicate"):
        Dictionary(words=["a", "a"], counts=np.array([3, 2]), stop_count=0)


def test_encode_targets_known_cases():
    d = Dictionary(words=["b", "c"], counts=np.array([3, 2]), stop_count=0)
    assert encode_targets(["b", "c", "z", "b"], d) == [0, 1]
    assert encode_targets(["z"], d) == []


def test_encode_targets_matches_membership_scan():
    rng = np.random.default_rng(5)
    pool = [f"w{c}" for c in "abcdefghij"]
    d = build_dictionary([pool[:6] * 2 + pool[:3]], k=6, stop_count=0)
    for _ in range(50):
        doc = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 8))]
        got = encode_targets(doc, d)
        expected = sorted({i for i, w in enumerate(d.words) if w in doc})
        assert got == expected
        assert len(set(got)) == len(got)


def test_dictionary_file_round_trip(tmp_path):
    d = build_dictionary([["red", "green", "red", "blue"]], k=3, stop_count=0)
    path = tmp_path / "dict.tsv"
    save_dictionary(d, str(path))
    first_line = path.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "#weaklearn-dict v1 K=3 stop=0"
    loaded = load_dictionary(str(path))
    assert loaded.words == d.words
    assert np.array_equal(loaded.counts, d.counts)
    assert loaded.stop_count == d.stop_count


def test_load_dictionary_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "bad.tsv"
    bad_header.write_text("#something-else v9\nred\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad_header))}: line 1: malformed dictionary header"):
        load_dictionary(str(bad_header))

    bad_entry = tmp_path / "spaces.tsv"
    bad_entry.write_text("#weaklearn-dict v1 K=2 stop=0\nred\t3\n\nblue 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad_entry))}: line 4: malformed dictionary line"):
        load_dictionary(str(bad_entry))

    wrong_k = tmp_path / "short.tsv"
    wrong_k.write_text("#weaklearn-dict v1 K=3 stop=0\nred\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(wrong_k))}: dictionary K mismatch"):
        load_dictionary(str(wrong_k))
