"""Caption normalization and dictionary construction.

Captions go through a destructive normalization (lowercase, accent folding,
punctuation removal) so that the label space is a closed set of plain ASCII
words. The dictionary keeps the K most frequent words after dropping the
stop_count most frequent ones.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

# Characters that split words before the deletion rule runs.
_SPLITTERS = re.compile(r"[-/_]")
# Anything that is not a lowercase ASCII letter or whitespace is deleted.
_DROPPED = re.compile(r"[^a-z\s]")

DICT_FORMAT = "weaklearn-dict v1"
_DICT_HEADER = re.compile(rf"^#{re.escape(DICT_FORMAT)} K=(\d+) stop=(\d+)$")


def normalize_text(text: str) -> list[str]:
    """Normalize a raw caption into a list of plain-ASCII word tokens.

    Lowercases, folds accents by canonical decomposition and dropping
    combining marks, turns hyphen/slash/underscore into spaces, deletes
    every remaining character that is not a basic Latin letter or
    whitespace, then splits on whitespace.
    """
    text = text.lower()
    if not text.isascii():  # ASCII text is its own NFD form and has no combining marks
        text = unicodedata.normalize("NFD", text)
        text = "".join(c for c in text if not unicodedata.combining(c))
    text = _SPLITTERS.sub(" ", text)
    text = _DROPPED.sub("", text)
    return text.split()


class DictionaryEntryError(ValueError):
    """Entry `entry` of a dictionary breaks its count, order or uniqueness rule."""

    def __init__(self, entry: int, reason: str):
        super().__init__(f"entry {entry}: {reason}")
        self.entry, self.reason = entry, reason


@dataclass
class Dictionary:
    """Closed label vocabulary: word i is class index i.

    Words are ordered by descending corpus count with ties broken by
    ascending lexicographic byte order. counts[i] is the corpus count of
    words[i]; stop_count records how many top words were removed before
    the cut.
    """

    words: list[str]
    counts: np.ndarray
    stop_count: int
    word_to_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.words) != len(self.counts):
            raise ValueError("words and counts length mismatch")
        if len(self.words) == 0:
            raise ValueError("empty vocabulary")
        counts = self.counts.tolist()
        self.word_to_index = {}
        for i, (word, count) in enumerate(zip(self.words, counts)):
            if count < 1:
                raise DictionaryEntryError(i, "nonpositive count")
            if i and count > counts[i - 1]:
                raise DictionaryEntryError(i, "counts not non-increasing")
            if i and count == counts[i - 1] and not self.words[i - 1] < word:
                raise DictionaryEntryError(i, "tied counts not in ascending word order")
            if word in self.word_to_index:
                raise DictionaryEntryError(i, "duplicate word")
            self.word_to_index[word] = i

    @property
    def k(self) -> int:
        return len(self.words)


def count_tokens(docs: Iterable[list[str]]) -> Counter:
    """Count tokens over tokenized docs. Shards merge with `+`."""
    counts = Counter()
    for doc in docs:
        counts.update(doc)
    return counts


def dictionary_from_counts(counts: Counter, k: int, stop_count: int) -> Dictionary:
    """Build a Dictionary from merged token counts.

    The stop_count most frequent words are removed first (ties at the
    boundary: lexicographically smallest removed first), then the k most
    frequent remaining words are kept, same tie rule.
    """
    if k < 1:
        raise ValueError("invalid K")
    if stop_count < 0:
        raise ValueError("invalid stop_count")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    eligible = ranked[stop_count:]
    if not eligible:
        raise ValueError("empty vocabulary")
    kept = eligible[:k]
    return Dictionary(
        words=[w for w, _ in kept],
        counts=np.array([c for _, c in kept], dtype=np.int64),
        stop_count=stop_count,
    )


def build_dictionary(docs: Iterable[list[str]], k: int, stop_count: int) -> Dictionary:
    """Count tokens over docs and build the dictionary in one pass."""
    return dictionary_from_counts(count_tokens(docs), k, stop_count)


def encode_targets(tokens: list[str], dictionary: Dictionary) -> list[int]:
    """Map a tokenized doc to sorted unique class indices; unknown words are skipped."""
    w2i = dictionary.word_to_index
    return sorted({w2i[t] for t in tokens if t in w2i})


def save_dictionary(dictionary: Dictionary, path: str) -> None:
    """Write the versioned tab-separated dictionary file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#{DICT_FORMAT} K={dictionary.k} stop={dictionary.stop_count}\n")
        for word, count in zip(dictionary.words, dictionary.counts):
            fh.write(f"{word}\t{int(count)}\n")


def load_dictionary(path: str) -> Dictionary:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _DICT_HEADER.match(header)
        if m is None:
            raise ValueError(f"{path}: line 1: malformed dictionary header")
        declared_k, stop_count = int(m.group(1)), int(m.group(2))
        words, counts, linenos = [], [], []
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                word, count = line.split("\t")
                counts.append(int(count))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed dictionary line: {line!r}") from None
            words.append(word)
            linenos.append(lineno)
    if len(words) != declared_k:
        raise ValueError(f"{path}: dictionary K mismatch: header says {declared_k}, found {len(words)}")
    try:
        return Dictionary(words=words, counts=np.array(counts, dtype=np.int64), stop_count=stop_count)
    except DictionaryEntryError as exc:
        raise ValueError(f"{path}: line {linenos[exc.entry]}: {exc.reason}: {words[exc.entry]!r}") from None
