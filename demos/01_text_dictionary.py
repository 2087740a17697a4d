"""From raw captions to a closed prediction vocabulary.

Normalizes a handful of noisy captions, counts words, and builds the
frequency-ranked dictionary that defines the class space, with the most
common words dropped as stopwords.
"""

from weaklearn.textpipe import count_tokens, dictionary_from_counts, encode_targets, normalize_text

captions = [
    "A small dog runs; the dog is FAST!",
    "The cat naps -- the dog watches the cat.",
    "Dog, cat & bird: the usual crowd.",
    "the the the",
    "A bird sings. A dog barks. A cat stares.",
]

print("normalized captions")
tokenized = []
for raw in captions:
    tokens = normalize_text(raw)
    tokenized.append(tokens)
    print(f"  {raw!r:48} -> {tokens}")

counts = count_tokens(tokenized)
print("\nword counts, descending")
for word, count in counts.most_common():
    print(f"  {word:8} {count}")

# drop the two most frequent words ("the", "dog"), keep the next 4;
# ties in count resolve alphabetically, which is why "barks" makes the cut
dictionary = dictionary_from_counts(counts, k=4, stop_count=2)
print(f"\ndictionary of K={dictionary.k} after removing {dictionary.stop_count} stopwords")
for i, (word, count) in enumerate(zip(dictionary.words, dictionary.counts)):
    print(f"  class {i}: {word} (count {count})")

print("\nper-caption class targets (dictionary indices of present words)")
for tokens in tokenized:
    labels = encode_targets(tokens, dictionary)
    print(f"  {str(labels):14} {tokens}")
print("\ncaptions whose words all fell outside the dictionary come out empty")
print("and are dropped before training.")
