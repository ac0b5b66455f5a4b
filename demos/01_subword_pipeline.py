"""Subword preprocessing walkthrough: merges, segmentation, vocabulary.

Learns byte-pair merges on a tiny corpus, segments it, builds the
vocabulary and shows that decoding inverts encoding exactly.
"""

import softaug as sa

corpus = [
    "the lowest lowland",
    "the slower slowest",
    "new newer newest",
    "low lower lowland",
]

print("== corpus ==")
for line in corpus:
    print(" ", line)

# Merge learning works on word counts; each word is end-marked internally
# so 'low' the word and 'low' the prefix of 'lowest' stay distinguishable.
counts = sa.count_words(corpus)
table = sa.learn_bpe(counts, num_merges=12)
print("\n== learned merges (in application order) ==")
for left, right in table.merges:
    print(f"  {left!r} + {right!r}")

print("\n== segmentation ==")
segmented = []
for line in corpus:
    subwords = sa.apply_bpe(line, table)
    segmented.append(" ".join(subwords))
    print(f"  {line!r} -> {subwords}")

# The vocabulary is built over segmented text: specials first, then
# subwords by frequency.
vocab = sa.build_vocab("\n".join(segmented))
print(f"\n== vocabulary ({len(vocab)} entries) ==")
for i in range(min(12, len(vocab))):
    print(f"  {i:3d} {vocab.surface(i):<10} count={vocab.counts[i]}")

print("\n== round trip ==")
for line in corpus:
    ids = sa.encode(line, table, vocab)
    back = sa.decode(ids, vocab)
    status = "ok" if back == line else "MISMATCH"
    print(f"  {status}: {line!r} -> {ids} -> {back!r}")
    assert back == line, "decoding does not invert encoding"
