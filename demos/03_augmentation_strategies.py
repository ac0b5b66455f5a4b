"""One sentence through all seven augmentation strategies.

Each strategy replaces (or drops, or permutes) tokens selected by an
independent Bernoulli(gamma) draw per position; `soft` keeps the full
next-token distribution instead of committing to a single replacement.
"""

import softaug as sa

lines = [
    "the cat sat on the mat",
    "the cat ate the fish",
    "a dog sat on the rug",
    "the dog ate a bone",
    "a cat and a dog sat on the mat",
] * 40

vocab = sa.build_vocab("\n".join(lines))
sentences = [vocab.encode_tokens(line.split()) for line in lines]
model = sa.train_lm(sentences, vocab, order=2)

target = sentences[0]
print("original :", " ".join(vocab.surface(t) for t in target))

gamma = 0.3
for strategy in sa.STRATEGIES:
    config = sa.AugmentConfig(strategy=strategy, gamma=gamma, window_k=3, topk=4, seed=11)
    out = sa.augment_corpus([target], config, lm=model)[0]
    rendered = []
    for item in out:
        if isinstance(item, sa.SoftWord):
            inside = "|".join(
                f"{vocab.surface(i)}:{p:.2f}" for i, p in item.dist.entries()[:3]
            )
            rendered.append(f"{{{inside}}}")
        else:
            rendered.append(vocab.surface(item))
    print(f"{strategy:<9}:", " ".join(rendered))

print("\n== realized replacement rate over the whole corpus ==")
for strategy in ("blank", "smooth", "lm_sample", "soft"):
    config = sa.AugmentConfig(strategy=strategy, gamma=gamma, topk=4, seed=11)
    _, (replaced, eligible) = sa.augment_corpus(
        sentences, config, lm=model, return_stats=True
    )
    print(f"  {strategy:<9} gamma={gamma}: {replaced / eligible:.4f} ({replaced}/{eligible})")

same = sa.augment_corpus(sentences, config, lm=model) == sa.augment_corpus(
    sentences, config, lm=model, threads=8)
print("\nsame seed, eight workers, byte-identical output:", same)
assert same, "the output depends on the number of workers"
