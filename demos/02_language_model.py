"""Next-token model walkthrough: training, queries, perplexity, files.

The model interpolates absolutely discounted counts with lower orders,
so every history yields a proper distribution over the full vocabulary.
"""

import os
import tempfile

import numpy as np

import softaug as sa
from softaug import lm as lmm
from softaug.rng import SplitMix64

lines = [
    "the cat sat on the mat",
    "the cat ate the fish",
    "a dog sat on the rug",
    "the dog ate a bone",
    "a cat and a dog sat",
] * 4

vocab = sa.build_vocab("\n".join(lines))
sentences = [vocab.encode_tokens(line.split()) for line in lines]
model = sa.train_lm(sentences, vocab, order=3, discount=0.75, alpha=0.1)
print(f"trained order-3 model over |V|={len(vocab)}, events={model.total_events}")

print("\n== what follows 'the cat'? ==")
prefix = vocab.encode_tokens(["the", "cat"])
dist = model.next_dist(prefix)
for i in dist.argsort()[::-1][:5]:
    print(f"  P({vocab.surface(int(i)):<6}| the cat) = {dist[i]:.4f}")
print(f"  total mass = {dist.sum():.12f}")

print("\n== sampling continuations ==")
rng = SplitMix64(7)
for _ in range(3):
    toks = vocab.encode_tokens(["the"])
    for _ in range(5):
        toks.append(model.sample(toks, rng.random()))
        if toks[-1] == sa.EOS:
            break
    print(" ", " ".join(vocab.surface(t) for t in toks if t != sa.EOS))

ppl = lmm.perplexity(model, sentences)
print(f"\ntraining perplexity {ppl:.4f} (uniform baseline would be {len(vocab)})")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "model.arpa")
    lmm.save_lm(model, path)
    size = os.path.getsize(path)
    again = lmm.load_lm(path)
    print(f"saved {size} bytes; reloaded perplexity {lmm.perplexity(again, sentences):.10f}")
    # Each history length is one level of flat arrays: its histories in
    # ascending order with their integer keys, their next ids, counts,
    # discounted mass and lam.
    same = all(
        np.array_equal(getattr(level, name), getattr(ref, name))
        for level, ref in zip(again.counts, model.counts)
        for name in ("keys", "hists", "starts", "ids", "counts", "add", "lam")
    )
    print("history levels:", ", ".join(f"k={k}: {len(level)}" for k, level in enumerate(model.counts)))
    print("level arrays identical after reload:", same)
    assert same, "the reloaded model differs from the saved one"
