"""Training through soft words: mixtures, gradients, a learning curve.

A soft position feeds the expected embedding (the probability-weighted
sum of rows) into the model, and its gradient fans back out over every
row in the support, scaled by that row's probability.  Central finite
differences confirm the analytic gradients before training runs.
"""

import os
import tempfile

import numpy as np

import softaug as sa
from softaug.augment import Dist, SoftWord
from softaug.rng import SplitMix64, derive

model = sa.init_model(vocab_size=20, dim=8, classes=2, seed=1)

print("== the mixture is the expectation of embedding rows ==")
word = SoftWord(Dist(np.array([0.6, 0.3, 0.1]), np.array([5, 9, 12])), 5)
mixed = sa.mix_embedding(word, model.emb)
manual = 0.6 * model.emb[5] + 0.3 * model.emb[9] + 0.1 * model.emb[12]
print("  max |mix - manual| =", np.max(np.abs(mixed - manual)))

print("\n== gradients spread over the support ==")
model.w = np.ones((2, 8)) * 0.3
model.w[1] *= -1
rows, _, _ = sa.backward(model, [word, 3], 0)
print("  touched rows:", sorted(rows))
print("  |grad row 5| / |grad row 9| =",
      np.linalg.norm(rows[5]) / np.linalg.norm(rows[9]), "(expect 2.0 = 0.6/0.3)")

report = sa.grad_check(model, [([word, 3, 7], 1)])
print("\n== finite-difference check ==")
for block, err in sorted(report.errors.items()):
    print(f"  {block:<13} max rel err {err:.2e}")
print("  passed:", report.passed)
assert report.passed, "analytic and finite-difference gradients disagree"

print("\n== training on a marker-token task ==")
rng = SplitMix64(2)
corpus, labels = [], []
for _ in range(400):
    has_marker = rng.random() < 0.5
    sent = [4 + rng.randint(15) for _ in range(8)]
    sent = [t if t != 6 else 7 for t in sent]
    if has_marker:
        sent[rng.randint(8)] = 6
    corpus.append(sent)
    labels.append(int(has_marker))

model = sa.init_model(20, 16, 2, seed=3)
model, trace = sa.train_toy(model, corpus[:300], labels[:300], lr=0.5, steps=3000,
                            rng=SplitMix64(derive(3, 1)))
accuracy = sa.evaluate(model, corpus[300:], labels[300:])
print(f"  held-out accuracy after 3000 SGD steps: {accuracy:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    trace_path = os.path.join(tmp, "trace.csv")
    emb_path = os.path.join(tmp, "embedding.txt")
    sa.save_loss_trace(trace_path, trace)
    sa.save_embedding(emb_path, model.emb)
    head = open(trace_path).read().splitlines()[:3]
    print("  loss trace head:", head)
    exact = np.array_equal(sa.load_embedding(emb_path), model.emb)
    print("  embedding reload exact:", exact)
    assert exact, "the embedding file does not reload exactly"
