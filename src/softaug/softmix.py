"""Embedding mixtures and a hand-differentiated downstream consumer.

A hard id j stands for embedding row E_j and a soft position for
sum_j p_j * E_j over its distribution's support.  Mean pooling is linear,
so ``pack`` reduces a whole sentence, once, to a sparse bag over the
vocabulary: its unique row ids (ascending) and the summed weight of each
row, where a hard occurrence counts 1 and a soft support entry counts
p_j.  Row ids are range-checked there and nowhere else.  Every consumer
then runs the same array expressions:

    pooled = weights @ E[ids] / len(sentence)
    E[ids] -= lr * (weights[:, None] * dpooled)

with ``dpooled`` the loss gradient w.r.t. the pooled vector divided by the
sentence length; the ids are unique, so the update needs no scatter-add.
A minimal linear classifier (softmax cross-entropy) sits on the pooled
vector.  ``_loss_grads`` is the one forward-backward routine: ``loss``,
``backward``, ``grad_check`` and ``train_toy`` call it, while
``mix_embedding``, ``forward`` and ``evaluate`` run the same pooling and
``_softmax``.  ``train_packed`` and ``evaluate_packed`` take a corpus
that ``pack_corpus`` already packed, so one packing can serve several
models.

All arithmetic is float64.  A hard token and a point-mass soft word pack
to the same bag, so their forward values, gradients and training runs
agree bitwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .augment import SoftSentence, SoftWord
from .corpus import read_text, split_lines
from .rng import SplitMix64, random_block

GRAD_TOLERANCE = 1e-4
GRAD_STEP = 1e-5


@dataclass
class ToyModel:
    """Embedding matrix plus a linear classifier over mean-pooled inputs."""

    emb: np.ndarray  # |V| x d
    w: np.ndarray    # c x d
    b: np.ndarray    # c

    def copy(self) -> "ToyModel":
        return ToyModel(self.emb.copy(), self.w.copy(), self.b.copy())

    @property
    def num_classes(self) -> int:
        return len(self.b)


def check_model_dims(vocab_size: int, dim: int, classes: int) -> None:
    """The range check for model dimensions, wherever they come from."""
    if min(vocab_size, dim, classes) < 1:
        raise ValueError(f"vocab_size, dim and classes must be >= 1, not {vocab_size}, {dim}, {classes}")


def init_model(vocab_size: int, dim: int, classes: int, seed: int) -> ToyModel:
    """Embedding uniform in [-0.1, 0.1); classifier zero-initialized."""
    check_model_dims(vocab_size, dim, classes)
    emb = random_block(seed, vocab_size * dim).reshape(vocab_size, dim) * 0.2 - 0.1
    return ToyModel(emb, np.zeros((classes, dim)), np.zeros(classes))


@dataclass(frozen=True)
class Bag:
    """A sentence packed for the mixture: one entry per distinct row."""

    ids: np.ndarray      # unique row ids, ascending
    weights: np.ndarray  # total mixture weight of each row
    length: int          # positions in the sentence, the mean-pool divisor


def pack(sentence: SoftSentence, vocab_size: int) -> Bag:
    """Sum the sentence's mixture weights per embedding row.

    Weights accumulate in position order, so equal sentences written as
    hard ids or point masses, or with one support in any entry order,
    give identical bags.
    """
    if not sentence:
        raise ValueError("empty sentence")
    acc: dict[int, float] = {}
    for item in sentence:
        if isinstance(item, SoftWord):
            for i, p in zip(item.dist.ids.tolist(), item.dist.probs.tolist()):
                acc[i] = acc.get(i, 0.0) + p
        else:
            i = operator.index(item)
            acc[i] = acc.get(i, 0.0) + 1.0
    ids = sorted(acc)
    if ids and (ids[0] < 0 or ids[-1] >= vocab_size):
        bad = ids[0] if ids[0] < 0 else ids[-1]
        raise ValueError(f"id out of range: {bad}")
    return Bag(np.array(ids, dtype=np.int64), np.array([acc[i] for i in ids]), len(sentence))


def _pool(emb: np.ndarray, bag: Bag) -> np.ndarray:
    return bag.weights @ emb[bag.ids] / bag.length


def mix_embedding(word: int | SoftWord, emb: np.ndarray) -> np.ndarray:
    """Embedding of a hard or soft position.

    Hard ids return the embedding row itself; soft words return the
    probability-weighted sum of rows over the distribution's support.
    """
    return _pool(emb, pack([word], len(emb)))


def _check_label(model: ToyModel, label: int) -> int:
    if not 0 <= label < model.num_classes:
        raise ValueError(f"label out of range: {label}")
    return label


def _softmax(logits: np.ndarray) -> np.ndarray:
    """``z / z.sum()`` with ``z = np.exp(logits - logits.max())``, bit for bit.

    Below 8 classes numpy takes the max and the sum in sequence, so they
    run here on Python floats; from 8 on ``ndarray.sum`` is pairwise and
    numpy does both, as it does for NaN logits, whose max numpy propagates.
    """
    if len(logits) < 8:
        z = logits - max(logits.tolist())
        np.exp(z, out=z)
        total = 0.0
        for value in z.tolist():
            total += value
        if total == total:
            z /= total
            return z
    z = np.exp(logits - logits.max())
    return z / z.sum()


def _forward(model: ToyModel, bag: Bag) -> tuple[np.ndarray, np.ndarray]:
    pooled = _pool(model.emb, bag)
    return pooled, _softmax(model.w @ pooled + model.b)


def _loss_grads(
    w: np.ndarray, b: np.ndarray, rows: np.ndarray, weights: np.ndarray, length: float, label: int
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward on one bag whose embedding rows are *rows*.

    Returns the label's probability (the loss is its negative log), the
    gradients of *rows*, dW and db, each a fresh array.
    """
    pooled = weights @ rows
    pooled /= length
    logits = w @ pooled
    logits += b
    dlogits = _softmax(logits)
    picked = dlogits.item(label)
    dlogits[label] = picked - 1.0
    dpos = w.T @ dlogits
    dpos /= length
    return picked, weights[:, None] * dpos, dlogits[:, None] * pooled, dlogits


def _bag_loss_grads(model: ToyModel, bag: Bag, label: int):
    rows = model.emb.take(bag.ids, axis=0)
    return _loss_grads(model.w, model.b, rows, bag.weights, float(bag.length), label)


def forward(model: ToyModel, sentence: SoftSentence) -> np.ndarray:
    """Class probabilities softmax(W @ meanpool(mixed) + b)."""
    return _forward(model, pack(sentence, len(model.emb)))[1]


def loss(model: ToyModel, sentence: SoftSentence, label: int) -> float:
    _check_label(model, label)
    return -float(np.log(_bag_loss_grads(model, pack(sentence, len(model.emb)), label)[0]))


def backward(
    model: ToyModel, sentence: SoftSentence, label: int
) -> tuple[dict[int, np.ndarray], np.ndarray, np.ndarray]:
    """Analytic gradients of the cross-entropy loss.

    Returns (embedding-row gradients keyed by id, dW, db).  A soft
    position spreads its pooled gradient over every row in its support,
    scaled by that row's probability.
    """
    _check_label(model, label)
    bag = pack(sentence, len(model.emb))
    _, rows, dw, db = _bag_loss_grads(model, bag, label)
    return dict(zip(bag.ids.tolist(), rows)), dw, db


@dataclass
class GradCheckReport:
    """Worst relative error per parameter block, analytic vs numeric."""

    errors: dict[str, float]
    step: float
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.errors.values())

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def grad_check(
    model: ToyModel,
    batch: list[tuple[SoftSentence, int]],
    step: float = GRAD_STEP,
    tolerance: float = GRAD_TOLERANCE,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences."""
    if not batch:
        raise ValueError("empty batch")
    bags = [(pack(s, len(model.emb)), _check_label(model, y)) for s, y in batch]
    demb = np.zeros_like(model.emb)
    dw = np.zeros_like(model.w)
    db = np.zeros_like(model.b)
    for bag, label in bags:
        _, rows, gw, gb = _bag_loss_grads(model, bag, label)
        demb[bag.ids] += rows
        dw += gw
        db += gb
    demb /= len(bags)
    dw /= len(bags)
    db /= len(bags)

    def batch_loss() -> float:
        return sum(
            -float(np.log(_bag_loss_grads(model, bag, label)[0])) for bag, label in bags
        ) / len(bags)

    def numeric(param: np.ndarray) -> np.ndarray:
        out = np.zeros_like(param)
        flat = param.ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + step
            up = batch_loss()
            flat[idx] = keep - step
            down = batch_loss()
            flat[idx] = keep
            out.ravel()[idx] = (up - down) / (2.0 * step)
        return out

    errors = {}
    for name, analytic, param in (
        ("embedding", demb, model.emb),
        ("classifier_w", dw, model.w),
        ("classifier_b", db, model.b),
    ):
        num = numeric(param)
        denom = np.maximum(np.abs(analytic) + np.abs(num), 1e-6)
        errors[name] = float(np.max(np.abs(analytic - num) / denom)) if param.size else 0.0
    return GradCheckReport(errors, step, tolerance)


def pack_corpus(corpus: list[SoftSentence], vocab_size: int) -> list[Bag]:
    """``pack`` every sentence, in order."""
    return [pack(sentence, vocab_size) for sentence in corpus]


def _check_labels(model: ToyModel, bags: list[Bag], labels: list[int]) -> None:
    if len(bags) != len(labels):
        raise ValueError("corpus and labels length mismatch")
    for label in labels:
        _check_label(model, label)


def train_packed(
    model: ToyModel, bags: list[Bag], labels: list[int], lr: float, steps: int, rng: SplitMix64
) -> list[float]:
    """``train_toy`` on a corpus packed for *model*; returns the loss trace.

    All sample indexes come from one block draw.  Each step gathers the
    sample's embedding rows once, updates them and every classifier
    parameter in place and writes the rows back; the losses are taken
    from the picked probabilities in one pass at the end.
    """
    _check_labels(model, bags, labels)
    emb, w, b = model.emb, model.w, model.b
    samples = [
        (bag.ids, bag.weights, float(bag.length), label) for bag, label in zip(bags, labels)
    ]
    picked = []
    for i in rng.randint_block(len(samples), steps).tolist():
        ids, weights, length, label = samples[i]
        rows = emb.take(ids, axis=0)
        p, grows, dw, db = _loss_grads(w, b, rows, weights, length, label)
        picked.append(p)
        grows *= lr
        rows -= grows
        emb[ids] = rows
        dw *= lr
        w -= dw
        db *= lr
        b -= db
    return (-np.log(np.array(picked, dtype=np.float64))).tolist()


def train_toy(
    model: ToyModel,
    corpus: list[SoftSentence],
    labels: list[int],
    lr: float,
    steps: int,
    rng: SplitMix64,
) -> tuple[ToyModel, list[float]]:
    """Plain SGD, one uniformly drawn sample per step.

    Updates the model in place and records the pre-update loss of each
    visited sample.  Every sentence and label is checked before the
    first step.
    """
    return model, train_packed(model, pack_corpus(corpus, len(model.emb)), labels, lr, steps, rng)


def evaluate_packed(model: ToyModel, bags: list[Bag], labels: list[int]) -> float:
    """``evaluate`` on a corpus packed for *model*."""
    _check_labels(model, bags, labels)
    if not bags:
        raise ValueError("empty corpus")
    hits = sum(
        int(np.argmax(_forward(model, bag)[1])) == label for bag, label in zip(bags, labels)
    )
    return hits / len(bags)


def evaluate(model: ToyModel, corpus: list[SoftSentence], labels: list[int]) -> float:
    """Fraction of sentences whose argmax class matches the label."""
    return evaluate_packed(model, pack_corpus(corpus, len(model.emb)), labels)


def save_loss_trace(path: str, trace: list[float]) -> None:
    """CSV of the per-step training loss: "step,loss"."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,loss\n")
        for step, value in enumerate(trace):
            fh.write(f"{step},{value:.12g}\n")


def save_embedding(path: str, emb: np.ndarray) -> None:
    """Text format: "|V| d" header, one row per line, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{emb.shape[0]} {emb.shape[1]}\n")
        for row in emb:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def load_embedding(path: str) -> np.ndarray:
    """Read a ``save_embedding`` file; one cut short anywhere is refused."""
    text = read_text(path)
    lines = split_lines(text)
    if not lines:
        raise ValueError(f"empty embedding file: {path}")
    if not text.endswith(("\n", "\r")):
        raise ValueError(f"{path} is cut short: its last line has no line break")
    header = lines[0].split()
    if len(header) != 2 or not all(x.isdigit() for x in header):
        raise ValueError(f"bad embedding header in {path}: {lines[0]!r}")
    rows, dim = int(header[0]), int(header[1])
    if len(lines) - 1 != rows:
        raise ValueError(f"embedding file {path} has {len(lines) - 1} rows, header says {rows}")
    emb = np.empty((rows, dim), dtype=np.float64)
    for i in range(rows):
        values = lines[1 + i].split()
        if len(values) != dim:
            raise ValueError(f"bad embedding row {i} in {path}")
        emb[i] = [float(v) for v in values]
    return emb
