"""Embedding mixtures and a hand-differentiated downstream consumer.

A hard id j stands for embedding row E_j and a soft position for
sum_j p_j * E_j over its distribution's support.  Mean pooling is linear,
so each sentence reduces, once, to a sparse bag over the vocabulary: its
unique row ids (ascending) and the summed weight of each row, where a
hard occurrence counts 1 and a soft support entry counts p_j.
``pack_corpus`` does this for a whole ``SoftCorpus`` from its columns,
with one ``np.unique`` of sentence * |V| + id and one ``np.bincount`` of
the weights in position order.  Row ids are range-checked there and
nowhere else.  Every consumer then runs the same array expressions:

    pooled = weights @ E[ids] / len(sentence)
    E[ids] -= lr * (weights[:, None] * dpooled)

with ``dpooled`` the loss gradient w.r.t. the pooled vector divided by the
sentence length; the ids are unique, so the update needs no scatter-add.
A minimal linear classifier (softmax cross-entropy) sits on the pooled
vector.  ``pack_corpus`` stores the corpus's bags flat, as one
``PackedCorpus``.

``_Lockstep`` stacks K models of one shape once, then trains them, model
k on packed corpus k and on its own stream of sample indexes (several
models may share one stream), and scores them on one corpus, on that one
stack.  ``_Lockstep.schedule`` lays out a bounded chunk of steps at a
time, step t running sentence ``index[t, k]`` of corpus k through model
k (scoring: ``index[t, k] = t``), and a step runs each operation once
over all K models stacked, except the pooling product, which runs once
per model.  Every model's share of an operation computes what that
model's own call computes, so each model equals its run alone bit for
bit wherever that run's value is finite, and is NaN in exactly the same
places; which NaN bits a diverged value carries is not kept.
``_Lockstep.forward`` and ``_Lockstep.gradients`` are the one
forward-backward: a training step is ``gradients`` scaled by the
learning rate, and ``forward``, ``loss``, ``backward``, ``grad_check``,
``train_toy``, ``evaluate`` and a sweep cell are all its K = 1 case, so
the finite-difference check verifies the very step that training
applies.

All arithmetic is float64.  A hard token and a point-mass soft word pack
to the same bag, so their forward values, gradients and training runs
agree bitwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .augment import SoftCorpus, SoftSentence, SoftWord
from .corpus import read_text, split_lines
from .rng import SplitMix64, random_block

GRAD_TOLERANCE = 1e-4
GRAD_STEP = 1e-5

# Sentences that ``pack_corpus`` packs at a time: a pass holds about ten
# arrays the size of its entries, so its peak memory stays bounded.
_PACK_SENTENCES = 256
# Bag entries that one chunk of a lockstep schedule holds, on average:
# the schedule's arrays stay bounded at any corpus size and model count.
_SCHEDULE_ENTRIES = 1 << 14


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


def mix_embedding(word: int | SoftWord, emb: np.ndarray) -> np.ndarray:
    """Embedding of a hard or soft position.

    Hard ids return the embedding row itself; soft words return the
    probability-weighted sum of rows over the distribution's support.
    """
    bag = pack_corpus([[word]], len(emb))[0]
    return bag.weights @ emb[bag.ids]


class _RowSoftmax:
    """``softmax(raw + bias)`` of every row of (K, c) arrays, each row's
    finite values with the bits numpy gives on that row's own arrays, and
    NaN where those are NaN.

    Row r of ``probs`` becomes ``z / z.sum()`` with
    ``z = np.exp(l - l.max())`` and ``l = raw[r] + bias[r]``.  From 2 to
    7 classes numpy takes a row's max and sum in sequence, so they run
    here as operations on whole columns, one per class, over all K rows
    at once, which is faster than numpy's reductions by rows and gives
    equal bits; from 8 classes on numpy's own, pairwise, reductions run.
    """

    def __init__(self, rows: int, classes: int):
        self.raw = np.empty((rows, classes))
        self.logits = np.empty((rows, classes))
        self.probs = np.empty((rows, classes))
        self._top = np.empty(rows)
        self._total = np.empty(rows)
        self._top_col = self._top[:, None]
        self._total_col = self._total[:, None]
        self._columns = (list(self.logits.T), list(self.probs.T)) if 2 <= classes < 8 else None

    def __call__(self, bias: np.ndarray) -> None:
        """Fill ``probs`` from ``raw`` and *bias*."""
        np.add(self.raw, bias, out=self.logits)
        if self._columns is None:
            self._by_numpy()
        else:
            self._by_columns()
        self.probs /= self._total_col

    def _by_columns(self) -> None:
        (logit_columns, prob_columns), top, total = self._columns, self._top, self._total
        np.maximum(logit_columns[0], logit_columns[1], out=top)
        for column in logit_columns[2:]:
            np.maximum(top, column, out=top)
        np.subtract(self.logits, self._top_col, out=self.probs)
        np.exp(self.probs, out=self.probs)
        np.add(prob_columns[0], prob_columns[1], out=total)
        for column in prob_columns[2:]:
            total += column

    def _by_numpy(self) -> None:
        np.max(self.logits, axis=1, out=self._top)
        np.subtract(self.logits, self._top_col, out=self.probs)
        np.exp(self.probs, out=self.probs)
        np.sum(self.probs, axis=1, out=self._total)


def _alone(model: ToyModel, sentences: list[SoftSentence], labels: list[int]) -> _Lockstep:
    """The K = 1 lockstep of *model*, step i scheduled on sentence i."""
    run = _Lockstep([model])
    run.load([pack_corpus(sentences, len(model.emb))], labels)
    run.schedule(_in_order(0, len(sentences), 1))
    return run


def _loss(run: _Lockstep, i: int) -> float:
    """Sentence i's loss under the one model of *run*."""
    run.forward(i)
    return -float(np.log(run.softmax.probs[0, run.labels[i]]))


def forward(model: ToyModel, sentence: SoftSentence) -> np.ndarray:
    """Class probabilities softmax(W @ meanpool(mixed) + b)."""
    # Any label does: the forward pass reads none.
    run = _alone(model, [sentence], [0])
    run.forward(0)
    return run.softmax.probs[0]


def loss(model: ToyModel, sentence: SoftSentence, label: int) -> float:
    return _loss(_alone(model, [sentence], [label]), 0)


def backward(
    model: ToyModel, sentence: SoftSentence, label: int
) -> tuple[dict[int, np.ndarray], np.ndarray, np.ndarray]:
    """Analytic gradients of the cross-entropy loss.

    Returns (embedding-row gradients keyed by id, dW, db).  A soft
    position spreads its pooled gradient over every row in its support,
    scaled by that row's probability.
    """
    run = _alone(model, [sentence], [label])
    run.forward(0)
    rows, dw, db = run.gradients(0)
    return dict(zip(run.row_ids.tolist(), rows)), dw[0], db[0]


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
    """Compare the training step's gradients, averaged over *batch*,
    against central finite differences of the batch's mean loss."""
    if not batch:
        raise ValueError("empty batch")
    run = _alone(model, [sentence for sentence, _ in batch], [label for _, label in batch])
    demb = np.zeros_like(run.emb)
    dw = np.zeros_like(model.w)
    db = np.zeros_like(model.b)
    for i in range(len(batch)):
        run.forward(i)
        rows, gw, gb = run.gradients(i)
        demb[run.row_ids] += rows
        dw += gw[0]
        db += gb[0]
    demb /= len(batch)
    dw /= len(batch)
    db /= len(batch)

    def batch_loss() -> float:
        return sum(_loss(run, i) for i in range(len(batch))) / len(batch)

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
    # The lockstep's own stacked parameters, which its forward pass reads.
    for name, analytic, param in (
        ("embedding", demb, run.emb),
        ("classifier_w", dw, run.w[0]),
        ("classifier_b", db, run.b[0]),
    ):
        num = numeric(param)
        denom = np.maximum(np.abs(analytic) + np.abs(num), 1e-6)
        errors[name] = float(np.max(np.abs(analytic - num) / denom)) if param.size else 0.0
    return GradCheckReport(errors, step, tolerance)


@dataclass(frozen=True)
class PackedCorpus:
    """Every sentence of a corpus packed to its ``Bag``, stored flat.

    Sentence i's bag is ``ids[starts[i]:starts[i + 1]]``, the same slice
    of ``weights``, and ``lengths[i]`` positions; indexing gives that
    bag, so the corpus reads as a sequence of ``Bag``.
    """

    ids: np.ndarray      # int64, each bag's ids in turn
    weights: np.ndarray  # float64, aligned with ids
    starts: np.ndarray   # int64, len(corpus) + 1 offsets into ids
    lengths: np.ndarray  # int64, positions per sentence

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> Bag:
        i = range(len(self))[i]
        a, b = int(self.starts[i]), int(self.starts[i + 1])
        return Bag(self.ids[a:b], self.weights[a:b], int(self.lengths[i]))


def _bags(corpus: SoftCorpus, vocab_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sentence's bag: the ids, the weights and each bag's entry count."""
    lengths = np.diff(corpus.starts)
    sizes = np.diff(corpus.support)
    per_position = np.ones(len(corpus.tokens), dtype=np.int64)
    per_position[corpus.soft_at] = sizes
    first_entry = np.zeros(len(per_position) + 1, dtype=np.int64)
    np.cumsum(per_position, out=first_entry[1:])
    ids = np.empty(first_entry[-1], dtype=np.int64)
    weights = np.ones(first_entry[-1])
    hard = np.ones(len(per_position), dtype=bool)
    hard[corpus.soft_at] = False
    ids[first_entry[:-1][hard]] = corpus.tokens[hard]
    slots = np.repeat(first_entry[corpus.soft_at] - corpus.support[:-1], sizes) + np.arange(len(corpus.ids))
    ids[slots] = corpus.ids
    weights[slots] = corpus.probs
    # Each entry's sentence, then, in place, sentence * |V| + id.
    key = np.repeat(np.arange(len(lengths)), np.diff(first_entry[corpus.starts]))

    empty = np.flatnonzero(lengths == 0)
    outside = np.flatnonzero((ids < 0) | (ids >= vocab_size))
    if len(empty) or len(outside):
        if not len(outside) or len(empty) and empty[0] < key[outside[0]]:
            raise ValueError("empty sentence")
        own = ids[key == key[outside[0]]]
        raise ValueError(f"id out of range: {own.min() if own.min() < 0 else own.max()}")
    key *= vocab_size
    key += ids
    # Freed before the sort, whose temporaries are the pass's peak.
    del ids
    rows, entry_row = np.unique(key, return_inverse=True)
    del key
    owner, row_ids = np.divmod(rows, vocab_size)
    # bincount gives an empty input's counts as ints.
    summed = np.bincount(entry_row, weights=weights, minlength=len(rows)).astype(np.float64, copy=False)
    return row_ids, summed, np.bincount(owner, minlength=len(lengths))


def pack_corpus(corpus: SoftCorpus | list[SoftSentence], vocab_size: int) -> PackedCorpus:
    """Each sentence's bag, in order, as one flat corpus.

    Every hard position is one entry (its id, weight 1) and every soft
    position its support's entries, in position order.  One ``np.unique``
    of sentence * |V| + id gives each bag's ids, ascending, and one
    ``np.bincount`` sums each row's weights in entry order, so equal
    sentences written as hard ids or point masses, or with one support in
    any entry order, pack to identical bags.  The first sentence that is
    empty or holds an id outside [0, |V|) is refused.  Sentences go
    through in chunks, so the temporaries stay bounded.
    """
    if not isinstance(corpus, SoftCorpus):
        corpus = SoftCorpus.from_sentences(corpus)
    chunks = [_bags(corpus.part(first, min(len(corpus), first + _PACK_SENTENCES)), vocab_size)
              for first in range(0, len(corpus), _PACK_SENTENCES)] or [_bags(corpus, vocab_size)]
    ids, weights, counts = (np.concatenate(column) for column in zip(*chunks))
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return PackedCorpus(ids, weights, starts, np.diff(corpus.starts))


def _distinct(items: list) -> tuple[list, np.ndarray]:
    """The distinct objects of *items*, by identity, in order of first
    appearance, and each item's place among them."""
    by_id = {id(item): item for item in items}
    place = {key: i for i, key in enumerate(by_id)}
    return list(by_id.values()), np.array([place[id(item)] for item in items], dtype=np.int64)


class _Lockstep:
    """K models of one shape, stacked once, that train and then score on
    that one stack.

    The embeddings stack to one (K * |V|, d) array and the classifiers to
    (K, c, d) and (K, c).  ``train`` and ``evaluate`` each ``load`` their
    corpora and labels, then run chunks of steps that ``schedule(index)``
    lays out: step t runs sentence ``index[t, k]`` of corpus k through
    model k.  ``forward(t)`` then takes all K bags' rows at once, runs
    one matrix-vector product per model (``np.dot``, the product that
    ``weights @ rows`` makes) and every other operation once over all K,
    the classifier as a stacked product that computes each model's
    product as its own call would.  ``gradients(t)`` runs the backward
    pass once over all K.  Each model's numbers are therefore those of
    running it alone wherever those are finite, bit for bit, and NaN
    where those are NaN; which NaN an add or a product returns depends
    on the element's place in the array, and no output reads it.
    """

    def __init__(self, models: list[ToyModel]):
        if not models:
            raise ValueError("need at least one model")
        shapes = {(m.emb.shape, m.w.shape, m.b.shape) for m in models}
        if len(shapes) != 1:
            raise ValueError(f"models differ in shape: {sorted(shapes)}")
        vocab_size, dim = models[0].emb.shape
        classes = models[0].num_classes
        self.models = models
        self.k = len(models)
        self._shift = np.arange(self.k) * vocab_size
        self._eye = np.eye(classes)
        self._class_row = np.arange(self.k) * classes
        self.emb = np.concatenate([m.emb for m in models])
        self.w = np.stack([m.w for m in models])
        self.b = np.stack([m.b for m in models])
        self.pooled = np.empty((self.k, dim))
        self._pooled_rows = list(self.pooled)
        self._pooled_col = self.pooled[:, :, None]
        self.softmax = _RowSoftmax(self.k, classes)
        self.flat_probs = self.softmax.probs.reshape(-1)
        self._raw_col = self.softmax.raw[:, :, None]
        self._w_t = self.w.transpose(0, 2, 1)
        self._probs_col = self.softmax.probs[:, :, None]
        self._dpos = np.empty_like(self.pooled)
        self._dpos_col = self._dpos[:, :, None]
        self._dw = np.empty_like(self.w)
        self._pooled_row = self.pooled[:, None, :]

    def load(self, corpora: list[PackedCorpus], labels: list[int]) -> None:
        """Check *corpora*, one per model, and their *labels*, each an
        integer in [0, c), and lay out the table ``schedule`` reads: each
        distinct corpus's starts and lengths as one row of a flat table,
        model k reading the row of its own corpus."""
        if len(corpora) != self.k:
            raise ValueError("need one packed corpus per model")
        if any(len(corpus) != len(labels) for corpus in corpora):
            raise ValueError("corpus and labels length mismatch")
        for label in labels:
            try:
                in_range = 0 <= operator.index(label) < len(self._eye)
            except TypeError:
                raise ValueError(f"label {label!r} is not an integer") from None
            if not in_range:
                raise ValueError(f"label out of range: {label}")
        if not len(labels):
            raise ValueError("empty corpus")
        self.labels = labels
        self.corpora = corpora
        distinct, row_of = _distinct(corpora)
        self._starts = np.concatenate([c.starts for c in distinct])
        self._lengths = np.concatenate([c.lengths for c in distinct]).astype(np.float64)
        self._start_row = row_of * (len(labels) + 1)
        self._length_row = row_of * len(labels)
        self._label_array = np.asarray(labels, dtype=np.int64)
        self._entries = sum(len(c.ids) for c in corpora)

    @property
    def chunk(self) -> int:
        """Steps per schedule chunk: those whose mean entry count over the
        K loaded corpora fills ``_SCHEDULE_ENTRIES``."""
        return max(1, _SCHEDULE_ENTRIES * len(self.labels) // max(self._entries, 1))

    def schedule(self, index: np.ndarray) -> None:
        """Lay out the steps of *index*, a (T, K) array: step t runs
        sentence ``index[t, k]`` of loaded corpus k through model k.

        Block t * K + k holds that bag, its ids offset by k * |V|, so the
        K bags of step t are one contiguous run.  Also lays out each
        step's (K,) entry counts, (K, 1) divisors, (K, c) one-hot labels
        and the flat indexes of the labels' probabilities, ``loss_index``.
        """
        steps, k = index.shape
        at = index + self._start_row
        first = self._starts[at]
        counts = self._starts[at + 1] - first
        by_model = counts.T.ravel()
        model_offsets = np.zeros(len(by_model) + 1, dtype=np.int64)
        np.cumsum(by_model, out=model_offsets[1:])
        step_offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts.ravel(), out=step_offsets[1:])
        # Every entry in model-major order: its place in its model's own
        # corpus and its place in the step-major chunk.
        source = np.arange(step_offsets[-1])
        dest = source + np.repeat(step_offsets[:-1].reshape(steps, k).T.ravel() - model_offsets[:-1], by_model)
        source += np.repeat(first.T.ravel() - model_offsets[:-1], by_model)
        self.ids = ids = np.empty(len(source), dtype=np.int64)
        self.weights = weights = np.empty(len(source))
        ends = model_offsets[::steps].tolist()
        # The splits stay separate arrays, never copied into one, so each
        # model's entries are taken from its own.
        for corpus, a, z in zip(self.corpora, ends, ends[1:]):
            src, dst = source[a:z], dest[a:z]
            ids[dst] = corpus.ids.take(src)
            weights[dst] = corpus.weights.take(src)
        ids += np.repeat(np.tile(self._shift, steps), counts.ravel())
        self._weight_column = self.weights[:, None]
        self.offsets = step_offsets.tolist()
        # One model's gradient broadcasts over its rows as it is.
        self._counts = counts if k > 1 else None
        self.divisors = self._lengths[index + self._length_row][:, :, None]
        step_labels = self._label_array[index]
        self.one_hot = self._eye[step_labels]
        self.loss_index = step_labels + self._class_row

    def forward(self, t: int) -> None:
        """Leave step t's class probabilities in ``softmax.probs``.

        Also leaves the gathered ``rows`` and their ``row_ids`` into the
        stacked embedding.
        """
        k, offsets, weights = self.k, self.offsets, self.weights
        block = t * k
        start, end = offsets[block], offsets[block + k]
        self.row_ids = self.ids[start:end]
        self.rows = rows = self.emb.take(self.row_ids, axis=0)
        bounds = offsets[block:block + k + 1]
        for out, a, z in zip(self._pooled_rows, bounds, bounds[1:]):
            np.dot(weights[a:z], rows[a - start:z - start], out=out)
        self._row_weights = self._weight_column[start:end]
        self._divisors = self.divisors[t]
        self.pooled /= self._divisors
        np.matmul(self.w, self._pooled_col, out=self._raw_col)
        self.softmax(self.b)

    def gradients(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """After ``forward(t)``: the loss gradients of step t, not scaled
        by a learning rate.

        Returns the gradient of each of ``rows`` (a fresh array), dW as
        (K, c, d) and db as (K, c); the last two live in buffers, db in
        ``softmax.probs``, that the next step overwrites.
        """
        probs = self.softmax.probs
        probs -= self.one_hot[t]
        np.matmul(self._w_t, self._probs_col, out=self._dpos_col)
        dpos = self._dpos
        dpos /= self._divisors
        counts = self._counts
        model_grads = dpos if counts is None else dpos.repeat(counts[t], axis=0)
        np.multiply(self._probs_col, self._pooled_row, out=self._dw)
        return self._row_weights * model_grads, self._dw, probs

    def train(self, corpora: list[PackedCorpus], labels: list[int], lr: float, steps: int,
              rngs: list[SplitMix64]) -> np.ndarray:
        """Train model k on packed corpus k with sample stream ``rngs[k]``
        for *steps* steps.

        Step t visits, for each model, the t-th index its own stream
        draws; a stream object that several models share is drawn once,
        so they visit the same sentences, and each stream ends where a
        solo run of one of its models leaves it.  Chunks of steps are
        drawn and laid out by ``schedule``.  A step is ``gradients`` times
        *lr*, subtracted once over all K: the row update is scattered back
        into the stacked embedding.  Each model's parameters become its
        slice of the stacked arrays, so the K models are held once while
        they train and ``evaluate`` scores them as trained.  Returns the
        (steps, K) pre-update losses.  Every corpus, label, the stream
        count and *steps* are checked before the first draw.
        """
        self.load(corpora, labels)
        if len(rngs) != self.k:
            raise ValueError("need one sample stream per model")
        if steps < 0:
            raise ValueError("steps must be >= 0")
        streams, stream_of = _distinct(rngs)
        emb, w, b = self.emb, self.w, self.b
        vocab_size = len(emb) // self.k
        for k, model in enumerate(self.models):
            model.emb, model.w, model.b = emb[k * vocab_size:(k + 1) * vocab_size], w[k], b[k]
        losses = np.empty((steps, self.k))
        chunk = self.chunk
        for first in range(0, steps, chunk):
            count = min(chunk, steps - first)
            draws = np.stack([rng.randint_block(len(labels), count) for rng in streams], axis=1)
            self.schedule(draws[:, stream_of])
            for t, loss_row in enumerate(losses[first:first + count]):
                self.forward(t)
                self.flat_probs.take(self.loss_index[t], out=loss_row)
                grows, dw, db = self.gradients(t)
                grows *= lr
                rows = self.rows
                rows -= grows
                emb[self.row_ids] = rows
                dw *= lr
                w -= dw
                db *= lr
                b -= db
        np.log(losses, out=losses)
        np.negative(losses, out=losses)
        return losses

    def evaluate(self, corpus: PackedCorpus, labels: list[int]) -> list[float]:
        """Each model's ``evaluate`` on one packed corpus."""
        self.load([corpus] * self.k, labels)
        hits = np.zeros(self.k, dtype=np.int64)
        chunk = self.chunk
        for first in range(0, len(corpus), chunk):
            count = min(chunk, len(corpus) - first)
            self.schedule(_in_order(first, count, self.k))
            for t, label in enumerate(labels[first:first + count]):
                self.forward(t)
                hits += self.softmax.probs.argmax(axis=1) == label
        return (hits / len(corpus)).tolist()


def _in_order(first: int, count: int, k: int) -> np.ndarray:
    """The schedule index of sentences first .. first + count - 1 for all K."""
    return np.repeat(np.arange(first, first + count)[:, None], k, axis=1)


def train_toy(
    model: ToyModel,
    corpus: SoftCorpus | list[SoftSentence],
    labels: list[int],
    lr: float,
    steps: int,
    rng: SplitMix64,
) -> tuple[ToyModel, list[float]]:
    """Plain SGD, one uniformly drawn sample per step.

    Trains *model*, whose parameters end as new arrays, and records the
    pre-update loss of each visited sample.  The corpus, which may not be
    empty, every label and *steps* are checked before the first draw.
    """
    losses = _Lockstep([model]).train([pack_corpus(corpus, len(model.emb))], labels, lr, steps, [rng])
    return model, losses[:, 0].tolist()


def evaluate(model: ToyModel, corpus: SoftCorpus | list[SoftSentence], labels: list[int]) -> float:
    """Fraction of sentences whose argmax class matches the label."""
    return _Lockstep([model]).evaluate(pack_corpus(corpus, len(model.emb)), labels)[0]


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
