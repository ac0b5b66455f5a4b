"""Interpolated absolute-discounting n-gram language model.

The conditional distribution over the next token is

    P(w | h) = max(c(h,w) - D, 0) / c(h) + lam(h) * P(w | h')
    lam(h)   = D * N1plus(h) / c(h)

where h' drops the oldest token of h and the recursion bottoms out at the
additively smoothed unigram P0(w) = (c(w) + alpha) / (C + alpha * |V|).
Unseen histories fall through unchanged (lam = 1, no discounted mass), so
every history yields a proper distribution over the full vocabulary.

Sentences are padded with n-1 BOS symbols and terminated by a predicted
EOS.  Models are immutable once built and queries are pure.  Every query
evaluates P(w | h) one way: the dense |V|-vector, P0 then per present
history level ``*= lam`` and ``+= add`` on its support.  ``next_dist``,
``sample`` and ``logprob`` evaluate it on every call and keep nothing: at
a wide vocabulary histories rarely repeat, and a stored |V|-vector per
history costs far more memory than it saves time.  ``top_k`` selects from
it with one partition and keeps the model's one cache, of 2k numbers per
entry, because its histories do repeat (all-BOS, with its large support,
starts every sentence).  ``perplexity`` performs the same operations on
a block of tokens at once, as array operations, and gets the same bits.

A model is built from order-n grams and their counts alone: ``train_lm``
passes each padded window of its corpus once, ``load_lm`` the counted
grams of a file (see ``dump_lm``), so a reload is bit-identical.  The
writer, like the reader, works a bounded block of lines at a time, and
``train_lm`` reads its sentences in one pass of bounded blocks, so
neither holds a Python object per gram or per sentence.  An event
counts toward each suffix of its history: the level for history length k
holds the marginal of the gram counts over their last k + 1 ids.  Each
level is one set of flat arrays (see ``Level``), its histories in
ascending order.  A history of length k is found by its integer key, its
oldest id times the number of histories of length k - 1 plus the row of
its one-id-shorter suffix there: a query walks k = 1, 2, ... by binary
search and stops at the first absent history, since no longer one can be
present.  No object is held per history.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import BLANK, BOS, EOS, UNK, Sentence, Vocabulary, sentence_blocks, split_lines

# Entries in the top-k cache.  An entry holds 2k numbers, never 2|V|.
_CACHE_LIMIT = 4096

# Upper bound on the model order.  Each event counts toward every history
# length, so a model stores `order` levels and up to `order` history
# rows per event; ``check_params`` refuses a file or flag asking for
# more before any level is built.  Orders past ~6 have no data to
# estimate anyway.
MAX_ORDER = 16

_MAGIC = "#ngram-counts v1"
_END = "\\end\\"


@dataclass(frozen=True, eq=False)
class Level:
    """The histories of one length k, CSR-style.

    Row r is history ``hists[r]`` (rows ascending) with the int64 key
    ``keys[r]``: for k >= 1, its oldest id times the length of level
    k - 1 plus the row of its one-id-shorter suffix there, so the keys
    ascend with the rows.  Its next ids are ``ids[starts[r]:starts[r + 1]]``,
    ascending, with their summed ``counts`` and ``add`` = (count - D) / c(h);
    ``lam[r]`` is D * N1plus(h) / c(h).  ``len()`` is the number of
    histories.
    """

    keys: np.ndarray
    hists: np.ndarray
    starts: np.ndarray
    ids: np.ndarray
    counts: np.ndarray
    add: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return len(self.lam)


class NGramLM:
    """Immutable next-token model over a fixed vocabulary, built from the
    (G, order) int array of order-n *grams* and their G *counts* (summed)."""

    def __init__(self, order: int, discount: float, alpha: float, vocab: Vocabulary,
                 grams: np.ndarray, counts: np.ndarray):
        check_params(order, discount, alpha)
        grams, counts = np.asarray(grams, dtype=np.int64), np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or grams.shape != (len(counts), order) or (counts < 1).any():
            raise ValueError(f"grams must be a (G, {order}) array with one count >= 1 each")
        outside = grams[(grams < 0) | (grams >= len(vocab))]
        if len(outside):
            raise ValueError(f"id out of range: {outside[0]}")
        self.order = order
        self.discount = discount
        self.alpha = alpha
        self.vocab = vocab
        # The level of each history length k = 0..order-1.
        size = len(vocab)
        self.counts = _count_levels(grams, counts, discount, size)
        self._widths = [len(level) for level in self.counts]
        c1 = np.zeros(size, dtype=np.float64)
        c1[self.counts[0].ids] = self.counts[0].counts
        self.total_events = int(self.counts[0].counts.sum())
        denom = self.total_events + self.alpha * size
        if denom <= 0.0:
            raise ValueError("model has no counts and no smoothing floor")
        self._p0 = (c1 + self.alpha) / denom
        self._top_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_top_cache"] = {}
        return state

    # -- queries ---------------------------------------------------------

    def pad_prefix(self, prefix: Sequence[int]) -> tuple:
        """The last order-1 tokens of *prefix*, BOS-padded on the left."""
        n = self.order - 1
        padded = (BOS,) * n + tuple(prefix)
        return padded[len(padded) - n :] if n else ()

    def _levels(self, hist: tuple) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """(ids, add, lam) of each present history level of *hist*, the
        shortest history first; ids and add are slices of the level."""
        levels = []
        row = 0
        for k in range(1, len(hist) + 1):
            level = self.counts[k]
            key = hist[-k] * self._widths[k - 1] + row
            row = int(level.keys.searchsorted(key))
            if row == self._widths[k] or level.keys[row] != key:
                break
            a, b = level.starts[row], level.starts[row + 1]
            levels.append((level.ids[a:b], level.add[a:b], level.lam[row]))
        return levels

    def _dist(self, hist: tuple) -> np.ndarray:
        """Dense distribution over the vocabulary after the padded *hist*,
        evaluated into a fresh array."""
        p = self._p0.copy()
        for ids, add, lam in self._levels(hist):
            p *= lam
            p[ids] += add
        return p

    def next_dist(self, prefix: Sequence[int]) -> np.ndarray:
        """Dense distribution over the vocabulary after *prefix*, evaluated
        into a fresh array on every call."""
        return self._dist(self.pad_prefix(prefix))

    def top_k(self, prefix: Sequence[int], k: int) -> tuple[np.ndarray, np.ndarray]:
        """The min(k, |V|) most probable next tokens after *prefix*.

        Returns (ids, probs): ids by probability descending, ties by id
        ascending, and probs equal to ``next_dist(prefix)[ids]`` bitwise.
        The dense vector is evaluated and, for k < |V|, only the ids at or
        above its k-th largest value are sorted.  Returns read-only arrays,
        shared with the cache: results are cached per (history, k) for
        k < |V| only, since a full result holds 2|V| numbers.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        key = (self.pad_prefix(prefix), k)
        cached = self._top_cache.get(key)
        if cached is None:
            cached = self._top_k_for_history(*key)
            if len(self._top_cache) < _CACHE_LIMIT and k < len(self._p0):
                self._top_cache[key] = cached
        return cached

    def _top_k_for_history(self, hist: tuple, k: int) -> tuple[np.ndarray, np.ndarray]:
        p = self._dist(hist)
        cut = len(p) - k
        if cut > 0:
            # No id below the k-th largest value ranks before one at or above it.
            cand = np.flatnonzero(p >= np.partition(p, cut)[cut])
        else:
            cand = np.arange(len(p))
        top = cand[np.lexsort((cand, -p[cand]))[:k]]
        probs = p[top]
        top.flags.writeable = probs.flags.writeable = False
        return top, probs

    def logprob(self, prefix: Sequence[int], token: int) -> float:
        """log P(*token* | *prefix*), from the dense vector: O(|V|)."""
        if not 0 <= token < len(self.vocab):
            raise ValueError(f"id out of range: {token}")
        p = self._dist(self.pad_prefix(prefix))[token]
        # At alpha 0 an unseen token has probability 0: its log is -inf.
        with np.errstate(divide="ignore"):
            return float(np.log(p))

    def sample(self, prefix: Sequence[int], u: float) -> int:
        """The next token after *prefix* at the uniform *u* in [0, 1): an
        inverse-CDF draw in id order; BOS/UNK/BLANK are never emitted.  The
        caller draws *u*, so the model stays a pure query."""
        # Through the public next_dist, so that a per-instance wrapper of it
        # (the benchmark's trace) counts lm_sample's queries.
        p = self.next_dist(prefix)
        p[[BOS, UNK, BLANK]] = 0.0
        cum = np.cumsum(p)
        idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
        return min(idx, len(p) - 1)


def check_params(order: int, discount: float, alpha: float) -> None:
    """The range check for model parameters, wherever they come from."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must lie in [1, {MAX_ORDER}], not {order}")
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie strictly between 0 and 1")
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and >= 0, not {alpha}")


def _count_levels(grams: np.ndarray, counts: np.ndarray, discount: float,
                  size: int) -> list[Level]:
    """The levels of history lengths 0..order-1 of the (G, order) *grams*
    and their *counts*, over *size* ids.

    Per length k, one ``np.unique`` of the grams' history keys (see
    ``Level``) numbers the histories in ascending order, one sort of
    history row * *size* + next id numbers the rows (history..., next id),
    and the counts of equal rows add up.  Every key lies below *size* * G.
    """
    order = grams.shape[1]
    levels = []
    hist_row = np.zeros(len(grams), dtype=np.int64)
    for k in range(order):
        # Each temporary is dropped once used: no earlier level's arrays
        # are live through this level's sorts.
        key = grams[:, order - 1 - k] * len(levels[-1]) + hist_row if k else hist_row
        del hist_row
        keys, hist_row = np.unique(key, return_inverse=True)
        del key
        row_key = hist_row * size + grams[:, -1]
        by = np.argsort(row_key)
        # The first gram of each row; no key is -1, so the first gram starts one.
        firsts = np.flatnonzero(np.diff(row_key[by], prepend=-1))
        del row_key
        row_counts = np.add.reduceat(counts[by], firsts)
        lead = by[firsts]
        del by, firsts
        starts = hist_row[lead].searchsorted(np.arange(len(keys) + 1))
        heads = starts[:-1]
        # c(h), summed exactly and then converted once, as float(sum).
        total = np.add.reduceat(row_counts, heads).astype(np.float64)
        sizes = np.diff(starts)
        levels.append(Level(
            keys=keys, hists=grams[lead[heads], order - 1 - k : order - 1], starts=starts,
            ids=grams[lead, -1], counts=row_counts,
            add=(row_counts - discount) / np.repeat(total, sizes), lam=discount * sizes / total,
        ))
        del lead, total, sizes
    return levels


def train_lm(
    sentences: Iterable[Sentence],
    vocab: Vocabulary,
    order: int = 3,
    discount: float = 0.75,
    alpha: float = 0.1,
) -> NGramLM:
    """Count every (BOS-padded history, next token) event and freeze the
    model; *sentences* are read once, so a generator serves."""
    check_params(order, discount, alpha)
    grams = _windows(sentences, order, len(vocab))
    # Each window is one event; the constructor adds up repeated grams.
    return NGramLM(order, discount, alpha, vocab, grams, np.ones(len(grams), dtype=np.int64))


# Tokens per block of ``perplexity`` and of ``_windows``: their memory
# for Python lists stays bounded at any corpus size.
_BLOCK_TOKENS = 1 << 16


def _windows(sentences: Iterable[Sentence], order: int, size: int) -> np.ndarray:
    """Every window of *order* ids in the BOS-padded, EOS-ended sentences,
    read in one pass, a block of ``_BLOCK_TOKENS`` at a time.

    The first id outside [0, *size*) raises ValueError, also one that no
    int64 holds; so does a corpus of no sentences."""
    pad = (BOS,) * (order - 1)
    parts, windows = [], []
    for block in sentence_blocks(sentences, _BLOCK_TOKENS):
        try:
            tokens = np.fromiter(itertools.chain.from_iterable(pad + tuple(s) + (EOS,) for s in block),
                                 dtype=np.int64)
        except OverflowError:
            tokens = None
        if tokens is None or ((tokens < 0) | (tokens >= size)).any():
            bad = next(t for s in block for t in s if not 0 <= t < size)
            raise ValueError(f"id out of range: {bad}")
        parts.append(tokens)
        windows.append(np.fromiter((len(s) + 1 for s in block), dtype=np.int64, count=len(block)))
    if not parts:
        raise ValueError("empty corpus")
    tokens = np.concatenate(parts)
    del parts
    windows = np.concatenate(windows)
    # Back to back, sentence i holds len + 1 windows, and its first starts
    # (order - 1) * i ids past the windows of the sentences before it.
    starts = np.arange(windows.sum()) + (order - 1) * np.repeat(np.arange(len(windows)), windows)
    return np.lib.stride_tricks.sliding_window_view(tokens, order)[starts]


def perplexity(lm: NGramLM, sentences: Iterable[Sentence]) -> float:
    """exp of mean negative log-likelihood per token, EOS included.

    Scores a bounded block of sentences at a time and adds the
    log-probabilities one by one in token order, so the result equals
    that of adding up ``lm.logprob`` per token, bit for bit."""
    total = 0.0
    n = 0
    for block in sentence_blocks(sentences, _BLOCK_TOKENS):
        logs = _logprobs(lm, block)
        for x in logs.tolist():
            total += x
        n += len(logs)
    if n == 0:
        raise ValueError("empty corpus")
    return math.exp(-total / n)


def _logprobs(lm: NGramLM, sentences: list[Sentence]) -> np.ndarray:
    """``lm.logprob`` of every token of *sentences* and of each one's EOS,
    in order, bitwise: per history length, shortest first, each token's
    P0 takes ``*= lam`` and, inside the support, ``+= add``, as arrays."""
    size = len(lm._p0)
    windows = _windows(sentences, lm.order, size)
    tokens = windows[:, -1]
    p = lm._p0[tokens]
    # live: the tokens whose history of length k - 1 is present, and row:
    # its row in level k - 1.  A token drops out at its first absent
    # history, as no longer one is present.
    live = np.arange(len(tokens))
    row = np.zeros(len(tokens), dtype=np.int64)
    for k in range(1, lm.order):
        level = lm.counts[k]
        if not (len(live) and len(level)):
            break
        want = windows[live, lm.order - 1 - k] * len(lm.counts[k - 1]) + row
        at = np.minimum(level.keys.searchsorted(want), len(level) - 1)
        hit = level.keys[at] == want
        live, row = live[hit], at[hit]
        p[live] *= level.lam[row]
        # The level's supports as keys row * size + id, ascending.
        keys = np.repeat(np.arange(len(level)) * size, np.diff(level.starts)) + level.ids
        want = row * size + tokens[live]
        found = np.minimum(keys.searchsorted(want), len(keys) - 1)
        inside = keys[found] == want
        p[live[inside]] += level.add[found[inside]]
    # At alpha 0 an unseen token has probability 0: its log is -inf.
    with np.errstate(divide="ignore"):
        return np.log(p)


# -- count-file serialization ----------------------------------------------

# Gram lines per block of the model reader, and histories per block of
# the writer: their memory stays bounded at any model size.
_BLOCK_LINES = 1 << 13


def _dump_lines(lm: NGramLM) -> Iterable[str]:
    surfaces = lm.vocab.surfaces
    yield (f"{_MAGIC} order={lm.order} discount={lm.discount!r} alpha={lm.alpha!r} "
           f"events={lm.total_events} vocab={len(surfaces)}\n")
    for surface, count in zip(surfaces, lm.vocab.counts):
        if surface.split() != [surface]:
            raise ValueError(f"surface {surface!r} is empty or holds whitespace")
        yield f"{count}\t{surface}\n"
    top = lm.counts[lm.order - 1]
    # A block of histories at a time, so only one block's Python lists are
    # live; ids become references to the vocabulary's strings, not ints.
    words = np.array(surfaces, dtype=object)
    for first in range(0, len(top), _BLOCK_LINES):
        bounds = top.starts[first : first + _BLOCK_LINES + 1]
        lo, hi = bounds[0], bounds[-1]
        starts = (bounds - lo).tolist()
        nexts, counts = words[top.ids[lo:hi]].tolist(), top.counts[lo:hi].tolist()
        hists = words[top.hists[first : first + _BLOCK_LINES]].tolist()
        for hist, a, b in zip(hists, starts, starts[1:]):
            prefix = "".join(s + " " for s in hist)
            for w, c in zip(nexts[a:b], counts[a:b]):
                yield f"{c}\t{prefix}{w}\n"
    yield _END + "\n"


def dump_lm(lm: NGramLM) -> str:
    """The model as count-file text.

    Line 1 is ``#ngram-counts v1 order=N discount=D alpha=A events=E
    vocab=V``; then V lines ``count<TAB>surface`` (the vocabulary and its
    counts, in id order); then one ``count<TAB>w1 ... wN`` line per order-N
    gram, in ascending id order; then ``\\end\\``.  Every data line starts
    with its count, so no surface can be taken for the end marker.
    """
    return "".join(_dump_lines(lm))


def save_lm(lm: NGramLM, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_dump_lines(lm))


def _parse_lines(lines: Iterable[str], path: str) -> NGramLM:
    """Build the model from count-file lines, reading the gram lines in
    blocks of ``_BLOCK_LINES``."""
    lines = iter(lines)
    first = next(lines, "").rstrip("\n")
    head = first.split()
    if head[:2] != _MAGIC.split():
        raise ValueError(f"{path} is not an n-gram count file (no {_MAGIC!r} header)")
    try:
        pairs = [field.split("=", 1) for field in head[2:]]
        fields = dict(pairs)
        if len(fields) != len(pairs):
            raise ValueError("repeated field")
        order, events, size = (int(fields[key]) for key in ("order", "events", "vocab"))
        discount, alpha = float(fields["discount"]), float(fields["alpha"])
        if events >= 2**63:
            raise ValueError("counts above int64")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad header in {path}: {first!r}") from exc
    check_params(order, discount, alpha)

    entries = [_data_line(lineno, line.rstrip("\n"), 0, path)
               for lineno, line in enumerate(itertools.islice(lines, size), 2)]
    if len(entries) != size:
        raise ValueError(f"{path} ends inside its vocabulary")
    vocab = Vocabulary([s for _, s in entries], [c for c, _ in entries])
    index = {s: i for i, s in enumerate(vocab.surfaces)}
    # The line break that joins a block's surfaces; no surface holds one.
    index["\n"] = -1

    grams, counts = [], []
    total, prev = 0, ()
    lineno = 1 + size  # the last line read
    while True:
        block = [line.rstrip("\n") for line in itertools.islice(lines, _BLOCK_LINES)]
        if not block:
            raise ValueError(f"{path} has no {_END} line")
        end = block.index(_END) if _END in block else len(block)
        parsed = _block_grams(block[:end], prev, order, index)
        if parsed is None:
            parsed = _line_grams(block[:end], lineno + 1, prev, order, index, path)
        block_grams, block_counts = parsed
        if block_counts:
            prev = tuple(block_grams[-1].tolist())
        total += sum(block_counts)
        # Past the header's events, the sum check refuses the file, and a
        # count may not fit an int64.
        if total <= events:
            grams.append(block_grams)
            counts.append(np.array(block_counts, dtype=np.int64))
        if end < len(block):
            after = block[end + 1 :] or [line.rstrip("\n") for line in itertools.islice(lines, 1)]
            if after:
                raise ValueError(f"line {lineno + end + 2} of {path} follows the {_END} line: "
                                 f"{after[0]!r}")
            break
        lineno += len(block)
    if total != events:
        raise ValueError(f"gram counts sum to {total}, not {events}, in {path}")
    return NGramLM(order, discount, alpha, vocab, np.concatenate(grams), np.concatenate(counts))


def _data_line(lineno: int, line: str, least: int, path: str) -> tuple[int, str]:
    """(count, text) of a ``count<TAB>text`` line whose count is >= *least*."""
    count, tab, text = line.partition("\t")
    if not (tab and count.isascii() and count.isdigit() and int(count) >= least):
        raise ValueError(f"line {lineno} of {path} is not 'count<TAB>text' "
                         f"with an integer count >= {least}: {line!r}")
    return int(count), text


def _block_grams(block: list[str], prev: tuple, order: int,
                 index: dict[str, int]) -> tuple[np.ndarray, list[int]] | None:
    """(grams, counts) of the gram lines *block*, which follow gram *prev*,
    parsed as a whole; None if any line is malformed."""
    if not block:
        return np.empty((0, order), dtype=np.int64), []
    fields = [line.partition("\t") for line in block]
    counts, tabs, texts = ([f[i] for f in fields] for i in range(3))
    digits = "".join(counts)
    if "" in tabs or "" in counts or not (digits.isascii() and digits.isdigit()):
        return None
    surfaces = " \n ".join(texts).split(" ")
    if len(surfaces) != len(block) * (order + 1) - 1:
        return None
    try:
        cnts = list(map(int, counts))
        ids = np.fromiter(map(index.__getitem__, surfaces), dtype=np.int64, count=len(surfaces))
    except (KeyError, ValueError):
        return None
    # Each line's order ids, then its line break (-1).
    ids = np.append(ids, -1).reshape(len(block), order + 1)
    grams = ids[:, :order]
    # Each gram above the one before it: its first differing id is larger.
    steps = np.diff(np.concatenate([np.array(prev, dtype=np.int64).reshape(-1, order), grams]), axis=0)
    first = (steps != 0).argmax(axis=1)
    if min(cnts) < 1 or (ids[:, order] != -1).any() or (steps[np.arange(len(steps)), first] <= 0).any():
        return None
    return grams, cnts


def _line_grams(block: list[str], lineno: int, prev: tuple, order: int, index: dict[str, int],
                path: str) -> tuple[np.ndarray, list[int]]:
    """``_block_grams`` line by line, from line number *lineno*: the first
    malformed line raises its ValueError."""
    grams, counts = [], []
    for lineno, line in enumerate(block, lineno):
        count, text = _data_line(lineno, line, 1, path)
        try:
            gram = tuple(index[s] for s in text.split(" "))
        except KeyError as exc:
            raise ValueError(f"unknown surface {exc} on line {lineno} of {path}") from None
        if len(gram) != order or gram <= prev:
            raise ValueError(f"line {lineno} of {path} is not an order-{order} gram "
                             f"in ascending id order: {line!r}")
        prev = gram
        grams.append(gram)
        counts.append(count)
    return np.array(grams, dtype=np.int64).reshape(-1, order), counts


def parse_lm(text: str, path: str = "<string>") -> NGramLM:
    """Rebuild the exact model from count-file text (see ``dump_lm``)."""
    return _parse_lines(split_lines(text), path)


def load_lm(path: str) -> NGramLM:
    """Read a count file in bounded blocks of lines (see ``dump_lm``)."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _parse_lines(fh, path)
        except UnicodeDecodeError as exc:
            raise ValueError(f"malformed UTF-8 in {path}") from exc
