"""Per-token corpus augmentation strategies.

Seven strategies: ``base`` (identity), ``swap`` (bounded local shuffle),
``dropout`` (token deletion), ``blank`` (placeholder substitution),
``smooth`` (unigram resampling), ``lm_sample`` (language model
resampling) and ``soft`` (replace the token by its next-token
distribution, to be mixed in embedding space downstream).  ``dropout``
and the last four share one driver: it draws the selection mask, then
replaces or drops the selected positions and counts them.  Every
strategy draws as array passes; only the language model strategies
query the model once per selected position.

Selection is an independent Bernoulli(gamma) event per position, computed
on the original sentence; prefixes handed to the language model likewise
use original tokens, so positions never interact and any number of workers
produces byte-identical output.  Sentence i always draws from the stream
``SplitMix64(derive(seed, i))``: one selection uniform per position, then
one draw per replacement, in position order.  A replacement is a
``smooth`` or ``lm_sample`` replacement, or the token that ``dropout``
keeps when it would drop every token; ``soft`` draws none.
``augment_corpus`` is the one way in: it takes each kind of draw for a
bounded block of sentences in one array pass, bit for bit the scalar
stream's draws.  To reproduce one sentence's augmentation, take sentence
i of an ``augment_corpus`` run with the same seed.

Every strategy's result is a ``SoftCorpus``: flat arrays of token ids,
sentence offsets and the soft positions' supports (ids and
probabilities, CSR style).  Blocks come back from the worker pool as
those arrays, and the soft JSON Lines writer formats them as a whole.
The reader decides a chunk of lines with array passes;
``parse_soft_line`` is the rule for one record, and only a chunk the
arrays refuse is parsed again line by line to name its first bad line.
Indexing a ``SoftCorpus`` gives the library view: a list of ints and
``SoftWord(Dist)`` per sentence.
"""

from __future__ import annotations

import itertools
import json
import operator
from array import array
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .corpus import BLANK, BOS, EOS, NUM_SPECIALS, Sentence, iter_lines, sentence_blocks
from .lm import NGramLM
from .parallel import check_threads, fork_map
from .rng import check_seed, derive_block, stream_block

STRATEGIES = ("base", "swap", "dropout", "blank", "smooth", "lm_sample", "soft")
LM_STRATEGIES = ("lm_sample", "soft")

# Tokens (and EOSes) per block of ``augment_corpus``: a block's uniforms
# and masks are one array pass, and its memory stays bounded.
_BLOCK_TOKENS = 1 << 16

# Sentences at a time that iterating a SoftCorpus turns into lists, and
# that the soft corpus codec formats or parses as arrays: its memory
# beyond the corpus stays bounded.
_CHUNK_SENTENCES = 64


def _offsets(sizes) -> np.ndarray:
    """``[0, sizes[0], sizes[0] + sizes[1], ...]`` as int64."""
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability distribution over token ids: ``ids`` paired with
    ``probs``, ordered by probability descending with id-ascending
    tie-break."""

    probs: np.ndarray
    ids: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(self.probs, other.probs)

    def entries(self) -> list[tuple[int, float]]:
        return [(int(i), float(p)) for i, p in zip(self.ids, self.probs)]

    def validate(self, tol: float = 1e-9) -> None:
        """Raise ValueError with the first check the entries fail, in
        order: as many ids as probabilities, finite and non-negative
        probabilities, non-negative ids, a sum within *tol* of 1 and no
        repeated id."""
        ids, probs = np.asarray(self.ids), np.asarray(self.probs)
        if len(ids) != len(probs):
            raise ValueError(f"{len(ids)} ids but {len(probs)} probabilities")
        if not np.isfinite(probs).all():
            raise ValueError("non-finite probability")
        if (probs < 0).any():
            raise ValueError("negative probability")
        if (ids < 0).any():
            raise ValueError("negative id in distribution")
        if abs(probs.sum() - 1.0) > tol:
            raise ValueError("probabilities do not sum to 1")
        if len(np.unique(ids)) < len(ids):
            raise ValueError("duplicate ids in distribution")


def unigram_dist(sentences: Iterable[Sentence], size: int) -> np.ndarray:
    """Unigram frequency distribution over non-special token ids, indexed
    by id; every id must lie in [0, size)."""
    ids = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64)
    outside = ids[(ids < 0) | (ids >= size)]
    if len(outside):
        raise ValueError(f"id out of range: {outside[0]}")
    counts = np.bincount(ids[ids >= NUM_SPECIALS], minlength=size).astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise ValueError("no non-special tokens to build a unigram distribution")
    return counts / total


@dataclass(frozen=True)
class SoftWord:
    """A position replaced by a distribution over the vocabulary."""

    dist: Dist
    original_id: int


# A soft sentence is a list whose items are ids (hard) or SoftWord (soft).
SoftSentence = list


@dataclass(frozen=True, eq=False)
class SoftCorpus:
    """A corpus of soft sentences as flat arrays.

    Sentence i holds the positions ``starts[i]:starts[i + 1]`` of
    ``tokens``.  The positions listed in ``soft_at`` are soft: the j-th
    one's distribution is ``ids[support[j]:support[j + 1]]`` with the
    same slice of ``probs``, and its token stays the original id.
    Indexing, iterating or slicing gives each sentence as a
    ``SoftSentence``, its ``Dist`` arrays views of these columns; the
    corpus compares equal to another one, or to a list of sentences,
    that reads the same.
    """

    tokens: np.ndarray   # int64, every position's id
    starts: np.ndarray   # int64, len(corpus) + 1 offsets into tokens
    soft_at: np.ndarray  # int64, the flat index of each soft position, ascending
    support: np.ndarray  # int64, len(soft_at) + 1 offsets into ids and probs
    ids: np.ndarray      # int64, each soft position's support ids in turn
    probs: np.ndarray    # float64, aligned with ids

    @classmethod
    def hard(cls, tokens: np.ndarray, starts: np.ndarray) -> "SoftCorpus":
        """A corpus without soft positions."""
        return cls(tokens, starts, np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))

    @classmethod
    def from_sentences(cls, sentences: Iterable[SoftSentence]) -> "SoftCorpus":
        """The columns of a list of soft sentences.  Hard items must be
        integers; a soft word's ids and probabilities must pair up."""
        sentences = list(sentences)
        flat = list(itertools.chain.from_iterable(sentences))
        soft_at = [i for i, item in enumerate(flat) if isinstance(item, SoftWord)]
        dists = [flat[i].dist for i in soft_at]
        for i, dist in zip(soft_at, dists):
            flat[i] = flat[i].original_id
            if len(dist.ids) != len(dist.probs):
                raise ValueError(f"{len(dist.ids)} ids but {len(dist.probs)} probabilities")
        return cls(
            np.fromiter(map(operator.index, flat), dtype=np.int64, count=len(flat)),
            _offsets([len(s) for s in sentences]),
            np.array(soft_at, dtype=np.int64),
            _offsets([len(d.ids) for d in dists]),
            np.concatenate([d.ids for d in dists] + [np.zeros(0, dtype=np.int64)], dtype=np.int64),
            np.concatenate([d.probs for d in dists] + [np.zeros(0)], dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: list["SoftCorpus"]) -> "SoftCorpus":
        """The corpora of *parts* (at least one), one after another."""
        if len(parts) == 1:
            return parts[0]
        shifts = _offsets([len(p.tokens) for p in parts]).tolist()
        return cls(
            np.concatenate([p.tokens for p in parts]),
            _offsets(np.concatenate([np.diff(p.starts) for p in parts])),
            np.concatenate([p.soft_at + shift for p, shift in zip(parts, shifts)]),
            _offsets(np.concatenate([np.diff(p.support) for p in parts])),
            np.concatenate([p.ids for p in parts]),
            np.concatenate([p.probs for p in parts]),
        )

    def __len__(self) -> int:
        return len(self.starts) - 1

    def _sentences(self, first: int, last: int) -> list[SoftSentence]:
        """Sentences first .. last - 1 as lists."""
        a, z = int(self.starts[first]), int(self.starts[last])
        flat = self.tokens[a:z].tolist()
        lo, hi = np.searchsorted(self.soft_at, [a, z]).tolist()
        bounds = self.support[lo:hi + 1].tolist()
        for at, s, e in zip(self.soft_at[lo:hi].tolist(), bounds, bounds[1:]):
            flat[at - a] = SoftWord(Dist(self.probs[s:e], self.ids[s:e]), flat[at - a])
        cuts = (self.starts[first:last + 1] - a).tolist()
        return [flat[x:y] for x, y in zip(cuts, cuts[1:])]

    def __getitem__(self, i):
        if isinstance(i, slice):
            picked = range(len(self))[i]
            if picked.step == 1:
                return self._sentences(picked.start, picked.stop) if picked else []
            return [self[j] for j in picked]
        i = range(len(self))[i]
        return self._sentences(i, i + 1)[0]

    def __iter__(self) -> Iterator[SoftSentence]:
        for first in range(0, len(self), _CHUNK_SENTENCES):
            yield from self._sentences(first, min(len(self), first + _CHUNK_SENTENCES))

    def part(self, first: int, last: int) -> "SoftCorpus":
        """Sentences first .. last - 1 as a corpus of their own, its
        columns views of these where they can be."""
        a, z = self.starts[first], self.starts[last]
        lo, hi = np.searchsorted(self.soft_at, [a, z])
        s, e = self.support[lo], self.support[hi]
        return SoftCorpus(self.tokens[a:z], self.starts[first:last + 1] - a, self.soft_at[lo:hi] - a,
                          self.support[lo:hi + 1] - s, self.ids[s:e], self.probs[s:e])

    def __eq__(self, other) -> bool:
        if isinstance(other, SoftCorpus):
            return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                       for f in fields(self))
        if isinstance(other, list):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


@dataclass(frozen=True)
class AugmentConfig:
    strategy: str = "base"
    gamma: float = 0.0
    window_k: int = 3
    topk: int = 32
    seed: int = 0

    def validate(self) -> None:
        check_seed(self.seed)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {self.strategy!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.window_k < 1:
            raise ValueError("window must be >= 1")
        if self.topk < 0:
            raise ValueError("topk must be >= 0")


def _selectable(tokens: np.ndarray) -> np.ndarray:
    """Framing and placeholder ids are never replaced; UNK is an ordinary token."""
    return (tokens != BOS) & (tokens != EOS) & (tokens != BLANK)


def _mask(selectable: np.ndarray, u: np.ndarray, gamma: float) -> np.ndarray:
    """The selection rule: a position is selected when its uniform is below
    gamma and its token is selectable (``_selectable``: not BOS, EOS or
    BLANK)."""
    return (u < gamma) & selectable


def _corpus_unigram(sentences: list[Sentence], size: int | None) -> np.ndarray:
    if size is None:
        size = max((max(s) for s in sentences if s), default=NUM_SPECIALS - 1) + 1
    return unigram_dist(sentences, size)


def _augment_block(sentences: list[Sentence], start: int, config: AugmentConfig,
                   lm: NGramLM | None, cumulative: Callable[[], np.ndarray] | None
                   ) -> tuple[SoftCorpus, int, int]:
    """Augment corpus sentences start, start + 1, ... (given as
    *sentences*); returns their columns and the replaced and eligible
    (selectable) position counts.  ``smooth`` calls *cumulative* for its
    cumulative unigram, and only once a position is selected.

    Sentence i draws from ``SplitMix64(derive(seed, i))``: first one
    uniform per position, for the swap keys or the mask, then one draw per
    replacement in position order.  Each kind of draw is one array pass
    over the block, equal to each stream's scalar draws bit for bit.
    """
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    starts = _offsets(lengths)
    tokens = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64,
                         count=int(starts[-1]))
    if config.strategy in LM_STRATEGIES:
        # The model's prefix queries would back off past an unknown id.
        outside = tokens[(tokens < 0) | (tokens >= len(lm.vocab))]
        if len(outside):
            raise ValueError(f"id out of range: {outside[0]}")
    selectable = _selectable(tokens)
    eligible = int(np.count_nonzero(selectable))
    if config.strategy == "base" or config.gamma == 0.0:
        return SoftCorpus.hard(tokens, starts), 0, eligible
    seeds = derive_block(config.seed, start, len(sentences))
    u = stream_block(seeds, lengths)
    sentence_of = np.repeat(np.arange(len(sentences)), lengths)
    if config.strategy == "swap":
        # Position i of a sentence gets sort key i + u_i * (k + 1); a
        # stable sort of the keys within each sentence is the permutation.
        keys = np.arange(len(tokens)) - starts[sentence_of] + u * (config.window_k + 1)
        return SoftCorpus.hard(tokens[np.lexsort((keys, sentence_of))], starts), 0, eligible
    mask = _mask(selectable, u, config.gamma)
    replaced = int(np.count_nonzero(mask))
    if config.strategy == "dropout":
        # A sentence is never emptied: if every token would be dropped, one
        # uniformly chosen token survives, by a draw that follows the mask.
        keep = ~mask
        kept = np.bincount(sentence_of[keep], minlength=len(sentences))
        emptied = (kept == 0) & (lengths > 0)
        draws = stream_block(seeds, emptied, skip=lengths)
        keep[starts[:-1][emptied] + (draws * lengths[emptied]).astype(np.int64)] = True
        kept[emptied] = 1
        return SoftCorpus.hard(tokens[keep], _offsets(kept)), replaced - len(draws), eligible
    if config.strategy == "blank":
        out = tokens.copy()
        out[mask] = BLANK
        return SoftCorpus.hard(out, starts), replaced, eligible
    hits = np.flatnonzero(mask)
    owner = sentence_of[hits]
    at = (hits - starts[owner]).tolist()
    if config.strategy != "soft":
        draws = stream_block(seeds, np.bincount(owner, minlength=len(sentences)), skip=lengths)
        out = tokens.copy()
        if config.strategy == "lm_sample":
            out[hits] = [lm.sample(sentences[i][:pos], x)
                         for i, pos, x in zip(owner.tolist(), at, draws.tolist())]
        elif len(hits):
            cum = cumulative()
            out[hits] = np.searchsorted(cum, draws * cum[-1], side="right")
        return SoftCorpus.hard(out, starts), replaced, eligible
    # top_k gives every soft position min(k, |V|) entries, so the supports
    # fill the rows of two matrices, a row at a time: a list of the rows
    # would hold them twice over, |V| numbers each at topk = 0.  With
    # topk > 0 a row is the k most probable, renormalized; topk = 0 keeps
    # every token, bitwise ``next_dist``.
    k = config.topk or len(lm.vocab)
    ids = np.empty((len(hits), min(k, len(lm.vocab))), dtype=np.int64)
    probs = np.empty(ids.shape)
    for j, (i, pos) in enumerate(zip(owner.tolist(), at)):
        ids[j], probs[j] = lm.top_k(sentences[i][:pos], k)
    if config.topk:
        probs /= probs.sum(axis=1, keepdims=True)
    support = np.arange(len(hits) + 1, dtype=np.int64) * ids.shape[1]
    return SoftCorpus(tokens, starts, hits, support, ids.ravel(), probs.ravel()), replaced, eligible


def augment_corpus(
    sentences: list[Sentence],
    config: AugmentConfig,
    lm: NGramLM | None = None,
    unigram: np.ndarray | None = None,
    vocab_size: int | None = None,
    threads: int = 1,
    return_stats: bool = False,
    start: int = 0,
):
    """Apply one strategy to every sentence, deterministically; returns a
    ``SoftCorpus`` (hard unless the strategy is ``soft``).

    Output depends only on (sentences, config, start); the worker count
    changes scheduling, never bytes.  *start* is the corpus index of the
    first of *sentences*: sentence i draws from ``derive(seed, start +
    i)``, so a corpus augmented a window at a time, each window with its
    start and the whole corpus' unigram, gives the one call's result.
    ``smooth`` builds its unigram from *sentences* over *vocab_size* ids
    unless one is given, and only once a position is selected;
    ``lm_sample`` and ``soft`` refuse an id outside *lm*'s vocabulary, as
    ``perplexity`` does.  With ``return_stats=True`` also returns
    (replaced, eligible) position totals.

    Sentences go to ``_augment_block`` in bounded blocks of consecutive
    sentences, about four per worker when there are several; the blocks'
    columns are concatenated.
    """
    config.validate()
    # The identity paths start no pool, but take the same worker counts.
    check_threads(threads)
    if config.strategy in LM_STRATEGIES and lm is None:
        raise ValueError(f"strategy {config.strategy!r} requires a language model")
    if config.strategy == "base" or config.gamma == 0.0:
        parts = [_augment_block(sentences, start, config, lm, None)]
    else:
        @cache
        def cumulative() -> np.ndarray:
            return np.cumsum(_corpus_unigram(sentences, vocab_size) if unigram is None else unigram)

        tokens = sum(len(s) + 1 for s in sentences)
        budget = _BLOCK_TOKENS if threads <= 1 else min(_BLOCK_TOKENS, -(-tokens // (4 * threads)))
        ranges = []
        for block in sentence_blocks(sentences, budget):
            first = ranges[-1][1] if ranges else 0
            ranges.append((first, first + len(block)))
        parts = fork_map(
            lambda r: _augment_block(sentences[r[0]:r[1]], start + r[0], config, lm, cumulative),
            ranges, threads,
        ) or [_augment_block([], start, config, lm, cumulative)]
    out = SoftCorpus.concat([corpus for corpus, _, _ in parts])
    if not return_stats:
        return out
    return out, (sum(p[1] for p in parts), sum(p[2] for p in parts))


# -- soft corpus serialization (JSON Lines) --------------------------------


# The least positive normal float64.  From it up to (not including) 1, the
# shortest repr of float(f"{p:.12g}") is f"{p:.12g}" itself, except where
# the rounding reaches 1 and repr writes "1.0"; below it a subnormal may
# hold fewer digits than 12, and repr would write fewer.
_LEAST_NORMAL = 2.2250738585072014e-308


def _probs_texts(corpus: SoftCorpus) -> list[str]:
    """The JSON ``[[id, p], ...]`` of every soft position's support, each
    p the shortest repr of its 12-significant-digit rounding."""
    support = corpus.support
    # NaN fails both comparisons, and with it the one-format test.
    plain = (corpus.probs >= _LEAST_NORMAL) & (corpus.probs < 1.0)
    unplain = _offsets(~plain)
    one_format = ((support[1:] > support[:-1])
                  & (unplain[support[1:]] == unplain[support[:-1]])).tolist()
    flat = [None] * (2 * len(corpus.ids))
    flat[::2], flat[1::2] = corpus.ids.tolist(), corpus.probs.tolist()
    bounds = (2 * support).tolist()
    texts = []
    for fast, a, b in zip(one_format, bounds, bounds[1:]):
        if fast:
            # One format call for the word; a field that rounds to 1 would
            # need its ".0", and sends the word down the general path.
            text = "[%d,%.12g]," * ((b - a) // 2) % tuple(flat[a:b])
            if ",1]" not in text:
                texts.append(f"[{text[:-1]}]")
                continue
        texts.append(json.dumps([[int(i), float(f"{p:.12g}")] for i, p in
                                 zip(flat[a:b:2], flat[a + 1:b:2])], separators=(",", ":")))
    return texts


def _soft_lines(corpus: SoftCorpus) -> list[str]:
    """One JSON object per sentence (see ``parse_soft_line``), from the columns."""
    toks, starts = corpus.tokens.tolist(), corpus.starts.tolist()
    soft_at = corpus.soft_at.tolist()
    owner = (np.searchsorted(corpus.starts, corpus.soft_at, "right") - 1).tolist()
    entries = [f'"{at - starts[i]}":{{"orig":{toks[at]},"p":{p}}}'
               for at, i, p in zip(soft_at, owner, _probs_texts(corpus))]
    first_word = np.searchsorted(corpus.soft_at, corpus.starts).tolist()
    return [f'{{"toks":[{",".join(map(str, toks[a:b]))}],"soft":{{{",".join(entries[v:w])}}}}}'
            for a, b, v, w in zip(starts, starts[1:], first_word, first_word[1:])]


def _soft_line(sentence: SoftSentence) -> str:
    return _soft_lines(SoftCorpus.from_sentences([sentence]))[0]


def soft_corpus_lines(corpus: SoftCorpus) -> Iterator[str]:
    """The JSON Lines text of *corpus*, one line per sentence with its
    line break, formatted from the columns a chunk of sentences at a time."""
    for first in range(0, len(corpus), _CHUNK_SENTENCES):
        part = corpus.part(first, min(len(corpus), first + _CHUNK_SENTENCES))
        yield from (line + "\n" for line in _soft_lines(part))


def write_soft_corpus(path: str, sentences: SoftCorpus | Iterable[SoftSentence]) -> None:
    """One JSON object per line (see ``parse_soft_line``), formatted by
    ``soft_corpus_lines``.  Probabilities are written at 12 significant
    digits, as the shortest repr of that rounding, so write -> read ->
    write gives the same bytes."""
    corpus = sentences if isinstance(sentences, SoftCorpus) else SoftCorpus.from_sentences(sentences)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(soft_corpus_lines(corpus))


def _integer(value) -> int:
    # JSON gives int for integer literals only; bool is a subclass of int.
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _typed(values: list, types: tuple, kind: str, dtype) -> np.ndarray:
    """*values* as one array of *dtype*: the first whose type is not in
    *types* raises ValueError, else one that does not fit raises
    OverflowError."""
    for value in values:
        if type(value) not in types:
            raise ValueError(f"{value!r} is not {kind}")
    return np.array(values, dtype=dtype)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated JSON key")
    return obj


def parse_soft_line(line: str) -> SoftSentence:
    """One JSON Lines record; any malformed record raises ValueError.

    Tokens, ``orig`` and support ids must be JSON integers (tokens and
    ids within int64) and probabilities JSON numbers, and no object may
    repeat a key.  Each soft position must be written as a plain index
    into ``toks``, its ``orig`` must equal the token there, and its
    entries must form a valid distribution (``Dist.validate``).

    The checks run in record order, and the first failure's message is
    raised: the JSON, the tokens (each one's type, then its int64 fit),
    then each soft position in turn: its index, ``orig``, the [id, p]
    pair shapes, the probabilities' types and fit, the ids' types and fit
    and the distribution.  This is the rule ``read_soft_corpus`` holds a
    file to, and the message it reports for a malformed line.
    """
    try:
        if not line:
            raise ValueError("blank line")
        obj = json.loads(line, object_pairs_hook=_unique_keys)
        out = list(obj["toks"])
        # A token that does not fit comes before a later one of the wrong type.
        ints = list(itertools.takewhile(lambda t: type(t) is int, out))
        np.array(ints, dtype=np.int64)
        if len(ints) < len(out):
            raise ValueError(f"{out[len(ints)]!r} is not an integer")
        for pos_text, entry in obj.get("soft", {}).items():
            pos, orig = int(pos_text), _integer(entry["orig"])
            if pos_text != str(pos) or not 0 <= pos < len(out):
                raise ValueError(
                    f"soft position {pos_text!r} is not an index of a {len(out)}-token sentence"
                )
            if out[pos] != orig:
                raise ValueError(f"soft position {pos}: orig {orig} is not its token {out[pos]}")
            pairs = entry["p"]
            # Flattening would regroup the items of entries not of length
            # 2.  One of length 2 that is not a list is a string or an
            # object, whose items are strings, so a type check refuses it.
            if not set(map(len, pairs)) <= {2}:
                raise ValueError(f"soft position {pos}: an entry is not an [id, p] pair")
            flat = list(itertools.chain.from_iterable(pairs))
            probs = _typed(flat[1::2], (int, float), "a number", np.float64)
            dist = Dist(probs, _typed(flat[::2], (int,), "an integer", np.int64))
            dist.validate()
            out[pos] = SoftWord(dist, orig)
    except (KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed soft corpus line ({type(exc).__name__}: {exc})") from exc
    return out


def _supports_pass(ids: np.ndarray, probs: np.ndarray, support: np.ndarray,
                   tol: float = 1e-9) -> bool:
    """Whether every support ``ids[support[j]:support[j + 1]]`` (with the
    same slice of *probs*) passes ``Dist.validate``'s checks, run as array
    passes; each sum is numpy's sum of the slice, bit for bit."""
    if not (np.isfinite(probs).all() and (probs >= 0).all() and (ids >= 0).all()):
        return False
    sizes = np.diff(support)
    # Supports of one size form a matrix whose row sums are each slice's sum.
    for size in np.unique(sizes).tolist():
        grid = support[:-1][sizes == size][:, None] + np.arange(size)
        by_id = np.sort(ids[grid], axis=1)
        if ((np.abs(probs[grid].sum(axis=1) - 1.0) > tol).any()
                or (by_id[:, 1:] == by_id[:, :-1]).any()):
            return False
    return True


def _soft_records(lines: list[str]) -> SoftCorpus | None:
    """The soft corpus of *lines*, one JSON Lines record each, or None if
    any record is malformed; it accepts what ``parse_soft_line`` accepts.

    One pass over the lines parses the JSON and checks each record's
    shape.  The tokens, ids and probabilities are then each one type-set
    test and one array, and the supports are checked by ``_supports_pass``.
    """
    toks: list = []
    starts = [0]
    soft_at: list[int] = []
    sizes: list[int] = []
    # Every entry has two items, so the flat list alternates id, p; each
    # line's [id, p] lists are dropped with its record.
    flat: list = []
    try:
        for line in lines:
            obj = json.loads(line, object_pairs_hook=_unique_keys)
            out = list(obj["toks"])
            base = len(toks)
            toks.extend(out)
            starts.append(len(toks))
            for pos_text, entry in obj.get("soft", {}).items():
                pos, entry_pairs = int(pos_text), entry["p"]
                if (pos_text != str(pos) or not 0 <= pos < len(out)
                        or out[pos] != _integer(entry["orig"])
                        or not set(map(len, entry_pairs)) <= {2}):
                    return None
                soft_at.append(base + pos)
                sizes.append(len(entry_pairs))
                flat.extend(itertools.chain.from_iterable(entry_pairs))
        if not (set(map(type, toks)) <= {int} and set(map(type, flat[::2])) <= {int}
                and set(map(type, flat[1::2])) <= {int, float}):
            return None
        tokens = np.array(toks, dtype=np.int64)
        ids = np.array(flat[::2], dtype=np.int64)
        probs = np.array(flat[1::2], dtype=np.float64)
        # The support checks need only the arrays.
        toks.clear()
        flat.clear()
    except Exception:
        # Whatever failed, the caller's parse_soft_line says what.
        return None
    support = _offsets(sizes)
    if not _supports_pass(ids, probs, support):
        return None
    soft_at = np.array(soft_at, dtype=np.int64)
    if np.any(soft_at[1:] <= soft_at[:-1]):
        # A record may list its soft positions in any order.
        order = np.argsort(soft_at, kind="stable")
        moved = _offsets(np.diff(support)[order])
        source = np.repeat(support[:-1][order] - moved[:-1], np.diff(moved)) + np.arange(len(ids))
        soft_at, support, ids, probs = soft_at[order], moved, ids[source], probs[source]
    return SoftCorpus(tokens, np.array(starts, dtype=np.int64), soft_at, support, ids, probs)


def read_soft_corpus(path: str) -> SoftCorpus:
    """One soft sentence per line, as a ``SoftCorpus``, read from
    ``iter_lines`` and parsed and checked a chunk of lines at a time by
    ``_soft_records``.  A blank line is refused: dropping it would shift
    every later sentence one place off its label.  A chunk that it
    refuses is parsed again line by line by ``parse_soft_line``, and the
    first line that fails is named with its message.

    Beyond the corpus it returns, it holds one block of the file and one
    chunk's lines and parse.  Each column grows as an ``array.array``,
    whose appends reallocate it in place where they can, and the result's
    arrays view those buffers: no column is ever copied whole."""
    # Tokens, sentence lengths, soft positions, support sizes, ids, probabilities.
    columns = [array("q") for _ in range(5)] + [array("d")]
    lines = iter_lines(path)
    first = 0
    while chunk := list(itertools.islice(lines, _CHUNK_SENTENCES)):
        part = _soft_records(chunk)
        if part is None:
            sentences = []
            for lineno, line in enumerate(chunk, first + 1):
                try:
                    sentences.append(parse_soft_line(line))
                except ValueError as exc:
                    raise ValueError(f"line {lineno} of {path}: {exc}") from exc
            part = SoftCorpus.from_sentences(sentences)
        shift = len(columns[0])
        for column, values in zip(columns, (part.tokens, np.diff(part.starts), part.soft_at + shift,
                                            np.diff(part.support), part.ids, part.probs)):
            column.frombytes(values.tobytes())
        first += len(chunk)
    tokens, lengths, soft_at, sizes, ids = (np.frombuffer(c, dtype=np.int64) for c in columns[:5])
    probs = np.frombuffer(columns[5], dtype=np.float64)
    return SoftCorpus(tokens, _offsets(lengths), soft_at, _offsets(sizes), ids, probs)
