"""Per-token corpus augmentation strategies.

Seven strategies: ``base`` (identity), ``swap`` (bounded local shuffle),
``dropout`` (token deletion), ``blank`` (placeholder substitution),
``smooth`` (unigram resampling), ``lm_sample`` (language model
resampling) and ``soft`` (replace the token by its next-token
distribution, to be mixed in embedding space downstream).  The last four
share one driver: it draws the selection mask, then asks the strategy for
a replacement at each selected position in order, and counts them.

Selection is an independent Bernoulli(gamma) event per position, computed
on the original sentence; prefixes handed to the language model likewise
use original tokens, so positions never interact and any number of workers
produces byte-identical output.  Sentence i always draws from the stream
``SplitMix64(derive(seed, i))``, and every strategy consumes one selection
uniform per position before any replacement draws.  ``augment_corpus``
is the one way in: it draws those uniforms and the masks for a bounded
block of sentences in one array pass, bit for bit the scalar stream's
draws.  To reproduce one sentence's augmentation, take sentence i of an
``augment_corpus`` run with the same seed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable

import numpy as np

from .corpus import (
    BLANK, BOS, EOS, NUM_SPECIALS, Sentence, read_text, sentence_blocks, split_lines,
)
from .lm import NGramLM
from .parallel import fork_map
from .rng import SplitMix64, derive_block, stream_block

STRATEGIES = ("base", "swap", "dropout", "blank", "smooth", "lm_sample", "soft")
LM_STRATEGIES = ("lm_sample", "soft")

# Framing and placeholder ids are never replaced; UNK is an ordinary token.
_UNSELECTABLE = frozenset((BOS, EOS, BLANK))

# Tokens (and EOSes) per block of ``augment_corpus``: a block's uniforms
# and masks are one array pass, and its memory stays bounded.
_BLOCK_TOKENS = 1 << 16


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

    def __reduce__(self):
        # Raw buffers pickle in about half the time of two ndarrays, which
        # is what a pooled soft pass spends returning its results; the
        # arrays come back read-only, views of the unpickled bytes.
        return _dist_from_buffers, (self.probs.dtype.str, self.probs.tobytes(),
                                    self.ids.dtype.str, self.ids.tobytes())

    def entries(self) -> list[tuple[int, float]]:
        return [(int(i), float(p)) for i, p in zip(self.ids, self.probs)]

    def validate(self, tol: float = 1e-9) -> None:
        if len(self.ids) != len(self.probs):
            raise ValueError(f"{len(self.ids)} ids but {len(self.probs)} probabilities")
        if not np.isfinite(self.probs).all():
            raise ValueError("non-finite probability")
        if (self.probs < 0).any():
            raise ValueError("negative probability")
        if (self.ids < 0).any():
            raise ValueError("negative id in distribution")
        if abs(float(self.probs.sum()) - 1.0) > tol:
            raise ValueError("probabilities do not sum to 1")
        if len(set(self.ids.tolist())) != len(self.ids):
            raise ValueError("duplicate ids in distribution")


def _dist_from_buffers(probs_dtype: str, probs: bytes, ids_dtype: str, ids: bytes) -> Dist:
    return Dist(np.frombuffer(probs, probs_dtype), np.frombuffer(ids, ids_dtype))


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


@dataclass(frozen=True)
class AugmentConfig:
    strategy: str = "base"
    gamma: float = 0.0
    window_k: int = 3
    topk: int = 32
    seed: int = 0

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy: {self.strategy!r}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.window_k < 1:
            raise ValueError("window must be >= 1")
        if self.topk < 0:
            raise ValueError("topk must be >= 0")


def _mask(tokens: np.ndarray, u: np.ndarray, gamma: float) -> np.ndarray:
    """The selection rule: a position is selected when its uniform is below
    gamma and its token is not BOS, EOS or BLANK."""
    return (u < gamma) & (tokens != BOS) & (tokens != EOS) & (tokens != BLANK)


def _swapped(sentence: Sentence, u: np.ndarray, k: int) -> Sentence:
    """Permute tokens so that nothing moves more than k positions: position
    i gets sort key i + u_i * (k + 1), and a stable sort of the keys gives
    the permutation."""
    order = np.argsort(np.arange(len(u)) + u * (k + 1), kind="stable")
    return [sentence[j] for j in order.tolist()]


def _dropped(sentence: Sentence, mask: list[bool], rng: SplitMix64) -> Sentence:
    """Drop the selected tokens.  A sentence is never emptied: if every
    token would be dropped, one uniformly chosen token survives, by a draw
    that follows the mask."""
    kept = [t for t, drop in zip(sentence, mask) if not drop]
    if not kept and sentence:
        kept = [sentence[rng.randint(len(sentence))]]
    return kept


def _replaced(sentence: Sentence, mask: list[bool], rng: SplitMix64, replace: Callable
              ) -> tuple[list, int]:
    """``replace(sentence, pos, rng)`` at each selected position in order;
    returns (result, replaced positions)."""
    out = list(sentence)
    replaced = 0
    for pos, hit in enumerate(mask):
        if hit:
            out[pos] = replace(sentence, pos, rng)
            replaced += 1
    return out, replaced


def _blank_at(sentence: Sentence, pos: int, rng: SplitMix64) -> int:
    return BLANK


def _unigram_at(cum: Callable[[], np.ndarray], sentence: Sentence, pos: int,
                rng: SplitMix64) -> int:
    table = cum()
    return int(np.searchsorted(table, rng.random() * table[-1], side="right"))


def _lm_sample_at(lm: NGramLM, sentence: Sentence, pos: int, rng: SplitMix64) -> int:
    return lm.sample(sentence[:pos], rng)


def _soft_at(lm: NGramLM, topk: int, sentence: Sentence, pos: int, rng: SplitMix64) -> SoftWord:
    """The contextual distribution at *pos* from ``lm.top_k``, with
    probabilities bitwise equal to ``next_dist``: with topk > 0 the k most
    probable, renormalized; topk = 0 keeps every token, not renormalized.
    Either way a position evaluates the dense distribution, O(|V|)."""
    ids, probs = lm.top_k(sentence[:pos], topk or len(lm.vocab))
    return SoftWord(Dist(probs / probs.sum() if topk else probs, ids), sentence[pos])


def _replacement(strategy: str, lm: NGramLM | None = None,
                 unigram: Callable[[], np.ndarray] | None = None, topk: int = 0):
    """The per-position replacement of a masked strategy, or None.

    ``smooth`` takes a function that builds its unigram; the cumulative
    table is made at the first selected position, so a corpus with none
    needs no unigram.
    """
    if strategy == "blank":
        return _blank_at
    if strategy == "smooth":
        return partial(_unigram_at, cache(lambda: np.cumsum(unigram())))
    if strategy == "lm_sample":
        return partial(_lm_sample_at, lm)
    if strategy == "soft":
        return partial(_soft_at, lm, topk)
    return None


def _corpus_unigram(sentences: list[Sentence], size: int | None) -> np.ndarray:
    if size is None:
        size = max((max(s) for s in sentences if s), default=NUM_SPECIALS - 1) + 1
    return unigram_dist(sentences, size)


def _augment_block(sentences: list[Sentence], start: int, config: AugmentConfig,
                   replace: Callable | None) -> list[tuple[list, int]]:
    """Augment corpus sentences start, start + 1, ... (given as
    *sentences*); returns (result, replaced-position count) per sentence.

    Sentence i draws from ``SplitMix64(derive(seed, i))``: first one
    uniform per position, for the swap keys or the mask, then any
    replacement draws.  The block's uniforms and masks are computed in one
    array pass, equal to each stream's scalar draws bit for bit; each
    sentence's remaining draws come from its stream advanced past them.
    """
    lengths = [len(s) for s in sentences]
    seeds = derive_block(config.seed, start, len(sentences))
    u = stream_block(seeds, np.array(lengths, dtype=np.int64))
    cuts = list(itertools.accumulate(lengths, initial=0))
    if config.strategy == "swap":
        return [(_swapped(s, u[a:b], config.window_k), 0)
                for s, a, b in zip(sentences, cuts, cuts[1:])]
    tokens = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.int64, count=cuts[-1])
    mask = _mask(tokens, u, config.gamma).tolist()
    out = []
    for sentence, seed, a, b in zip(sentences, seeds.tolist(), cuts, cuts[1:]):
        rng = SplitMix64(seed)
        rng.skip(b - a)
        if config.strategy == "dropout":
            kept = _dropped(sentence, mask[a:b], rng)
            out.append((kept, len(sentence) - len(kept)))
        else:
            out.append(_replaced(sentence, mask[a:b], rng, replace))
    return out


def augment_corpus(
    sentences: list[Sentence],
    config: AugmentConfig,
    lm: NGramLM | None = None,
    unigram: np.ndarray | None = None,
    vocab_size: int | None = None,
    threads: int = 1,
    return_stats: bool = False,
):
    """Apply one strategy to every sentence, deterministically.

    Output depends only on (sentences, config); the worker count changes
    scheduling, never bytes.  ``smooth`` builds its unigram from
    *sentences* over *vocab_size* ids unless one is given, and only once
    a position is selected.  With ``return_stats=True`` also returns
    (replaced, eligible) position totals.

    Sentences go to ``_augment_block`` in bounded blocks of consecutive
    sentences, about four per worker when there are several.
    """
    config.validate()
    if config.strategy in LM_STRATEGIES and lm is None:
        raise ValueError(f"strategy {config.strategy!r} requires a language model")
    if config.strategy == "base" or config.gamma == 0.0:
        results = [(list(s), 0) for s in sentences]
    else:
        build_unigram = (partial(_corpus_unigram, sentences, vocab_size) if unigram is None
                         else lambda: unigram)
        replace = _replacement(config.strategy, lm, build_unigram, config.topk)
        tokens = sum(len(s) + 1 for s in sentences)
        budget = _BLOCK_TOKENS if threads <= 1 else min(_BLOCK_TOKENS, -(-tokens // (4 * threads)))
        ranges = []
        for block in sentence_blocks(sentences, budget):
            start = ranges[-1][1] if ranges else 0
            ranges.append((start, start + len(block)))
        parts = fork_map(
            lambda r: _augment_block(sentences[r[0]:r[1]], r[0], config, replace), ranges, threads
        )
        results = [r for part in parts for r in part]

    out = [r[0] for r in results]
    if not return_stats:
        return out
    replaced = sum(r[1] for r in results)
    eligible = sum(1 for s in sentences for t in s if t not in _UNSELECTABLE)
    return out, (replaced, eligible)


# -- soft corpus serialization (JSON Lines) --------------------------------


# The least positive normal float64.  From it up to (not including) 1, the
# shortest repr of float(f"{p:.12g}") is f"{p:.12g}" itself, except where
# the rounding reaches 1 and repr writes "1.0"; below it a subnormal may
# hold fewer digits than 12, and repr would write fewer.
_LEAST_NORMAL = 2.2250738585072014e-308


def _probs_text(dist: Dist) -> str:
    """The JSON ``[[id, p], ...]`` of *dist*, each p the shortest repr of
    its 12-significant-digit rounding."""
    ids, probs = dist.ids.tolist(), dist.probs.tolist()
    # numpy's min and max propagate NaN, which then fails the range test.
    if probs and _LEAST_NORMAL <= dist.probs.min() and dist.probs.max() < 1.0:
        # One format call for the word; a field that rounds to 1 would
        # need its ".0", and sends the word down the general path.
        flat = tuple(itertools.chain.from_iterable(zip(ids, probs)))
        text = "[%d,%.12g]," * (len(flat) // 2) % flat
        if ",1]" not in text:
            return f"[{text[:-1]}]"
    return json.dumps([[int(i), float(f"{p:.12g}")] for i, p in zip(ids, probs)],
                      separators=(",", ":"))


def _soft_line(sentence: SoftSentence) -> str:
    toks = []
    soft = []
    for pos, item in enumerate(sentence):
        if isinstance(item, SoftWord):
            toks.append(item.original_id)
            soft.append(f'"{pos}":{{"orig":{json.dumps(item.original_id)},'
                        f'"p":{_probs_text(item.dist)}}}')
        else:
            toks.append(int(item))
    return f'{{"toks":{json.dumps(toks, separators=(",", ":"))},"soft":{{{",".join(soft)}}}}}'


def write_soft_corpus(path: str, sentences: Iterable[SoftSentence]) -> None:
    """One JSON object per line (see ``parse_soft_line``), written as each
    sentence comes.  Probabilities are written at 12 significant digits,
    as the shortest repr of that rounding, so write -> read -> write gives
    the same bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            fh.write(_soft_line(s) + "\n")


def _integer(value) -> int:
    # JSON gives int for integer literals only; bool is a subclass of int.
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _number(value) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _integers(values) -> list[int]:
    """*values* as a list, checked per array; ``_integer`` names the culprit."""
    if not set(map(type, values)) <= {int}:
        [_integer(v) for v in values]
    return list(values)


def _numbers(values) -> list:
    if not set(map(type, values)) <= {int, float}:
        [_number(v) for v in values]
    return list(values)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated JSON key")
    return obj


def parse_soft_line(line: str) -> SoftSentence:
    """One JSON Lines record; any malformed record raises ValueError.

    Tokens, ``orig`` and support ids must be JSON integers and
    probabilities JSON numbers, and no object may repeat a key.  Each
    soft position must be written as a
    plain index into ``toks``, its ``orig`` must equal the token there,
    and its entries must form a valid distribution.
    """
    try:
        obj = json.loads(line, object_pairs_hook=_unique_keys)
        out: SoftSentence = _integers(obj["toks"])
        for pos_text, entry in obj.get("soft", {}).items():
            pos, orig = int(pos_text), _integer(entry["orig"])
            if pos_text != str(pos) or not 0 <= pos < len(out):
                raise ValueError(
                    f"soft position {pos_text!r} is not an index of a {len(out)}-token sentence"
                )
            if out[pos] != orig:
                raise ValueError(f"soft position {pos}: orig {orig} is not its token {out[pos]}")
            pairs = entry["p"]
            # zip(*) would drop or regroup the items of entries not of length
            # 2.  One of length 2 that is not a list is a string or an
            # object, whose items are strings, so the id check refuses it.
            if not set(map(len, pairs)) <= {2}:
                raise ValueError(f"soft position {pos}: an entry is not an [id, p] pair")
            ids, probs = zip(*pairs) if pairs else ((), ())
            dist = Dist(np.array(_numbers(probs), dtype=np.float64),
                        np.array(_integers(ids), dtype=np.int64))
            dist.validate()
            out[pos] = SoftWord(dist, orig)
    except (KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed soft corpus line ({type(exc).__name__}: {exc})") from exc
    return out


def read_soft_corpus(path: str) -> list[SoftSentence]:
    """One soft sentence per line.  A blank line is refused: dropping it
    would shift every later sentence one place off its label."""
    out = []
    for lineno, line in enumerate(split_lines(read_text(path)), 1):
        try:
            if not line:
                raise ValueError("blank line")
            out.append(parse_soft_line(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno} of {path}: {exc}") from exc
    return out
