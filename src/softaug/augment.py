"""Per-token corpus augmentation strategies.

Seven strategies share one driver: ``base`` (identity), ``swap`` (bounded
local shuffle), ``dropout`` (token deletion), ``blank`` (placeholder
substitution), ``smooth`` (unigram resampling), ``lm_sample`` (language
model resampling) and ``soft`` (replace the token by the full next-token
distribution, to be mixed in embedding space downstream).

Selection is an independent Bernoulli(gamma) event per position, computed
on the original sentence; prefixes handed to the language model likewise
use original tokens, so positions never interact and any number of workers
produces byte-identical output.  Sentence i always draws from the stream
``SplitMix64(derive(seed, i))``, and every strategy consumes one selection
uniform per position before any replacement draws.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import BLANK, BOS, EOS, NUM_SPECIALS, Sentence
from .lm import NGramLM
from .rng import SplitMix64, derive

STRATEGIES = ("base", "swap", "dropout", "blank", "smooth", "lm_sample", "soft")
LM_STRATEGIES = ("lm_sample", "soft")

# Framing and placeholder ids are never replaced; UNK is an ordinary token.
_UNSELECTABLE = frozenset((BOS, EOS, BLANK))


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability distribution over token ids.

    Dense when ``ids`` is None (``probs[j]`` belongs to id j), otherwise a
    sparse pairing of ``ids`` and ``probs`` ordered by probability
    descending with id-ascending tie-break.
    """

    probs: np.ndarray
    ids: np.ndarray | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        if (self.ids is None) != (other.ids is None):
            return False
        if self.ids is not None and not np.array_equal(self.ids, other.ids):
            return False
        return np.array_equal(self.probs, other.probs)

    @property
    def is_dense(self) -> bool:
        return self.ids is None

    def entries(self) -> list[tuple[int, float]]:
        if self.ids is None:
            order = np.lexsort((np.arange(len(self.probs)), -self.probs))
            return [(int(i), float(self.probs[i])) for i in order]
        return [(int(i), float(p)) for i, p in zip(self.ids, self.probs)]

    def validate(self, tol: float = 1e-9) -> None:
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("non-finite probability")
        if np.any(self.probs < 0):
            raise ValueError("negative probability")
        if self.ids is not None and np.any(self.ids < 0):
            raise ValueError("negative id in sparse distribution")
        if abs(float(self.probs.sum()) - 1.0) > tol:
            raise ValueError("probabilities do not sum to 1")
        if self.ids is not None and len(set(self.ids.tolist())) != len(self.ids):
            raise ValueError("duplicate ids in sparse distribution")


def top_k(dense: np.ndarray, k: int) -> Dist:
    """Keep the k most probable entries (ties id-ascending) and renormalize."""
    if k <= 0:
        return Dist(dense.copy())
    order = np.lexsort((np.arange(len(dense)), -dense))[: min(k, len(dense))]
    probs = dense[order]
    return Dist(probs / probs.sum(), order.astype(np.int64))


def unigram_dist(sentences: Iterable[Sentence], size: int) -> Dist:
    """Unigram frequency distribution over non-special token ids."""
    counts = np.zeros(size, dtype=np.float64)
    for sent in sentences:
        for t in sent:
            if t >= NUM_SPECIALS:
                counts[t] += 1
    total = counts.sum()
    if total == 0:
        raise ValueError("no non-special tokens to build a unigram distribution")
    return Dist(counts / total)


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
            raise ValueError("window_k must be >= 1")
        if self.topk < 0:
            raise ValueError("topk must be >= 0")


def select_positions(sentence: Sentence, gamma: float, rng: SplitMix64) -> list[bool]:
    """Bernoulli(gamma) selection mask, one uniform per position.

    Specials are never selected; their uniform is still consumed so the
    mask depends only on (sentence, stream position).
    """
    mask = []
    for t in sentence:
        u = rng.random()
        mask.append(u < gamma and t not in _UNSELECTABLE)
    return mask


def augment_swap(sentence: Sentence, k: int, rng: SplitMix64) -> Sentence:
    """Permute tokens so that nothing moves more than k positions.

    Position i gets sort key i + u_i * (k + 1) with u_i uniform on [0, 1);
    a stable sort of the keys yields the permutation.
    """
    if k < 1:
        raise ValueError("window size must be >= 1")
    keys = [i + rng.random() * (k + 1) for i in range(len(sentence))]
    order = sorted(range(len(sentence)), key=keys.__getitem__)
    return [sentence[j] for j in order]


def augment_dropout(sentence: Sentence, gamma: float, rng: SplitMix64) -> Sentence:
    """Drop each eligible token independently with probability gamma.

    A sentence is never emptied: if every token would be dropped, one
    uniformly chosen token survives.
    """
    mask = select_positions(sentence, gamma, rng)
    kept = [t for t, drop in zip(sentence, mask) if not drop]
    if not kept and sentence:
        kept = [sentence[rng.randint(len(sentence))]]
    return kept


def augment_blank(sentence: Sentence, gamma: float, rng: SplitMix64) -> Sentence:
    mask = select_positions(sentence, gamma, rng)
    return [BLANK if hit else t for t, hit in zip(sentence, mask)]


def augment_smooth(sentence: Sentence, gamma: float, unigram: Dist, rng: SplitMix64) -> Sentence:
    """Replace selected tokens by draws from the unigram distribution."""
    mask = select_positions(sentence, gamma, rng)
    cum = np.cumsum(unigram.probs)
    out = []
    for t, hit in zip(sentence, mask):
        if hit:
            draw = rng.random() * cum[-1]
            out.append(int(np.searchsorted(cum, draw, side="right")))
        else:
            out.append(t)
    return out


def augment_lm_sample(sentence: Sentence, gamma: float, lm: NGramLM, rng: SplitMix64) -> Sentence:
    """Replace selected tokens by samples from the model's next-token
    distribution; prefixes are the original tokens."""
    mask = select_positions(sentence, gamma, rng)
    return [
        lm.sample(sentence[:pos], rng) if hit else t
        for pos, (t, hit) in enumerate(zip(sentence, mask))
    ]


def augment_soft(
    sentence: Sentence, gamma: float, lm: NGramLM, topk: int, rng: SplitMix64
) -> SoftSentence:
    """Replace selected tokens by their contextual distribution.

    With topk > 0 the k most probable entries come from ``lm.top_k``,
    which evaluates only the history supports and the head of the unigram
    order, so a position costs about the same at any |V|; they are
    renormalized exactly as ``top_k`` renormalizes the dense vector, so
    the bytes match.  topk = 0 stores the dense ``next_dist`` in full, at
    O(|V|) per position.
    """
    mask = select_positions(sentence, gamma, rng)
    out: SoftSentence = []
    for pos, (t, hit) in enumerate(zip(sentence, mask)):
        if not hit:
            out.append(t)
        elif topk > 0:
            ids, probs = lm.top_k(sentence[:pos], topk)
            out.append(SoftWord(Dist(probs / probs.sum(), ids), t))
        else:
            out.append(SoftWord(Dist(lm.next_dist(sentence[:pos])), t))
    return out


def _augment_one(
    sentence: Sentence,
    index: int,
    config: AugmentConfig,
    lm: NGramLM | None,
    unigram: Dist | None,
) -> tuple[list, int]:
    """Augment one sentence; returns (result, replaced-position count)."""
    s = config.strategy
    if s == "base" or config.gamma == 0.0:
        return list(sentence), 0
    rng = SplitMix64(derive(config.seed, index))
    if s == "swap":
        return augment_swap(sentence, config.window_k, rng), 0
    if s == "dropout":
        out = augment_dropout(sentence, config.gamma, rng)
        return out, len(sentence) - len(out)
    if s == "blank":
        out = augment_blank(sentence, config.gamma, rng)
    elif s == "smooth":
        out = augment_smooth(sentence, config.gamma, unigram, rng)
    elif s == "lm_sample":
        out = augment_lm_sample(sentence, config.gamma, lm, rng)
    else:
        out = augment_soft(sentence, config.gamma, lm, config.topk, rng)
    # Selection draws precede all replacement draws, so replaying the mask
    # with a fresh stream recovers exactly which positions were replaced.
    mask = select_positions(sentence, config.gamma, SplitMix64(derive(config.seed, index)))
    return out, sum(mask)


_WORKER_STATE: tuple | None = None


def _init_worker(config, lm, unigram):
    global _WORKER_STATE
    _WORKER_STATE = (config, lm, unigram)


def _run_chunk(args: tuple[int, list[Sentence]]) -> list[tuple[list, int]]:
    start, chunk = args
    config, lm, unigram = _WORKER_STATE
    return [_augment_one(s, start + j, config, lm, unigram) for j, s in enumerate(chunk)]


def augment_corpus(
    sentences: list[Sentence],
    config: AugmentConfig,
    lm: NGramLM | None = None,
    unigram: Dist | None = None,
    vocab_size: int | None = None,
    threads: int = 1,
    return_stats: bool = False,
):
    """Apply one strategy to every sentence, deterministically.

    Output depends only on (sentences, config); the worker count changes
    scheduling, never bytes.  With ``return_stats=True`` also returns
    (replaced, eligible) position totals.
    """
    config.validate()
    if config.strategy in LM_STRATEGIES and lm is None:
        raise ValueError(f"strategy {config.strategy!r} requires a language model")
    if config.strategy == "smooth" and unigram is None:
        if vocab_size is None:
            vocab_size = max((max(s) for s in sentences if s), default=NUM_SPECIALS - 1) + 1
        unigram = unigram_dist(sentences, vocab_size)

    if threads <= 1:
        results = [_augment_one(s, i, config, lm, unigram) for i, s in enumerate(sentences)]
    else:
        chunk_size = max(1, (len(sentences) + threads * 4 - 1) // (threads * 4))
        chunks = [
            (lo, sentences[lo : lo + chunk_size])
            for lo in range(0, len(sentences), chunk_size)
        ]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(threads, initializer=_init_worker, initargs=(config, lm, unigram)) as pool:
            results = [r for batch in pool.map(_run_chunk, chunks) for r in batch]

    out = [r[0] for r in results]
    if not return_stats:
        return out
    replaced = sum(r[1] for r in results)
    eligible = sum(1 for s in sentences for t in s if t not in _UNSELECTABLE)
    return out, (replaced, eligible)


# -- soft corpus serialization (JSON Lines) --------------------------------


def _soft_line(sentence: SoftSentence) -> str:
    toks = []
    soft: dict[str, dict] = {}
    for pos, item in enumerate(sentence):
        if isinstance(item, SoftWord):
            toks.append(item.original_id)
            soft[str(pos)] = {
                "orig": item.original_id,
                "p": [[i, float(f"{p:.12g}")] for i, p in item.dist.entries()],
            }
        else:
            toks.append(int(item))
    return json.dumps({"toks": toks, "soft": soft}, separators=(",", ":"))


def write_soft_corpus(path: str, sentences: Iterable[SoftSentence]) -> None:
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


def parse_soft_line(line: str) -> SoftSentence:
    """One JSON Lines record; any malformed record raises ValueError.

    Tokens, ``orig`` and support ids must be JSON integers and
    probabilities JSON numbers.  Each soft position must be written as a
    plain index into ``toks``, its ``orig`` must equal the token there,
    and its entries must form a valid distribution.
    """
    try:
        obj = json.loads(line)
        out: SoftSentence = [_integer(t) for t in obj["toks"]]
        for pos_text, entry in obj.get("soft", {}).items():
            pos, orig = int(pos_text), _integer(entry["orig"])
            if pos_text != str(pos) or not 0 <= pos < len(out):
                raise ValueError(
                    f"soft position {pos_text!r} is not an index of a {len(out)}-token sentence"
                )
            if out[pos] != orig:
                raise ValueError(f"soft position {pos}: orig {orig} is not its token {out[pos]}")
            ids = np.array([_integer(i) for i, _ in entry["p"]], dtype=np.int64)
            probs = np.array([_number(p) for _, p in entry["p"]], dtype=np.float64)
            dist = Dist(probs, ids)
            dist.validate()
            out[pos] = SoftWord(dist, orig)
    except (KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed soft corpus line ({type(exc).__name__}: {exc})") from exc
    return out


def read_soft_corpus(path: str) -> list[SoftSentence]:
    from .corpus import read_text

    return [parse_soft_line(line) for line in read_text(path).splitlines() if line]
