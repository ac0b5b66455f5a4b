"""Independent reference implementations used as test oracles.

Everything here is deliberately written from scratch against the declared
behavior (plain dicts, recursive evaluation, per-coordinate loops) and
shares no code with the package internals it checks.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

import softaug as sa
from softaug.augment import Dist, SoftWord
from softaug.rng import SplitMix64, derive

BOS_ID, EOS_ID, BLANK_ID = 0, 1, 3


class BruteNGram:
    """Dict-based absolute-discounting evaluator, direct recursion."""

    def __init__(self, sentences, vocab_size, order, discount, alpha):
        self.order = order
        self.discount = discount
        self.alpha = alpha
        self.vocab_size = vocab_size
        self.pair: dict[tuple, dict[int, int]] = {}
        for sent in sentences:
            padded = [BOS_ID] * (order - 1) + list(sent) + [EOS_ID]
            for t in range(order - 1, len(padded)):
                for k in range(order):
                    hist = tuple(padded[t - k : t])
                    self.pair.setdefault(hist, {})
                    w = padded[t]
                    self.pair[hist][w] = self.pair[hist].get(w, 0) + 1
        self.total_events = sum(self.pair.get((), {}).values())

    def prob(self, hist: tuple, w: int) -> float:
        if len(hist) == 0:
            c = self.pair.get((), {}).get(w, 0)
            return (c + self.alpha) / (self.total_events + self.alpha * self.vocab_size)
        table = self.pair.get(hist)
        if not table:
            return self.prob(hist[1:], w)
        ch = sum(table.values())
        cw = table.get(w, 0)
        n1 = len(table)
        disc = max(cw - self.discount, 0.0) / ch
        lam = self.discount * n1 / ch
        return disc + lam * self.prob(hist[1:], w)

    def next_dist(self, prefix) -> list[float]:
        n = self.order - 1
        hist = ()
        if n:
            padded = [BOS_ID] * n + list(prefix)
            hist = tuple(padded[len(padded) - n :])
        return [self.prob(hist, w) for w in range(self.vocab_size)]


def count_tables(grams, order: int) -> list[dict[tuple, dict[int, int]]]:
    """History -> {next id: count} dicts for history lengths 0..order-1,
    from (order-n gram, count) pairs, one gram at a time: a gram's count
    adds to each suffix of its history."""
    counts: list[dict[tuple, dict[int, int]]] = [dict() for _ in range(order)]
    top = order - 1
    for gram, c in grams:
        w = gram[-1]
        for k, level in enumerate(counts):
            table = level.setdefault(tuple(gram[top - k : top]), {})
            table[w] = table.get(w, 0) + c
    return counts


def level_tables(grams: np.ndarray, counts: np.ndarray, discount: float) -> list[dict]:
    """Per history length k: history -> (next ids ascending, their summed
    counts, (count - D) / c(h), D * N1plus(h) / c(h)), one dict entry and
    one set of arrays per history, from one lexsort of each length's rows."""
    order = grams.shape[1]
    levels = []
    for k in range(order):
        rows = grams[:, order - 1 - k :]
        level = {}
        if len(rows):
            by_row = np.lexsort(rows.T[::-1])
            rows, cnts = rows[by_row], counts[by_row]
            firsts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])
            rows, cnts = rows[firsts], np.add.reduceat(cnts, firsts)
            heads = np.flatnonzero((rows[1:, :-1] != rows[:-1, :-1]).any(axis=1)) + 1
            cuts = [0, *heads.tolist(), len(rows)]
            for a, b in zip(cuts, cuts[1:]):
                ids, c = rows[a:b, -1].copy(), cnts[a:b]
                total = float(c.sum())
                level[tuple(rows[a, :-1].tolist())] = (ids, c, (c - discount) / total,
                                                        discount * len(ids) / total)
        levels.append(level)
    return levels


def read_count_file(text: str, path: str = "<string>"):
    """A count file read one line at a time: (order, discount, alpha,
    vocabulary entries, grams, counts), or the ValueError of its first
    malformed line (the text after the end marker is not read)."""
    numbered = enumerate(text.splitlines(), 1)
    first = next(numbered, (1, ""))[1]
    head = first.split()
    if head[:2] != ["#ngram-counts", "v1"]:
        raise ValueError(f"{path} is not an n-gram count file (no '#ngram-counts v1' header)")
    try:
        fields = dict(field.split("=", 1) for field in head[2:])
        order, events, size = (int(fields[key]) for key in ("order", "events", "vocab"))
        discount, alpha = float(fields["discount"]), float(fields["alpha"])
        if events >= 2**63:
            raise ValueError("counts above int64")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad header in {path}: {first!r}") from exc

    def data(lineno, line, least):
        count, tab, rest = line.partition("\t")
        if not (tab and count.isascii() and count.isdigit() and int(count) >= least):
            raise ValueError(f"line {lineno} of {path} is not 'count<TAB>text' "
                             f"with an integer count >= {least}: {line!r}")
        return int(count), rest

    entries = [data(lineno, line, 0) for lineno, line in itertools.islice(numbered, size)]
    if len(entries) != size:
        raise ValueError(f"{path} ends inside its vocabulary")
    index = {s: i for i, (_, s) in enumerate(entries)}
    grams, counts, prev = [], [], ()
    for lineno, line in numbered:
        if line == "\\end\\":
            break
        count, rest = data(lineno, line, 1)
        try:
            gram = tuple(index[s] for s in rest.split(" "))
        except KeyError as exc:
            raise ValueError(f"unknown surface {exc} on line {lineno} of {path}") from None
        if len(gram) != order or gram <= prev:
            raise ValueError(f"line {lineno} of {path} is not an order-{order} gram "
                             f"in ascending id order: {line!r}")
        prev = gram
        grams.append(gram)
        counts.append(count)
    else:
        raise ValueError(f"{path} has no \\end\\ line")
    if sum(counts) != events:
        raise ValueError(f"gram counts sum to {sum(counts)}, not {events}, in {path}")
    return order, discount, alpha, entries, grams, counts


def dump_whole_level(lm) -> str:
    """A model's count-file text, the whole top level converted to Python
    lists at once: the writer's output before it worked a block of
    histories at a time."""
    surfaces = lm.vocab.surfaces
    lines = [f"#ngram-counts v1 order={lm.order} discount={lm.discount!r} alpha={lm.alpha!r} "
             f"events={lm.total_events} vocab={len(surfaces)}\n"]
    lines += [f"{count}\t{surface}\n" for surface, count in zip(surfaces, lm.vocab.counts)]
    top = lm.counts[lm.order - 1]
    starts, ids, counts = top.starts.tolist(), top.ids.tolist(), top.counts.tolist()
    for hist, a, b in zip(top.hists.tolist(), starts, starts[1:]):
        prefix = "".join(surfaces[t] + " " for t in hist)
        lines += [f"{c}\t{prefix}{surfaces[w]}\n" for w, c in zip(ids[a:b], counts[a:b])]
    return "".join(lines) + "\\end\\\n"


def top_k(dense: np.ndarray, k: int) -> Dist:
    """The k most probable entries of a dense vector (ties id-ascending),
    renormalized: the dense reference for top-k soft words."""
    order = np.lexsort((np.arange(len(dense)), -dense))[: min(k, len(dense))]
    probs = dense[order]
    return Dist(probs / probs.sum(), order.astype(np.int64))


def brute_mix(entries, emb) -> list[float]:
    """Coordinate-by-coordinate accumulation of sum_j p_j * E_j."""
    dim = len(emb[0])
    out = [0.0] * dim
    for token_id, p in entries:
        row = emb[token_id]
        for d in range(dim):
            out[d] += p * row[d]
    return out


def bag_entries(sentence, vocab_size) -> tuple[list[int], list[float]]:
    """A sentence's distinct row ids, ascending, and each one's summed
    weight, from one dict entry per row: a hard id adds 1 and a support
    entry its p, in position order.  The reference for packing."""
    if not sentence:
        raise ValueError("empty sentence")
    acc: dict[int, float] = {}
    for item in sentence:
        if isinstance(item, SoftWord):
            for i, p in zip(item.dist.ids.tolist(), item.dist.probs.tolist()):
                acc[i] = acc.get(i, 0.0) + p
        else:
            acc[int(item)] = acc.get(int(item), 0.0) + 1.0
    ids = sorted(acc)
    if ids and (ids[0] < 0 or ids[-1] >= vocab_size):
        raise ValueError(f"id out of range: {ids[0] if ids[0] < 0 else ids[-1]}")
    return ids, [acc[i] for i in ids]


def pack_corpus(corpus, vocab_size):
    """(ids, weights, starts, lengths) of every sentence's ``bag_entries``
    in turn, as numpy arrays; the first bad sentence raises."""
    ids, weights, starts = [], [], [0]
    for sentence in corpus:
        sentence_ids, sentence_weights = bag_entries(sentence, vocab_size)
        ids += sentence_ids
        weights += sentence_weights
        starts.append(len(ids))
    return (np.array(ids, dtype=np.int64), np.array(weights, dtype=np.float64),
            np.array(starts, dtype=np.int64), np.array([len(s) for s in corpus], dtype=np.int64))


def sgd_step_oracle(sentence, label, emb, w, b, lr):
    """One SGD step of the mean-pool softmax classifier, per coordinate.

    *sentence* items are hard ids or lists of (id, p) pairs.  Returns
    (loss, emb, w, b) after the step, as nested lists.
    """
    n, dim, classes = len(sentence), len(emb[0]), len(b)
    positions = [item if isinstance(item, list) else [(item, 1.0)] for item in sentence]
    pooled = [0.0] * dim
    for entries in positions:
        mixed = brute_mix(entries, emb)
        for d in range(dim):
            pooled[d] += mixed[d] / n
    logits = [b[c] + sum(w[c][d] * pooled[d] for d in range(dim)) for c in range(classes)]
    top = max(logits)
    z = [math.exp(v - top) for v in logits]
    probs = [v / sum(z) for v in z]
    dlogits = [probs[c] - (1.0 if c == label else 0.0) for c in range(classes)]
    dpooled = [sum(w[c][d] * dlogits[c] for c in range(classes)) / n for d in range(dim)]
    new_emb = [list(row) for row in emb]
    for entries in positions:
        for token_id, p in entries:
            for d in range(dim):
                new_emb[token_id][d] -= lr * p * dpooled[d]
    new_w = [[w[c][d] - lr * dlogits[c] * pooled[d] for d in range(dim)] for c in range(classes)]
    new_b = [b[c] - lr * dlogits[c] for c in range(classes)]
    return -math.log(probs[label]), new_emb, new_w, new_b


def train_per_step(model, bags, labels, lr, steps, rng):
    """SGD as the step-at-a-time loop: a scalar ``randint`` draw, numpy's
    softmax, fresh gradient arrays and a ``-log`` per step.

    *bags* are the ``softmix.Bag`` items of a packed corpus.  Updates
    *model* in place and returns the loss trace; a lean training loop must
    match it bit for bit.
    """
    trace = []
    for _ in range(steps):
        i = rng.randint(len(bags))
        bag, label = bags[i], labels[i]
        pooled = bag.weights @ model.emb[bag.ids] / bag.length
        logits = model.w @ pooled + model.b
        z = np.exp(logits - logits.max())
        probs = z / z.sum()
        trace.append(-float(np.log(probs[label])))
        dlogits = probs
        dlogits[label] -= 1.0
        dpos = (model.w.T @ dlogits) / bag.length
        model.emb[bag.ids] -= lr * (bag.weights[:, None] * dpos)
        model.w -= lr * (dlogits[:, None] * pooled)
        model.b -= lr * dlogits
    return trace


def _end_marked(word: str) -> list[str]:
    syms = list(word)
    syms[-1] += "</w>"
    return syms


def _merge_pair(syms: list[str], pair: tuple) -> list[str]:
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and (syms[i], syms[i + 1]) == pair:
            out.append(syms[i] + syms[i + 1])
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def learn_bpe_quadratic(word_counts: dict[str, int], num_merges: int) -> tuple:
    """Greedy BPE learning that recounts every pair of every word for each
    merge: the highest weighted count wins, ties lexicographically
    ascending on (left, right)."""
    pieces = {w: _end_marked(w) for w in word_counts if w}
    merges = []
    for _ in range(num_merges):
        counts: dict[tuple, int] = {}
        for w, syms in pieces.items():
            for pair in zip(syms, syms[1:]):
                counts[pair] = counts.get(pair, 0) + word_counts[w]
        if not counts:
            break
        best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        merges.append(best)
        pieces = {w: _merge_pair(syms, best) for w, syms in pieces.items()}
    return tuple(merges)


def apply_bpe_in_order(word: str, merges) -> list[str]:
    """The symbols of *word* after running every merge once, in list order."""
    syms = _end_marked(word)
    for pair in merges:
        syms = _merge_pair(syms, pair)
    return syms


def task_label(surfaces: list[str], marker_classes) -> int:
    """Recompute a synthetic-task label from token surfaces alone."""
    for s in surfaces:
        cls = int(s[1 : s.index("w")])
        if cls in marker_classes:
            return 1
    return 0


def perplexity(lm, sentences) -> float:
    """Perplexity from one ``lm.logprob`` call per token, EOS included,
    added up in token order."""
    total = 0.0
    n = 0
    for sent in sentences:
        prefix: list[int] = []
        for token in list(sent) + [EOS_ID]:
            total += lm.logprob(prefix, token)
            prefix.append(token)
            n += 1
    if n == 0:
        raise ValueError("empty corpus")
    return math.exp(-total / n)


def soft_line(sentence) -> str:
    """One soft-corpus JSON line through ``json.dumps``, every probability
    rounded to 12 significant digits entry by entry."""
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


def _integer(value) -> int:
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _number(value) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("repeated JSON key")
    return obj


def parse_soft_line(line: str) -> list:
    """One soft-corpus line, each token, id and probability type-checked
    one at a time; anything malformed raises ValueError."""
    try:
        obj = json.loads(line, object_pairs_hook=_unique_keys)
        out = [_integer(t) for t in obj["toks"]]
        for pos_text, entry in obj.get("soft", {}).items():
            pos, orig = int(pos_text), _integer(entry["orig"])
            if pos_text != str(pos) or not 0 <= pos < len(out):
                raise ValueError(f"soft position {pos_text!r} out of range")
            if out[pos] != orig:
                raise ValueError(f"soft position {pos}: orig {orig} is not {out[pos]}")
            ids = np.array([_integer(i) for i, _ in entry["p"]], dtype=np.int64)
            probs = np.array([_number(p) for _, p in entry["p"]], dtype=np.float64)
            dist = Dist(probs, ids)
            dist.validate()
            out[pos] = SoftWord(dist, orig)
    except (KeyError, TypeError, IndexError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed soft corpus line ({type(exc).__name__}: {exc})") from exc
    return out


# -- per-draw references: one SplitMix64 call per uniform -------------------


def synthetic_task_per_draw(vocab_size, classes, sentences_n, length, rng):
    """(sentences, labels, vocabulary) of the synthetic task drawn one
    ``rng`` call at a time and built through text: each sentence is joined
    into a line, the lines give the vocabulary, and they are encoded."""
    members = [[] for _ in range(classes)]
    for word in range(vocab_size):
        members[word % classes].append(f"c{word % classes}w{word // classes}")
    markers = range(max(1, round(0.12 * classes)))
    lines, labels = [], []
    for _ in range(sentences_n):
        chain = []
        for t in range(length):
            if t > 0 and rng.random() < 0.75:
                chain.append(chain[-1])
            else:
                chain.append(rng.randint(classes))
        lines.append(" ".join(members[c][rng.randint(len(members[c]))] for c in chain))
        labels.append(int(any(c in markers for c in chain)))
    vocab = sa.build_vocab(lines)
    return [vocab.encode_tokens(line.split()) for line in lines], labels, vocab


def unigram_per_token(sentences, size) -> np.ndarray:
    """Frequencies of the ids >= 4 (the non-specials), counted one token at
    a time."""
    counts = np.zeros(size, dtype=np.float64)
    for sent in sentences:
        for t in sent:
            if t >= 4:
                counts[t] += 1
    return counts / counts.sum()


def mask_per_draw(sentence, gamma, rng) -> list[bool]:
    """One ``rng.random()`` per position, in order; BOS, EOS and BLANK are
    never selected."""
    return [rng.random() < gamma and t not in (BOS_ID, EOS_ID, BLANK_ID) for t in sentence]


def augment_per_draw(sentence, index, config, lm=None, unigram=None):
    """(result, replaced count) of one corpus sentence, one ``random()``
    call per uniform from ``SplitMix64(derive(config.seed, index))``: a
    uniform per position (the swap keys or the mask), then the
    replacement draws in position order."""
    s, gamma = config.strategy, config.gamma
    if s == "base" or gamma == 0.0:
        return list(sentence), 0
    rng = SplitMix64(derive(config.seed, index))
    if s == "swap":
        keys = [i + rng.random() * (config.window_k + 1) for i in range(len(sentence))]
        return [sentence[j] for j in sorted(range(len(sentence)), key=keys.__getitem__)], 0
    mask = mask_per_draw(sentence, gamma, rng)
    if s == "dropout":
        kept = [t for t, drop in zip(sentence, mask) if not drop]
        if not kept and sentence:
            kept = [sentence[rng.randint(len(sentence))]]
        return kept, len(sentence) - len(kept)
    out = list(sentence)
    for pos in (p for p, hit in enumerate(mask) if hit):
        if s == "blank":
            out[pos] = BLANK_ID
        elif s == "smooth":
            cum = np.cumsum(unigram)
            out[pos] = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        elif s == "lm_sample":
            out[pos] = lm.sample(sentence[:pos], rng.random())
        else:
            ids, probs = lm.top_k(sentence[:pos], config.topk or len(lm.vocab))
            out[pos] = SoftWord(Dist(probs / probs.sum() if config.topk else probs, ids),
                                sentence[pos])
    return out, sum(mask)
