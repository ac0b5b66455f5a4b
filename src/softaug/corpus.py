"""Corpus ingestion: vocabulary construction and byte-pair subword segmentation.

Corpora are UTF-8 text files, one whitespace-tokenized sentence per line.
A :class:`Vocabulary` maps token strings to dense integer ids with four
reserved specials in the fixed order ``<s> </s> <unk> <blank>``.  Byte-pair
merges are learned greedily on word counts with a ``</w>`` marker attached
to the final symbol of every word; segmented output carries ``@@`` on
non-final subwords so that detokenization is an exact inverse.

Both BPE loops are incremental.  Learning keeps weighted pair counts and
an index from each pair to the words that hold it, so a merge re-counts
only the words it changes.  Application jumps, per word, from one applied
merge to the lowest-ranked present pair ranked after it, which is exactly
what running every merge in list order does; subword-nmt's "lowest-ranked
present pair" without that bound is not, when two merges build one string.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable

BOS, EOS, UNK, BLANK = 0, 1, 2, 3
BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, BLANK_TOKEN = "<s>", "</s>", "<unk>", "<blank>"
SPECIAL_TOKENS = (BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, BLANK_TOKEN)
NUM_SPECIALS = len(SPECIAL_TOKENS)

WORD_END = "</w>"
CONT_MARKER = "@@"

# A tokenized sentence is a plain list of vocabulary ids.
Sentence = list


def read_text(path: str) -> str:
    """Read a UTF-8 file, reporting the byte offset of any encoding error."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"malformed UTF-8 at byte {exc.start} in {path}") from exc


def split_lines(text: str) -> list[str]:
    """*text*'s lines as text-mode file iteration gives them: a line ends at
    ``\\n``, ``\\r\\n`` or ``\\r`` only, and a final one opens no empty line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _counted_lines(path: str, magic: str) -> list[str]:
    """The body of a file headed ``<magic> <n>``: exactly n lines, the last
    one ending in a line break, so a file cut short anywhere is refused."""
    text = read_text(path)
    lines = split_lines(text)
    head, _, n = lines[0].rpartition(" ") if lines else ("", "", "")
    if head != magic or not (n.isascii() and n.isdigit()):
        raise ValueError(f"no '{magic} <n>' header in {path}")
    if not text.endswith(("\n", "\r")):
        raise ValueError(f"{path} is cut short: its last line has no line break")
    if len(lines) - 1 != int(n):
        raise ValueError(f"{path} holds {len(lines) - 1} lines after its header, header says {n}")
    return lines[1:]


class Vocabulary:
    """Bijection between token strings and dense ids in [0, |V|).

    Ids 0..3 are the specials; remaining entries are sorted by corpus count
    descending with lexicographic tie-break, which makes id assignment a
    pure function of the corpus bytes.
    """

    def __init__(self, surfaces: list[str], counts: list[int]):
        if len(surfaces) != len(counts):
            raise ValueError("surfaces and counts length mismatch")
        if list(surfaces[:NUM_SPECIALS]) != list(SPECIAL_TOKENS):
            raise ValueError("vocabulary must start with the reserved specials")
        if len(set(surfaces)) != len(surfaces):
            raise ValueError("duplicate surface in vocabulary")
        if any(c < 0 for c in counts):
            raise ValueError("negative count in vocabulary")
        self.surfaces = list(surfaces)
        self.counts = list(counts)
        self._index = {s: i for i, s in enumerate(self.surfaces)}

    @classmethod
    def from_counts(cls, counts: dict[str, int], max_size: int | None = None) -> "Vocabulary":
        check_max_size(max_size)
        words = [
            (s, c) for s, c in counts.items() if s not in SPECIAL_TOKENS and c > 0
        ]
        words.sort(key=lambda sc: (-sc[1], sc[0]))
        if max_size is not None:
            words = words[: max_size - NUM_SPECIALS]
        surfaces = list(SPECIAL_TOKENS) + [s for s, _ in words]
        cnts = [0] * NUM_SPECIALS + [c for _, c in words]
        return cls(surfaces, cnts)

    def __len__(self) -> int:
        return len(self.surfaces)

    def __contains__(self, surface: str) -> bool:
        return surface in self._index

    def id_of(self, surface: str) -> int:
        """Id for *surface*, or UNK when out of vocabulary."""
        return self._index.get(surface, UNK)

    def surface(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.surfaces):
            raise ValueError(f"id out of range: {token_id}")
        return self.surfaces[token_id]

    def encode_tokens(self, tokens: Iterable[str]) -> Sentence:
        return [self.id_of(t) for t in tokens]

    def decode_tokens(self, sentence: Sentence) -> list[str]:
        return [self.surface(t) for t in sentence]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#vocab v1 {len(self.surfaces)}\n")
            for s, c in zip(self.surfaces, self.counts):
                fh.write(f"{s}\t{c}\n")

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        """Read a ``save`` file: ``#vocab v1 <n>``, then exactly n lines
        ``surface<TAB>count`` in id order."""
        surfaces, counts = [], []
        for lineno, line in enumerate(_counted_lines(path, "#vocab v1"), 2):
            surface, tab, count = line.partition("\t")
            if not (surface.split() == [surface] and tab and count.isascii() and count.isdigit()):
                raise ValueError(f"line {lineno} of {path} is not 'surface<TAB>count' with a "
                                 f"non-empty, whitespace-free surface: {line!r}")
            surfaces.append(surface)
            counts.append(int(count))
        return cls(surfaces, counts)


def check_max_size(max_size: int | None) -> None:
    """The range check for a vocabulary size cap: room for the specials."""
    if max_size is not None and max_size < NUM_SPECIALS:
        raise ValueError(f"max_size must be >= {NUM_SPECIALS}, the special tokens, not {max_size}")


def sentence_blocks(sentences: Iterable[Sentence], budget: int) -> Iterable[list[Sentence]]:
    """Consecutive runs of *sentences*, each closed once its tokens and
    EOSes reach *budget*."""
    block: list[Sentence] = []
    tokens = 0
    for sent in sentences:
        block.append(sent)
        tokens += len(sent) + 1
        if tokens >= budget:
            yield block
            block, tokens = [], 0
    if block:
        yield block


def build_vocab(corpus: str | Iterable[str], max_size: int | None = None) -> Vocabulary:
    """Count whitespace tokens and build a Vocabulary.

    An input with no lines at all is rejected; lines without tokens yield a
    vocabulary holding only the four specials.  Tokens ranked beyond
    *max_size* (specials included in the budget) are dropped and map to UNK
    at encode time.
    """
    return Vocabulary.from_counts(count_words(corpus), max_size=max_size)


def count_words(corpus: str | Iterable[str]) -> dict[str, int]:
    """Whitespace word counts over a corpus, for BPE learning."""
    lines = split_lines(corpus) if isinstance(corpus, str) else list(corpus)
    if not lines:
        raise ValueError("empty corpus")
    counts: Counter[str] = Counter()
    for line in lines:
        counts.update(line.split())
    return dict(counts)


@dataclass(frozen=True)
class MergeTable:
    """Ordered byte-pair merges; application order equals list order.

    ``ranks`` maps each pair to its position in ``merges``.
    """

    merges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        ranks = {pair: rank for rank, pair in enumerate(self.merges)}
        if len(ranks) != len(self.merges):
            raise ValueError("duplicate pair in merge table")
        object.__setattr__(self, "ranks", ranks)

    def __len__(self) -> int:
        return len(self.merges)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#bpe v1 {len(self.merges)}\n")
            for left, right in self.merges:
                fh.write(f"{left} {right}\n")

    @classmethod
    def load(cls, path: str) -> "MergeTable":
        """Read a ``save`` file: ``#bpe v1 <n>``, then exactly n lines
        ``left right``."""
        lines = _counted_lines(path, "#bpe v1")
        merges = tuple(tuple(line.split(" ")) for line in lines)
        for lineno, (pair, line) in enumerate(zip(merges, lines), 2):
            if len(pair) != 2 or any(sym.split() != [sym] for sym in pair):
                raise ValueError(f"bad merge line {lineno} in {path}: {line!r}")
        return cls(merges)


def _word_symbols(word: str) -> list[str]:
    syms = list(word)
    syms[-1] += WORD_END
    return syms


def _merge_once(syms: list[str], pair: tuple[str, str]) -> list[str]:
    left, right = pair
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == left and syms[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def check_merges(num_merges: int) -> None:
    """The range check for the number of merges to learn."""
    if num_merges < 1:
        raise ValueError(f"num_merges must be >= 1, not {num_merges}")


def learn_bpe(word_counts: dict[str, int], num_merges: int) -> MergeTable:
    """Greedy most-frequent-pair merges over end-marked words.

    At each step the pair with the highest weighted count is merged;
    count ties break lexicographically ascending on (left, right).  Stops
    early when no adjacent pair remains.  Counts must be positive
    integers; the empty word is ignored.

    The weighted pair counts and an index from each pair to the words
    holding it are built once.  A merge re-segments only the indexed words
    and moves their old pairs' weight to their new pairs; a pair whose
    count reaches 0 leaves the table.  The best pair comes from a heap of
    ``(-count, pair)`` entries, so the heap order is the tie-break; an
    entry whose count is no longer the pair's count is stale and skipped.
    """
    check_merges(num_merges)
    words = {w: c for w, c in word_counts.items() if w}
    if not words:
        raise ValueError("empty word counts")
    for w, c in words.items():
        if not (isinstance(c, int) and c > 0):
            raise ValueError(f"count of word {w!r} is not a positive integer: {c!r}")
    pieces = [_word_symbols(w) for w in words]
    weights = list(words.values())
    counts: Counter[tuple[str, str]] = Counter()
    holders: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for i, syms in enumerate(pieces):
        for pair in zip(syms, syms[1:]):
            counts[pair] += weights[i]
            holders[pair].add(i)
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while heap and len(merges) < num_merges:
        neg, best = heapq.heappop(heap)
        if counts.get(best) != -neg:
            continue
        merges.append(best)
        touched = set()
        for i in holders.pop(best):
            old = pieces[i]
            new = _merge_once(old, best)
            if len(new) == len(old):
                continue  # the word lost the pair to an earlier merge
            pieces[i] = new
            for pair in zip(old, old[1:]):
                counts[pair] -= weights[i]
                touched.add(pair)
            for pair in zip(new, new[1:]):
                counts[pair] += weights[i]
                holders[pair].add(i)
                touched.add(pair)
        for pair in touched:
            if counts[pair]:
                heapq.heappush(heap, (-counts[pair], pair))
            else:
                del counts[pair]
                holders.pop(pair, None)
    return MergeTable(tuple(merges))


def _render_subwords(syms: list[str]) -> list[str]:
    out = [s + CONT_MARKER for s in syms[:-1]]
    last = syms[-1]
    if last.endswith(WORD_END):
        last = last[: -len(WORD_END)]
    out.append(last)
    return out


def _segment(word: str, merges: MergeTable) -> list[str]:
    """The symbols of *word* after every merge, applied in list order."""
    syms = _word_symbols(word)
    last = -1
    while len(syms) > 1:
        ranks = [merges.ranks.get(pair, -1) for pair in zip(syms, syms[1:])]
        last = min((r for r in ranks if r > last), default=None)
        if last is None:
            break
        syms = _merge_once(syms, merges.merges[last])
    return syms


def apply_bpe(sentence_text: str, merges: MergeTable, _cache: dict | None = None) -> list[str]:
    """Segment each whitespace word of *sentence_text* into subword strings.

    Non-final subwords carry the ``@@`` continuation marker; joining the
    output with spaces and deleting ``@@ `` restores the input exactly.

    The segmentation is that of running every merge once, in list order.
    Only a merge whose pair is present changes the symbols, so after
    applying rank r the next merge that acts is the lowest-ranked present
    pair ranked above r; each word jumps from one such merge to the next
    and stops when none is left.  Taking the lowest-ranked present pair of
    any rank, as subword-nmt does, is not the same: when two merges build
    one string (``a+bc``, then ``abc+d``, then ``ab+c``), the last can
    create a pair whose rank has already passed, here ``abc+d``.
    """
    subwords: list[str] = []
    for word in sentence_text.split():
        if _cache is not None and word in _cache:
            subwords.extend(_cache[word])
            continue
        rendered = _render_subwords(_segment(word, merges))
        if _cache is not None:
            _cache[word] = rendered
        subwords.extend(rendered)
    return subwords


def encode(sentence_text: str, merges: MergeTable, vocab: Vocabulary) -> Sentence:
    """BPE-segment then map subwords to ids; unknown subwords become UNK."""
    return vocab.encode_tokens(apply_bpe(sentence_text, merges))


def decode(sentence: Sentence, vocab: Vocabulary) -> str:
    """Inverse of :func:`encode` for UNK-free sentences."""
    return detokenize(vocab.decode_tokens(sentence))


def detokenize(subwords: Iterable[str]) -> str:
    return " ".join(subwords).replace(CONT_MARKER + " ", "")
