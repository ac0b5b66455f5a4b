"""Synthetic benchmark task and the strategy-by-gamma sweep protocol.

The synthetic task partitions the content vocabulary into synonym classes
(surface form ``c<class>w<member>`` makes the assignment recoverable from
text alone).  Sentences follow a class chain that repeats the previous
class three times in four, then realize each class as a uniformly chosen
member, so a next-token model spreads probability mass across members of
the locally likely classes.  The binary label is whether any marker-class
token occurs, which a mean-pool linear classifier can separate.  The
generator takes its uniforms from the stream as blocks and walks them in
order, so the task, and where the stream ends, equal those of drawing
one uniform per call, bit for bit.

The sweep reports, per (strategy, gamma, repetition) cell, the clean-test
accuracy of a model trained on the augmented training split.  Cell seeds
derive from (base seed, gamma, repetition) only, so the cells of one
(gamma, repetition) share the initial model and the SGD draws, and two
strategies whose augmented splits pack to the same bags (every strategy
at gamma = 0, ``swap`` and ``base`` always) run the exact same
training.  The sweep runs it once, and any cell can still be recomputed
in isolation.
"""

from __future__ import annotations

import csv
import io
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, augment_corpus
from .corpus import Sentence, Vocabulary, split_lines
from .lm import NGramLM, check_params, train_lm
from .parallel import fork_map
from .rng import SplitMix64, derive
from .softmix import Bag, evaluate_packed, init_model, pack_corpus, train_packed

DEFAULT_GAMMAS = (0.0, 0.05, 0.1, 0.15, 0.2)
MARKER_FRACTION = 0.12
CLASS_REPEAT_PROB = 0.75
# Uniforms drawn per block while generating a task: its memory stays
# bounded at any size.
_TASK_BLOCK_DRAWS = 1 << 16


def check_task_dims(vocab_size: int, classes: int, sentences: int, length: int) -> None:
    """The range check for task dimensions, wherever they come from."""
    if classes < 1 or sentences < 1 or length < 1:
        raise ValueError("classes, sentences and length must be >= 1")
    if vocab_size < classes:
        raise ValueError("vocab_size must be >= classes")


@dataclass
class SyntheticTask:
    """Generated classification corpus with its vocabulary and class map."""

    sentences: list[Sentence]
    labels: list[int]
    vocab: Vocabulary
    num_classes: int
    marker_classes: frozenset[int]

    def class_of_surface(self, surface: str) -> int:
        return int(surface[1 : surface.index("w")])


def make_synthetic_task(
    vocab_size: int,
    num_synonym_classes: int,
    sentences_n: int,
    length: int,
    rng: SplitMix64,
) -> SyntheticTask:
    """Generate (corpus, labels) plus the vocabulary and class assignment.

    *vocab_size* counts content words (specials come on top).  Word r of
    class q has surface ``c{q}w{r}``; the label is 1 when any marker-class
    word appears.  Classes repeat the previous position with probability
    ``CLASS_REPEAT_PROB``, which is what gives a next-token model contextual
    evidence about the local class.
    """
    check_task_dims(vocab_size, num_synonym_classes, sentences_n, length)
    n_markers = max(1, round(MARKER_FRACTION * num_synonym_classes))
    chain: list[int] = []
    members = []
    # A sentence draws at most 3 * length - 1 uniforms: a class, then per
    # later position a repeat test and maybe a class, then a member each.
    per_block = max(1, _TASK_BLOCK_DRAWS // (3 * length - 1))
    for first in range(0, sentences_n, per_block):
        count = min(per_block, sentences_n - first)
        u = rng.peek(count * (3 * length - 1))
        draws = u.tolist()
        member_draws = []
        i = 0
        for _ in range(count):
            cls = int(draws[i] * num_synonym_classes)
            chain.append(cls)
            i += 1
            for _ in range(length - 1):
                i += 1
                if draws[i - 1] >= CLASS_REPEAT_PROB:
                    cls = int(draws[i] * num_synonym_classes)
                    i += 1
                chain.append(cls)
            member_draws.extend(range(i, i + length))
            i += length
        rng.skip(i)
        # Class q holds the words q, q + classes, q + 2 * classes, ...
        block = np.array(chain[-count * length:], dtype=np.int64)
        sizes = vocab_size // num_synonym_classes + (block < vocab_size % num_synonym_classes)
        members.append((u[member_draws] * sizes).astype(np.int64))

    classes = np.array(chain, dtype=np.int64)
    words = np.concatenate(members) * num_synonym_classes + classes
    surfaces = [f"c{w % num_synonym_classes}w{w // num_synonym_classes}" for w in range(vocab_size)]
    counts = np.bincount(words, minlength=vocab_size).tolist()
    vocab = Vocabulary.from_counts(dict(zip(surfaces, counts)))
    id_of = np.array([vocab.id_of(s) for s in surfaces], dtype=np.int64)
    sentences = id_of[words].reshape(sentences_n, length).tolist()
    labels = (classes.reshape(sentences_n, length).min(axis=1) < n_markers).astype(int).tolist()
    return SyntheticTask(sentences, labels, vocab, num_synonym_classes, frozenset(range(n_markers)))


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition plus the fixed training recipe for every cell."""

    strategies: tuple[str, ...]
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    reps: int = 5
    seed: int = 0
    dim: int = 32
    lr: float = 0.5
    steps: int = 12000
    topk: int = 32
    window: int = 3
    test_fraction: float = 0.5
    lm_order: int = 3
    lm_discount: float = 0.35
    lm_alpha: float = 0.1

    def validate(self) -> None:
        """Check the whole recipe before any task or model is built.

        Strategies, gammas, ``window`` and ``topk`` are checked by
        ``AugmentConfig.validate`` and the LM fields by
        ``lm.check_params``, the checks every other caller runs.
        """
        if not self.strategies:
            raise ValueError("empty strategy list")
        if not self.gammas:
            raise ValueError("empty gamma list")
        repeated = [s for i, s in enumerate(self.strategies) if s in self.strategies[:i]]
        if repeated:
            raise ValueError(f"repeated strategy: {repeated[0]!r}")
        for strategy in self.strategies:
            for gamma in self.gammas:
                AugmentConfig(strategy, gamma, self.window, self.topk).validate()
        # Gammas that share a cell seed or a report label are one gamma twice.
        seen: set[tuple] = set()
        for gamma in self.gammas:
            keys = {("seed", _gamma_seed_key(gamma)), ("label", f"{gamma:g}")}
            if keys & seen:
                raise ValueError(f"repeated gamma: {gamma!r}")
            seen |= keys
        check_params(self.lm_order, self.lm_discount, self.lm_alpha)
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and > 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class CellResult:
    strategy: str
    gamma: float
    rep: int
    accuracy: float
    seconds: float


@dataclass
class SweepResult:
    rows: list[CellResult]
    # Models trained to fill the rows; None for rows read back from a file.
    trainings: int | None = None

    def accuracies(self, strategy: str, gamma: float) -> list[float]:
        return [r.accuracy for r in self.rows if r.strategy == strategy and r.gamma == gamma]

    def mean_sd(self, strategy: str, gamma: float) -> tuple[float, float]:
        accs = self.accuracies(strategy, gamma)
        if not accs:
            raise KeyError(f"no cells for ({strategy}, {gamma})")
        mean = sum(accs) / len(accs)
        var = sum((a - mean) ** 2 for a in accs) / len(accs)
        return mean, var**0.5

    @property
    def strategies(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.rows:
            seen.setdefault(r.strategy, None)
        return list(seen)

    @property
    def gammas(self) -> list[float]:
        seen: dict[float, None] = {}
        for r in self.rows:
            seen.setdefault(r.gamma, None)
        return list(seen)


def split_task(task: SyntheticTask, test_fraction: float):
    """Deterministic train/test split: the last fraction is held out."""
    n_test = max(1, int(round(len(task.sentences) * test_fraction)))
    n_train = len(task.sentences) - n_test
    if n_train < 1:
        raise ValueError("task too small for the requested test fraction")
    return (
        task.sentences[:n_train],
        task.labels[:n_train],
        task.sentences[n_train:],
        task.labels[n_train:],
    )


def _gamma_seed_key(gamma: float) -> int:
    """The part of a cell seed that *gamma* sets: gamma in millionths."""
    return round(gamma * 1_000_000)


def _cell_seed(base_seed: int, gamma: float, rep: int) -> int:
    # Keyed on the gamma value itself (not its grid index) so a cell can be
    # recomputed under any grid; strategy is deliberately excluded so all
    # strategies coincide exactly at gamma = 0.
    return derive(base_seed, _gamma_seed_key(gamma), rep)


def _content_key(bags: list[Bag]) -> bytes:
    """The exact bytes of a packed corpus: equal keys, equal training."""
    counts = [len(bag.ids) for bag in bags]
    return b"".join([
        np.array([len(bags), *counts, *(bag.length for bag in bags)], dtype=np.int64).tobytes(),
        *(bag.ids.tobytes() for bag in bags),
        *(bag.weights.tobytes() for bag in bags),
    ])


def _run_group(
    spec: SweepSpec, task: SyntheticTask, lm: NGramLM, strategies, gamma: float, rep: int
) -> tuple[list[CellResult], int]:
    """The cells of *strategies* at one (gamma, rep), and the trainings run.

    The cells share their seed, so strategies whose augmented training
    splits pack to the same bytes share one training.  A row's seconds
    are its own augment and pack time, plus the training and evaluation
    when the row ran them; the first row also carries the test split's
    packing.
    """
    start = time.perf_counter()
    train_x, train_y, test_x, test_y = split_task(task, spec.test_fraction)
    vocab_size = len(task.vocab)
    seed = _cell_seed(spec.seed, gamma, rep)
    test_bags = pack_corpus(test_x, vocab_size)
    accuracy_of: dict[bytes, float] = {}
    rows = []
    for strategy in strategies:
        config = AugmentConfig(
            strategy=strategy,
            gamma=gamma,
            window_k=spec.window,
            topk=spec.topk,
            seed=derive(seed, 1),
        )
        augmented = augment_corpus(train_x, config, lm=lm, vocab_size=vocab_size)
        bags = pack_corpus(augmented, vocab_size)
        key = _content_key(bags)
        if key not in accuracy_of:
            model = init_model(vocab_size, spec.dim, 2, derive(seed, 2))
            train_packed(model, bags, train_y, spec.lr, spec.steps, SplitMix64(derive(seed, 3)))
            accuracy_of[key] = evaluate_packed(model, test_bags, test_y)
        now = time.perf_counter()
        rows.append(CellResult(strategy, gamma, rep, accuracy_of[key], round(now - start, 3)))
        start = now
    return rows, len(accuracy_of)


def run_cell(
    spec: SweepSpec,
    task: SyntheticTask,
    lm: NGramLM,
    strategy: str,
    gamma: float,
    rep: int,
) -> CellResult:
    """Augment, train and evaluate one grid cell."""
    return _run_group(spec, task, lm, (strategy,), gamma, rep)[0][0]


def run_sweep(spec: SweepSpec, task: SyntheticTask, lm: NGramLM, threads: int = 1) -> SweepResult:
    """Every (strategy, gamma, repetition) cell, in that order.

    One pool job per (gamma, rep) runs all strategies' cells, so each
    distinct packed training split is trained once.  Fewer (gamma, rep)
    pairs than *threads* leave workers idle.
    """
    spec.validate()
    groups = [(gamma, rep) for gamma in spec.gammas for rep in range(spec.reps)]
    done = fork_map(
        lambda group: _run_group(spec, task, lm, spec.strategies, *group), groups, threads
    )
    cell = {(r.strategy, r.gamma, r.rep): r for rows, _ in done for r in rows}
    return SweepResult(
        [cell[s, g, r] for s in spec.strategies for g in spec.gammas for r in range(spec.reps)],
        sum(trained for _, trained in done),
    )


# -- reports ----------------------------------------------------------------

SWEEP_HEADER = ("strategy", "gamma", "rep", "accuracy", "seconds")


def format_sweep_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for r in result.rows:
        writer.writerow([r.strategy, f"{r.gamma:g}", r.rep, f"{r.accuracy:.6f}", f"{r.seconds:.3f}"])
    return buf.getvalue()


def parse_sweep_csv(text: str) -> SweepResult:
    rows = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if tuple(header or ()) != SWEEP_HEADER:
        raise ValueError(f"unexpected sweep csv header: {header}")
    for rec in reader:
        strategy, gamma, rep, accuracy, seconds = rec
        rows.append(CellResult(strategy, float(gamma), int(rep), float(accuracy), float(seconds)))
    return SweepResult(rows)


def format_pivot_csv(result: SweepResult) -> str:
    """Strategy-by-gamma table of mean accuracies over repetitions.

    Grid cells without results render empty, so filtered row sets still
    produce a valid table.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    gammas = result.gammas
    writer.writerow(["strategy"] + [f"{g:g}" for g in gammas])
    for strategy in result.strategies:
        cells = []
        for g in gammas:
            accs = result.accuracies(strategy, g)
            cells.append(f"{sum(accs) / len(accs):.6f}" if accs else "")
        writer.writerow([strategy] + cells)
    return buf.getvalue()


def emit_report(result: SweepResult, outdir: str) -> tuple[str, str]:
    """Write sweep.csv and pivot.csv under *outdir*; returns their paths."""
    sweep_path = os.path.join(outdir, "sweep.csv")
    pivot_path = os.path.join(outdir, "pivot.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write(format_sweep_csv(result))
    with open(pivot_path, "w", encoding="utf-8") as fh:
        fh.write(format_pivot_csv(result))
    return sweep_path, pivot_path


# -- sweep spec files --------------------------------------------------------

DEFAULT_TASK_PARAMS = {"vocab_size": 500, "classes": 50, "sentences": 2000, "length": 12}

# Every spec key and the parser of its value.  The task keys go to
# ``task_from_params``, the others to ``SweepSpec`` (``discount`` and
# ``alpha`` as ``lm_discount`` and ``lm_alpha``).
SPEC_KEYS = {
    "strategies": lambda value: tuple(s.strip() for s in value.split(",") if s.strip()),
    "gammas": lambda value: tuple(float(g) for g in value.split(",") if g.strip()),
    **dict.fromkeys(("reps", "seed", "dim", "steps", "topk", "window", "lm_order"), int),
    **dict.fromkeys(("lr", "test_fraction", "discount", "alpha"), float),
    **dict.fromkeys(DEFAULT_TASK_PARAMS, int),
}
_LM_RENAMES = {"discount": "lm_discount", "alpha": "lm_alpha"}


def parse_spec_file(text: str) -> dict:
    """Parse a key=value sweep spec; '#' starts a comment line."""
    out: dict = {}
    for lineno, raw in enumerate(split_lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"bad spec line {lineno}: {raw!r}")
        if key not in SPEC_KEYS:
            raise ValueError(f"unknown spec key on line {lineno}: {key!r}")
        if key in out:
            raise ValueError(f"repeated spec key on line {lineno}: {key!r}")
        out[key] = SPEC_KEYS[key](value)
    return out


def task_dims(params: dict) -> tuple[int, int, int, int]:
    """(vocab_size, classes, sentences, length) of a spec, defaults filled in."""
    return tuple(params.get(k, v) for k, v in DEFAULT_TASK_PARAMS.items())


def task_from_params(params: dict, seed: int) -> SyntheticTask:
    return make_synthetic_task(*task_dims(params), SplitMix64(derive(seed, 0xDA7A)))


def sweep_spec_from_params(params: dict) -> SweepSpec:
    if "strategies" not in params:
        raise ValueError("spec file must list strategies")
    return SweepSpec(**{
        _LM_RENAMES.get(k, k): v for k, v in params.items() if k not in DEFAULT_TASK_PARAMS
    })


def train_task_lm(spec: SweepSpec, task: SyntheticTask) -> NGramLM:
    """The sweep's language model, trained on the training split only."""
    train_x, _, _, _ = split_task(task, spec.test_fraction)
    return train_lm(train_x, task.vocab, spec.lm_order, spec.lm_discount, spec.lm_alpha)
