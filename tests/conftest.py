import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci draws the same examples on every run and prints a
# reproduction blob for any failure; unset, the default profile applies.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

import softaug as sa
from softaug.rng import SplitMix64, derive


def random_corpus(seed, n_sentences, vocab_size, max_len=12):
    """Random id sentences over a synthetic vocabulary of given size."""
    rng = SplitMix64(seed)
    surfaces = [f"w{i}" for i in range(vocab_size)]
    vocab = sa.build_vocab("\n".join(" ".join(surfaces) for _ in range(2)))
    sents = []
    for _ in range(n_sentences):
        length = 1 + rng.randint(max_len)
        sents.append([4 + rng.randint(vocab_size) for _ in range(length)])
    return sents, vocab


@st.composite
def corpora(draw, max_size=8, max_sentences=12):
    """(sentences, vocabulary, order 1-4, alpha 0 or 0.1) for a drawn corpus;
    sentences may be empty."""
    size = draw(st.integers(1, max_size))
    sents = draw(st.lists(st.lists(st.integers(4, 3 + size), max_size=8),
                          min_size=1, max_size=max_sentences))
    vocab = sa.build_vocab(" ".join(f"w{i}" for i in range(size)))
    return sents, vocab, draw(st.integers(1, 4)), draw(st.sampled_from([0.0, 0.1]))


def corpus_models(max_size=8, max_sentences=12):
    """A model trained on a drawn corpus (see ``corpora``)."""
    return corpora(max_size, max_sentences).map(
        lambda c: sa.train_lm(c[0], c[1], order=c[2], alpha=c[3]))


@pytest.fixture(scope="session")
def tiny_lm():
    """Small bigram model over a 10-word vocabulary, shared by read-only tests."""
    sents, vocab = random_corpus(11, 120, 10)
    return sa.train_lm(sents, vocab, order=2), sents, vocab


@pytest.fixture(scope="session")
def small_task():
    """Small synthetic task plus its sweep language model."""
    task = sa.make_synthetic_task(60, 12, 240, 8, SplitMix64(derive(5, 0xDA7A)))
    spec = sa.SweepSpec(strategies=("base",), reps=1, steps=400, test_fraction=0.25)
    lm = sa.train_task_lm(spec, task)
    return task, lm


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    """One file path per test module, rewritten by each hypothesis example."""
    return tmp_path_factory.mktemp("files") / "file"
