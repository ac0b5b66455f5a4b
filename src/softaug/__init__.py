"""Soft contextual augmentation for tokenized training corpora.

A corpus pipeline (vocabulary, byte-pair subwords), an interpolated
absolute-discounting n-gram language model, seven per-token augmentation
strategies including soft distributional replacement, an embedding-mixture
training path with gradient verification, and a reproducible
strategy-by-gamma sweep harness.
"""

from .augment import (
    AugmentConfig,
    Dist,
    SoftCorpus,
    SoftWord,
    STRATEGIES,
    augment_corpus,
    read_soft_corpus,
    unigram_dist,
    write_soft_corpus,
)
from .corpus import (
    BLANK,
    BOS,
    EOS,
    UNK,
    MergeTable,
    Vocabulary,
    apply_bpe,
    build_vocab,
    count_words,
    decode,
    detokenize,
    encode,
    learn_bpe,
)
from .harness import (
    SweepResult,
    SweepSpec,
    SyntheticTask,
    emit_report,
    make_synthetic_task,
    parse_spec_file,
    run_cell,
    run_sweep,
    split_task,
    task_from_params,
    train_task_lm,
)
from .lm import NGramLM, load_lm, parse_lm, perplexity, save_lm, train_lm
from .rng import SplitMix64, derive
from .softmix import (
    GradCheckReport,
    ToyModel,
    backward,
    evaluate,
    forward,
    grad_check,
    init_model,
    load_embedding,
    loss,
    mix_embedding,
    save_embedding,
    save_loss_trace,
    train_toy,
)

__version__ = "0.1.0"
