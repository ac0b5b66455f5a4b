"""Seeded workload inputs.

Every input the benchmark hands to the program is a pure function of the
workload seed and the scale, so two runs with one seed measure the same
work.  Text is drawn with ``random.Random`` seeded from a string, whose
``random()`` stream is fixed across Python versions; sizes live in
``SIZES`` so that the self-test can run every workload at toy scale.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import random

STRATEGIES = ("base", "swap", "dropout", "blank", "smooth", "lm_sample", "soft")

SIZES = {
    "full": {
        # The paper's default task and recipe; gammas are the non-zero
        # grid points of the default sweep.
        "sweep": {
            "task": {"vocab_size": 500, "classes": 50, "sentences": 2000, "length": 12},
            "gammas": (0.05, 0.1, 0.15, 0.2),
            "steps": 12000,
        },
        "wide": {
            "task": {"vocab_size": 8000, "classes": 400, "sentences": 4000, "length": 12},
            "gamma": 0.15,
            "topk": 32,
        },
        "text": {"types": 3000, "lines": 2000, "merges": 400},
    },
    "toy": {
        # gamma 0 is kept in the toy grid so that the equal-at-gamma-0
        # check runs in the self-test.
        "sweep": {
            "task": {"vocab_size": 60, "classes": 6, "sentences": 120, "length": 6},
            "gammas": (0.0, 0.15),
            "steps": 300,
        },
        "wide": {
            "task": {"vocab_size": 300, "classes": 20, "sentences": 200, "length": 12},
            "gamma": 0.15,
            "topk": 32,
        },
        "text": {"types": 200, "lines": 80, "merges": 20},
    },
}

# Lines of the over-cap probe corpus at every scale: about 13 events per
# line (12 words plus end of sentence), so ~221k events, above the 2e5
# events the model writer accepts today.
PROBE_LINES = 17000

_ONSETS = "b c d f g h j k l m n p r s t v w z br st tr pl ch sh".split()
_VOWELS = "a e i o u a e i o ai ou".split()
_CODAS = ["", "", "", "n", "r", "s", "t", "nd", "st"]
ZIPF_EXPONENT = 1.07


def _word_types(rng: random.Random, count: int) -> list[str]:
    """Distinct letter-string words built from seeded syllables.

    The word of Zipf rank r has 1 + r % 4 syllables, so that the
    frequency-weighted word length, and with it the work per token, does
    not swing with the seed.
    """
    seen: dict[str, None] = {}
    while len(seen) < count:
        syllables = 1 + len(seen) % 4
        word = "".join(
            _ONSETS[int(rng.random() * len(_ONSETS))]
            + _VOWELS[int(rng.random() * len(_VOWELS))]
            + _CODAS[int(rng.random() * len(_CODAS))]
            for _ in range(syllables)
        )
        seen.setdefault(word, None)
    return list(seen)


def _zipf_lines(rng: random.Random, types: list[str], lines: int) -> list[str]:
    cumulative = []
    total = 0.0
    for rank in range(len(types)):
        total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cumulative.append(total)
    out = []
    for _ in range(lines):
        length = 6 + int(rng.random() * 13)
        words = [
            types[min(bisect.bisect_right(cumulative, rng.random() * total), len(types) - 1)]
            for _ in range(length)
        ]
        out.append(" ".join(words))
    return out


def text_corpus(seed: int, scale: str) -> tuple[list[str], list[str]]:
    """Zipfian word-like text: (main corpus lines, over-cap probe lines)."""
    sizes = SIZES[scale]["text"]
    rng = random.Random(f"softaug-perfbench-text-{seed}")
    types = _word_types(rng, sizes["types"])
    return _zipf_lines(rng, types, sizes["lines"]), _zipf_lines(rng, types, PROBE_LINES)


def digest(*parts) -> str:
    """Short sha256 of JSON-serialisable parts (dataclasses too), for the run record."""
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, separators=(",", ":"), default=dataclasses.asdict).encode())
    return h.hexdigest()[:16]
