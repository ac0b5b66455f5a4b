"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; the independent oracles live in tests/oracles.py and share no
code with the package.
"""

import multiprocessing
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import softaug as sa
from softaug import augment as ag
from softaug import harness as hn
from softaug import lm as lmm
from softaug.rng import SplitMix64, derive

from conftest import random_corpus
from oracles import BruteNGram, brute_mix

WORKERS = min(4, multiprocessing.cpu_count())


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


def big_calibration_corpus(vocab_size=30, sentences=8334, length=12, seed=202):
    rng = SplitMix64(seed)
    surfaces = " ".join(f"w{i}" for i in range(vocab_size))
    vocab = sa.build_vocab(surfaces)
    sents = [
        [4 + rng.randint(vocab_size) for _ in range(length)] for _ in range(sentences)
    ]
    return sents, vocab


def test_c1_mix_embedding_oracle():
    with criterion(1, "expected-embedding oracle", 5.0):
        rng = SplitMix64(1001)
        vocab_size, dim = 64, 16
        emb = sa.init_model(vocab_size, dim, 2, seed=1002).emb
        emb_list = emb.tolist()
        for trial in range(1000):
            if trial % 2 == 0:
                ids = []
                while len(ids) < 32:
                    i = rng.randint(vocab_size)
                    if i not in ids:
                        ids.append(i)
                probs = np.array([rng.random() + 1e-4 for _ in ids])
                probs /= probs.sum()
                word = sa.SoftWord(sa.Dist(probs, np.array(ids, dtype=np.int64)), ids[0])
                entries = list(zip(ids, probs.tolist()))
            else:
                probs = np.array([rng.random() + 1e-4 for _ in range(vocab_size)])
                probs /= probs.sum()
                word = sa.SoftWord(sa.Dist(probs, np.arange(vocab_size)), 0)
                entries = list(enumerate(probs.tolist()))
            mine = sa.mix_embedding(word, emb)
            ref = brute_mix(entries, emb_list)
            assert np.max(np.abs(mine - np.array(ref))) <= 1e-12
        for j in (0, 17, 63):
            point = sa.SoftWord(sa.Dist(np.array([1.0]), np.array([j])), j)
            assert np.array_equal(sa.mix_embedding(point, emb), emb[j])
            assert np.array_equal(sa.mix_embedding(j, emb), emb[j])


def test_c2_lm_oracle():
    with criterion(2, "discounting-recursion oracle", 30.0):
        rng = SplitMix64(2001)
        for trial in range(20):
            vocab_size = 5 + rng.randint(16)
            order = 1 + rng.randint(4)
            discount = 0.3 + 0.6 * rng.random()
            alpha = (0.01, 0.1, 0.5)[rng.randint(3)]
            n_sentences = 1 + rng.randint(50)
            sents, vocab = random_corpus(3000 + trial, n_sentences, vocab_size)
            model = sa.train_lm(sents, vocab, order, discount, alpha)
            brute = BruteNGram(sents, len(vocab), order, discount, alpha)
            for _ in range(25):
                plen = rng.randint(order + 2)
                prefix = [4 + rng.randint(vocab_size) for _ in range(plen)]
                mine = model.next_dist(prefix)
                assert abs(float(mine.sum()) - 1.0) <= 1e-9
                theirs = np.array(brute.next_dist(prefix))
                assert np.max(np.abs(mine - theirs)) <= 1e-12


def test_c3_gradient_check():
    with criterion(3, "finite-difference gradients", 30.0):
        for trial in range(10):
            seed = derive(3001, trial)
            model = sa.init_model(24, 6, 3, derive(seed, 1))
            rng = SplitMix64(derive(seed, 2))
            model.w = np.array([[rng.random() * 2 - 1 for _ in range(6)] for _ in range(3)])
            model.b = np.array([rng.random() * 0.2 - 0.1 for _ in range(3)])
            batch = []
            for _ in range(3):
                sentence = []
                for _ in range(1 + rng.randint(6)):
                    if rng.random() < 0.6:
                        ids = []
                        while len(ids) < 5:
                            i = rng.randint(24)
                            if i not in ids:
                                ids.append(i)
                        probs = np.array([rng.random() + 1e-3 for _ in ids])
                        probs /= probs.sum()
                        order = np.lexsort((np.array(ids), -probs))
                        sentence.append(
                            sa.SoftWord(
                                sa.Dist(probs[order], np.array(ids, dtype=np.int64)[order]),
                                int(ids[0]),
                            )
                        )
                    else:
                        sentence.append(rng.randint(24))
                batch.append((sentence, rng.randint(3)))
            report = sa.grad_check(model, batch, step=1e-5, tolerance=1e-4)
            assert report.passed, report.errors


def test_c4_replacement_rate_calibration():
    with criterion(4, "replacement-rate calibration", 60.0):
        sents, vocab = big_calibration_corpus()
        total_tokens = sum(len(s) for s in sents)
        assert total_tokens >= 100_000
        model = sa.train_lm(sents[:2000], vocab, order=2)
        for strategy in ("blank", "smooth", "lm_sample", "soft"):
            for gamma in (0.05, 0.1, 0.15, 0.2):
                config = sa.AugmentConfig(
                    strategy=strategy, gamma=gamma, topk=8, seed=derive(4001, hash(strategy) & 0xFFFF)
                )
                _, (replaced, eligible) = sa.augment_corpus(
                    sents, config, lm=model, vocab_size=len(vocab), return_stats=True
                )
                rate = replaced / eligible
                assert gamma - 0.01 <= rate <= gamma + 0.01, (strategy, gamma, rate)


def test_c5_baseline_distributional_fidelity():
    with criterion(5, "baseline distributional fidelity", 120.0):
        sents, vocab = big_calibration_corpus(vocab_size=12, sentences=400)
        model = sa.train_lm(sents, vocab, order=2)

        # smooth replacements follow the unigram distribution
        unigram = ag.unigram_dist(sents, len(vocab))
        counts = np.zeros(len(vocab))
        n = 100_000
        config = sa.AugmentConfig(strategy="smooth", gamma=1.0, seed=5001)
        for out in sa.augment_corpus([[5]] * n, config, unigram=unigram):
            counts[out[0]] += 1
        assert np.max(np.abs(counts / n - unigram)) <= 0.01

        # lm_sample replacements follow next_dist at a fixed position
        sentence = [5, 9, 7]
        target = model.next_dist(sentence[:2])
        counts = np.zeros(len(vocab))
        config = sa.AugmentConfig(strategy="lm_sample", gamma=1.0, seed=5002)
        for out in sa.augment_corpus([sentence] * n, config, lm=model):
            counts[out[2]] += 1
        assert np.max(np.abs(counts / n - target)) <= 0.01

        # swap displacement bound with the default window (swap reads no
        # gamma, but gamma 0 leaves every strategy the identity)
        k = 3
        rng = SplitMix64(5003)
        sents = [list(range(1000, 1001 + rng.randint(20))) for _ in range(10_000)]
        config = sa.AugmentConfig(strategy="swap", gamma=1.0, window_k=k, seed=5004)
        for sent, out in zip(sents, sa.augment_corpus(sents, config)):
            assert sorted(out) == sent
            for pos, token in enumerate(out):
                assert abs((token - 1000) - pos) <= k


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "softaug", *map(str, argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def strip_seconds(csv_text: str) -> str:
    return "\n".join(",".join(line.split(",")[:4]) for line in csv_text.splitlines())


def test_c6_worker_determinism(tmp_path):
    with criterion(6, "worker-count determinism", 120.0):
        sents, vocab = big_calibration_corpus(vocab_size=20, sentences=2000)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "\n".join(" ".join(vocab.surface(t) for t in s) for s in sents) + "\n"
        )
        run_cli("train-lm", "--input", corpus, "--order", 2, "--output", tmp_path / "m.arpa")

        for strategy, extra in (("soft", ["--lm", tmp_path / "m.arpa", "--topk", 8]),
                                ("smooth", [])):
            outs = []
            for threads in (1, 8):
                out = tmp_path / f"{strategy}.{threads}"
                run_cli("augment", "--input", corpus, "--strategy", strategy,
                        "--gamma", 0.15, "--seed", 11, "--threads", threads,
                        "--output", out, *extra)
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"cmd_augment {strategy} differs across workers"

        spec = tmp_path / "spec.txt"
        spec.write_text(
            "strategies=base,blank,soft\ngammas=0,0.1\nreps=2\nseed=4\n"
            "vocab_size=60\nclasses=12\nsentences=200\nlength=6\nsteps=250\n"
        )
        reports = []
        for threads in (1, 8):
            outdir = tmp_path / f"sweep{threads}"
            run_cli("sweep", "--spec", spec, "--outdir", outdir, "--threads", threads)
            reports.append(
                (
                    (outdir / "pivot.csv").read_bytes(),
                    strip_seconds((outdir / "sweep.csv").read_text()),
                )
            )
        assert reports[0][0] == reports[1][0], "pivot.csv differs across workers"
        # The seconds column is wall-clock measurement and is the one field
        # that cannot be identical across runs; everything else must match.
        assert reports[0][1] == reports[1][1], "sweep.csv results differ across workers"


def test_c7_bpe_round_trip():
    with criterion(7, "byte-pair round trip", 10.0):
        rng = SplitMix64(7001)
        alphabet = "abcdefghijklmnop"
        words = {}
        for _ in range(60):
            w = "".join(alphabet[rng.randint(len(alphabet))] for _ in range(1 + rng.randint(8)))
            words[w] = 1 + rng.randint(20)
        table = sa.learn_bpe(words, 80)
        word_list = sorted(words)
        segmented = [" ".join(sa.apply_bpe(w, table)) for w in word_list]
        vocab = sa.build_vocab("\n".join(segmented))
        for _ in range(1000):
            sent = " ".join(word_list[rng.randint(len(word_list))] for _ in range(1 + rng.randint(10)))
            assert sa.decode(sa.encode(sent, table, vocab), vocab) == sent

        import os
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "codes.bpe")
            table.save(path)
            assert sa.MergeTable.load(path) == table


def test_c8_sweep_analog():
    with criterion(8, "strategy-by-gamma sweep analog", 600.0):
        spec = sa.SweepSpec(
            strategies=("base", "swap", "dropout", "blank", "smooth", "lm_sample", "soft"),
            gammas=(0.0, 0.05, 0.1, 0.15, 0.2),
            reps=5,
            seed=0,
        )
        task = sa.make_synthetic_task(500, 50, 2000, 12, SplitMix64(derive(0, 0xDA7A)))
        lm = sa.train_task_lm(spec, task)
        result = sa.run_sweep(spec, task, lm, threads=WORKERS)
        assert len(result.rows) == 7 * 5 * 5

        # gamma = 0 cells are exactly equal across strategies, per repetition
        for rep in range(5):
            accs = {r.accuracy for r in result.rows if r.gamma == 0.0 and r.rep == rep}
            assert len(accs) == 1, f"gamma=0 cells diverge at rep {rep}: {accs}"

        base_mean = result.mean_sd("base", 0.15)[0]
        soft_mean = result.mean_sd("soft", 0.15)[0]
        assert soft_mean >= base_mean - 0.02, (soft_mean, base_mean)

        # Recorded, not gated: the full mean table for inspection.
        print()
        print(hn.format_pivot_csv(result))
        print(f"soft@0.15 = {soft_mean:.4f}, base@0.15 = {base_mean:.4f} (workers={WORKERS})")


def test_c9_serialization_round_trips(tmp_path):
    with criterion(9, "serialization round trips", 60.0):
        sents, vocab = random_corpus(9001, 400, 25)
        model = sa.train_lm(sents, vocab, order=3)
        path = tmp_path / "model.arpa"
        lmm.save_lm(model, path)
        again = lmm.load_lm(path)
        assert abs(lmm.perplexity(again, sents) - lmm.perplexity(model, sents)) <= 1e-9

        config = sa.AugmentConfig(strategy="soft", gamma=0.3, topk=6, seed=17)
        soft = sa.augment_corpus(sents[:100], config, lm=model)
        soft_path = tmp_path / "soft.jsonl"
        sa.write_soft_corpus(soft_path, soft)
        reloaded = sa.read_soft_corpus(soft_path)
        emb = sa.init_model(len(vocab), 12, 2, seed=9002).emb
        for s1, s2 in zip(soft, reloaded):
            for w1, w2 in zip(s1, s2):
                if isinstance(w1, sa.SoftWord):
                    diff = sa.mix_embedding(w1, emb) - sa.mix_embedding(w2, emb)
                    assert np.max(np.abs(diff)) <= 1e-9
                else:
                    assert w1 == w2
