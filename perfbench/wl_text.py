"""text_pipeline: the README's command pipeline on generated word-like text.

A pass runs ``train-bpe``, ``apply-bpe``, ``vocab``, ``train-lm``, ``ppl``
and ``augment --strategy soft --lm`` in-process through ``cli.main``.
After each pass, untimed, ``train-lm`` is attempted on a corpus above the
2e5 events that the model writer accepts today: the probe of that known
limit counts in ``attempted`` and, while the limit stands, in ``failed``.

Traced, a composition is the command pass plus the probe plus the same
pipeline re-composed from the library's public functions; it runs once
untraced and once traced, and the library outputs must equal the
commands' outputs byte for byte.
"""

from __future__ import annotations

import io
import math
import os
import random
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import softaug as sa
from softaug import cli
from softaug.corpus import read_text

import inputs
from common import lm_shape, peak_rss_mb, repeated_setup, soft_stats, timed_passes
from spans import NULL, unwatch, watch_next_dist

GAMMA = 0.15
# The command-line defaults of train-lm, which the reference model repeats.
ORDER, DISCOUNT, ALPHA = 3, 0.75, 0.1
SAMPLED_LINES = 200
FILES = ("codes.bpe", "sub.txt", "vocab.tsv", "model.arpa", "soft.jsonl")


def _commands(d: str, merges: int, seed: int) -> list[tuple[str, list[str]]]:
    p = {name: os.path.join(d, name) for name in ("raw.txt",) + FILES}
    return [
        ("train-bpe", ["--input", p["raw.txt"], "--merges", str(merges), "--output", p["codes.bpe"]]),
        ("apply-bpe", ["--input", p["raw.txt"], "--codes", p["codes.bpe"], "--output", p["sub.txt"]]),
        ("vocab", ["--input", p["sub.txt"], "--output", p["vocab.tsv"]]),
        ("train-lm", ["--input", p["sub.txt"], "--order", str(ORDER), "--output", p["model.arpa"]]),
        ("ppl", ["--lm", p["model.arpa"], "--input", p["sub.txt"]]),
        ("augment", ["--input", p["sub.txt"], "--strategy", "soft", "--gamma", str(GAMMA),
                     "--seed", str(seed), "--lm", p["model.arpa"], "--output", p["soft.jsonl"]]),
    ]


def call_cli(command: str, args: list[str], tracer, span: str | None = None):
    """Run one command through ``cli.main``; returns (exit code, stdout, stderr).

    A command that raises instead of exiting gets code -1, with the
    traceback in its stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with tracer.span(span or f"cli.{command}"), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main([command] + args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed operation, not raised
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Pipeline:
    """Inputs, command pass, probe, library pass and checks of one run."""

    def __init__(self, workdir: str, seed: int, scale: str, acct, record: dict):
        self.d = workdir
        self.seed = seed
        self.scale = scale
        self.merges = inputs.SIZES[scale]["text"]["merges"]
        self.acct = acct
        self.record = record
        self.record["known_defect_failures"] = 0
        self.raw = os.path.join(workdir, "raw.txt")
        self.probe = os.path.join(workdir, "probe.txt")

    def generate(self, tracer) -> list[str]:
        lines, probe = inputs.text_corpus(self.seed, self.scale)
        for path, text in ((self.raw, lines), (self.probe, probe)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(text) + "\n")
        self.record["input_digest"] = inputs.digest(lines, probe)
        return lines

    def command_pass(self, tracer) -> dict:
        results = {}
        for command, args in _commands(self.d, self.merges, self.seed):
            results[command] = call_cli(command, args, tracer)
            self.acct.op(results[command][0] == 0, f"softaug {command}")
        return results

    def probe_cap(self, tracer) -> int:
        """Attempt train-lm above the 2e5-event cap; returns the exit code."""
        model = os.path.join(self.d, "probe.arpa")
        code, _, err = call_cli("train-lm", ["--input", self.probe, "--output", model],
                                tracer, "cli.train-lm-probe")
        self.acct.op(code == 0, "softaug train-lm on the over-cap probe corpus")
        if code == 0:
            self.acct.check("probe model reloads with all its events",
                            lambda: sa.load_lm(model).total_events > 200_000)
        elif code == 1 and "error: corpus too large" in err and "Traceback" not in err:
            self.record["known_defect_failures"] += 1
        else:
            self.acct.check("probe exits 0, or 1 with an error line", lambda: False)
        return code

    def library_pass(self, tracer, outdir: str) -> dict:
        """The command pipeline re-composed from public library calls."""
        os.makedirs(outdir, exist_ok=True)
        p = {name: os.path.join(outdir, name) for name in FILES}
        text = read_text(self.raw)
        with tracer.span("corpus.count_words"):
            counts = sa.count_words(text)
        with tracer.span("corpus.learn_bpe"):
            table = sa.learn_bpe(counts, self.merges)
        table.save(p["codes.bpe"])

        table = sa.MergeTable.load(p["codes.bpe"])
        cache: dict = {}
        words = hits = 0
        with open(p["sub.txt"], "w", encoding="utf-8") as fh:
            for line in text.splitlines():
                n, before = len(line.split()), len(cache)
                with tracer.span("corpus.apply_bpe"):
                    pieces = sa.apply_bpe(line, table, cache)
                # Each miss adds one cache entry.
                words += n
                hits += n - (len(cache) - before)
                fh.write(" ".join(pieces) + "\n")

        sub_text = read_text(p["sub.txt"])
        with tracer.span("corpus.build_vocab"):
            vocab = sa.build_vocab(sub_text)
        vocab.save(p["vocab.tsv"])

        lines = sub_text.splitlines()
        with tracer.span("corpus.build_vocab"):
            lm_vocab = sa.build_vocab(lines)
        sentences = [lm_vocab.encode_tokens(line.split()) for line in lines]
        with tracer.span("lm.train_lm"):
            model = sa.train_lm(sentences, lm_vocab, ORDER, DISCOUNT, ALPHA)
        with tracer.span("lm.save_lm"):
            sa.save_lm(model, p["model.arpa"])

        with tracer.span("lm.load_lm"):
            scorer = sa.load_lm(p["model.arpa"])
        histories = watch_next_dist(scorer, tracer) if tracer.enabled else set()
        with tracer.span("lm.perplexity"):
            ppl = sa.perplexity(scorer, [scorer.vocab.encode_tokens(l.split()) for l in lines])
        unwatch(scorer)

        with tracer.span("lm.load_lm"):
            augmenter = sa.load_lm(p["model.arpa"])
        if tracer.enabled:
            histories |= watch_next_dist(augmenter, tracer)
        encoded = [augmenter.vocab.encode_tokens(l.split()) for l in lines]
        config = sa.AugmentConfig("soft", GAMMA, seed=self.seed)
        with tracer.span("augment.augment_corpus:soft"):
            soft, (selected, eligible) = sa.augment_corpus(
                encoded, config, lm=augmenter, vocab_size=len(augmenter.vocab), return_stats=True
            )
        with tracer.span("augment.write_soft_corpus"):
            sa.write_soft_corpus(p["soft.jsonl"], soft)
        unwatch(augmenter)
        return {
            "paths": p, "ppl": ppl, "model": model, "augmenter": augmenter, "encoded": encoded,
            "soft": soft, "histories": histories, "merges": len(table), "words": words,
            "hits": hits, "selected": selected, "eligible": eligible,
        }

    def check_outputs(self, results: dict) -> float:
        """Output checks on the last command pass; returns its perplexity."""
        acct = self.acct
        p = {name: os.path.join(self.d, name) for name in FILES}
        raw_lines = read_text(self.raw).splitlines()
        sub_lines = read_text(p["sub.txt"]).splitlines()
        pick = random.Random(f"softaug-perfbench-text-sample-{self.seed}")
        sampled = sorted(pick.sample(range(len(raw_lines)), min(SAMPLED_LINES, len(raw_lines))))

        def round_trips():
            merges = sa.MergeTable.load(p["codes.bpe"])
            vocab = sa.Vocabulary.load(p["vocab.tsv"])
            return all(
                sa.decode(sa.encode(raw_lines[i], merges, vocab), vocab) == raw_lines[i]
                for i in sampled
            )

        acct.check("decode(encode(line)) == line on sampled lines", round_trips)

        vocab = sa.build_vocab(sub_lines)
        sentences = [vocab.encode_tokens(line.split()) for line in sub_lines]
        reference = sa.train_lm(sentences, vocab, ORDER, DISCOUNT, ALPHA)
        loaded = sa.load_lm(p["model.arpa"])

        def reload_is_bitwise():
            if loaded.vocab.surfaces != reference.vocab.surfaces:
                return False
            for i in sampled:
                cut = pick.randrange(len(sentences[i]) + 1)
                prefix = sentences[i][:cut]
                if not np.array_equal(reference.next_dist(prefix), loaded.next_dist(prefix)):
                    return False
            return True

        acct.check("reloaded model gives bitwise-equal next_dist", reload_is_bitwise)
        printed = results["ppl"][1].strip()
        acct.check("ppl prints the reloaded model's perplexity",
                   lambda: printed == f"{sa.perplexity(loaded, sentences):.4f}")

        def soft_corpus_is_valid():
            soft = sa.read_soft_corpus(p["soft.jsonl"])
            if len(soft) != len(sentences):
                return False
            for out, sentence in zip(soft, sentences):
                toks = [w.original_id if isinstance(w, sa.SoftWord) else w for w in out]
                if toks != sentence:
                    return False
                for w in out:
                    if isinstance(w, sa.SoftWord):
                        w.dist.validate()
            return True

        acct.check("soft corpus parses, keeps the tokens and holds distributions",
                   soft_corpus_is_valid)

        def rate_near_gamma():
            line = [l for l in results["augment"][2].splitlines() if l.startswith("replacement rate")][-1]
            replaced, eligible = (int(x) for x in line.split("(")[1].rstrip(")").split("/"))
            slack = 5.0 * math.sqrt(GAMMA * (1.0 - GAMMA) / eligible)
            return abs(replaced / eligible - GAMMA) <= slack

        acct.check("augment's replacement rate is near gamma", rate_near_gamma)
        return float(printed)


def run(seed: int, scale: str, seconds: float, tracer, workdir: str, record: dict, acct):
    pipe = Pipeline(workdir, seed, scale, acct, record)
    lines, setup_times = repeated_setup(pipe.generate, tracer)
    tokens = sum(len(line.split()) for line in lines)

    if not tracer.enabled:
        walls, results = timed_passes(
            seconds, lambda: pipe.command_pass(NULL), between=lambda: pipe.probe_cap(NULL)
        )
        rss = peak_rss_mb()
        ppl = pipe.check_outputs(results)
        acct.samples.update({"setup_s": len(setup_times), "work_per_s": len(walls)})
        record["pass_s"] = walls
        return setup_times, {
            "work_per_s": tokens / statistics.median(walls),
            "peak_rss_mb": rss,
            # Geometric-mean probability per token, so higher is better.
            "quality": 1.0 / ppl,
        }

    def composition(t):
        results = pipe.command_pass(t)
        codes = [code for code, _, _ in results.values()] + [pipe.probe_cap(t)]
        return results, codes, pipe.library_pass(t, os.path.join(workdir, "lib"))

    start = time.perf_counter()
    composition(NULL)
    untraced = time.perf_counter() - start
    start = time.perf_counter()
    results, codes, lib = composition(tracer)
    overhead = time.perf_counter() - start - untraced
    ppl = pipe.check_outputs(results)
    for name in FILES:
        acct.check(f"library re-composition writes the same {name}",
                   lambda name=name: _read(lib["paths"][name]) == _read(os.path.join(workdir, name)))
    acct.check("library perplexity matches ppl", lambda: f"{lib['ppl']:.4f}" == f"{ppl:.4f}")

    return setup_times, {
        "trace.overhead_s": overhead,
        "cli.nonzero_exits": sum(1 for code in codes if code != 0),
        "corpus.bpe_merges": lib["merges"],
        "corpus.apply_bpe_words": lib["words"],
        "corpus.apply_bpe_cache_hit_ratio": lib["hits"] / lib["words"] if lib["words"] else 0.0,
        "lm.distinct_histories": len(lib["histories"]),
        "lm.model_bytes": os.path.getsize(lib["paths"]["model.arpa"]),
        "augment.selected_positions": lib["selected"],
        "augment.eligible_positions": lib["eligible"],
        "augment.soft_bytes": os.path.getsize(lib["paths"]["soft.jsonl"]),
        **lm_shape(lib["model"]),
        **soft_stats(lib["augmenter"], lib["encoded"], lib["soft"]),
    }
