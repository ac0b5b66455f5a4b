"""augment_wide_vocab: soft and lm_sample augmentation at |V| ~ 8k.

Untraced, a pass augments the training split with ``soft`` (top-k 32)
and ``lm_sample`` at gamma 0.15 through ``augment_corpus`` with the worker
pool, writes the soft corpus and reads it back.  Traced, the run makes one
pooled pass for the output checks, then the same pass serially, once
untraced and once traced, so that the program's ``next_dist`` calls are
seen in this process.
"""

from __future__ import annotations

import copy
import math
import os
import statistics
import time

import numpy as np

import softaug as sa
from softaug import harness
from softaug.rng import derive

import inputs
from common import (
    WORKERS,
    lm_shape,
    peak_rss_mb,
    repeated_setup,
    task_and_lm,
    soft_stats,
    timed_passes,
)
from spans import NULL, unwatch, watch_next_dist

# Sentences re-augmented at one worker in the untraced run; more than one
# chunk of the pooled run, so a chunk boundary is covered.
PREFIX_SENTENCES = 300


def _same_soft(written, back) -> bool:
    """Read-back equals the in-memory corpus up to the 12-digit format."""
    if len(written) != len(back):
        return False
    for a_sent, b_sent in zip(written, back):
        if len(a_sent) != len(b_sent):
            return False
        for a, b in zip(a_sent, b_sent):
            if isinstance(a, sa.SoftWord) != isinstance(b, sa.SoftWord):
                return False
            if not isinstance(a, sa.SoftWord):
                if a != b:
                    return False
                continue
            if a.original_id != b.original_id or not np.array_equal(a.dist.ids, b.dist.ids):
                return False
            if not np.allclose(a.dist.probs, b.dist.probs, rtol=1e-11, atol=0.0):
                return False
            b.dist.validate()
    return True


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run(seed: int, scale: str, seconds: float, tracer, workdir: str, record: dict, acct):
    sizes = inputs.SIZES[scale]["wide"]
    params = sizes["task"]
    spec = sa.SweepSpec(
        strategies=("soft", "lm_sample"), gammas=(sizes["gamma"],), reps=1, seed=seed, topk=sizes["topk"]
    )

    (task, lm), setup_times = repeated_setup(task_and_lm(params, spec), tracer)
    train_x = harness.split_task(task, spec.test_fraction)[0]
    record["input_digest"] = inputs.digest(params, spec, task.sentences)
    gamma = sizes["gamma"]
    soft_cfg = sa.AugmentConfig("soft", gamma, window_k=spec.window, topk=spec.topk, seed=derive(seed, 1))
    sample_cfg = sa.AugmentConfig("lm_sample", gamma, window_k=spec.window, seed=derive(seed, 2))
    path = os.path.join(workdir, "soft.jsonl")

    def one_pass(model, t, threads):
        with t.span("augment.augment_corpus:soft"):
            soft, (soft_n, eligible) = sa.augment_corpus(
                train_x, soft_cfg, lm=model, threads=threads, return_stats=True
            )
        with t.span("augment.augment_corpus:lm_sample"):
            sampled, (sample_n, _) = sa.augment_corpus(
                train_x, sample_cfg, lm=model, threads=threads, return_stats=True
            )
        with t.span("augment.write_soft_corpus"):
            sa.write_soft_corpus(path, soft)
        with t.span("augment.read_soft_corpus"):
            back = sa.read_soft_corpus(path)
        return {"soft": soft, "sampled": sampled, "back": back, "selected": (soft_n, sample_n),
                "eligible": eligible}

    def check_pass(out, what: str) -> None:
        soft_n, sample_n = out["selected"]
        # Five binomial standard deviations around gamma.
        slack = 5.0 * math.sqrt(gamma * (1.0 - gamma) / out["eligible"])
        for name, n in (("soft", soft_n), ("lm_sample", sample_n)):
            acct.check(f"{what}: {name} replacement rate near gamma",
                       lambda n=n: abs(n / out["eligible"] - gamma) <= slack)
        acct.check(f"{what}: soft corpus read back equals what was written",
                   lambda: _same_soft(out["soft"], out["back"]))

        def rewrite_is_identical():
            again = os.path.join(workdir, "again.jsonl")
            sa.write_soft_corpus(again, out["back"])
            return _read_bytes(again) == _read_bytes(path)

        acct.check(f"{what}: re-written read-back is byte-identical", rewrite_is_identical)

    if not tracer.enabled:
        walls, out = timed_passes(seconds, lambda: one_pass(lm, NULL, WORKERS))
        rss = peak_rss_mb()
        acct.op(True, "augment passes", count=len(walls))
        check_pass(out, "pooled pass")
        n = min(PREFIX_SENTENCES, len(train_x))

        def prefix_at_one_worker():
            prefix_path = os.path.join(workdir, "prefix.jsonl")
            soft = sa.augment_corpus(train_x[:n], soft_cfg, lm=lm, threads=1)
            sa.write_soft_corpus(prefix_path, soft)
            head = _read_bytes(path).splitlines(keepends=True)[:n]
            sampled = sa.augment_corpus(train_x[:n], sample_cfg, lm=lm, threads=1)
            return _read_bytes(prefix_path) == b"".join(head) and sampled == out["sampled"][:n]

        acct.check(f"first {n} sentences at one worker give the same bytes", prefix_at_one_worker)
        acct.samples.update({"setup_s": len(setup_times), "work_per_s": len(walls)})
        record["pass_s"] = walls
        kept = soft_stats(lm, train_x, out["soft"])["augment.topk_kept_mass_mean"]
        return setup_times, {
            "work_per_s": sum(out["selected"]) / statistics.median(walls),
            "peak_rss_mb": rss,
            "quality": kept,
        }

    pooled = one_pass(lm, NULL, WORKERS)
    pooled_bytes = _read_bytes(path)
    acct.op(True, "pooled pass")
    check_pass(pooled, "pooled pass")

    # Each serial pass gets its own copy of the model, so neither starts
    # with the other's query cache.
    plain_lm = copy.deepcopy(lm)
    start = time.perf_counter()
    one_pass(plain_lm, NULL, 1)
    untraced = time.perf_counter() - start
    del plain_lm
    watched = copy.deepcopy(lm)
    histories = watch_next_dist(watched, tracer)
    start = time.perf_counter()
    serial = one_pass(watched, tracer, 1)
    overhead = time.perf_counter() - start - untraced
    unwatch(watched)
    acct.op(True, "serial passes", count=2)
    acct.check("serial pass gives the pooled pass's bytes and samples",
               lambda: _read_bytes(path) == pooled_bytes and serial["sampled"] == pooled["sampled"])

    metrics = {
        "trace.overhead_s": overhead,
        "lm.distinct_histories": len(histories),
        "augment.selected_positions": sum(serial["selected"]),
        "augment.eligible_positions": 2 * serial["eligible"],
        "augment.soft_bytes": len(pooled_bytes),
        **lm_shape(lm),
        **soft_stats(watched, train_x, serial["soft"]),
    }
    return setup_times, metrics
