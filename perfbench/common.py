"""What every workload shares: the metric table, run accounting, the
timing loop and set-up repetition."""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
from softaug import SoftWord, harness
from softaug.corpus import NUM_SPECIALS

from inputs import STRATEGIES
from spans import NULL

# At most two workers, so that runs on larger machines load the program as
# the 2-core reference machine does.
WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality": "share",
}

# Per-layer metrics, grouped by the end-to-end metric each should move.
# Seconds are totals of span self time over one traced composition; the
# run record gives the number of spans behind each.
PER_LAYER = {
    # work_per_s on sweep_default; no change expected on augment_wide_vocab.
    "softmix.train_soft_s": "s",
    "softmix.train_hard_s": "s",
    "softmix.steps_per_s_soft": "1/s",
    "softmix.steps_per_s_hard": "1/s",
    "softmix.sgd_steps": "count",
    "softmix.init_model_s": "s",
    "softmix.evaluate_s": "s",
    "softmix.final_loss": "nats",
    # work_per_s and peak_rss_mb on augment_wide_vocab (distinct histories,
    # over next_dist calls, bound the query cache's hit ratio); little
    # effect on sweep_default.
    "lm.next_dist_calls": "count",
    "lm.next_dist_s": "s",
    "lm.distinct_histories": "count",
    # work_per_s and failed on text_pipeline; setup_s elsewhere.
    "lm.train_s": "s",
    "lm.events": "count",
    "lm.histories": "count",
    "lm.save_s": "s",
    "lm.load_s": "s",
    "lm.model_bytes": "bytes",
    "lm.perplexity_s": "s",
    # The hard strategies are a small share of work_per_s on sweep_default;
    # soft and lm_sample dominate augment_wide_vocab.
    "augment.base_s": "s",
    "augment.swap_s": "s",
    "augment.dropout_s": "s",
    "augment.blank_s": "s",
    "augment.smooth_s": "s",
    "augment.lm_sample_s": "s",
    "augment.soft_s": "s",
    "augment.selected_positions": "count",
    "augment.eligible_positions": "count",
    "augment.soft_support_entries": "count",
    "augment.topk_kept_mass_mean": "share",
    "augment.special_mass_mean": "share",
    "augment.write_soft_s": "s",
    "augment.read_soft_s": "s",
    "augment.soft_bytes": "bytes",
    # work_per_s on text_pipeline only.
    "corpus.learn_bpe_s": "s",
    "corpus.bpe_merges": "count",
    "corpus.apply_bpe_s": "s",
    "corpus.apply_bpe_words": "count",
    "corpus.apply_bpe_cache_hit_ratio": "share",
    "corpus.build_vocab_s": "s",
    # setup_s, then work_per_s on sweep_default: idle share is
    # 1 - (sum of cell seconds) / (workers x sweep wall time).
    "harness.make_task_s": "s",
    "harness.train_task_lm_s": "s",
    "harness.cell_s_p50": "s",
    "harness.cell_s_max": "s",
    "harness.worker_busy_s": "s",
    "harness.worker_idle_share": "share",
    # work_per_s and failed on text_pipeline.
    "cli.train_bpe_s": "s",
    "cli.apply_bpe_s": "s",
    "cli.vocab_s": "s",
    "cli.train_lm_s": "s",
    "cli.ppl_s": "s",
    "cli.augment_s": "s",
    "cli.nonzero_exits": "count",
    # Traced minus untraced wall time of the same composition.
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Run:
    """Accounting of one workload run.

    ``op`` counts an operation of the program, ``check`` an output check.
    Both add to ``attempted``, and a failure of either to ``failed``; only
    a failed check makes the run incorrect, so a known defect that makes
    an operation fail shows in ``failed`` without hiding the measurements.
    A check that raises counts as failed; it is never raised past.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples: dict[str, int] = {}

    def op(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            print(f"operation failed: {what}", file=sys.stderr)

    def check(self, what: str, fn) -> bool:
        try:
            ok = bool(fn())
        except Exception:  # a check must report, never abort the run
            traceback.print_exc()
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def repeated_setup(build, tracer=NULL):
    """Build the workload state SETUP_REPS times; returns (state, seconds list).

    Only the first build is traced.  The previous state is dropped before
    the next build so that peak memory holds one copy.
    """
    times = []
    state = None
    for i in range(SETUP_REPS):
        state = None
        start = time.perf_counter()
        state = build(tracer if i == 0 else NULL)
        times.append(time.perf_counter() - start)
    return state, times


def task_and_lm(params: dict, spec):
    """Set-up of the synthetic-task workloads: build the task, train its LM."""

    def build(tracer):
        with tracer.span("harness.make_task"):
            task = harness.task_from_params(params, spec.seed)
        with tracer.span("harness.train_task_lm"):
            lm = harness.train_task_lm(spec, task)
        return task, lm

    return build


def timed_passes(seconds: float, run_pass, between=None) -> tuple[list[float], object]:
    """Repeat *run_pass* for about *seconds*; returns (pass walls, last result).

    At least one pass runs; the loop stops at the pass boundary nearest to
    *seconds*.  *between*, if given, runs untimed after each pass.
    """
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = run_pass()
        walls.append(time.perf_counter() - t0)
        if between is not None:
            between()
        if time.perf_counter() - start + statistics.median(walls) / 2 >= seconds:
            return walls, result


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, acct: Run) -> dict[str, float]:
    """Per-layer seconds of SPAN_METRICS from span self times, as totals
    over the trace.  The number of spans summed goes to the run record."""
    totals, counts = tracer.self_seconds()
    out = {}
    for metric, span in SPAN_METRICS.items():
        out[metric] = totals.get(span, 0.0)
        acct.samples[metric] = counts.get(span, 0)
    return out


# Per-layer seconds that are sums of span self times: metric -> span name.
# Spans named here are opened by the workloads around calls into the
# program's public functions; a layer a workload does not run reads 0.
SPAN_METRICS = {
    "softmix.train_soft_s": "softmix.train_toy:soft",
    "softmix.train_hard_s": "softmix.train_toy:hard",
    "softmix.init_model_s": "softmix.init_model",
    "softmix.evaluate_s": "softmix.evaluate",
    "lm.next_dist_s": "lm.next_dist",
    "lm.train_s": "lm.train_lm",
    "lm.save_s": "lm.save_lm",
    "lm.load_s": "lm.load_lm",
    "lm.perplexity_s": "lm.perplexity",
    **{f"augment.{s}_s": f"augment.augment_corpus:{s}" for s in STRATEGIES},
    "augment.write_soft_s": "augment.write_soft_corpus",
    "augment.read_soft_s": "augment.read_soft_corpus",
    "corpus.learn_bpe_s": "corpus.learn_bpe",
    "corpus.apply_bpe_s": "corpus.apply_bpe",
    "corpus.build_vocab_s": "corpus.build_vocab",
    "harness.make_task_s": "harness.make_task",
    "harness.train_task_lm_s": "harness.train_task_lm",
    **{f"cli.{c.replace('-', '_')}_s": f"cli.{c}" for c in
       ("train-bpe", "apply-bpe", "vocab", "train-lm", "ppl", "augment")},
}


def lm_shape(lm) -> dict[str, float]:
    return {
        "lm.events": lm.total_events,
        "lm.histories": sum(len(level) for level in lm.counts),
    }


def soft_stats(lm, sentences, augmented) -> dict[str, float]:
    """Support size, kept top-k mass and special-token mass of soft words.

    Kept mass is the share of the full next-token distribution that the
    stored support covers, taken from *lm* after the timed work.
    """
    entries = 0
    kept: list[float] = []
    special: list[float] = []
    for sentence, out in zip(sentences, augmented):
        for pos, item in enumerate(out):
            if not isinstance(item, SoftWord):
                continue
            probs = item.dist.probs
            ids = np.arange(len(probs)) if item.dist.ids is None else item.dist.ids
            entries += len(ids)
            special.append(float(probs[ids < NUM_SPECIALS].sum()))
            kept.append(float(lm.next_dist(sentence[:pos])[ids].sum()))
    return {
        "augment.soft_support_entries": entries,
        "augment.topk_kept_mass_mean": statistics.fmean(kept) if kept else 0.0,
        "augment.special_mass_mean": statistics.fmean(special) if special else 0.0,
    }
