"""sweep_default: the paper's strategy-by-gamma sweep on its default task.

Untraced, the run times whole ``run_sweep`` passes over all seven
strategies at the non-zero gammas, with the worker pool.  Traced, it runs
the sweep once for the pool's cell timings, then re-composes one cell per
strategy, serially, from ``augment_corpus``, ``init_model``, ``train_toy``
and ``evaluate``: once untraced and once traced, so that the difference is
the tracing overhead.
"""

from __future__ import annotations

import copy
import random
import statistics
import time

import softaug as sa
from softaug import harness
from softaug.rng import SplitMix64, derive

import inputs
from common import (
    WORKERS,
    layer_metrics,
    lm_shape,
    peak_rss_mb,
    ratio,
    repeated_setup,
    task_and_lm,
    soft_stats,
    timed_passes,
)
from spans import NULL, unwatch, watch_next_dist


def _spec(seed: int, scale: str) -> tuple[sa.SweepSpec, dict]:
    sizes = inputs.SIZES[scale]["sweep"]
    spec = sa.SweepSpec(
        strategies=inputs.STRATEGIES, gammas=sizes["gammas"], reps=1, seed=seed, steps=sizes["steps"]
    )
    return spec, sizes["task"]


def _row_key(row) -> tuple:
    return (row.strategy, row.gamma, row.rep, f"{row.accuracy:.6f}")


def _without_seconds(csv_text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()[1:]]


def _check_sweep(acct, spec, task, lm, result, workdir: str, seed: int) -> None:
    cells = len(spec.strategies) * len(spec.gammas) * spec.reps
    acct.check("sweep has one row per cell", lambda: len(result.rows) == cells)

    def csv_row_recomputed_alone():
        sweep_path, _ = harness.emit_report(result, workdir)
        with open(sweep_path, encoding="utf-8") as fh:
            rows = _without_seconds(fh.read())
        pick = random.Random(f"softaug-perfbench-cell-{seed}").randrange(len(rows))
        row = result.rows[pick]
        cell = harness.run_cell(spec, task, lm, row.strategy, row.gamma, row.rep)
        return _without_seconds(harness.format_sweep_csv(sa.SweepResult([cell]))) == [rows[pick]]

    acct.check("a sweep.csv row, seconds aside, equals its cell recomputed alone",
               csv_row_recomputed_alone)
    if 0.0 in spec.gammas:
        for rep in range(spec.reps):
            acct.check(
                f"strategies agree at gamma 0, rep {rep}",
                lambda: len({r.accuracy for r in result.rows if r.gamma == 0.0 and r.rep == rep}) == 1,
            )


def _compose(spec, task, lm, gamma: float, tracer) -> tuple[dict, dict]:
    """One cell per strategy at *gamma*, rep 0, as ``run_cell`` builds it."""
    train_x, train_y, test_x, test_y = harness.split_task(task, spec.test_fraction)
    # Cell seeds are keyed by (seed, gamma, rep), as the README documents.
    seed = derive(spec.seed, round(gamma * 1_000_000), 0)
    accuracies = {}
    stats = {"steps": {"soft": 0, "hard": 0}, "final_losses": [], "selected": 0, "eligible": 0}
    soft_output = None
    for strategy in spec.strategies:
        tracer.group = f"cell:{strategy}:{gamma:g}:0"
        config = sa.AugmentConfig(
            strategy=strategy, gamma=gamma, window_k=spec.window, topk=spec.topk, seed=derive(seed, 1)
        )
        unigram = None
        if strategy == "smooth":
            with tracer.span("augment.unigram_dist"):
                unigram = sa.unigram_dist(train_x, len(task.vocab))
        with tracer.span(f"augment.augment_corpus:{strategy}"):
            augmented, (selected, eligible) = sa.augment_corpus(
                train_x, config, lm=lm, unigram=unigram, return_stats=True
            )
        with tracer.span("softmix.init_model"):
            model = sa.init_model(len(task.vocab), spec.dim, 2, derive(seed, 2))
        kind = "soft" if strategy == "soft" else "hard"
        with tracer.span(f"softmix.train_toy:{kind}"):
            _, losses = sa.train_toy(
                model, augmented, train_y, spec.lr, spec.steps, SplitMix64(derive(seed, 3))
            )
        with tracer.span("softmix.evaluate"):
            accuracies[strategy] = sa.evaluate(model, test_x, test_y)
        tail = losses[-max(1, len(losses) // 10):]
        stats["final_losses"].append(sum(tail) / len(tail))
        stats["steps"][kind] += spec.steps
        stats["selected"] += selected
        stats["eligible"] += eligible
        if strategy == "soft":
            soft_output = augmented
    tracer.group = ""
    stats["soft_output"] = soft_output
    stats["train_x"] = train_x
    return accuracies, stats


def run(seed: int, scale: str, seconds: float, tracer, workdir: str, record: dict, acct):
    spec, params = _spec(seed, scale)

    (task, lm), setup_times = repeated_setup(task_and_lm(params, spec), tracer)
    record["input_digest"] = inputs.digest(params, spec, task.sentences, task.labels)
    cells = len(spec.strategies) * len(spec.gammas) * spec.reps

    if not tracer.enabled:
        passes: list[list[tuple]] = []

        def one_pass():
            result = harness.run_sweep(spec, task, lm, threads=WORKERS)
            passes.append([_row_key(r) for r in result.rows])
            return result

        walls, result = timed_passes(seconds, one_pass)
        rss = peak_rss_mb()
        acct.op(True, "sweep cells", count=cells * len(walls))
        acct.check("every pass gives the same rows", lambda: all(p == passes[0] for p in passes))
        _check_sweep(acct, spec, task, lm, result, workdir, seed)
        acct.samples.update({"setup_s": len(setup_times), "work_per_s": len(walls)})
        record["pass_s"] = walls
        return setup_times, {
            "work_per_s": cells / statistics.median(walls),
            "peak_rss_mb": rss,
            "quality": statistics.fmean(r.accuracy for r in result.rows),
        }

    with tracer.span("harness.run_sweep"):
        start = time.perf_counter()
        result = harness.run_sweep(spec, task, lm, threads=WORKERS)
        wall = time.perf_counter() - start
    acct.op(True, "sweep cells", count=cells)
    cell_seconds = [r.seconds for r in result.rows]
    metrics = {
        "harness.cell_s_p50": statistics.median(cell_seconds),
        "harness.cell_s_max": max(cell_seconds),
        "harness.worker_busy_s": sum(cell_seconds),
        "harness.worker_idle_share": 1.0 - sum(cell_seconds) / (WORKERS * wall),
    }
    gammas = [g for g in spec.gammas if g > 0.0]
    gamma = gammas[random.Random(f"softaug-perfbench-gamma-{seed}").randrange(len(gammas))]

    # Each composition gets its own copy of the model, so neither starts
    # with the other's query cache.
    plain_lm = copy.deepcopy(lm)
    start = time.perf_counter()
    plain, _ = _compose(spec, task, plain_lm, gamma, NULL)
    untraced = time.perf_counter() - start
    del plain_lm
    watched = copy.deepcopy(lm)
    histories = watch_next_dist(watched, tracer)
    start = time.perf_counter()
    traced, stats = _compose(spec, task, watched, gamma, tracer)
    metrics["trace.overhead_s"] = time.perf_counter() - start - untraced
    unwatch(watched)
    acct.op(True, "re-composed cells", count=2 * len(spec.strategies))

    swept = {r.strategy: r.accuracy for r in result.rows if r.gamma == gamma and r.rep == 0}
    acct.check("re-composed cells reproduce the sweep's accuracies", lambda: plain == traced == swept)
    _check_sweep(acct, spec, task, lm, result, workdir, seed)

    steps = stats["steps"]
    spans = layer_metrics(tracer, acct)
    metrics.update(
        {
            "softmix.sgd_steps": steps["soft"] + steps["hard"],
            "softmix.steps_per_s_soft": ratio(steps["soft"], spans["softmix.train_soft_s"]),
            "softmix.steps_per_s_hard": ratio(steps["hard"], spans["softmix.train_hard_s"]),
            "softmix.final_loss": statistics.fmean(stats["final_losses"]),
            "lm.distinct_histories": len(histories),
            "augment.selected_positions": stats["selected"],
            "augment.eligible_positions": stats["eligible"],
            **lm_shape(lm),
            **soft_stats(watched, stats["train_x"], stats["soft_output"]),
        }
    )
    record["traced_gamma"] = gamma
    return setup_times, metrics
