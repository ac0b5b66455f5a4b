"""A small strategy-by-gamma sweep on the synthetic synonym-class task.

Scaled down from the default benchmark so it finishes in under a minute;
raise sentences/steps/reps toward the defaults for the full picture.
The full-size run is also available as:

    softaug sweep --spec <specfile> --outdir <dir>
"""

import time

import softaug as sa
from softaug.rng import SplitMix64, derive

spec = sa.SweepSpec(
    strategies=("base", "dropout", "blank", "smooth", "lm_sample", "soft"),
    gammas=(0.0, 0.1, 0.2),
    reps=2,
    seed=0,
    steps=3000,
)
task = sa.make_synthetic_task(
    vocab_size=200, num_synonym_classes=25, sentences_n=800, length=10,
    rng=SplitMix64(derive(spec.seed, 0xDA7A)),
)
print(f"task: |V|={len(task.vocab)}, {len(task.sentences)} sentences, "
      f"positive rate {sum(task.labels) / len(task.labels):.2f}")

lm = sa.train_task_lm(spec, task)
print(f"sweep LM: order {spec.lm_order}, {lm.total_events} events")

start = time.perf_counter()
result = sa.run_sweep(spec, task, lm)
print(f"{len(result.rows)} cells in {time.perf_counter() - start:.1f}s")
print(f"trained {result.trainings} models for {len(result.rows)} cells\n")

header = "strategy  " + "".join(f"g={g:<8g}" for g in result.gammas)
print(header)
for strategy in result.strategies:
    cells = "".join(
        "{:<10}".format(f"{result.mean_sd(strategy, g)[0]:.3f}") for g in result.gammas
    )
    print(f"{strategy:<10}{cells}")

print("\nnote: gamma=0 rows coincide by construction (identical seeds,")
print("identity augmentation), and swap equals base under a mean-pool")
print("consumer because permutations do not change the pooled input;")
print("the sweep trains each such shared computation once.")
