"""Seeded benchmark of softaug: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload sweep_default --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

- ``sweep_default``: the default strategy-by-gamma sweep;
- ``augment_wide_vocab``: soft and lm_sample augmentation at |V| ~ 8k;
- ``text_pipeline``: the README's command pipeline on generated text;
- ``all``: each of the above in a fresh process, one after the other.

With ``--trace 0`` the result holds the end-to-end metrics:

- ``setup_s``: median wall time of a fresh interpreter importing the
  program, plus the median of five builds of the workload's inputs (the
  task and its language model, or the generated text files);
- ``work_per_s``: units of work over the median wall time of a pass,
  where the unit is a sweep cell, an LM-replaced position or a corpus
  token;
- ``peak_rss_mb``: largest resident set of the run or any worker, taken
  after the timed passes;
- ``quality``: a result that must not drift: the sweep's mean clean-test
  accuracy, the mean top-k kept mass of the soft words, or the pipeline's
  geometric-mean token probability (1 / perplexity).

``attempted`` and ``failed`` count the program's operations and the
output checks.  With ``--trace 1`` the result holds the per-layer metrics
of a traced run, whose spans go to ``perfbench/out/``.  The line before
the result is the run record: commit, interpreter and numpy versions,
machine, workers, workload seed, input digest, and the number of samples
behind each timing.  The program is imported from ``src/`` of the
checkout this file sits in; without it the run fails.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep_default", "augment_wide_vocab", "text_pipeline")


def git_sha(root: str):
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def import_times(reps: int) -> list[float]:
    """Wall time of fresh interpreters that import the program, start to exit."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import softaug"
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return times


def run_all(args) -> int:
    """Each workload in its own process; the last line combines them."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if status == 0:
        print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy shrinks every input, for the self-test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "softaug", "__init__.py")):
        print(f"error: program source not found at {SRC}/softaug", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy
    import softaug

    own_import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(softaug.__file__)) != os.path.join(SRC, "softaug"):
        print(f"error: softaug imported from {softaug.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import wl_sweep
    import wl_text
    import wl_wide
    from common import END_TO_END, PER_LAYER, SETUP_REPS, WORKERS, Run, layer_metrics
    from spans import NULL, Tracer

    module = {"sweep_default": wl_sweep, "augment_wide_vocab": wl_wide,
              "text_pipeline": wl_text}[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workers": WORKERS,
    }
    imports = [] if args.trace else import_times(SETUP_REPS)
    acct = Run()
    tracer = Tracer() if args.trace else NULL
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_times, measured = module.run(
            args.seed, args.scale, args.seconds, tracer, workdir, record, acct
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(layer_metrics(tracer, acct))
        values.update(measured)
        values["lm.next_dist_calls"] = acct.samples["lm.next_dist_s"]
        values["trace.spans"] = len(tracer.spans)
        units = PER_LAYER
    else:
        values = dict(measured, setup_s=statistics.median(imports) + statistics.median(setup_times))
        units = END_TO_END
    record["samples"] = acct.samples
    record["own_import_s"] = own_import_s
    record["import_s"] = imports
    record["setup_build_s"] = setup_times
    if args.trace:
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), record)
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": acct.correct,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
