"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

For every workload it runs seed 1 untraced and traced and seed 2
untraced, and checks that

- the result line has exactly the four result keys, the run is
  correct, and the only failed operations are known-defect probes;
- every metric of BENCHMARK.json is emitted with its unit: end-to-end
  metrics untraced, per-layer metrics traced;
- the inputs are a pure function of the seed: both seed-1 runs record
  the same input digest, and seed 2 a different one.

Last, it checks that a directory holding only BENCHMARK.json and the
benchmark, without the program, makes the benchmark fail without a
result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_default", "augment_wide_vocab", "text_pipeline")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, seed: int, trace: int, cwd: str = ROOT, script: str | None = None):
    argv = [sys.executable, script or os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        digests = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            label = f"{workload} seed {seed} trace {trace}"
            proc = run(workload, seed, trace)
            expect(proc.returncode == 0, f"{label}: exits 0")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-3000:])
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["run_record"]
            expect(set(result) == RESULT_KEYS, f"{label}: result keys")
            expect(result["correct"] is True, f"{label}: correct")
            expect(result["attempted"] >= 1, f"{label}: attempted >= 1")
            expect(result["failed"] == record.get("known_defect_failures", 0),
                   f"{label}: failures are exactly the known-defect probes")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared[trace], f"{label}: every declared metric, with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{label}: numeric values")
            if trace == 0:
                expect(all(m["value"] != 0 for m in result["metrics"].values()),
                       f"{label}: no end-to-end metric reads 0")
            digests[(seed, trace)] = record["input_digest"]
        if len(digests) == 3:
            expect(digests[(1, 0)] == digests[(1, 1)], f"{workload}: same seed, same input digest")
            expect(digests[(1, 0)] != digests[(2, 0)], f"{workload}: other seed, other input digest")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(WORKLOADS[0], 1, 0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without the program the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
