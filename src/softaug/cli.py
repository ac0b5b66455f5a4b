"""Command-line pipelines over the library.

Every command echoes its fully resolved configuration (defaults and seed
included) to standard error and is a pure function of its input files and
flags: reruns produce byte-identical outputs, whatever ``--threads`` says.
Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import augment as aug
from . import corpus as cp
from . import harness, lm as lmmod, parallel, softmix
from .rng import SplitMix64, derive, random_block


def _echo_config(command: str, args: argparse.Namespace, seed_defaulted: bool = False) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"softaug {command} config: {json.dumps(resolved, default=str)}", file=sys.stderr)
    if seed_defaulted:
        print("seed not given on the command line; defaulting to 0", file=sys.stderr)


def _read_lines(path: str) -> list[str]:
    return cp.read_text(path).splitlines()


def _resolve_seed(args: argparse.Namespace) -> bool:
    defaulted = args.seed is None
    if defaulted:
        args.seed = 0
    return defaulted


def _read_spec(args: argparse.Namespace) -> dict:
    params = harness.parse_spec_file(cp.read_text(args.spec))
    if "seed" not in params:
        print("seed not given in spec file; defaulting to 0", file=sys.stderr)
    return params


def _checked(check, *args):
    """Run a parameter check; what it rejects is a usage error (exit 2)."""
    try:
        return check(*args)
    except (ValueError, TypeError) as exc:
        _usage_error(str(exc))


def cmd_vocab(args) -> int:
    _echo_config("vocab", args)
    _checked(cp.check_max_size, args.max_size)
    # Several inputs build one joint vocabulary; run per file for separate ones.
    text = "\n".join(cp.read_text(path) for path in args.input)
    vocab = cp.build_vocab(text, max_size=args.max_size)
    vocab.save(args.output)
    print(f"wrote {len(vocab)} entries to {args.output}", file=sys.stderr)
    return 0


def cmd_train_bpe(args) -> int:
    _echo_config("train-bpe", args)
    _checked(cp.check_merges, args.merges)
    table = cp.learn_bpe(cp.count_words(cp.read_text(args.input)), args.merges)
    table.save(args.output)
    print(f"learned {len(table)} merges", file=sys.stderr)
    return 0


def cmd_apply_bpe(args) -> int:
    _echo_config("apply-bpe", args)
    table = cp.MergeTable.load(args.codes)
    cache: dict = {}
    with open(args.output, "w", encoding="utf-8") as fh:
        for line in _read_lines(args.input):
            fh.write(" ".join(cp.apply_bpe(line, table, cache)) + "\n")
    return 0


def cmd_train_lm(args) -> int:
    _echo_config("train-lm", args)
    _checked(lmmod.check_params, args.order, args.discount, args.alpha)
    lines = _read_lines(args.input)
    vocab = cp.build_vocab(lines)
    sentences = [vocab.encode_tokens(line.split()) for line in lines]
    model = lmmod.train_lm(sentences, vocab, args.order, args.discount, args.alpha)
    lmmod.save_lm(model, args.output)
    print(
        f"trained order-{args.order} model: |V|={len(vocab)}, events={model.total_events}",
        file=sys.stderr,
    )
    return 0


def cmd_ppl(args) -> int:
    _echo_config("ppl", args)
    model = lmmod.load_lm(args.lm)
    sentences = [
        model.vocab.encode_tokens(line.split()) for line in _read_lines(args.input)
    ]
    print(f"{lmmod.perplexity(model, sentences):.4f}")
    return 0


def cmd_augment(args) -> int:
    seed_defaulted = _resolve_seed(args)
    _echo_config("augment", args, seed_defaulted)
    config = aug.AugmentConfig(
        strategy=args.strategy,
        gamma=args.gamma,
        window_k=args.window,
        topk=args.topk,
        seed=args.seed,
    )
    _checked(config.validate)
    _checked(parallel.check_threads, args.threads)
    if args.strategy in aug.LM_STRATEGIES and not args.lm:
        _usage_error(f"strategy {args.strategy!r} requires --lm")
    lines = _read_lines(args.input)

    if args.strategy == "base":
        with open(args.output, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        print("replacement rate: 0.0000 (0/0)", file=sys.stderr)
        return 0

    if args.strategy in aug.LM_STRATEGIES:
        model = lmmod.load_lm(args.lm)
        vocab = model.vocab
    else:
        model = None
        vocab = cp.build_vocab(lines) if lines else None

    token_lines = [line.split() for line in lines]
    sentences = [vocab.encode_tokens(toks) for toks in token_lines] if vocab else []
    out, (replaced, eligible) = aug.augment_corpus(
        sentences,
        config,
        lm=model,
        vocab_size=len(vocab) if vocab else None,
        threads=args.threads,
        return_stats=True,
    )

    if args.strategy == "soft":
        aug.write_soft_corpus(args.output, out)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            for toks, orig_ids, new_ids in zip(token_lines, sentences, out):
                fh.write(" ".join(_render_tokens(toks, orig_ids, new_ids, vocab)) + "\n")

    rate = replaced / eligible if eligible else 0.0
    print(f"replacement rate: {rate:.4f} ({replaced}/{eligible})", file=sys.stderr)
    return 0


def _render_tokens(toks, orig_ids, new_ids, vocab):
    """Original surfaces where ids are unchanged, vocab surfaces elsewhere.

    Keeping the original text at untouched positions makes gamma = 0 a
    byte-exact identity even when the model's vocabulary maps rare input
    tokens to UNK.  Length changes (dropout) fall back to vocab surfaces.
    """
    if len(new_ids) != len(orig_ids):
        return [vocab.surface(t) for t in new_ids]
    return [
        toks[i] if new_ids[i] == orig_ids[i] else vocab.surface(new_ids[i])
        for i in range(len(new_ids))
    ]


def cmd_grad_check(args) -> int:
    seed_defaulted = _resolve_seed(args)
    _echo_config("grad-check", args, seed_defaulted)
    _checked(softmix.check_model_dims, args.vocab_size, args.dim, args.classes)
    rng = SplitMix64(derive(args.seed, 0xC0DE))
    model = softmix.init_model(args.vocab_size, args.dim, args.classes, derive(args.seed, 1))
    # A zero classifier blocks gradient flow into the embedding, so the
    # check runs at a random operating point: w row-major, then b.
    block = random_block(derive(args.seed, 2), args.classes * args.dim + args.classes)
    model.w = block[: args.classes * args.dim].reshape(args.classes, args.dim) * 2 - 1
    model.b = block[args.classes * args.dim :] * 0.2 - 0.1
    batch = []
    for _ in range(4):
        sentence: list = []
        for _ in range(6):
            if rng.random() < 0.5:
                ids, probs = _random_soft(rng, args.vocab_size, 4)
                sentence.append(aug.SoftWord(aug.Dist(probs, ids), int(ids[0])))
            else:
                sentence.append(rng.randint(args.vocab_size))
        batch.append((sentence, rng.randint(args.classes)))
    report = softmix.grad_check(model, batch)
    for block, err in sorted(report.errors.items()):
        print(f"{block}: max relative error {err:.3e}", file=sys.stderr)
    print(f"grad check {'PASS' if report.passed else 'FAIL'} "
          f"(max {report.max_error:.3e}, tolerance {report.tolerance:g})")
    return 0 if report.passed else 1


def _random_soft(rng: SplitMix64, vocab_size: int, k: int):
    ids = []
    while len(ids) < min(k, vocab_size):
        i = rng.randint(vocab_size)
        if i not in ids:
            ids.append(i)
    probs = np.array([rng.random() + 1e-3 for _ in ids])
    probs /= probs.sum()
    order = np.lexsort((np.array(ids), -probs))
    return np.array(ids, dtype=np.int64)[order], probs[order]


def cmd_make_task(args) -> int:
    _echo_config("make-task", args)
    params = _read_spec(args)
    _checked(harness.check_task_dims, *harness.task_dims(params))
    task = harness.task_from_params(params, params.get("seed", 0))
    os.makedirs(args.outdir, exist_ok=True)
    corpus_path = os.path.join(args.outdir, "corpus.txt")
    labels_path = os.path.join(args.outdir, "labels.txt")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for sent in task.sentences:
            fh.write(" ".join(task.vocab.surface(t) for t in sent) + "\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for label in task.labels:
            fh.write(f"{label}\n")
    print(f"wrote {len(task.sentences)} sentences to {corpus_path}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    _echo_config("sweep", args)
    _checked(parallel.check_threads, args.threads)
    params = _read_spec(args)
    spec = _checked(harness.sweep_spec_from_params, params)
    _checked(spec.validate)
    _checked(harness.check_task_dims, *harness.task_dims(params))
    task = harness.task_from_params(params, spec.seed)
    model = harness.train_task_lm(spec, task)
    result = harness.run_sweep(spec, task, model, threads=args.threads)
    os.makedirs(args.outdir, exist_ok=True)
    sweep_path, pivot_path = harness.emit_report(result, args.outdir)
    print(f"wrote {sweep_path} and {pivot_path}", file=sys.stderr)
    print(f"trained {result.trainings} models for {len(result.rows)} cells", file=sys.stderr)
    for strategy in result.strategies:
        cells = ", ".join(
            f"{g:g}: {result.mean_sd(strategy, g)[0]:.4f}+/-{result.mean_sd(strategy, g)[1]:.4f}"
            for g in result.gammas
        )
        print(f"{strategy}: {cells}", file=sys.stderr)
    return 0


_PARSER: argparse.ArgumentParser | None = None


def _usage_error(message: str):
    assert _PARSER is not None
    _PARSER.error(message)  # exits with code 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softaug",
        description="Soft contextual augmentation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab", help="build a vocabulary file from one or more corpora")
    p.add_argument("--input", required=True, nargs="+")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("train-bpe", help="learn byte-pair merges")
    p.add_argument("--input", required=True)
    p.add_argument("--merges", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train_bpe)

    p = sub.add_parser("apply-bpe", help="segment a corpus with learned merges")
    p.add_argument("--input", required=True)
    p.add_argument("--codes", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_apply_bpe)

    p = sub.add_parser("train-lm", help="train the n-gram language model")
    p.add_argument("--input", required=True)
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--discount", type=float, default=0.75)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("ppl", help="perplexity of a corpus under a saved model")
    p.add_argument("--lm", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_ppl)

    p = sub.add_parser("augment", help="augment a corpus with one strategy")
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", required=True, choices=aug.STRATEGIES)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lm", default=None)
    p.add_argument("--topk", type=int, default=32)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("grad-check", help="finite-difference check of the training path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--vocab-size", type=int, default=30)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--classes", type=int, default=3)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("make-task", help="generate the synthetic benchmark task")
    p.add_argument("--spec", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_make_task)

    p = sub.add_parser("sweep", help="run the strategy-by-gamma sweep")
    p.add_argument("--spec", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    parser = build_parser()
    _PARSER = parser
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
