import itertools
import json
import os
import subprocess
import sys

import pytest

import softaug as sa
from softaug import augment as aug, cli, corpus as cp, harness, lm as lmm, parallel
from softaug.rng import SplitMix64


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "softaug", *map(str, argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr
    return proc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A raw corpus plus trained codes, vocab and model files."""
    root = tmp_path_factory.mktemp("cli")
    rng = SplitMix64(77)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    corpus = root / "raw.txt"
    corpus.write_text(
        "\n".join(
            " ".join(words[rng.randint(len(words))] for _ in range(1 + rng.randint(9)))
            for _ in range(300)
        )
        + "\n"
    )
    run_cli("train-bpe", "--input", corpus, "--merges", 40, "--output", root / "codes.bpe")
    run_cli("apply-bpe", "--input", corpus, "--codes", root / "codes.bpe", "--output", root / "sub.txt")
    run_cli("vocab", "--input", root / "sub.txt", "--output", root / "vocab.tsv")
    run_cli("train-lm", "--input", root / "sub.txt", "--order", 2, "--output", root / "model.arpa")
    return root


class TestPreprocessing:
    def test_bpe_round_trip_through_files(self, workdir):
        raw = (workdir / "raw.txt").read_text().splitlines()
        sub = (workdir / "sub.txt").read_text().splitlines()
        assert len(raw) == len(sub)
        for orig, segmented in zip(raw, sub):
            assert segmented.replace("@@ ", "") == orig

    def test_merges_file_line_count_bounded(self, workdir):
        lines = (workdir / "codes.bpe").read_text().splitlines()
        assert lines[0].startswith("#bpe v1 ")
        assert len(lines) - 1 <= 40

    @pytest.mark.parametrize("cut", [-1, -4, -9])
    def test_truncated_codes_file_is_data_error(self, workdir, tmp_path, cut):
        codes = tmp_path / "codes.bpe"
        codes.write_bytes((workdir / "codes.bpe").read_bytes()[:cut])
        proc = run_cli("apply-bpe", "--input", workdir / "raw.txt", "--codes", codes,
                       "--output", tmp_path / "sub.txt", expect=1)
        assert proc.stderr.splitlines()[-1].startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        run_cli("train-bpe", "--input", workdir / "raw.txt", "--merges", 40, "--output", tmp_path / "codes2")
        assert (tmp_path / "codes2").read_bytes() == (workdir / "codes.bpe").read_bytes()
        run_cli("vocab", "--input", workdir / "sub.txt", "--output", tmp_path / "vocab2")
        assert (tmp_path / "vocab2").read_bytes() == (workdir / "vocab.tsv").read_bytes()

    def test_missing_input_is_data_error(self, tmp_path):
        proc = run_cli("vocab", "--input", tmp_path / "nope.txt", "--output", tmp_path / "v", expect=1)
        assert "nope.txt" in proc.stderr

    def test_joint_vocabulary_over_multiple_inputs(self, tmp_path):
        (tmp_path / "src.txt").write_text("aa bb\n")
        (tmp_path / "tgt.txt").write_text("bb cc\n")
        run_cli("vocab", "--input", tmp_path / "src.txt", tmp_path / "tgt.txt",
                "--output", tmp_path / "joint.tsv")
        vocab = sa.Vocabulary.load(tmp_path / "joint.tsv")
        assert vocab.id_of("aa") != sa.UNK and vocab.id_of("cc") != sa.UNK
        assert vocab.counts[vocab.id_of("bb")] == 2

    def test_unknown_flag_is_usage_error(self, workdir):
        run_cli("vocab", "--input", workdir / "raw.txt", "--output", "x", "--bogus", 1, expect=2)


class TestLanguageModelCommands:
    def test_ppl_on_training_data_beats_uniform(self, workdir):
        proc = run_cli("ppl", "--lm", workdir / "model.arpa", "--input", workdir / "sub.txt")
        ppl = float(proc.stdout.strip())
        vocab_size = sum(1 for _ in open(workdir / "vocab.tsv")) - 1  # less the header
        assert 1.0 <= ppl <= vocab_size

    def test_reload_matches_in_memory_perplexity(self, workdir):
        lines = (workdir / "sub.txt").read_text().splitlines()
        vocab = sa.build_vocab(lines)
        sents = [vocab.encode_tokens(l.split()) for l in lines]
        model = sa.train_lm(sents, vocab, order=2)
        reloaded = lmm.load_lm(workdir / "model.arpa")
        expected = lmm.perplexity(model, sents)
        proc = run_cli("ppl", "--lm", workdir / "model.arpa", "--input", workdir / "sub.txt")
        assert float(proc.stdout.strip()) == pytest.approx(expected, abs=1e-4)
        assert lmm.perplexity(reloaded, sents) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unseen_token_at_alpha_zero_is_infinite_without_a_warning(self, tmp_path, capsys):
        # At alpha 0 the model gives the OOV token probability 0.
        (tmp_path / "train.txt").write_text("a b\nb c\n")
        (tmp_path / "test.txt").write_text("d a\n")
        run_main("train-lm", "--input", tmp_path / "train.txt", "--alpha", 0,
                 "--output", tmp_path / "m.arpa")
        capsys.readouterr()
        run_main("ppl", "--lm", tmp_path / "m.arpa", "--input", tmp_path / "test.txt")
        captured = capsys.readouterr()
        assert captured.out == "inf\n"
        assert "RuntimeWarning" not in captured.err

    def test_discount_one_is_usage_error(self, workdir, tmp_path):
        run_cli(
            "train-lm", "--input", workdir / "sub.txt", "--discount", "1.0",
            "--output", tmp_path / "m", expect=2,
        )

    def test_order_above_bound_is_usage_error(self, workdir, tmp_path):
        proc = run_cli(
            "train-lm", "--input", workdir / "sub.txt", "--order", lmm.MAX_ORDER + 1,
            "--output", tmp_path / "m.arpa", expect=2,
        )
        assert "Traceback" not in proc.stderr
        assert "error: order must lie in" in proc.stderr
        assert not (tmp_path / "m.arpa").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-0.1"])
    def test_bad_alpha_is_usage_error(self, workdir, tmp_path, alpha):
        proc = run_cli(
            "train-lm", "--input", workdir / "sub.txt", "--alpha", alpha,
            "--output", tmp_path / "m.arpa", expect=2,
        )
        assert "Traceback" not in proc.stderr
        assert "error: alpha must be finite" in proc.stderr
        assert not (tmp_path / "m.arpa").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_in_header_is_data_error(self, workdir, tmp_path, alpha):
        text = (workdir / "model.arpa").read_text(encoding="utf-8")
        assert " alpha=0.1 " in text.splitlines()[0]
        (tmp_path / "m.arpa").write_text(text.replace(" alpha=0.1 ", f" alpha={alpha} ", 1))
        proc = run_cli("ppl", "--lm", tmp_path / "m.arpa", "--input", workdir / "sub.txt", expect=1)
        assert "Traceback" not in proc.stderr
        assert any(line.startswith("error: alpha must be finite") for line in proc.stderr.splitlines())


class TestModelFileErrors:
    @pytest.fixture(scope="class")
    def corrupt_models(self, workdir, tmp_path_factory):
        text = (workdir / "model.arpa").read_text(encoding="utf-8")
        lines = text.splitlines()
        root = tmp_path_factory.mktemp("corrupt")
        bodies = {
            "unknown-surface": "\n".join(lines[:-2] + [lines[-2] + "zz", lines[-1]]) + "\n",
            "truncated": "\n".join(lines[:-1]) + "\n",
            "not-a-model": (workdir / "sub.txt").read_text(encoding="utf-8"),
        }
        for name, body in bodies.items():
            (root / name).write_text(body, encoding="utf-8")
        (root / "not-utf8").write_bytes(text.encode("utf-8").replace(b"\t", b"\t\xff", 9))
        return root, sorted(bodies) + ["not-utf8"]

    @pytest.mark.parametrize("command", ["ppl", "augment"])
    def test_corrupt_model_is_data_error(self, workdir, corrupt_models, command, tmp_path):
        root, names = corrupt_models
        for name in names:
            args = ["--lm", root / name, "--input", workdir / "sub.txt"]
            if command == "augment":
                args += ["--strategy", "soft", "--gamma", 0.2, "--output", tmp_path / "s.jsonl"]
            proc = run_cli(command, *args, expect=1)
            assert "Traceback" not in proc.stderr, name
            assert any(line.startswith("error: ") for line in proc.stderr.splitlines()), name

    @pytest.mark.parametrize("edit", ["trailing", "blank-line", "repeated-order", "other-order"])
    def test_model_file_with_extra_content_is_data_error(self, workdir, tmp_path, edit):
        text = (workdir / "model.arpa").read_text(encoding="utf-8")
        header = text.splitlines()[0]
        assert header.startswith("#ngram-counts v1 order=2 ")
        body = {
            "trailing": text + "trailing\n",
            "blank-line": text + "\n",
            "repeated-order": text.replace(header, header + " order=2", 1),
            "other-order": text.replace(header, header + " order=3", 1),
        }[edit]
        (tmp_path / "m.arpa").write_text(body, encoding="utf-8")
        proc = run_cli("ppl", "--lm", tmp_path / "m.arpa", "--input", workdir / "sub.txt", expect=1)
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        expected = "follows the \\end\\ line" if edit in ("trailing", "blank-line") else "bad header"
        assert any(line.startswith("error: ") and expected in line for line in lines), proc.stderr

    def test_corpus_above_2e5_events(self, tmp_path):
        rng = SplitMix64(21)
        words = [f"w{i}" for i in range(30)]
        lines = [" ".join(words[rng.randint(30)] for _ in range(1 + rng.randint(24)))
                 for _ in range(17_000)]
        (tmp_path / "big.txt").write_text("\n".join(lines) + "\n")
        run_cli("train-lm", "--input", tmp_path / "big.txt", "--output", tmp_path / "big.arpa")
        proc = run_cli("ppl", "--lm", tmp_path / "big.arpa", "--input", tmp_path / "big.txt")
        vocab = sa.build_vocab(lines)
        sents = [vocab.encode_tokens(line.split()) for line in lines]
        model = sa.train_lm(sents, vocab)
        assert model.total_events > 200_000
        assert proc.stdout.strip() == f"{lmm.perplexity(model, sents):.4f}"


class TestAugmentCommand:
    def test_base_passthrough(self, workdir, tmp_path):
        out = tmp_path / "base.txt"
        run_cli("augment", "--input", workdir / "sub.txt", "--strategy", "base", "--output", out)
        assert out.read_bytes() == (workdir / "sub.txt").read_bytes()

    def test_gamma_zero_identity_for_every_text_strategy(self, workdir, tmp_path):
        for strategy in ("swap", "dropout", "blank", "smooth", "lm_sample"):
            out = tmp_path / f"g0.{strategy}"
            args = ["augment", "--input", workdir / "sub.txt", "--strategy", strategy,
                    "--gamma", 0, "--seed", 1, "--output", out]
            if strategy == "lm_sample":
                args += ["--lm", workdir / "model.arpa"]
            run_cli(*args)
            assert out.read_bytes() == (workdir / "sub.txt").read_bytes()

    def test_gamma_zero_soft_round_trips_tokens(self, workdir, tmp_path):
        out = tmp_path / "g0.soft"
        run_cli("augment", "--input", workdir / "sub.txt", "--strategy", "soft",
                "--gamma", 0, "--seed", 1, "--lm", workdir / "model.arpa", "--output", out)
        model = lmm.load_lm(workdir / "model.arpa")
        originals = (workdir / "sub.txt").read_text().splitlines()
        for line, orig in zip(out.read_text().splitlines(), originals):
            obj = json.loads(line)
            assert obj["soft"] == {}
            assert [model.vocab.surface(t) for t in obj["toks"]] == orig.split()

    def test_replacement_rate_printed(self, workdir, tmp_path):
        proc = run_cli("augment", "--input", workdir / "sub.txt", "--strategy", "blank",
                       "--gamma", 0.15, "--seed", 3, "--output", tmp_path / "b.txt")
        assert "replacement rate:" in proc.stderr
        rate = float(proc.stderr.split("replacement rate:")[1].split()[0])
        assert 0.10 <= rate <= 0.20

    def test_seed_default_announced(self, workdir, tmp_path):
        proc = run_cli("augment", "--input", workdir / "sub.txt", "--strategy", "blank",
                       "--gamma", 0.1, "--output", tmp_path / "d.txt")
        assert "defaulting to 0" in proc.stderr

    def test_invalid_gamma_is_usage_error(self, workdir, tmp_path):
        run_cli("augment", "--input", workdir / "sub.txt", "--strategy", "blank",
                "--gamma", 1.5, "--output", tmp_path / "x", expect=2)

    @pytest.mark.parametrize("flag, value", [("--window", 0), ("--topk", -1), ("--gamma", "nan")])
    def test_invalid_flag_is_usage_error(self, workdir, tmp_path, flag, value):
        proc = run_cli("augment", "--input", workdir / "sub.txt", "--strategy", "swap",
                       flag, value, "--output", tmp_path / "x", expect=2)
        assert "Traceback" not in proc.stderr
        assert flag.lstrip("-") in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("strategy", ["soft", "lm_sample"])
    def test_lm_strategy_without_lm_is_usage_error(self, tmp_path, strategy):
        # The input does not exist: the flags are refused before it is read.
        proc = run_cli("augment", "--input", tmp_path / "missing.txt", "--strategy", strategy,
                       "--gamma", 0.1, "--output", tmp_path / "x", expect=2)
        assert "requires --lm" in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "x").exists()

    def test_config_echo_lists_resolved_flags(self, workdir, tmp_path):
        proc = run_cli("augment", "--input", workdir / "sub.txt", "--strategy", "swap",
                       "--gamma", 0.1, "--seed", 5, "--output", tmp_path / "s.txt")
        header = proc.stderr.splitlines()[0]
        assert "config:" in header
        config = json.loads(header.split("config: ")[1])
        assert config["seed"] == 5 and config["window"] == 3 and config["topk"] == 32


def windows_of(size):
    """A stand-in for ``cli._windows``: windows of *size* lines."""
    def windows(lines, threads):
        lines = iter(lines)
        while window := [line.split() for line in itertools.islice(lines, size)]:
            yield window
    return windows


class TestAugmentWindows:
    """``augment`` reads, augments and writes one window of lines at a time."""

    @pytest.fixture
    def starts(self, monkeypatch):
        """The first sentence index of each window ``augment_corpus`` gets."""
        seen = []
        whole = aug.augment_corpus

        def recorded(*args, **kwargs):
            seen.append(kwargs["start"])
            return whole(*args, **kwargs)

        monkeypatch.setattr(aug, "augment_corpus", recorded)
        return seen

    @pytest.mark.parametrize("strategy", aug.STRATEGIES)
    def test_bytes_and_rate_equal_one_window(self, workdir, tmp_path, capsys, monkeypatch, starts,
                                             strategy):
        raw = tmp_path / "raw.txt"
        lines = (workdir / "sub.txt").read_text().splitlines(keepends=True)[:16]
        raw.write_text("".join(lines[:7] + ["\n"] + lines[7:]))
        model = ["--lm", workdir / "model.arpa"] if strategy in aug.LM_STRATEGIES else []

        def run(name, threads):
            run_main("augment", "--input", raw, "--strategy", strategy, "--gamma", 0.4, "--seed", 3,
                     "--threads", threads, *model, "--output", tmp_path / name)
            return (tmp_path / name).read_bytes(), capsys.readouterr().err.splitlines()[-1]

        whole = run("whole", 1)
        assert starts == [0] and whole[1].startswith("replacement rate: ")
        for size in (1, 7):
            monkeypatch.setattr(cli, "_windows", windows_of(size))
            for threads in (1, 2, 3):
                starts.clear()
                assert run(f"{size}-{threads}", threads) == whole, (size, threads)
                assert starts == list(range(0, 17, size))

    @pytest.mark.parametrize("strategy", ["swap", "soft"])
    def test_output_may_be_the_input(self, workdir, tmp_path, monkeypatch, strategy):
        raw = tmp_path / "raw.txt"
        raw.write_bytes((workdir / "sub.txt").read_bytes())
        args = ["augment", "--input", raw, "--strategy", strategy, "--gamma", 0.3,
                "--lm", workdir / "model.arpa"]
        run_main(*args, "--output", tmp_path / "other")
        monkeypatch.setattr(cli, "_windows", windows_of(7))
        run_main(*args, "--output", raw)
        assert raw.read_bytes() == (tmp_path / "other").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["other", "raw.txt"]

    @pytest.mark.parametrize("strategy", ["soft", "blank"])
    def test_malformed_utf8_after_the_first_window_leaves_no_output(
            self, workdir, tmp_path, capsys, monkeypatch, starts, strategy):
        raw = tmp_path / "raw.txt"
        good = "".join((workdir / "sub.txt").read_text().splitlines(keepends=True)[:5]).encode()
        raw.write_bytes(good + b"alpha \xff beta\n" + good)
        monkeypatch.setattr(cli, "_windows", windows_of(1))
        monkeypatch.setattr(cp, "_READ_BYTES", 16)
        args = ["augment", "--input", raw, "--strategy", strategy, "--gamma", 0.3,
                "--lm", workdir / "model.arpa"]
        for out in (tmp_path / "out", raw):
            assert cli.main([*map(str, args), "--output", str(out)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err[-1] == f"error: malformed UTF-8 at byte {len(good) + 6} in {raw}"
            assert "Traceback" not in "\n".join(err)
            # The model's strategy needs no first pass: five windows went out first.
            assert starts == ([0, 1, 2, 3, 4] if strategy == "soft" else [])
            starts.clear()
            assert sorted(os.listdir(tmp_path)) == ["raw.txt"]
        assert raw.read_bytes() == good + b"alpha \xff beta\n" + good

    @pytest.mark.parametrize("command, args", [
        ("train-lm", ["--order", "2"]), ("augment", ["--strategy", "smooth", "--gamma", "0.3"])])
    def test_piped_input_of_a_two_pass_command(self, workdir, tmp_path, command, args):
        run_cli(command, "--input", workdir / "sub.txt", *args, "--output", tmp_path / "file")
        proc = subprocess.run(
            [sys.executable, "-m", "softaug", command, "--input", "/dev/stdin", *args,
             "--output", str(tmp_path / "pipe")],
            input=(workdir / "sub.txt").read_text(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "pipe").read_bytes() == (tmp_path / "file").read_bytes()


# Four sentences, one per line as file iteration reads them: str.splitlines
# would also break at each separator inside them.  Line 2 ends in CRLF.
LINE_RULE_CORPUS = (
    "alpha beta\u2028gamma delta\u2029beta\n"
    "gamma\x85alpha\x0bdelta beta\r\n"
    "delta\x0cgamma\x1calpha gamma\n"
    "beta\x1dalpha delta\x1ebeta\n"
)


def file_lines(path):
    """The lines of *path* as text-mode file iteration gives them."""
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def run_main(*argv):
    """``softaug *argv`` in process; it must exit 0."""
    assert cli.main(list(map(str, argv))) == 0


@pytest.fixture(scope="module")
def line_rule_dir(tmp_path_factory):
    """The four-line corpus, merges learned on it and a model trained on it."""
    root = tmp_path_factory.mktemp("lines")
    (root / "raw.txt").write_bytes(LINE_RULE_CORPUS.encode("utf-8"))
    run_main("train-bpe", "--input", root / "raw.txt", "--merges", 8, "--output", root / "codes.bpe")
    run_main("train-lm", "--input", root / "raw.txt", "--output", root / "model.arpa")
    return root


class TestLineRule:
    def test_apply_bpe_keeps_the_lines(self, line_rule_dir, tmp_path):
        raw = file_lines(line_rule_dir / "raw.txt")
        assert len(raw) == 4 and len(LINE_RULE_CORPUS.splitlines()) == 4 + 8
        run_main("apply-bpe", "--input", line_rule_dir / "raw.txt", "--codes",
                 line_rule_dir / "codes.bpe", "--output", tmp_path / "sub.txt")
        sub = file_lines(tmp_path / "sub.txt")
        assert [line.replace("@@ ", "") for line in sub] == [" ".join(line.split()) for line in raw]

    @pytest.mark.parametrize("strategy", aug.STRATEGIES)
    def test_augment_keeps_the_lines(self, line_rule_dir, tmp_path, strategy):
        out = tmp_path / "out"
        args = ["augment", "--input", line_rule_dir / "raw.txt", "--strategy", strategy,
                "--gamma", 0.5, "--seed", 2, "--output", out]
        run_main(*args, *(["--lm", line_rule_dir / "model.arpa"]
                          if strategy in aug.LM_STRATEGIES else []))
        assert len(file_lines(out)) == 4
        if strategy == "soft":
            assert len(sa.read_soft_corpus(out)) == 4

    def test_train_lm_counts_one_eos_per_line(self, line_rule_dir, tmp_path, capsys):
        run_main("train-lm", "--input", line_rule_dir / "raw.txt", "--output", tmp_path / "m")
        tokens = sum(len(line.split()) for line in file_lines(line_rule_dir / "raw.txt"))
        assert f", events={tokens + 4}\n" in capsys.readouterr().err

    def test_ppl_scores_the_file_lines(self, line_rule_dir, capsys):
        run_main("ppl", "--lm", line_rule_dir / "model.arpa", "--input", line_rule_dir / "raw.txt")
        model = lmm.load_lm(line_rule_dir / "model.arpa")
        sents = [model.vocab.encode_tokens(line.split())
                 for line in file_lines(line_rule_dir / "raw.txt")]
        assert capsys.readouterr().out == f"{lmm.perplexity(model, sents):.4f}\n"

    def test_lone_carriage_return_ends_a_line(self, line_rule_dir, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_bytes(b"alpha beta\rgamma\r\rdelta\n")
        assert file_lines(raw) == ["alpha beta", "gamma", "", "delta"]
        run_main("apply-bpe", "--input", raw, "--codes", line_rule_dir / "codes.bpe",
                 "--output", tmp_path / "sub.txt")
        run_main("augment", "--input", raw, "--strategy", "swap", "--gamma", 0.5,
                 "--seed", 1, "--output", tmp_path / "swap.txt")
        assert len(file_lines(tmp_path / "sub.txt")) == len(file_lines(tmp_path / "swap.txt")) == 4

    def test_base_writes_what_blank_writes_at_gamma_zero(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("  alpha\t beta  gamma \n\n\x0bdelta\x0c\x0cbeta\n")
        for strategy in ("base", "blank"):
            run_main("augment", "--input", raw, "--strategy", strategy, "--gamma", 0,
                     "--output", tmp_path / strategy)
            assert capsys.readouterr().err.endswith("replacement rate: 0.0000 (0/5)\n")
        assert (tmp_path / "base").read_bytes() == (tmp_path / "blank").read_bytes() == \
            b"alpha beta gamma\n\ndelta beta\n"


class TestNothingToAugment:
    @pytest.mark.parametrize("strategy", aug.STRATEGIES)
    @pytest.mark.parametrize("text", ["", "\n\n"])
    @pytest.mark.parametrize("gamma", [0, 0.3])
    def test_empty_or_blank_input_exits_zero(self, line_rule_dir, tmp_path, capsys,
                                             strategy, text, gamma):
        raw = tmp_path / "raw.txt"
        raw.write_text(text)
        run_main("augment", "--input", raw, "--strategy", strategy, "--gamma", gamma,
                 "--output", tmp_path / "out",
                 *(["--lm", line_rule_dir / "model.arpa"] if strategy in aug.LM_STRATEGIES else []))
        out = (tmp_path / "out").read_text()
        assert out == (text.replace("\n", '{"toks":[],"soft":{}}\n') if strategy == "soft" else text)
        assert capsys.readouterr().err.endswith("replacement rate: 0.0000 (0/0)\n")

    def test_smooth_with_nothing_to_draw_from_is_data_error(self, tmp_path, capsys):
        # <unk> is an ordinary, selectable token, but no unigram mass.
        raw = tmp_path / "raw.txt"
        raw.write_text("<unk> <unk>\n")
        args = ["augment", "--input", raw, "--strategy", "smooth", "--output", tmp_path / "out"]
        assert cli.main([*map(str, args), "--gamma", "1"]) == 1
        assert "error: no non-special tokens" in capsys.readouterr().err
        run_main(*args, "--gamma", 0.3, "--seed", 1)  # this seed selects neither position


class TestGradCheckCommand:
    def test_default_passes(self):
        """The errors are pinned to the bit: a change that moves a bit of
        the training step's gradients shows here."""
        proc = run_cli("grad-check", "--seed", 0)
        assert proc.stdout == "grad check PASS (max 4.242e-07, tolerance 0.0001)\n"
        assert proc.stderr.splitlines() == [
            'softaug grad-check config: {"classes": 3, "command": "grad-check", "dim": 8, '
            '"seed": 0, "vocab_size": 30}',
            "classifier_b: max relative error 3.077e-11",
            "classifier_w: max relative error 9.558e-09",
            "embedding: max relative error 4.242e-07",
        ]


class TestFlagRanges:
    @pytest.mark.parametrize("command, flag, value", [
        ("vocab", "--max-size", 0), ("vocab", "--max-size", 2), ("vocab", "--max-size", -1),
        ("train-bpe", "--merges", 0), ("train-bpe", "--merges", -2),
        ("grad-check", "--vocab-size", 0), ("grad-check", "--vocab-size", -3),
        ("grad-check", "--classes", 0), ("grad-check", "--dim", 0),
    ])
    def test_out_of_range_flag_is_usage_error_before_any_input(self, tmp_path, command, flag, value):
        # The input does not exist: reading it first would exit 1.
        files = [] if command == "grad-check" else [
            "--input", tmp_path / "missing.txt", "--output", tmp_path / "out"]
        proc = run_cli(command, flag, value, *files, expect=2)
        assert "Traceback" not in proc.stderr
        assert any(line.startswith("usage: softaug") for line in proc.stderr.splitlines())
        assert proc.stdout == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["augment", "grad-check"])
    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 10**30])
    def test_seed_outside_range_is_usage_error_before_any_input(self, capsys, tmp_path, command, seed):
        # The input does not exist: reading it first would exit 1.
        out = tmp_path / "out"
        argv = {
            "augment": ["--input", tmp_path / "missing.txt", "--strategy", "swap", "--output", out],
            "grad-check": [],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, *map(str, argv), "--seed", str(seed)])
        assert exit_info.value.code == 2
        assert f"seed must lie in [0, 2^64), not {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["augment", "sweep"])
    @pytest.mark.parametrize("threads", [0, -1, parallel.MAX_THREADS + 1, 10**9])
    def test_threads_outside_range_is_usage_error_before_any_input(
            self, monkeypatch, capsys, tmp_path, command, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("fork_map called")

        # In process, so that a check that lets the value through starts no worker.
        for module in (parallel, aug, harness):
            monkeypatch.setattr(module, "fork_map", no_pool)
        # The input does not exist: reading it first would exit 1.
        missing, out = tmp_path / "missing.txt", tmp_path / "out"
        argv = {
            "augment": ["--input", missing, "--strategy", "swap", "--gamma", 0.5, "--output", out],
            "sweep": ["--spec", missing, "--outdir", out],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, *map(str, argv), "--threads", str(threads)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"threads must lie in [1, {parallel.MAX_THREADS}], not {threads}" in err
        assert not out.exists()


# Spec lines whose task cannot be built; the other keys keep their defaults.
BAD_TASK_LINES = ["classes=0", "vocab_size=3", "sentences=0", "length=0"]


class TestTaskAndSweepCommands:
    SPEC = """
strategies=base,soft
gammas=0,0.1
reps=2
seed=3
vocab_size=60
classes=12
sentences=160
length=6
steps=250
"""

    def test_make_task_emits_corpus_and_labels(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC)
        run_cli("make-task", "--spec", spec, "--outdir", tmp_path / "task")
        corpus = (tmp_path / "task" / "corpus.txt").read_text().splitlines()
        labels = (tmp_path / "task" / "labels.txt").read_text().splitlines()
        assert len(corpus) == 160 and len(labels) == 160
        assert set(labels) <= {"0", "1"}

    def test_sweep_writes_reports(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC)
        proc = run_cli("sweep", "--spec", spec, "--outdir", tmp_path / "out")
        # Per rep, base and soft share the gamma-0 training but not the gamma-0.1 one.
        assert "trained 6 models for 8 cells" in proc.stderr.splitlines()
        sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "strategy,gamma,rep,accuracy,seconds"
        assert len(sweep) == 1 + 2 * 2 * 2
        pivot = (tmp_path / "out" / "pivot.csv").read_text().splitlines()
        assert pivot[0] == "strategy,0,0.1"

    def test_empty_strategy_list_is_usage_error(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("strategies=\ngammas=0\n")
        run_cli("sweep", "--spec", spec, "--outdir", tmp_path / "out", expect=2)

    @pytest.mark.parametrize("line", [
        "lr=nan", "lr=0", "steps=-5", "dim=0", "gammas=", "topk=-1", "window=0",
        "lm_order=0", "discount=1.5", "alpha=nan", "strategies=base,bogus",
        "strategies=base,soft,base", "gammas=0.1,0.10", "gammas=0.1,0.1000001", *BAD_TASK_LINES,
    ])
    def test_bad_recipe_is_usage_error(self, tmp_path, line):
        key, _, value = line.partition("=")
        recipe = {"strategies": "base", "gammas": "0", key: value}
        spec = tmp_path / "spec.txt"
        spec.write_text("".join(f"{k}={v}\n" for k, v in recipe.items()))
        proc = run_cli("sweep", "--spec", spec, "--outdir", tmp_path / "out", expect=2)
        assert "Traceback" not in proc.stderr
        assert "error:" in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["make-task", "sweep"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_range_is_data_error(self, capsys, tmp_path, command, seed):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"strategies=base\nseed={seed}\n")
        assert cli.main([command, "--spec", str(spec), "--outdir", str(tmp_path / "out")]) == 1
        assert f"error: seed must lie in [0, 2^64), not {seed}" in capsys.readouterr().err.splitlines()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", BAD_TASK_LINES)
    def test_bad_task_dimension_is_usage_error_for_make_task(self, tmp_path, line):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"{line}\n")
        proc = run_cli("make-task", "--spec", spec, "--outdir", tmp_path / "task", expect=2)
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "task").exists()
