import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softaug as sa
from softaug import harness as hn
from softaug import softmix as sm
from softaug.rng import SplitMix64, derive

import oracles
from oracles import task_label


class TestSyntheticTask:
    def test_singleton_classes_degenerate_to_token_identity(self):
        task = sa.make_synthetic_task(20, 20, 30, 5, SplitMix64(1))
        for i in range(4, len(task.vocab)):
            surface = task.vocab.surface(i)
            cls = task.class_of_surface(surface)
            assert surface == f"c{cls}w0"

    @pytest.mark.parametrize("dims", [(50, 10, 40, 1), (30, 1, 25, 6), (12, 12, 30, 5),
                                      (1, 1, 1, 1), (500, 50, 300, 12), (37, 5, 6000, 4)])
    def test_equals_per_draw_generator(self, dims):
        rng, scalar = SplitMix64(2**64 - 9), SplitMix64(2**64 - 9)
        task = sa.make_synthetic_task(*dims, rng)
        sentences, labels, vocab = oracles.synthetic_task_per_draw(*dims, scalar)
        assert task.sentences == sentences
        assert task.labels == labels
        assert (task.vocab.surfaces, task.vocab.counts) == (vocab.surfaces, vocab.counts)
        # The stream goes on where the per-draw generator leaves it.
        assert rng.next_u64() == scalar.next_u64()

    def test_vocab_size_bound(self):
        with pytest.raises(ValueError):
            sa.make_synthetic_task(5, 10, 10, 4, SplitMix64(2))

    def test_deterministic_given_seed(self):
        t1 = sa.make_synthetic_task(50, 10, 40, 6, SplitMix64(3))
        t2 = sa.make_synthetic_task(50, 10, 40, 6, SplitMix64(3))
        assert t1.sentences == t2.sentences
        assert t1.labels == t2.labels
        assert t1.vocab.surfaces == t2.vocab.surfaces

    def test_labels_recomputable_by_independent_checker(self):
        task = sa.make_synthetic_task(60, 12, 150, 7, SplitMix64(4))
        for sent, label in zip(task.sentences, task.labels):
            surfaces = [task.vocab.surface(t) for t in sent]
            assert task_label(surfaces, task.marker_classes) == label

    def test_label_balance_reasonable(self):
        task = sa.make_synthetic_task(500, 50, 1000, 12, SplitMix64(5))
        rate = sum(task.labels) / len(task.labels)
        assert 0.15 <= rate <= 0.85


class TestRunSweep:
    def test_single_base_cell_equals_direct_training(self, small_task):
        task, lm = small_task
        spec = sa.SweepSpec(strategies=("base",), gammas=(0.0,), reps=1, steps=400, test_fraction=0.25)
        result = sa.run_sweep(spec, task, lm)
        assert len(result.rows) == 1

        train_x, train_y, test_x, test_y = sa.split_task(task, spec.test_fraction)
        seed = hn._cell_seed(spec.seed, 0.0, 0)
        model = sa.init_model(len(task.vocab), spec.dim, 2, derive(seed, 2))
        sa.train_toy(model, train_x, train_y, spec.lr, spec.steps, SplitMix64(derive(seed, 3)))
        assert result.rows[0].accuracy == sa.evaluate(model, test_x, test_y)

    def test_gamma_zero_cells_equal_across_strategies(self, small_task):
        task, lm = small_task
        spec = sa.SweepSpec(
            strategies=("base", "swap", "dropout", "blank", "smooth", "lm_sample", "soft"),
            gammas=(0.0,),
            reps=2,
            steps=300,
            test_fraction=0.25,
        )
        result = sa.run_sweep(spec, task, lm)
        for rep in range(2):
            accs = {r.accuracy for r in result.rows if r.rep == rep}
            assert len(accs) == 1

    def test_cells_reproducible_in_isolation(self, small_task):
        task, lm = small_task
        spec = sa.SweepSpec(
            strategies=("blank", "soft"), gammas=(0.0, 0.2), reps=2, steps=300, test_fraction=0.25
        )
        result = sa.run_sweep(spec, task, lm)
        probe = [r for r in result.rows if r.strategy == "soft" and r.gamma == 0.2 and r.rep == 1]
        again = sa.run_cell(spec, task, lm, "soft", 0.2, 1)
        assert again.accuracy == probe[0].accuracy

    def test_thread_count_does_not_change_accuracies(self, small_task):
        task, lm = small_task
        spec = sa.SweepSpec(strategies=("base", "soft"), gammas=(0.0, 0.1), reps=1, steps=200, test_fraction=0.25)
        serial = sa.run_sweep(spec, task, lm, threads=1)
        parallel = sa.run_sweep(spec, task, lm, threads=4)
        assert [(r.strategy, r.gamma, r.rep, r.accuracy) for r in serial.rows] == [
            (r.strategy, r.gamma, r.rep, r.accuracy) for r in parallel.rows
        ]

    # swap packs to base's bags at every gamma, and gamma 0 to one corpus.
    SHARED = dict(strategies=("base", "swap", "soft"), gammas=(0.0, 0.15), reps=2, steps=150,
                  test_fraction=0.25)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_row_equals_its_cell_alone(self, small_task, threads):
        task, lm = small_task
        spec = sa.SweepSpec(**self.SHARED)
        result = sa.run_sweep(spec, task, lm, threads=threads)
        assert [(r.strategy, r.gamma, r.rep) for r in result.rows] == [
            (s, g, r) for s in spec.strategies for g in spec.gammas for r in range(spec.reps)
        ]
        for row in result.rows:
            alone = sa.run_cell(spec, task, lm, row.strategy, row.gamma, row.rep)
            assert (alone.strategy, alone.gamma, alone.rep) == (row.strategy, row.gamma, row.rep)
            assert alone.accuracy == row.accuracy

    def test_each_distinct_packed_split_is_trained_once(self, small_task, monkeypatch):
        task, lm = small_task
        spec = sa.SweepSpec(**self.SHARED)
        trainings = []
        real = hn.train_packed
        monkeypatch.setattr(hn, "train_packed", lambda *args: trainings.append(1) or real(*args))
        result = sa.run_sweep(spec, task, lm)

        train_x = sa.split_task(task, spec.test_fraction)[0]
        distinct = set()
        for gamma in spec.gammas:
            for rep in range(spec.reps):
                seed = derive(hn._cell_seed(spec.seed, gamma, rep), 1)
                for strategy in spec.strategies:
                    config = sa.AugmentConfig(strategy, gamma, spec.window, spec.topk, seed=seed)
                    bags = sm.pack_corpus(sa.augment_corpus(train_x, config, lm=lm), len(task.vocab))
                    content = tuple((b.ids.tobytes(), b.weights.tobytes(), b.length) for b in bags)
                    distinct.add((gamma, rep, content))
        # Per rep: one training at gamma 0, base/swap and soft at gamma 0.15.
        assert len(trainings) == len(distinct) == result.trainings == 6
        assert sa.run_sweep(spec, task, lm, threads=2).trainings == 6

    def test_empty_strategies_rejected(self):
        with pytest.raises(ValueError, match="empty strategy list"):
            sa.SweepSpec(strategies=()).validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lr", float("nan"), "lr"),
            ("lr", float("inf"), "lr"),
            ("lr", 0.0, "lr"),
            ("lr", -0.5, "lr"),
            ("steps", -5, "steps"),
            ("dim", 0, "dim"),
            ("gammas", (), "empty gamma list"),
            ("gammas", (0.0, 1.5), "gamma must lie in"),
            ("topk", -1, "topk"),
            ("window", 0, "window"),
            ("lm_order", 0, "order must lie in"),
            ("lm_order", 17, "order must lie in"),
            ("lm_discount", 1.5, "discount"),
            ("lm_alpha", float("nan"), "alpha"),
            ("lm_alpha", float("inf"), "alpha"),
            ("strategies", ("base", "bogus"), "unknown strategy"),
            ("strategies", ("base", "soft", "base"), "repeated strategy: 'base'"),
            ("gammas", (0.1, 0.10), "repeated gamma: 0.1"),
            ("gammas", (0.0, 0.2, -0.0), "repeated gamma: -0.0"),
            # One cell seed (gamma in millionths) and one report label.
            ("gammas", (0.1, 0.1000001), "repeated gamma: 0.1000001"),
            # One report label (0.653259), two cell seeds.
            ("gammas", (0.653259, 0.6532595), "repeated gamma: 0.6532595"),
            # One cell seed (0), two report labels.
            ("gammas", (0.0, 1e-7), "repeated gamma: 1e-07"),
        ],
    )
    def test_bad_recipe_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            sa.SweepSpec(**{"strategies": ("base",), field: value}).validate()

    def test_default_and_readme_grids_validate(self):
        sa.SweepSpec(strategies=sa.STRATEGIES).validate()
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        spec = re.search(r"Sweep spec files are `key=value` text:\n\n```\n(.*?)```", readme, re.S)
        params = hn.parse_spec_file(spec.group(1))
        hn.sweep_spec_from_params(params).validate()
        hn.check_task_dims(*hn.task_dims(params))

    def test_zero_steps_accepted(self):
        sa.SweepSpec(strategies=("base",), steps=0).validate()


class TestReports:
    def sample_result(self):
        rows = [
            hn.CellResult("base", 0.0, 0, 0.9, 1.25),
            hn.CellResult("base", 0.0, 1, 0.88, 1.5),
            hn.CellResult("soft", 0.0, 0, 0.91, 2.125),
            hn.CellResult("soft", 0.0, 1, 0.93, 2.0),
            hn.CellResult("soft", 0.1, 0, 0.92, 2.25),
            hn.CellResult("soft", 0.1, 1, 0.9, 2.375),
        ]
        return hn.SweepResult(rows)

    def test_empty_result_gives_header_only(self, tmp_path):
        sweep_path, pivot_path = sa.emit_report(hn.SweepResult([]), tmp_path)
        assert open(sweep_path).read() == "strategy,gamma,rep,accuracy,seconds\n"
        assert open(pivot_path).read() == "strategy\n"

    def test_round_trip(self):
        result = self.sample_result()
        assert hn.parse_sweep_csv(hn.format_sweep_csv(result)) == result

    def test_pivot_consistent_with_flat_rows(self, tmp_path):
        import csv

        result = self.sample_result()
        sweep_path, pivot_path = sa.emit_report(result, tmp_path)
        # independent aggregation from the flat file
        by_cell: dict[tuple, list[float]] = {}
        with open(sweep_path) as fh:
            for rec in list(csv.reader(fh))[1:]:
                by_cell.setdefault((rec[0], rec[1]), []).append(float(rec[3]))
        with open(pivot_path) as fh:
            pivot = list(csv.reader(fh))
        gammas = pivot[0][1:]
        for row in pivot[1:]:
            for g, cell in zip(gammas, row[1:]):
                if not cell:
                    assert (row[0], g) not in by_cell
                    continue
                expected = by_cell[(row[0], g)]
                assert float(cell) == pytest.approx(sum(expected) / len(expected), abs=1e-6)

    def test_unwritable_path_raises(self):
        with pytest.raises(OSError):
            sa.emit_report(self.sample_result(), "/nonexistent-dir-zzz/sub")


FLOATS = st.floats(allow_nan=False, allow_infinity=False)

# A value strategy per spec key, in the types parse_spec_file returns.
SPEC_VALUES = {
    **{key: st.integers(-10**6, 10**6) for key, parse in hn.SPEC_KEYS.items() if parse is int},
    **{key: FLOATS for key, parse in hn.SPEC_KEYS.items() if parse is float},
    "strategies": st.lists(st.sampled_from(sa.STRATEGIES), min_size=1, max_size=4).map(tuple),
    "gammas": st.lists(FLOATS, min_size=1, max_size=4).map(tuple),
}


class TestSpecFiles:
    def test_parse_round_trip(self):
        text = """
        # demo spec
        strategies = base, soft
        gammas = 0, 0.1, 0.2
        reps = 3
        seed = 9
        vocab_size = 80
        classes = 8
        sentences = 120
        length = 6
        steps = 500
        lr = 0.4
        """
        params = hn.parse_spec_file(text)
        spec = hn.sweep_spec_from_params(params)
        assert spec.strategies == ("base", "soft")
        assert spec.gammas == (0.0, 0.1, 0.2)
        assert spec.reps == 3 and spec.seed == 9
        assert spec.steps == 500 and spec.lr == 0.4
        task = hn.task_from_params(params, spec.seed)
        assert len(task.sentences) == 120

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            hn.parse_spec_file("bogus = 3")

    def test_every_spec_key_reaches_the_spec_or_the_task(self):
        rest = ("strategies", "discount", "alpha")
        text = "\n".join(f"{key}=1" for key in hn.SPEC_KEYS if key not in rest)
        params = hn.parse_spec_file(text + "\nstrategies=base\ndiscount=0.5\nalpha=0.2")
        assert set(params) == set(hn.SPEC_KEYS)
        spec = hn.sweep_spec_from_params(params)
        assert (spec.lm_order, spec.lm_discount, spec.lm_alpha, spec.window) == (1, 0.5, 0.2, 1)
        task = hn.task_from_params(params, spec.seed)
        assert len(task.sentences) == 1 and len(task.vocab) == 5

    @settings(max_examples=100, deadline=None)
    @given(st.fixed_dictionaries({}, optional=SPEC_VALUES))
    def test_written_spec_parses_back(self, params):
        lines = ["# drawn spec"] + [
            f"{key} = {','.join(map(str, v)) if isinstance(v, tuple) else v}"
            for key, v in params.items()
        ]
        assert hn.parse_spec_file("\n".join(lines)) == params

    @pytest.mark.parametrize("text, match", [
        ("reps=1\nreps=2", "repeated spec key on line 2"),
        ("strategies=base\n# x\nstrategies=soft", "repeated spec key on line 3"),
        ("reps", "bad spec line 1"),
        ("=3", "bad spec line 1"),
        ("reps=two", "invalid literal"),
        ("lr=fast", "could not convert"),
        ("bogus=3", "unknown spec key"),
    ])
    def test_corrupt_spec_raises_value_error(self, text, match):
        with pytest.raises(ValueError, match=match):
            hn.parse_spec_file(text)

    def test_missing_strategies_rejected(self):
        with pytest.raises(ValueError, match="strategies"):
            hn.sweep_spec_from_params(hn.parse_spec_file("reps = 2"))

