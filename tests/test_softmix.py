import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import softaug as sa
from softaug import softmix as sm
from softaug.augment import Dist, SoftWord
from softaug.rng import SplitMix64, derive

import oracles
from oracles import brute_mix, sgd_step_oracle, train_per_step


def random_model(seed, vocab_size=30, dim=8, classes=3, zero_classifier=False):
    model = sa.init_model(vocab_size, dim, classes, derive(seed, 1))
    if not zero_classifier:
        rng = SplitMix64(derive(seed, 2))
        model.w = np.array(
            [[rng.random() * 2 - 1 for _ in range(dim)] for _ in range(classes)]
        )
        model.b = np.array([rng.random() * 0.2 - 0.1 for _ in range(classes)])
    return model


def random_soft(rng, vocab_size, k):
    ids = []
    while len(ids) < k:
        i = rng.randint(vocab_size)
        if i not in ids:
            ids.append(i)
    probs = np.array([rng.random() + 1e-3 for _ in ids])
    probs /= probs.sum()
    order = np.lexsort((np.array(ids), -probs))
    return SoftWord(Dist(probs[order], np.array(ids, dtype=np.int64)[order]), int(ids[0]))


def random_sentence(rng, vocab_size, length, soft_prob=0.5, k=4):
    out = []
    for _ in range(length):
        if rng.random() < soft_prob:
            out.append(random_soft(rng, vocab_size, k))
        else:
            out.append(rng.randint(vocab_size))
    return out


@st.composite
def training_runs(draw):
    """(model, corpus, labels, lr, steps, rng seed): hard, soft or mixed
    sentences, 1, 2, 3 or 9 classes (9 reaches numpy's pairwise sum); lr
    1e200 makes most runs diverge."""
    seed = draw(st.integers(0, 2**64 - 1))
    classes = draw(st.sampled_from([1, 2, 3, 9]))
    soft_prob = draw(st.sampled_from([0.0, 0.5, 1.0]))
    vocab_size = draw(st.integers(1, 12))
    rng = SplitMix64(seed)
    corpus = [
        random_sentence(rng, vocab_size, 1 + rng.randint(6), soft_prob, 1 + rng.randint(vocab_size))
        for _ in range(draw(st.integers(1, 8)))
    ]
    labels = [rng.randint(classes) for _ in corpus]
    model = random_model(seed, vocab_size, draw(st.integers(1, 6)), classes)
    steps = draw(st.one_of(st.just(0), st.integers(1, 150)))
    return model, corpus, labels, draw(st.sampled_from([0.05, 0.5, 3.0, 1e200])), steps, seed


class TestMixEmbedding:
    def test_hard_returns_exact_row(self):
        model = random_model(1)
        row = sa.mix_embedding(5, model.emb)
        assert np.array_equal(row, model.emb[5])

    def test_point_mass_equals_row_bitwise(self):
        model = random_model(2)
        word = SoftWord(Dist(np.array([1.0]), np.array([7])), 7)
        assert np.array_equal(sa.mix_embedding(word, model.emb), model.emb[7])

    def test_uniform_pair_is_average(self):
        model = random_model(3)
        word = SoftWord(Dist(np.array([0.5, 0.5]), np.array([2, 9])), 2)
        expected = (model.emb[2] + model.emb[9]) / 2
        assert np.max(np.abs(sa.mix_embedding(word, model.emb) - expected)) <= 1e-15

    def test_matches_brute_force_accumulation(self):
        model = random_model(4, vocab_size=64, dim=16)
        rng = SplitMix64(5)
        for _ in range(200):
            word = random_soft(rng, 64, 32)
            mine = sa.mix_embedding(word, model.emb)
            ref = brute_mix(
                list(zip(word.dist.ids.tolist(), word.dist.probs.tolist())),
                model.emb.tolist(),
            )
            assert np.max(np.abs(mine - np.array(ref))) <= 1e-12

    def test_dense_distribution(self):
        model = random_model(6, vocab_size=10)
        probs = np.full(10, 0.1)
        word = SoftWord(Dist(probs, np.arange(10)), 0)
        expected = model.emb.mean(axis=0)
        assert np.max(np.abs(sa.mix_embedding(word, model.emb) - expected)) <= 1e-12

    def test_id_out_of_range(self):
        model = random_model(7, vocab_size=5)
        with pytest.raises(ValueError, match="id out of range"):
            sa.mix_embedding(5, model.emb)
        bad = SoftWord(Dist(np.array([1.0]), np.array([9])), 9)
        with pytest.raises(ValueError, match="id out of range"):
            sa.mix_embedding(bad, model.emb)

    def test_linearity_in_the_distribution(self):
        model = random_model(8, vocab_size=20)
        rng = SplitMix64(9)
        ids = np.arange(20, dtype=np.int64)
        for _ in range(50):
            p = np.array([rng.random() for _ in range(20)])
            q = np.array([rng.random() for _ in range(20)])
            p /= p.sum()
            q /= q.sum()
            a = rng.random()
            blended = sa.mix_embedding(SoftWord(Dist(a * p + (1 - a) * q, ids), 0), model.emb)
            parts = a * sa.mix_embedding(SoftWord(Dist(p, ids), 0), model.emb) + (
                1 - a
            ) * sa.mix_embedding(SoftWord(Dist(q, ids), 0), model.emb)
            assert np.max(np.abs(blended - parts)) <= 1e-12

    def test_convex_hull_property(self):
        model = random_model(10, vocab_size=12)
        rng = SplitMix64(11)
        for _ in range(100):
            word = random_soft(rng, 12, 5)
            mixed = sa.mix_embedding(word, model.emb)
            support = model.emb[word.dist.ids]
            assert np.all(mixed <= support.max(axis=0) + 1e-15)
            assert np.all(mixed >= support.min(axis=0) - 1e-15)


class TestForwardLoss:
    def test_zero_classifier_gives_uniform_and_log_c(self):
        model = random_model(12, classes=4, zero_classifier=True)
        sent = [1, 2, 3]
        probs = sa.forward(model, sent)
        assert np.max(np.abs(probs - 0.25)) == 0.0
        assert sa.loss(model, sent, 2) == pytest.approx(math.log(4), abs=1e-15)

    def test_probabilities_sum_to_one(self):
        model = random_model(13)
        rng = SplitMix64(14)
        for _ in range(200):
            sent = random_sentence(rng, 30, 1 + rng.randint(8))
            assert abs(sa.forward(model, sent).sum() - 1.0) <= 1e-12

    def test_empty_sentence_rejected(self):
        model = random_model(15)
        with pytest.raises(ValueError, match="empty sentence"):
            sa.forward(model, [])

    def test_label_out_of_range(self):
        model = random_model(16, classes=2)
        with pytest.raises(ValueError, match="label out of range"):
            sa.loss(model, [1], 2)


class TestBackward:
    def test_untouched_rows_have_zero_grad(self):
        model = random_model(17)
        rows, _, _ = sa.backward(model, [3, SoftWord(Dist(np.array([1.0]), np.array([5])), 5)], 1)
        assert set(rows) == {3, 5}

    def test_hard_equals_point_mass_soft_bitwise(self):
        model = random_model(18)
        hard_rows, hard_w, hard_b = sa.backward(model, [4, 9], 1)
        soft_sent = [
            SoftWord(Dist(np.array([1.0]), np.array([4])), 4),
            SoftWord(Dist(np.array([1.0]), np.array([9])), 9),
        ]
        soft_rows, soft_w, soft_b = sa.backward(model, soft_sent, 1)
        assert np.array_equal(hard_w, soft_w)
        assert np.array_equal(hard_b, soft_b)
        assert set(hard_rows) == set(soft_rows)
        for i in hard_rows:
            assert np.array_equal(hard_rows[i], soft_rows[i])

    def test_soft_grad_scales_with_probability(self):
        model = random_model(19)
        word = SoftWord(Dist(np.array([0.75, 0.25]), np.array([2, 6])), 2)
        rows, _, _ = sa.backward(model, [word], 0)
        assert np.max(np.abs(rows[2] - 3.0 * rows[6])) <= 1e-15

    def test_grad_check_on_random_instances(self):
        for trial in range(10):
            model = random_model(derive(20, trial), vocab_size=20, dim=6, classes=3)
            rng = SplitMix64(derive(21, trial))
            batch = [
                (random_sentence(rng, 20, 1 + rng.randint(6)), rng.randint(3))
                for _ in range(3)
            ]
            report = sa.grad_check(model, batch)
            assert report.passed, report.errors

    def test_grad_check_detects_wrong_gradient(self, monkeypatch):
        """A wrong dW fails the check and changes what a training step
        leaves: the check's subject is the code training runs."""
        model = random_model(22)
        rng = SplitMix64(23)
        batch = [(random_sentence(rng, 30, 5), 1)]

        def one_step():
            trained = model.copy()
            sa.train_toy(trained, [batch[0][0]], [batch[0][1]], 0.5, 1, SplitMix64(0))
            return trained

        right = one_step()
        real = sm._Lockstep.gradients

        def broken(self, i):
            rows, dw, db = real(self, i)
            return rows, dw * 1.01, db

        monkeypatch.setattr(sm._Lockstep, "gradients", broken)
        assert not sa.grad_check(model, batch).passed
        assert not np.array_equal(one_step().w, right.w)

    @settings(max_examples=150, deadline=None)
    @given(training_runs())
    def test_training_step_applies_the_checked_gradients(self, run):
        """One SGD step moves each parameter by lr times ``backward``'s
        gradient of the drawn sentence, bit for bit, and records its
        ``loss``: training applies the gradients that ``grad_check``
        verifies."""
        model, corpus, labels, lr, _, seed = run
        i = SplitMix64(seed).randint(len(corpus))
        rows, dw, db = sa.backward(model, corpus[i], labels[i])
        want = model.copy()
        for row, grad in rows.items():
            want.emb[row] -= grad * lr
        want.w -= dw * lr
        want.b -= db * lr
        want_loss = sa.loss(model, corpus[i], labels[i])
        _, trace = sa.train_toy(model, corpus, labels, lr, 1, SplitMix64(seed))
        assert_same_bits(trace, [want_loss])
        for got, ref in ((model.emb, want.emb), (model.w, want.w), (model.b, want.b)):
            assert_same_bits(got, ref)


class TestTraining:
    def marker_dataset(self, seed, n=400, vocab_size=20, length=8, marker=6):
        rng = SplitMix64(seed)
        corpus, labels = [], []
        for _ in range(n):
            has = rng.random() < 0.5
            sent = []
            for _ in range(length):
                t = 4 + rng.randint(vocab_size - 4)
                while t == marker:
                    t = 4 + rng.randint(vocab_size - 4)
                sent.append(t)
            if has:
                sent[rng.randint(length)] = marker
            corpus.append(sent)
            labels.append(int(has))
        return corpus, labels

    @pytest.mark.parametrize("dims", [(0, 8, 3), (-3, 8, 3), (30, 0, 3), (30, 8, 0)])
    def test_model_dimension_below_one_is_refused(self, dims):
        with pytest.raises(ValueError, match="vocab_size, dim and classes must be >= 1"):
            sa.init_model(*dims, seed=1)

    def test_zero_steps_leaves_model_unchanged(self):
        model = random_model(24)
        snapshot = model.copy()
        corpus, labels = self.marker_dataset(25, n=20)
        sa.train_toy(model, corpus, labels, 0.5, 0, SplitMix64(26))
        assert np.array_equal(model.emb, snapshot.emb)
        assert np.array_equal(model.w, snapshot.w)

    def test_marker_task_reaches_95_percent(self):
        corpus, labels = self.marker_dataset(27)
        model = sa.init_model(20, 16, 2, seed=28)
        sa.train_toy(model, corpus[:300], labels[:300], 0.5, 3000, SplitMix64(29))
        assert sa.evaluate(model, corpus[300:], labels[300:]) >= 0.95

    def test_same_seed_same_trace(self):
        corpus, labels = self.marker_dataset(30, n=50)
        m1 = sa.init_model(20, 8, 2, seed=31)
        m2 = sa.init_model(20, 8, 2, seed=31)
        _, t1 = sa.train_toy(m1, corpus, labels, 0.3, 200, SplitMix64(32))
        _, t2 = sa.train_toy(m2, corpus, labels, 0.3, 200, SplitMix64(32))
        assert t1 == t2

    def test_loss_trend_decreases_on_separable_data(self):
        corpus, labels = self.marker_dataset(33, n=100)
        model = sa.init_model(20, 16, 2, seed=34)
        _, trace = sa.train_toy(model, corpus, labels, 0.5, 200, SplitMix64(35))
        windows = [sum(trace[i : i + 10]) / 10 for i in range(0, 200, 10)]
        # Single-sample SGD wiggles, so the oracle is the smoothed trend:
        # negative slope and a clear first-half to second-half drop.
        slope = np.polyfit(np.arange(len(windows)), windows, 1)[0]
        assert slope < 0
        assert windows[-1] < windows[0]
        assert np.mean(windows[10:]) < 0.7 * np.mean(windows[:10])

    def test_hard_equals_point_mass_training_bitwise(self):
        corpus, labels = self.marker_dataset(40, n=60)
        soft = [[SoftWord(Dist(np.array([1.0]), np.array([t])), t) for t in s] for s in corpus]
        m1 = sa.init_model(20, 8, 2, seed=41)
        m2 = sa.init_model(20, 8, 2, seed=41)
        _, t1 = sa.train_toy(m1, corpus, labels, 0.5, 300, SplitMix64(42))
        _, t2 = sa.train_toy(m2, soft, labels, 0.5, 300, SplitMix64(42))
        assert t1 == t2
        for a, b in ((m1.emb, m2.emb), (m1.w, m2.w), (m1.b, m2.b)):
            assert np.array_equal(a, b)

    def test_support_order_does_not_change_training(self):
        """Full support in probability order trains bitwise equal to full
        support in id order."""
        rng = SplitMix64(43)
        corpus, id_order_corpus, labels = [], [], []
        for _ in range(30):
            probs = np.array([rng.random() + 1e-3 for _ in range(20)])
            probs /= probs.sum()
            order = np.lexsort((np.arange(20), -probs))
            hard = [4 + rng.randint(16) for _ in range(5)]
            pos = rng.randint(6)
            by_prob = SoftWord(Dist(probs[order], order.astype(np.int64)), 4)
            by_id = SoftWord(Dist(probs, np.arange(20)), 4)
            corpus.append(hard[:pos] + [by_prob] + hard[pos:])
            id_order_corpus.append(hard[:pos] + [by_id] + hard[pos:])
            labels.append(rng.randint(2))
        m1 = sa.init_model(20, 8, 2, seed=44)
        m2 = sa.init_model(20, 8, 2, seed=44)
        _, t1 = sa.train_toy(m1, corpus, labels, 0.5, 200, SplitMix64(45))
        _, t2 = sa.train_toy(m2, id_order_corpus, labels, 0.5, 200, SplitMix64(45))
        assert t1 == t2
        for a, b in ((m1.emb, m2.emb), (m1.w, m2.w), (m1.b, m2.b)):
            assert np.array_equal(a, b)

    def test_shared_rows_step_matches_oracle(self):
        model = random_model(46, vocab_size=12, dim=5, classes=3)
        word = SoftWord(Dist(np.array([0.5, 0.3, 0.2]), np.array([7, 3, 9])), 7)
        # Row 3 is hit twice as a hard id and once through the soft support.
        sentence = [3, word, 5, 3]
        label, lr = 2, 0.7
        oracle_sentence = [3, [(7, 0.5), (3, 0.3), (9, 0.2)], 5, 3]
        want_loss, want_emb, want_w, want_b = sgd_step_oracle(
            oracle_sentence, label, model.emb.tolist(), model.w.tolist(), model.b.tolist(), lr
        )
        _, trace = sa.train_toy(model, [sentence], [label], lr, 1, SplitMix64(47))
        assert abs(trace[0] - want_loss) <= 1e-12
        assert np.max(np.abs(model.emb - np.array(want_emb))) <= 1e-12
        assert np.max(np.abs(model.w - np.array(want_w))) <= 1e-12
        assert np.max(np.abs(model.b - np.array(want_b))) <= 1e-12

    @pytest.mark.parametrize(
        "bad_corpus, bad_labels, match",
        [
            ([[4, 5], [4, 25]], [0, 1], "id out of range"),
            ([[4, 5], [4, SoftWord(Dist(np.array([1.0]), np.array([-1])), 4)]], [0, 1], "id out of range"),
            ([[4, 5], [4, 6]], [0, 2], "label out of range"),
            ([[4, 5], []], [0, 1], "empty sentence"),
        ],
    )
    def test_malformed_input_rejected_before_training(self, bad_corpus, bad_labels, match):
        model = sa.init_model(20, 8, 2, seed=48)
        snapshot = model.copy()
        # Zero steps: the check must not depend on which sample SGD draws.
        with pytest.raises(ValueError, match=match):
            sa.train_toy(model, bad_corpus, bad_labels, 0.5, 0, SplitMix64(49))
        assert np.array_equal(model.emb, snapshot.emb)

    def test_empty_corpus_cannot_draw_a_sample(self):
        model = random_model(50)
        for steps in (0, 3):
            with pytest.raises(ValueError, match="empty corpus"):
                sa.train_toy(model, [], [], 0.5, steps, SplitMix64(51))

    def test_evaluate_label_out_of_range(self):
        model = random_model(36, classes=2)
        with pytest.raises(ValueError, match="label out of range"):
            sa.evaluate(model, [[1]], [5])
        with pytest.raises(ValueError, match="label 0.5 is not an integer"):
            sa.evaluate(model, [[1]], [0.5])

    def test_numpy_integer_labels_pass(self):
        corpus, labels = self.marker_dataset(37, n=30)
        as_numpy = list(np.array(labels, dtype=np.int64))
        m1 = sa.init_model(20, 8, 2, seed=38)
        m2 = sa.init_model(20, 8, 2, seed=38)
        _, t1 = sa.train_toy(m1, corpus, labels, 0.5, 50, SplitMix64(39))
        _, t2 = sa.train_toy(m2, corpus, as_numpy, 0.5, 50, SplitMix64(39))
        assert t1 == t2
        assert sa.evaluate(m1, corpus, labels) == sa.evaluate(m2, corpus, as_numpy)


class TestPackedCorpus:
    def test_sentence_i_is_its_own_bag(self):
        rng = SplitMix64(63)
        corpus = [random_sentence(rng, 20, 1 + rng.randint(8)) for _ in range(12)]
        packed = sm.pack_corpus(corpus, 20)
        assert len(packed) == len(corpus)
        bags = [sm.pack_corpus([sentence], 20)[0] for sentence in corpus]
        for got in (list(packed), [packed[i] for i in range(len(corpus))],
                    [packed[i - len(corpus)] for i in range(len(corpus))]):
            for bag, want in zip(got, bags, strict=True):
                assert bag.ids.tobytes() == want.ids.tobytes()
                assert_same_bits(bag.weights, want.weights)
                assert bag.length == want.length
        with pytest.raises(IndexError):
            packed[len(corpus)]

    def test_empty_corpus_packs_to_no_bags(self):
        packed = sm.pack_corpus([], 5)
        assert len(packed) == 0 and list(packed) == []

    def test_lockstep_evaluation_is_each_models_argmax(self):
        rng = SplitMix64(64)
        corpus = [random_sentence(rng, 20, 1 + rng.randint(8)) for _ in range(40)]
        labels = [rng.randint(3) for _ in corpus]
        models = [random_model(derive(65, k), 20, 6, 3) for k in range(3)]
        want = [
            sum(int(np.argmax(sa.forward(m, s))) == y for s, y in zip(corpus, labels)) / len(corpus)
            for m in models
        ]
        assert sm._Lockstep(models).evaluate(sm.pack_corpus(corpus, 20), labels) == want
        assert [sa.evaluate(m, corpus, labels) for m in models] == want


@st.composite
def pack_items(draw, vocab_size, outside):
    """A hard id or a soft word over ids in [0, vocab_size), or around it
    when *outside*: point masses, empty supports and any entry order."""
    ids = st.integers(-2, vocab_size + 1) if outside else st.integers(0, vocab_size - 1)
    if draw(st.booleans()):
        return draw(ids)
    support = draw(st.lists(ids, max_size=4, unique=True))
    probs = draw(st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
                          min_size=len(support), max_size=len(support)))
    return SoftWord(Dist(np.array(probs, dtype=np.float64), np.array(support, dtype=np.int64)),
                    support[0] if support else 0)


@st.composite
def pack_corpora(draw):
    vocab_size = draw(st.integers(1, 10))
    outside = draw(st.booleans())
    corpus = draw(st.lists(st.lists(pack_items(vocab_size, outside), min_size=1, max_size=6),
                           max_size=6))
    if draw(st.booleans()):
        corpus.insert(draw(st.integers(0, len(corpus))), [])
    return corpus, vocab_size


def packed_or_refusal(pack, corpus, vocab_size):
    """The bytes of (ids, weights, starts, lengths), or the refusal's message."""
    try:
        packed = pack(corpus, vocab_size)
    except ValueError as exc:
        return str(exc)
    if isinstance(packed, sm.PackedCorpus):
        packed = (packed.ids, packed.weights, packed.starts, packed.lengths)
    return [(a.dtype.str, a.tobytes()) for a in packed]


class TestPackOracle:
    """``pack_corpus`` from columns against the per-entry dict reference."""

    @settings(max_examples=300, deadline=None)
    @given(pack_corpora())
    def test_equals_the_per_entry_reference_bit_for_bit(self, case):
        corpus, vocab_size = case
        assert packed_or_refusal(sm.pack_corpus, corpus, vocab_size) == packed_or_refusal(
            oracles.pack_corpus, corpus, vocab_size)

    def test_one_id_across_hard_and_soft_positions(self):
        word = SoftWord(Dist(np.array([0.3, 0.7]), np.array([5, 2])), 5)
        corpus = [[5, word, 5, word], [word, 2]]
        assert packed_or_refusal(sm.pack_corpus, corpus, 6) == packed_or_refusal(
            oracles.pack_corpus, corpus, 6)
        assert sm.pack_corpus(corpus, 6)[0].weights.tolist() == [0.7 + 0.7, 1.0 + 0.3 + 1.0 + 0.3]

    def test_entry_order_and_point_masses_do_not_change_the_bags(self):
        word = SoftWord(Dist(np.array([0.25, 0.5, 0.25]), np.array([3, 1, 7])), 3)
        shuffled = SoftWord(Dist(np.array([0.5, 0.25, 0.25]), np.array([1, 7, 3])), 3)
        point = SoftWord(Dist(np.array([1.0]), np.array([6])), 6)
        assert packed_or_refusal(sm.pack_corpus, [[3, word, 1], [point, 2]], 8) == packed_or_refusal(
            sm.pack_corpus, [[3, shuffled, 1], [6, 2]], 8)

    @pytest.mark.parametrize("corpus, message", [
        ([[4, 5], [], [9]], "empty sentence"),
        ([[4, 5], [9], []], "id out of range: 9"),
        ([[4, -1, 9, SoftWord(Dist(np.array([0.5, 0.5]), np.array([30, -2])), 30)]],
         "id out of range: -2"),
        ([[4, 5], [SoftWord(Dist(np.array([0.5, 0.5]), np.array([12, 8])), 12), 7]],
         "id out of range: 12"),
    ])
    def test_refusals_name_what_the_reference_names(self, corpus, message):
        assert packed_or_refusal(oracles.pack_corpus, corpus, 9) == message
        with pytest.raises(ValueError, match=f"^{message}$"):
            sm.pack_corpus(corpus, 9)


class TestEmbeddingFile:
    def test_round_trip_is_exact(self, tmp_path):
        model = random_model(37, vocab_size=9, dim=5)
        path = tmp_path / "emb.txt"
        sa.save_embedding(path, model.emb)
        header = path.read_text().splitlines()[0]
        assert header == "9 5"
        again = sa.load_embedding(path)
        assert np.array_equal(again, model.emb)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("3 2\n0.1 0.2\n0.3 0.4\n", "header says 3"),
            ("3\n0.1 0.2\n", "bad embedding header"),
            ("x 2\n0.1 0.2\n", "bad embedding header"),
            ("-1 2\n", "bad embedding header"),
            ("1 2\n0.1\n", "bad embedding row"),
            ("1 2\n0.1 0.2\n0.3 0.4\n", "header says 1"),
        ],
    )
    def test_malformed_file_raises_value_error(self, tmp_path, text, match):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            sa.load_embedding(path)


def embeddings(min_rows=0):
    shape = st.tuples(st.integers(min_rows, 6), st.integers(1, 5))
    return hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False))


# Each turns the (header fields, row lines) of a saved embedding with at
# least one row into lines that load_embedding refuses.
EMBEDDING_CORRUPTIONS = {
    "row missing": lambda rows, dim, body: [f"{rows + 1} {dim}"] + body,
    "row extra": lambda rows, dim, body: [f"{rows - 1} {dim}"] + body,
    "blank line appended": lambda rows, dim, body: [f"{rows} {dim}"] + body + [""],
    "rows short": lambda rows, dim, body: [f"{rows} {dim + 1}"] + body,
    "rows long": lambda rows, dim, body: [f"{rows} {dim - 1}"] + body,
    "value not a number": lambda rows, dim, body: [f"{rows} {dim}", "x" + body[0]] + body[1:],
    "header of three fields": lambda rows, dim, body: [f"{rows} {dim} 1"] + body,
    "header not integers": lambda rows, dim, body: [f"{rows}.0 {dim}"] + body,
}


class TestEmbeddingFileProperties:
    @settings(max_examples=100, deadline=None)
    @given(embeddings())
    def test_round_trip_is_exact(self, scratch_file, emb):
        sa.save_embedding(scratch_file, emb)
        again = sa.load_embedding(scratch_file)
        assert again.shape == emb.shape and again.tobytes() == emb.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(embeddings(), st.data())
    def test_every_truncation_raises_value_error(self, scratch_file, emb, data):
        sa.save_embedding(scratch_file, emb)
        text = scratch_file.read_bytes()
        scratch_file.write_bytes(text[: data.draw(st.integers(0, len(text) - 1))])
        with pytest.raises(ValueError):
            sa.load_embedding(scratch_file)

    def test_cut_inside_last_value_is_refused(self, tmp_path):
        path = tmp_path / "emb.txt"
        sa.save_embedding(path, np.array([[0.123456789, -0.5], [0.25, 0.987654321]]))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="cut short"):
            sa.load_embedding(path)

    @settings(max_examples=100, deadline=None)
    @given(embeddings(min_rows=1), st.sampled_from(sorted(EMBEDDING_CORRUPTIONS)))
    def test_corrupt_file_raises_value_error(self, scratch_file, emb, kind):
        sa.save_embedding(scratch_file, emb)
        body = scratch_file.read_text().splitlines()[1:]
        lines = EMBEDDING_CORRUPTIONS[kind](*emb.shape, body)
        scratch_file.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError):
            sa.load_embedding(scratch_file)


class TestCsvOutputs:
    def test_loss_trace_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        sa.save_loss_trace(path, [0.7, 0.52, 0.4])
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert lines[1].startswith("0,0.7")
        assert len(lines) == 4


@st.composite
def lockstep_runs(draw):
    """(model, corpora, labels, lr, steps, seeds) for K = 1-4 models
    started from one model: sentence i of each corpus is drawn on its own,
    so its bag and length differ across models, and model k draws its
    samples from seed k, which 1-3 distinct seeds share out; 1, 2 or 9
    classes, d = 1 to 5, and lr up to 1e200, where most runs diverge."""
    seed = draw(st.integers(0, 2**64 - 1))
    classes = draw(st.sampled_from([1, 2, 9]))
    vocab_size = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    rng = SplitMix64(seed)
    k_models = draw(st.integers(1, 4))
    corpora = [
        [
            random_sentence(rng, vocab_size, 1 + rng.randint(6), 0.5, 1 + rng.randint(vocab_size))
            for _ in range(n)
        ]
        for _ in range(k_models)
    ]
    labels = [rng.randint(classes) for _ in range(n)]
    model = random_model(seed, vocab_size, draw(st.sampled_from([1, 2, 5])), classes)
    steps = draw(st.one_of(st.just(0), st.integers(1, 120)))
    streams = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3, unique=True))
    seeds = draw(st.lists(st.sampled_from(streams), min_size=k_models, max_size=k_models))
    return model, corpora, labels, draw(st.sampled_from([0.05, 0.5, 3.0, 1e200])), steps, seeds


def assert_same_bits(a, b):
    assert np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def assert_same_finite_bits(a, b):
    """NaN in the same places, and every other value with the same bits:
    which NaN an operation returns is not part of the result."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert_same_bits(a[~np.isnan(a)], b[~np.isnan(b)])


class TestLeanTrainingLoop:
    """``train_toy`` against the step-at-a-time loop, bit for bit."""

    def check_against_oracle(self, model, corpus, labels, lr, steps, seed):
        ref = model.copy()
        rng, ref_rng = SplitMix64(seed), SplitMix64(seed)
        # A saturated softmax puts probability 0 on the label: its loss is inf.
        with np.errstate(all="ignore"):
            _, trace = sa.train_toy(model, corpus, labels, lr, steps, rng)
            bags = sm.pack_corpus(corpus, len(ref.emb))
            want = train_per_step(ref, bags, labels, lr, steps, ref_rng)
        assert len(trace) == steps
        assert_same_finite_bits(trace, want)
        for got, ref_param in ((model.emb, ref.emb), (model.w, ref.w), (model.b, ref.b)):
            assert_same_finite_bits(got, ref_param)
        assert rng.next_u64() == ref_rng.next_u64()

    @settings(max_examples=150, deadline=None)
    @given(training_runs())
    def test_matches_per_step_loop_bitwise(self, run):
        self.check_against_oracle(*run)

    @pytest.mark.parametrize("classes", [2, 9])
    def test_diverging_run_matches_per_step_loop_bitwise(self, classes):
        """Overflowing logits give inf and NaN probabilities, in the same
        places as the per-step loop's."""
        rng = SplitMix64(52)
        corpus = [random_sentence(rng, 10, 5) for _ in range(6)]
        labels = [rng.randint(classes) for _ in corpus]
        model = random_model(53, 10, 4, classes)
        self.check_against_oracle(model, corpus, labels, 1e200, 40, 54)
        assert np.isnan(model.w).any()

    def check_lockstep_against_oracle(self, model, corpora, labels, lr, steps, seeds):
        """K models trained in lockstep, model k on a stream of seed k,
        which models of one seed share, equal K runs of the per-step loop,
        each from a fresh stream of its seed; each stream ends where those
        runs leave it."""
        vocab_size = len(model.emb)
        models = [model.copy() for _ in corpora]
        streams = {seed: SplitMix64(seed) for seed in seeds}
        with np.errstate(all="ignore"):
            packed = [sm.pack_corpus(corpus, vocab_size) for corpus in corpora]
            losses = sm._Lockstep(models).train(packed, labels, lr, steps, [streams[s] for s in seeds])
            assert losses.shape == (steps, len(corpora))
            for k, (trained, corpus, seed) in enumerate(zip(models, corpora, seeds)):
                ref, ref_rng = model.copy(), SplitMix64(seed)
                want = train_per_step(ref, [sm.pack_corpus([s], vocab_size)[0] for s in corpus], labels, lr,
                                      steps, ref_rng)
                assert_same_finite_bits(losses[:, k], want)
                for got, ref_param in ((trained.emb, ref.emb), (trained.w, ref.w), (trained.b, ref.b)):
                    assert_same_finite_bits(got, ref_param)
                assert streams[seed].peek(1).tobytes() == ref_rng.peek(1).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(lockstep_runs())
    def test_lockstep_matches_per_step_loop_bitwise(self, run):
        self.check_lockstep_against_oracle(*run)

    @pytest.mark.parametrize("classes", [2, 9])
    def test_diverging_lockstep_matches_per_step_loop_bitwise(self, classes):
        """One model diverges to NaN while the others' rows stay finite;
        each still matches its own per-step run, the first two on one
        shared stream."""
        rng = SplitMix64(55)
        corpora = [[random_sentence(rng, 10, 1 + rng.randint(6)) for _ in range(6)] for _ in range(4)]
        labels = [rng.randint(classes) for _ in range(6)]
        model = random_model(56, 10, 4, classes)
        self.check_lockstep_against_oracle(model, corpora, labels, 1e200, 40, [57, 57, 58, 59])

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("steps", [0, 1, 7, 40])
    def test_chunk_boundaries_do_not_change_the_bits(self, monkeypatch, chunk, steps):
        """Schedules cut into chunks of 1 or 3 steps train and score as
        one whole chunk does, and leave the streams at the same place."""
        rng = SplitMix64(66)
        corpora = [[random_sentence(rng, 12, 1 + rng.randint(6)) for _ in range(8)] for _ in range(3)]
        labels = [rng.randint(3) for _ in range(8)]
        model = random_model(67, 12, 4, 3)
        packed = [sm.pack_corpus(corpus, 12) for corpus in corpora]

        def run():
            models = [model.copy() for _ in corpora]
            shared = SplitMix64(68)
            streams = [shared, SplitMix64(69), shared]
            run = sm._Lockstep(models)
            losses = run.train(packed, labels, 0.5, steps, streams)
            scores = run.evaluate(packed[0], labels)
            return losses, models, scores, [s.peek(1).tobytes() for s in streams]

        whole = run()
        monkeypatch.setattr(sm._Lockstep, "chunk", chunk)
        cut = run()
        assert_same_bits(cut[0], whole[0])
        for got, want in zip(cut[1], whole[1]):
            for a, b in ((got.emb, want.emb), (got.w, want.w), (got.b, want.b)):
                assert_same_bits(a, b)
        assert cut[2:] == whole[2:]

    def test_scoring_after_training_allocates_no_second_stack(self):
        """12 models of the default task's shape (|V| 504, d 32) trained on
        one lockstep are scored from the stack they trained on: scoring
        the test split allocates less than one stack of embeddings."""
        task = sa.make_synthetic_task(500, 50, 2000, 12, SplitMix64(derive(1, 0xDA7A)))
        train_x, train_y, test_x, test_y = sa.split_task(task, 0.5)
        vocab_size = len(task.vocab)
        models = [sa.init_model(vocab_size, 32, 2, derive(80, k)) for k in range(12)]
        run = sm._Lockstep(models)
        run.train([sm.pack_corpus(train_x, vocab_size)] * 12, train_y, 0.5, 50, [SplitMix64(81)] * 12)
        test_split = sm.pack_corpus(test_x, vocab_size)
        tracemalloc.start()
        try:
            run.evaluate(test_split, test_y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.emb.nbytes == 504 * 32 * 8 * 12
        assert peak < run.emb.nbytes

    def test_lockstep_needs_one_stream_per_model(self):
        models = [sa.init_model(10, 4, 2, seed=70) for _ in range(2)]
        packed = [sm.pack_corpus([[1, 2], [3]], 10)] * 2
        rng = SplitMix64(71)
        with pytest.raises(ValueError, match="one sample stream per model"):
            sm._Lockstep(models).train(packed, [0, 1], 0.5, 5, [rng])
        assert rng.peek(1).tobytes() == SplitMix64(71).peek(1).tobytes()

    @pytest.mark.parametrize(
        "shape, match",
        [((11, 4, 2), "differ in shape"), ((10, 5, 2), "differ in shape"),
         ((10, 4, 3), "differ in shape")],
    )
    def test_lockstep_refuses_models_of_unequal_shape(self, shape, match):
        models = [sa.init_model(10, 4, 2, seed=58), sa.init_model(*shape, seed=58)]
        snapshot = [m.copy() for m in models]
        with pytest.raises(ValueError, match=match):
            sm._Lockstep(models)
        for model, before in zip(models, snapshot):
            assert np.array_equal(model.emb, before.emb) and np.array_equal(model.w, before.w)

    @pytest.mark.parametrize(
        "corpora, labels, steps, match",
        [
            ([[[1, 2], [3]], [[1, 2]]], [0, 1], 5, "corpus and labels length mismatch"),
            ([[[1, 2], [3]], [[1, 2], [3]]], [0], 5, "corpus and labels length mismatch"),
            ([[[1, 2], [3]], [[1, 2], [3]]], [0, 2], 5, "label out of range"),
            ([[[1, 2], [3]], [[1, 2], [3]]], [0, 0.5], 5, "label 0.5 is not an integer"),
            ([[[1, 2], [3]]], [0, 1], 5, "one packed corpus per model"),
            ([[], []], [], 5, "empty corpus"),
            ([[], []], [], 0, "empty corpus"),
            ([[[1, 2], [3]], [[1, 2], [3]]], [0, 1], -1, "steps must be >= 0"),
        ],
    )
    def test_lockstep_refuses_bad_corpora_before_the_first_step(self, corpora, labels, steps, match):
        models = [sa.init_model(10, 4, 2, seed=60) for _ in range(2)]
        snapshot = [m.copy() for m in models]
        packed = [sm.pack_corpus(corpus, 10) for corpus in corpora]
        rng = SplitMix64(61)
        with pytest.raises(ValueError, match=match):
            sm._Lockstep(models).train(packed, labels, 0.5, steps, [rng] * len(packed))
        assert rng.peek(1).tobytes() == SplitMix64(61).peek(1).tobytes()
        for model, before in zip(models, snapshot):
            assert np.array_equal(model.emb, before.emb) and np.array_equal(model.w, before.w)

    def test_lockstep_needs_a_model(self):
        with pytest.raises(ValueError, match="at least one model"):
            sm._Lockstep([])

    # Below 8 classes the max and sum run on columns.  inf - inf makes
    # x86's default NaN, whose sign bit differs from a NaN that numpy's max
    # propagates: only the NaN places must be numpy's.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.integers(1, 10).flatmap(lambda c: st.tuples(
        *(hnp.arrays(np.float64, (k, c), elements=st.floats(allow_nan=True, allow_infinity=True))
          for _ in range(2))))))
    @example((np.array([[np.inf, np.nan]]), np.zeros((1, 2))))
    @example((np.array([[np.nan, -np.nan, 1.0]]), np.zeros((1, 3))))
    @example((np.array([[np.inf, 2.0, np.inf]]), np.zeros((1, 3))))
    @example((np.array([[np.nan, 1.0], [0.5, 2.0]]), np.array([[-np.nan, 0.0], [0.0, 1.0]])))
    @example((np.full((3, 9), np.nan), np.full((3, 9), -np.nan)))
    def test_softmax_has_numpys_bits(self, raw_and_bias):
        raw, bias = raw_and_bias
        softmax = sm._RowSoftmax(*raw.shape)
        softmax.raw[...] = raw
        with np.errstate(all="ignore"):
            softmax(bias)
            for got, raw_row, bias_row in zip(softmax.probs, raw, bias):
                logits = raw_row + bias_row
                z = np.exp(logits - logits.max())
                assert_same_finite_bits(got, z / z.sum())
