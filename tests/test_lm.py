import copy
import hashlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softaug as sa
from softaug import lm as lmm
from softaug.corpus import BOS, EOS, SPECIAL_TOKENS, UNK
from softaug.rng import SplitMix64

from conftest import corpora, corpus_models, random_corpus
import oracles
from oracles import BruteNGram, count_tables, top_k


def toy_vocab(words):
    return sa.build_vocab(" ".join(words))


def no_grams(order):
    """The gram and count arrays of a model that has seen nothing."""
    return np.empty((0, order), dtype=np.int64), np.empty(0, dtype=np.int64)


LEVEL_ARRAYS = ("keys", "hists", "starts", "ids", "counts", "add", "lam")


def level_lists(level):
    """One history level as {history: (ids list, counts list)}."""
    starts = level.starts.tolist()
    return {tuple(hist): (level.ids[a:b].tolist(), level.counts[a:b].tolist())
            for hist, a, b in zip(level.hists.tolist(), starts, starts[1:])}


def history_key(model, hist):
    """The key of history *hist* by its definition: its oldest id times the
    length of the level one id shorter, plus the row of its suffix there,
    found in that level's ``hists``."""
    if not hist:
        return 0
    shorter = model.counts[len(hist) - 1]
    suffix_row = shorter.hists.tolist().index(list(hist[1:]))
    return hist[0] * len(shorter) + suffix_row


def walk_levels(tables, hist):
    """(ids, add, lam) of each history level of *hist* that has an entry
    in the ``oracles.level_tables`` dicts *tables*, the shortest first;
    every length is looked up, present or not."""
    levels = []
    for k in range(1, len(hist) + 1):
        entry = tables[k].get(tuple(hist[len(hist) - k :]))
        if entry is not None:
            ids, _, add, lam = entry
            levels.append((ids, add, lam))
    return levels


def model_grams(model):
    """The order-n grams and counts a model holds, from its top level."""
    top = model.counts[-1]
    hists = np.repeat(top.hists, np.diff(top.starts), axis=0)
    return np.column_stack([hists, top.ids]).astype(np.int64), top.counts


def key_models():
    """A model trained on a drawn corpus (see ``corpora``), or one without
    grams, of order 1-4."""
    empty = st.integers(1, 4).map(
        lambda order: lmm.NGramLM(order, 0.75, 0.1, toy_vocab(["a", "b"]), *no_grams(order)))
    return st.one_of(corpus_models(), empty)


def assert_same_levels(got, want):
    """Every level holds the same histories, in the same order, with
    bitwise equal arrays of equal dtype and shape."""
    assert len(got.counts) == len(want.counts) == want.order
    for mine, theirs in zip(got.counts, want.counts):
        for name in LEVEL_ARRAYS:
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTraining:
    def test_unigram_counts_include_eos(self):
        vocab = toy_vocab(["a"])
        model = sa.train_lm([[vocab.id_of("a")]], vocab, order=1)
        assert level_lists(model.counts[0]) == {(): ([EOS, vocab.id_of("a")], [1, 1])}

    def test_bigram_counts(self):
        vocab = toy_vocab(["a", "b", "c"])
        a, b, c = (vocab.id_of(x) for x in "abc")
        model = sa.train_lm([[a, b], [a, c]], vocab, order=2)
        assert level_lists(model.counts[1])[(a,)] == (sorted([b, c]), [1, 1])
        assert sum(level_lists(model.counts[1])[(a,)][1]) == 2

    def test_discount_bounds(self):
        vocab = toy_vocab(["a"])
        with pytest.raises(ValueError):
            sa.train_lm([[4]], vocab, order=2, discount=1.0)
        with pytest.raises(ValueError):
            sa.train_lm([[4]], vocab, order=2, discount=0.0)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            sa.train_lm([], toy_vocab(["a"]), order=2)

    def test_counts_monotone_under_new_sentence(self):
        vocab = toy_vocab(["a", "b", "c"])
        a, b, c = (vocab.id_of(x) for x in "abc")
        small = sa.train_lm([[a, b]], vocab, order=2)
        grown = sa.train_lm([[a, b], [a, b, c]], vocab, order=2)
        for k in range(2):
            grown_level = level_lists(grown.counts[k])
            for hist, (ids, cnts) in level_lists(small.counts[k]).items():
                table = dict(zip(*grown_level[hist]))
                for w, cnt in zip(ids, cnts):
                    assert table[w] >= cnt

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_id_outside_vocabulary_is_refused(self, bad):
        vocab = sa.build_vocab("a b c")
        assert len(vocab) == 7
        with pytest.raises(ValueError, match=f"id out of range: {bad}"):
            sa.train_lm([[4, bad]], vocab, order=2)
        with pytest.raises(ValueError, match=f"id out of range: {bad}"):
            lmm.NGramLM(1, 0.5, 0.1, vocab, [[bad]], [1])

    @pytest.mark.parametrize("bad", [2**70, -2**70, 2**63])
    def test_id_past_int64_is_refused(self, bad):
        with pytest.raises(ValueError, match=f"id out of range: {bad}"):
            sa.train_lm([[bad]], sa.build_vocab("a b c"), order=2)

    @settings(max_examples=100, deadline=None)
    @given(corpora(), st.sampled_from([1, 3, lmm._BLOCK_TOKENS]))
    def test_generator_trains_the_list_model(self, corpus, block):
        sents, vocab, order, alpha = corpus
        want = sa.train_lm(sents, vocab, order=order, alpha=alpha)
        read = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lmm, "_BLOCK_TOKENS", block)
            got = sa.train_lm((read.append(i) or s for i, s in enumerate(sents)), vocab,
                              order=order, alpha=alpha)
        assert read == list(range(len(sents)))
        assert_same_levels(got, want)

    @pytest.mark.parametrize("bad", [-1, 7, 2**63, -2**70])
    @pytest.mark.parametrize("block", [1, lmm._BLOCK_TOKENS])
    def test_generator_names_the_id_out_of_range(self, bad, block, monkeypatch):
        monkeypatch.setattr(lmm, "_BLOCK_TOKENS", block)
        vocab = sa.build_vocab("a b c")
        assert len(vocab) == 7
        with pytest.raises(ValueError, match=f"id out of range: {bad}$"):
            sa.train_lm((s for s in [[4, 5], [6, bad, 4], [2**70]]), vocab, order=2)

    def test_empty_generator_is_refused(self):
        with pytest.raises(ValueError, match="empty corpus"):
            sa.train_lm(iter([]), toy_vocab(["a"]), order=2)

    @pytest.mark.parametrize("grams, counts", [
        ([4], [1]), ([[4, 5]], [1]), ([[4]], [1, 1]), ([[4]], [0]), ([[4]], [-1]),
    ], ids=["flat", "wrong-order", "count-per-gram", "zero-count", "negative-count"])
    def test_malformed_gram_arrays_are_refused(self, grams, counts):
        with pytest.raises(ValueError, match="array with one count >= 1 each"):
            lmm.NGramLM(1, 0.5, 0.1, toy_vocab(["a", "b"]), grams, counts)

    @settings(max_examples=150, deadline=None)
    @given(corpora())
    def test_levels_match_dict_reference(self, corpus):
        sents, vocab, order, alpha = corpus
        windows = []
        for sent in sents:
            padded = [BOS] * (order - 1) + sent + [EOS]
            windows += [tuple(padded[t - order : t]) for t in range(order, len(padded) + 1)]
        reference = count_tables(((w, 1) for w in windows), order)
        # Training counts each window once; handed to the constructor in
        # corpus order, with repeats, the windows add up to the same model.
        grams = np.array(windows, dtype=np.int64).reshape(len(windows), order)
        trained = sa.train_lm(sents, vocab, order=order, alpha=alpha)
        direct = lmm.NGramLM(order, 0.75, alpha, vocab, grams, np.ones(len(windows), dtype=np.int64))
        assert_same_levels(direct, trained)
        for level, table in zip(trained.counts, reference):
            assert level_lists(level) == {
                hist: (sorted(nexts), [nexts[w] for w in sorted(nexts)]) for hist, nexts in table.items()
            }
            for name in LEVEL_ARRAYS:
                assert getattr(level, name).flags.c_contiguous
        # Row by row, bitwise, against one dict entry and arrays per history;
        # each row is found by its key.
        oracle = oracles.level_tables(grams, np.ones(len(windows), dtype=np.int64), 0.75)
        for k, (level, table) in enumerate(zip(trained.counts, oracle)):
            assert len(level) == len(table) and list(map(tuple, level.hists.tolist())) == list(table)
            assert level.hists.shape == (len(table), k)
            assert level.starts[0] == 0 and level.starts[-1] == len(level.ids)
            for hist, (ids, cnts, add, lam) in table.items():
                key = history_key(trained, hist)
                row = int(level.keys.searchsorted(key))
                assert level.keys[row] == key
                a, b = level.starts[row], level.starts[row + 1]
                assert tuple(level.hists[row].tolist()) == hist
                assert level.ids[a:b].tobytes() == ids.tobytes()
                assert level.counts[a:b].tobytes() == cnts.tobytes()
                assert level.add[a:b].tobytes() == add.tobytes()
                assert level.lam[row] == lam

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_model_without_grams_has_empty_levels(self, order):
        model = lmm.NGramLM(order, 0.75, 0.1, toy_vocab(["a", "b"]), *no_grams(order))
        assert [len(level) for level in model.counts] == [0] * order
        for k, level in enumerate(model.counts):
            assert level.hists.shape == (0, k) and level.starts.tolist() == [0]
            assert level.keys.dtype == np.int64 and level.keys.shape == (0,)
            assert all(len(getattr(level, name)) == 0 for name in ("ids", "counts", "add", "lam"))
        assert oracles.level_tables(*no_grams(order), 0.75) == [{}] * order


class TestHistoryKeys:
    @settings(max_examples=150, deadline=None)
    @given(key_models())
    def test_keys_ascend_and_follow_their_definition(self, model):
        for level in model.counts:
            keys = level.keys
            assert keys.dtype == np.int64 and keys.flags.c_contiguous and keys.shape == (len(level),)
            assert (np.diff(keys) > 0).all()
            assert keys.tolist() == [history_key(model, hist) for hist in level.hists.tolist()]

    @settings(max_examples=150, deadline=None)
    @given(key_models(), st.data())
    def test_levels_equal_a_dict_walk(self, model, data):
        tables = oracles.level_tables(*model_grams(model), model.discount)
        ids = st.integers(0, len(model.vocab) - 1)
        # Drawn ids, most of them unseen or in absent histories, and the
        # model's own histories behind drawn older ids.
        present = [hist for level in model.counts for hist in level.hists.tolist()]
        prefixes = st.lists(ids, max_size=model.order + 1)
        if present:
            prefixes |= st.tuples(st.lists(ids, max_size=2), st.sampled_from(present)).map(
                lambda parts: parts[0] + parts[1])
        for prefix in data.draw(st.lists(prefixes, min_size=1, max_size=20)):
            hist = model.pad_prefix(prefix)
            got, want = model._levels(hist), walk_levels(tables, hist)
            assert len(got) == len(want)
            for (ids_a, add_a, lam_a), (ids_b, add_b, lam_b) in zip(got, want):
                assert ids_a.dtype == ids_b.dtype and ids_a.tobytes() == ids_b.tobytes()
                assert add_a.dtype == add_b.dtype and add_a.tobytes() == add_b.tobytes()
                assert lam_a == lam_b


class TestNextDist:
    def test_matches_hand_computed_example(self):
        vocab = toy_vocab(["a", "b", "c"])
        a, b, c = (vocab.id_of(x) for x in "abc")
        model = sa.train_lm([[a, b], [a, c]], vocab, order=2, discount=0.75, alpha=0.1)
        dist = model.next_dist([a])
        # c(a)=2, both continuations seen once; lam = 0.75*2/2
        p0_b = (1 + 0.1) / (6 + 0.1 * len(vocab))
        expected = (1 - 0.75) / 2 + 0.75 * p0_b
        assert dist[b] == pytest.approx(expected, abs=1e-15)
        assert dist[b] == dist[c]

    def test_sums_to_one_on_random_prefixes(self, tiny_lm):
        model, _, vocab = tiny_lm
        rng = SplitMix64(5)
        for _ in range(1000):
            prefix = [4 + rng.randint(len(vocab) - 4) for _ in range(rng.randint(4))]
            assert abs(model.next_dist(prefix).sum() - 1.0) <= 1e-9

    def test_unigram_model_ignores_prefix(self):
        vocab = toy_vocab(["a"])
        model = sa.train_lm([[vocab.id_of("a")]], vocab, order=1)
        assert np.array_equal(model.next_dist([]), model.next_dist([vocab.id_of("a")]))

    def test_matches_brute_force_recursion(self):
        rng = SplitMix64(99)
        for trial in range(5):
            vocab_size = 6 + rng.randint(12)
            order = 1 + rng.randint(3)
            sents, vocab = random_corpus(1000 + trial, 3 + rng.randint(40), vocab_size)
            model = sa.train_lm(sents, vocab, order=order, discount=0.6, alpha=0.05)
            brute = BruteNGram(sents, len(vocab), order, 0.6, 0.05)
            for _ in range(20):
                plen = rng.randint(order + 1)
                prefix = [4 + rng.randint(vocab_size) for _ in range(plen)]
                mine = model.next_dist(prefix)
                theirs = brute.next_dist(prefix)
                assert np.max(np.abs(mine - np.array(theirs))) <= 1e-12


class TestScoring:
    def test_floor_only_model_is_uniform(self):
        vocab = toy_vocab(["a", "b", "c", "d"])
        model = lmm.NGramLM(2, 0.75, 0.1, vocab, *no_grams(2))
        m = len(vocab)
        sents = [[vocab.id_of("a"), vocab.id_of("b")]]
        assert lmm.perplexity(model, sents) == pytest.approx(m, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(corpus_models(), st.data())
    def test_perplexity_equals_per_token_oracle(self, model, data):
        ids = st.integers(0, len(model.vocab) - 1)
        sents = data.draw(st.lists(st.lists(ids, max_size=8), min_size=1, max_size=6))
        with np.errstate(divide="ignore"):  # alpha 0 leaves unseen tokens at p = 0
            expected = oracles.perplexity(model, sents)
        # The package takes those logs without a warning.
        assert lmm.perplexity(model, sents) == expected
        logs = lmm._logprobs(model, sents)
        assert logs.tolist() == [model.logprob(s[:i], (s + [EOS])[i])
                                 for s in sents for i in range(len(s) + 1)]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_perplexity_across_blocks_equals_oracle(self, tiny_lm, order, monkeypatch):
        _, sents, vocab = tiny_lm
        model = sa.train_lm(sents[:60], vocab, order=order)
        # Unseen ids make histories that no level holds.
        held_out = sents[60:] + [[], [9, 9, 9, 9], []]
        expected = oracles.perplexity(model, held_out)
        for budget in (1, 7, 1 << 16):
            monkeypatch.setattr(lmm, "_BLOCK_TOKENS", budget)
            assert lmm.perplexity(model, held_out) == expected

    def test_perplexity_of_floor_only_model_equals_oracle(self):
        vocab = toy_vocab(["a", "b", "c", "d"])
        model = lmm.NGramLM(3, 0.75, 0.1, vocab, *no_grams(3))
        sents = [[4, 5, 6], [], [7, 7]]
        assert lmm.perplexity(model, sents) == oracles.perplexity(model, sents)

    @pytest.mark.parametrize("sents, bad", [
        ([[4, -1]], -1), ([[4], [8]], 8), ([[2**70]], 2**70), ([[4, -1], [2**70]], -1),
        ([[-2**70, 5]], -2**70),
    ])
    def test_perplexity_refuses_ids_outside_the_vocabulary(self, sents, bad):
        vocab = toy_vocab(["a", "b", "c", "d"])
        model = sa.train_lm([[4, 5, 6, 7]], vocab, order=2)
        for score in (lmm.perplexity, oracles.perplexity):
            with pytest.raises(ValueError, match=f"^id out of range: {bad}$"):
                score(model, sents)

    def test_perplexity_of_no_sentences_is_refused(self, tiny_lm):
        model = tiny_lm[0]
        for score in (lmm.perplexity, oracles.perplexity):
            with pytest.raises(ValueError, match="empty corpus"):
                score(model, [])

    def test_training_perplexity_beats_uniform(self, tiny_lm):
        model, sents, vocab = tiny_lm
        assert lmm.perplexity(model, sents) <= len(vocab)

    def test_logprob_consistent_with_next_dist(self, tiny_lm):
        model, _, vocab = tiny_lm
        prefix = [5, 6]
        dist = model.next_dist(prefix)
        for token in (4, 7, EOS):
            assert math.exp(model.logprob(prefix, token)) == pytest.approx(
                dist[token], abs=1e-12
            )

    @settings(max_examples=150, deadline=None)
    @given(corpus_models(), st.data())
    def test_logprob_is_log_of_next_dist_bitwise(self, model, data):
        ids = st.integers(0, len(model.vocab) - 1)
        prefix = data.draw(st.lists(ids, max_size=5))
        token = data.draw(ids)
        with np.errstate(divide="ignore"):  # alpha 0 leaves unseen tokens at p = 0
            expected = float(np.log(model.next_dist(prefix)[token]))
        assert model.logprob(prefix, token) == expected

    def test_logprob_range_check(self, tiny_lm):
        model, _, vocab = tiny_lm
        with pytest.raises(ValueError, match="id out of range"):
            model.logprob([], len(vocab))


class TestSample:
    def test_point_mass_always_returned(self):
        vocab = toy_vocab(["a", "b"])
        a = vocab.id_of("a")
        model = lmm.NGramLM(1, 0.5, 0.0, vocab, [[a]], [5])
        rng = SplitMix64(0)
        assert all(model.sample([], rng.random()) == a for _ in range(200))

    def test_empirical_frequencies_match_next_dist(self, tiny_lm):
        model, _, vocab = tiny_lm
        prefix = [6]
        dist = model.next_dist(prefix)
        counts = np.zeros(len(vocab))
        rng = SplitMix64(123)
        n = 100_000
        for _ in range(n):
            counts[model.sample(prefix, rng.random())] += 1
        assert np.max(np.abs(counts / n - dist)) <= 0.01

    def test_specials_never_emitted(self, tiny_lm):
        model, _, _ = tiny_lm
        rng = SplitMix64(9)
        draws = {model.sample([4], rng.random()) for _ in range(2000)}
        assert not draws & {BOS, sa.UNK, sa.BLANK}

    def test_seeded_determinism(self, tiny_lm):
        model, _, _ = tiny_lm
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [model.sample([5], a.random()) for _ in range(50)] == [
            model.sample([5], b.random()) for _ in range(50)
        ]


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tiny_lm):
        model, sents, _ = tiny_lm
        again = lmm.parse_lm(lmm.dump_lm(model))
        assert_same_levels(again, model)
        assert again.vocab.surfaces == model.vocab.surfaces
        for prefix in ([], [5], [6, 7]):
            assert np.array_equal(again.next_dist(prefix), model.next_dist(prefix))

    def test_reload_perplexity_within_1e9(self, tmp_path, tiny_lm):
        model, sents, _ = tiny_lm
        path = tmp_path / "model.arpa"
        lmm.save_lm(model, path)
        again = lmm.load_lm(path)
        assert lmm.perplexity(again, sents) == pytest.approx(
            lmm.perplexity(model, sents), abs=1e-9
        )

    def test_trigram_round_trip(self):
        sents, vocab = random_corpus(7, 60, 8)
        model = sa.train_lm(sents, vocab, order=3)
        again = lmm.parse_lm(lmm.dump_lm(model))
        assert_same_levels(again, model)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_pickle_round_trip_is_bit_exact(self, order):
        sents, vocab = random_corpus(17, 80, 12)
        model = sa.train_lm(sents, vocab, order=order)
        for prefix in ([], [5], [6, 7]):
            model.top_k(prefix, 3)
        assert model._top_cache
        again = pickle.loads(pickle.dumps(model))
        assert again._top_cache == {}
        assert_same_levels(again, model)
        for prefix in ([], [5], [6, 7], [7, 7, 5], [UNK]):
            assert again.next_dist(prefix).tobytes() == model.next_dist(prefix).tobytes()
            for k in (1, 3, len(vocab)):
                for mine, theirs in zip(again.top_k(prefix, k), model.top_k(prefix, k)):
                    assert mine.tobytes() == theirs.tobytes()
            for token in (EOS, 4, 9):
                assert again.logprob(prefix, token) == model.logprob(prefix, token)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_parse_lm_reads_the_lines_load_lm_reads(self, tmp_path, tiny_lm, newline):
        model, _, _ = tiny_lm
        text = lmm.dump_lm(model).replace("\n", newline)
        path = tmp_path / "model.arpa"
        path.write_bytes(text.encode("utf-8"))
        for again in (lmm.parse_lm(text, str(path)), lmm.load_lm(path)):
            assert_same_levels(again, model)
            assert (again.vocab.surfaces, again.vocab.counts) == (model.vocab.surfaces,
                                                                  model.vocab.counts)
        # A line separator is no line break: both read it inside the last
        # gram line, and refuse that line alike.
        head, _, tail = text.rpartition(" ")
        text = f"{head}\u2028{tail}"
        path.write_bytes(text.encode("utf-8"))
        messages = []
        for read in (lambda: lmm.parse_lm(text, str(path)), lambda: lmm.load_lm(path)):
            with pytest.raises(ValueError) as info:
                read()
            messages.append(str(info.value))
        assert messages[0] == messages[1] and "\\u2028" in messages[0]

    def test_dump_is_deterministic(self, tiny_lm):
        model, _, _ = tiny_lm
        assert lmm.dump_lm(model) == lmm.dump_lm(model)

    def test_model_above_2e5_events_round_trips(self, tmp_path):
        sents, vocab = random_corpus(12, 18_000, 40, max_len=24)
        model = sa.train_lm(sents, vocab, order=3)
        assert model.total_events > 200_000
        text = lmm.dump_lm(model)
        again = lmm.parse_lm(text)
        assert_same_levels(again, model)
        assert lmm.dump_lm(again) == text
        path = tmp_path / "model.arpa"
        lmm.save_lm(model, path)
        assert path.read_text(encoding="utf-8") == text
        loaded = lmm.load_lm(path)
        assert_same_levels(loaded, model)
        rng = SplitMix64(13)
        for _ in range(200):
            sent = sents[rng.randint(len(sents))]
            prefix = sent[: rng.randint(len(sent) + 1)]
            assert np.array_equal(loaded.next_dist(prefix), model.next_dist(prefix))

    def test_file_lists_vocabulary_and_top_order_counts(self):
        vocab = toy_vocab(["a", "b", "b"])
        a, b = vocab.id_of("a"), vocab.id_of("b")
        model = sa.train_lm([[a, b]], vocab, order=2)
        assert lmm.dump_lm(model).splitlines() == [
            "#ngram-counts v1 order=2 discount=0.75 alpha=0.1 events=3 vocab=6",
            "0\t<s>", "0\t</s>", "0\t<unk>", "0\t<blank>", "2\tb", "1\ta",
            "1\t<s> a", "1\tb </s>", "1\ta b",
            "\\end\\",
        ]

    def test_events_past_float_precision_round_trip(self):
        # 2**53 + 1 has no float64: the event total must be summed as integers.
        vocab = toy_vocab(["a", "b"])
        model = lmm.NGramLM(1, 0.5, 0.1, vocab, [[4], [5]], [2**53, 1])
        assert model.total_events == 2**53 + 1
        text = lmm.dump_lm(model)
        assert "events=9007199254740993 " in text.splitlines()[0]
        again = lmm.parse_lm(text)
        assert again.total_events == model.total_events
        assert lmm.dump_lm(again) == text

    def test_surface_with_whitespace_is_not_written(self):
        vocab = sa.Vocabulary(list(SPECIAL_TOKENS) + ["a b"], [0, 0, 0, 0, 1])
        model = lmm.NGramLM(1, 0.5, 0.1, vocab, [[4]], [1])
        with pytest.raises(ValueError, match="whitespace"):
            lmm.dump_lm(model)


# The format the model file had before it held integer counts.
OLD_ARPA = """# interpolated absolute-discount ngram model
# order: 2
# discount: 0.75
# alpha: 0.1
# events: 3

\\data\\
ngram 1=6
ngram 2=3

\\1-grams:
-1.556303\t<s>\t-0.124939
-0.514910\t</s>
-1.556303\t<unk>
-1.556303\t<blank>
-0.514910\tb\t-0.124939
-0.514910\ta\t-0.124939

\\2-grams:
-0.319513\t<s> a
-0.319513\tb </s>
-0.319513\ta b

\\end\\
"""


def _gram_line(lines, draw, skip=0):
    """Index of a gram line past the first *skip* (every model has at
    least one event)."""
    start = 1 + int(lines[0].rsplit("vocab=", 1)[1])
    return draw(st.integers(min(start + skip, len(lines) - 2), len(lines) - 2))


def _set_count(lines, i, count):
    lines[i] = count + "\t" + lines[i].split("\t", 1)[1]


def _corrupt(kind, lines, draw, skip=0):
    """*lines* with one corruption of *kind*; a corrupted gram line is one
    past the first *skip*."""
    if kind == "unknown surface":
        i = _gram_line(lines, draw, skip)
        lines[i] = lines[i] + "zz"
    elif kind in ("non-integer count", "zero count", "negative count"):
        value = {"non-integer count": "1.5", "zero count": "0", "negative count": "-2"}[kind]
        _set_count(lines, _gram_line(lines, draw, skip), value)
    elif kind == "non-integer vocabulary count":
        _set_count(lines, draw(st.integers(1, int(lines[0].rsplit("vocab=", 1)[1]))), "x")
    elif kind == "short gram":
        i = _gram_line(lines, draw, skip)
        lines[i] = lines[i].rsplit(" ", 1)[0] if " " in lines[i] else lines[i].split("\t")[0] + "\t"
    elif kind == "long gram":
        i = _gram_line(lines, draw, skip)
        lines[i] = lines[i] + " " + SPECIAL_TOKENS[0]
    elif kind == "duplicate gram":
        i = _gram_line(lines, draw, skip)
        lines.insert(i, lines[i])
    elif kind == "missing end marker":
        lines.pop()
    elif kind == "events mismatch":
        head, _, rest = lines[0].partition("events=")
        events, _, tail = rest.partition(" ")
        lines[0] = f"{head}events={int(events) + 1} {tail}"
    return lines


CORRUPTIONS = [
    "unknown surface", "non-integer count", "zero count", "negative count",
    "non-integer vocabulary count", "short gram", "long gram", "duplicate gram",
    "missing end marker", "events mismatch",
]

# Gram lines per block of the model reader: one, a few, the default.
BLOCK_SIZES = [1, 7, lmm._BLOCK_LINES]


def assert_message_of_line_reader(text):
    """At every block size, ``parse_lm`` refuses *text* with the message
    of the line-at-a-time reference reader."""
    with pytest.raises(ValueError) as want:
        oracles.read_count_file(text)
    for size in BLOCK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lmm, "_BLOCK_LINES", size)
            with pytest.raises(ValueError) as got:
                lmm.parse_lm(text)
        assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def block_model():
    """A trigram model with a few hundred gram lines."""
    sents, vocab = random_corpus(7, 60, 8)
    return sa.train_lm(sents, vocab, order=3)


class TestModelFileProperties:
    @settings(max_examples=150, deadline=None)
    @given(corpus_models(), st.data())
    def test_round_trip_is_bit_exact(self, model, data):
        text = lmm.dump_lm(model)
        again = lmm.parse_lm(text)
        assert_same_levels(again, model)
        assert again.vocab.surfaces == model.vocab.surfaces
        assert again.vocab.counts == model.vocab.counts
        assert lmm.dump_lm(again) == text
        ids = st.integers(4, len(model.vocab) - 1)
        for prefix in data.draw(st.lists(st.lists(ids, max_size=5), max_size=4)) + [[]]:
            assert np.array_equal(again.next_dist(prefix), model.next_dist(prefix))

    @settings(max_examples=300, deadline=None)
    @given(corpus_models(), st.sampled_from(CORRUPTIONS), st.data())
    def test_corrupt_file_raises_value_error(self, model, kind, data):
        lines = _corrupt(kind, lmm.dump_lm(model).splitlines(), data.draw)
        with pytest.raises(ValueError):
            lmm.parse_lm("\n".join(lines) + "\n")

    @settings(max_examples=150, deadline=None)
    @given(corpus_models(), st.data())
    def test_truncated_file_raises_value_error(self, model, data):
        text = lmm.dump_lm(model)
        cut = data.draw(st.integers(0, len(text) - 2))
        with pytest.raises(ValueError):
            lmm.parse_lm(text[:cut])

    @pytest.mark.parametrize("events, grams", [
        (2**63, [(2**63, "a")]),
        (2**63, [(2**62, "</s>"), (2**62, "a")]),
    ], ids=["one-count", "sum"])
    def test_counts_past_int64_are_refused(self, events, grams):
        text = (f"#ngram-counts v1 order=1 discount=0.5 alpha=0.1 events={events} vocab=5\n"
                "0\t<s>\n0\t</s>\n0\t<unk>\n0\t<blank>\n1\ta\n"
                + "".join(f"{c}\t{w}\n" for c, w in grams) + "\\end\\\n")
        with pytest.raises(ValueError, match="bad header"):
            lmm.parse_lm(text)

    @settings(max_examples=100, deadline=None)
    @given(corpus_models(), st.data())
    def test_every_block_size_reads_the_same_model(self, scratch_file, model, data):
        text = lmm.dump_lm(model)
        scratch_file.write_text(text, encoding="utf-8")
        ids = st.integers(0, len(model.vocab) - 1)
        prefixes = data.draw(st.lists(st.lists(ids, max_size=4), max_size=3)) + [[]]
        for size in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lmm, "_BLOCK_LINES", size)
                for again in (lmm.parse_lm(text), lmm.load_lm(scratch_file)):
                    assert_same_levels(again, model)
                    for prefix in prefixes:
                        assert again.next_dist(prefix).tobytes() == model.next_dist(prefix).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(corpora())
    def test_block_writer_equals_whole_level_writer(self, scratch_file, corpus):
        sents, vocab, order, alpha = corpus
        model = sa.train_lm(sents, vocab, order=order, alpha=alpha)
        want = oracles.dump_whole_level(model).encode("utf-8")
        for size in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lmm, "_BLOCK_LINES", size)
                lmm.save_lm(model, scratch_file)
            assert scratch_file.read_bytes() == want
            again = lmm.load_lm(scratch_file)
            assert_same_levels(again, model)
            assert (again.vocab.surfaces, again.vocab.counts) == (model.vocab.surfaces,
                                                                  model.vocab.counts)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CORRUPTIONS), st.data())
    def test_corruption_in_a_later_block_keeps_its_message(self, block_model, kind, data):
        # Gram lines past the 16th lie beyond the first block at sizes 1 and 7.
        lines = _corrupt(kind, lmm.dump_lm(block_model).splitlines(), data.draw, skip=16)
        assert_message_of_line_reader("\n".join(lines) + "\n")

    def test_short_and_long_gram_in_one_block_keep_their_message(self, block_model):
        # Together the two lines hold as many surfaces as two good ones.  Line
        # i starts a new history, so its first ids rise above the line before.
        lines = lmm.dump_lm(block_model).splitlines()
        history = [line.partition("\t")[2].rsplit(" ", 1)[0] for line in lines]
        i = next(i for i in range(len(block_model.vocab) + 20, len(lines)) if history[i] != history[i - 1])
        lines[i] = lines[i].rsplit(" ", 1)[0]
        lines[i + 1] += " " + SPECIAL_TOKENS[0]
        assert_message_of_line_reader("\n".join(lines) + "\n")

    @pytest.mark.parametrize("after", ["trailing\n", "\n", "\\end\\\n", "0\t<s>\n"],
                             ids=["word", "blank-line", "second-end", "data-line"])
    def test_text_after_the_end_marker_is_refused(self, block_model, after, monkeypatch):
        text = lmm.dump_lm(block_model)
        lineno = text.count("\n") + 1
        # At block size 1 the line after the end marker comes in the next
        # block; at the default size it shares the end marker's block.
        for size in BLOCK_SIZES:
            monkeypatch.setattr(lmm, "_BLOCK_LINES", size)
            with pytest.raises(ValueError, match=f"^line {lineno} of <string> follows the \\\\end\\\\ line"):
                lmm.parse_lm(text + after)
        assert lmm.parse_lm(text.rstrip("\n")).total_events == block_model.total_events

    @pytest.mark.parametrize("extra", ["order=2", "order=3", "alpha=0.1"])
    def test_repeated_header_field_is_refused(self, extra):
        text = "\n".join(["#ngram-counts v1 order=2 discount=0.75 alpha=0.1 events=3 vocab=6",
                          "0\t<s>", "0\t</s>", "0\t<unk>", "0\t<blank>", "2\tb", "1\ta",
                          "1\t<s> a", "1\tb </s>", "1\ta b", "\\end\\"]) + "\n"
        assert lmm.parse_lm(text).order == 2
        with pytest.raises(ValueError, match="^bad header in <string>"):
            lmm.parse_lm(text.replace("vocab=6", f"vocab=6 {extra}", 1))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "model.arpa"
        head = b"#ngram-counts v1 order=1 discount=0.5 alpha=0.1 events=1 vocab=5\n"
        path.write_bytes(head + b"\xff\n")
        with pytest.raises(ValueError, match=f"^malformed UTF-8 at byte {len(head)} in "):
            lmm.load_lm(path)

    @pytest.mark.parametrize("text", ["", "\n", OLD_ARPA], ids=["empty", "blank", "old-arpa"])
    def test_not_a_count_file(self, text, tmp_path):
        with pytest.raises(ValueError, match="not an n-gram count file"):
            lmm.parse_lm(text)
        path = tmp_path / "model.arpa"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="not an n-gram count file"):
            lmm.load_lm(path)


class TestImmutability:
    def test_queries_do_not_mutate_serialized_state(self, tiny_lm):
        model, sents, _ = tiny_lm
        before = hashlib.sha256(lmm.dump_lm(model).encode()).hexdigest()
        rng = SplitMix64(4)
        for _ in range(200):
            model.next_dist([4 + rng.randint(8)])
            model.sample([5], rng.random())
        model.logprob([6], 4)
        lmm.perplexity(model, sents[:10])
        after = hashlib.sha256(lmm.dump_lm(model).encode()).hexdigest()
        assert before == after

    def test_next_dist_retains_no_memory(self):
        sents, vocab = random_corpus(31, 3000, 3000)
        model = sa.train_lm(sents, vocab, order=3)
        prefixes = [[4 + i % 50, 4 + i // 50] for i in range(2000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for prefix in prefixes:
                model.next_dist(prefix)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20

    def test_save_lm_peak_memory_is_bounded(self, tmp_path):
        # The writer holds one block of histories as Python lists, not the
        # whole top level (8 MB here).
        sents, vocab = random_corpus(31, 6000, 3000)
        model = sa.train_lm(sents, vocab, order=3)
        assert model.total_events == 45_009
        tracemalloc.start()
        try:
            lmm.save_lm(model, tmp_path / "model.arpa")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20


def assert_top_k_exact(model, prefix, k):
    """lm.top_k against the dense reference top_k(next_dist)."""
    ids, probs = model.top_k(prefix, k)
    dense = model.next_dist(prefix)
    ref = top_k(dense, k)
    assert np.array_equal(ids, ref.ids)
    assert probs.tobytes() == dense[ids].tobytes()
    assert (probs / probs.sum()).tobytes() == ref.probs.tobytes()


def k_values(model):
    size = len(model.vocab)
    return [1, 2, 32, size - 1, size, size + 5]


class TestTopK:
    @settings(max_examples=200, deadline=None)
    @given(corpus_models(max_size=40, max_sentences=30), st.data())
    def test_matches_dense_reference(self, model, data):
        # Prefix ids cover seen and unseen histories, specials included.
        ids = st.integers(0, len(model.vocab) - 1)
        for prefix in data.draw(st.lists(st.lists(ids, max_size=4), max_size=4)) + [[]]:
            for k in k_values(model):
                assert_top_k_exact(model, prefix, k)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_histories_with_support_above_k(self, order, alpha):
        sents, vocab = random_corpus(5, 1500, 60)
        model = sa.train_lm(sents, vocab, order=order, alpha=alpha)
        rng = SplitMix64(6)
        widest = 0
        for _ in range(60):
            sent = sents[rng.randint(len(sents))]
            prefix = sent[: rng.randint(len(sent) + 1)]
            levels = model._levels(model.pad_prefix(prefix))
            widest = max([widest] + [len(ids) for ids, _, _ in levels])
            for k in k_values(model):
                assert_top_k_exact(model, prefix, k)
        if order > 1:
            assert widest > 32
        # UNK never occurs in the corpus, so these histories are unseen.
        for prefix in ([UNK], [4, UNK], [UNK, 4], [UNK] * 3):
            for k in k_values(model):
                assert_top_k_exact(model, prefix, k)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_cut_inside_one_large_tie_block(self, order):
        words = [f"w{i}" for i in range(120)]
        vocab = sa.build_vocab(" ".join(words))
        ids = [vocab.id_of(w) for w in words]
        # Every word occurs equally often, so P0 is one block of 120 ties.
        sents = [ids[i:] + ids[:i] for i in range(0, 120, 7)]
        model = sa.train_lm(sents, vocab, order=order)
        assert len(set(model._p0[ids].tolist())) == 1
        for prefix in ([], ids[:1], ids[5:8], [ids[3], ids[9]]):
            for k in k_values(model):
                assert_top_k_exact(model, prefix, k)

    # Ids 0-3 are specials, 4-8 words; each gram has count 1 and history
    # (4,) supports one id.  Alpha near 2**52 puts the P0 of count-1 ids
    # one ulp above that of count-0 ids; after the history's lam both
    # round to one value, so count-0 id 0 ties with the count-1 ids
    # outside the support and, on id, ranks second after the support.
    @pytest.mark.parametrize("grams, discount, alpha, tie", [
        ([(4, 6), (0, 7), (0, 8)], 0.1, 2.0**52 + 1, (7, 0)),
        ([(4, 4), (0, 5), (0, 6), (0, 7), (0, 8)], 0.7, 2.0**52 - 33, (5, 0)),
    ], ids=["alpha-2^52+1", "alpha-2^52-33"])
    def test_rounding_tie_across_p0_blocks(self, grams, discount, alpha, tie):
        vocab = sa.Vocabulary(list(SPECIAL_TOKENS) + ["a", "b", "c", "d", "e"], [0] * 4 + [1] * 5)
        model = lmm.NGramLM(2, discount, alpha, vocab, grams, [1] * len(grams))
        dense = model.next_dist([4])
        above, below = tie
        assert model._p0[above] > model._p0[below] and dense[above] == dense[below]
        ids, _ = model.top_k([4], 2)
        assert ids.tolist() == [grams[0][1], 0]
        assert_top_k_exact(model, [4], 2)

    def test_rejects_k_below_one(self, tiny_lm):
        with pytest.raises(ValueError):
            tiny_lm[0].top_k([5], 0)

    def test_cached_result_is_read_only(self, tiny_lm):
        model = copy.deepcopy(tiny_lm[0])
        ids, probs = model.top_k([5], 3)
        with pytest.raises(ValueError, match="read-only"):
            ids[:] = 0
        with pytest.raises(ValueError, match="read-only"):
            probs[:] = 0.0
        assert_top_k_exact(model, [5], 3)

    def test_full_vocabulary_result_is_not_cached(self, tiny_lm):
        model = copy.deepcopy(tiny_lm[0])
        for k in (3, len(model.vocab), len(model.vocab) + 5):
            model.top_k([5], k)
        assert [k for _, k in model._top_cache] == [3]
        assert_top_k_exact(model, [5], len(model.vocab))


class TestParamCheck:
    HEADER = "#ngram-counts v1 order=1 discount=0.75 alpha={} events=0 vocab=4\n"

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "-0.5"])
    def test_bad_header_alpha_is_refused_before_any_table(self, monkeypatch, alpha):
        def no_tables(grams, counts, discount, size):
            raise AssertionError("count tables built before alpha was checked")

        monkeypatch.setattr(lmm, "_count_levels", no_tables)
        text = self.HEADER.format(alpha) + "0\t<s>\n0\t</s>\n0\t<unk>\n0\t<blank>\n\\end\\\n"
        with pytest.raises(ValueError, match="alpha must be finite"):
            lmm.parse_lm(text)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected_by_train_and_constructor(self, alpha):
        vocab = toy_vocab(["a"])
        with pytest.raises(ValueError, match="alpha must be finite"):
            sa.train_lm([[4]], vocab, order=1, alpha=alpha)
        with pytest.raises(ValueError, match="alpha must be finite"):
            lmm.NGramLM(1, 0.5, alpha, vocab, [[4]], [1])

    @pytest.mark.parametrize("discount", [0.0, 1.0, math.nan])
    def test_discount_outside_open_unit_interval_rejected(self, discount):
        with pytest.raises(ValueError, match="discount"):
            lmm.check_params(2, discount, 0.1)


class TestOrderBound:
    HEADER = "#ngram-counts v1 order={} discount=0.75 alpha=0.1 events=0 vocab=4\n"

    def test_huge_header_order_is_refused_before_any_table(self, monkeypatch):
        def no_tables(grams, counts, discount, size):
            raise AssertionError("count tables built before the order was checked")

        monkeypatch.setattr(lmm, "_count_levels", no_tables)
        text = self.HEADER.format(2_000_000) + "0\t<s>\n0\t</s>\n0\t<unk>\n0\t<blank>\n\\end\\\n"
        with pytest.raises(ValueError, match="order must lie in"):
            lmm.parse_lm(text)

    def test_bound_holds_for_train_and_constructor(self, monkeypatch):
        vocab = toy_vocab(["a"])
        sa.train_lm([[4]], vocab, order=lmm.MAX_ORDER)
        with pytest.raises(ValueError, match="order must lie in"):
            lmm.NGramLM(lmm.MAX_ORDER + 1, 0.5, 0.1, vocab, *no_grams(lmm.MAX_ORDER + 1))
        monkeypatch.setattr(lmm, "_count_levels", None)
        for order in (0, lmm.MAX_ORDER + 1, 10**9):
            with pytest.raises(ValueError, match="order must lie in"):
                sa.train_lm([[4]], vocab, order=order)
