import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import softaug as sa
from softaug import augment as ag
from softaug.corpus import BLANK
from softaug.rng import SplitMix64, derive, derive_block, stream_block

from conftest import corpus_models
import oracles
from oracles import top_k


def run(sents, strategy, gamma, seed, lm=None, unigram=None, **config):
    """``augment_corpus`` over *sents*: sentence i draws from
    ``SplitMix64(derive(seed, i))``."""
    cfg = sa.AugmentConfig(strategy=strategy, gamma=gamma, seed=seed, **config)
    return sa.augment_corpus(sents, cfg, lm=lm, unigram=unigram)


# swap does not read gamma, but gamma 0 leaves every strategy the identity.
class TestSwap:
    def test_length_one_unchanged(self):
        assert run([[7]], "swap", 1.0, seed=1, window_k=3) == [[7]]

    def test_multiset_preserved_large_window(self):
        rng = SplitMix64(2)
        sent = [4 + rng.randint(30) for _ in range(15)]
        [out] = run([sent], "swap", 1.0, seed=3, window_k=50)
        assert sorted(out) == sorted(sent)

    def test_displacement_bound(self):
        k = 3
        rng = SplitMix64(4)
        sents = [list(range(100, 101 + rng.randint(20))) for _ in range(2000)]
        for sent, out in zip(sents, run(sents, "swap", 1.0, seed=10, window_k=k)):
            for pos, token in enumerate(out):
                assert abs((token - 100) - pos) <= k
            assert sorted(out) == sent


class TestDropout:
    def test_gamma_zero_identity(self):
        sent = [4, 5, 6, 7]
        assert run([sent], "dropout", 0.0, seed=5) == [sent]

    def test_gamma_one_single_uniform_survivor(self):
        length = 8
        sent = [4 + i for i in range(length)]
        counts = np.zeros(length)
        trials = 100_000
        for out in run([sent] * trials, "dropout", 1.0, seed=6):
            assert len(out) == 1
            counts[out[0] - 4] += 1
        chi2 = float(((counts - trials / length) ** 2 / (trials / length)).sum())
        assert chi2 < stats.chi2.ppf(0.999, length - 1)

    def test_drop_rate_concentrates(self):
        sent = [4 + i % 9 for i in range(10)]
        dropped = total = 0
        for out in run([sent] * 10_000, "dropout", 0.15, seed=7):
            dropped += len(sent) - len(out)
            total += len(sent)
        assert 0.14 <= dropped / total <= 0.16

    def test_specials_never_dropped(self):
        sent = [4, BLANK, 5]
        for out in run([sent] * 200, "dropout", 0.9, seed=8):
            assert BLANK in out


class TestBlank:
    def test_gamma_zero_identity(self):
        sent = [4, 5, 6]
        assert run([sent], "blank", 0.0, seed=9) == [sent]

    def test_gamma_one_all_blank(self):
        assert run([[4, 5, 6]], "blank", 1.0, seed=10) == [[BLANK] * 3]

    def test_replacement_rate(self):
        sent = [4 + i % 7 for i in range(10)]
        hits = total = 0
        for out in run([sent] * 10_000, "blank", 0.15, seed=11):
            hits += sum(1 for t in out if t == BLANK)
            total += len(sent)
        assert 0.14 <= hits / total <= 0.16


class TestSmooth:
    def test_gamma_zero_identity(self):
        unigram = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        sent = [4, 4, 4]
        assert run([sent], "smooth", 0.0, seed=12, unigram=unigram) == [sent]

    def test_point_mass_unigram(self):
        probs = np.zeros(8)
        probs[6] = 1.0
        assert run([[4, 5, 7]], "smooth", 1.0, seed=13, unigram=probs) == [[6, 6, 6]]

    def test_replacement_distribution_matches_unigram(self):
        probs = np.zeros(10)
        probs[4:] = [0.3, 0.25, 0.2, 0.1, 0.1, 0.05]
        counts = np.zeros(10)
        n = 100_000
        for out in run([[4]] * n, "smooth", 1.0, seed=14, unigram=probs):
            counts[out[0]] += 1
        assert np.max(np.abs(counts / n - probs)) <= 0.01


class TestLmSample:
    def test_gamma_zero_identity(self, tiny_lm):
        model, sents, _ = tiny_lm
        assert run(sents[:1], "lm_sample", 0.0, seed=15, lm=model) == sents[:1]

    def test_replacements_match_next_dist(self, tiny_lm):
        model, _, vocab = tiny_lm
        sent = [5, 6, 7]
        dist = model.next_dist(sent[:2])
        counts = np.zeros(len(vocab))
        n = 100_000
        for out in run([sent] * n, "lm_sample", 1.0, seed=16, lm=model):
            counts[out[2]] += 1
        assert np.max(np.abs(counts / n - dist)) <= 0.01


class TestSoft:
    def test_gamma_zero_all_hard(self, tiny_lm):
        model, sents, _ = tiny_lm
        assert run(sents[:1], "soft", 0.0, seed=17, lm=model, topk=8) == sents[:1]

    def test_topk_one_is_argmax_point_mass(self, tiny_lm):
        model, _, _ = tiny_lm
        sent = [5, 6]
        [out] = run([sent], "soft", 1.0, seed=18, lm=model, topk=1)
        for pos, word in enumerate(out):
            assert isinstance(word, sa.SoftWord)
            dense = model.next_dist(sent[:pos])
            best = np.lexsort((np.arange(len(dense)), -dense))[0]
            assert word.dist.ids.tolist() == [best]
            assert word.dist.probs.tolist() == [1.0]

    def test_topk_zero_stores_dense_exactly(self, tiny_lm):
        model, _, vocab = tiny_lm
        # Nearly every content id ends some prefix; several of these histories
        # have a next_dist that renormalizing would change.
        sent = [7] + list(range(4, len(vocab)))
        [out] = run([sent], "soft", 1.0, seed=19, lm=model, topk=0)
        for pos, word in enumerate(out):
            assert isinstance(word, sa.SoftWord)
            dense = model.next_dist(sent[:pos])
            order = np.lexsort((np.arange(len(dense)), -dense))
            assert word.dist.ids.tolist() == order.tolist()
            assert word.dist.probs.tobytes() == dense[order].tobytes()

    def test_soft_words_are_normalized(self, tiny_lm):
        model, sents, _ = tiny_lm
        for out in run(sents[:50], "soft", 0.5, seed=20, lm=model, topk=4):
            for word in out:
                if isinstance(word, sa.SoftWord):
                    word.dist.validate(tol=1e-9)
                    assert np.all(word.dist.probs >= 0)

    def test_original_id_recorded(self, tiny_lm):
        model, _, _ = tiny_lm
        [out] = run([[9, 8]], "soft", 1.0, seed=21, lm=model, topk=4)
        assert [w.original_id for w in out] == [9, 8]

    @pytest.mark.parametrize("topk", [1, 3, 32])
    def test_topk_matches_dense_reference(self, tiny_lm, topk):
        model, sents, _ = tiny_lm
        outs = run(sents[:40], "soft", 0.6, seed=24, lm=model, topk=topk)
        for sent, out in zip(sents[:40], outs):
            for pos, word in enumerate(out):
                if isinstance(word, sa.SoftWord):
                    assert word.dist == top_k(model.next_dist(sent[:pos]), topk)


class TestSelection:
    def test_positions_independent(self):
        # blank replaces exactly the selected positions.
        n = 20_000
        hits = np.zeros((n, 2))
        for row, out in enumerate(run([[4] * 6] * n, "blank", 0.3, seed=22)):
            hits[row] = [out[0] == BLANK, out[4] == BLANK]
        corr = np.corrcoef(hits[:, 0], hits[:, 1])[0, 1]
        assert abs(corr) < 0.03

    def test_specials_never_selected(self):
        # A point-mass unigram on id 9 marks the selected positions.
        sent = [4, BLANK, 5, BLANK]
        probs = np.zeros(10)
        probs[9] = 1.0
        for out in run([sent] * 500, "smooth", 1.0, seed=23, unigram=probs):
            mask = [t == 9 for t in out]
            assert mask == [True, False, True, False]


class TestUnigram:
    @given(st.integers(5, 12).flatmap(lambda size: st.tuples(
        st.just(size), st.lists(st.lists(st.integers(0, size - 1), max_size=8), max_size=8))))
    def test_equals_per_token_count(self, case):
        size, sents = case
        assume(any(t >= 4 for s in sents for t in s))
        expected = oracles.unigram_per_token(sents, size)
        assert ag.unigram_dist(sents, size).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_id_outside_the_vocabulary_is_refused(self, bad):
        with pytest.raises(ValueError, match=f"^id out of range: {bad}$"):
            ag.unigram_dist([[4, 5], [6, bad]], 10)


class TestBlockDraws:
    """The corpus path draws a block of sentences' uniforms in one array
    pass; everything it draws equals the per-draw stream of each sentence."""

    corpus = st.lists(st.lists(st.integers(0, 9), max_size=9), max_size=12)

    @given(corpus, st.integers(0, 2**64 - 1), st.integers(0, 50), st.sampled_from([0.0, 0.3, 1.0]))
    def test_uniforms_and_masks_equal_per_sentence_streams(self, sents, seed, start, gamma):
        lengths = np.array([len(s) for s in sents], dtype=np.int64)
        u = stream_block(derive_block(seed, start, len(sents)), lengths)
        rngs = [SplitMix64(derive(seed, start + i)) for i in range(len(sents))]
        scalar = [rng.random() for rng, s in zip(rngs, sents) for _ in s]
        assert u.tobytes() == np.array(scalar, dtype=np.float64).tobytes()
        tokens = np.array([t for s in sents for t in s], dtype=np.int64)
        masks = [oracles.mask_per_draw(s, gamma, SplitMix64(derive(seed, start + i)))
                 for i, s in enumerate(sents)]
        assert ag._mask(ag._selectable(tokens), u, gamma).tolist() == [m for mask in masks for m in mask]

    # ``augment_corpus`` copies base sentences without drawing.
    @pytest.mark.parametrize("strategy", sa.STRATEGIES[1:])
    @given(sents=corpus, seed=st.integers(0, 2**64 - 1), start=st.integers(0, 50))
    @settings(max_examples=30)
    def test_block_equals_per_draw_oracle(self, tiny_lm, strategy, sents, seed, start):
        model = tiny_lm[0]
        # All-special corpora give no unigram; blank needs none.
        assume(strategy != "smooth" or any(t >= 4 for s in sents for t in s))
        cfg = sa.AugmentConfig(strategy=strategy, gamma=0.6, topk=3, seed=seed)
        uni = ag.unigram_dist(sents, 10) if strategy == "smooth" else None
        corpus, replaced, eligible = ag._augment_block(
            sents, start, cfg, model, lambda: np.cumsum(uni))
        expected = [oracles.augment_per_draw(s, start + i, cfg, model, uni)
                    for i, s in enumerate(sents)]
        assert corpus == [r[0] for r in expected]
        assert replaced == sum(r[1] for r in expected)
        assert eligible == sum(t not in (0, 1, 3) for s in sents for t in s)

    @pytest.mark.parametrize("strategy", sa.STRATEGIES)
    def test_threads_one_and_two_equal_per_draw_oracle(self, tiny_lm, monkeypatch, strategy):
        model, sents, _ = tiny_lm
        corpus = sents + [[], [0, 1, 3, 2], [3]]
        cfg = sa.AugmentConfig(strategy=strategy, gamma=0.4, topk=4, seed=12)
        uni = ag.unigram_dist(corpus, len(model.vocab))
        expected = [oracles.augment_per_draw(s, i, cfg, model, uni) for i, s in enumerate(corpus)]
        expected = [r[0] for r in expected], sum(r[1] for r in expected)
        # Small blocks put several blocks on each worker and one sentence
        # alone in some.
        for budget in (5, 1 << 16):
            monkeypatch.setattr(ag, "_BLOCK_TOKENS", budget)
            for threads in (1, 2):
                out, (replaced, _) = sa.augment_corpus(corpus, cfg, lm=model, unigram=uni,
                                                       threads=threads, return_stats=True)
                assert (out, replaced) == expected


class TestSoftCorpus:
    """The columns read as the list of soft sentences they hold."""

    @pytest.fixture(scope="class", params=["soft", "lm_sample", "dropout"])
    def augmented(self, request, tiny_lm):
        model, sents, _ = tiny_lm
        corpus = sents[:30] + [[], [0, 1, 3]]
        cfg = sa.AugmentConfig(strategy=request.param, gamma=0.4, topk=4, seed=14)
        want = [oracles.augment_per_draw(s, i, cfg, model)[0] for i, s in enumerate(corpus)]
        return sa.augment_corpus(corpus, cfg, lm=model), want

    def test_indexing_gives_the_per_draw_sentences(self, augmented):
        got, want = augmented
        assert isinstance(got, sa.SoftCorpus) and len(got) == len(want)
        assert [got[i] for i in range(len(got))] == want
        assert [got[i - len(got)] for i in range(len(got))] == want
        with pytest.raises(IndexError):
            got[len(got)]

    def test_slices_iteration_and_list_equality(self, augmented):
        got, want = augmented
        assert list(got) == want and got == want
        assert got[3:9] == want[3:9] and got[::4] == want[::4] and got[9:3] == []
        assert got != want[:-1] and got != want[:-1] + [[5]]
        assert (got == "corpus") is False

    def test_round_trips(self, augmented):
        got, _ = augmented
        assert sa.SoftCorpus.from_sentences(list(got)) == got
        assert pickle.loads(pickle.dumps(got)) == got

    @pytest.mark.parametrize("strategy", sa.STRATEGIES[1:])
    @given(sents=TestBlockDraws.corpus, cut=st.integers(0, 12), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=20)
    def test_blocks_concatenated_equal_one_block(self, tiny_lm, strategy, sents, cut, seed):
        model = tiny_lm[0]
        assume(strategy != "smooth" or any(t >= 4 for s in sents for t in s))
        cut = min(cut, len(sents))
        cfg = sa.AugmentConfig(strategy=strategy, gamma=0.6, topk=3, seed=seed)
        uni = ag.unigram_dist(sents, 10) if strategy == "smooth" else None
        cumulative = lambda: np.cumsum(uni)
        parts = [ag._augment_block(sents[:cut], 0, cfg, model, cumulative),
                 ag._augment_block(sents[cut:], cut, cfg, model, cumulative)]
        whole = ag._augment_block(sents, 0, cfg, model, cumulative)
        assert sa.SoftCorpus.concat([p[0] for p in parts]) == whole[0]
        assert [sum(p[k] for p in parts) for k in (1, 2)] == list(whole[1:])


class TestTopK:
    def test_ties_break_by_id(self):
        dense = np.array([0.0, 0.25, 0.25, 0.25, 0.25])
        dist = top_k(dense, 2)
        assert dist.ids.tolist() == [1, 2]
        assert np.allclose(dist.probs, [0.5, 0.5])

    def test_k_larger_than_support(self):
        dense = np.array([0.5, 0.5, 0.0])
        dist = top_k(dense, 10)
        assert len(dist.ids) == 3
        assert dist.probs.sum() == pytest.approx(1.0)


class TestDriver:
    def test_base_is_identity(self, tiny_lm):
        _, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy="base", gamma=0.5, seed=1)
        assert sa.augment_corpus(sents, cfg) == sents

    def test_gamma_zero_identity_for_every_strategy(self, tiny_lm):
        model, sents, _ = tiny_lm
        for strategy in sa.STRATEGIES:
            cfg = sa.AugmentConfig(strategy=strategy, gamma=0.0, seed=2)
            assert sa.augment_corpus(sents, cfg, lm=model) == sents

    def test_worker_count_does_not_change_output(self, tiny_lm):
        model, sents, _ = tiny_lm
        for strategy in ("blank", "soft"):
            cfg = sa.AugmentConfig(strategy=strategy, gamma=0.3, topk=4, seed=3)
            serial = sa.augment_corpus(sents, cfg, lm=model)
            parallel = sa.augment_corpus(sents, cfg, lm=model, threads=8)
            assert serial == parallel

    def test_sentence_rng_is_positional(self, tiny_lm):
        """One sentence augmented alone at its corpus index reproduces that
        sentence of the full run."""
        model, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy="smooth", gamma=0.4, seed=4)
        uni = ag.unigram_dist(sents, len(model.vocab))
        full = sa.augment_corpus(sents, cfg, unigram=uni)
        for i in (0, 3, 11):
            alone = ag._augment_block([sents[i]], i, cfg, None, lambda: np.cumsum(uni))
            assert alone[0][0] == full[i]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("bad", [-1, 999])
    @pytest.mark.parametrize("strategy", ["lm_sample", "soft"])
    def test_id_outside_the_models_vocabulary_is_refused(self, tiny_lm, strategy, bad, threads):
        """As ``perplexity`` refuses it: the model's queries would back
        off past it as if it were an unseen id."""
        model, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy=strategy, gamma=1.0, seed=1)
        with pytest.raises(ValueError, match=f"^id out of range: {bad}$"):
            sa.augment_corpus(sents[:20] + [[4, bad, 5, 6]], cfg, lm=model, threads=threads)

    @pytest.mark.parametrize("strategy", ["base", "blank"])
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_out_of_range_worker_count_is_refused(self, tiny_lm, strategy, gamma):
        """Also where no pool would start: base, and gamma 0."""
        _, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy=strategy, gamma=gamma, seed=1)
        with pytest.raises(ValueError, match="^threads must lie in .*, not 0$"):
            sa.augment_corpus(sents, cfg, threads=0)

    def test_missing_lm_is_configuration_error(self, tiny_lm):
        _, sents, _ = tiny_lm
        for strategy in ("lm_sample", "soft"):
            with pytest.raises(ValueError, match="requires a language model"):
                sa.augment_corpus(sents, sa.AugmentConfig(strategy=strategy, gamma=0.1))

    def test_replacement_stats(self, tiny_lm):
        model, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy="blank", gamma=0.2, seed=5)
        out, (replaced, eligible) = sa.augment_corpus(sents, cfg, return_stats=True)
        assert eligible == sum(len(s) for s in sents)
        assert replaced == sum(1 for s in out for t in s if t == BLANK)

    @pytest.mark.parametrize("strategy", sa.STRATEGIES)
    def test_eligible_count_equals_the_token_walk(self, tiny_lm, strategy):
        """Every id but BOS, EOS and BLANK is eligible, UNK included, at
        any worker count."""
        model, sents, _ = tiny_lm
        rng = SplitMix64(32)
        corpus = [[rng.randint(4) if rng.random() < 0.3 else t for t in s] for s in sents]
        corpus += [[], [0, 1, 2, 3], [3]]
        walk = sum(1 for s in corpus for t in s if t not in (0, 1, 3))
        cfg = sa.AugmentConfig(strategy=strategy, gamma=0.3, topk=4, seed=13)
        for threads in (1, 2):
            _, (_, eligible) = sa.augment_corpus(corpus, cfg, lm=model, threads=threads,
                                                 return_stats=True)
            assert eligible == walk

    @pytest.mark.parametrize("strategy", ["smooth", "lm_sample", "soft"])
    def test_replaced_count_equals_replayed_mask(self, tiny_lm, strategy):
        model, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy=strategy, gamma=0.3, topk=4, seed=9)
        _, (replaced, _) = sa.augment_corpus(sents, cfg, lm=model, return_stats=True)
        # The mask does not depend on the strategy: blank, run on each
        # sentence alone at its index, replaces the positions it selects.
        blank = dataclasses.replace(cfg, strategy="blank")
        replay = sum(ag._augment_block([s], i, blank, None, None)[1] for i, s in enumerate(sents))
        assert replay > 0
        assert replaced == replay

    @pytest.mark.parametrize("strategy", ["dropout", "blank", "smooth", "lm_sample", "soft"])
    def test_mask_drawn_once_per_sentence(self, tiny_lm, strategy):
        """One mask uniform per position, all before any replacement draw:
        the corpus equals a per-sentence replay that draws them so."""
        model, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy=strategy, gamma=0.3, topk=4, seed=10)
        out, (replaced, _) = sa.augment_corpus(sents, cfg, lm=model, return_stats=True)
        uni = ag.unigram_dist(sents, max(max(s) for s in sents) + 1)
        replay = [oracles.augment_per_draw(s, i, cfg, model, uni) for i, s in enumerate(sents)]
        assert out == [r[0] for r in replay]
        assert replaced == sum(r[1] for r in replay) > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            sa.AugmentConfig(strategy="nope").validate()
        with pytest.raises(ValueError):
            sa.AugmentConfig(gamma=1.5).validate()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_range_rejected(self, seed):
        # Streams take seeds mod 2^64: -1 would give the corpus of 2^64 - 1.
        config = sa.AugmentConfig(strategy="blank", gamma=0.5, seed=seed)
        with pytest.raises(ValueError, match=re.escape(f"seed must lie in [0, 2^64), not {seed}")):
            config.validate()
        with pytest.raises(ValueError, match="seed must lie in"):
            sa.augment_corpus([[5, 6, 7]], config)


class TestDist:
    @pytest.mark.parametrize("probs, ids", [([0.5, 0.5], [1]), ([1.0], [1, 2]), ([], [1])])
    def test_length_mismatch_rejected(self, probs, ids):
        dist = sa.Dist(np.array(probs, dtype=np.float64), np.array(ids, dtype=np.int64))
        with pytest.raises(ValueError, match="ids but"):
            dist.validate()


class TestSoftSerialization:
    def test_jsonl_round_trip_preserves_mixtures(self, tiny_lm, tmp_path):
        model, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy="soft", gamma=0.4, topk=5, seed=6)
        out = sa.augment_corpus(sents[:40], cfg, lm=model)
        path = tmp_path / "soft.jsonl"
        sa.write_soft_corpus(path, out)
        again = sa.read_soft_corpus(path)
        assert len(again) == len(out)
        emb = sa.init_model(len(model.vocab), 16, 2, seed=7).emb
        for s1, s2 in zip(out, again):
            assert len(s1) == len(s2)
            for w1, w2 in zip(s1, s2):
                if isinstance(w1, sa.SoftWord):
                    m1 = sa.mix_embedding(w1, emb)
                    m2 = sa.mix_embedding(w2, emb)
                    assert np.max(np.abs(m1 - m2)) <= 1e-9
                    assert w2.original_id == w1.original_id
                else:
                    assert w1 == w2

    @pytest.mark.parametrize(
        "line",
        [
            '{"soft":{}}',
            '{"toks":[5,6],"soft":{"0":{"orig":5}}}',
            '{"toks":[5,6],"soft":{"0":{"p":[[5,1.0]]}}}',
            '{"toks":[5,6],"soft":{"0":{"orig":5,"p":[5]}}}',
            '{"toks":[5,6],"soft":{"0":{"orig":5,"p":[[5]]}}}',
            '{"toks":[5,6],"soft":{"0":{"orig":5,"p":7}}}',
            '{"toks":[5,6],"soft":{"2":{"orig":5,"p":[[5,1.0]]}}}',
            '{"toks":[5,6],"soft":[]}',
            '{"toks":[5,null]}',
            '[5,6]',
            '{"toks":',
            # a negative position would index from the end of toks
            '{"toks":[5,6],"soft":{"-1":{"orig":6,"p":[[6,1.0]]}}}',
            # orig must be the token at its position
            '{"toks":[5,6],"soft":{"1":{"orig":5,"p":[[6,1.0]]}}}',
            # entries must form a distribution: no negative mass, no duplicate ids, mass 1
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,-0.5],[6,2.0]]}}}',
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,0.5],[6,0.5]]}}}',
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,0.5],[7,0.6]]}}}',
            # non-finite mass, negative ids, and tokens or ids that are not integers
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,NaN]]}}}',
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,Infinity]]}}}',
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[-3,1.0]]}}}',
            '{"toks":[5,6.7]}',
            '{"toks":[5,true]}',
            '{"toks":[5,Infinity]}',
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6.0,1.0]]}}}',
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,"1.0"]]}}}',
            '{"toks":[5,6],"soft":{"01":{"orig":6,"p":[[6,1.0]]}}}',
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[99999999999999999999,1.0]]}}}',
            # a repeated key would silently keep its last value
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,1.0]]},"1":{"orig":6,"p":[[7,1.0]]}}}',
            '{"toks":[5,6],"toks":[7],"soft":{}}',
        ],
    )
    def test_malformed_line_raises_value_error(self, line):
        with pytest.raises(ValueError):
            ag.parse_soft_line(line)

    def test_malformed_record_names_its_line(self, tmp_path):
        path = tmp_path / "soft.jsonl"
        path.write_text('{"toks":[5],"soft":{}}\n{"toks":[5],"soft":{"1":{"orig":5,"p":[]}}}\n')
        where = re.escape(f"line 2 of {path}: ")
        with pytest.raises(ValueError, match=f"^{where}soft position '1' is not an index"):
            sa.read_soft_corpus(path)

    def test_blank_line_is_refused(self, tmp_path):
        # Skipping it would pair every later sentence with the wrong label.
        path = tmp_path / "soft.jsonl"
        path.write_text('{"toks":[5],"soft":{}}\n\n{"toks":[6],"soft":{}}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(f'line 2 of {path}: ')}blank line$"):
            sa.read_soft_corpus(path)

    def test_jsonl_format_fields(self, tiny_lm):
        model, _, _ = tiny_lm
        [out] = run([[5, 6, 7]], "soft", 1.0, seed=8, lm=model, topk=3)
        line = ag._soft_line(out)
        import json

        obj = json.loads(line)
        assert obj["toks"] == [5, 6, 7]
        assert set(obj["soft"]) == {"0", "1", "2"}
        entry = obj["soft"]["1"]
        assert entry["orig"] == 6
        assert len(entry["p"]) == 3
        probs = [p for _, p in entry["p"]]
        assert probs == sorted(probs, reverse=True)


@st.composite
def soft_sentences(draw, gamma=None):
    """A sentence augmented by ``soft`` under a drawn model, top-k or dense."""
    model = draw(corpus_models())
    sent = draw(st.lists(st.integers(0, len(model.vocab) - 1), max_size=10))
    if gamma is None:
        gamma = draw(st.sampled_from([0.0, 0.5, 1.0]))
    topk = draw(st.sampled_from([0, 1, 3, 32]))
    seed = draw(st.integers(0, 2**64 - 1))
    return run([sent], "soft", gamma, seed, lm=model, topk=topk)[0]


def soft_lines(gamma=None):
    """A soft corpus line written from a drawn model, top-k or dense."""
    return soft_sentences(gamma).map(ag._soft_line)


def _corrupt_soft(kind, obj, draw):
    """Break one field of a parsed soft line in the named way."""
    toks, soft = obj["toks"], obj["soft"]
    if kind in ("fractional token", "integral float token", "boolean token"):
        i = draw(st.integers(0, len(toks) - 1))
        toks[i] = {"fractional token": toks[i] + 0.5, "integral float token": float(toks[i]),
                   "boolean token": True}[kind]
        return
    entry = soft[draw(st.sampled_from(sorted(soft)))]
    pair = entry["p"][draw(st.integers(0, len(entry["p"]) - 1))]
    if kind == "nan probability":
        pair[1] = math.nan
    elif kind == "infinite probability":
        pair[1] = draw(st.sampled_from([math.inf, -math.inf]))
    elif kind == "string probability":
        pair[1] = str(pair[1])
    elif kind == "negative id":
        pair[0] = -1 - pair[0]
    elif kind == "fractional id":
        pair[0] = pair[0] + 0.5
    elif kind == "boolean id":
        pair[0] = True
    elif kind == "float orig":
        entry["orig"] = float(entry["orig"])


SOFT_CORRUPTIONS = [
    "fractional token", "integral float token", "boolean token", "nan probability",
    "infinite probability", "string probability", "negative id", "fractional id",
    "boolean id", "float orig",
]


def _outcome(parse, line):
    """What *parse* returns for *line*, or ValueError if it refuses it."""
    try:
        return parse(line)
    except ValueError:
        return ValueError


# Floats at the edges of the writer's one-format path: 0, 1, a value that
# rounds to 1 at 12 digits, the least subnormal and normal floats, a value
# that %g writes in exponent form, and the non-finite ones.
EDGE_PROBABILITIES = [0.0, 1.0, 0.99999999999995, 5e-324, 2.2250738585072014e-308,
                      999999999999.5, math.nan, math.inf, -math.inf]


@st.composite
def soft_words(draw):
    """A SoftWord with drawn ids and probabilities, edge floats included;
    not necessarily a valid distribution."""
    n = draw(st.integers(0, 5))
    ids = draw(st.lists(st.integers(-2**40, 2**40), min_size=n, max_size=n))
    probs = draw(st.lists(st.one_of(
        st.sampled_from(EDGE_PROBABILITIES), st.floats(0.0, 1.0), st.floats(0.9999999999990, 1.0),
        st.floats(0.0, 1e-300), st.floats()), min_size=n, max_size=n))
    return sa.SoftWord(sa.Dist(np.array(probs, dtype=np.float64), np.array(ids, dtype=np.int64)),
                       draw(st.integers(0, 2**40)))


@st.composite
def near_soft_words(draw):
    """A SoftWord that is a distribution or only just fails one check: ids
    from a small range, so that some repeat, and probabilities whose sum
    may be off 1 by about the 1e-9 tolerance."""
    n = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    assume(weights.sum() > 0)
    probs = weights / weights.sum()
    probs[0] += draw(st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9]))
    return sa.SoftWord(sa.Dist(probs, np.array(ids, dtype=np.int64)), draw(st.integers(0, 99)))


TOKS_RESHAPES = ["object toks", "string toks", "empty string toks", "empty object toks"]
SOFT_RESHAPES = TOKS_RESHAPES + [
    "entry of length 1", "entry of length 3", "empty entry", "string entry", "object entry",
    "number entry", "null entry", "boolean probability", "object p", "string p", "empty p",
    "number p", "p of one object",
]


def _reshape_soft(kind, obj, draw):
    """Replace one JSON value of a parsed soft line by one of another shape."""
    if kind in TOKS_RESHAPES:
        obj["toks"] = {"object toks": {"5": 6}, "string toks": "56", "empty string toks": "",
                       "empty object toks": {}}[kind]
        return
    entry = obj["soft"][draw(st.sampled_from(sorted(obj["soft"])))]
    pairs = entry["p"]
    at = draw(st.integers(0, len(pairs) - 1))
    i, p = pairs[at]
    if kind in ("object p", "string p", "empty p", "number p", "p of one object"):
        entry["p"] = {"object p": {str(i): p}, "string p": "ab", "empty p": {}, "number p": 7,
                      "p of one object": [{str(i): p, "x": 1}]}[kind]
        return
    pairs[at] = {
        "entry of length 1": [i], "entry of length 3": [i, p, 0], "empty entry": [],
        "string entry": "ab", "object entry": {str(i): p, "x": 1}, "number entry": i,
        "null entry": None, "boolean probability": [i, True],
    }[kind]


class TestSoftLineProperties:
    @settings(max_examples=200, deadline=None)
    @given(soft_lines())
    def test_write_read_write_is_byte_identical(self, line):
        assert ag._soft_line(ag.parse_soft_line(line)) == line

    @settings(max_examples=300, deadline=None)
    @given(soft_lines(gamma=1.0), st.sampled_from(SOFT_CORRUPTIONS), st.data())
    def test_corrupt_line_raises_value_error(self, line, kind, data):
        obj = json.loads(line)
        assume(obj["soft"])
        _corrupt_soft(kind, obj, data.draw)
        with pytest.raises(ValueError):
            ag.parse_soft_line(json.dumps(obj))

    @settings(max_examples=100, deadline=None)
    @given(soft_lines())
    def test_every_truncation_raises_value_error(self, line):
        for cut in range(len(line)):
            with pytest.raises(ValueError):
                ag.parse_soft_line(line[:cut])

    @settings(max_examples=100, deadline=None)
    @given(soft_lines())
    def test_every_truncation_is_refused_as_the_oracle_refuses_it(self, line):
        for cut in range(len(line) + 1):
            assert _outcome(ag.parse_soft_line, line[:cut]) == _outcome(
                oracles.parse_soft_line, line[:cut])

    @settings(max_examples=200, deadline=None)
    @given(soft_lines())
    def test_reader_returns_what_the_oracle_returns(self, line):
        assert _outcome(ag.parse_soft_line, line) == _outcome(oracles.parse_soft_line, line)

    @pytest.mark.parametrize("kind", SOFT_CORRUPTIONS + SOFT_RESHAPES)
    @settings(max_examples=25, deadline=None)
    @given(line=soft_lines(gamma=1.0), data=st.data())
    def test_reader_raises_where_the_oracle_raises(self, line, kind, data):
        obj = json.loads(line)
        assume(obj["soft"] or kind in TOKS_RESHAPES)
        if kind in SOFT_CORRUPTIONS:
            _corrupt_soft(kind, obj, data.draw)
        else:
            _reshape_soft(kind, obj, data.draw)
        corrupted = json.dumps(obj)
        expected = _outcome(oracles.parse_soft_line, corrupted)
        assert _outcome(ag.parse_soft_line, corrupted) == expected
        if kind in SOFT_CORRUPTIONS:
            assert expected is ValueError

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2**40), soft_words()), max_size=6))
    def test_writer_bytes_equal_the_oracle(self, sentence):
        assert ag._soft_line(sentence) == oracles.soft_line(sentence)

    @settings(max_examples=100, deadline=None)
    @given(soft_sentences())
    def test_writer_bytes_equal_the_oracle_on_model_output(self, sentence):
        assert ag._soft_line(sentence) == oracles.soft_line(sentence)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.integers(0, 99), soft_words()), max_size=4), max_size=4))
    def test_written_file_is_the_oracle_lines(self, scratch_file, sentences):
        sa.write_soft_corpus(scratch_file, sentences)
        expected = "".join(oracles.soft_line(s) + "\n" for s in sentences)
        assert scratch_file.read_bytes() == expected.encode()

    @pytest.mark.parametrize("p, text", [
        (0.5, "0.5"), (0.99999999999995, "1.0"), (5e-324, "5e-324"),
        (2.2250738585072014e-308, "2.22507385851e-308"), (1e-05, "1e-05"),
        (0.1 + 0.2, "0.3"), (0.0, "0.0"),
    ])
    def test_probability_text(self, p, text):
        word = sa.SoftWord(sa.Dist(np.array([p]), np.array([6])), 6)
        assert ag._soft_line([5, word]) == (
            '{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,%s]]}}}' % text)


def _refusal(parse, line) -> str | None:
    """The message *parse* refuses *line* with, or None."""
    try:
        parse(line)
    except ValueError as exc:
        return str(exc)
    return None


def _same_verdict(line):
    """``_soft_records`` on the one line *line* refuses it exactly when
    ``parse_soft_line`` does, and otherwise reads the same corpus."""
    corpus = ag._soft_records([line])
    try:
        sentence = ag.parse_soft_line(line)
    except ValueError:
        assert corpus is None
    else:
        assert corpus is not None
        assert corpus == ag.SoftCorpus.from_sentences([sentence])


class TestArrayPassFollowsTheLineRule:
    """The reader decides a chunk with array passes and reports through
    ``parse_soft_line``: the two must accept the same lines."""

    @pytest.mark.parametrize("kind", SOFT_CORRUPTIONS + SOFT_RESHAPES)
    @settings(max_examples=25, deadline=None)
    @given(line=soft_lines(gamma=1.0), data=st.data())
    def test_on_a_broken_line(self, line, kind, data):
        obj = json.loads(line)
        assume(obj["soft"] or kind in TOKS_RESHAPES)
        if kind in SOFT_CORRUPTIONS:
            _corrupt_soft(kind, obj, data.draw)
        else:
            _reshape_soft(kind, obj, data.draw)
        _same_verdict(json.dumps(obj))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2**40), soft_words(), near_soft_words()), max_size=6))
    def test_on_drawn_supports(self, sentence):
        _same_verdict(ag._soft_line(sentence))

    @settings(max_examples=50, deadline=None)
    @given(soft_lines())
    def test_on_every_truncation(self, line):
        for cut in range(len(line) + 1):
            _same_verdict(line[:cut])


class TestFirstFaultInRecordOrder:
    """On a line with two faults, the one met first in record order names
    it: the tokens, then each soft position in turn, and within one
    support its probabilities before its ids."""

    @pytest.mark.parametrize("line, pattern", [
        # A bad token wins over a bad soft position.
        ('{"toks":[5,6.5],"soft":{"7":{"orig":5,"p":[[5,1.0]]}}}', r"6\.5 is not an integer"),
        ('{"toks":[5,6.5],"soft":{"0":{"orig":5,"p":[[5,"x"]]}}}', r"6\.5 is not an integer"),
        # A bad support at position 0 wins over a bad index at position 1.
        ('{"toks":[5,6],"soft":{"0":{"orig":5,"p":[[5,0.5]]},"2":{"orig":6,"p":[[6,1.0]]}}}',
         "probabilities do not sum to 1"),
        ('{"toks":[5,6],"soft":{"0":{"orig":5,"p":[[5,0.5],[5,0.5]]},"1":{"orig":5,"p":[[6,1.0]]}}}',
         "duplicate ids in distribution"),
        # Positions are checked in the order the record lists them.
        ('{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,0.5]]},"0":{"orig":5,"p":[[-5,1.0]]}}}',
         "probabilities do not sum to 1"),
        # A string probability wins over a negative id in the same support.
        ('{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[-6,0.5],[7,"0.5"]]}}}', r"'0\.5' is not a number"),
        ('{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[-6,"0.5"],[7,0.5]]}}}', r"'0\.5' is not a number"),
        # A token that does not fit int64 wins over a later one of the wrong type.
        ('{"toks":[99999999999999999999,6.5]}', r"malformed soft corpus line \(OverflowError: .*\)"),
        # A probability that does not fit a float64 wins over an id of the wrong type.
        ('{"toks":[5,6],"soft":{"1":{"orig":6,"p":[[6,1%s],[7.5,0.5]]}}}' % ("0" * 400),
         r"malformed soft corpus line \(OverflowError: .*\)"),
    ])
    def test_message(self, tmp_path, line, pattern):
        refused = _refusal(ag.parse_soft_line, line)
        assert refused is not None and re.fullmatch(pattern, refused)
        path = tmp_path / "soft.jsonl"
        path.write_text('{"toks":[5],"soft":{}}\n' + line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'line 2 of {path}: {refused}')}$"):
            sa.read_soft_corpus(path)


class TestSoftFileReader:
    """``read_soft_corpus`` checks a whole file as arrays and reports its
    first bad line, with the message that line alone gets."""

    @pytest.mark.parametrize("first_bad", [1, 3])
    @pytest.mark.parametrize("kind", SOFT_CORRUPTIONS + ["blank line"])
    @settings(max_examples=10, deadline=None)
    @given(lines=st.lists(soft_lines(gamma=1.0), min_size=4, max_size=4),
           later=st.sampled_from(["cut short"] + SOFT_CORRUPTIONS), data=st.data())
    def test_names_the_first_bad_line(self, scratch_file, first_bad, kind, lines, later, data):
        def broken(line, kind):
            if kind == "blank line":
                return ""
            if kind == "cut short":
                return line[:-1]
            obj = json.loads(line)
            assume(obj["soft"])
            _corrupt_soft(kind, obj, data.draw)
            return json.dumps(obj)

        lines[first_bad - 1] = bad = broken(lines[first_bad - 1], kind)
        lines[3] = broken(lines[3], later)
        scratch_file.write_text("".join(line + "\n" for line in lines))
        message = "blank line" if kind == "blank line" else _refusal(oracles.parse_soft_line, bad)
        assert message is not None
        with pytest.raises(ValueError) as refused:
            sa.read_soft_corpus(scratch_file)
        assert str(refused.value) == f"line {first_bad} of {scratch_file}: {message}"

    @settings(max_examples=30, deadline=None)
    @given(st.lists(soft_lines(), max_size=5))
    def test_file_reads_as_its_lines(self, scratch_file, lines):
        scratch_file.write_text("".join(line + "\n" for line in lines))
        assert sa.read_soft_corpus(scratch_file) == [ag.parse_soft_line(line) for line in lines]

    def test_lines_are_numbered_across_chunks(self, tmp_path):
        lines = ['{"toks":[5],"soft":{}}'] * 3 * ag._CHUNK_SENTENCES
        lines[ag._CHUNK_SENTENCES + 5] = '{"toks":[5.5],"soft":{}}'
        lines[ag._CHUNK_SENTENCES + 9] = '{"toks":'
        path = tmp_path / "soft.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        where = re.escape(f"line {ag._CHUNK_SENTENCES + 6} of {path}: ")
        with pytest.raises(ValueError, match=f"^{where}5.5 is not an integer$"):
            sa.read_soft_corpus(path)

    def test_soft_positions_in_any_order(self, tmp_path):
        path = tmp_path / "soft.jsonl"
        path.write_text('{"toks":[5,6,7],"soft":{"2":{"orig":7,"p":[[7,0.5],[4,0.5]]},'
                        '"0":{"orig":5,"p":[[5,1.0]]}}}\n{"toks":[8],"soft":{}}\n')
        corpus = sa.read_soft_corpus(path)
        assert corpus.soft_at.tolist() == [0, 2]
        assert corpus == [[sa.SoftWord(sa.Dist(np.array([1.0]), np.array([5])), 5), 6,
                           sa.SoftWord(sa.Dist(np.array([0.5, 0.5]), np.array([7, 4])), 7)], [8]]
