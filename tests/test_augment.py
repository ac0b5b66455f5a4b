import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

import softaug as sa
from softaug import augment as ag
from softaug.corpus import BLANK
from softaug.rng import SplitMix64, derive

from conftest import corpus_models
import oracles
from oracles import top_k


def fresh_rngs(seed, n):
    return (SplitMix64(derive(seed, i)) for i in range(n))


class TestSwap:
    def test_length_one_unchanged(self):
        assert sa.augment_swap([7], 3, SplitMix64(1)) == [7]

    def test_multiset_preserved_large_window(self):
        rng = SplitMix64(2)
        sent = [4 + rng.randint(30) for _ in range(15)]
        out = sa.augment_swap(list(sent), 50, SplitMix64(3))
        assert sorted(out) == sorted(sent)

    def test_displacement_bound(self):
        k = 3
        rng = SplitMix64(4)
        for i in range(2000):
            length = 1 + rng.randint(20)
            sent = list(range(100, 100 + length))
            out = sa.augment_swap(sent, k, SplitMix64(derive(10, i)))
            for pos, token in enumerate(out):
                assert abs((token - 100) - pos) <= k
            assert sorted(out) == sent


class TestDropout:
    def test_gamma_zero_identity(self):
        sent = [4, 5, 6, 7]
        assert sa.augment_dropout(list(sent), 0.0, SplitMix64(5)) == sent

    def test_gamma_one_single_uniform_survivor(self):
        length = 8
        sent = [4 + i for i in range(length)]
        counts = np.zeros(length)
        trials = 100_000
        for rng in fresh_rngs(6, trials):
            out = sa.augment_dropout(list(sent), 1.0, rng)
            assert len(out) == 1
            counts[out[0] - 4] += 1
        chi2 = float(((counts - trials / length) ** 2 / (trials / length)).sum())
        assert chi2 < stats.chi2.ppf(0.999, length - 1)

    def test_drop_rate_concentrates(self):
        sent = [4 + i % 9 for i in range(10)]
        dropped = total = 0
        for rng in fresh_rngs(7, 10_000):
            out = sa.augment_dropout(list(sent), 0.15, rng)
            dropped += len(sent) - len(out)
            total += len(sent)
        assert 0.14 <= dropped / total <= 0.16

    def test_specials_never_dropped(self):
        sent = [4, BLANK, 5]
        for rng in fresh_rngs(8, 200):
            assert BLANK in sa.augment_dropout(list(sent), 0.9, rng)


class TestBlank:
    def test_gamma_zero_identity(self):
        sent = [4, 5, 6]
        assert sa.augment_blank(list(sent), 0.0, SplitMix64(9)) == sent

    def test_gamma_one_all_blank(self):
        assert sa.augment_blank([4, 5, 6], 1.0, SplitMix64(10)) == [BLANK] * 3

    def test_replacement_rate(self):
        sent = [4 + i % 7 for i in range(10)]
        hits = total = 0
        for rng in fresh_rngs(11, 10_000):
            out = sa.augment_blank(list(sent), 0.15, rng)
            hits += sum(1 for t in out if t == BLANK)
            total += len(sent)
        assert 0.14 <= hits / total <= 0.16


class TestSmooth:
    def test_gamma_zero_identity(self):
        unigram = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        sent = [4, 4, 4]
        assert sa.augment_smooth(list(sent), 0.0, unigram, SplitMix64(12)) == sent

    def test_point_mass_unigram(self):
        probs = np.zeros(8)
        probs[6] = 1.0
        out = sa.augment_smooth([4, 5, 7], 1.0, probs, SplitMix64(13))
        assert out == [6, 6, 6]

    def test_replacement_distribution_matches_unigram(self):
        probs = np.zeros(10)
        probs[4:] = [0.3, 0.25, 0.2, 0.1, 0.1, 0.05]
        counts = np.zeros(10)
        n = 100_000
        for rng in fresh_rngs(14, n):
            counts[sa.augment_smooth([4], 1.0, probs, rng)[0]] += 1
        assert np.max(np.abs(counts / n - probs)) <= 0.01


class TestLmSample:
    def test_gamma_zero_identity(self, tiny_lm):
        model, sents, _ = tiny_lm
        sent = sents[0]
        assert sa.augment_lm_sample(list(sent), 0.0, model, SplitMix64(15)) == sent

    def test_replacements_match_next_dist(self, tiny_lm):
        model, _, vocab = tiny_lm
        sent = [5, 6, 7]
        dist = model.next_dist(sent[:2])
        counts = np.zeros(len(vocab))
        n = 100_000
        for rng in fresh_rngs(16, n):
            counts[sa.augment_lm_sample(list(sent), 1.0, model, rng)[2]] += 1
        assert np.max(np.abs(counts / n - dist)) <= 0.01


class TestSoft:
    def test_gamma_zero_all_hard(self, tiny_lm):
        model, sents, _ = tiny_lm
        out = sa.augment_soft(list(sents[0]), 0.0, model, 8, SplitMix64(17))
        assert out == sents[0]

    def test_topk_one_is_argmax_point_mass(self, tiny_lm):
        model, _, _ = tiny_lm
        sent = [5, 6]
        out = sa.augment_soft(list(sent), 1.0, model, 1, SplitMix64(18))
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
        out = sa.augment_soft(list(sent), 1.0, model, 0, SplitMix64(19))
        for pos, word in enumerate(out):
            assert isinstance(word, sa.SoftWord)
            dense = model.next_dist(sent[:pos])
            order = np.lexsort((np.arange(len(dense)), -dense))
            assert word.dist.ids.tolist() == order.tolist()
            assert word.dist.probs.tobytes() == dense[order].tobytes()

    def test_soft_words_are_normalized(self, tiny_lm):
        model, sents, _ = tiny_lm
        for i, sent in enumerate(sents[:50]):
            out = sa.augment_soft(list(sent), 0.5, model, 4, SplitMix64(derive(20, i)))
            for word in out:
                if isinstance(word, sa.SoftWord):
                    word.dist.validate(tol=1e-9)
                    assert np.all(word.dist.probs >= 0)

    def test_original_id_recorded(self, tiny_lm):
        model, _, _ = tiny_lm
        out = sa.augment_soft([9, 8], 1.0, model, 4, SplitMix64(21))
        assert [w.original_id for w in out] == [9, 8]

    @pytest.mark.parametrize("topk", [1, 3, 32])
    def test_topk_matches_dense_reference(self, tiny_lm, topk):
        model, sents, _ = tiny_lm
        for i, sent in enumerate(sents[:40]):
            out = sa.augment_soft(list(sent), 0.6, model, topk, SplitMix64(derive(24, i)))
            for pos, word in enumerate(out):
                if isinstance(word, sa.SoftWord):
                    assert word.dist == top_k(model.next_dist(sent[:pos]), topk)


class TestSelection:
    def test_positions_independent(self):
        sent = [4] * 6
        n = 20_000
        hits = np.zeros((n, 2))
        for row, rng in enumerate(fresh_rngs(22, n)):
            mask = ag.select_positions(sent, 0.3, rng)
            hits[row] = [mask[0], mask[4]]
        corr = np.corrcoef(hits[:, 0], hits[:, 1])[0, 1]
        assert abs(corr) < 0.03

    def test_specials_never_selected(self):
        sent = [4, BLANK, 5, BLANK]
        for rng in fresh_rngs(23, 500):
            mask = ag.select_positions(sent, 1.0, rng)
            assert mask == [True, False, True, False]


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
        """Augmenting a slice reproduces the matching slice of the full run
        when indices are preserved via single-sentence calls."""
        model, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy="smooth", gamma=0.4, seed=4)
        uni = ag.unigram_dist(sents, len(model.vocab))
        full = sa.augment_corpus(sents, cfg, unigram=uni)
        for i in (0, 3, 11):
            rng = SplitMix64(derive(cfg.seed, i))
            assert sa.augment_smooth(sents[i], cfg.gamma, uni, rng) == full[i]

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

    @pytest.mark.parametrize("strategy", ["smooth", "lm_sample", "soft"])
    def test_replaced_count_equals_replayed_mask(self, tiny_lm, strategy):
        model, sents, _ = tiny_lm
        cfg = sa.AugmentConfig(strategy=strategy, gamma=0.3, topk=4, seed=9)
        _, (replaced, _) = sa.augment_corpus(sents, cfg, lm=model, return_stats=True)
        replay = sum(
            sum(ag.select_positions(s, cfg.gamma, SplitMix64(derive(cfg.seed, i))))
            for i, s in enumerate(sents)
        )
        assert replay > 0
        assert replaced == replay

    @pytest.mark.parametrize("strategy", ["dropout", "blank", "smooth", "lm_sample", "soft"])
    def test_mask_drawn_once_per_sentence(self, tiny_lm, monkeypatch, strategy):
        model, sents, _ = tiny_lm
        calls = []
        draw = ag.select_positions

        def counted(sentence, gamma, rng):
            calls.append(len(sentence))
            return draw(sentence, gamma, rng)

        monkeypatch.setattr(ag, "select_positions", counted)
        cfg = sa.AugmentConfig(strategy=strategy, gamma=0.3, topk=4, seed=10)
        sa.augment_corpus(sents, cfg, lm=model, return_stats=True)
        assert calls == [len(s) for s in sents]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            sa.AugmentConfig(strategy="nope").validate()
        with pytest.raises(ValueError):
            sa.AugmentConfig(gamma=1.5).validate()


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
        out = sa.augment_soft([5, 6, 7], 1.0, model, 3, SplitMix64(8))
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
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    return sa.augment_soft(sent, gamma, model, topk, rng)


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

