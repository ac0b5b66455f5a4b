import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaug import corpus as cp, softmix
from softaug.rng import SplitMix64

from oracles import apply_bpe_in_order, learn_bpe_quadratic

# A whitespace-free, non-empty symbol: what a surface or a BPE symbol may be.
symbols = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
    lambda s: s.split() == [s]
)

# Words over a two-letter alphabet with counts in 1..3, so pair-count ties
# are common and the tie-break decides many merges.
tiny_word_counts = st.dictionaries(st.text("ab", min_size=1, max_size=6), st.integers(1, 3),
                                   min_size=1, max_size=12)


@st.composite
def tiny_merge_tables(draw):
    """Merges over "ab" whose symbols are characters or earlier merges'
    results, so most merges can act and one string is often built by two
    merges; shuffled half the time, so a pair may precede its parts."""
    pool = ["a", "b", "a</w>", "b</w>"]
    merges = []
    for _ in range(draw(st.integers(0, 16))):
        pair = (draw(st.sampled_from([s for s in pool if not s.endswith("</w>")])),
                draw(st.sampled_from(pool)))
        if pair not in merges:
            merges.append(pair)
            if "".join(pair) not in pool:
                pool.append("".join(pair))
    return cp.MergeTable(tuple(draw(st.permutations(merges)) if draw(st.booleans()) else merges))


def rendered(syms: list[str]) -> list[str]:
    return [s + cp.CONT_MARKER for s in syms[:-1]] + [syms[-1].removesuffix(cp.WORD_END)]


# Characters at which str.splitlines breaks a line, but file iteration
# does not; \r and \n are the only line breaks of a text-mode file.
NON_BREAKS = "\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e"


def iterated_lines(data: bytes) -> list[str]:
    """The lines of UTF-8 *data* as iterating a text-mode file gives them."""
    return [line.rstrip("\n") for line in io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")]


class TestSplitLines:
    @settings(max_examples=300, deadline=None)
    @given(st.text("a \r\n" + NON_BREAKS, max_size=16))
    def test_same_lines_as_file_iteration(self, text):
        assert cp.split_lines(text) == iterated_lines(text.encode("utf-8"))

    @pytest.mark.parametrize("text, lines", [
        ("", []), ("\n", [""]), ("a", ["a"]), ("a\n\n", ["a", ""]), ("a\r\n", ["a"]),
        ("a\rb", ["a", "b"]), ("a\r\rb\r", ["a", "", "b"]), ("\r\n\r", ["", ""]),
        (f"a{NON_BREAKS}b\n", [f"a{NON_BREAKS}b"]),
    ])
    def test_lines(self, text, lines):
        assert cp.split_lines(text) == lines

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_counted_files_read_with_any_line_break(self, tmp_path, newline):
        vocab, table = cp.build_vocab("a a b"), cp.learn_bpe({"ab": 2, "abc": 1}, 3)
        emb = np.array([[0.5, -1.25], [3.0, 1e-300]])
        vocab.save(tmp_path / "vocab.tsv")
        table.save(tmp_path / "codes.bpe")
        softmix.save_embedding(tmp_path / "emb.txt", emb)
        for name in ("vocab.tsv", "codes.bpe", "emb.txt"):
            path = tmp_path / name
            path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        again = cp.Vocabulary.load(tmp_path / "vocab.tsv")
        assert (again.surfaces, again.counts) == (vocab.surfaces, vocab.counts)
        assert cp.MergeTable.load(tmp_path / "codes.bpe") == table
        assert softmix.load_embedding(tmp_path / "emb.txt").tobytes() == emb.tobytes()

    def test_count_words_of_text_lines_or_file(self, tmp_path):
        text = f"a{NON_BREAKS}b\r\nb\n"
        path = tmp_path / "corpus.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            assert cp.count_words(text) == cp.count_words(cp.split_lines(text)) == \
                cp.count_words(fh) == {"a": 1, "b": 2}
        with pytest.raises(ValueError, match="empty corpus"):
            cp.count_words(iter([]))


class TestBuildVocab:
    def test_zero_tokens_yields_only_specials(self):
        vocab = cp.build_vocab("\n", max_size=10)
        assert vocab.surfaces == list(cp.SPECIAL_TOKENS)
        assert vocab.counts == [0, 0, 0, 0]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            cp.build_vocab("")

    def test_counts_after_specials(self):
        vocab = cp.build_vocab("a a b")
        assert vocab.surfaces[4:] == ["a", "b"]
        assert vocab.counts[4:] == [2, 1]

    def test_lexicographic_tie_break(self):
        vocab = cp.build_vocab("b a")
        assert vocab.surfaces[4:] == ["a", "b"]

    def test_max_size_caps_total_entries(self):
        vocab = cp.build_vocab("a a a b b c", max_size=6)
        assert len(vocab) == 6
        assert vocab.surfaces[4:] == ["a", "b"]
        assert vocab.id_of("c") == cp.UNK

    @pytest.mark.parametrize("max_size", [-1, 0, 1, cp.NUM_SPECIALS - 1])
    def test_max_size_below_the_specials_is_refused(self, max_size):
        with pytest.raises(ValueError, match=f"max_size must be >= {cp.NUM_SPECIALS}"):
            cp.build_vocab("a b", max_size=max_size)

    def test_max_size_of_the_specials_keeps_them_alone(self):
        assert cp.build_vocab("a b", max_size=cp.NUM_SPECIALS).surfaces == list(cp.SPECIAL_TOKENS)

    def test_id_assignment_is_pure_function_of_corpus(self, tmp_path):
        text = "the cat sat\non the mat\n"
        p1, p2 = tmp_path / "v1", tmp_path / "v2"
        cp.build_vocab(text).save(p1)
        cp.build_vocab(text).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        vocab = cp.build_vocab("a a b c c c")
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        again = cp.Vocabulary.load(path)
        assert again.surfaces == vocab.surfaces
        assert again.counts == vocab.counts

    def test_malformed_utf8_reports_byte_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"ok line\n\xff\xfe broken")
        with pytest.raises(ValueError, match="byte 8"):
            cp.read_text(str(path))


class TestLearnBpe:
    def test_single_pair_word(self):
        table = cp.learn_bpe({"aa": 1}, 1)
        assert table.merges == (("a", "a</w>"),)

    def test_stops_when_no_pair_remains(self):
        table = cp.learn_bpe({"ab": 1}, 5)
        assert table.merges == (("a", "b</w>"),)

    def test_zero_merges_rejected(self):
        with pytest.raises(ValueError):
            cp.learn_bpe({"ab": 1}, 0)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            cp.learn_bpe({}, 3)

    @pytest.mark.parametrize("counts", [{"ab": 1, "cd": 0}, {"ab": 0, "cd": 0},
                                        {"ab": 1, "cd": -5}, {"ab": 1.0}, {"ab": 2, "cd": 1.5}])
    def test_counts_must_be_positive_integers(self, counts):
        with pytest.raises(ValueError, match="positive integer"):
            cp.learn_bpe(counts, 3)

    def test_greedy_choice_replayable(self):
        rng = SplitMix64(3)
        words = {}
        for _ in range(40):
            length = 1 + rng.randint(6)
            word = "".join("abcd"[rng.randint(4)] for _ in range(length))
            words[word] = words.get(word, 0) + 1 + rng.randint(5)
        table = cp.learn_bpe(words, 25)
        assert table.merges == learn_bpe_quadratic(words, 25)

    @settings(max_examples=300, deadline=None)
    @given(tiny_word_counts, st.integers(1, 40))
    def test_same_table_as_recounting_learner(self, words, num_merges):
        # 40 merges exceed what 12 words of at most 6 letters can hold, so
        # many examples also cover the early stop.
        assert cp.learn_bpe(words, num_merges).merges == learn_bpe_quadratic(words, num_merges)

    def test_merges_file_round_trip(self, tmp_path):
        table = cp.learn_bpe({"low": 5, "lower": 2, "newest": 6, "widest": 3}, 10)
        path = tmp_path / "codes.bpe"
        table.save(path)
        assert path.read_text().startswith(f"#bpe v1 {len(table)}\n")
        assert cp.MergeTable.load(path) == table


class TestMergesFile:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(symbols, symbols), max_size=8, unique=True))
    def test_round_trip(self, scratch_file, merges):
        table = cp.MergeTable(tuple(merges))
        table.save(scratch_file)
        assert cp.MergeTable.load(scratch_file) == table

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(symbols, symbols), max_size=6, unique=True), st.data())
    def test_every_truncation_raises_value_error(self, scratch_file, merges, data):
        cp.MergeTable(tuple(merges)).save(scratch_file)
        text = scratch_file.read_bytes()
        scratch_file.write_bytes(text[: data.draw(st.integers(0, len(text) - 1))])
        with pytest.raises(ValueError):
            cp.MergeTable.load(scratch_file)

    @pytest.mark.parametrize("text", [
        "#bpe v1 5\na b\nc d\n",
        "#bpe v1 1\na b\nc d\n",
        "#bpe v1 xyz\na b\n",
        "#bpe v10 1\na b\n",
        "#bpe v1  1\na b\n",
        "#bpe v1 1 \na b\n",
        "#bpe v2 1\na b\n",
        "a b\n",
        "",
        "#bpe v1 1\n b\n",
        "#bpe v1 1\na \n",
        "#bpe v1 1\na b c\n",
        "#bpe v1 2\na b\n\n",
        "#bpe v1 1\na\tx b\n",
        "#bpe v1 2\na b\na b\n",
    ])
    def test_corrupt_file_raises_value_error(self, tmp_path, text):
        path = tmp_path / "codes.bpe"
        path.write_text(text)
        with pytest.raises(ValueError):
            cp.MergeTable.load(path)


SPECIALS = ["<s>\t0", "</s>\t0", "<unk>\t0", "<blank>\t0"]


def vocab_text(lines: list[str]) -> str:
    return "\n".join([f"#vocab v1 {len(lines)}"] + lines) + "\n"


class TestVocabularyFile:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(symbols.filter(lambda s: s not in cp.SPECIAL_TOKENS), max_size=8, unique=True),
           st.data())
    def test_round_trip(self, scratch_file, words, data):
        counts = data.draw(st.lists(st.integers(0, 10**12), min_size=len(words), max_size=len(words)))
        vocab = cp.Vocabulary(list(cp.SPECIAL_TOKENS) + words, [0] * 4 + counts)
        vocab.save(scratch_file)
        again = cp.Vocabulary.load(scratch_file)
        assert (again.surfaces, again.counts) == (vocab.surfaces, vocab.counts)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(symbols.filter(lambda s: s not in cp.SPECIAL_TOKENS), max_size=6, unique=True),
           st.data())
    def test_every_truncation_raises_value_error(self, scratch_file, words, data):
        cp.Vocabulary(list(cp.SPECIAL_TOKENS) + words, [0] * 4 + [1] * len(words)).save(scratch_file)
        text = scratch_file.read_bytes()
        scratch_file.write_bytes(text[: data.draw(st.integers(0, len(text) - 1))])
        with pytest.raises(ValueError):
            cp.Vocabulary.load(scratch_file)

    def test_file_starts_with_entry_count(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        cp.build_vocab("a a b").save(path)
        assert path.read_text() == vocab_text(SPECIALS + ["a\t2", "b\t1"])

    @pytest.mark.parametrize("line", [
        "\t3", "a b\t3", "a\u00a0b\t3", "a 3", "a", "a\t", "a\tx", "a\t-1", "a\t+1", "a\t3\t4",
        "a\t\u0663", "<unk>\t1",
    ])
    def test_corrupt_line_raises_value_error(self, tmp_path, line):
        path = tmp_path / "vocab.tsv"
        path.write_text(vocab_text(SPECIALS + [line]))
        with pytest.raises(ValueError):
            cp.Vocabulary.load(path)

    def test_missing_specials_raise_value_error(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text(vocab_text(SPECIALS[1:] + ["a\t3"]))
        with pytest.raises(ValueError):
            cp.Vocabulary.load(path)

    @pytest.mark.parametrize("text", [
        "\n".join(SPECIALS) + "\n",
        "#vocab v1 5\n" + "\n".join(SPECIALS) + "\n",
        "#vocab v1 3\n" + "\n".join(SPECIALS) + "\n",
        "#vocab v1 4\n" + "\n".join(SPECIALS),
        "#vocab v1 5\n" + "\n".join(SPECIALS) + "\n\n",
        "#vocab v1 5\n" + "\n".join(SPECIALS[:2] + [""] + SPECIALS[2:]) + "\n",
        "#vocab v2 4\n" + "\n".join(SPECIALS) + "\n",
        "#vocab v1 four\n" + "\n".join(SPECIALS) + "\n",
    ])
    def test_corrupt_header_or_count_raises_value_error(self, tmp_path, text):
        path = tmp_path / "vocab.tsv"
        path.write_text(text)
        with pytest.raises(ValueError):
            cp.Vocabulary.load(path)


class TestApplyBpe:
    def test_learned_merge_joins_word(self):
        table = cp.learn_bpe({"aa": 1}, 1)
        assert cp.apply_bpe("aa", table) == ["aa"]

    def test_empty_table_gives_characters(self):
        assert cp.apply_bpe("aa", cp.MergeTable(())) == ["a@@", "a"]
        assert cp.apply_bpe("abc", cp.MergeTable(())) == ["a@@", "b@@", "c"]

    def test_unknown_characters_pass_through(self):
        table = cp.learn_bpe({"ab": 3}, 2)
        assert cp.apply_bpe("xéz", table) == ["x@@", "é@@", "z"]

    def test_two_merges_building_one_string(self):
        # "abc" is built by a+bc (rank 2) and by ab+c (rank 4).  In list
        # order, ab+c acts last, after (abc, d</w>) at rank 3 has passed,
        # so "abcd" stays in two pieces.  Merging the lowest-ranked present
        # pair of any rank would then apply rank 3 and give one piece.
        table = cp.MergeTable((("a", "b"), ("b", "c"), ("a", "bc"), ("abc", "d</w>"), ("ab", "c")))
        assert apply_bpe_in_order("abcd", table.merges) == ["abc", "d</w>"]
        assert cp.apply_bpe("abcd", table) == ["abc@@", "d"]

    @settings(max_examples=300, deadline=None)
    @given(tiny_merge_tables(), st.lists(st.text("ab", min_size=1, max_size=8), min_size=1,
                                         max_size=6))
    def test_same_segmentation_as_in_order_merges(self, table, words):
        expected = [s for w in words for s in rendered(apply_bpe_in_order(w, table.merges))]
        assert cp.apply_bpe(" ".join(words), table) == expected

    def test_round_trip_random_sentences(self):
        rng = SplitMix64(17)
        alphabet = "abcdefgh"
        words = {}
        for _ in range(30):
            w = "".join(alphabet[rng.randint(len(alphabet))] for _ in range(1 + rng.randint(7)))
            words[w] = 1 + rng.randint(9)
        table = cp.learn_bpe(words, 40)
        for _ in range(1000):
            n = 1 + rng.randint(9)
            sent = " ".join(
                "".join(alphabet[rng.randint(len(alphabet))] for _ in range(1 + rng.randint(7)))
                for _ in range(n)
            )
            assert cp.detokenize(cp.apply_bpe(sent, table)) == sent


class TestEncodeDecode:
    def test_round_trip_in_vocab(self):
        table = cp.learn_bpe({"ab": 2, "cd": 2}, 4)
        sub = [" ".join(cp.apply_bpe(s, table)) for s in ("ab cd", "cd ab ab")]
        vocab = cp.build_vocab("\n".join(sub))
        for text in ("ab cd", "cd ab ab"):
            assert cp.decode(cp.encode(text, table, vocab), vocab) == text

    def test_oov_subword_becomes_unk(self):
        table = cp.MergeTable(())
        vocab = cp.build_vocab("a b")
        assert cp.encode("a z", table, vocab) == [vocab.id_of("a"), cp.UNK]

    def test_decode_out_of_range(self):
        vocab = cp.build_vocab("a")
        with pytest.raises(ValueError, match="id out of range"):
            cp.decode([len(vocab)], vocab)
