"""HDC encoding, training, TCAM-backed inference, energy rollup."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryocam import cli, hdc

from cryocam.config import build_config
from cryocam.errors import DomainError, UsageError
from cryocam.hdc import (
    BlockPlan,
    HdcModel,
    ItemMemory,
    accuracy_eval,
    encode_text,
    energy_sweep,
    hamming,
    infer_exact,
    infer_tcam,
    load_model,
    majority_bundle,
    save_model,
    synthetic_corpus,
    train,
)
from cryocam.tcam import (
    SearchKey,
    TcamArray,
    invert_ml_voltage_closed_form,
    ml_voltage_closed_form,
    search_energy,
    search_hd,
    store_word,
)

D = 1024
SEED = 7


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(n_classes=3, texts_per_class=24, text_len=1500, seed=42)


@pytest.fixture(scope="module")
def model(corpus):
    train_set = {label: texts[:16] for label, texts in corpus.items()}
    return train(train_set, d=D, n_gram=3, seed=SEED)


class TestItemMemory:
    def test_deterministic_under_seed(self):
        a = ItemMemory(D, SEED)
        b = ItemMemory(D, SEED)
        for sym in a.vectors:
            assert np.array_equal(a.vectors[sym], b.vectors[sym])
        assert np.array_equal(a.tie_break, b.tie_break)

    def test_pairwise_distance_near_half(self):
        item = ItemMemory(D, SEED)
        vectors = list(item.vectors.values())
        dists = [
            hamming(vectors[i], vectors[j]) / D
            for i in range(len(vectors))
            for j in range(i + 1, len(vectors))
        ]
        assert 0.48 <= float(np.mean(dists)) <= 0.52
        # every pair within 3 sigma of binomial(D, 1/2)
        sigma = 0.5 / np.sqrt(D)
        assert all(abs(d - 0.5) < 3.5 * sigma for d in dists)

    def test_unknown_symbol_maps_to_bucket(self):
        item = ItemMemory(D, SEED)
        assert np.array_equal(item.vector("@"), item.vector("é"))

    @pytest.mark.parametrize("seed", [0, SEED, 2**40 + 3])
    @pytest.mark.parametrize("d", [8, 9, 10, 11, 12, 13, 79, 1001, 1002, 1003,
                                   9999, 10000, 10001])
    def test_table_is_the_per_symbol_draws(self, d, seed):
        # the one raw draw gives the bits, and leaves the generator in the
        # state, of one rng.integers call per symbol
        symbols = hdc.ALPHABET + hdc.OTHER_SYMBOL
        rng = np.random.default_rng(seed)
        rows = [rng.integers(0, 2, size=d, dtype=np.uint8) for _ in symbols]
        tie_break = rng.integers(0, 2, size=d, dtype=np.uint8)
        item = ItemMemory(d, seed)
        assert "".join(item.vectors) == symbols
        for got, want in zip(item.vectors.values(), rows, strict=True):
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert np.array_equal(item.tie_break, tie_break)


class TestEncoding:
    def test_single_ngram_equals_bound_vector(self):
        item = ItemMemory(D, SEED)
        text = "abc"
        expected = (
            np.roll(item.vector("a"), 0)
            ^ np.roll(item.vector("b"), 1)
            ^ np.roll(item.vector("c"), 2)
        )
        assert np.array_equal(encode_text(text, item, 3), expected)

    def test_deterministic(self):
        item = ItemMemory(D, SEED)
        text = "the quick brown fox"
        assert np.array_equal(
            encode_text(text, item, 3), encode_text(text, item, 3)
        )

    def test_different_languages_near_orthogonal(self, corpus):
        item = ItemMemory(D, SEED)
        a = encode_text(corpus["lang00"][0], item, 3)
        b = encode_text(corpus["lang01"][0], item, 3)
        assert 0.45 <= hamming(a, b) / D <= 0.55

    def test_same_language_halves_similar(self, corpus):
        item = ItemMemory(D, SEED)
        text = corpus["lang00"][0]
        half = len(text) // 2
        a = encode_text(text[:half], item, 3)
        b = encode_text(text[half:], item, 3)
        assert hamming(a, b) / D < 0.4

    def test_too_short_text_rejected(self):
        with pytest.raises(UsageError):
            encode_text("ab", ItemMemory(D, SEED), 3)

    def test_majority_tie_uses_seeded_bit(self):
        item = ItemMemory(16, 3)
        v = np.zeros(16, dtype=np.uint8)
        w = np.ones(16, dtype=np.uint8)
        out = majority_bundle(np.stack([v, w]), item.tie_break)
        assert np.array_equal(out, item.tie_break)


class TestTraining:
    def test_single_text_class_equals_encoding(self):
        corpus = {"only": ["abcdefghij" * 20]}
        m = train(corpus, d=D, n_gram=3, seed=SEED)
        item = m.item_memory()
        assert np.array_equal(
            m.class_vectors["only"], encode_text(corpus["only"][0], item, 3)
        )

    def test_text_order_irrelevant(self, corpus):
        texts = corpus["lang00"][:6]
        m1 = train({"x": texts}, d=D, n_gram=3, seed=SEED)
        m2 = train({"x": texts[::-1]}, d=D, n_gram=3, seed=SEED)
        assert np.array_equal(m1.class_vectors["x"], m2.class_vectors["x"])

    def test_empty_class_rejected(self):
        with pytest.raises(UsageError):
            train({"x": []}, d=D, n_gram=3, seed=SEED)

    def test_seed_determinism(self, corpus):
        sub = {label: texts[:4] for label, texts in corpus.items()}
        m1 = train(sub, d=D, n_gram=3, seed=SEED)
        m2 = train(sub, d=D, n_gram=3, seed=SEED)
        for label in m1.labels:
            assert np.array_equal(m1.class_vectors[label], m2.class_vectors[label])


class TestInference:
    def test_query_equal_to_class_vector(self, model):
        label = model.labels[1]
        best, dists = infer_exact(model, model.class_vectors[label])
        assert best == label
        assert dists[label] == 0

    def test_hamming_identities(self, model):
        v = model.class_vectors[model.labels[0]]
        assert hamming(v, v) == 0
        assert hamming(v, 1 - v) == D
        w = model.class_vectors[model.labels[1]]
        assert hamming(v, w) == hamming(w, v)

    def test_dimension_mismatch(self, model):
        with pytest.raises(UsageError):
            infer_exact(model, np.zeros(D + 1, dtype=np.uint8))
        with pytest.raises(UsageError):
            infer_tcam(model, np.zeros(D - 8, dtype=np.uint8), BlockPlan())

    def test_tie_resolves_to_lowest_label_index(self):
        vecs = {
            "aa": np.zeros(16, dtype=np.uint8),
            "bb": np.zeros(16, dtype=np.uint8),
        }
        m = HdcModel(labels=("aa", "bb"), class_vectors=vecs, d=16, n_gram=3, seed=0)
        q = np.zeros(16, dtype=np.uint8)
        q[0] = 1
        assert infer_exact(m, q)[0] == "aa"
        assert infer_tcam(m, q, BlockPlan(block_size=8))[0] == "aa"


class TestTcamEngine:
    def test_closed_form_inversion_round_trip_exact(self):
        for block in (1, 3, 10, 33, 64):
            for m in range(block + 1):
                v = ml_voltage_closed_form(block, m, 5e-6)
                assert invert_ml_voltage_closed_form(v, block, 5e-6) == m

    def test_per_class_distances_equal_oracle(self, model):
        rng = np.random.default_rng(123)
        plan = BlockPlan(block_size=64)
        for _ in range(200):
            q = rng.integers(0, 2, size=D, dtype=np.uint8)
            _, d_exact = infer_exact(model, q)
            _, d_tcam, _ = infer_tcam(model, q, plan)
            assert d_tcam == d_exact

    def test_padding_matches_both_sides(self, model):
        rng = np.random.default_rng(5)
        q = rng.integers(0, 2, size=D, dtype=np.uint8)
        _, d_exact = infer_exact(model, q)
        # 96 does not divide 1024, so the last block is padded
        _, d_tcam, _ = infer_tcam(model, q, BlockPlan(block_size=96))
        assert d_tcam == d_exact

    def test_block_evaluation_matches_real_array(self, model):
        # drive an actual TCAM row with one block of a class vector and
        # compare its ML voltage with the closed form used by infer_tcam
        block = 16
        row_bits = model.class_vectors[model.labels[0]][:block]
        query_bits = model.class_vectors[model.labels[1]][:block]
        array = TcamArray(1, block)
        store_word(array, 0, "".join(str(b) for b in row_bits))
        res = search_hd(array, SearchKey("".join(str(b) for b in query_bits)))[0]
        n_match = block - hamming(row_bits, query_bits)
        assert res.n_match == n_match
        expected = ml_voltage_closed_form(block, n_match, array.bias.i_rwl_hd)
        assert res.v_ml == pytest.approx(expected, rel=1e-12)
        decoded = invert_ml_voltage_closed_form(res.v_ml, block, array.bias.i_rwl_hd)
        assert decoded == n_match

    def test_overridden_row_record_agrees_with_array_search(self):
        # one block, so infer_tcam and energy_sweep each reduce to a single
        # closed-form row that must equal the network solve of a real row
        cfg = build_config({"r_low_state_ohm": "2400", "ht_r_off_kohm": "40"})
        block = 16
        stored = np.random.default_rng(3).integers(0, 2, block, dtype=np.uint8)
        query = stored.copy()
        query[::2] ^= 1  # 8 of 16 bits match
        array = cfg.make_array(1, block)
        store_word(array, 0, "".join(map(str, stored)))
        res = search_hd(array, SearchKey("".join(map(str, query))))[0]
        assert res.n_match == block // 2

        m = HdcModel(
            labels=("row",), class_vectors={"row": stored}, d=block, n_gram=3, seed=0
        )
        plan = BlockPlan(block_size=block, bias=cfg.bias())
        _, distances, energies = infer_tcam(m, query, plan)
        assert distances["row"] == block // 2
        assert abs(energies["row"] - res.energy) / res.energy < 1e-12
        swept = energy_sweep(block, [block], 0.5, cfg.bias())[0]["energy_J_fesquid"]
        assert abs(swept - res.energy) / res.energy < 1e-12

    def test_headline_energy_at_ten_thousand_bits(self):
        q = np.zeros(10000, dtype=np.uint8)
        row = np.zeros(10000, dtype=np.uint8)
        row[::2] = 1  # 50% matching bits, uniform across blocks
        m = HdcModel(
            labels=("ref",), class_vectors={"ref": row}, d=10000, n_gram=3, seed=0
        )
        _, distances, energies = infer_tcam(m, q, BlockPlan(block_size=100))
        assert distances["ref"] == 5000
        assert abs(energies["ref"] - 89.4e-15) / 89.4e-15 < 0.03


class TestAccuracy:
    def test_heldout_accuracy_strong(self, corpus, model):
        test_set = {label: texts[16:] for label, texts in corpus.items()}
        acc = accuracy_eval(model, test_set, engine="exact")
        assert acc >= 0.9

    def test_tcam_engine_matches_exact_engine_accuracy(self, corpus, model):
        test_set = {label: texts[16:20] for label, texts in corpus.items()}
        acc_exact = accuracy_eval(model, test_set, engine="exact")
        acc_tcam = accuracy_eval(
            model, test_set, engine="tcam", plan=BlockPlan(block_size=64)
        )
        assert acc_tcam == acc_exact

    def test_training_set_accuracy_at_least_heldout(self, corpus, model):
        train_set = {label: texts[:16] for label, texts in corpus.items()}
        test_set = {label: texts[16:] for label, texts in corpus.items()}
        assert accuracy_eval(model, train_set) >= accuracy_eval(model, test_set)

    def test_single_class_corpus_perfect(self):
        corpus = {"solo": ["xyzzy plugh " * 40] * 3}
        m = train(corpus, d=256, n_gram=3, seed=1)
        assert accuracy_eval(m, corpus) == 1.0

    def test_bad_engine_rejected(self, model):
        with pytest.raises(UsageError):
            accuracy_eval(model, {"x": ["abc"]}, engine="analog")


class TestEnergySweep:
    def test_block_size_invariance(self):
        rows = energy_sweep(10000, [10, 50, 100, 500], 0.5)
        energies = [r["energy_J_fesquid"] for r in rows]
        spread = (max(energies) - min(energies)) / energies[0]
        assert spread < 1e-9

    def test_matches_headline_value(self):
        rows = energy_sweep(10000, [10], 0.5)
        assert abs(rows[0]["energy_J_fesquid"] - 89.4e-15) / 89.4e-15 < 0.03

    def test_sram_reference_only_at_block_ten(self):
        rows = energy_sweep(10000, [10, 50], 0.5)
        assert rows[0]["energy_J_sram_ref"] == pytest.approx(1.29e-12)
        assert rows[1]["energy_J_sram_ref"] is None

    def test_halving_dimension_halves_energy(self):
        e10k = energy_sweep(10000, [50], 0.5)[0]["energy_J_fesquid"]
        e5k = energy_sweep(5000, [50], 0.5)[0]["energy_J_fesquid"]
        assert e5k == pytest.approx(e10k / 2.0, rel=1e-12)

    def test_invalid_blocks_rejected(self):
        with pytest.raises(DomainError):
            energy_sweep(10000, [3], 0.5)
        with pytest.raises(DomainError):
            energy_sweep(10000, [10], 0.03)

    @pytest.mark.parametrize("d_bits", [0, -10000])
    def test_dimension_below_one_rejected(self, d_bits):
        # D = -10000 divides by every block size and read as negative energies
        with pytest.raises(DomainError, match="D must be >= 1"):
            energy_sweep(d_bits, [10], 0.5)


class TestPersistence:
    def test_round_trip(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.labels == model.labels
        assert loaded.d == model.d
        assert loaded.n_gram == model.n_gram
        assert loaded.seed == model.seed
        for label in model.labels:
            assert np.array_equal(
                loaded.class_vectors[label], model.class_vectors[label]
            )

    def test_loaded_model_reproduces_inference(self, model, corpus, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        item = loaded.item_memory()
        text = corpus["lang02"][20]
        q = encode_text(text, item, loaded.n_gram)
        assert infer_exact(loaded, q) == infer_exact(model, q)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(UsageError):
            load_model(path)


class TestSyntheticCorpus:
    def test_deterministic(self):
        c1 = synthetic_corpus(2, 3, 200, seed=9)
        c2 = synthetic_corpus(2, 3, 200, seed=9)
        assert c1 == c2

    def test_shape(self, corpus):
        assert len(corpus) == 3
        assert all(len(texts) == 24 for texts in corpus.values())
        assert all(len(t) == 1500 for texts in corpus.values() for t in texts)

    @pytest.mark.parametrize(
        "sizes", [(21, 2, 1000, 5), (3, 20, 2000, 0), (2, 3, 1, 9)]
    )
    def test_equals_per_character_searchsorted_walk(self, sizes):
        assert synthetic_corpus(*sizes) == _synthetic_corpus_ref(*sizes)

    def test_distinct_seeds_distinct_texts(self):
        a = synthetic_corpus(1, 1, 300, seed=1)
        b = synthetic_corpus(1, 1, 300, seed=2)
        assert a["lang00"][0] != b["lang00"][0]


def _synthetic_corpus_ref(n_classes, texts_per_class, text_len, seed):
    """Per-character reference: one np.searchsorted and two numpy
    indexings per Markov step, drawing the same numbers in the same order."""
    rng = np.random.default_rng(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    n = len(letters)
    corpus = {}
    for ci in range(n_classes):
        successors = np.stack(
            [rng.choice(n, size=4, replace=False) for _ in range(n)]
        )
        weights = rng.random((n, 4))
        weights /= weights.sum(axis=1, keepdims=True)
        cumulative = np.cumsum(weights, axis=1)
        texts = []
        for _ in range(texts_per_class):
            state = int(rng.integers(n))
            chars = []
            for u in rng.random(text_len):
                chars.append(letters[state])
                state = int(successors[state][np.searchsorted(cumulative[state], u)])
            texts.append("".join(chars))
        corpus[f"lang{ci:02d}"] = texts
    return corpus


def _encode_text_ref(text, item, n_gram):
    """Scalar reference: one rolled and XORed row per n-gram position of
    the lowercased text, majority-bundled."""
    letters = np.stack([item.vector(ch) for ch in text.lower()])
    n_grams = len(letters) - n_gram + 1
    bound = np.roll(letters[0:n_grams], 0, axis=1)
    for k in range(1, n_gram):
        bound = bound ^ np.roll(letters[k : k + n_grams], k, axis=1)
    return majority_bundle(bound, item.tie_break)


def _infer_tcam_ref(model, query, plan):
    """Scalar reference: the closed form, its inverse and the energy once
    per (class, block), with each class's energy summed block by block."""
    block, bias = plan.block_size, plan.bias
    pad = np.zeros(-model.d % block, dtype=np.uint8)
    q = np.concatenate([query, pad])
    distances = {}
    energies = {}
    for label in model.labels:
        row = np.concatenate([model.class_vectors[label], pad])
        hd = 0
        energy = 0.0
        for lo in range(0, q.size, block):
            n_match = block - hamming(row[lo : lo + block], q[lo : lo + block])
            v_ml = ml_voltage_closed_form(block, n_match, bias.i_rwl_hd, bias)
            decoded = invert_ml_voltage_closed_form(v_ml, block, bias.i_rwl_hd, bias)
            hd += block - decoded
            energy += search_energy(v_ml, block, bias.i_rwl_hd, bias.t_search)
        distances[label] = hd
        energies[label] = energy
    best = min(model.labels, key=lambda lb: (distances[lb], model.labels.index(lb)))
    return best, distances, energies


def _seeded_text(rng, length):
    """Mixed-case text with symbols outside the alphabet."""
    symbols = list("abcdefghijklmnopqrstuvwxyz   ABCXYZ.,;!?0123456789\n\téÉßø")
    return "".join(rng.choice(symbols, size=length))


class TestAgainstScalarReference:
    @pytest.mark.parametrize("n_gram", [1, 2, 3, 5, 20])
    def test_encoding_equals_rolled_rows(self, n_gram, corpus):
        item = ItemMemory(D, SEED)
        rng = np.random.default_rng([11, n_gram])
        texts = [_seeded_text(rng, n) for n in (n_gram, n_gram + 1, 64, 700)]
        texts.append(corpus["lang02"][3])
        for text in texts:
            assert np.array_equal(
                encode_text(text, item, n_gram), _encode_text_ref(text, item, n_gram)
            )

    @pytest.mark.parametrize("block", [1, 7, 10, 100, 333, D])
    def test_inference_equals_block_loop(self, block, model, corpus):
        item = model.item_memory()
        rng = np.random.default_rng([12, block])
        queries = [encode_text(texts[20], item, 3) for texts in corpus.values()]
        queries.append(rng.integers(0, 2, size=D, dtype=np.uint8))
        queries.append(model.class_vectors[model.labels[2]])
        plan = BlockPlan(block_size=block)
        for q in queries:
            assert repr(infer_tcam(model, q, plan)) == repr(
                _infer_tcam_ref(model, q, plan)
            )

    def test_closed_form_called_once_per_distinct_count(self, monkeypatch):
        d, block = 10000, 10
        rng = np.random.default_rng(13)
        labels = tuple(f"lang{i:02d}" for i in range(21))
        m = HdcModel(
            labels=labels,
            class_vectors={lb: rng.integers(0, 2, d, dtype=np.uint8) for lb in labels},
            d=d,
            n_gram=3,
            seed=0,
        )
        calls = []

        def counted(*args):
            calls.append(args)
            return ml_voltage_closed_form(*args)

        monkeypatch.setattr(hdc, "ml_voltage_closed_form", counted)
        q = rng.integers(0, 2, d, dtype=np.uint8)
        _, distances, _ = infer_tcam(m, q, BlockPlan(block_size=block))
        assert len(calls) <= block + 1
        assert len(set(calls)) == len(calls)
        assert distances == infer_exact(m, q)[1]

    @pytest.mark.parametrize(
        ("text", "d", "n_gram"),
        [
            ("the quick brown fox jumps", 1001, 3),
            ("the quick brown fox jumps", 8, 3),
            ("Été à İstanbul, straße \ud800 ok", D, 3),
            ("\ud800" * 4 + "ßé", 1001, 2),
            # one count group of ~2,000 rows: the reduce widens past uint8
            ("".join(np.random.default_rng(14).choice(list("abcdefghij"), 2000)), D, 5),
            # one n-gram of weight 2,998: weight times sum exceeds uint8
            ("a" * 3000, D, 3),
        ],
        ids=["d1001", "d8", "non-ascii", "lone-surrogate", "wide-group", "heavy-weight"],
    )
    def test_encoding_edge_cases_equal_rolled_rows(self, text, d, n_gram):
        item = ItemMemory(d, SEED)
        assert np.array_equal(
            encode_text(text, item, n_gram), _encode_text_ref(text, item, n_gram)
        )

    def test_all_distinct_encoding_memory(self):
        # nearly every trigram distinct: the peak is the packed rows plus
        # one unpacked uint8 copy, ~1.125 bytes per (n-gram, bit)
        rng = np.random.default_rng(15)
        text = "".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), 2000))
        item = ItemMemory(10000, SEED)
        tracemalloc.start()
        try:
            encode_text(text, item, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_encoding_memory_is_bounded(self):
        text = synthetic_corpus(1, 1, 2000, seed=5)["lang00"][0]
        item = ItemMemory(10000, SEED)
        tracemalloc.start()
        try:
            encode_text(text, item, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_ngrams_counted_on_lowercased_text(self):
        # "İ" lowercases to two code points, so "abİc" has 3 trigrams
        item = ItemMemory(D, SEED)
        assert len("abİc".lower()) == 5
        expected = _encode_text_ref("abİc", item, 3)
        assert np.array_equal(encode_text("abİc", item, 3), expected)
        assert np.array_equal(
            encode_text("abİc", item, 3), encode_text("abi\u0307c", item, 3)
        )
        assert encode_text("İ", item, 2).shape == (D,)


class TestModelValidation:
    @pytest.fixture
    def saved(self, model, tmp_path):
        path = tmp_path / "model.json"
        save_model(model, path)
        return path

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(labels=[], class_vectors={}), "no labels"),
            (lambda p: p["labels"].append(p["labels"][0]), "duplicate labels"),
            (lambda p: p.update(d=p["d"] + 8), "stores 1024 bits, expected 1032"),
            (lambda p: p.update(d=p["d"] - 8), "stores 1024 bits, expected 1016"),
            (lambda p: p.update(d=4), "d must be >= 8"),
            (lambda p: p.update(n_gram=0), "n_gram must be >= 1"),
            (lambda p: p.update(d=float("inf")), "d must be an integer, got inf"),
            (lambda p: p.update(d=float("nan")), "d must be an integer, got nan"),
            (lambda p: p.update(seed=-float("inf")), "seed must be an integer, got -inf"),
            (lambda p: p.update(seed=-5), "seed must be >= 0, got -5"),
            (lambda p: p.update(d=p["d"] + 0.9), "d must be an integer, got 1024.9"),
            (lambda p: p.update(n_gram=3.9), "n_gram must be an integer, got 3.9"),
            (lambda p: p.update(seed=1.5), "seed must be an integer, got 1.5"),
            (lambda p: p.update(n_gram=True), "n_gram must be an integer, got True"),
            (lambda p: p.update(version=True), "unsupported model version True"),
            (lambda p: p.update(version=1.0), r"unsupported model version 1\.0"),
        ],
        ids=["empty", "duplicate", "short", "long", "small_d", "zero_n_gram",
             "infinite_d", "nan_d", "infinite_seed", "negative_seed",
             "fractional_d", "fractional_n_gram", "fractional_seed", "bool_n_gram",
             "bool_version", "float_version"],
    )
    def test_unservable_model_rejected(self, saved, edit, message):
        payload = json.loads(saved.read_text())
        edit(payload)
        saved.write_text(json.dumps(payload))
        with pytest.raises(UsageError, match=message):
            load_model(saved)

    @pytest.mark.parametrize("block", [8, 64, 96])
    def test_class_vector_of_wrong_shape_rejected(self, model, block):
        vectors = dict(model.class_vectors)
        vectors[model.labels[1]] = vectors[model.labels[1]][:-8]
        m = HdcModel(
            labels=model.labels, class_vectors=vectors, d=D, n_gram=3, seed=SEED
        )
        q = model.class_vectors[model.labels[0]]
        with pytest.raises(UsageError):
            infer_exact(m, q)
        with pytest.raises(UsageError):
            infer_tcam(m, q, BlockPlan(block_size=block))


class TestNarrowBlockCounts:
    """Block counts are summed in the narrowest unsigned dtype holding the
    block size, so a block whose bits all match (or all differ) sits at
    the edge of that dtype."""

    @pytest.mark.parametrize("block", [255, 256, 257, 512])
    def test_extreme_counts_equal_block_loop(self, block):
        d = 1300  # no block size here divides it, so the last block pads
        assert d % block
        rng = np.random.default_rng([16, block])
        labels = ("a", "b", "c")
        m = HdcModel(
            labels=labels,
            class_vectors={lb: rng.integers(0, 2, d, dtype=np.uint8) for lb in labels},
            d=d,
            n_gram=3,
            seed=0,
        )
        plan = BlockPlan(block_size=block)
        for label in labels:
            for q in (m.class_vectors[label], 1 - m.class_vectors[label]):
                got = infer_tcam(m, q, plan)
                assert repr(got) == repr(_infer_tcam_ref(m, q, plan))
                assert got[1] == infer_exact(m, q)[1]


class TestEncodeOnce:
    """``hdc train`` and ``hdc sweep --accuracy`` encode each text once,
    with one item memory per dimension."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(hdc, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hdc, name, counted)
        return calls

    def test_train_encodes_each_text_once(self, tmp_path, monkeypatch, capsys):
        corpus = synthetic_corpus(6, 9, 12, seed=1234)
        expected = train(corpus, d=16, n_gram=3, seed=1234)
        accuracy = accuracy_eval(expected, corpus)
        assert accuracy < 1.0  # the training texts are not all recognised
        save_model(expected, tmp_path / "expected.json")

        encodes = self._count(monkeypatch, "encode_text")
        items = self._count(monkeypatch, "ItemMemory")
        model = tmp_path / "model.json"
        code = cli.main(
            ["--set", "hdc_d_bits=16", "--out", str(tmp_path / "out"), "hdc",
             "train", "--classes", "6", "--texts-per-class", "9", "--text-len",
             "12", "--model-out", str(model)]
        )
        assert code == 0
        assert len(encodes) == 6 * 9
        assert len(items) == 1
        assert model.read_bytes() == (tmp_path / "expected.json").read_bytes()
        assert f"training accuracy {accuracy:.3f}\n" in capsys.readouterr().out

    def test_sweep_uses_one_item_memory_per_dimension(self, tmp_path, monkeypatch):
        encodes = self._count(monkeypatch, "encode_text")
        items = self._count(monkeypatch, "ItemMemory")
        code = cli.main(
            ["--out", str(tmp_path), "hdc", "sweep", "--accuracy", "--d", "64",
             "128", "--block", "16", "--classes", "2", "--texts-per-class", "4",
             "--text-len", "60"]
        )
        assert code == 0
        assert len(items) == 2
        assert len(encodes) == 2 * 2 * 4  # every text once per dimension
        corpus = synthetic_corpus(2, 4, 60, seed=1234)
        train_set = {lb: texts[:3] for lb, texts in corpus.items()}
        test_set = {lb: texts[3:] for lb, texts in corpus.items()}
        rows = (tmp_path / "hdc_sweep.csv").read_text().splitlines()[1:]
        for d, row in zip((64, 128), rows):
            model = train(train_set, d=d, n_gram=3, seed=1234)
            accuracy = accuracy_eval(model, test_set)
            assert row.split(",")[-1] == format(accuracy, ".9g")


def _blocks_with_ones(rng, d, block, lo, hi):
    """A query of ``d`` bits whose every block of ``block`` bits holds
    between ``lo`` and ``hi`` ones (the last block is cut at ``d``)."""
    n_blocks = -(-d // block)
    ones = rng.integers(lo, hi + 1, size=n_blocks)
    rows = np.array([rng.permutation(block) < k for k in ones], dtype=np.uint8)
    return rows.ravel()[:d]


class TestQueryState:
    """The class matrix is built once per model and the count tables once
    per plan; neither changes a result."""

    # fractions of ones per query block, so that successive queries meet
    # count ranges that grow, shift and leave gaps
    WINDOWS = [(0.5, 0.5), (0.3, 0.4), (0.8, 0.9), (0.0, 0.1), (1.0, 1.0), (0.2, 0.7)]

    @pytest.mark.parametrize("block", [7, 50, 128])
    def test_reused_plan_equals_block_loop(self, block, monkeypatch):
        d = 1000  # 7 and 128 do not divide it, so the last block pads
        rng = np.random.default_rng([17, block])
        labels = ("zero", "one")
        m = HdcModel(
            labels=labels,
            class_vectors={
                "zero": np.zeros(d, dtype=np.uint8),
                "one": np.ones(d, dtype=np.uint8),
            },
            d=d,
            n_gram=3,
            seed=0,
        )
        calls = []

        def counted(*args):
            calls.append(args[1])
            return ml_voltage_closed_form(*args)

        monkeypatch.setattr(hdc, "ml_voltage_closed_form", counted)
        plan = BlockPlan(block_size=block)
        for lo, hi in self.WINDOWS:
            q = _blocks_with_ones(rng, d, block, round(lo * block), round(hi * block))
            assert repr(infer_tcam(m, q, plan)) == repr(_infer_tcam_ref(m, q, plan))
        assert len(set(calls)) == len(calls)  # each count at most once
        assert len(calls) <= block + 1

    @pytest.mark.parametrize("d", [8, 9, 1001, 1300])
    def test_exact_equals_per_row_hamming(self, d):
        rng = np.random.default_rng([18, d])
        labels = tuple(f"c{i}" for i in range(5))
        vectors = {lb: rng.integers(0, 2, d, dtype=np.uint8) for lb in labels}
        vectors["c3"] = vectors["c1"].copy()  # a tie: the lower index wins
        m = HdcModel(labels=labels, class_vectors=vectors, d=d, n_gram=3, seed=0)
        queries = [rng.integers(0, 2, d, dtype=np.uint8) for _ in range(4)]
        queries += [vectors["c1"], 1 - vectors["c4"], np.zeros(d, dtype=np.uint8)]
        for q in queries:
            distances = {lb: hamming(vectors[lb], q) for lb in labels}
            best = min(labels, key=lambda lb: (distances[lb], labels.index(lb)))
            assert repr(infer_exact(m, q)) == repr((best, distances))

    def test_wrong_shape_rejected_on_every_call(self, model):
        vectors = dict(model.class_vectors)
        vectors[model.labels[2]] = vectors[model.labels[2]][:-1]
        m = HdcModel(
            labels=model.labels, class_vectors=vectors, d=D, n_gram=3, seed=SEED
        )
        q = model.class_vectors[model.labels[0]]
        plan = BlockPlan(block_size=64)
        for _ in range(2):
            with pytest.raises(UsageError, match="has shape"):
                infer_exact(m, q)
            with pytest.raises(UsageError, match="has shape"):
                infer_tcam(m, q, plan)

    def test_class_matrix_is_built_once(self, model):
        m = HdcModel(
            labels=model.labels, class_vectors=dict(model.class_vectors),
            d=D, n_gram=3, seed=SEED,
        )
        q = model.class_vectors[model.labels[0]]
        infer_tcam(m, q, BlockPlan(block_size=64))
        infer_exact(m, q)
        rows, packed = m.class_matrix, m.packed_classes
        infer_tcam(m, q, BlockPlan(block_size=10))
        infer_exact(m, q)
        assert m.class_matrix is rows and m.packed_classes is packed
        assert not rows.flags.writeable and not packed.flags.writeable

    def test_packed_blocks_are_built_once_per_block_size(self, model):
        m = HdcModel(
            labels=model.labels, class_vectors=dict(model.class_vectors),
            d=D, n_gram=3, seed=SEED,
        )
        q = model.class_vectors[model.labels[0]]
        tables = {}
        for block in (10, 100, 10, 100):
            infer_tcam(m, q, BlockPlan(block_size=block))
            table = tables.setdefault(block, m.packed_blocks(block))
            assert m.packed_blocks(block) is table
            assert not table.flags.writeable

    @pytest.mark.parametrize(
        ("block", "word", "words"),
        [(1, np.uint8, 1), (8, np.uint8, 1), (9, np.uint16, 1), (16, np.uint16, 1),
         (17, np.uint64, 1), (32, np.uint64, 1), (33, np.uint64, 1),
         (64, np.uint64, 1), (65, np.uint64, 2), (128, np.uint64, 2),
         (D, np.uint64, 16)],
    )
    def test_each_block_takes_the_narrowest_words(self, model, block, word, words):
        table = model.packed_blocks(block)
        assert table.dtype == word
        assert table.shape == (len(model.labels), -(-D // block), words)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
    @pytest.mark.parametrize("block", [10, 100])
    def test_query_bits_may_come_in_any_dtype(self, model, dtype, block):
        q = np.random.default_rng(3).integers(0, 2, D, dtype=np.uint8)
        plan = BlockPlan(block_size=block)
        want = repr(_infer_tcam_ref(model, q, plan))
        assert repr(infer_tcam(model, q.astype(dtype), plan)) == want

    def test_class_vectors_cannot_change_under_the_matrix(self, model):
        vectors = {lb: model.class_vectors[lb].copy() for lb in model.labels}
        m = HdcModel(
            labels=model.labels, class_vectors=vectors, d=D, n_gram=3, seed=SEED
        )
        q = model.class_vectors[model.labels[0]]
        before = repr(infer_exact(m, q))
        vectors[model.labels[0]] ^= 1  # the caller's arrays stay theirs
        vectors[model.labels[1]] = q
        with pytest.raises(TypeError):
            m.class_vectors[model.labels[1]] = q
        with pytest.raises(ValueError, match="read-only"):
            m.class_vectors[model.labels[0]][0] ^= 1
        assert repr(infer_exact(m, q)) == before


#: Any JSON value, non-finite floats included (``json`` writes them as
#: Infinity, -Infinity and NaN, and reads them back).
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([float("inf"), -float("inf"), float("nan")])
    | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
#: Text with lone surrogates and non-ASCII code points among the letters.
_TEXT_CHARS = st.one_of(
    st.sampled_from(hdc.ALPHABET + "ABCXYZ"),
    st.characters(exclude_categories=()),
    st.characters(categories=["Cs"]),
)


@st.composite
def _text_and_n_gram(draw):
    n_gram = draw(st.integers(1, 6))
    return draw(st.text(_TEXT_CHARS, min_size=n_gram, max_size=40)), n_gram


#: Block sizes at the edges of the packed words: 8, 16, 32 and 64 bits,
#: and two uint64 words.
_WORD_EDGES = (7, 8, 9, 16, 63, 64, 65, 128)


@st.composite
def _model_query_block(draw):
    """A model of 1-4 random classes at D in [8, 300], a query that is
    random, equal to a class or its complement, and a block size from
    1..D, half of the time a word edge or D itself."""
    d = draw(st.integers(8, 300) | st.integers(129, 300))  # half reach 128
    edges = [b for b in _WORD_EDGES if b <= d] + [d]
    block = draw(st.one_of(st.sampled_from(edges), st.integers(1, d)))
    labels = tuple(f"c{i}" for i in range(draw(st.integers(1, 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, 2, (len(labels), d), dtype=np.uint8)
    query = draw(
        st.sampled_from(
            [rng.integers(0, 2, d, dtype=np.uint8), rows[0].copy(), 1 - rows[-1]]
        )
    )
    m = HdcModel(
        labels=labels, class_vectors=dict(zip(labels, rows)), d=d, n_gram=3, seed=0
    )
    return m, query, block


class TestHdcProperties:
    @pytest.fixture(scope="class")
    def payload(self):
        corpus = synthetic_corpus(3, 2, 60, seed=19)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(train(corpus, d=16, n_gram=3, seed=SEED), path)
            return json.loads(path.read_text())

    @pytest.mark.parametrize(
        "name", ["format", "version", "d", "n_gram", "seed", "labels", "class_vectors"]
    )
    @given(value=_JSON)
    def test_mutated_model_raises_only_usage_error(self, payload, name, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(json.dumps({**payload, name: value}))
            try:
                m = load_model(path)
            except UsageError:
                return
        # a model that loads can be served
        q = m.class_vectors[m.labels[0]]
        assert infer_exact(m, q)[0] == infer_tcam(m, q, BlockPlan(block_size=8))[0]
        assert m.item_memory().d == m.d

    @given(text_n_gram=_text_and_n_gram(), d=st.sampled_from([8, 9, 1001]))
    def test_encoding_equals_rolled_rows(self, text_n_gram, d):
        text, n_gram = text_n_gram
        item = ItemMemory(d, SEED)
        assert np.array_equal(
            encode_text(text, item, n_gram), _encode_text_ref(text, item, n_gram)
        )

    @settings(max_examples=200)
    @given(case=_model_query_block())
    def test_packed_kernels_equal_references(self, case):
        m, q, block = case
        plan = BlockPlan(block_size=block)
        assert repr(infer_tcam(m, q, plan)) == repr(_infer_tcam_ref(m, q, plan))
        distances = {lb: hamming(m.class_vectors[lb], q) for lb in m.labels}
        best = min(m.labels, key=lambda lb: (distances[lb], m.labels.index(lb)))
        assert repr(infer_exact(m, q)) == repr((best, distances))
