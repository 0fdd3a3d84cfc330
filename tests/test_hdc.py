"""HDC encoding, training, TCAM-backed inference, energy rollup."""

import numpy as np
import pytest

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

    def test_distinct_seeds_distinct_texts(self):
        a = synthetic_corpus(1, 1, 300, seed=1)
        b = synthetic_corpus(1, 1, 300, seed=2)
        assert a["lang00"][0] != b["lang00"][0]
