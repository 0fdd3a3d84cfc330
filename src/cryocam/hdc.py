"""Hyperdimensional-computing language recognition on the HD-mode TCAM.

Binary hypervectors of dimension D; n-grams are bound by XOR of
rotationally permuted letter vectors (the symbol at offset k is rotated
k positions) and bundled by bitwise majority.  Inference compares a
query against every class vector; the Hamming-distance engine is either
a plain popcount oracle or the HD-mode match-line model evaluated block
by block with the ML voltage decoded back to a matched-bit count.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError
from .tcam import (
    BiasConfig,
    invert_ml_voltage_closed_form,
    ml_voltage_closed_form,
    search_energy,
)

ALPHABET = "abcdefghijklmnopqrstuvwxyz "
OTHER_SYMBOL = "\x00"  # bucket for anything outside the alphabet

#: Fixed SRAM-TCAM reference energy per 10,000-bit comparison at block
#: size 10, used only as a report column.
SRAM_REF_BLOCK10_10KBIT = 1.29e-12  # J
SRAM_REF_BLOCK_SIZE = 10


class ItemMemory:
    """Seeded table of random hypervectors, one per alphabet symbol.

    Also carries the deterministic tie-break vector used by majority
    bundling.  Immutable after construction; rebuildable from (d, seed).
    """

    def __init__(self, d: int, seed: int):
        if d < 8:
            raise DomainError(f"dimension must be >= 8, got {d}")
        self.d = int(d)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.vectors = {
            sym: rng.integers(0, 2, size=self.d, dtype=np.uint8)
            for sym in ALPHABET + OTHER_SYMBOL
        }
        self.tie_break = rng.integers(0, 2, size=self.d, dtype=np.uint8)

    def vector(self, symbol: str) -> np.ndarray:
        return self.vectors.get(symbol, self.vectors[OTHER_SYMBOL])


def majority_bundle(vectors: np.ndarray, tie_break: np.ndarray) -> np.ndarray:
    """Bitwise majority over rows; exact ties take the tie-break bit."""
    vectors = np.atleast_2d(vectors)
    n = vectors.shape[0]
    counts = vectors.sum(axis=0, dtype=np.int64)
    out = (2 * counts > n).astype(np.uint8)
    tie = 2 * counts == n
    out[tie] = tie_break[tie]
    return out


def encode_text(text: str, item: ItemMemory, n_gram: int) -> np.ndarray:
    """Encode a symbol sequence into one hypervector.

    Each n-gram XORs its rotated letter vectors; all n-gram vectors are
    majority-bundled.  Symbols outside the alphabet map to a designated
    bucket symbol.
    """
    if n_gram < 1:
        raise DomainError(f"n_gram must be >= 1, got {n_gram}")
    if len(text) < n_gram:
        raise UsageError(
            f"text length {len(text)} is shorter than n_gram {n_gram}"
        )
    letters = np.stack([item.vector(ch) for ch in text.lower()])
    n_grams = len(text) - n_gram + 1
    bound = np.roll(letters[0:n_grams], 0, axis=1)
    for k in range(1, n_gram):
        bound = bound ^ np.roll(letters[k : k + n_grams], k, axis=1)
    return majority_bundle(bound, item.tie_break)


@dataclass(frozen=True)
class HdcModel:
    """Trained class vectors plus everything needed to replay them."""

    labels: tuple[str, ...]
    class_vectors: dict
    d: int
    n_gram: int
    seed: int

    def item_memory(self) -> ItemMemory:
        return ItemMemory(self.d, self.seed)


def train(corpus: dict, d: int, n_gram: int, seed: int) -> HdcModel:
    """Build one class vector per label by majority-bundling the
    encodings of that label's texts.  Labels are ordered alphabetically;
    ties in downstream argmin resolve to the lowest label index."""
    if not corpus:
        raise UsageError("corpus has no classes")
    item = ItemMemory(d, seed)
    labels = tuple(sorted(corpus))
    class_vectors = {}
    for label in labels:
        texts = corpus[label]
        if not texts:
            raise UsageError(f"class {label!r} has no training texts")
        encodings = np.stack([encode_text(t, item, n_gram) for t in texts])
        class_vectors[label] = majority_bundle(encodings, item.tie_break)
    return HdcModel(
        labels=labels, class_vectors=class_vectors, d=d, n_gram=n_gram, seed=seed
    )


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise UsageError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def infer_exact(model: HdcModel, query: np.ndarray) -> tuple[str, dict]:
    """Software popcount oracle: per-class Hamming distance, argmin label."""
    if query.shape != (model.d,):
        raise UsageError(f"query has shape {query.shape}, expected ({model.d},)")
    distances = {
        label: hamming(model.class_vectors[label], query) for label in model.labels
    }
    best = min(model.labels, key=lambda lb: (distances[lb], model.labels.index(lb)))
    return best, distances


@dataclass(frozen=True)
class BlockPlan:
    """How a long vector is cut into TCAM row segments, and the row record
    each segment is searched with.

    Vectors whose dimension is not a multiple of ``block_size`` are
    zero-padded on both sides of the comparison, so the padding always
    matches and never contributes Hamming distance.
    """

    block_size: int = 100
    bias: BiasConfig = BiasConfig()

    def __post_init__(self):
        if self.block_size < 1:
            raise DomainError(f"block_size must be >= 1, got {self.block_size}")


def _pad_to_blocks(v: np.ndarray, block_size: int) -> np.ndarray:
    rem = v.size % block_size
    if rem == 0:
        return v
    return np.concatenate([v, np.zeros(block_size - rem, dtype=v.dtype)])


def infer_tcam(
    model: HdcModel, query: np.ndarray, plan: BlockPlan
) -> tuple[str, dict, dict]:
    """TCAM-backed inference.

    Every block of every class row is evaluated through the HD-mode ML
    voltage, the voltage is decoded back to a matched-bit count, and the
    decoded counts accumulate into per-class Hamming distances.  Returns
    (label, per-class HD, per-class energy in J).
    """
    if query.shape != (model.d,):
        raise UsageError(f"query has shape {query.shape}, expected ({model.d},)")
    block, bias = plan.block_size, plan.bias
    i_rwl, t_search = bias.i_rwl_hd, bias.t_search
    q = _pad_to_blocks(query, block)
    n_blocks = q.size // block
    distances = {}
    energies = {}
    for label in model.labels:
        row = _pad_to_blocks(model.class_vectors[label], block)
        hd = 0
        energy = 0.0
        for b in range(n_blocks):
            lo = b * block
            hi = lo + block
            n_match = block - hamming(row[lo:hi], q[lo:hi])
            v_ml = ml_voltage_closed_form(block, n_match, i_rwl, bias)
            decoded = invert_ml_voltage_closed_form(v_ml, block, i_rwl, bias)
            hd += block - decoded
            energy += search_energy(v_ml, block, i_rwl, t_search)
        distances[label] = hd
        energies[label] = energy
    best = min(model.labels, key=lambda lb: (distances[lb], model.labels.index(lb)))
    return best, distances, energies


def accuracy_eval(
    model: HdcModel,
    corpus: dict,
    engine: str = "exact",
    plan: BlockPlan | None = None,
) -> float:
    """Fraction of texts labeled correctly by the chosen engine."""
    if engine not in ("exact", "tcam"):
        raise UsageError(f"engine must be 'exact' or 'tcam', got {engine!r}")
    if engine == "tcam" and plan is None:
        plan = BlockPlan()
    item = model.item_memory()
    total = 0
    correct = 0
    for label, texts in sorted(corpus.items()):
        for text in texts:
            query = encode_text(text, item, model.n_gram)
            if engine == "exact":
                predicted, _ = infer_exact(model, query)
            else:
                predicted, _, _ = infer_tcam(model, query, plan)
            correct += predicted == label
            total += 1
    if total == 0:
        raise UsageError("evaluation corpus is empty")
    return correct / total


def energy_sweep(
    d_bits: int,
    block_sizes,
    match_fraction: float,
    bias: BiasConfig = BiasConfig(),
) -> list[dict]:
    """Per-comparison energy table across block sizes at a fixed match
    fraction, for HD-mode rows described by ``bias``.

    The FeSQUID energy depends only on (match fraction, I_RWL), so the
    column is constant across block sizes; the SRAM reference column
    carries the fixed published constant at block size 10, scaled
    linearly in D, and is absent elsewhere.
    """
    if not 0.0 <= match_fraction <= 1.0:
        raise DomainError(f"match fraction must be in [0, 1], got {match_fraction}")
    rows = []
    for block in block_sizes:
        block = int(block)
        if block < 1 or d_bits % block != 0:
            raise DomainError(f"block size {block} does not divide D={d_bits}")
        m = match_fraction * block
        n_match = round(m)
        if abs(m - n_match) > 1e-9:
            raise DomainError(
                f"match fraction {match_fraction} gives a non-integer "
                f"per-block match count for block size {block}"
            )
        v_ml = ml_voltage_closed_form(block, n_match, bias.i_rwl_hd, bias)
        n_blocks = d_bits // block
        energy = n_blocks * search_energy(v_ml, block, bias.i_rwl_hd, bias.t_search)
        sram = (
            SRAM_REF_BLOCK10_10KBIT * (d_bits / 10000.0)
            if block == SRAM_REF_BLOCK_SIZE
            else None
        )
        rows.append(
            {
                "d_bits": d_bits,
                "block_size": block,
                "energy_J_fesquid": energy,
                "energy_J_sram_ref": sram,
            }
        )
    return rows


def synthetic_corpus(
    n_classes: int = 3,
    texts_per_class: int = 20,
    text_len: int = 2000,
    seed: int = 0,
) -> dict:
    """Seeded multi-language corpus: one random first-order Markov chain
    over the letters per class, so classes have distinct n-gram
    statistics.  Returns {label: [text, ...]}; deterministic in seed."""
    if n_classes < 1 or texts_per_class < 1 or text_len < 1:
        raise DomainError("corpus sizes must all be >= 1")
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
            draws = rng.random(text_len)
            chars = []
            for u in draws:
                chars.append(letters[state])
                state = int(successors[state][np.searchsorted(cumulative[state], u)])
            texts.append("".join(chars))
        corpus[f"lang{ci:02d}"] = texts
    return corpus


MODEL_FORMAT = "cryocam-hdc-model"
MODEL_VERSION = 1


def save_model(model: HdcModel, path):
    """Persist a model as versioned JSON (class bits base64-packed)."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "d": model.d,
        "n_gram": model.n_gram,
        "seed": model.seed,
        "labels": list(model.labels),
        "class_vectors": {
            label: base64.b64encode(
                np.packbits(model.class_vectors[label]).tobytes()
            ).decode("ascii")
            for label in model.labels
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def load_model(path) -> HdcModel:
    """Read a model written by ``save_model``; a file that is not valid
    JSON or lacks a field raises UsageError."""
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: not a {MODEL_FORMAT} file ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise UsageError(f"{path}: not a {MODEL_FORMAT} file")
    if payload.get("version") != MODEL_VERSION:
        raise UsageError(
            f"{path}: unsupported model version {payload.get('version')}"
        )
    try:
        d = int(payload["d"])
        vectors = {}
        for label in payload["labels"]:
            raw = base64.b64decode(payload["class_vectors"][label])
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:d]
            vectors[label] = bits.astype(np.uint8)
        return HdcModel(
            labels=tuple(payload["labels"]),
            class_vectors=vectors,
            d=d,
            n_gram=int(payload["n_gram"]),
            seed=int(payload["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(
            f"{path}: malformed {MODEL_FORMAT} file: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
