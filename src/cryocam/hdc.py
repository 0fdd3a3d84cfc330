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
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, DomainError, UsageError
from .tcam import (
    BiasConfig,
    TcamArray,
    invert_ml_voltage_closed_form,
    ml_voltage_closed_form,
    overflow_problems,
    search_energy,
)

ALPHABET = "abcdefghijklmnopqrstuvwxyz "
OTHER_SYMBOL = "\x00"  # bucket for anything outside the alphabet
_SYMBOLS = ALPHABET + OTHER_SYMBOL
#: Symbol id of each ASCII code point; the last entry (DEL) is outside
#: the alphabet, so code points clipped to it take the bucket id.
_ASCII_IDS = np.full(128, _SYMBOLS.index(OTHER_SYMBOL), dtype=np.uint8)
_ASCII_IDS[[ord(sym) for sym in _SYMBOLS]] = np.arange(len(_SYMBOLS))
#: An n-gram key word holds 3 symbol ids of 5 bits (28 symbols) in a
#: uint16, which np.lexsort sorts by radix, unlike wider integers.
_SYMBOL_BITS = 5
_KEY_SYMBOLS = 3
#: Rows summed in uint8 at once: 255 ones fit, 256 wrap to 0.
_MAX_RUN = 255
#: Bits of a float64 significand, so every integer below 2**53 is exact.
_SIGNIFICAND_BITS = 53

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
        self._table = _random_bits(rng, len(_SYMBOLS), self.d)
        self.vectors = dict(zip(_SYMBOLS, self._table))
        self.tie_break = rng.integers(0, 2, size=self.d, dtype=np.uint8)
        self._packed_rolls = {}

    def vector(self, symbol: str) -> np.ndarray:
        return self.vectors.get(symbol, self.vectors[OTHER_SYMBOL])

    def packed_roll(self, k: int) -> np.ndarray:
        """The symbol vectors, in symbol-id order, each rolled by ``k``
        bits and bit-packed: a read-only (symbols, ceil(D/8)) uint8 table,
        made on the first request for ``k`` and kept for later ones."""
        table = self._packed_rolls.get(k)
        if table is None:
            table = np.packbits(np.roll(self._table, k, axis=1), axis=1)
            table.flags.writeable = False
            table = self._packed_rolls.setdefault(k, table)
        return table


def _random_bits(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """(n, d) uint8 random bits for an even n: the rows n calls of
    ``rng.integers(0, 2, size=d, dtype=np.uint8)`` give, drawn at once,
    leaving ``rng`` in the state those calls leave.

    Each such call reads ceil(d / 4) 32-bit words, the low then the high
    half of each 64-bit output, and takes each word's bytes low byte
    first; Lemire's bounded draw over a range of 2 keeps a byte's top
    bit and never rejects.  So every row is the top bits of the next
    4 ceil(d / 4) bytes of the raw little-endian stream."""
    width = 4 * -(-d // 4)
    raw = rng.bit_generator.random_raw(n * width // 8)
    return raw.astype("<u8", copy=False).view(np.uint8).reshape(n, width)[:, :d] >> 7


def majority_bundle(vectors: np.ndarray, tie_break: np.ndarray) -> np.ndarray:
    """Bitwise majority over rows; exact ties take the tie-break bit."""
    vectors = np.atleast_2d(vectors)
    return _majority(vectors.sum(axis=0, dtype=np.int64), vectors.shape[0], tie_break)


def _majority(counts: np.ndarray, n: int, tie_break: np.ndarray) -> np.ndarray:
    """Majority bits from per-bit counts of ones over ``n`` bundled rows:
    a count above n // 2 is a majority, and only an even ``n`` can tie."""
    out = (counts > n // 2).astype(np.uint8)
    if n % 2 == 0:
        np.copyto(out, tie_break, where=counts == n // 2)
    return out


def encode_text(text: str, item: ItemMemory, n_gram: int) -> np.ndarray:
    """Encode a symbol sequence into one hypervector.

    Each n-gram XORs its rotated letter vectors; all n-gram vectors are
    majority-bundled.  Symbols outside the alphabet map to a designated
    bucket symbol.  The text is lowercased first, and its n-grams are
    counted on the lowercased text.

    The work runs on bytes, in four steps:

    1. symbol ids come from the text's UTF-32 code points through a
       128-entry ASCII table, code points >= 128 taking the bucket;
    2. each window's ids are packed into uint16 keys, 5 bits per symbol
       and 3 symbols per word (ceil(n_gram / 3) words), and one
       ``np.lexsort`` of the keys with a change mask gives the distinct
       n-grams, each read from ``ids`` at its first window, and their
       occurrence counts;
    3. each distinct n-gram is bound once, by XOR of rows gathered from
       the item memory's bit-packed symbol table rolled by the n-gram
       offset (``ItemMemory.packed_roll``, made once per offset), so a
       bound row is ceil(D/8) bytes;
    4. the bound rows, ordered by count, are cut into runs of equal
       count and at most 255 rows; each run is unpacked on its own and
       summed in uint8 into one (runs, D) matrix, and one weighted
       product by the run counts adds them up in the narrowest unsigned
       dtype that holds the number of windows, which bounds every
       per-bit count.

    The per-bit counts are the same integers as for one bound row per
    n-gram position, so the bits are too.  The peak allocation is about
    two packed copies of the bound rows, ceil(D/8) bytes per distinct
    n-gram each (step 3's XOR operand), or the packed rows plus one
    unpacked run of at most 255 x D bytes.
    """
    if n_gram < 1:
        raise DomainError(f"n_gram must be >= 1, got {n_gram}")
    text = text.lower()
    if len(text) < n_gram:
        raise UsageError(
            f"text length {len(text)} is shorter than n_gram {n_gram}"
        )
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    ids = _ASCII_IDS[np.minimum(points, len(_ASCII_IDS) - 1)]
    n_windows = len(ids) - n_gram + 1
    keys = np.zeros((-(-n_gram // _KEY_SYMBOLS), n_windows), dtype=np.uint16)
    for k in range(n_gram):
        word = keys[k // _KEY_SYMBOLS]
        word <<= _SYMBOL_BITS
        word |= ids[k : k + n_windows]
    order = np.lexsort(keys)
    keys = keys[:, order]
    starts = np.flatnonzero(
        np.concatenate(([True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)))
    )
    counts = np.diff(starts, append=n_windows)
    by_count = np.argsort(counts)
    first, counts = order[starts[by_count]], counts[by_count]
    bound = item.packed_roll(0)[ids[first]]
    for k in range(1, n_gram):
        bound ^= item.packed_roll(k)[ids[first + k]]
    edges = [*np.flatnonzero(np.diff(counts, prepend=0)).tolist(), len(counts)]
    runs = [lo for a, b in zip(edges, edges[1:]) for lo in range(a, b, _MAX_RUN)]
    sums = np.empty((len(runs), item.d), dtype=np.uint8)
    for j, (lo, hi) in enumerate(zip(runs, [*runs[1:], len(counts)])):
        rows = np.unpackbits(bound[lo:hi], axis=1, count=item.d)
        np.add.reduce(rows, axis=0, dtype=np.uint8, out=sums[j])
    # every per-bit count is at most n_windows, so this sum cannot wrap
    acc = np.min_scalar_type(n_windows)
    ones = np.einsum("j,jd->d", counts[runs].astype(acc), sums, dtype=acc)
    return _majority(ones, n_windows, item.tie_break)


def _pack_blocks(bits: np.ndarray, block: int) -> np.ndarray:
    """0/1 bits (..., D) cut into blocks of ``block`` bits, each block
    packed into its own words: an unsigned (..., ceil(D/block), words)
    array.

    A block of up to 8 bits takes one uint8 word, up to 16 bits one
    uint16 word, and a longer one ceil(block/64) uint64 words.  D is zero-padded to
    whole blocks and each block to whole words, so two vectors packed
    here differ in a block's words exactly where their bits in that
    block differ."""
    *lead, d = bits.shape
    if d % block:
        bits = np.concatenate(
            [bits, np.zeros((*lead, -d % block), dtype=np.uint8)], axis=-1
        )
    blocks = bits.reshape(*lead, -1, block)
    if block <= 16:
        # many short blocks: one product with the powers of two costs far
        # less than a packbits call per block
        word = np.dtype(np.uint8 if block <= 8 else np.uint16)
        powers = np.left_shift(word.type(1), np.arange(block, dtype=word))
        return (blocks @ powers)[..., None]
    packed = np.packbits(blocks, axis=-1)  # zero-pads each block's last byte
    n_bytes = packed.shape[-1]
    word_bytes = -(-n_bytes // 8) * 8
    if word_bytes > n_bytes:
        zeros = np.zeros((*packed.shape[:-1], word_bytes - n_bytes), dtype=np.uint8)
        packed = np.concatenate([packed, zeros], axis=-1)
    return packed.view(np.uint64)


@dataclass(frozen=True)
class HdcModel:
    """Trained class vectors plus everything needed to replay them.

    ``item`` is the item memory the model was trained with, when known;
    it is rebuilt from (d, seed) otherwise.  ``class_vectors`` is kept as
    a read-only mapping of read-only copies, so the matrices made from it
    on first use cannot go stale."""

    labels: tuple[str, ...]
    class_vectors: MappingProxyType
    d: int
    n_gram: int
    seed: int
    item: ItemMemory | None = field(default=None, repr=False, compare=False)
    _packed_blocks: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.item is not None and (self.item.d, self.item.seed) != (
            self.d, self.seed
        ):
            raise DomainError(
                f"item memory (d={self.item.d}, seed={self.item.seed}) is not "
                f"the model's (d={self.d}, seed={self.seed})"
            )
        frozen = {label: np.array(v) for label, v in self.class_vectors.items()}
        for v in frozen.values():
            v.flags.writeable = False
        object.__setattr__(self, "class_vectors", MappingProxyType(frozen))

    def item_memory(self) -> ItemMemory:
        return self.item or ItemMemory(self.d, self.seed)

    @cached_property
    def class_matrix(self) -> np.ndarray:
        """The class vectors in label order: a read-only (classes, D)
        uint8 matrix, stacked on first use and kept.  A model with no
        labels or a class vector that is not D bits raises UsageError, on
        every use (a raising build caches nothing)."""
        if not self.labels:
            raise UsageError("model has no labels")
        for label in self.labels:
            shape = np.shape(self.class_vectors[label])
            if shape != (self.d,):
                raise UsageError(
                    f"class {label!r} has shape {shape}, expected ({self.d},)"
                )
        rows = np.stack([self.class_vectors[lb] for lb in self.labels])
        rows = rows.astype(np.uint8, copy=False)
        rows.flags.writeable = False
        return rows

    def packed_blocks(self, block: int) -> np.ndarray:
        """``class_matrix`` cut into blocks of ``block`` bits, one block
        per word (``_pack_blocks``): a read-only (classes,
        ceil(D/block), words) array, made on the first request for
        ``block`` and kept for later ones.  At 21 classes and D = 10,000
        it is 42 KB at block 10, 34 KB at block 100 and 26 KB at block D,
        the exact engine's one block."""
        table = self._packed_blocks.get(block)
        if table is None:
            table = _pack_blocks(self.class_matrix, block)
            table.flags.writeable = False
            table = self._packed_blocks.setdefault(block, table)
        return table


def _encode_corpus(corpus: dict, item: ItemMemory, n_gram: int):
    """(label, [hypervector, ...]) for each label in alphabetical order,
    one ``encode_text`` per text; lazily, so a caller that goes through
    it once holds one label's encodings at a time."""
    for label in sorted(corpus):
        yield label, [encode_text(t, item, n_gram) for t in corpus[label]]


def _bundle(encoded, item: ItemMemory, n_gram: int) -> HdcModel:
    """One class vector per label of ``_encode_corpus`` output: the
    majority bundle of that label's encodings."""
    class_vectors = {}
    for label, vectors in encoded:
        if not vectors:
            raise UsageError(f"class {label!r} has no training texts")
        class_vectors[label] = majority_bundle(np.stack(vectors), item.tie_break)
    if not class_vectors:
        raise UsageError("corpus has no classes")
    return HdcModel(
        labels=tuple(class_vectors),
        class_vectors=class_vectors,
        d=item.d,
        n_gram=n_gram,
        seed=item.seed,
        item=item,
    )


def train(corpus: dict, d: int, n_gram: int, seed: int) -> HdcModel:
    """Build one class vector per label by majority-bundling the
    encodings of that label's texts.  Labels are ordered alphabetically;
    ties in downstream argmin resolve to the lowest label index.  The
    model keeps its item memory, so scoring it builds no other."""
    item = ItemMemory(d, seed)
    return _bundle(_encode_corpus(corpus, item, n_gram), item, n_gram)


def train_and_score(
    corpus: dict, d: int, n_gram: int, seed: int
) -> tuple[HdcModel, float]:
    """``train`` plus the exact engine's accuracy on the training texts,
    from one encoding of each text."""
    item = ItemMemory(d, seed)
    encoded = list(_encode_corpus(corpus, item, n_gram))
    model = _bundle(encoded, item, n_gram)
    return model, _score(model, encoded)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape != b.shape:
        raise UsageError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


def _mismatches(model: HdcModel, query: np.ndarray, block: int) -> np.ndarray:
    """Per-(class, block) counts of the bits where ``query`` differs from
    the model's class rows, in blocks of ``block`` bits: a (classes,
    ceil(D/block)) array of the narrowest unsigned dtype that holds
    ``block``.  ``query`` holds D bits, each 0 or 1, in any bool, integer
    or float dtype; it is packed as uint8, so any other value is outside
    the contract.  A wrong query shape, then a block wider than D, raises
    ``UsageError`` before any work.

    The model's class rows packed one block per word
    (``HdcModel.packed_blocks``, made once per block size) take one XOR
    with the query packed the same way and one ``np.bitwise_count``,
    summed over a block's words.  Padding bits are 0 on both sides, so
    they always match."""
    if query.shape != (model.d,):
        raise UsageError(f"query has shape {query.shape}, expected ({model.d},)")
    if block > model.d:
        raise UsageError(f"block size {block} exceeds the model's D={model.d}")
    query = np.asarray(query, dtype=np.uint8)
    diff = model.packed_blocks(block) ^ _pack_blocks(query, block)
    if diff.dtype == np.uint16:  # numpy counts bytes several times faster
        diff = diff.view(np.uint8)
    counts = np.bitwise_count(diff)
    # one or two words take plain adds, which cost far less than a reduce
    # over so short an axis; two words hold at most 128 bits, so uint8 holds
    # their sum
    if counts.shape[-1] == 1:
        return counts[..., 0]
    if counts.shape[-1] == 2:
        return counts[..., 0] + counts[..., 1]
    return np.add.reduce(counts, axis=-1, dtype=np.min_scalar_type(block))


def infer_exact(model: HdcModel, query: np.ndarray) -> tuple[str, dict]:
    """Software popcount oracle: per-class Hamming distance, argmin label
    (ties go to the lowest label index).

    The one-block case of ``infer_tcam``'s count kernel: ``_mismatches``
    at a block of D bits, so each class's distance is its one block's
    count.  ``query`` takes the same dtypes as there."""
    distances = _mismatches(model, query, model.d)[:, 0]
    best = model.labels[int(np.argmin(distances))]
    return best, dict(zip(model.labels, distances.tolist()))


def _split_limbs(values: np.ndarray, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive finite floats ``values`` as exact integer limbs, any
    ``n_blocks`` of which sum without rounding: a float64 (limbs, entries)
    array and the power of two that scales each limb row, so that
    ``values[i]`` is exactly ``sum(limbs[k, i] * scales[k])``.

    Every value is an integer on one grid 2**e, where e is the smallest
    ulp exponent of the values and never below -1074 (a subnormal's
    ulp).  That integer is cut into W-bit limbs, W = 53 -
    bit_length(n_blocks).  A sum of at most ``n_blocks`` entries of one
    limb row is then an integer below n_blocks * 2**W < 2**53, so it is
    exact in any order."""
    width = _SIGNIFICAND_BITS - int(n_blocks).bit_length()
    frac, exp = np.frexp(values)
    significand = np.ldexp(frac, _SIGNIFICAND_BITS).astype(np.uint64)
    # grid position of each significand's last bit; only a subnormal's is
    # below the grid, and its significand then ends in that many zeros
    shift = exp.astype(np.int64) - _SIGNIFICAND_BITS
    e = max(int(shift.min()), -1074)
    shift -= e
    n_limbs = -(-int(shift.max() + _SIGNIFICAND_BITS) // width)
    # bit of each significand at each limb's base; a shift of 63 clears a
    # significand of 53 bits, and the mask clears what lands past W bits
    base = width * np.arange(n_limbs)[:, None] - shift
    right = np.clip(base, 0, 63).astype(np.uint64)
    left = np.clip(-base, 0, 63).astype(np.uint64)
    bits = ((significand >> right) << left) & np.uint64((1 << width) - 1)
    return bits.astype(np.float64), np.ldexp(1.0, e + width * np.arange(n_limbs))


@cache
def _default_array() -> TcamArray:
    """The 1 x 1 default-built array, under the default row record, whose
    blank copies plans given no array read; made on first use."""
    return TcamArray(1, 1)


@dataclass(frozen=True)
class BlockPlan:
    """How a long vector is cut into TCAM row segments, and the array
    whose bound row record each segment is searched with.

    The record is ``array.bias``, so it has passed every operating rule
    of the array's state table when it reaches a plan.  A plan given no
    array reads a blank copy of a default ``TcamArray(1, 1)`` made once
    per module, so binding a record to one plan's array reaches no other.
    Vectors whose dimension is not a multiple of ``block_size`` are
    zero-padded on both sides of the comparison, so the padding always
    matches and never contributes Hamming distance.
    """

    block_size: int = 100
    array: TcamArray = field(default_factory=lambda: _default_array().blank(1, 1))
    _sum_tables: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.block_size < 1:
            raise DomainError(f"block_size must be >= 1, got {self.block_size}")

    @cached_property
    def block_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-count tables of an HD-mode row of ``block_size`` bits,
        indexed by matched-bit count 0..block_size: the Hamming distance
        decoded from the ML voltage (int64) and the search energy in J
        (float64).  Read-only, and made on first use from the HD row
        table that ``array.blank(1, block_size)`` builds under the
        array's record, so a voltage or energy past the float range
        raises ConfigError there; a record bound to the array later does
        not change them.
        """
        block, bias = self.block_size, self.array.bias
        # the HD row table is indexed by mismatched count 0..block
        v_ml, _, energy = self.array.blank(1, block)._tables[1][:, block::-1]
        distance = block - invert_ml_voltage_closed_form(
            v_ml, block, bias.i_rwl_hd, bias
        )
        distance.flags.writeable = False
        return distance, energy

    def sum_table(self, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """What ``infer_tcam`` sums over a row of ``n_blocks`` blocks: a
        read-only float64 (1 + limbs, block_size + 1) table indexed by
        mismatched count, whose row 0 is ``block_tables``' decoded distance
        and whose other rows are its energies split by ``_split_limbs``,
        and the read-only power of two of each limb row.  Made from the
        kept tables on the first request for ``n_blocks`` and kept for
        later ones.  A plan whose energies could sum past the float range
        over ``n_blocks`` blocks raises ConfigError."""
        tables = self._sum_tables.get(n_blocks)
        if tables is None:
            distance, energy = self.block_tables
            # with no sum past the range, no limb term is past it either
            bound = n_blocks * float(energy.max())
            n_bits, i_rwl = n_blocks * self.block_size, self.array.bias.i_rwl_hd
            if problems := overflow_problems("HD", n_bits, i_rwl, bound):
                raise ConfigError(problems)
            limbs, scales = _split_limbs(energy[::-1], n_blocks)
            table = np.vstack([distance[::-1], limbs])
            table.flags.writeable = False
            scales.flags.writeable = False
            tables = self._sum_tables.setdefault(n_blocks, (table, scales))
        return tables


def infer_tcam(
    model: HdcModel, query: np.ndarray, plan: BlockPlan
) -> tuple[str, dict, dict]:
    """TCAM-backed inference.

    Every block of every class row reads the HD row table of the plan's
    bound array at the plan's width (``BlockPlan.block_tables``): the ML
    voltage of its count, decoded back to a matched-bit count, and its
    search energy.  The decoded counts add up to per-class Hamming
    distances.  Returns (label, per-class HD, per-class energy in J).
    ``query`` holds D bits, each 0 or 1, in any bool, integer or float
    dtype; it is packed as uint8, so any other value is outside the
    contract.  A plan whose block is wider than D raises ``UsageError``
    before any work.

    The per-block mismatch counts of all classes come from
    ``_mismatches`` and read the plan's ``sum_table``: the decoded
    distance and the energy limbs of each count.  For many short blocks,
    one ``np.bincount`` gives each class's histogram of counts, and one
    product with the table sums it; for few wide blocks, each block's
    table column is gathered and summed.  Either way every sum is an
    exact integer below 2**53, so both layouts and every order agree.
    Each class's energy is the ``math.fsum`` of its limb sums times their
    powers of two: the correctly rounded sum of its block energies.
    """
    counts = _mismatches(model, query, plan.block_size)
    classes, n_blocks = counts.shape
    bins = plan.block_size + 1
    table, scales = plan.sum_table(n_blocks)
    if bins <= n_blocks:  # a histogram no longer than a row of counts
        # keys in the narrowest dtype that holds them; bincount widens them
        key = np.min_scalar_type(classes * bins - 1)
        keys = counts + np.arange(0, classes * bins, bins, dtype=key)[:, None]
        hist = np.bincount(keys.ravel(), minlength=classes * bins)
        sums = hist.reshape(classes, bins).astype(np.float64) @ table.T
    else:
        sums = table.take(counts.astype(np.intp), axis=1).sum(axis=2).T
    hd = sums[:, 0].astype(np.int64).tolist()
    energies = map(math.fsum, (sums[:, 1:] * scales).tolist())
    return (
        model.labels[hd.index(min(hd))],
        dict(zip(model.labels, hd)),
        dict(zip(model.labels, energies)),
    )


def _score(
    model: HdcModel,
    encoded,
    engine: str = "exact",
    plan: BlockPlan | None = None,
) -> float:
    """Fraction of the hypervectors in ``_encode_corpus`` output labeled
    correctly by the chosen engine."""
    if engine not in ("exact", "tcam"):
        raise UsageError(f"engine must be 'exact' or 'tcam', got {engine!r}")
    if engine == "tcam" and plan is None:
        plan = BlockPlan()
    total = 0
    correct = 0
    for label, queries in encoded:
        for query in queries:
            if engine == "exact":
                predicted, _ = infer_exact(model, query)
            else:
                predicted, _, _ = infer_tcam(model, query, plan)
            correct += predicted == label
            total += 1
    if total == 0:
        raise UsageError("evaluation corpus is empty")
    return correct / total


def accuracy_eval(
    model: HdcModel,
    corpus: dict,
    engine: str = "exact",
    plan: BlockPlan | None = None,
) -> float:
    """Fraction of texts labeled correctly by the chosen engine."""
    encoded = _encode_corpus(corpus, model.item_memory(), model.n_gram)
    return _score(model, encoded, engine, plan)


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
    linearly in D, and is absent elsewhere.  An energy past the float
    range raises ConfigError.
    """
    if d_bits < 1:
        raise DomainError(f"D must be >= 1, got {d_bits}")
    if not 0.0 <= match_fraction <= 1.0:
        raise DomainError(f"match fraction must be in [0, 1], got {match_fraction}")
    rows = []
    for block in block_sizes:
        block = int(block)
        if block < 1:
            raise DomainError(f"block size must be >= 1, got {block}")
        if d_bits % block != 0:
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
        if problems := overflow_problems("HD", d_bits, bias.i_rwl_hd, energy):
            raise ConfigError(problems)
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
        # plain lists, stepped with bisect_left (np.searchsorted's default
        # side="left"), keep numpy calls out of the per-character loop
        successors = np.stack(
            [rng.choice(n, size=4, replace=False) for _ in range(n)]
        ).tolist()
        weights = rng.random((n, 4))
        weights /= weights.sum(axis=1, keepdims=True)
        cumulative = np.cumsum(weights, axis=1).tolist()
        texts = []
        for _ in range(texts_per_class):
            state = int(rng.integers(n))
            chars = []
            for u in rng.random(text_len).tolist():
                chars.append(letters[state])
                state = successors[state][bisect_left(cumulative[state], u)]
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
    """Read a model written by ``save_model``.

    A file that is not valid JSON, lacks a field, or holds a model that
    inference cannot serve raises UsageError: version must be the JSON
    integer 1, and d, n_gram and seed JSON integers (not booleans) with
    d >= 8, n_gram >= 1 and seed >= 0;
    labels must be non-empty and unique; and every class vector exactly d
    bits.
    """
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: not a {MODEL_FORMAT} file ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise UsageError(f"{path}: not a {MODEL_FORMAT} file")
    version = payload.get("version")
    if type(version) is not int or version != MODEL_VERSION:  # True == 1 == 1.0
        raise UsageError(f"{path}: unsupported model version {version!r}")
    try:
        d, n_gram, seed = (payload[name] for name in ("d", "n_gram", "seed"))
        labels = tuple(payload["labels"])
        packed = {
            label: base64.b64decode(payload["class_vectors"][label])
            for label in labels
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(
            f"{path}: malformed {MODEL_FORMAT} file: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    for name, value in (("d", d), ("n_gram", n_gram), ("seed", seed)):
        if type(value) is not int:  # a float would be truncated, inf overflow
            raise UsageError(f"{path}: {name} must be an integer, got {value!r}")
    if d < 8:
        raise UsageError(f"{path}: d must be >= 8, got {d}")
    if n_gram < 1:
        raise UsageError(f"{path}: n_gram must be >= 1, got {n_gram}")
    if seed < 0:
        raise UsageError(f"{path}: seed must be >= 0, got {seed}")
    if not labels:
        raise UsageError(f"{path}: model has no labels")
    if len(packed) != len(labels):
        duplicates = sorted({lb for lb in labels if labels.count(lb) > 1})
        raise UsageError(f"{path}: duplicate labels {duplicates}")
    for label, raw in packed.items():
        if len(raw) != (d + 7) // 8:
            raise UsageError(
                f"{path}: class {label!r} stores {8 * len(raw)} bits, "
                f"expected {d} packed into {(d + 7) // 8} bytes"
            )
    return HdcModel(
        labels=labels,
        class_vectors={
            label: np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=d)
            for label, raw in packed.items()
        },
        d=d,
        n_gram=n_gram,
        seed=seed,
    )
