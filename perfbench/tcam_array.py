"""tcam-array: V/2 writes and exact / Hamming-distance searches on the
device-level array.

One pass builds a ROWS x COLS ``TcamArray`` and fills every row with a
seeded random word through ``store_word``.  It then runs a key stream of
equal parts exact hits, exact one-bit misses, exact keys with about 10 %
don't-care trits and HD keys at a spread of Hamming distances, rewriting
one row after every REWRITE_EVERY searches.  At 24 x 48 only
(R + C - 1) / (R * C) = 0.062 of the write pulses carry a voltage, so a
write path that skips zero-voltage pulses would show here.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from common import Op, median_ms, total_rate
from cryocam.config import build_config
from cryocam.tcam import SearchKey, search_exact, search_hd, store_word

ROWS, COLS = 24, 48
KEYS_PER_PASS = 240
REWRITE_EVERY = 8
DONT_CARE_SHARE = 0.1
HD_DISTANCES = (0, 1, 2, 3, 6, 12, 24, 36, 48)
KEY_KINDS = ("hit", "miss", "dontcare", "hd")


def _random_word(rng) -> str:
    return "".join("1" if b else "0" for b in rng.integers(0, 2, COLS))


def _flip(word: str, positions) -> str:
    bits = list(word)
    for p in positions:
        bits[p] = "1" if bits[p] == "0" else "0"
    return "".join(bits)


def _key(kind: str, word: str, hd_index: int, rng) -> str:
    if kind == "hit":
        return word
    if kind == "miss":
        return _flip(word, [rng.integers(COLS)])
    if kind == "dontcare":
        return "".join("d" if u < DONT_CARE_SHARE else b
                       for b, u in zip(word, rng.random(COLS)))
    distance = HD_DISTANCES[hd_index % len(HD_DISTANCES)]
    return _flip(word, rng.choice(COLS, size=distance, replace=False))


def _check_exact(results, key: str, words: tuple, rec) -> list:
    """v_ml == 0 iff a non-d trit disagrees with the generated word, and
    n_match counts the agreeing non-d trits."""
    if len(results) != len(words):
        return [f"{len(results)} rows returned for {len(words)} stored"]
    problems = []
    for row, (res, word) in enumerate(zip(results, words)):
        pairs = [(t, b) for t, b in zip(key, word) if t != "d"]
        n_match = sum(t == b for t, b in pairs)
        mismatch = n_match < len(pairs)
        if (res.v_ml == 0.0) != mismatch or res.n_match != n_match:
            problems.append(
                f"row {row}: v_ml={res.v_ml!r} n_match={res.n_match} but "
                f"mismatch={mismatch} n_match={n_match} from the stored word"
            )
        rec.feed(res.v_ml, res.n_match, res.power, res.energy)
        rec.add("tcam.sim.search_energy_J", res.energy)
        rec.add("tcam.sim.exact_hits", int(res.v_ml > 0.0))
    return problems


def _check_hd(results, key: str, words: tuple, rec) -> list:
    """n_match equals the popcount of agreeing bits, and v_ml is strictly
    increasing in n_match across rows."""
    if len(results) != len(words):
        return [f"{len(results)} rows returned for {len(words)} stored"]
    problems = []
    by_count = {}
    for row, (res, word) in enumerate(zip(results, words)):
        n_match = sum(t == b for t, b in zip(key, word))
        if res.n_match != n_match or not res.v_ml > 0.0:
            problems.append(
                f"row {row}: n_match={res.n_match} v_ml={res.v_ml!r}, "
                f"popcount {n_match}"
            )
        by_count.setdefault(n_match, []).append(res.v_ml)
        rec.feed(res.v_ml, res.n_match, res.power, res.energy)
        rec.add("tcam.sim.search_energy_J", res.energy)
    counts = sorted(by_count)
    for lo, hi in zip(counts, counts[1:]):
        if not max(by_count[lo]) < min(by_count[hi]):
            problems.append(f"v_ml not increasing from n_match {lo} to {hi}")
    return problems


def _no_check(_result) -> list:
    return []


class Workload:
    name = "tcam-array"

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        with tracer.span("config.build_config"):
            self.cfg = build_config()
        with tracer.span("ferroelectric.PreisachModel"):
            self.cfg.fe_model()
        self.array = self._build_array()

    def _build_array(self):
        with self.tracer.span("tcam.TcamArray"):
            return self.cfg.make_array(ROWS, COLS)

    def pass_ops(self, k: int, rec) -> list:
        """The op list of a pass on the inputs of seed index ``k``; counts
        derived from those inputs go to ``rec``."""
        rng = np.random.default_rng([self.seed, k])
        array, self.array = self.array or self._build_array(), None
        words = [_random_word(rng) for _ in range(ROWS)]
        ops = [
            Op("bulk", "tcam.store_word", COLS, partial(store_word, array, r, w),
               _no_check)
            for r, w in enumerate(words)
        ]
        bits = ROWS * COLS
        kinds = np.repeat(KEY_KINDS, KEYS_PER_PASS // len(KEY_KINDS))
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds):
            if i and i % REWRITE_EVERY == 0:
                row, word = int(rng.integers(ROWS)), _random_word(rng)
                words[row] = word
                ops.append(Op("bulk", "tcam.store_word", COLS,
                              partial(store_word, array, row, word), _no_check))
                bits += COLS
            key = _key(kind, words[int(rng.integers(ROWS))], i, rng)
            snapshot = tuple(words)
            n_dont_care = key.count("d")
            rec.add("tcam.cells_searched", ROWS * COLS)
            rec.add("htron.gate_assertions", ROWS * (COLS + n_dont_care))
            if kind == "hd":
                ops.append(Op("op", "tcam.search_hd", 1,
                              partial(search_hd, array, SearchKey(key)),
                              partial(_check_hd, key=key, words=snapshot, rec=rec)))
            else:
                rec.add("device_physics.ic_evals", ROWS * (COLS - n_dont_care))
                ops.append(Op("op", "tcam.search_exact", 1,
                              partial(search_exact, array, SearchKey(key)),
                              partial(_check_exact, key=key, words=snapshot,
                                      rec=rec)))
        # Every bit pulses both ferroelectrics of every cell twice (the
        # drive and the return to 0 V); only the selected row and column
        # see a non-zero voltage.
        rec.add("ferroelectric.drive_calls", bits * 4 * ROWS * COLS)
        rec.metrics["ferroelectric.useful_pulse_ratio"] = (ROWS + COLS - 1) / (
            ROWS * COLS
        )
        return ops

    def close(self):
        pass

    def layer_metrics(self, spans: dict, first) -> dict:
        return {
            **first.metrics,
            "config.build_ms": median_ms(spans, "config.build_config"),
            "ferroelectric.model_build_ms": median_ms(
                spans, "ferroelectric.PreisachModel"),
            "tcam.array_build_s": median_ms(spans, "tcam.TcamArray") / 1e3,
            "tcam.store_word_ms": median_ms(spans, "tcam.store_word"),
            "tcam.search_exact_us_per_row":
                median_ms(spans, "tcam.search_exact") * 1e3 / ROWS,
            "tcam.search_hd_us_per_row":
                median_ms(spans, "tcam.search_hd") * 1e3 / ROWS,
        }

    def report(self, records: list) -> list:
        """Write and search figures under their workload-specific names."""
        searches = [r["seconds"] for r in records if r["kind"] == "op"]
        return [
            ("write_bits_per_s", total_rate(records, "bulk"), "bits/s"),
            ("search_keys_per_s", total_rate(records, "op"), "1/s"),
            ("search_key_ms.p50", 1e3 * np.percentile(searches, 50), "ms"),
            ("search_key_ms.p99", 1e3 * np.percentile(searches, 99), "ms"),
        ]
