"""hdc-langid: HDC language recognition on the HD-mode closed forms.

One pass draws a seeded synthetic corpus of CLASSES languages at the
default D = 10,000 and trains class vectors on TRAIN_TEXTS texts each.
It then classifies QUERIES_PER_CLASS held-out texts per language, cut to
seeded lengths in QUERY_LEN.  One query op is ``encode_text``, then
``infer_tcam`` at each block size in BLOCKS, then ``infer_exact`` as the
oracle.  No device object is built, so device-level changes must leave
this workload unchanged.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from common import Op, median_ms, per_unit, total_rate
from cryocam.config import build_config
from cryocam.hdc import (
    BlockPlan,
    ItemMemory,
    encode_text,
    infer_exact,
    infer_tcam,
    synthetic_corpus,
    train,
)

CLASSES = 21
TRAIN_TEXTS = 1
QUERIES_PER_CLASS = 1
TEXT_LEN = 1000
QUERY_LEN = (100, 1000)
BLOCKS = (10, 100)


class Workload:
    name = "hdc-langid"

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        with tracer.span("config.build_config"):
            cfg = build_config()
        self.d, self.n_gram, self.item_seed = (
            cfg["hdc_d_bits"], cfg["hdc_n_gram"], cfg["seed"])
        with tracer.span("hdc.ItemMemory"):
            self.item = ItemMemory(self.d, self.item_seed)
        self.plans = {b: BlockPlan(block_size=b) for b in BLOCKS}

    def _train(self, texts: dict, model: dict):
        with self.tracer.span("hdc.train", sum(map(len, texts.values()))):
            model["m"] = train(texts, d=self.d, n_gram=self.n_gram,
                               seed=self.item_seed)
        return model["m"]

    def _classify(self, text: str, model: dict):
        span = self.tracer.span
        with span("hdc.encode_text", len(text)):
            query = encode_text(text, self.item, self.n_gram)
        tcam = {}
        for b, plan in self.plans.items():
            blocks = len(model["m"].labels) * math.ceil(self.d / b)
            with span(f"hdc.infer_tcam.b{b}", blocks):
                tcam[b] = infer_tcam(model["m"], query, plan)
        with span("hdc.infer_exact"):
            exact = infer_exact(model["m"], query)
        return tcam, exact

    def pass_ops(self, k: int, rec) -> list:
        rng = np.random.default_rng([self.seed, k])
        corpus = synthetic_corpus(
            n_classes=CLASSES,
            texts_per_class=TRAIN_TEXTS + QUERIES_PER_CLASS,
            text_len=TEXT_LEN,
            seed=int(rng.integers(2**31)),
        )
        train_set = {label: texts[:TRAIN_TEXTS] for label, texts in corpus.items()}
        model = {}
        train_chars = sum(len(t) for texts in train_set.values() for t in texts)
        ops = [Op("bulk", "hdc-langid.train", train_chars,
                  partial(self._train, train_set, model),
                  partial(_check_model, rec=rec))]
        for label, texts in corpus.items():
            for text in texts[TRAIN_TEXTS:]:
                text = text[: int(rng.integers(QUERY_LEN[0], QUERY_LEN[1] + 1))]
                rec.add("hdc.blocks_evaluated",
                        CLASSES * sum(math.ceil(self.d / b) for b in BLOCKS))
                rec.add("queries", 1)
                ops.append(Op("op", "hdc-langid.classify", 1,
                              partial(self._classify, text, model),
                              partial(_check_query, label=label, rec=rec)))
        return ops

    def close(self):
        pass

    def layer_metrics(self, spans: dict, first) -> dict:
        m = dict(first.metrics)
        m["hdc.sim.accuracy"] = m.pop("correct", 0) / m.pop("queries")
        return {
            **m,
            "config.build_ms": median_ms(spans, "config.build_config"),
            "hdc.encode_us_per_char": per_unit(spans, "hdc.encode_text", 1e6),
            "hdc.train_s": median_ms(spans, "hdc.train") / 1e3,
            **{f"hdc.infer_tcam_us_per_block.b{b}":
               per_unit(spans, f"hdc.infer_tcam.b{b}", 1e6) for b in BLOCKS},
            "hdc.infer_exact_us_per_query":
                median_ms(spans, "hdc.infer_exact") * 1e3,
        }

    def report(self, records: list) -> list:
        """Train and classify figures under their workload-specific names."""
        queries = [r["seconds"] for r in records if r["kind"] == "op"]
        return [
            ("train_chars_per_s", total_rate(records, "bulk"), "chars/s"),
            ("classify_queries_per_s", total_rate(records, "op"), "1/s"),
            ("classify_query_ms.p50", 1e3 * np.percentile(queries, 50), "ms"),
            ("classify_query_ms.p90", 1e3 * np.percentile(queries, 90), "ms"),
        ]


def _check_model(model, rec) -> list:
    for label in model.labels:
        rec.feed(label, np.packbits(model.class_vectors[label]).tobytes())
    return [] if len(model.labels) == CLASSES else [
        f"{len(model.labels)} classes trained, {CLASSES} expected"]


def _check_query(result, label: str, rec) -> list:
    """Every block size's TCAM distances and label equal the popcount
    oracle's."""
    tcam, (best, distances) = result
    problems = [
        f"block {b}: infer_tcam {got[0]} {got[1]} != infer_exact {best} {distances}"
        for b, got in tcam.items()
        if got[0] != best or got[1] != distances
    ]
    rec.feed(label, best, sorted(distances.items()))
    for b, (_, _, energies) in sorted(tcam.items()):
        rec.feed(b, sorted(energies.items()))
        rec.add("hdc.sim.tcam_energy_J", sum(energies.values()))
    rec.add("correct", int(best == label))
    return problems
