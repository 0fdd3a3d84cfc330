"""device-cli: every subcommand through in-process ``cryocam.cli.main``.

One pass runs ``device iv --model rcsj`` for both stored states at the
default beta_c and once for the high state with ``rcsj_beta_c=0``, each
on RCSJ_POINTS bias points from 0 to a seeded 1.4-1.7 x I_C, so the
points fall at least 15 % below or 40 % above the critical current.  After each
RCSJ run come LIGHT_PER_RCSJ light passes, each running the seven other
subcommands once on small seeded inputs.  This is the only workload that
runs the RCSJ solver and the config / cli layers (parsing, validation,
CSV / JSON and manifest writes).

All CLI runs write under a scratch directory that the worker enters, so
every path in argv and in the manifests is relative and the artifacts
hash the same on every run of one seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
from functools import partial
from pathlib import Path

import numpy as np

from common import Op, median_ms, per_unit, total_rate
from cryocam import cli
from cryocam.config import build_config
from cryocam.hdc import synthetic_corpus

RCSJ_POINTS = 3
RCSJ_RUNS = (
    ("rcsj_high", "high", []),
    ("rcsj_low", "low", []),
    ("rcsj_beta0", "high", ["--set", "rcsj_beta_c=0"]),
)
LIGHT_PER_RCSJ = 2
LIGHT = ("device_iv_behavioral", "fe_sweep", "tcam_search", "tcam_calibrate",
         "hdc_train", "hdc_infer", "hdc_sweep")
WORDS, WIDTH, KEYS = 4, 8, 6
MANIFEST = "run_manifest.json"


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _check_iv(rows: list, i_c: float) -> list:
    """Voltages are finite, exactly 0 below I_C and positive above it."""
    problems = []
    for row in rows:
        i, v = float(row["i_bias_A"]), float(row["v_avg_V"])
        if not math.isfinite(v) or (v != 0.0 if i < i_c else not v > 0.0):
            problems.append(f"V({i:.4g} A) = {v!r} with I_C = {i_c:.4g} A")
    return problems


def _check_search(rows: list, words: list, keys: list) -> list:
    """Exact mode: v_ml is 0 iff a non-d trit disagrees with the word."""
    problems = []
    expected = [(k, r) for k in keys for r in range(len(words))]
    if [(row["key"], int(row["row"])) for row in rows] != expected:
        return ["tcam_search.csv rows do not cover every key x row"]
    for row in rows:
        word = words[int(row["row"])]
        mismatch = any(t not in ("d", b) for t, b in zip(row["key"], word))
        if (float(row["v_ml_mV"]) == 0.0) != mismatch:
            problems.append(f"key {row['key']} row {row['row']}: "
                            f"v_ml_mV={row['v_ml_mV']}, mismatch={mismatch}")
    return problems


def _no_extra_check() -> list:
    return []


class Workload:
    name = "device-cli"

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        with tracer.span("config.build_config"):
            cfg = build_config()
        self.i_c = dict(zip(("low", "high"), cfg.critical_window()))
        self.home = None
        self.passes = 0

    def _enter_scratch(self):
        """Move into a fresh scratch directory inside the checkout."""
        self.home = Path.cwd()
        scratch = Path(__file__).resolve().parent / "out" / f"cli-{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        os.chdir(scratch)

    def close(self):
        if self.home is not None:
            scratch = Path.cwd()
            os.chdir(self.home)
            shutil.rmtree(scratch, ignore_errors=True)

    def _op(self, name: str, out: str, argv: list, check, rec, units=1,
            kind="op", group=None) -> Op:
        return Op(kind, f"cli.{name}", units,
                  partial(_run_cli, ["--out", out] + argv),
                  partial(self._check, out=out, check=check, rec=rec),
                  group)

    def _check(self, result, out: str, check, rec) -> list:
        """Exit code 0, the op's own oracle, then hash every artifact."""
        code, err = result
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        problems = check()
        for path in sorted(Path(out).iterdir()):
            data = path.read_bytes()
            if path.name == MANIFEST:
                manifest = json.loads(data)
                del manifest["wall_time_s"], manifest["utc"]
                data = json.dumps(manifest, sort_keys=True).encode()
            else:
                rec.add("cli.artifact_bytes", len(data))
            rec.feed(path.name, data)
        return problems

    def pass_ops(self, k: int, rec) -> list:
        if self.home is None:
            self._enter_scratch()
        rng = np.random.default_rng([self.seed, k])
        base = f"p{self.passes}"
        self.passes += 1
        ops = []
        for n, (name, state, extra) in enumerate(RCSJ_RUNS):
            i_max_uA = f"{rng.uniform(1.4, 1.7) * self.i_c[state] * 1e6:.4f}"
            i_points = np.linspace(0.0, float(i_max_uA) * 1e-6, RCSJ_POINTS)
            locked = int(np.sum(i_points < self.i_c[state]))
            rec.add("fesquid.rcsj_locked_points", locked)
            rec.add("fesquid.rcsj_running_points", RCSJ_POINTS - locked)
            out = f"{base}/{name}"
            ops.append(self._op(
                f"device_iv_{name}", out,
                extra + ["device", "iv", "--model", "rcsj", "--state", state,
                         "--i-max-uA", i_max_uA, "--points", str(RCSJ_POINTS)],
                lambda out=out, i_c=self.i_c[state]:
                    _check_iv(_read_csv(Path(out) / "device_iv.csv"), i_c),
                rec, units=RCSJ_POINTS, kind="bulk"))
            for j in range(LIGHT_PER_RCSJ):
                ops.extend(self._light_pass(f"{base}/l{n}{j}", rng, rec))
        return ops

    def _light_pass(self, base: str, rng, rec) -> list:
        """Seven light subcommands on inputs written under ``base``."""
        inputs = Path(base, "inputs")
        inputs.mkdir(parents=True)
        words = ["".join(map(str, rng.integers(0, 2, WIDTH))) for _ in range(WORDS)]
        keys = []
        for _ in range(KEYS):
            word = list(words[int(rng.integers(WORDS))])
            for p in rng.choice(WIDTH, size=2, replace=False):
                word[p] = "d" if rng.random() < 0.5 else str(1 - int(word[p]))
            keys.append("".join(word))
        (inputs / "words.txt").write_text("\n".join(words) + "\n")
        (inputs / "keys.txt").write_text("\n".join(keys) + "\n")
        corpus = synthetic_corpus(n_classes=2, texts_per_class=5, text_len=300,
                                  seed=int(rng.integers(2**31)))
        for label, texts in corpus.items():
            (inputs / label).mkdir()
            for n, text in enumerate(texts[:4]):
                (inputs / label / f"{n}.txt").write_text(text)
        (inputs / "query.txt").write_text(corpus["lang00"][4][:200])
        labels = sorted(corpus)
        state = ("low", "high")[int(rng.integers(2))]
        model = f"{base}/hdc_train/hdc_model.json"

        def out(name):
            return f"{base}/{name}"

        def check_infer():
            label = json.loads(Path(out("hdc_infer"), "hdc_infer.json")
                               .read_text())["label"]
            return [] if label in labels else [f"label {label!r} not trained"]

        argvs = {
            "device_iv_behavioral": (
                ["device", "iv", "--state", state, "--points", "21"],
                lambda: _check_iv(
                    _read_csv(Path(out("device_iv_behavioral"), "device_iv.csv")),
                    self.i_c[state])),
            "fe_sweep": (
                ["fe", "sweep", "--v-max-V", f"{rng.uniform(1.6, 2.0):.3f}"],
                _no_extra_check),
            "tcam_search": (
                ["tcam", "search", "--mode", "exact",
                 "--store", str(inputs / "words.txt"),
                 "--keys", str(inputs / "keys.txt")],
                lambda: _check_search(
                    _read_csv(Path(out("tcam_search"), "tcam_search.csv")),
                    words, keys)),
            "tcam_calibrate": (["tcam", "calibrate"], _no_extra_check),
            "hdc_train": (
                ["hdc", "train", "--corpus", str(inputs), "--model-out", model],
                _no_extra_check),
            "hdc_infer": (
                ["hdc", "infer", "--model", model,
                 "--text", str(inputs / "query.txt")],
                check_infer),
            "hdc_sweep": (
                ["hdc", "sweep", "--accuracy", "--classes", "2",
                 "--texts-per-class", "4", "--text-len", "300"],
                _no_extra_check),
        }
        return [self._op(name, out(name), argv, check, rec, group=base)
                for name, (argv, check) in argvs.items()]

    def layer_metrics(self, spans: dict, first) -> dict:
        return {
            **first.metrics,
            "config.build_ms": median_ms(spans, "config.build_config"),
            **{f"fesquid.rcsj_s_per_point.{name[5:]}":
               per_unit(spans, f"cli.device_iv_{name}") for name, _, _ in RCSJ_RUNS},
            **{f"cli.device_iv_{name}_ms": median_ms(spans, f"cli.device_iv_{name}")
               for name, _, _ in RCSJ_RUNS},
            **{f"cli.{name}_ms": median_ms(spans, f"cli.{name}") for name in LIGHT},
        }

    def report(self, records: list) -> list:
        """RCSJ and light-pass figures under their workload-specific names."""
        passes = {}
        for r in records:
            if r["kind"] == "op":
                passes.setdefault(r["group"], []).append(r["seconds"])
        whole = [sum(s) for s in passes.values() if len(s) == len(LIGHT)]
        return [
            ("iv_points_per_s", total_rate(records, "bulk"), "points/s"),
            ("cli_light_pass_s", np.median(whole), "s"),
        ]
