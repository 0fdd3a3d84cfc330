"""Command-line surface binding all modules into reproducible runs.

Subcommands: device iv | fe sweep | tcam search | tcam calibrate |
hdc train | hdc infer | hdc sweep.  Every run writes its artifacts plus
``run_manifest.json`` (resolved config, seed, version, wall time) into
the output directory; files are written atomically so interrupted runs
never leave corrupt artifacts.

Exit codes: 0 success, 2 usage, 3 validation failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, parse_config, split_assignment
from .errors import ConfigError, CryocamError, DomainError, NumericError, UsageError
from .fesquid import FeSquidDevice, branch_voltage, simulate_rcsj_iv
from .ferroelectric import apply_voltage, apply_waveform
from .hdc import (
    BlockPlan,
    accuracy_eval,
    encode_text,
    energy_sweep,
    infer_exact,
    infer_tcam,
    load_model,
    save_model,
    synthetic_corpus,
    train,
)
from .tcam import (
    SearchKey,
    calibrated_bias,
    exact_energy_averages,
    search_keys,
    store_word,
)

OUTPUT_DIR_ENV = "CRYOCAM_OUT"


def _make_dir(path: Path):
    """Create ``path`` and its parents; a path that is a file, or lies
    under one, is a usage error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(
            f"cannot create output directory {path}: {exc.strerror}"
        ) from exc


def _atomic_write(path: Path, text: str):
    _make_dir(path.parent)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return format(x, ".9g")
        return str(x)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(x) for x in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def _write_json(path: Path, payload: dict) -> Path:
    _atomic_write(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def _write_manifest(out_dir: Path, command: str, argv, cfg: RunConfig, outputs,
                    started: float):
    _write_json(
        out_dir / "run_manifest.json",
        {
            "command": command,
            "argv": list(argv),
            "config": cfg.values,
            "seed": cfg["seed"],
            "cryocam_version": __version__,
            "python_version": sys.version.split()[0],
            "wall_time_s": round(time.monotonic() - started, 6),
            "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "outputs": [p.name for p in outputs],
        },
    )


def _load_config(args) -> RunConfig:
    overrides = {}
    for item in args.set or []:
        pair = split_assignment(item)
        if pair is None:
            raise ConfigError([f"--set expects key=value, got {item!r}"])
        key, raw = pair
        overrides[key] = raw
    return parse_config(args.config, overrides)


def _out_dir(args) -> Path:
    """The output directory; the first file written into it creates it,
    so a run that fails its argument checks leaves none behind."""
    return Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or "cryocam_out")


def _saturated_device(cfg: RunConfig, state: str) -> FeSquidDevice:
    model = cfg.fe_model()
    fe = model.initial_state()
    span = model.v_span
    apply_voltage(fe, span if state == "low" else -span)
    apply_voltage(fe, 0.0)
    return FeSquidDevice(fe=fe, sc=cfg.superconductor(), t_op=cfg["t_op_K"])


def cmd_device_iv(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    if not math.isfinite(args.i_max_uA) or args.i_max_uA < 0:
        raise UsageError(f"--i-max-uA must be finite and >= 0, got {args.i_max_uA}")
    dev = _saturated_device(cfg, args.state)
    i_points = np.linspace(0.0, args.i_max_uA * 1e-6, args.points)
    label = f"ic_{args.state}"
    if args.model == "behavioral":
        bias = cfg.bias()
        v = np.array([branch_voltage(dev, i, bias) for i in i_points])
    else:
        v = simulate_rcsj_iv(dev, i_points, cfg.rcsj()).v_avg
    rows = [[i, float(vv), label, args.model] for i, vv in zip(i_points, v)]
    return [
        _write_csv(
            out_dir / "device_iv.csv",
            ["i_bias_A", "v_avg_V", "state_label", "model"],
            rows,
        )
    ]


def cmd_fe_sweep(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    leg = args.points_per_leg
    v_max = args.v_max_V
    if not math.isfinite(v_max):
        raise UsageError(f"--v-max-V must be finite, got {v_max}")
    if leg < 1:
        raise UsageError(f"--points-per-leg must be >= 1, got {leg}")
    if args.cycles < 0:
        raise UsageError(f"--cycles must be >= 0, got {args.cycles}")
    state = cfg.fe_model().initial_state()
    up = np.linspace(-v_max, v_max, leg)
    down = np.linspace(v_max, -v_max, leg)
    samples = [np.linspace(0.0, -v_max, leg)]  # entry leg to negative tip
    for _ in range(args.cycles):
        samples.extend([up, down])
    waveform = np.concatenate(samples)
    trace = apply_waveform(state, waveform)
    rows = []
    prev = waveform[0]
    for v, p in zip(waveform, trace):
        branch = "up" if v >= prev else "down"
        rows.append([float(v), float(p), branch])
        prev = v
    return [
        _write_csv(out_dir / "fe_sweep.csv", ["v_V", "p_C_m2", "branch"], rows)
    ]


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _read_lines(path) -> list[str]:
    text = _read_text(path)
    return [line.strip() for line in text.splitlines() if line.strip()]


def cmd_tcam_search(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    words = _read_lines(args.store)
    keys = _read_lines(args.keys)
    if not words:
        raise UsageError(f"{args.store}: no stored words")
    if not keys:
        raise UsageError(f"{args.keys}: no search keys")
    width = len(words[0])
    array = cfg.make_array(len(words), width)
    for r, word in enumerate(words):
        store_word(array, r, word)
    keys = [SearchKey(key) for key in keys]
    results = search_keys(array, keys, hd=args.mode == "hd")
    rows = []
    for k, key in enumerate(keys):
        for r, res in enumerate(results.rows(k)):
            rows.append(
                [key.trits, r, res.v_ml * 1e3, res.n_match, res.power * 1e9,
                 res.energy * 1e18]
            )
    return [
        _write_csv(
            out_dir / "tcam_search.csv",
            ["key", "row", "v_ml_mV", "n_match", "power_nW", "energy_aJ"],
            rows,
        )
    ]


def cmd_tcam_calibrate(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    ic_low, ic_high = window = cfg.critical_window()
    bias = calibrated_bias(
        cfg.bias(), window, args.binary_aJ * 1e-18, args.ternary_aJ * 1e-18
    )
    i_rwl, r_fs = bias.i_rwl_exact, bias.r_fs_exact
    binary_avg, ternary_avg = exact_energy_averages(bias)
    payload = {
        "i_rwl_exact_uA": i_rwl * 1e6,
        "r_fs_exact_ohm": r_fs,
        "binary_avg_aJ": binary_avg * 1e18,
        "ternary_avg_aJ": ternary_avg * 1e18,
        "window_ic_low_uA": ic_low * 1e6,
        "window_ic_high_uA": ic_high * 1e6,
    }
    print(
        f"calibrated: I_RWL = {i_rwl * 1e6:.4f} uA, r_fs = {r_fs:.2f} ohm "
        f"(window {ic_low * 1e6:.3f}..{ic_high * 1e6:.3f} uA)"
    )
    return [_write_json(out_dir / "tcam_calibrate.json", payload)]


def _load_corpus_dir(root) -> dict:
    root = Path(root)
    if not root.is_dir():
        raise UsageError(f"corpus directory {root} does not exist")
    corpus = {}
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        texts = [_read_text(f) for f in sorted(class_dir.glob("*.txt"))]
        if texts:
            corpus[class_dir.name] = texts
    if not corpus:
        raise UsageError(f"corpus directory {root} has no <label>/*.txt files")
    return corpus


def _corpus_from_args(args, cfg: RunConfig) -> dict:
    if args.corpus:
        return _load_corpus_dir(args.corpus)
    return synthetic_corpus(
        n_classes=args.classes,
        texts_per_class=args.texts_per_class,
        text_len=args.text_len,
        seed=cfg["seed"],
    )


def cmd_hdc_train(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    corpus = _corpus_from_args(args, cfg)
    model = train(corpus, d=cfg["hdc_d_bits"], n_gram=cfg["hdc_n_gram"],
                  seed=cfg["seed"])
    model_path = Path(args.model_out) if args.model_out else out_dir / "hdc_model.json"
    _make_dir(model_path.parent)
    save_model(model, model_path)
    train_acc = accuracy_eval(model, corpus, engine="exact")
    print(
        f"trained {len(model.labels)} classes at D={model.d}, "
        f"n_gram={model.n_gram}; training accuracy {train_acc:.3f}"
    )
    return [model_path]


def cmd_hdc_infer(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    model = load_model(args.model)
    text = _read_text(args.text)
    query = encode_text(text, model.item_memory(), model.n_gram)
    if args.engine == "exact":
        label, distances = infer_exact(model, query)
        energies = None
    else:
        plan = BlockPlan(block_size=cfg["hdc_block_size"], bias=cfg.bias())
        label, distances, energies = infer_tcam(model, query, plan)
    payload = {
        "label": label,
        "engine": args.engine,
        "distances": distances,
        "energies_J": energies,
    }
    print(f"label: {label}")
    return [_write_json(out_dir / "hdc_infer.json", payload)]


def cmd_hdc_sweep(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    for d in args.d:
        if d < 1:
            raise UsageError(f"--d must be >= 1, got {d}")
    if args.accuracy:
        train_set, test_set = {}, {}
        for label, texts in _corpus_from_args(args, cfg).items():
            split = len(texts) - max(1, len(texts) // 4)
            train_set[label], test_set[label] = texts[:split], texts[split:]
    rows = []
    for d in args.d:
        table = energy_sweep(
            d_bits=d,
            block_sizes=args.block,
            match_fraction=args.match,
            bias=cfg.bias(),
        )
        accuracy = None
        if args.accuracy:
            model = train(train_set, d=d, n_gram=cfg["hdc_n_gram"],
                          seed=cfg["seed"])
            accuracy = accuracy_eval(model, test_set, engine="exact")
        for entry in table:
            rows.append(
                [
                    entry["d_bits"],
                    entry["block_size"],
                    entry["energy_J_fesquid"],
                    entry["energy_J_sram_ref"],
                    accuracy,
                ]
            )
    return [
        _write_csv(
            out_dir / "hdc_sweep.csv",
            ["d_bits", "block_size", "energy_J_fesquid", "energy_J_sram_ref",
             "accuracy"],
            rows,
        )
    ]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call of a process
    and reused by later ones (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="cryocam",
        description="Cryogenic FeSQUID/hTron TCAM simulator",
    )
    parser.add_argument("--config", help="config file (key = value lines)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config key (repeatable; wins over the file)",
    )
    parser.add_argument(
        "--out",
        help=f"output directory (default ${OUTPUT_DIR_ENV} or ./cryocam_out)",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    device = sub.add_parser("device", help="FeSQUID device characterization")
    device_sub = device.add_subparsers(dest="command", required=True)
    iv = device_sub.add_parser("iv", help="I-V curve of one stored state")
    iv.add_argument("--state", choices=["low", "high"], default="high",
                    help="stored critical-current state")
    iv.add_argument("--model", choices=["behavioral", "rcsj"],
                    default="behavioral")
    iv.add_argument("--i-max-uA", type=float, default=6.0)
    iv.add_argument("--points", type=int, default=61)
    iv.set_defaults(func=cmd_device_iv, name="device iv")

    fe = sub.add_parser("fe", help="ferroelectric characterization")
    fe_sub = fe.add_subparsers(dest="command", required=True)
    sweep = fe_sub.add_parser("sweep", help="polarization-voltage loop")
    sweep.add_argument("--v-max-V", type=float, default=2.0)
    sweep.add_argument("--points-per-leg", type=int, default=101)
    sweep.add_argument("--cycles", type=int, default=2)
    sweep.set_defaults(func=cmd_fe_sweep, name="fe sweep")

    tcam = sub.add_parser("tcam", help="TCAM array operations")
    tcam_sub = tcam.add_subparsers(dest="command", required=True)
    search = tcam_sub.add_parser("search", help="search stored words")
    search.add_argument("--mode", choices=["exact", "hd"], required=True)
    search.add_argument("--store", required=True,
                        help="file of stored words, one 0/1 word per line")
    search.add_argument("--keys", required=True,
                        help="file of search keys, one 0/1/d word per line")
    search.set_defaults(func=cmd_tcam_search, name="tcam search")
    calibrate = tcam_sub.add_parser(
        "calibrate", help="recover exact-mode bias from energy targets"
    )
    calibrate.add_argument("--binary-aJ", type=float, default=1.36)
    calibrate.add_argument("--ternary-aJ", type=float, default=26.5)
    calibrate.set_defaults(func=cmd_tcam_calibrate, name="tcam calibrate")

    hdc = sub.add_parser("hdc", help="hyperdimensional-computing workload")
    hdc_sub = hdc.add_subparsers(dest="command", required=True)

    def corpus_flags(p):
        p.add_argument("--corpus",
                       help="directory with one subdirectory of *.txt per label")
        p.add_argument("--classes", type=int, default=3,
                       help="synthetic corpus classes (no --corpus)")
        p.add_argument("--texts-per-class", type=int, default=20)
        p.add_argument("--text-len", type=int, default=2000)

    train_p = hdc_sub.add_parser("train", help="train class vectors")
    corpus_flags(train_p)
    train_p.add_argument("--model-out", help="model path (default in --out)")
    train_p.set_defaults(func=cmd_hdc_train, name="hdc train")

    infer_p = hdc_sub.add_parser("infer", help="classify one text")
    infer_p.add_argument("--model", required=True)
    infer_p.add_argument("--text", required=True)
    infer_p.add_argument("--engine", choices=["tcam", "exact"], default="tcam")
    infer_p.set_defaults(func=cmd_hdc_infer, name="hdc infer")

    sweep_p = hdc_sub.add_parser("sweep", help="energy/accuracy sweep")
    sweep_p.add_argument("--d", type=int, nargs="+", default=[10000])
    sweep_p.add_argument("--block", type=int, nargs="+",
                         default=[10, 50, 100, 500])
    sweep_p.add_argument("--match", type=float, default=0.5)
    sweep_p.add_argument("--accuracy", action="store_true",
                         help="also train/evaluate on the corpus")
    corpus_flags(sweep_p)
    sweep_p.set_defaults(func=cmd_hdc_sweep, name="hdc sweep")

    return parser


def _fail(category: str, messages: list[str], code: int) -> int:
    print(
        json.dumps({"error_category": category, "messages": messages}),
        file=sys.stderr,
    )
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        cfg = _load_config(args)
        out_dir = _out_dir(args)
        outputs = args.func(args, cfg, out_dir)
        _write_manifest(out_dir, args.name, argv, cfg, outputs, started)
    except ConfigError as exc:
        return _fail("validation", exc.violations, 3)
    except (UsageError, DomainError) as exc:
        return _fail("validation", [str(exc)], 3)
    except NumericError as exc:
        return _fail("numeric", [str(exc)], 4)
    except CryocamError as exc:
        return _fail("error", [str(exc)], 3)
    except FileNotFoundError as exc:
        return _fail("validation", [str(exc)], 3)
    for path in outputs:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
