"""Command-line surface binding all modules into reproducible runs.

Subcommands: device iv | fe sweep | tcam search | tcam calibrate |
hdc train | hdc infer | hdc sweep.  Every run writes its artifacts plus
``run_manifest.json`` (resolved config, seed, version, wall time) into
the output directory; files are written atomically so interrupted runs
never leave corrupt artifacts.

Exit codes: 0 success, 2 usage, 3 validation failure (an argument too
large to allocate, and inputs that put an output past the float range,
among them), 4 numeric failure (a routine that fails on valid inputs).
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
from .config import RunConfig, parse_config, range_problem, split_assignment
from .errors import ConfigError, CryocamError, DomainError, NumericError, UsageError
from .fesquid import FeSquidDevice, branch_voltage, simulate_rcsj_iv
from .ferroelectric import apply_waveform
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
    train_and_score,
)
from .tcam import (
    SearchKey,
    calibrate_exact_bias,
    exact_energy_averages,
    search_keys,
    store_word,
    write_bit,
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


def _not_finite(path: Path) -> ConfigError:
    return ConfigError(f"{path.name}: an output value is not a finite float")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    def fmt(x):
        if x is None:
            return ""
        if isinstance(x, float):
            if not math.isfinite(x):
                raise _not_finite(path)
            return format(x, ".9g")
        return str(x)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(x) for x in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path


def _write_json(path: Path, payload: dict) -> Path:
    try:  # RFC 8259 JSON has no Infinity or NaN
        text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise _not_finite(path) from exc
    _atomic_write(path, text + "\n")
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
    """The config of the file and ``--set`` items; a malformed item is
    reported with every problem ``parse_config`` finds, or with the
    OS's refusal to read the file."""
    overrides, malformed = {}, []
    for item in args.set or []:
        if (pair := split_assignment(item)) is None:
            malformed.append(f"--set expects key=value, got {item!r}")
        else:
            overrides[pair[0]] = pair[1]
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as exc:
        raise ConfigError(exc.violations + malformed) from exc
    except OSError as exc:  # a missing file, a directory, no permission
        raise ConfigError([str(exc), *malformed]) from exc
    if malformed:
        raise ConfigError(malformed)
    return cfg


def _out_dir(args) -> Path:
    """The output directory; the first file written into it creates it,
    so a run that fails its argument checks leaves none behind."""
    return Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or "cryocam_out")


def cmd_device_iv(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    array = cfg.make_array(1, 1)  # fs1 as a full write of 1 (high I_C) or 0 leaves it
    write_bit(array, 0, 0, int(args.state == "high"))
    dev = FeSquidDevice(array.fe_state(0, 0, 1), array.sc, array.t_op)
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
    res = search_keys(array, keys, hd=args.mode == "hd")
    with np.errstate(over="ignore"):  # _write_csv refuses what overflows here
        scaled = (res.v_ml * 1e3, res.n_match, res.power * 1e9, res.energy * 1e18)
    rows = [
        [key.trits, r, *row]
        for key, *columns in zip(keys, *(x.tolist() for x in scaled))
        for r, row in enumerate(zip(*columns))
    ]
    return [
        _write_csv(
            out_dir / "tcam_search.csv",
            ["key", "row", "v_ml_mV", "n_match", "power_nW", "energy_aJ"],
            rows,
        )
    ]


def cmd_tcam_calibrate(args, cfg: RunConfig, out_dir: Path) -> list[Path]:
    array = cfg.make_array(1, 1)
    i_rwl, r_fs = calibrate_exact_bias(
        array, args.binary_aJ * 1e-18, args.ternary_aJ * 1e-18
    )
    ic_low, ic_high = array.exact_window
    binary_avg, ternary_avg = exact_energy_averages(array.bias)
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
    model, train_acc = train_and_score(
        corpus, d=cfg["hdc_d_bits"], n_gram=cfg["hdc_n_gram"], seed=cfg["seed"]
    )
    model_path = Path(args.model_out) if args.model_out else out_dir / "hdc_model.json"
    _make_dir(model_path.parent)
    save_model(model, model_path)
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
        plan = BlockPlan(cfg["hdc_block_size"], cfg.make_array(1, 1))
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
    if args.accuracy:
        train_set, test_set = {}, {}
        for label, texts in _corpus_from_args(args, cfg).items():
            if len(texts) < 2:  # the hold-out would leave no training text
                raise UsageError(
                    f"--accuracy holds out texts and needs >= 2 per class; "
                    f"class {label!r} has {len(texts)}"
                )
            split = len(texts) - max(1, len(texts) // 4)
            train_set[label], test_set[label] = texts[:split], texts[split:]
    columns = ["d_bits", "block_size", "energy_J_fesquid", "energy_J_sram_ref"]
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
        rows.extend([*(entry[c] for c in columns), accuracy] for entry in table)
    return [_write_csv(out_dir / "hdc_sweep.csv", [*columns, "accuracy"], rows)]


def _number(parser, flag: str, default, op: str, bound, **kw):
    """Add a numeric flag (of its default's type unless ``type`` is given)
    and declare its range, which ``main`` checks with ``range_problem``."""
    action = parser.add_argument(flag, default=default, **{"type": type(default), **kw})
    ranges = (*(parser.get_default("ranges") or ()), (flag, action.dest, op, bound))
    parser.set_defaults(ranges=ranges)


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
    _number(iv, "--i-max-uA", 6.0, ">=", 0)
    _number(iv, "--points", 61, ">=", 1)
    iv.set_defaults(func=cmd_device_iv, name="device iv")

    fe = sub.add_parser("fe", help="ferroelectric characterization")
    fe_sub = fe.add_subparsers(dest="command", required=True)
    sweep = fe_sub.add_parser("sweep", help="polarization-voltage loop")
    # any voltage whose double, the loop's span, is finite
    half_max = sys.float_info.max / 2
    _number(sweep, "--v-max-V", 2.0, "in", [-half_max, half_max])
    _number(sweep, "--points-per-leg", 101, ">=", 1)
    _number(sweep, "--cycles", 2, ">=", 0)
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
    _number(calibrate, "--binary-aJ", 1.36, ">", 0)
    _number(calibrate, "--ternary-aJ", 26.5, ">", 0)
    calibrate.set_defaults(func=cmd_tcam_calibrate, name="tcam calibrate")

    hdc = sub.add_parser("hdc", help="hyperdimensional-computing workload")
    hdc_sub = hdc.add_subparsers(dest="command", required=True)

    def corpus_flags(p):
        p.add_argument("--corpus",
                       help="directory with one subdirectory of *.txt per label")
        _number(p, "--classes", 3, ">=", 1,
                help="synthetic corpus classes (no --corpus)")
        _number(p, "--texts-per-class", 20, ">=", 1)
        _number(p, "--text-len", 2000, ">=", 1)

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
    _number(sweep_p, "--d", [10000], ">=", 1, type=int, nargs="+")
    _number(sweep_p, "--block", [10, 50, 100, 500], ">=", 1, type=int, nargs="+")
    _number(sweep_p, "--match", 0.5, "in", [0, 1])
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
        problems = [  # each declared flag of the command against its range
            problem
            for flag, dest, op, bound in getattr(args, "ranges", ())
            for value in [getattr(args, dest)]  # a list for an nargs flag
            for x in (value if isinstance(value, list) else [value])
            if (problem := range_problem(flag, x, op, bound))
        ]
        if problems:
            raise ConfigError(problems)
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
    except OSError as exc:  # a missing file, a directory, no permission
        return _fail("validation", [str(exc)], 3)
    except MemoryError as exc:  # an argument sizes an array past memory
        return _fail("validation", [str(exc) or "out of memory"], 3)
    for path in outputs:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
