"""Config parsing/validation and the command-line surface."""

import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cryocam import cli, tcam
from cryocam.cli import main
from cryocam.config import DEFAULTS, build_config, parse_config, range_problem
from cryocam.errors import ConfigError, CryocamError
from cryocam.ferroelectric import PreisachModel
from cryocam.fesquid import RcsjParams
from cryocam.hdc import save_model, synthetic_corpus, train
from cryocam.tcam import BiasConfig, TcamArray, write_bit


class TestConfigParsing:
    def test_defaults_validate(self):
        cfg = build_config()
        assert cfg["t_c_base_K"] == 9.2
        assert cfg["seed"] == 1234

    def test_file_with_comments_and_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# device under test\n"
            "v_write_V = 2.0\n"
            "fe_v_c_V = 1.2   # coercive voltage\n"
            "seed = 99\n"
        )
        cfg = parse_config(path)
        assert cfg["seed"] == 99
        assert cfg["r_n_ohm"] == DEFAULTS["r_n_ohm"][0]  # default substituted

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("voltage = 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nnot a pair\nv_write_V = two\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        messages = "\n".join(err.value.violations)
        assert "line 2" in messages
        assert "line 3" in messages

    def test_all_violations_reported_not_just_first(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("v_write_V = 3.0\ni_rwl_hd_uA = 3.0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        messages = err.value.violations
        assert any("V_WRITE/2 < V_C < V_WRITE" in m for m in messages)
        assert any("HD mode requires I_RWL > I_C,high" in m for m in messages)
        assert len(messages) >= 2

    def test_write_inequality_accepts_published_point(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("v_write_V = 2.0\nfe_v_c_V = 1.2\n")
        assert parse_config(path)["v_write_V"] == 2.0

    def test_hd_bias_below_window_rejected(self):
        with pytest.raises(ConfigError, match="HD mode requires I_RWL > I_C,high"):
            build_config({"i_rwl_hd_uA": "4.0"})

    def test_exact_bias_window_enforced(self):
        with pytest.raises(ConfigError, match="exact mode requires"):
            build_config({"i_rwl_exact_uA": "5.0"})

    def test_operating_temperature_must_stay_superconducting(self):
        with pytest.raises(ConfigError, match="polarization-shifted"):
            build_config({"t_op_K": "7.0"})

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\n")
        cfg = parse_config(path, {"seed": "6"})
        assert cfg["seed"] == 6

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\nseed = 6\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_builders_produce_si_units(self):
        cfg = build_config()
        assert cfg.bias().i_rwl_hd == pytest.approx(5e-6)
        assert cfg.bias().r_gate == pytest.approx(50e3)
        assert cfg.fe_model().p_s == pytest.approx(0.30)
        low, high = cfg.critical_window()
        assert 2.0e-6 < low < high < 4.5e-6

    def test_default_config_builds_default_row_record(self):
        cfg = build_config()
        assert cfg.bias() == BiasConfig()

    def test_default_config_builds_default_preisach_model(self):
        # 30 * 1e-6 / 1e-4 once gave p_s = 0.29999999999999993
        built, default = build_config().fe_model(), PreisachModel()
        for name in ("p_s", "v_c", "sigma_v", "grid_n", "v_span"):
            assert getattr(built, name) == getattr(default, name), name

    def test_default_config_builds_default_rcsj_params(self):
        # the RCSJ defaults are declared twice, in DEFAULTS and RcsjParams
        assert build_config().rcsj() == RcsjParams()

    def test_defaults_table_obeys_its_own_rules(self):
        for key, (default, op, bound, _) in DEFAULTS.items():
            assert op in (">", ">="), key
            assert default > bound if op == ">" else default >= bound, key
        # a key's type is its default's: 650 in place of 650.0 would
        # silently make r_n_ohm an int key
        int_keys = {k for k, (d, *_) in DEFAULTS.items() if isinstance(d, int)}
        assert int_keys == {
            "fe_grid_n",
            "rcsj_n_steps",
            "rcsj_settle_periods",
            "rcsj_average_periods",
            "hdc_d_bits",
            "hdc_n_gram",
            "hdc_block_size",
            "seed",
        }


def _key_values(outside: bool):
    """(key, value) pairs inside each key's declared range, or outside it
    (NaN and the infinities included for float keys).  ``fe_grid_n``
    stays small: validation walks a Preisach grid of that many points a
    side."""

    def for_key(key):
        default, op, bound, _ = DEFAULTS[key]
        if isinstance(default, int):
            lowest = bound + (op == ">")
            if outside:
                return st.integers(lowest - 10**6, lowest - 1)
            return st.integers(lowest, 128 if key == "fe_grid_n" else 10**9)
        if outside:
            below = st.floats(max_value=bound, exclude_max=op == ">=")
            return below | st.sampled_from([math.nan, math.inf])
        return st.floats(
            bound, sys.float_info.max, exclude_min=op == ">", allow_infinity=False
        )

    return st.sampled_from(sorted(DEFAULTS)).flatmap(
        lambda key: st.tuples(st.just(key), for_key(key))
    )


def _outcome(route, settings: dict):
    """The RunConfig values ``route`` builds, or its error messages with
    the ``line N:``/``override:`` prefix of where a value came from
    removed."""
    try:
        return route(settings).values
    except CryocamError as exc:
        messages = getattr(exc, "violations", None) or [str(exc)]
        return type(exc), [re.sub(r"^(line \d+|override): ", "", m) for m in messages]


def _from_file(settings: dict):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        return parse_config(path)


def _from_set_flags(settings: dict):
    argv = [arg for k, v in settings.items() for arg in ("--set", f"{k}={v}")]
    return cli._load_config(cli._build_parser().parse_args([*argv, "fe", "sweep"]))


class TestConfigRoutes:
    @given(pairs=st.lists(_key_values(outside=False), min_size=1, max_size=3,
                          unique_by=lambda pair: pair[0]))
    def test_file_and_overrides_agree(self, pairs):
        settings = {key: repr(value) for key, value in pairs}
        by_file = _outcome(_from_file, settings)
        assert _outcome(lambda s: parse_config(None, s), settings) == by_file
        assert _outcome(_from_set_flags, settings) == by_file
        if isinstance(by_file, dict):
            for key, value in pairs:
                assert by_file[key] == value

    @given(pair=_key_values(outside=True))
    def test_out_of_range_value_exits_3_naming_the_key(self, pair):
        key, value = pair
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
                io.StringIO()
            ):
                code = main(["--set", f"{key}={value!r}", "--out", str(out),
                             "tcam", "calibrate"])
            assert not out.exists()
        assert code == 3
        (line,) = err.getvalue().strip().splitlines()
        payload = json.loads(line)
        assert payload["error_category"] == "validation"
        assert any(message.startswith(key) for message in payload["messages"])


DATA = Path(__file__).parent / "data"


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(["--out", str(out), *args])
    return code, out


def error_payload(capsys) -> dict:
    """The single JSON line a failed run prints to stderr."""
    (line,) = capsys.readouterr().err.strip().splitlines()
    return json.loads(line)


@pytest.fixture
def model_and_text(tmp_path):
    corpus = synthetic_corpus(3, 5, 400, seed=1234)
    model = tmp_path / "model.json"
    save_model(train(corpus, d=512, n_gram=3, seed=1234), model)
    text = tmp_path / "query.txt"
    text.write_text(corpus["lang01"][4])
    return model, text


class TestCliTcam:
    @pytest.fixture
    def fixture_files(self, tmp_path):
        store = tmp_path / "store.txt"
        keys = tmp_path / "keys.txt"
        store.write_text("0\n1\n")
        keys.write_text("0\n1\nd\n")
        return store, keys

    def test_exact_truth_table_csv(self, fixture_files, tmp_path):
        store, keys = fixture_files
        code, out = run_cli(
            ["tcam", "search", "--mode", "exact", "--store", str(store),
             "--keys", str(keys)],
            tmp_path,
        )
        assert code == 0
        lines = (out / "tcam_search.csv").read_text().splitlines()
        assert lines[0] == "key,row,v_ml_mV,n_match,power_nW,energy_aJ"
        rows = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
        assert float(rows[("0", "1")][2]) == 0.0  # stored 1, searched 0
        assert float(rows[("1", "0")][2]) == 0.0
        assert float(rows[("0", "0")][2]) > 0.0
        assert float(rows[("d", "0")][2]) == pytest.approx(80.0)
        workspace = json.loads((out / "run_manifest.json").read_text())
        assert workspace["command"] == "tcam search"
        assert workspace["config"]["seed"] == 1234

    def test_deterministic_output_bytes(self, fixture_files, tmp_path):
        store, keys = fixture_files
        _, out1 = run_cli(
            ["tcam", "search", "--mode", "hd", "--store", str(store),
             "--keys", str(store)],
            tmp_path,
            "run1",
        )
        _, out2 = run_cli(
            ["tcam", "search", "--mode", "hd", "--store", str(store),
             "--keys", str(store)],
            tmp_path,
            "run2",
        )
        assert (out1 / "tcam_search.csv").read_bytes() == (
            out2 / "tcam_search.csv"
        ).read_bytes()

    @pytest.mark.parametrize("mode", ["exact", "hd"])
    def test_search_csv_matches_golden_bytes(self, mode, tmp_path):
        # tests/data: seven 16-bit words, one of them all ones (which reads
        # like an unwritten row); the exact keys hold d trits
        code, out = run_cli(
            ["tcam", "search", "--mode", mode,
             "--store", str(DATA / "tcam_store.txt"),
             "--keys", str(DATA / f"tcam_keys_{mode}.txt")],
            tmp_path,
        )
        assert code == 0
        assert (out / "tcam_search.csv").read_bytes() == (
            DATA / f"tcam_search_{mode}.csv"
        ).read_bytes()

    def test_calibrate_writes_pair(self, tmp_path):
        code, out = run_cli(["tcam", "calibrate"], tmp_path)
        assert code == 0
        payload = json.loads((out / "tcam_calibrate.json").read_text())
        assert payload["i_rwl_exact_uA"] == pytest.approx(3.1996, rel=1e-4)
        assert payload["r_fs_exact_ohm"] == pytest.approx(901.62, rel=1e-4)
        assert payload["binary_avg_aJ"] == pytest.approx(1.36, rel=1e-6)
        assert payload["ternary_avg_aJ"] == pytest.approx(26.5, rel=1e-6)
        # the array's window: half-select pulses shrink written remnants
        assert payload["window_ic_low_uA"] == pytest.approx(2.3042, rel=1e-4)
        assert payload["window_ic_high_uA"] == pytest.approx(4.0365, rel=1e-4)

    def test_calibrate_checks_the_arrays_window(self, tmp_path, capsys):
        # the target inverts to I_RWL ~ 4.10 uA: inside a fully written
        # device's window (2.11, 4.19) uA, above the array's 4.04 uA
        code, out = run_cli(["tcam", "calibrate", "--ternary-aJ", "43"], tmp_path)
        assert code == 3
        (message,) = error_payload(capsys)["messages"]
        assert message.startswith("exact mode requires I_C,low < I_RWL < I_C,high")
        assert not out.exists()

    def test_calibrate_round_trips_at_configured_gate(self, tmp_path):
        code, out = run_cli(
            ["--set", "ht_r_off_kohm=40", "tcam", "calibrate"], tmp_path
        )
        assert code == 0
        payload = json.loads((out / "tcam_calibrate.json").read_text())
        assert payload["binary_avg_aJ"] == pytest.approx(1.36, rel=1e-9)
        assert payload["ternary_avg_aJ"] == pytest.approx(26.5, rel=1e-9)


class TestCliInProcess:
    def test_parser_is_built_once_and_keeps_no_flags(self, tmp_path):
        cli._build_parser.cache_clear()
        assert run_cli(["--set", "seed=5", "tcam", "calibrate"], tmp_path, "a")[0] == 0
        assert run_cli(["tcam", "calibrate"], tmp_path, "b")[0] == 0
        seeds = [
            json.loads((tmp_path / name / "run_manifest.json").read_text())["seed"]
            for name in ("a", "b")
        ]
        assert seeds == [5, DEFAULTS["seed"][0]]
        sweeps = [["--d", "80", "--block", "8", "40"], []]
        for name, flags in zip(("c", "d"), sweeps):
            assert run_cli(["hdc", "sweep", *flags], tmp_path, name)[0] == 0
        lines = (tmp_path / "d" / "hdc_sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["10000", block] for block in ("10", "50", "100", "500")
        ]
        assert cli._build_parser.cache_info().misses == 1


class TestCliDeviceAndFe:
    def test_device_iv_behavioral(self, tmp_path):
        code, out = run_cli(
            ["device", "iv", "--state", "high", "--points", "13"], tmp_path
        )
        assert code == 0
        lines = (out / "device_iv.csv").read_text().splitlines()
        assert lines[0] == "i_bias_A,v_avg_V,state_label,model"
        assert len(lines) == 14
        assert lines[1].endswith("ic_high,behavioral")

    def test_device_iv_reads_the_state_a_full_write_leaves(self, tmp_path):
        # at V_WRITE = 1.5 V one write from the fresh state leaves remnant
        # 0.945, I_C = 2.181 uA; the +1 remnant a saturating drive left
        # once gave 2.114 uA, so 2.15 uA read resistive
        code, out = run_cli(
            ["--set", "v_write_V=1.5", "device", "iv", "--state", "low",
             "--i-max-uA", "2.15", "--points", "2"],
            tmp_path,
        )
        assert code == 0
        top = (out / "device_iv.csv").read_text().splitlines()[-1].split(",")
        assert top[:2] == ["2.15e-06", "0"]

    def test_fe_sweep_emits_branch_column(self, tmp_path):
        code, out = run_cli(
            ["fe", "sweep", "--points-per-leg", "21", "--cycles", "1"], tmp_path
        )
        assert code == 0
        lines = (out / "fe_sweep.csv").read_text().splitlines()
        assert lines[0] == "v_V,p_C_m2,branch"
        branches = {l.split(",")[2] for l in lines[1:]}
        assert branches == {"up", "down"}

    @pytest.mark.parametrize(
        "state, key, ohm", [("low", "r_low_state_ohm", 2400.0),
                            ("high", "r_high_state_ohm", 1200.0)]
    )
    def test_branch_resistance_key_reaches_device_iv(
        self, state, key, ohm, tmp_path
    ):
        code, out = run_cli(
            ["--set", f"{key}={ohm:g}", "device", "iv", "--state", state,
             "--points", "3"],
            tmp_path,
        )
        assert code == 0
        top = (out / "device_iv.csv").read_text().splitlines()[-1].split(",")
        assert float(top[1]) == pytest.approx(float(top[0]) * ohm, rel=1e-9)

    @pytest.mark.parametrize("command", ["tcam_search", "device_iv"])
    def test_positive_saturation_on_coarse_grid(self, command, tmp_path):
        # at fe_grid_n=32 the saturated remnant sums to 1 + 2 ulp unclamped
        if command == "tcam_search":
            store = tmp_path / "store.txt"
            store.write_text("0\n1\n")
            args = ["tcam", "search", "--mode", "exact", "--store", str(store),
                    "--keys", str(store)]
            artifact = "tcam_search.csv"
        else:
            args = ["device", "iv", "--state", "low", "--points", "5"]
            artifact = "device_iv.csv"
        code, out = run_cli(["--set", "fe_grid_n=32", *args], tmp_path)
        assert code == 0
        assert (out / artifact).exists()


class TestCliHdc:
    def test_train_then_infer(self, tmp_path):
        code, out = run_cli(
            ["--set", "hdc_d_bits=512", "hdc", "train", "--texts-per-class", "4",
             "--text-len", "400"],
            tmp_path,
        )
        assert code == 0
        model_path = out / "hdc_model.json"
        assert model_path.exists()

        text = tmp_path / "query.txt"
        from cryocam.hdc import synthetic_corpus

        corpus = synthetic_corpus(3, 5, 400, seed=1234)
        text.write_text(corpus["lang01"][4])
        code, out2 = run_cli(
            ["--set", "hdc_d_bits=512", "hdc", "infer", "--model",
             str(model_path), "--text", str(text), "--engine", "tcam"],
            tmp_path,
            "infer",
        )
        assert code == 0
        payload = json.loads((out2 / "hdc_infer.json").read_text())
        assert payload["label"] == "lang01"
        assert set(payload["distances"]) == {"lang00", "lang01", "lang02"}

    def test_infer_energies_follow_bias_and_search_time(
        self, model_and_text, tmp_path
    ):
        model, text = model_and_text

        def energies(name, *overrides):
            sets = [arg for item in overrides for arg in ("--set", item)]
            code, out = run_cli(
                [*sets, "hdc", "infer", "--model", str(model), "--text", str(text)],
                tmp_path,
                name,
            )
            assert code == 0
            return json.loads((out / "hdc_infer.json").read_text())["energies_J"]

        base = energies("base")
        # E = n^2 I^2 t / G: quadratic in the bias, linear in the search time
        by_current = energies("current", "i_rwl_hd_uA=9")
        by_time = energies("time", "t_search_ns=0.6")
        for label, e in base.items():
            assert abs(by_current[label] / (e * (9 / 5) ** 2) - 1.0) < 1e-9
            assert abs(by_time[label] / (e * 2) - 1.0) < 1e-9

    def test_sweep_energy_column(self, tmp_path):
        code, out = run_cli(
            ["hdc", "sweep", "--d", "10000", "--match", "0.5"], tmp_path
        )
        assert code == 0
        lines = (out / "hdc_sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "d_bits,block_size,energy_J_fesquid,energy_J_sram_ref,accuracy"
        )
        first = lines[1].split(",")
        assert abs(float(first[2]) - 89.4e-15) / 89.4e-15 < 0.03
        assert float(first[3]) == pytest.approx(1.29e-12)

    def test_sweep_accuracy_scores_the_given_corpus(
        self, tmp_path, capsys, monkeypatch
    ):
        sweep = ["hdc", "sweep", "--d", "256", "--block", "16", "--accuracy",
                 "--corpus"]
        code, out = run_cli([*sweep, str(tmp_path / "none")], tmp_path)
        assert code == 3
        assert "does not exist" in error_payload(capsys)["messages"][0]
        assert not out.exists()

        corpus = tmp_path / "corpus"
        for label, text in (("en", "the cat sat on the mat "),
                            ("fr", "le chat est sur le tapis ")):
            (corpus / label).mkdir(parents=True)
            for i in range(2):
                (corpus / label / f"{i}.txt").write_text(text * 20)
        trained = []

        def recording_train(texts_by_label, **kwargs):
            trained.append(sorted(texts_by_label))
            return train(texts_by_label, **kwargs)

        monkeypatch.setattr(cli, "train", recording_train)
        code, out = run_cli([*sweep, str(corpus)], tmp_path, "scored")
        assert code == 0
        assert trained == [["en", "fr"]]
        row = (out / "hdc_sweep.csv").read_text().splitlines()[1].split(",")
        assert float(row[-1]) == 1.0

    @pytest.mark.parametrize(
        ("block", "message"),
        [("-10", "--block must be >= 1, got -10"),
         ("0", "--block must be >= 1, got 0"),
         ("3", "block size 3 does not divide D=10000")],
        ids=["negative", "zero", "non-divisor"],
    )
    def test_sweep_block_size_is_checked(self, block, message, tmp_path, capsys):
        # a block of -10 was once said not to divide D=10000
        code, out = run_cli(["hdc", "sweep", "--block", block], tmp_path)
        assert code == 3
        assert error_payload(capsys)["messages"] == [message]
        assert not out.exists()

    def test_sweep_accuracy_needs_two_texts_per_class(self, tmp_path, capsys):
        # the hold-out once took the only text and blamed train()
        code, out = run_cli(
            ["hdc", "sweep", "--d", "64", "--block", "8", "--accuracy",
             "--classes", "2", "--texts-per-class", "1", "--text-len", "50"],
            tmp_path,
        )
        assert code == 3
        assert error_payload(capsys)["messages"] == [
            "--accuracy holds out texts and needs >= 2 per class; "
            "class 'lang00' has 1"
        ]
        assert not out.exists()

    def test_sweep_accuracy_names_a_one_text_corpus_class(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        for label, count in (("en", 3), ("fr", 1)):
            (corpus / label).mkdir(parents=True)
            for i in range(count):
                (corpus / label / f"{i}.txt").write_text("le chat " * 10)
        code, out = run_cli(
            ["hdc", "sweep", "--d", "64", "--block", "8", "--accuracy",
             "--corpus", str(corpus)],
            tmp_path,
        )
        assert code == 3
        assert error_payload(capsys)["messages"] == [
            "--accuracy holds out texts and needs >= 2 per class; "
            "class 'fr' has 1"
        ]
        assert not out.exists()


class TestCliErrors:
    def test_unknown_subcommand_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "quantum", "leap"])
        assert exc.value.code == 2

    def test_validation_failure_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("i_rwl_hd_uA = 3.0\n")
        code = main(
            ["--config", str(bad), "--out", str(tmp_path / "o"), "tcam",
             "calibrate"]
        )
        assert code == 3
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error_category"] == "validation"
        assert any("HD mode requires" in m for m in payload["messages"])

    def test_gate_current_below_htron_threshold_exits_3(self, tmp_path, capsys):
        code, out = run_cli(["--set", "i_rbl_on_uA=10", "tcam", "calibrate"],
                            tmp_path)
        assert code == 3
        payload = error_payload(capsys)
        assert payload["error_category"] == "validation"
        assert any("hTron gate threshold" in m for m in payload["messages"])
        assert not out.exists()

    def test_state_resistances_out_of_order_exit_3(
        self, model_and_text, tmp_path, capsys
    ):
        # equal resistances once ended the HD decode in a ZeroDivisionError
        model, text = model_and_text
        code, out = run_cli(
            ["--set", "r_low_state_ohm=900", "hdc", "infer", "--model",
             str(model), "--text", str(text), "--engine", "tcam"],
            tmp_path,
        )
        assert code == 3
        (message,) = error_payload(capsys)["messages"]
        assert "r_low_state_ohm must exceed r_high_state_ohm" in message
        assert not out.exists()

    def test_missing_store_file_exits_3(self, tmp_path):
        code = main(
            ["--out", str(tmp_path / "o"), "tcam", "search", "--mode", "exact",
             "--store", str(tmp_path / "none.txt"), "--keys",
             str(tmp_path / "none.txt")]
        )
        assert code == 3

    @pytest.mark.parametrize("key", ["ht_i_ch_crit_uA", "ht_t_switch_ns"])
    def test_dropped_keys_are_unknown(self, key, tmp_path, capsys):
        code, _ = run_cli(["--set", f"{key}=0.3", "tcam", "calibrate"], tmp_path)
        assert code == 3
        assert any("unknown key" in m for m in error_payload(capsys)["messages"])

    @pytest.mark.parametrize("corrupt", ["missing_d", "truncated"])
    def test_corrupt_model_exits_3(self, corrupt, model_and_text, tmp_path, capsys):
        model, text = model_and_text
        if corrupt == "missing_d":
            payload = json.loads(model.read_text())
            del payload["d"]
            model.write_text(json.dumps(payload))
        else:
            model.write_text(model.read_text()[:40])
        code, _ = run_cli(
            ["hdc", "infer", "--model", str(model), "--text", str(text)], tmp_path
        )
        assert code == 3
        assert error_payload(capsys)["error_category"] == "validation"

    @pytest.mark.parametrize(
        ("field", "raw", "message"),
        [
            ("d", "1e400", "d must be an integer, got inf"),
            ("seed", "-1e400", "seed must be an integer, got -inf"),
            ("seed", "-5", "seed must be >= 0, got -5"),
            ("n_gram", "3.9", "n_gram must be an integer, got 3.9"),
        ],
        ids=["huge_d", "huge_negative_seed", "negative_seed", "fractional_n_gram"],
    )
    def test_unservable_model_field_exits_3(
        self, field, raw, message, model_and_text, tmp_path, capsys
    ):
        # the raw JSON number as a file would hold it: 1e400 reads as inf
        model, text = model_and_text
        payload = json.loads(model.read_text())
        model.write_text(
            json.dumps({**payload, field: "VALUE"}).replace('"VALUE"', raw)
        )
        code, out = run_cli(
            ["hdc", "infer", "--model", str(model), "--text", str(text)], tmp_path
        )
        assert code == 3
        assert error_payload(capsys)["messages"] == [f"{model}: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["tcam", "exact"])
    def test_model_without_labels_exits_3(
        self, engine, model_and_text, tmp_path, capsys
    ):
        model, text = model_and_text
        payload = json.loads(model.read_text())
        payload.update(labels=[], class_vectors={})
        model.write_text(json.dumps(payload))
        code, _ = run_cli(
            ["hdc", "infer", "--model", str(model), "--text", str(text),
             "--engine", engine],
            tmp_path,
        )
        assert code == 3
        assert error_payload(capsys)["messages"] == [f"{model}: model has no labels"]

    def test_non_utf8_text_exits_3(self, model_and_text, tmp_path, capsys):
        model, text = model_and_text
        text.write_bytes(b"caf\xe9 au lait")
        code, _ = run_cli(
            ["hdc", "infer", "--model", str(model), "--text", str(text)], tmp_path
        )
        assert code == 3
        assert error_payload(capsys)["error_category"] == "validation"

    def test_non_utf8_corpus_exits_3(self, tmp_path, capsys):
        (tmp_path / "corpus" / "fr").mkdir(parents=True)
        (tmp_path / "corpus" / "fr" / "a.txt").write_bytes(b"caf\xe9 au lait")
        code, _ = run_cli(
            ["hdc", "train", "--corpus", str(tmp_path / "corpus")], tmp_path
        )
        assert code == 3
        assert error_payload(capsys)["error_category"] == "validation"

    def test_device_iv_without_points_exits_3(self, tmp_path, capsys):
        code, out = run_cli(["device", "iv", "--points", "0"], tmp_path)
        assert code == 3
        assert error_payload(capsys)["error_category"] == "validation"
        assert not (out / "device_iv.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["fe", "sweep", "--points-per-leg", "-1"],
            ["fe", "sweep", "--points-per-leg", "0"],
            ["fe", "sweep", "--cycles", "-1"],
            ["fe", "sweep", "--v-max-V", "inf"],
            ["fe", "sweep", "--v-max-V", "nan"],
            ["device", "iv", "--i-max-uA", "nan"],
            ["device", "iv", "--i-max-uA", "inf"],
            ["hdc", "sweep", "--d", "-10000"],
            ["hdc", "sweep", "--d", "0"],
        ],
        ids=lambda a: " ".join(a[:2] + a[-2:]),
    )
    def test_degenerate_sweep_arguments_exit_3(self, args, tmp_path, capsys):
        # a traceback, a warning line, or a CSV of NaN, inf or negative
        # energies would each escape the one JSON error line
        code, out = run_cli(args, tmp_path)
        assert code == 3
        assert error_payload(capsys)["error_category"] == "validation"
        assert list(out.glob("*.csv")) == []

    @pytest.mark.parametrize(
        ("key", "value", "message"),
        [
            ("rcsj_settle_periods", "0", "rcsj_settle_periods must be >= 1, got 0"),
            ("rcsj_average_periods", "1", "rcsj_average_periods must be >= 2, got 1"),
        ],
        ids=["settle", "average"],
    )
    @pytest.mark.parametrize("model", ["behavioral", "rcsj"])
    def test_rcsj_period_counts_validated(
        self, key, value, message, model, tmp_path, capsys
    ):
        code, out = run_cli(
            ["--set", f"{key}={value}", "device", "iv", "--model", model,
             "--points", "2"],
            tmp_path,
        )
        assert code == 3
        payload = error_payload(capsys)
        assert payload["error_category"] == "validation"
        assert message in payload["messages"]
        assert not out.exists()

    @pytest.mark.parametrize(
        ("setting", "args", "message"),
        [
            ("r_low_state_ohm=nan", ["hdc", "sweep"],
             "r_low_state_ohm must be finite, got nan"),
            ("i_rwl_hd_uA=inf", ["hdc", "sweep"],
             "i_rwl_hd_uA must be finite, got inf"),
            ("fe_sigma_v_V=inf", ["fe", "sweep"],
             "fe_sigma_v_V must be finite, got inf"),
            ("seed=-1", ["hdc", "train"], "seed must be >= 0, got -1"),
        ],
        ids=["nan-branch", "inf-hd-bias", "inf-sigma", "negative-seed"],
    )
    def test_out_of_range_key_exits_3(
        self, setting, args, message, tmp_path, capsys
    ):
        # NaN or inf energies with exit 0, or a numpy traceback, would
        # each escape the one JSON error line
        code, out = run_cli(["--set", setting, *args], tmp_path)
        assert code == 3
        payload = error_payload(capsys)
        assert payload["error_category"] == "validation"
        assert payload["messages"] == [message]
        assert not out.exists()

    @pytest.mark.parametrize(
        ("settings", "messages"),
        [
            (["ht_r_off_kohm=1e306"],
             ["ht_r_off_kohm must be finite and > 0 in SI, got 1e+306 -> inf"]),
            (["t_search_ns=1e-320"],
             ["t_search_ns must be finite and > 0 in SI, got 1e-320 -> 0.0"]),
            (["ht_r_off_kohm=1e306", "r_n_ohm=-1"],
             ["r_n_ohm must be > 0, got -1.0",
              "ht_r_off_kohm must be finite and > 0 in SI, got 1e+306 -> inf"]),
        ],
        ids=["overflow", "underflow", "with-other-key"],
    )
    def test_si_conversion_out_of_range_names_the_key(
        self, settings, messages, tmp_path, capsys
    ):
        # the row record's error once escaped, naming r_gate or t_search
        args = [arg for setting in settings for arg in ("--set", setting)]
        code, out = run_cli([*args, "tcam", "calibrate"], tmp_path)
        assert code == 3
        payload = error_payload(capsys)
        assert payload["error_category"] == "validation"
        assert payload["messages"] == messages
        assert not out.exists()

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (["device", "iv", "--points", "0"], "--points must be >= 1, got 0"),
            (["hdc", "sweep", "--d", "0"], "--d must be >= 1, got 0"),
            (["hdc", "sweep", "--d", "10000", "-5"], "--d must be >= 1, got -5"),
            (["fe", "sweep", "--v-max-V", "nan"], "--v-max-V must be finite, got nan"),
            (["fe", "sweep", "--points-per-leg", "0"],
             "--points-per-leg must be >= 1, got 0"),
            (["fe", "sweep", "--cycles", "-1"], "--cycles must be >= 0, got -1"),
        ],
        ids=["points", "d-zero", "d-negative", "v-max", "points-per-leg", "cycles"],
    )
    def test_bad_flag_is_named_and_leaves_no_output_dir(
        self, args, message, tmp_path, capsys
    ):
        code, out = run_cli(args, tmp_path)
        assert code == 3
        assert error_payload(capsys)["messages"] == [message]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "args",
        [
            ["device", "iv", "--i-max-uA"],
            ["fe", "sweep", "--v-max-V"],
            ["tcam", "calibrate", "--binary-aJ"],
            ["tcam", "calibrate", "--ternary-aJ"],
            ["hdc", "sweep", "--match"],
        ],
        ids=lambda args: args[-1],
    )
    def test_non_finite_float_flag_is_named(self, args, value, tmp_path, capsys):
        # --ternary-aJ inf once ended in a ZeroDivisionError traceback,
        # --binary-aJ nan blamed I_RWL and --match nan named no flag
        flag = args[-1]
        code, out = run_cli([*args, value], tmp_path)
        assert code == 3
        (message,) = error_payload(capsys)["messages"]
        assert message.startswith(f"{flag} must be ") and message.endswith(value)
        assert not out.exists()

    @pytest.mark.parametrize(
        ("args", "name"),
        [
            (["tcam", "calibrate", "--binary-aJ", "1e-305"], "r_fs_exact"),
            (["--set", "t_search_ns=1e-305", "tcam", "calibrate"], "t_search"),
        ],
        ids=["binary-target", "t-search"],
    )
    def test_subnormal_calibration_input_exits_3(
        self, args, name, tmp_path, capsys
    ):
        # a 1e-323 J binary target once calibrated r_fs = 0.00 ohm and
        # exited 0; a 1e-314 s search time once reached the inversion and
        # was blamed on an I_RWL of 5.5e146 A
        code, out = run_cli(args, tmp_path)
        assert code == 3
        (message,) = error_payload(capsys)["messages"]
        assert message.startswith(name)
        assert not out.exists()

    def test_exact_bias_outside_the_arrays_window_exits_3(self, tmp_path, capsys):
        # 4.1 uA is inside a fully written device's window (2.11, 4.19) uA
        # but above the array's (2.30, 4.04) uA: every row once read
        # 3.62 mV, mismatched ones included
        store, keys = tmp_path / "store.txt", tmp_path / "keys.txt"
        store.write_text("0110100111010010\n1111000011110000\n")
        keys.write_text("0110100111010010\n0110100111010011\n")
        code, out = run_cli(
            ["--set", "i_rwl_exact_uA=4.1", "tcam", "search", "--mode", "exact",
             "--store", str(store), "--keys", str(keys)],
            tmp_path,
        )
        assert code == 3
        payload = error_payload(capsys)
        assert payload["error_category"] == "validation"
        (message,) = payload["messages"]
        assert message.startswith("exact mode requires I_C,low < I_RWL < I_C,high")
        assert list(out.glob("*.csv")) == []

    @pytest.mark.parametrize("i_rwl", ["2.25", "4.1"])
    @pytest.mark.parametrize(
        "args",
        [
            ["device", "iv"],
            ["fe", "sweep"],
            ["tcam", "search", "--mode", "exact", "--store", "s", "--keys", "k"],
            ["tcam", "calibrate"],
            ["hdc", "train"],
            ["hdc", "infer", "--model", "m", "--text", "t"],
            ["hdc", "sweep"],
        ],
        ids=lambda args: " ".join(args[:2]),
    )
    def test_every_command_checks_the_state_tables_window(
        self, args, i_rwl, tmp_path, capsys
    ):
        # config once checked the fully written device's (2.11, 4.19) uA,
        # so device iv and hdc sweep ran where every array command failed
        code, out = run_cli(["--set", f"i_rwl_exact_uA={i_rwl}", *args], tmp_path)
        assert code == 3
        (message,) = error_payload(capsys)["messages"]
        assert message.startswith("exact mode requires I_C,low < I_RWL < I_C,high")
        assert message.endswith("window (2.304e-06, 4.037e-06) A")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("setting", "message"),
        [
            ("r_n_ohm=1e-306", "critical current undefined at t_op=4.0 K"),
            ("t_op_K=1e-305", "critical current undefined at t_op=1e-305 K"),
            ("fe_sigma_v_V=1e308", "v_c + 5 sigma_v = inf V gives no finite grid"),
        ],
        ids=["r_n", "t_op", "sigma"],
    )
    def test_extreme_in_range_value_exits_3(
        self, setting, message, tmp_path, capsys
    ):
        # a ZeroDivisionError traceback or numpy overflow warnings once
        # escaped the one JSON error line
        code, out = run_cli(["--set", setting, "hdc", "sweep"], tmp_path)
        assert code == 3
        (line,) = error_payload(capsys)["messages"]
        assert line.startswith(message)
        assert not out.exists()

    def test_narrow_switching_spread_builds_without_warnings(self, tmp_path, capsys):
        # far hysterons' weight exponents once overflowed with a warning
        code, out = run_cli(
            ["--set", "fe_sigma_v_V=1e-300", "fe", "sweep", "--points-per-leg",
             "5", "--cycles", "1"],
            tmp_path,
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_negative_i_max_names_the_flag(self, tmp_path, capsys):
        code, out = run_cli(
            ["device", "iv", "--i-max-uA", "-5", "--points", "3"], tmp_path
        )
        assert code == 3
        assert error_payload(capsys)["messages"] == [
            "--i-max-uA must be >= 0, got -5.0"
        ]
        assert list(out.glob("*.csv")) == []

    def test_unconverged_rcsj_exits_4(self, tmp_path, capsys):
        code, _ = run_cli(
            ["--set", "rcsj_beta_c=25", "--set", "rcsj_settle_periods=1",
             "--set", "rcsj_average_periods=2", "device", "iv", "--model",
             "rcsj", "--state", "high", "--i-max-uA", "6.7", "--points", "2"],
            tmp_path,
        )
        assert code == 4
        payload = error_payload(capsys)
        assert payload["error_category"] == "numeric"
        # the running point at 1.6 I_C still relaxes on a beta_c timescale
        # and spends its 4.5 x 2 periods of steps before two periods agree
        assert payload["messages"] == [
            "time-average not converged at i=6.7e-06 A (i/I_C=1.6): 6 periods "
            "stepped within the budget of 9000 steps, last relative change "
            "0.0535 (tolerance 1e-07)"
        ]

    def test_out_naming_a_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("keep\n")
        code = main(["--out", str(path), "tcam", "calibrate"])
        assert code == 3
        payload = error_payload(capsys)
        assert payload["error_category"] == "validation"
        assert payload["messages"] == [
            f"cannot create output directory {path}: File exists"
        ]
        assert path.read_text() == "keep\n"

    def test_out_under_a_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("keep\n")
        code = main(["--out", str(path / "x"), "tcam", "calibrate"])
        assert code == 3
        payload = error_payload(capsys)
        assert payload["error_category"] == "validation"
        assert payload["messages"] == [
            f"cannot create output directory {path / 'x'}: Not a directory"
        ]

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("CRYOCAM_OUT", str(target))
        code = main(["tcam", "calibrate"])
        assert code == 0
        assert (target / "tcam_calibrate.json").exists()


def _parsers(parser, words=()):
    """(command words, parser) for ``parser`` and every subparser under it."""
    yield list(words), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, (*words, name))


# (command words, flag, type, op, bound) of every declared numeric flag
FLAGS = [
    (words, flag, next(a.type for a in p._actions if a.dest == dest), op, bound)
    for words, p in _parsers(cli._build_parser())
    for flag, dest, op, bound in p.get_default("ranges") or ()
]


def _just_outside(entry) -> list:
    """Values just outside a declared flag's range; for a float flag, NaN
    and the infinities too."""
    _, _, kind, op, bound = entry
    lo, hi = bound if op == "in" else (bound, math.inf)
    if kind is int:
        return [lo - (op == ">=")]
    values = [math.nan, math.inf, -math.inf]
    if math.isfinite(lo):
        values.append(float(lo) if op == ">" else math.nextafter(lo, -math.inf))
    if math.isfinite(hi):
        values.append(math.nextafter(hi, math.inf))
    return values


def _flag_values(outside: bool):
    """One (flag entry, value) pair per declared flag, the value inside
    its range or outside it.  A draw may also take the value at an end of
    the range or just outside it, so an example can meet every bound."""

    def for_flag(entry):
        _, _, kind, op, bound = entry
        lo, hi = bound if op == "in" else (bound, math.inf)
        if outside:
            beyond = st.sampled_from(_just_outside(entry))
            if kind is int:
                return beyond | st.integers(max_value=lo - (op == ">="))
            if math.isfinite(lo):
                beyond |= st.floats(max_value=lo, exclude_max=op != ">")
            if math.isfinite(hi):
                beyond |= st.floats(min_value=hi, exclude_min=True)
            return beyond
        if kind is int:
            lowest = lo + (op == ">")
            return st.just(lowest) | st.integers(min_value=lowest)
        top = sys.float_info.max
        first = math.nextafter(lo, math.inf) if op == ">" else float(lo)
        first, last = max(first, -top), min(float(hi), top)
        return st.sampled_from([first, last]) | st.floats(first, last)

    return st.tuples(*(st.tuples(st.just(entry), for_flag(entry)) for entry in FLAGS))


def _flag_message(flag, x, op, bound) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return f"{flag} must be finite, got {x}"
    return f"{flag} must be {op} {bound}, got {x}"


class TestFlagRanges:
    def test_every_numeric_flag_declares_its_range(self):
        # a flag added with a bare add_argument(type=int) would go unchecked
        for words, parser in _parsers(cli._build_parser()):
            numeric = [a.dest for a in parser._actions if a.type in (int, float)]
            declared = [dest for _, dest, *_ in parser.get_default("ranges") or ()]
            assert numeric == declared, words
        assert len({flag for _, flag, *_ in FLAGS}) == 13

    @pytest.mark.parametrize(
        ("entry", "value"),
        [
            pytest.param(entry, x, id=f"{' '.join(entry[0])} {entry[1]}={x!r}")
            for entry in FLAGS
            for x in _just_outside(entry)
        ],
    )
    def test_value_outside_a_flags_range_exits_3(
        self, entry, value, tmp_path, capsys
    ):
        words, flag, _, op, bound = entry
        code, out = run_cli([*words, f"{flag}={value!r}"], tmp_path)
        assert code == 3
        payload = error_payload(capsys)
        assert payload["error_category"] == "validation"
        assert payload["messages"] == [_flag_message(flag, value, op, bound)]
        assert not out.exists()

    @pytest.mark.parametrize(
        ("args", "messages"),
        [
            # the library once answered "corpus sizes must all be >= 1"
            (["hdc", "train", "--classes", "0", "--text-len", "0"],
             ["--classes must be >= 1, got 0", "--text-len must be >= 1, got 0"]),
            # the first bad flag once hid the others
            (["hdc", "sweep", "--d", "0", "--block", "0", "--match", "1.5"],
             ["--d must be >= 1, got 0", "--block must be >= 1, got 0",
              "--match must be in [0, 1], got 1.5"]),
        ],
        ids=["train-corpus", "sweep"],
    )
    def test_every_bad_flag_is_listed_in_one_line(
        self, args, messages, tmp_path, capsys
    ):
        code, out = run_cli(args, tmp_path)
        assert code == 3
        assert error_payload(capsys)["messages"] == messages
        assert not out.exists()

    @given(pairs=_flag_values(outside=False))
    def test_in_range_value_passes(self, pairs):
        for (_, flag, _, op, bound), x in pairs:
            assert range_problem(flag, x, op, bound) is None

    @given(pairs=_flag_values(outside=True))
    def test_out_of_range_value_names_the_flag(self, pairs):
        for (_, flag, _, op, bound), x in pairs:
            message = _flag_message(flag, x, op, bound)
            assert range_problem(flag, x, op, bound) == message


class TestOneStateTableWalk:
    """Config validation walks the Preisach state table once, and every
    array the command then builds shares that table."""

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        real = tcam._state_table

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tcam, "_state_table", counted)
        return calls

    @pytest.mark.parametrize(
        "args",
        [
            ["device", "iv", "--points", "3"],
            ["tcam", "search", "--mode", "exact", "--store", "words.txt",
             "--keys", "keys.txt"],
            ["tcam", "calibrate"],
        ],
        ids=lambda args: " ".join(args[:2]),
    )
    def test_each_array_command_walks_once(self, args, walks, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("words.txt").write_text("0101\n1100\n")
        Path("keys.txt").write_text("01d1\n")
        code, _ = run_cli(args, tmp_path)
        assert code == 0
        assert len(walks) == 1

    def test_arrays_of_one_config_are_independent(self, walks):
        cfg = build_config({"v_write_V": "1.5"})
        first, second = cfg.make_array(2, 3), cfg.make_array(4, 1)
        assert len(walks) == 1
        assert (second.rows, second.cols, second.ids.shape) == (4, 1, (4, 1, 2))
        assert first.bias == second.bias == cfg.bias()
        write_bit(first, 0, 0, 1)
        assert not second.ids.any()
        fresh = TcamArray(2, 3, fe_model=cfg.fe_model(), sc=cfg.superconductor(),
                          t_op=cfg["t_op_K"], bias=cfg.bias())
        write_bit(fresh, 0, 0, 1)
        assert first.remnant_signs() == fresh.remnant_signs()
        assert first.exact_window == fresh.exact_window
