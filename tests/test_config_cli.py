"""Config parsing/validation and the command-line surface."""

import json

import pytest

from cryocam.cli import main
from cryocam.config import DEFAULTS, build_config, parse_config
from cryocam.errors import ConfigError
from cryocam.hdc import save_model, synthetic_corpus, train
from cryocam.tcam import BiasConfig


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
        assert cfg.htron().r_off == pytest.approx(50e3)
        assert cfg.fe_model().p_s == pytest.approx(0.30)
        low, high = cfg.critical_window()
        assert 2.0e-6 < low < high < 4.5e-6

    def test_default_config_builds_default_row_record(self):
        cfg = build_config()
        assert cfg.bias() == BiasConfig()
        assert cfg.htron().t_switch == cfg.bias().t_search


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

    def test_calibrate_writes_pair(self, tmp_path):
        code, out = run_cli(["tcam", "calibrate"], tmp_path)
        assert code == 0
        payload = json.loads((out / "tcam_calibrate.json").read_text())
        assert payload["i_rwl_exact_uA"] == pytest.approx(3.1996, rel=1e-4)
        assert payload["r_fs_exact_ohm"] == pytest.approx(901.62, rel=1e-4)
        assert payload["binary_avg_aJ"] == pytest.approx(1.36, rel=1e-6)
        assert payload["ternary_avg_aJ"] == pytest.approx(26.5, rel=1e-6)

    def test_calibrate_round_trips_at_configured_gate(self, tmp_path):
        code, out = run_cli(
            ["--set", "ht_r_off_kohm=40", "tcam", "calibrate"], tmp_path
        )
        assert code == 0
        payload = json.loads((out / "tcam_calibrate.json").read_text())
        assert payload["binary_avg_aJ"] == pytest.approx(1.36, rel=1e-9)
        assert payload["ternary_avg_aJ"] == pytest.approx(26.5, rel=1e-9)


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

    def test_fe_sweep_emits_branch_column(self, tmp_path):
        code, out = run_cli(
            ["fe", "sweep", "--points-per-leg", "21", "--cycles", "1"], tmp_path
        )
        assert code == 0
        lines = (out / "fe_sweep.csv").read_text().splitlines()
        assert lines[0] == "v_V,p_C_m2,branch"
        branches = {l.split(",")[2] for l in lines[1:]}
        assert branches == {"up", "down"}

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

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("CRYOCAM_OUT", str(target))
        code = main(["tcam", "calibrate"])
        assert code == 0
        assert (target / "tcam_calibrate.json").exists()
