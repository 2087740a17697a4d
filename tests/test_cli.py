"""Command-line surface: argument handling, config files, exit codes."""

import json
import shutil

import numpy as np
import pytest

from weaklearn.cli import main, parse_layers
from weaklearn.model import ModelConfig, init_params, save_checkpoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    rc = main([
        "gen-synth", "--k", "6", "--img-size", "4", "--noise", "0.2",
        "--n-examples", "200", "--seed", "3", "--out-dir", str(root),
    ])
    assert rc == 0
    rc = main([
        "build-dict", "--captions", str(root / "captions.jsonl"),
        "--k", "6", "--stop-count", "0", "--out", str(root / "dict.tsv"),
    ])
    assert rc == 0
    return root


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    code, out, _ = run(capsys, ["--version"])
    assert code == 0
    assert out.startswith("weaklearn 0.1.0")
    for name in ("WLTENS1", "WLCKPT1", "weaklearn-dict v1"):
        assert name in out


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, ["nosuchcmd"])
    assert code == 1
    assert "error:" in err


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run(capsys, ["build-dict", "--k", "4"])
    assert code == 1
    assert "--captions" in err or "required" in err


def test_no_subcommand_prints_usage(capsys):
    code, _, err = run(capsys, [])
    assert code == 1
    assert "usage:" in err


def test_missing_config_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, [
        "train", "--config", str(tmp_path / "missing.toml"),
        "--data-dir", str(tmp_path), "--out-dir", str(tmp_path),
    ])
    assert code == 2
    assert "config not found" in err


def test_parse_layers():
    assert parse_layers("conv:3:8,fc:64") == [("conv", 3, 8), ("fc", 64)]
    assert parse_layers([["conv", 5, 4], ["fc", 32]]) == [("conv", 5, 4), ("fc", 32)]
    with pytest.raises(ValueError):
        parse_layers("dense:64")
    with pytest.raises(ValueError, match="^bad layer spec: 'fc:abc'$"):
        parse_layers("conv:3:8,fc:abc")
    with pytest.raises(ValueError, match="^bad layer spec: 'fc:8.9'$"):
        parse_layers([["conv", 5, 4], ["fc", 8.9]])


def test_check_bounds_json(capsys):
    code, out, err = run(capsys, ["check-bounds", "--k", "12", "--subset", "3",
                                  "--trials", "2000", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_holds"] and payload["lower_holds"]
    assert payload["mc_mean"] <= payload["log_z"] + 3 * payload["mc_stderr"]
    assert json.loads(err.splitlines()[0].removeprefix("config "))["k"] == 12


def test_grad_check_json(capsys):
    code, out, _ = run(capsys, ["grad-check", "--loss-kind", "one_vs_all", "--seed", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["loss_kind"] == "one_vs_all"
    assert payload["max_rel_err"] < 1e-5


def train_args(data_dir, out_dir, extra=()):
    return ["train", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
            "--max-epochs", "2", "--epoch-size", "200", "--batch-size", "20",
            "--seed", "5", *extra]


def test_pipeline_train_and_eval(capsys, data_dir, tmp_path):
    code, out, err = run(capsys, train_args(data_dir, tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["epochs"] == 2
    assert 0.0 <= summary["final_val_error"] <= 1.0
    ckpt = tmp_path / summary["checkpoint"]
    assert ckpt.exists()
    assert (tmp_path / "trainlog.jsonl").exists()
    config_lines = [l for l in err.splitlines() if l.startswith("config ")]
    resolved = json.loads(config_lines[-1].removeprefix("config "))
    assert resolved["train"]["max_epochs"] == 2
    assert resolved["model"]["layers"] == [["fc", 64], ["fc", 64]]

    code, out, _ = run(capsys, ["eval-words", "--ckpt", str(ckpt),
                                "--data", str(data_dir), "--k", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["metric"] == "precision_at_k"
    assert 0.0 <= report["value"] <= 1.0

    code, out, err = run(capsys, ["eval-probe", "--ckpt", str(ckpt), "--data", str(data_dir),
                                  "--lambda-grid", "0.001,0.1"])
    assert code == 0
    assert json.loads(out)["metric"] == "probe_accuracy"
    assert "selected lambda" in err
    assert "iterations to gradient norm" in err


def test_train_logs_one_config_line_first(capsys, data_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    with open(data / "captions.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "extra", "caption": "notaword", "image": "ex000"}) + "\n")
    code, _, err = run(capsys, train_args(data, tmp_path / "run", ["--full-softmax"]))
    assert code == 0
    lines = err.splitlines()
    assert [l for l in lines if l.startswith("config ")] == lines[:1]
    resolved = json.loads(lines[0].removeprefix("config "))
    assert resolved["train"]["full_softmax"] is True
    assert resolved["model"]["input_hwc"] == [4, 4, 1]
    assert lines[1] == "dropped 1 empty-label examples"


def test_config_file_json_equals_ini(capsys, data_dir, tmp_path):
    settings = {"train": {"max_epochs": 2, "epoch_size": 200, "batch_size": 20, "seed": 5},
                "model": {"layers": "fc:8", "embed_dim": 8}}
    json_cfg = tmp_path / "run.json"
    json_cfg.write_text(json.dumps(settings))
    ini_cfg = tmp_path / "run.ini"
    ini_cfg.write_text(
        "[train]\nmax_epochs = 2\nepoch_size = 200\nbatch_size = 20\nseed = 5\n"
        "[model]\nlayers = fc:8\nembed_dim = 8\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", str(json_cfg), "--data-dir", str(data_dir),
                 "--out-dir", str(out_a)]) == 0
    assert main(["train", "--config", str(ini_cfg), "--data-dir", str(data_dir),
                 "--out-dir", str(out_b)]) == 0
    capsys.readouterr()
    bytes_a = (out_a / "checkpoint.wlckpt").read_bytes()
    bytes_b = (out_b / "checkpoint.wlckpt").read_bytes()
    assert bytes_a == bytes_b


@pytest.mark.parametrize(
    "name, text, key",
    [
        ("run.ini", "[train]\nfull_softmax = False\n", "train.full_softmax: expected bool, got 'False'"),
        ("run.json", '{"train": {"full_softmax": "false"}}', "train.full_softmax: expected bool, got 'false'"),
        ("run.json", '{"train": {"batch_size": 64.9}}', "train.batch_size: expected int, got 64.9"),
        ("run.json", '{"model": {"embed_dims": 8, "layer": "fc:8"}}', "model.embed_dims: unknown key"),
        ("run.json", '{"trian": {"seed": 1}}', "unknown config sections: ['trian']"),
    ],
    ids=["ini-bool-as-text", "json-bool-as-text", "json-float-for-int", "unknown-model-key", "unknown-section"],
)
def test_config_values_are_checked_not_cast(capsys, data_dir, tmp_path, name, text, key):
    cfg = tmp_path / name
    cfg.write_text(text)
    code, _, err = run(capsys, train_args(data_dir, tmp_path / "run", ["--config", str(cfg)]))
    assert code == 2
    assert f"error: {cfg}: {key}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "name, text",
    [("run.ini", "[model]\nlayers = fc:8 %\n"), ("run.json", '{"model": {"layers": "fc:8 %"}}')],
    ids=["ini", "json"],
)
def test_config_layers_error_names_file_and_key_and_reads_percent_literally(capsys, data_dir, tmp_path, name, text):
    """An INI "%" is literal, as in JSON, so both formats reach the layer-spec check."""
    cfg = tmp_path / name
    cfg.write_text(text)
    code, _, err = run(capsys, train_args(data_dir, tmp_path / "run", ["--config", str(cfg)]))
    assert code == 2
    assert f"error: {cfg}: model.layers: bad layer spec: 'fc:8 %'" in err
    assert not (tmp_path / "run").exists()


def test_config_float_key_takes_an_int(capsys, data_dir, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"train": {"lr_init": 1, "full_softmax": True}}))
    code, _, err = run(capsys, train_args(data_dir, tmp_path / "run", ["--config", str(cfg)]))
    assert code == 0
    resolved = json.loads(err.splitlines()[0].removeprefix("config "))
    assert resolved["train"]["lr_init"] == 1.0 and resolved["train"]["full_softmax"] is True


def test_flags_override_config(capsys, data_dir, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 9, "epoch_size": 200,
                                         "batch_size": 20, "seed": 5}}))
    code, out, _ = run(capsys, ["train", "--config", str(cfg), "--data-dir", str(data_dir),
                                "--out-dir", str(tmp_path / "o"), "--max-epochs", "1"])
    assert code == 0
    assert json.loads(out)["epochs"] == 1


def test_word_level_eval_commands(capsys, data_dir, tmp_path):
    out_dir = tmp_path / "run"
    assert main(train_args(data_dir, out_dir)) == 0
    capsys.readouterr()
    ckpt = str(out_dir / "checkpoint.wlckpt")
    dict_path = str(data_dir / "dict.tsv")

    with open(data_dir / "dict.tsv") as fh:
        words = [line.split("\t")[0] for line in fh if not line.startswith("#")]
    assert len(words) == 6

    questions = tmp_path / "questions.txt"
    questions.write_text(f"{words[0]} {words[1]} {words[2]} {words[3]}\n"
                         f"{words[0]} {words[1]} {words[2]} notaword\n")
    code, out, _ = run(capsys, ["eval-analogy", "--ckpt", ckpt, "--dict", dict_path,
                                "--questions", str(questions)])
    assert code == 0
    report = json.loads(out)
    assert (report["n_items"], report["n_skipped"]) == (1, 1)

    pairs = tmp_path / "sims.txt"
    pairs.write_text(f"{words[0]} {words[1]} 3.5\n{words[0]} {words[2]} 1.0\n"
                     "# comment line\n\n")
    code, out, _ = run(capsys, ["eval-sim", "--ckpt", ckpt, "--dict", dict_path,
                                "--pairs", str(pairs)])
    assert code == 0
    assert json.loads(out)["metric"] == "spearman_similarity"

    bilingual = tmp_path / "bi.txt"
    bilingual.write_text(f"{words[0]} {words[1]}\n{words[2]} {words[3]}\n")
    code, out, _ = run(capsys, ["eval-translate", "--ckpt", ckpt, "--dict", dict_path,
                                "--pairs", str(bilingual), "--direction", "reverse"])
    assert code == 0
    assert json.loads(out)["metric"] == "translation_precision_reverse"

    bad = tmp_path / "bad.txt"
    bad.write_text("only two fields here extra\n")
    code, _, err = run(capsys, ["eval-sim", "--ckpt", ckpt, "--dict", dict_path,
                                "--pairs", str(bad)])
    assert code == 2
    assert f"{bad}: line 1: expected 3 fields" in err

    emb = tmp_path / "emb.csv"
    code, out, _ = run(capsys, ["dump-embeddings", "--ckpt", ckpt, "--dict", dict_path,
                                "--out", str(emb)])
    assert code == 0
    assert emb.exists() and (tmp_path / "emb_neighbors.json").exists()
    assert sum(1 for _ in open(emb)) == 6


def test_gen_synth_outputs(data_dir):
    assert (data_dir / "captions.jsonl").exists()
    assert (data_dir / "tensors.bin").exists()
    protos = np.load(data_dir / "prototypes.npy")
    assert protos.shape == (6, 4, 4, 1)
    with open(data_dir / "captions.jsonl") as fh:
        first = json.loads(fh.readline())
    assert set(first) == {"id", "caption", "image"}


def test_build_dict_bad_caption_line_exits_two(capsys, tmp_path):
    captions = tmp_path / "captions.jsonl"
    captions.write_text('{"id": "a", "caption": "red fox", "image": "a"}\nnot json\n', encoding="utf-8")
    code, _, err = run(capsys, ["build-dict", "--captions", str(captions),
                                "--out", str(tmp_path / "dict.tsv")])
    assert code == 2
    assert str(captions) in err and "line 2" in err
    assert not (tmp_path / "dict.tsv").exists()


def test_eval_on_truncated_checkpoint_exits_two_naming_it(capsys, tmp_path):
    ckpt = tmp_path / "cut.wlckpt"
    cfg = ModelConfig(input_hwc=(4, 4, 1), layers=[("fc", 3)], embed_dim=3)
    params = init_params(cfg, k=5, seed=1)
    save_checkpoint(str(ckpt), params, rng_algo="numpy-pcg64", rng_state={}, step=0, lr=0.1)
    ckpt.write_bytes(ckpt.read_bytes()[:-7])
    code, _, err = run(capsys, ["eval-sim", "--ckpt", str(ckpt), "--dict", str(tmp_path / "dict.tsv"),
                                "--pairs", str(tmp_path / "pairs.txt")])
    assert code == 2
    assert f"{ckpt}: array output.weight: truncated" in err


def test_train_stops_on_non_finite_loss(capsys, data_dir, tmp_path):
    with np.errstate(all="ignore"):
        code, _, err = run(capsys, train_args(data_dir, tmp_path, ["--lr-init", "10"]))
    assert code == 2
    assert "non-finite training loss at epoch 1, step" in err
    assert not (tmp_path / "checkpoint.wlckpt").exists()
    assert not (tmp_path / "trainlog.jsonl").exists()



def test_caption_with_unknown_image_names_its_line(capsys, data_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    captions = data / "captions.jsonl"
    n_lines = len(captions.read_text().splitlines())
    with open(captions, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "extra", "caption": "x", "image": "nope"}) + "\n")
    code, _, err = run(capsys, train_args(data, tmp_path / "run"))
    assert code == 2
    assert f"error: {captions}: line {n_lines + 1}: image id not in container: nope" in err


@pytest.mark.parametrize("field", ["caption", "id", "image"])
def test_caption_field_that_is_not_a_string_names_its_line(capsys, tmp_path, field):
    captions = tmp_path / "captions.jsonl"
    row = {"id": "b", "caption": "blue fox", "image": "b"}
    row[field] = 5
    captions.write_text('{"id": "a", "caption": "red fox", "image": "a"}\n' + json.dumps(row) + "\n")
    code, _, err = run(capsys, ["build-dict", "--captions", str(captions), "--out", str(tmp_path / "dict.tsv")])
    assert code == 2
    assert f"error: {captions}: line 2: id, caption and image must be strings" in err


@pytest.mark.parametrize(
    "entries, reason",
    [
        ("alpha\t5\nbeta\t3\ngamma\t4\n", "line 4: counts not non-increasing: 'gamma'"),
        ("alpha\t5\ngamma\t3\nbeta\t3\n", "line 4: tied counts not in ascending word order: 'beta'"),
        ("alpha\t5\nbeta\t3\nalpha\t2\n", "line 4: duplicate word: 'alpha'"),
        ("alpha\t5\n\nbeta\t0\ngamma\t0\n", "line 4: nonpositive count: 'beta'"),
    ],
    ids=["rising", "tie-order", "duplicate", "nonpositive"],
)
def test_dictionary_entry_at_fault_names_its_line(capsys, data_dir, tmp_path, entries, reason):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / "dict.tsv").write_text(f"#weaklearn-dict v1 K=3 stop=0\n{entries}", encoding="utf-8")
    code, _, err = run(capsys, train_args(data, tmp_path / "run"))
    assert code == 2
    assert f"error: {data / 'dict.tsv'}: {reason}" in err


@pytest.mark.parametrize("grid", ["nan", "inf", "-1", "0", "0.001,"])
def test_eval_probe_refuses_a_bad_lambda_grid(capsys, data_dir, tmp_path, grid):
    ckpt = tmp_path / "model.wlckpt"
    cfg = ModelConfig(input_hwc=(4, 4, 1), layers=[("fc", 3)], embed_dim=3)
    save_checkpoint(str(ckpt), init_params(cfg, k=6, seed=1), rng_algo="numpy-pcg64", rng_state={}, step=0, lr=0.1)
    code, out, err = run(capsys, ["eval-probe", "--ckpt", str(ckpt), "--data", str(data_dir),
                                  "--lambda-grid", grid])
    assert code == 2
    assert out == ""
    bad = grid.split(",")[-1]
    assert f"error: --lambda-grid: {bad!r} is not a finite number > 0" in err


def test_similarity_rating_that_is_not_a_number_names_its_line(capsys, data_dir, tmp_path):
    ckpt = tmp_path / "model.wlckpt"
    cfg = ModelConfig(input_hwc=(4, 4, 1), layers=[("fc", 3)], embed_dim=3)
    save_checkpoint(str(ckpt), init_params(cfg, k=6, seed=1), rng_algo="numpy-pcg64", rng_state={}, step=0, lr=0.1)
    pairs = tmp_path / "sims.txt"
    for rating in ("high", "nan"):
        pairs.write_text(f"# word1 word2 rating\nwa wb 3.5\nwa wc {rating}\n")
        code, _, err = run(capsys, ["eval-sim", "--ckpt", str(ckpt), "--dict", str(data_dir / "dict.tsv"),
                                    "--pairs", str(pairs)])
        assert code == 2
        assert f"error: {pairs}: line 3: not a finite number in 'wa wc {rating}'" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_refuses_a_non_finite_lr_init(capsys, data_dir, tmp_path, value):
    code, _, err = run(capsys, train_args(data_dir, tmp_path / "run", ["--lr-init", value]))
    assert code == 2
    assert "error: learning rates must be finite and positive" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "name, text, key",
    [
        ("run.json", '{"train": {"lr_floor": NaN}}', "train.lr_floor: expected a finite number, got nan"),
        ("run.ini", "[train]\nlr_init = Infinity\n", "train.lr_init: expected a finite number, got inf"),
    ],
    ids=["json-nan", "ini-infinity"],
)
def test_config_refuses_a_non_finite_float(capsys, data_dir, tmp_path, name, text, key):
    cfg = tmp_path / name
    cfg.write_text(text)
    code, _, err = run(capsys, train_args(data_dir, tmp_path / "run", ["--config", str(cfg)]))
    assert code == 2
    assert f"error: {cfg}: {key}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "name, text, where",
    [
        ("run.json", '{"train": {"seed": 1,}}', "line 1: Expecting property name enclosed in double quotes at column 22"),
        ("run.json", "\n [1, 2]\n", "line 2: config root must be an object"),
        ("run.ini", "[train]\nseed = 1\nlr_init\n", "line 3: expected key = value"),
        ("run.ini", "seed = 1\n", "line 1: key before any [section] header"),
        ("run.ini", "[train]\nseed = 1\nseed = 2\n", "line 3: repeated key 'seed' in [train]"),
        ("run.ini", "[train]\n[model]\n[train]\n", "line 3: repeated section [train]"),
    ],
    ids=["json-trailing-comma", "json-list-root", "ini-line-without-equals", "ini-no-section",
         "ini-repeated-key", "ini-repeated-section"],
)
def test_config_that_does_not_parse_names_its_file_and_line(capsys, data_dir, tmp_path, name, text, where):
    cfg = tmp_path / name
    cfg.write_text(text)
    code, _, err = run(capsys, train_args(data_dir, tmp_path / "run", ["--config", str(cfg)]))
    assert code == 2
    assert f"error: {cfg}: {where}" in err
    assert not (tmp_path / "run").exists()


def test_truncated_tensor_payload_exits_two_naming_the_file(capsys, data_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    tensors = data / "tensors.bin"
    raw = tensors.read_bytes()
    header_end = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    tensors.write_bytes(raw[: header_end + 20])
    code, _, err = run(capsys, train_args(data, tmp_path / "run"))
    assert code == 2
    assert f"error: {tensors}: dimension mismatch: payload shorter than n*h*w*c" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag", ["--noise", "--zipf"])
def test_gen_synth_refuses_a_non_finite_setting(capsys, tmp_path, flag):
    code, out, err = run(capsys, ["gen-synth", flag, "nan", "--n-examples", "20", "--out-dir", str(tmp_path / "d")])
    assert code == 2
    assert out == ""
    assert "must be finite and non-negative" in err
    assert not (tmp_path / "d").exists()


def test_build_dict_caption_byte_that_is_not_utf8_names_its_line(capsys, tmp_path):
    captions = tmp_path / "captions.jsonl"
    captions.write_bytes(b'{"id": "a", "caption": "red fox", "image": "a"}\n{"id": "b", "caption": "\xff", "image": "b"}\n')
    code, _, err = run(capsys, ["build-dict", "--captions", str(captions), "--out", str(tmp_path / "dict.tsv")])
    assert code == 2
    assert f"error: {captions}: line 2: byte 0xff is not UTF-8" in err
    assert not (tmp_path / "dict.tsv").exists()


def test_train_caption_byte_that_is_not_utf8_names_its_line(capsys, data_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    captions = data / "captions.jsonl"
    n_lines = len(captions.read_text().splitlines())
    with open(captions, "ab") as fh:
        fh.write(b'{"id": "extra", "caption": "caf\xe9", "image": "ex000"}\n')
    code, _, err = run(capsys, train_args(data, tmp_path / "run"))
    assert code == 2
    assert f"error: {captions}: line {n_lines + 1}: byte 0xe9 is not UTF-8" in err


def test_dictionary_byte_that_is_not_utf8_names_its_line(capsys, data_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    (data / "dict.tsv").write_bytes(b"#weaklearn-dict v1 K=3 stop=0\nalpha\t5\nbet\xc3\t3\ngamma\t2\n")
    code, _, err = run(capsys, train_args(data, tmp_path / "run"))
    assert code == 2
    assert f"error: {data / 'dict.tsv'}: line 3: byte 0xc3 is not UTF-8" in err


@pytest.mark.parametrize("name, text", [("run.json", b'{"train":\n {"seed": 1 \xff}}\n'), ("run.ini", b"[train]\nseed = 1 \xff\n")])
def test_config_byte_that_is_not_utf8_names_its_line(capsys, data_dir, tmp_path, name, text):
    cfg = tmp_path / name
    cfg.write_bytes(text)
    code, _, err = run(capsys, train_args(data_dir, tmp_path / "run", ["--config", str(cfg)]))
    assert code == 2
    assert f"error: {cfg}: line 2: byte 0xff is not UTF-8" in err


def test_word_list_byte_that_is_not_utf8_names_its_line(capsys, data_dir, tmp_path):
    ckpt = tmp_path / "model.wlckpt"
    cfg = ModelConfig(input_hwc=(4, 4, 1), layers=[("fc", 3)], embed_dim=3)
    save_checkpoint(str(ckpt), init_params(cfg, k=6, seed=1), rng_algo="numpy-pcg64", rng_state={}, step=0, lr=0.1)
    pairs = tmp_path / "pairs.txt"
    pairs.write_bytes(b"wa wb\nwa \xffwc\n")
    code, _, err = run(capsys, ["eval-translate", "--ckpt", str(ckpt), "--dict", str(data_dir / "dict.tsv"),
                                "--pairs", str(pairs)])
    assert code == 2
    assert f"error: {pairs}: line 2: byte 0xff is not UTF-8" in err
