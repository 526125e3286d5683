import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import ftnetlab.cli as cli
from conftest import sample_models
from ftnetlab.activations import HOLSIN, RELU
from ftnetlab.constructions import EMBEDDING_CSV_HEADER
from ftnetlab.embeddings import random_crnet
from ftnetlab.errors import ContractViolationError
from ftnetlab.models import FNNParams, RNNParams, load_model, model_to_dict, save_model
from ftnetlab.optimize import random_fftnet


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sample_fnn(rng):
    return FNNParams(2, 3, rng.standard_normal((3, 2)), rng.standard_normal(3),
                     rng.standard_normal(3), RELU)


def _sample_rnn(rng):
    return RNNParams(3, 2, rng.standard_normal((2, 3)),
                     0.3 * rng.standard_normal((2, 2)), rng.standard_normal(2),
                     rng.standard_normal(2), np.zeros(2), RELU)


# (kind, field) for every field a model file must hold; the state and the
# modrelu bias have defaults
_REQUIRED_FIELDS = [(kind, key) for kind, d in sample_models().items() for key in d
                    if key not in ("r0", "m0", "q0", "activation_bias")]


class TestConvert:
    def test_fnn_to_fftnet(self, tmp_path, rng, capsys):
        save_model(tmp_path / "fnn.json", _sample_fnn(rng))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "fnn.json"), "target": "fftnet",
            "mode": "zrelu", "out_model": "out.json", "probes": 20})
        rc = cli.main(["convert", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == EMBEDDING_CSV_HEADER
        converted = load_model(tmp_path / "out.json")
        assert model_to_dict(converted)["kind"] == "fftnet"
        assert converted.H == max(3, 2 + 1)

    def test_rnn_header_width(self, tmp_path, rng, capsys):
        r = _sample_rnn(rng)
        save_model(tmp_path / "rnn.json", r)
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "rnn.json"), "target": "rftnet",
            "out_model": "out.json"})
        rc = cli.main(["convert", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        converted = json.loads((tmp_path / "out.json").read_text())
        assert converted["H"] == 2 * r.HR + r.I + 1

    def test_rnn_probes_report_gap(self, tmp_path, rng, capsys):
        save_model(tmp_path / "rnn.json", _sample_rnn(rng))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "rnn.json"), "target": "rftnet",
            "out_model": "out.json", "probes": 20})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = dict(zip(EMBEDDING_CSV_HEADER.split(","),
                       capsys.readouterr().out.strip().splitlines()[1].split(",")))
        assert row["T"] == "10"
        assert float(row["max_abs_output_gap"]) <= 1e-12

    def test_contract_breaking_model_rejected(self, tmp_path):
        # crnet with odd input dimension: parses, but violates the contract
        bad = {"kind": "crnet", "I": 3, "H": 1, "activation": "zrelu",
               "W_re": [[1.0]], "W_im": [[0.0]], "b_re": [0.0], "b_im": [0.0],
               "alpha_re": [1.0], "alpha_im": [0.0]}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unsupported_pair(self, tmp_path, rng):
        save_model(tmp_path / "fnn.json", _sample_fnn(rng))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "fnn.json"), "target": "rftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unparseable_model(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "junk.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_missing_config(self, tmp_path):
        assert cli.main(["convert", "--config", str(tmp_path / "nope.json")]) == 3

    @pytest.mark.parametrize("key,value", [
        ("W", [["x"] * 3] * 3),              # a non-numeric entry
        ("alpha", [1.0, [2.0, 3.0], 4.0]),   # ragged
        ("V", {"re": 1.0}),                  # not an array at all
    ])
    def test_malformed_array_rejected(self, tmp_path, rng, capsys, key, value):
        model = model_to_dict(random_fftnet(2, 3, HOLSIN, 0.3, rng))
        (tmp_path / "bad.json").write_text(json.dumps({**model, key: value}))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad model: {key}: ")

    @pytest.mark.parametrize("kind,field", _REQUIRED_FIELDS)
    def test_missing_field_rejected_by_name(self, tmp_path, capsys, kind, field):
        model = sample_models()[kind]
        del model[field]
        (tmp_path / "bad.json").write_text(json.dumps(model))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: bad model: {field}: missing required field"]

    @pytest.mark.parametrize("key", ["W", "b", "alpha"])
    def test_mismatched_re_im_shapes_rejected(self, tmp_path, capsys, key):
        model = model_to_dict(random_crnet(np.random.default_rng(3)))
        model[f"{key}_im"] = np.atleast_2d(model[f"{key}_im"]).tolist() + [[0.0]]
        (tmp_path / "bad.json").write_text(json.dumps(model))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad model: {key}_im: ")

    @pytest.mark.parametrize("target,model_sha,row_sha", [
        ("fftnet", "a2204fde77075bfa9873d53cd354cd98c22cd29455890bf8deec44a3c94a3f3e",
         "c164d9ff1ca4f9d970a273a5cebc66c5104b0ab14f5892cde87505526528cc53"),
        ("rftnet", "09d25d51d00d65a6313e54051f30de470b127f70cb16771ab50799d569c206d1",
         "bd002b972ca8bbe1d81e17f8c391c1645e99a7804f3ff8b373de8261d24f5557"),
    ])
    def test_golden_outputs(self, tmp_path, capsys, target, model_sha, row_sha):
        """Pins the bytes of a saved random CRNet, its conversion and the gap row."""
        save_model(tmp_path / "crnet.json", random_crnet(np.random.default_rng(3)))
        assert _sha256((tmp_path / "crnet.json").read_bytes()) == (
            "8e2e3a92798340af8024bc9563045cb0186b55d31ba62fab7810ac6bf9581672")
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "crnet.json"), "target": target,
            "out_model": "out.json", "probes": 20})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert _sha256((tmp_path / "out.json").read_bytes()) == model_sha
        assert _sha256(row.encode()) == row_sha


class TestVerify:
    def test_small_sweep_passes(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "v.json", {
            "seed": 5, "instances": 4, "probes": 10, "sequence_length": 4,
            "assemblies": 3})
        rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "verify.csv").read_text().strip().splitlines()
        assert lines[0] == EMBEDDING_CSV_HEADER
        assert len(lines) == 1 + 6 * 4 + 3

    def test_corrupted_construction_fails_with_replay(self, tmp_path, monkeypatch):
        import ftnetlab.constructions as cons

        original = cons.crnet_to_fftnet

        def corrupted(crn):
            p = original(crn)
            w = p.W.copy()
            w[0] *= -1.0  # sabotage one row
            return type(p)(p.I, p.H, w, p.V, p.alpha, p.activation)

        monkeypatch.setattr(cli.cons, "crnet_to_fftnet", corrupted)
        cfg = _write_config(tmp_path, "v.json", {
            "seed": 5, "instances": 3, "probes": 10,
            "pairs": ["crnet_to_fftnet"]})
        rc = cli.main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        replays = list(tmp_path.glob("replay_crnet_to_fftnet_*.json"))
        assert replays
        payload = json.loads(replays[0].read_text())
        assert payload["model"]["kind"] == "crnet"

    def test_zero_tolerance_reports_rounding(self, tmp_path):
        cfg = _write_config(tmp_path, "v.json", {
            "seed": 5, "instances": 3, "probes": 10, "tolerance": 0.0,
            "pairs": ["crnet_to_fftnet"]})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_unknown_pair_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, "v.json", {"pairs": ["mlp_to_fftnet"]})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("extra", [{"instances": 0, "assemblies": 0}, {"pairs": []},
                                       {"instances": 0, "pairs": ["rnn_to_rftnet"]},
                                       {"pairs": "rnn_to_rftnet"}, {"pairs": ["rnn_to_rftnet", 3]},
                                       {"instances": -1}, {"probes": 0}])
    def test_empty_or_malformed_campaign_rejected(self, tmp_path, capsys, extra):
        cfg = _write_config(tmp_path, "v.json", {"probes": 5, **extra})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "verify.csv").exists()

    def test_golden_outputs(self, tmp_path):
        """Pins the bytes of verify.csv and report.md for one small config."""
        vcfg = _write_config(tmp_path, "v.json", {
            "seed": 5, "instances": 3, "probes": 5, "sequence_length": 3,
            "assemblies": 2})
        assert cli.main(["verify", "--config", vcfg, "--out", str(tmp_path)]) == 0
        rcfg = _write_config(tmp_path, "r.json", {
            "verify_csv": str(tmp_path / "verify.csv")})
        assert cli.main(["report", "--config", rcfg, "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("verify.csv", "report.md")}
        assert digests == {
            "verify.csv": "17b119836b63fdd854dd6bdfaab965301884a93a5eb724e318240ede7e7d3f7b",
            "report.md": "5ca06d1674b26f0707335903cea22b9e7637b6244ef359fdff89f842ff8ea70e",
        }

    def test_deterministic_csv(self, tmp_path):
        cfg = _write_config(tmp_path, "v.json", {
            "seed": 9, "instances": 3, "probes": 5, "sequence_length": 3,
            "assemblies": 2, "csv_name": "a.csv"})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        cfg2 = _write_config(tmp_path, "v2.json", {
            "seed": 9, "instances": 3, "probes": 5, "sequence_length": 3,
            "assemblies": 2, "csv_name": "b.csv"})
        assert cli.main(["verify", "--config", cfg2, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestTrain:
    def test_sin_fit_loose_target(self, tmp_path):
        cfg = _write_config(tmp_path, "t.json", {
            "demo": "sin_fit", "H": 8, "samples": 64, "iters": 300,
            "target_mse": 0.05, "seed": 1})
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sin_fit_model.json").exists()
        trace = (tmp_path / "sin_fit_trace.jsonl").read_text().strip().splitlines()
        losses = [json.loads(l)["loss"] for l in trace]
        assert losses == sorted(losses, reverse=True)

    def test_unreachable_target(self, tmp_path):
        cfg = _write_config(tmp_path, "t.json", {
            "demo": "sin_fit", "H": 4, "samples": 32, "iters": 3,
            "target_mse": 1e-12, "seed": 1})
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert (tmp_path / "sin_fit_trace.jsonl").exists()

    def test_same_seed_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            cfg = _write_config(tmp_path, f"t{sub}.json", {
                "demo": "sin_fit", "H": 6, "samples": 32, "iters": 50,
                "target_mse": 0.05, "seed": 3})
            rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / sub)])
            assert rc in (0, 1)
        assert ((tmp_path / "a" / "sin_fit_trace.jsonl").read_bytes()
                == (tmp_path / "b" / "sin_fit_trace.jsonl").read_bytes())
        assert ((tmp_path / "a" / "sin_fit_model.json").read_bytes()
                == (tmp_path / "b" / "sin_fit_model.json").read_bytes())

    def test_dods_demo(self, tmp_path):
        cfg = _write_config(tmp_path, "t.json", {
            "demo": "dods_linear", "H": 12, "sequences": 16, "iters": 4000,
            "target_mse": 2e-2, "seed": 0})
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "dods_linear_summary.json").read_text())
        assert summary["reached"]

    def test_unknown_demo(self, tmp_path):
        cfg = _write_config(tmp_path, "t.json", {"demo": "mnist"})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("demo,files", [
        ({"demo": "sin_fit", "H": 8, "samples": 32, "target_mse": 0.02}, {
            "sin_fit_model.json":
                "172c9fcb388f6f093f601cd1b15075c6d561f39ee38b79a31a44851062f581c5",
            "sin_fit_trace.jsonl":
                "3f35ae1c95288444964b116893ec544940ff1b9c1fa8bea54781a001ac4904a7",
            "sin_fit_summary.json":
                "6130ab90c4b57505f959cb69dcc6cfaa1cd72a749fc7889fd72f30d1fdc73032"}),
        ({"demo": "dods_linear", "H": 6, "sequences": 4, "T": 3, "target_mse": 0.01}, {
            "dods_model.json":
                "d25614e06536758902419726360e55f9a4bd0e1c959c2539d7d7f2e53fdd313f",
            "dods_trace.jsonl":
                "98dc71c6e317a0982bd80feaf4f90645e9dc471dc0360df4eae60e2f03b4281c",
            "dods_linear_summary.json":
                "1eee7c107db5e91984fa15ba872cd34f7ed8c0862aaa8adfbc1d2c9528511369"}),
    ], ids=["sin_fit", "dods_linear"])
    def test_golden_outputs(self, tmp_path, demo, files):
        """Pins the bytes of a small training run: model, loss trace, summary."""
        cfg = _write_config(tmp_path, "t.json", {**demo, "seed": 0})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in files}
        assert digests == files

    def test_divergence_is_one_line(self, tmp_path, capsys):
        # seed 19 draws a start whose loss is not finite
        cfg = _write_config(tmp_path, "t.json", {
            "demo": "dods_linear", "target_mse": 3e-5, "seed": 19})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: train dods_linear failed: initial loss is not finite")

    @pytest.mark.parametrize("extra", [{"demo": "sin_fit", "samples": 0},
                                       {"demo": "sin_fit", "iters": 0},
                                       {"demo": "dods_linear", "sequences": 0},
                                       {"demo": "dods_linear", "T": 0},
                                       {"demo": "dods_linear", "iters": -3}])
    def test_sizes_below_one_rejected(self, tmp_path, capsys, extra):
        cfg = _write_config(tmp_path, "t.json", extra)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        key = next(k for k in extra if k != "demo")
        assert len(err) == 1 and err[0].startswith(f"error: {key}: expected a value >= 1")

    @pytest.mark.parametrize("loss", ["squared", {"loss": "param_cosh", "a": "x"},
                                      {"loss": "param_cosh", "a": float("nan")},
                                      {"loss": "param_cosh", "b": float("inf")},
                                      {"loss": "param_cosh", "c": -float("inf")}],
                             ids=["squared", "loss1", "nan", "inf", "-inf"])
    def test_malformed_loss_rejected(self, tmp_path, capsys, loss):
        cfg = _write_config(tmp_path, "t.json", {"demo": "sin_fit", "loss": loss})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_unwritable_output_is_an_io_failure(self, tmp_path, capsys):
        (tmp_path / "sin_fit_model.json").mkdir()  # the model file cannot be opened
        cfg = _write_config(tmp_path, "t.json", {
            "demo": "sin_fit", "H": 4, "samples": 8, "iters": 2, "seed": 1})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output: ")


class TestProbe:
    def test_small_campaign(self, tmp_path):
        cfg = _write_config(tmp_path, "p.json", {
            "n": 3, "I": 4, "instances": 6, "case2_instances": 3,
            "delta": 0.1, "seed": 2})
        rc = cli.main(["probe", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "probe.csv").read_text().strip().splitlines()
        assert lines[0] == cli.PROBE_CSV_HEADER
        assert len(lines) == 7
        cases = {line.split(",")[1] for line in lines[1:]}
        assert cases == {"alpha_nonzero", "alpha_zero"}
        assert all(line.split(",")[5] == "true" for line in lines[1:])
        jsonl = (tmp_path / "probe_results.jsonl").read_text().strip().splitlines()
        assert len(jsonl) == 6
        first = json.loads(jsonl[0])
        assert first["found"] and "deltaZ_re" in first

    def test_oversized_sample_count_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, "p.json", {"n": 9, "I": 4})
        assert cli.main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_zero_loss_instances_filtered_with_note(self, tmp_path, monkeypatch, capsys):
        calls = {"count": 0}
        real = cli.empirical_loss

        def mostly_zero(p, data, spec):
            calls["count"] += 1
            return 0.0 if calls["count"] == 1 else real(p, data, spec)

        monkeypatch.setattr(cli, "empirical_loss", mostly_zero)
        cfg = _write_config(tmp_path, "p.json", {
            "n": 2, "I": 3, "instances": 3, "case2_instances": 0, "seed": 4})
        rc = cli.main(["probe", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "filtered out" in out
        lines = (tmp_path / "probe.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 surviving instances

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, "p.json", {"n": 2, "I": 4, "gpu": True})
        assert cli.main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_golden_outputs(self, tmp_path):
        """Pins the bytes of a campaign that runs both probe cases."""
        cfg = _write_config(tmp_path, "p.json", {"n": 2, "I": 3, "instances": 4, "seed": 0})
        assert cli.main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 0
        digests = {name: _sha256((tmp_path / name).read_bytes())
                   for name in ("probe.csv", "probe_results.jsonl")}
        assert digests == {
            "probe.csv": "a47a71976f9803d4466ebc6c3881f2c4aecf07576c1f0ce20b4de658d35aee4d",
            "probe_results.jsonl":
                "197cdeb417379d89908dbb2cb293dea74a3050167ed709bdbbec154c08d94a06",
        }


class TestReport:
    def test_report_from_verify(self, tmp_path):
        vcfg = _write_config(tmp_path, "v.json", {
            "seed": 5, "instances": 3, "probes": 5, "sequence_length": 3,
            "assemblies": 2})
        assert cli.main(["verify", "--config", vcfg, "--out", str(tmp_path)]) == 0
        rcfg = _write_config(tmp_path, "r.json", {
            "verify_csv": str(tmp_path / "verify.csv")})
        assert cli.main(["report", "--config", rcfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "report.md").read_text()
        assert "max{H_F, I+1}" in text
        assert "2H_R + I + 1" in text
        assert "NOT-VERIFIED" in text

    def test_missing_input(self, tmp_path):
        rcfg = _write_config(tmp_path, "r.json", {
            "verify_csv": str(tmp_path / "nothing.csv")})
        assert cli.main(["report", "--config", rcfg, "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("row", ["fnn,fftnet,2,1,3", "fnn,fftnet,2,1,3,3,16,21,0.0,9",
                                     "fnn,fftnet,2,1,3,3,16,21,tiny"])
    def test_malformed_row_rejected(self, tmp_path, capsys, row):
        good = "fnn,fftnet,2,1,3,3,16,21,0.0"
        (tmp_path / "v.csv").write_text(f"{EMBEDDING_CSV_HEADER}\n{good}\n{row}\n")
        rcfg = _write_config(tmp_path, "r.json", {"verify_csv": str(tmp_path / "v.csv")})
        assert cli.main(["report", "--config", rcfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "line 3" in err[0]

    @pytest.mark.parametrize("text,line", [
        (f"{EMBEDDING_CSV_HEADER}\n", "no data rows"),
        ("", "line 1"),
        (EMBEDDING_CSV_HEADER.replace("gap", "err") + "\nfnn,fftnet,2,1,3,3,16,21,0.0\n",
         "line 1"),
        ("fnn,fftnet,2,1,3,3,16,21,0.0\n", "line 1"),
    ], ids=["header_only", "empty", "wrong_header", "no_header"])
    def test_bad_header_or_no_rows_rejected(self, tmp_path, capsys, text, line):
        (tmp_path / "v.csv").write_text(text)
        rcfg = _write_config(tmp_path, "r.json", {"verify_csv": str(tmp_path / "v.csv")})
        assert cli.main(["report", "--config", rcfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and line in err[0]
        assert not (tmp_path / "report.md").exists()

    def test_blank_gaps_reported_as_unmeasured(self, tmp_path):
        rows = ["rnn,rftnet,3,10,2,8,14,136,", "rnn,rftnet,3,10,2,8,14,136,"]
        (tmp_path / "v.csv").write_text("\n".join([EMBEDDING_CSV_HEADER, *rows]) + "\n")
        rcfg = _write_config(tmp_path, "r.json", {"verify_csv": str(tmp_path / "v.csv")})
        assert cli.main(["report", "--config", rcfg, "--out", str(tmp_path)]) == 0
        assert "any rnn (2 instances, no gap measured)" in (tmp_path / "report.md").read_text()


_COMMAND_BASES = {
    "verify": {"instances": 1, "assemblies": 0, "probes": 2, "sequence_length": 2,
               "pairs": ["rnn_to_rftnet"]},
    "train": {"demo": "sin_fit", "H": 4, "samples": 8, "iters": 2},
    "train_rec": {"demo": "dods_linear", "H": 4, "sequences": 2, "T": 2, "iters": 2},
    "probe": {"n": 2, "I": 3, "instances": 1},
    "convert": {"target": "fftnet", "out_model": "out.json"},
}
_INT_KEYS = {
    "verify": ("seed", "instances", "assemblies", "probes", "sequence_length"),
    "train": ("seed", "H", "hidden", "samples", "iters"),
    "train_rec": ("sequences", "T"),
    "probe": ("seed", "n", "I", "instances", "case2_instances", "H"),
    "convert": ("seed", "probes"),
}
_FLOAT_KEYS = {
    "verify": ("tolerance",),
    "train": ("step_size", "init_scale", "target_mse"),
    "probe": ("delta", "init_scale"),
    "convert": ("c",),
}
_BAD_NUMBERS = ([(cmd, key, bad) for cmd, keys in _INT_KEYS.items() for key in keys
                 for bad in ("abc", True, 2.5, None)]
                + [(cmd, key, bad) for cmd, keys in _FLOAT_KEYS.items() for key in keys
                   for bad in ("abc", False, [1.0], float("nan"))])


def _numeric_argv(tmp_path, rng, command, cfg):
    if command == "convert":
        save_model(tmp_path / "fnn.json", _sample_fnn(rng))
        cfg = {"in_model": str(tmp_path / "fnn.json"), **cfg}
    path = _write_config(tmp_path, "cfg.json", cfg)
    return [command.removesuffix("_rec"), "--config", path, "--out", str(tmp_path / "o")]


class TestNumericConfig:
    @pytest.mark.parametrize("command,key,bad", _BAD_NUMBERS)
    def test_non_numbers_rejected_naming_the_key(self, tmp_path, rng, capsys,
                                                 command, key, bad):
        cfg = {**_COMMAND_BASES[command], key: bad}
        assert cli.main(_numeric_argv(tmp_path, rng, command, cfg)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        # train's undocumented alias of H is gone, so it is an unknown key now
        want = "unknown config key" if key == "hidden" else "expected "
        assert len(err) == 1 and err[0].startswith(f"error: {key}: {want}")

    @pytest.mark.parametrize("command", sorted(_COMMAND_BASES))
    def test_base_configs_run(self, tmp_path, rng, command):
        argv = _numeric_argv(tmp_path, rng, command, _COMMAND_BASES[command])
        assert cli.main(argv) in (0, 1)  # a two-step fit may miss its target

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        path = _write_config(tmp_path, "cfg.json", _COMMAND_BASES["probe"])
        assert cli.main(["probe", "--config", path, "--seed", "-1",
                         "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: seed: expected a value >= 0")


_STRING_KEYS = {
    "convert": ("in_model", "out_model", "target", "mode"),
    "verify": ("csv_name",),
    "train": ("demo", "activation"),
    "probe": ("activation",),
    "report": ("verify_csv", "out_name"),
}
_STRING_BASES = {**_COMMAND_BASES, "report": {"verify_csv": "verify.csv"}}


class TestStringConfig:
    @pytest.mark.parametrize("command,key,bad", [
        (cmd, key, bad) for cmd, keys in _STRING_KEYS.items() for key in keys
        for bad in (5, True, None, ["x"])])
    def test_non_strings_rejected_before_any_work(self, tmp_path, rng, capsys,
                                                  command, key, bad):
        cfg = {**_STRING_BASES[command], key: bad}
        assert cli.main(_numeric_argv(tmp_path, rng, command, cfg)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}: expected a string, ")
        assert not any((tmp_path / "o").iterdir())


class TestConfigValidation:
    def test_unknown_command_key(self):
        with pytest.raises(ContractViolationError, match="^cuda: unknown config key"):
            cli.resolve_config("verify", {"instances": 3, "cuda": 1})

    def test_missing_required(self):
        with pytest.raises(ContractViolationError, match="^target: missing required"):
            cli.resolve_config("convert", {"in_model": "x"})

    def test_clean_config(self):
        cfg = cli.resolve_config("probe", {"n": 2, "I": 3, "instances": 7})
        assert cfg["H"] == 3 + 1 and cfg["case2_instances"] == 7 // 2
        assert set(cfg) == set(cli.CONFIG_TABLES["probe"])

    @pytest.mark.parametrize("command,extra,message", [
        ("probe", {"delta": 1e308}, "delta: expected a value <= "),
        ("probe", {"init_scale": 1e30}, "init_scale: expected a value <= "),
        ("train", {"init_scale": 1e30}, "init_scale: expected a value <= "),
        ("train", {"sequences": "x"}, "sequences: does not apply to demo sin_fit"),
        ("train", {"T": []}, "T: does not apply to demo sin_fit"),
        ("train_rec", {"samples": 8}, "samples: does not apply to demo dods_linear"),
        ("train", {"hidden": 8}, "hidden: unknown config key"),
        ("verify", {"csv_name": "a\0.csv"}, "csv_name: expected a string"),
    ])
    def test_rejected_before_any_work(self, tmp_path, rng, capsys, command, extra, message):
        cfg = {**_COMMAND_BASES[command], **extra}
        assert cli.main(_numeric_argv(tmp_path, rng, command, cfg)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not any((tmp_path / "o").iterdir())



_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_README_KINDS = {int: "int", float: "float", str: "str", list: "list of str", dict: "object"}


def _readme_table(command: str) -> dict:
    """key -> cells of the README's config table for ``command``."""
    section = _README.split(f"#### `{command}`\n", 1)[1].split("\n#### ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    return {row[0].strip("`"): row[1:] for row in rows}


class TestReadme:
    @pytest.mark.parametrize("command", sorted(cli.CONFIG_TABLES))
    def test_every_key_documented(self, command):
        table, documented = cli.CONFIG_TABLES[command], _readme_table(command)
        assert set(documented) == set(table)
        for key, spec in table.items():
            assert documented[key][0] == _README_KINDS[spec.kind], key
            assert (documented[key][1] == "required") == (spec.default is None), key

    def test_examples_resolve(self):
        block = _README.split("#### Examples\n\n```jsonc\n", 1)[1].split("```", 1)[0]
        examples = [chunk.split("\n", 1) for chunk in block.split("// ")[1:]]
        assert sorted(head.split(".json")[0] for head, _ in examples) == sorted(cli.CONFIG_TABLES)
        for head, body in examples:
            cli.resolve_config(head.split(".json")[0], json.loads(body))
