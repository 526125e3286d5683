import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import ftnetlab.cli as cli
import ftnetlab.constructions as cons
import ftnetlab.losses as losses
import ftnetlab.models as models
from conftest import pinned_for_kernel, sample_models, write_model
from ftnetlab.activations import CRELU, HOLSIN, IDENTITY, RELU, ZRELU
from ftnetlab.constructions import EMBEDDING_CSV_HEADER
from ftnetlab.embeddings import random_crnet
from ftnetlab.errors import ContractViolationError
from ftnetlab.models import FNNParams, RNNParams, model_from_dict, model_to_dict, read_json
from ftnetlab.optimize import ProbeResult, random_fftnet


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


# (kind, field) for every field a model file must hold; the state has a default
_REQUIRED_FIELDS = [(kind, key) for kind, d in sample_models().items() for key in d
                    if key not in ("r0", "m0", "q0")]


class TestConvert:
    def test_fnn_converts_to_an_fftnet_of_width_max_h_i_plus_1(self, tmp_path, rng, capsys):
        write_model(tmp_path / "fnn.json", _sample_fnn(rng))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "fnn.json"), "target": "fftnet",
            "out_model": "out.json", "probes": 20})
        rc = cli.main(["convert", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == EMBEDDING_CSV_HEADER
        converted = model_from_dict(read_json(tmp_path / "out.json"))
        assert model_to_dict(converted)["kind"] == "fftnet"
        assert converted.H == max(3, 2 + 1)

    def test_c_is_the_offset_written_as_the_imaginary_bias(self, tmp_path, rng, capsys):
        """c, default 1, is V's bias column, and any source whose real restriction
        at c is ReLU converts, crelu's too."""
        f = _sample_fnn(rng)
        for activation, extra, c in [(RELU, {"c": 0.5}, 0.5), (RELU, {}, 1.0), (CRELU, {}, 1.0)]:
            write_model(tmp_path / "fnn.json", FNNParams(f.I, f.H, f.W, f.b, f.alpha, activation))
            cfg = _write_config(tmp_path, "c.json", {
                "in_model": str(tmp_path / "fnn.json"), "target": "fftnet",
                "out_model": "out.json", "probes": 20, **extra})
            assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
            v = np.array(read_json(tmp_path / "out.json")["V"])
            assert v[: f.H, -1].tolist() == [c] * f.H, (activation.tag, extra)
            row = capsys.readouterr().out.splitlines()[1]
            assert float(row.split(",")[-1]) <= 1e-12

    def test_fnn_off_the_restriction_is_refused(self, tmp_path, rng, capsys):
        f = _sample_fnn(rng)
        write_model(tmp_path / "fnn.json", FNNParams(f.I, f.H, f.W, f.b, f.alpha, IDENTITY))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "fnn.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: identity is not the real restriction of zrelu at c=1.0\n")
        assert not (tmp_path / "out.json").exists()

    def test_rnn_source_is_checked_by_its_restriction(self, tmp_path, rng, capsys):
        """The RNN embedding reads zrelu at offset 1, so a crelu RNN, whose real
        restriction is ReLU, converts to the bytes of the same RNN labelled relu."""
        r = _sample_rnn(rng)
        outputs = []
        for activation in (RELU, CRELU):
            write_model(tmp_path / "rnn.json", RNNParams(r.I, r.H, r.W, r.V, r.b, r.alpha, r.m0,
                                                         activation))
            cfg = _write_config(tmp_path, "c.json", {
                "in_model": str(tmp_path / "rnn.json"), "target": "rftnet",
                "out_model": "out.json", "probes": 20})
            assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
            outputs.append(((tmp_path / "out.json").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_rnn_off_the_restriction_is_refused(self, tmp_path, rng, capsys):
        r = _sample_rnn(rng)
        write_model(tmp_path / "rnn.json", RNNParams(r.I, r.H, r.W, r.V, r.b, r.alpha, r.m0,
                                                     IDENTITY))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "rnn.json"), "target": "rftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: identity is not the real restriction of zrelu at c=1.0\n")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("kind", ["rnn", "additive", "crnet"])
    def test_a_recurrent_source_without_inputs_converts(self, tmp_path, kind, capsys):
        """With I = 0 the receptor's input block is empty, and holds no error."""
        h, w = 2, np.zeros((2, 0))
        source = {
            "rnn": RNNParams(0, h, w, 0.1 * np.eye(h), np.array([0.1, -0.2]), np.ones(h),
                             np.zeros(h), RELU),
            "additive": models.AdditiveFTNetParams(0, h, w, 0.1 * np.eye(h), np.zeros(h),
                                                   np.ones(h), np.zeros(h), HOLSIN, 1.0),
            "crnet": models.CRNetParams(0, h, w.astype(complex), np.array([0.1, -0.2j]),
                                        np.ones(h, dtype=complex), ZRELU),
        }[kind]
        write_model(tmp_path / "src.json", source)
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "src.json"), "target": "rftnet",
            "out_model": "out.json", "probes": 3})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == EMBEDDING_CSV_HEADER and len(rows) == 1
        assert float(rows[0].split(",")[-1]) <= 1e-12

    def test_rnn_header_width(self, tmp_path, rng, capsys):
        r = _sample_rnn(rng)
        write_model(tmp_path / "rnn.json", r)
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "rnn.json"), "target": "rftnet",
            "out_model": "out.json"})
        rc = cli.main(["convert", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        converted = json.loads((tmp_path / "out.json").read_text())
        assert converted["H"] == 2 * r.H + r.I + 1

    def test_rnn_probes_report_gap(self, tmp_path, rng, capsys):
        write_model(tmp_path / "rnn.json", _sample_rnn(rng))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "rnn.json"), "target": "rftnet",
            "out_model": "out.json", "probes": 20})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = dict(zip(EMBEDDING_CSV_HEADER.split(","),
                       capsys.readouterr().out.strip().splitlines()[1].split(",")))
        assert row["T"] == "10"
        assert float(row["max_abs_output_gap"]) <= 1e-12

    def test_overflowing_outputs_give_an_inf_gap(self, tmp_path, capsys):
        """Outputs that overflow are an inf gap, without a RuntimeWarning."""
        write_model(tmp_path / "fnn.json", FNNParams(1, 1, [[1e308]], [1e308], [1e308], RELU))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "fnn.json"), "target": "fftnet",
            "out_model": "out.json", "probes": 3})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert out.strip().splitlines()[1].split(",")[-1] == "inf"
        assert err == ""

    def test_a_huge_offset_warns_nothing(self, tmp_path, rng, capsys):
        """zrelu's gate reads sign(Re z) Im z, so the restriction check at
        c = 1e308 forms no overflowing product and stays silent."""
        write_model(tmp_path / "fnn.json", _sample_fnn(rng))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "fnn.json"), "target": "fftnet",
            "out_model": "out.json", "c": 1e308, "probes": 5})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_a_subnormal_offset_converts_exactly(self, tmp_path, rng, capsys):
        """At c = 5e-324 the gate product x c rounds to -0.0 for -0.5 <= x < 0,
        yet the exact gate still closes there, so ReLU is the restriction."""
        write_model(tmp_path / "fnn.json", _sample_fnn(rng))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "fnn.json"), "target": "fftnet",
            "out_model": "out.json", "c": 5e-324, "probes": 20})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert out.strip().splitlines()[1].split(",")[-1] == "0.0" and err == ""

    def test_mode_is_an_unknown_key(self, tmp_path, capsys):
        """The FNN offset is c alone; the old mode key is refused, not ignored."""
        (tmp_path / "m.json").write_text(json.dumps(sample_models()["fnn"]))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "m.json"), "target": "fftnet",
            "out_model": "out.json", "mode": "zrelu"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: mode: unknown config key for convert\n"
        assert not (tmp_path / "out.json").exists()

    def test_contract_breaking_model_rejected(self, tmp_path, capsys):
        # crnet with odd input dimension: parses, but violates the contract
        bad = {"kind": "crnet", "I": 3, "H": 1, "activation": "zrelu",
               "W_re": [[1.0]], "W_im": [[0.0]], "b_re": [0.0], "b_im": [0.0],
               "alpha_re": [1.0], "alpha_im": [0.0]}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: bad model: I: expected an even number, got 3"]

    def test_rejected_model_makes_no_out_dir(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text('{"kind": "fnn"}')
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path / "new/o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: bad model: I: missing required field"]
        assert not (tmp_path / "new").exists()

    def test_unsupported_pair(self, tmp_path, rng, capsys):
        """A target of the family table that no family reaches from the model
        file's kind fails on the model file, not as a config key."""
        write_model(tmp_path / "fnn.json", _sample_fnn(rng))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "fnn.json"), "target": "rftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unsupported conversion fnn -> rftnet"]

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

    @pytest.mark.parametrize("kind,state", [("rftnet", "r0"), ("rnn", "m0"),
                                            ("additive", "q0")])
    def test_missing_state_with_negative_size_rejected(self, tmp_path, capsys, kind, state):
        """The zeros a missing state defaults to are never sized by a bad H."""
        model = sample_models()[kind]
        del model[state]
        (tmp_path / "bad.json").write_text(json.dumps({**model, "H": -1}))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "rftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad model: ")

    @pytest.mark.parametrize("kind,edit,key", [
        ("rftnet", {"kind": "fftnet"}, "r0"),  # relabelled: the receptor would be dropped
        ("rnn", {"m_0": [1.0] * 3}, "m_0"),  # a misspelt state would be zeros
        ("fnn", {"activation": "modrelu", "activation_bais": 0.25}, "activation_bais"),
        ("fnn", {"activation_bias": 0.25}, "activation_bias"),  # relu reads no bias
        # modrelu's bias is a constant, so a file that still names one is refused
        ("fnn", {"activation": "modrelu", "activation_bias": -0.5}, "activation_bias"),
    ], ids=["relabelled", "misspelt_state", "misspelt_bias", "bias_of_relu",
            "bias_of_modrelu"])
    def test_field_the_kind_cannot_hold_rejected(self, tmp_path, capsys, kind, edit, key):
        model = sample_models()[kind]
        model.pop("m0", None)  # the rnn's state is optional: the misspelt case leaves it out
        (tmp_path / "bad.json").write_text(json.dumps({**model, **edit}))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "rftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: bad model: {key}: unexpected field"]
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("bad,message", [
        ([0.0], "W: expected shape (3, 2), got (1,)"),
        ([[float("nan")] * 2] * 3, "W: non-finite entries"),
    ], ids=["shape", "nan"])
    def test_bad_array_names_its_file_key(self, tmp_path, capsys, rng, bad, message):
        """Python's json reads NaN, so a file can hold one."""
        model = model_to_dict(_sample_fnn(rng))
        (tmp_path / "bad.json").write_text(json.dumps({**model, "W": bad}))
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "bad.json"), "target": "fftnet",
            "out_model": "out.json"})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: bad model: {message}"]

    @pytest.mark.parametrize("target,model_sha,row_by_kernel", [
        ("fftnet", "a2204fde77075bfa9873d53cd354cd98c22cd29455890bf8deec44a3c94a3f3e", {
            "SkylakeX": "c164d9ff1ca4f9d970a273a5cebc66c5104b0ab14f5892cde87505526528cc53",
            "Haswell": "c164d9ff1ca4f9d970a273a5cebc66c5104b0ab14f5892cde87505526528cc53",
            "Sandybridge": "060172dd88eb51e5479367c3fee08a21cdc300de61e3e9208b042a7a4f9ad490",
            "Nehalem": "060172dd88eb51e5479367c3fee08a21cdc300de61e3e9208b042a7a4f9ad490",
            "Katmai": "3ffde6ea1068b54506d17f49e8c9bcb30074b0bd9e503a921d1538a448b21cfb"}),
        ("rftnet", "09d25d51d00d65a6313e54051f30de470b127f70cb16771ab50799d569c206d1", {
            "SkylakeX": "bd002b972ca8bbe1d81e17f8c391c1645e99a7804f3ff8b373de8261d24f5557",
            "Haswell": "bd002b972ca8bbe1d81e17f8c391c1645e99a7804f3ff8b373de8261d24f5557",
            "Sandybridge": "0a0f80633913e91cf77d8f8dae53728d755fcd560f5290d0c7bd6cfa089dedc0",
            "Nehalem": "0a0f80633913e91cf77d8f8dae53728d755fcd560f5290d0c7bd6cfa089dedc0",
            "Katmai": "a60ff5a9f936fbfb5c695b369b9e911c3b707b1bd55d864fc6c447d2937c13b7"}),
    ], ids=["fftnet", "rftnet"])
    def test_golden_outputs(self, tmp_path, capsys, target, model_sha, row_by_kernel):
        """Pins the bytes of a saved random CRNet, its conversion and the gap row.
        Only the row's gap depends on the OpenBLAS kernel."""
        row_sha = pinned_for_kernel(row_by_kernel)
        write_model(tmp_path / "crnet.json", random_crnet(np.random.default_rng(3)))
        assert _sha256((tmp_path / "crnet.json").read_bytes()) == (
            "8e2e3a92798340af8024bc9563045cb0186b55d31ba62fab7810ac6bf9581672")
        cfg = _write_config(tmp_path, "c.json", {
            "in_model": str(tmp_path / "crnet.json"), "target": target,
            "out_model": "out.json", "probes": 20})
        assert cli.main(["convert", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert _sha256((tmp_path / "out.json").read_bytes()) == model_sha
        assert _sha256(row.encode()) == row_sha


@pytest.fixture(scope="module")
def default_verify_csv(tmp_path_factory) -> bytes:
    """The bytes of the CSV of one default verify sweep, shared by the tests that pin it."""
    out = tmp_path_factory.mktemp("default_verify")
    cfg = _write_config(out, "v.json", {})
    assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 0
    return (out / "verify.csv").read_bytes()


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

    def test_golden_outputs(self, tmp_path, default_verify_csv):
        """Pins the bytes of verify.csv and report.md for one small config, and of the
        default sweep's verify.csv."""
        vcfg = _write_config(tmp_path, "v.json", {
            "seed": 5, "instances": 3, "probes": 5, "sequence_length": 3,
            "assemblies": 2})
        assert cli.main(["verify", "--config", vcfg, "--out", str(tmp_path)]) == 0
        rcfg = _write_config(tmp_path, "r.json", {
            "verify_csv": str(tmp_path / "verify.csv")})
        assert cli.main(["report", "--config", rcfg, "--out", str(tmp_path)]) == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("verify.csv", "report.md")}
        digests["default verify.csv"] = _sha256(default_verify_csv)
        assert digests == pinned_for_kernel({
            "SkylakeX": {
                "verify.csv": "dedc910f83a1fc0ee6d2b5e88f50a235edf3a459a70b1d21c9d67786d6ffa2c2",
                "report.md": "5ca06d1674b26f0707335903cea22b9e7637b6244ef359fdff89f842ff8ea70e",
                "default verify.csv":
                    "d61ee47eff29fdb2ae63da9a522f1e5a17a6de381deb06d785df342ed723ca46"},
            "Haswell": {
                "verify.csv": "c6585e5967ed5b538aa849c0f9a03f94efad915d0714da4d550b3099919333b9",
                "report.md": "0152a7e0695237dc93ba21c532a014ae8380668ae5a6d65429c0da40914ed6c8",
                "default verify.csv":
                    "dd59d6bc4bcc8c642ea262b6e6f368cf8662f43a3f7b851ca760edb4ea14bfea"},
            "Sandybridge": {
                "verify.csv": "0b10c214ba970065a7902e7d8e8c97e9dcf9815b2eaab5d5928444360316edc0",
                "report.md": "41ce3a7ebd367f1cf332b96dbcec3a82f7be8e616913d5bb0638dfd5264edc29",
                "default verify.csv":
                    "5da77a4e14a15aa42587d207880363be0433a73539ef8b73083e995bbc48002d"},
            "Nehalem": {
                "verify.csv": "ea40e47c8e29a193dcc8c8e8f91b106746695bc2f92ac6cb9396c301ae4d9585",
                "report.md": "88d6e51e453860eefdd52d44097bfb3a41fecb682c90a5f20ebdb25f2230a461",
                "default verify.csv":
                    "8651d812d90c5808400ef9bdc92dcf52bab6012ff31a4fbf0ffdf7aa19e4fdc9"},
            "Katmai": {
                "verify.csv": "65704d762495b8ffaac91d733c1ef4119c10b4db06f66d467f9f21bc029c7812",
                "report.md": "d6e82295cc7ddee4a7192b1a12eebe108bcfa102bdaf71dfa5f8c07e94eccbec",
                "default verify.csv":
                    "b0500dc25810ab3a91fa8905853e478bbffc67014f0eea676fe310e7f5bd36cb"},
        })

    def test_default_sweep_columns_are_kernel_independent(self, default_verify_csv):
        """Only the gap column depends on the OpenBLAS kernel: columns 1-8 of the
        default sweep have these bytes under the SkylakeX, Haswell, Sandybridge, Nehalem
        and Katmai kernels alike, so this pin reads no kernel."""
        columns = b"".join(b",".join(row.split(b",")[:8]) + b"\n"
                           for row in default_verify_csv.splitlines())
        assert _sha256(columns) == (
            "c6ccb4cccefd06800f5781da955010fd27dc2ca6d5b93700904e70f2c1e650b5")

    def test_failed_family_leaves_no_csv(self, tmp_path, monkeypatch, capsys):
        """Rows already written for the first family are removed with the
        partial file when the second family's sweep raises."""
        real = cli.run_embedding_sweep

        def sweep(pair, *args):
            if pair == "rnn_to_rftnet":
                raise ContractViolationError("second family rejected")
            return real(pair, *args)

        monkeypatch.setattr(cli, "run_embedding_sweep", sweep)
        out = tmp_path / "o"
        cfg = _write_config(tmp_path, "v.json", {
            "instances": 3, "probes": 5, "pairs": ["crnet_to_fftnet", "rnn_to_rftnet"]})
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: second family rejected\n"
        assert not out.exists()

    def test_failed_family_leaves_no_replay(self, tmp_path, monkeypatch, capsys):
        """Replay files follow the CSV: the first family's failures were written,
        and are removed with the CSV when the second family's sweep raises."""
        real, calls = cli.run_embedding_sweep, []
        real_files, opened = cli._partial_files, []

        @contextmanager
        def recording_files(out_dir):
            with real_files(out_dir) as open_partial:
                def recording(name):
                    opened.append(name)
                    return open_partial(name)
                yield recording

        def sweep(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk gone")
            return real(*args)

        monkeypatch.setattr(cli, "run_embedding_sweep", sweep)
        monkeypatch.setattr(cli, "_partial_files", recording_files)
        out = tmp_path / "o"
        cfg = _write_config(tmp_path, "v.json", {
            "seed": 5, "instances": 3, "probes": 10, "tolerance": 0.0,
            "pairs": ["crnet_to_fftnet", "rnn_to_rftnet"]})
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 3
        # the FAIL lines named replays the run then removed, so only the error line is printed
        assert capsys.readouterr().err == "error: cannot write output: disk gone\n"
        assert any(name.startswith("replay_crnet_to_fftnet_") for name in opened)  # replays made
        assert not out.exists()

    def test_failed_rename_leaves_no_csv(self, tmp_path, capsys):
        """A replay whose name a directory holds cannot take it when the campaign
        ends; the CSV, renamed before it, is removed again, and no FAIL line names
        a replay that is gone."""
        out = tmp_path / "o"
        (out / "replay_crnet_to_fftnet_0.json").mkdir(parents=True)
        cfg = _write_config(tmp_path, "v.json", {
            "seed": 5, "instances": 3, "probes": 10, "tolerance": 0.0,
            "pairs": ["crnet_to_fftnet"]})
        assert cli.main(["verify", "--config", cfg, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output: "), err
        assert [f.name for f in out.iterdir()] == ["replay_crnet_to_fftnet_0.json"]

    def test_one_family_held_at_a_time(self, tmp_path, monkeypatch):
        """Each family's reports and replays are dropped before the next
        family's sweep starts."""
        class Tracked(list):
            """A list that takes weak references."""

        refs, alive = [], []

        def sweep(pair, seed, count, probes, t_len):
            alive.append([ref() is not None for ref in refs])
            reports = Tracked(cons.EmbeddingReport("fnn", "fftnet", 1, 1, 1, 2, 4, 10, 0.0)
                              for _ in range(count))
            replays = Tracked({} for _ in range(count))
            refs.extend((weakref.ref(reports), weakref.ref(replays)))
            return reports, replays

        monkeypatch.setattr(cli, "run_embedding_sweep", sweep)
        cfg = _write_config(tmp_path, "v.json", {"instances": 2, "assemblies": 2})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert alive == [[False] * 2 * n for n in range(len(cli.FAMILIES))]
        assert len((tmp_path / "verify.csv").read_text().splitlines()) == 1 + 2 * len(cli.FAMILIES)

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

    _SIN_FIT_FILES = {
        "sin_fit_model.json": "172c9fcb388f6f093f601cd1b15075c6d561f39ee38b79a31a44851062f581c5",
        "sin_fit_trace.jsonl": "3f35ae1c95288444964b116893ec544940ff1b9c1fa8bea54781a001ac4904a7",
        "sin_fit_summary.json":
            "6130ab90c4b57505f959cb69dcc6cfaa1cd72a749fc7889fd72f30d1fdc73032"}
    _SIN_FIT_FILES_OLDER = {
        "sin_fit_model.json": "7c74f33e9cf4f9dff36aef66a35b6e9e869f1fa6e0d0d8e6f0b95545520c6ef8",
        "sin_fit_trace.jsonl": "eec79fe3baddb34948fb67d9a6deda051573ea3ec0dd76642ba0f5dade566626",
        "sin_fit_summary.json":
            "087d800617bd5859a0f80ef59f8548322ef6720ace38bdb8130b2c62f907074e"}
    _DODS_FULL_FILES_OLDER = {
        "dods_model.json": "f49b657b70e9753de4b647a36654babd25d9ec593cd775ff05b8ba53ce67ff18",
        "dods_trace.jsonl": "08d5d6e61edf6398399d6ab66bb3679e0d32ee68d020305ba8e903e0c753f8b9",
        "dods_linear_summary.json":
            "df481fe5460af75816c2be436d327aea2005b6bb000731a3c2af1a039ba21a80"}
    _DODS_FILES_SANDYBRIDGE = {
        "dods_model.json": "dabf39c6b5674de30837f3d6f0efdda9f787239a5ca7869a681e4cafe9f10cc5",
        "dods_trace.jsonl": "d95a600d81ff80e753cfb38636272721663eb6e95608b6b0d855c40686fcdaa4",
        "dods_linear_summary.json":
            "1831ddd3ed1b568bef1b064b1f89478e594b625f8c3eeae268d8be0789725236"}

    @pytest.mark.parametrize("demo,by_kernel", [
        # the same bytes under SkylakeX and Haswell, and under the three older kernels
        ({"demo": "sin_fit", "H": 8, "samples": 32, "target_mse": 0.02},
         {"SkylakeX": _SIN_FIT_FILES, "Haswell": _SIN_FIT_FILES,
          "Sandybridge": _SIN_FIT_FILES_OLDER, "Nehalem": _SIN_FIT_FILES_OLDER,
          "Katmai": _SIN_FIT_FILES_OLDER}),
        ({"demo": "dods_linear", "H": 6, "sequences": 4, "T": 3, "target_mse": 0.01}, {
            "SkylakeX": {
                "dods_model.json":
                    "d25614e06536758902419726360e55f9a4bd0e1c959c2539d7d7f2e53fdd313f",
                "dods_trace.jsonl":
                    "98dc71c6e317a0982bd80feaf4f90645e9dc471dc0360df4eae60e2f03b4281c",
                "dods_linear_summary.json":
                    "1eee7c107db5e91984fa15ba872cd34f7ed8c0862aaa8adfbc1d2c9528511369"},
            "Haswell": {
                "dods_model.json":
                    "f8a478b19b29fe1ad1684bd60d0c3b35450fcaddc4508db77c16c505c98ebf3b",
                "dods_trace.jsonl":
                    "f19e136c90b7b612f77777582fd1cd3679201dad1f673e505cd2945247ce8b26",
                "dods_linear_summary.json":
                    "4c9a455c868499cc41e394b547e4d8b2a664c2f4163c9ce3ac27f4552f1c2765"},
            # Katmai gives Sandybridge's bytes
            "Sandybridge": _DODS_FILES_SANDYBRIDGE,
            "Nehalem": {
                "dods_model.json":
                    "4b17de78f1b7c8a5f37b4aa86ef91897f6a725b6e9e363a279b805b17b48c80a",
                "dods_trace.jsonl":
                    "58aec22811cb842415e07fe014ac0ad65801e4275ba7c11cc25397cf7929bb8b",
                "dods_linear_summary.json":
                    "a3b342cea2490cda29a32aa4e5b6c4cb86040ea603a767da86c6a9b06c68b910"},
            "Katmai": _DODS_FILES_SANDYBRIDGE}),
        # the train_rec benchmark workload: 1,407 steps at full size
        ({"demo": "dods_linear", "target_mse": 3e-5}, {
            "SkylakeX": {
                "dods_model.json":
                    "5f5b10f90235ee525b81efecc0839954a6c60cc634e21316fd7135af522dd419",
                "dods_trace.jsonl":
                    "18cc44428f15083c67185f868815c124afd8a4216b0f62845204ceacbcf5d2c0",
                "dods_linear_summary.json":
                    "58f58ad617f9df724c723d76b7d5129bed62af5d384e9d1a3920e580a162c376"},
            "Haswell": {
                "dods_model.json":
                    "98e3ec5bae9bfa13213466abab7901bfb0d2e359050f13e1ea03d54118ce9e35",
                "dods_trace.jsonl":
                    "d7900e9097d462c379f4af575495d9c344281d6e82cea43c7be50aaf3c2e9756",
                "dods_linear_summary.json":
                    "7e9b6c0ede70c74bf28a8c1af0f3f3d5f2ae567bb3193b29cab94fef28f18f2a"},
            # the same bytes under the three older kernels
            "Sandybridge": _DODS_FULL_FILES_OLDER, "Nehalem": _DODS_FULL_FILES_OLDER,
            "Katmai": _DODS_FULL_FILES_OLDER}),
    ], ids=["sin_fit", "dods_linear", "dods_linear_full"])
    def test_golden_outputs(self, tmp_path, demo, by_kernel):
        """Pins the bytes of a small training run: model, loss trace, summary."""
        files = pinned_for_kernel(by_kernel)
        cfg = _write_config(tmp_path, "t.json", {**demo, "seed": 0})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in files}
        assert digests == files

    def test_divergence_is_one_line(self, tmp_path, capsys):
        # at init_scale 1 every draw of p0 starts with a loss that is not finite
        cfg = _write_config(tmp_path, "t.json", {
            "demo": "dods_linear", "target_mse": 3e-5, "seed": 19, "init_scale": 1.0})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: train dods_linear failed: initial loss is not finite")
        assert err[0].endswith(f"({cli.TRAIN_INIT_DRAWS} draws of p0)")

    @pytest.mark.parametrize("seed, notes", [
        (19, ["note: initial loss not finite; drew p0 2 times"]),
        (0, []),
        (315, ["note: no step lowered the initial loss; drew p0 3 times"])])
    def test_non_finite_start_is_redrawn(self, tmp_path, capsys, seed, notes):
        """Seed 19's first p0 has a non-finite loss; its second does not.  Seed
        315's second p0 starts at a finite loss of 2.6e20 that no step lowers."""
        cfg = _write_config(tmp_path, "t.json", {"demo": "dods_linear", "iters": 2, "seed": seed})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 1  # target missed
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [line for line in captured.out.splitlines() if line.startswith("note:")] == notes
        assert json.loads((tmp_path / "dods_linear_summary.json").read_text())["iters"] == 2

    @pytest.mark.parametrize("seed, why", [(181, "no step lowered the initial loss "),
                                           (289, "initial loss is not finite: nan ")])
    def test_non_finite_gradient_ends_the_descent(self, tmp_path, capsys, seed, why):
        """Every key is in range, but some draws of p0 start at a finite loss whose
        gradient overflows.  Every stepped candidate is then non-finite, so the
        descent ends where it stands: a property failure, not a rejected config."""
        cfg = _write_config(tmp_path, "t.json", {
            "demo": "dods_linear", "activation": "holexpm1", "init_scale": 0.9, "iters": 40,
            "H": 9, "sequences": 2, "T": 3,
            "loss": {"loss": "param_cosh", "a": 5, "b": 40, "c": 0.02}})
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", cfg, "--seed", str(seed), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 1 and len(err) == 1
        assert err[0].startswith(f"error: train dods_linear failed: {why}")
        assert err[0].endswith(f"({cli.TRAIN_INIT_DRAWS} draws of p0)")
        assert not out.exists()

    @pytest.mark.parametrize("demo", ["sin_fit", "dods_linear"])
    def test_overflowing_step_is_halved(self, tmp_path, capsys, demo):
        """At step size 1e308 every stepped array overflows; such a candidate is
        halved like one whose loss overflows, so no params constructor rejects
        it after work has started.  31 halvings still overshoot, so no draw steps."""
        cfg = _write_config(tmp_path, "t.json", {"demo": demo, "iters": 2, "step_size": 1e308})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: train {demo} failed: no step lowered the initial loss")
        assert err[0].endswith(f"({cli.TRAIN_INIT_DRAWS} draws of p0)")

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
                                      {"loss": "param_cosh", "c": -float("inf")},
                                      {"loss": "squared", "a": "x"},
                                      {"loss": "param_cosh", "zz": 1},
                                      {"loss": "hinge"}, {},
                                      {"loss": "param_cosh", "a": 0}],
                             ids=["squared", "loss1", "nan", "inf", "-inf", "squared_a",
                                  "unknown_key", "hinge", "empty", "zero_a"])
    def test_malformed_loss_rejected(self, tmp_path, capsys, loss):
        cfg = _write_config(tmp_path, "t.json", {"demo": "sin_fit", "loss": loss})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: loss: ")
        assert not (tmp_path / "o").exists()  # a rejected config makes no --out

    def test_unwritable_output_is_an_io_failure(self, tmp_path, capsys):
        (tmp_path / "sin_fit_model.json").mkdir()  # the model file cannot be opened
        cfg = _write_config(tmp_path, "t.json", {
            "demo": "sin_fit", "H": 4, "samples": 8, "iters": 2, "seed": 1})
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output: ")

    def test_failed_write_leaves_no_file(self, tmp_path, capsys):
        """The trace cannot take its name, a directory's; the model, renamed before
        it, is removed again, so the run leaves only that directory."""
        out = tmp_path / "o"
        (out / "dods_trace.jsonl").mkdir(parents=True)
        cfg = _write_config(tmp_path, "t.json", _COMMAND_BASES["train_rec"])
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
        assert list(out.rglob("*")) == [out / "dods_trace.jsonl"]


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

    def test_oversized_sample_count_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "p.json", {"n": 9, "I": 4})
        assert cli.main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: n: expected a value <= 4, got 9"]

    def test_ill_posed_loss_refused_in_one_line(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, "p.json", {
            "n": 2, "I": 4, "loss": {"loss": "param_cosh", "a": 2}})
        out_dir = tmp_path / "out"
        assert cli.main(["probe", "--config", cfg, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: loss: not well posed: not strictly decreasing at x = -0.01 (l' = 0.4775)"]
        assert not out_dir.exists()

    def test_campaign_that_probes_nothing_rejected(self, tmp_path, capsys):
        """Every instance filtered as (near-)zero loss leaves nothing probed: exit 2."""
        cfg = _write_config(tmp_path, "p.json", {
            "n": 2, "I": 2, "instances": 3, "loss": {"loss": "param_cosh", "c": 1e300}})
        out_dir = tmp_path / "out"
        assert cli.main(["probe", "--config", cfg, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: nothing to probe: ")
        assert not out_dir.exists()

    def test_zero_loss_instances_filtered_with_note(self, tmp_path, monkeypatch, capsys):
        calls = {"count": 0}
        real = cli.empirical_loss

        def mostly_zero(p, data, spec, tape=None):
            calls["count"] += 1
            return 0.0 if calls["count"] == 1 else real(p, data, spec, tape)

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

    _SMALL_FILES = {
        "probe.csv": "a47a71976f9803d4466ebc6c3881f2c4aecf07576c1f0ce20b4de658d35aee4d",
        "probe_results.jsonl":
            "197cdeb417379d89908dbb2cb293dea74a3050167ed709bdbbec154c08d94a06"}
    _SMALL_FILES_SANDYBRIDGE = {
        "probe.csv": "cb2c56ec6ccac92dcd442c4a23266bfa0ca3b0f55151b44ef4b638775fb64438",
        "probe_results.jsonl":
            "cb7e7fd2b6c3a97059a398404e1c93e9f1c0db0a2e60330ab6fe220c191e0fe2"}

    def test_golden_outputs(self, tmp_path):
        """Pins the bytes of a campaign that runs both probe cases."""
        cfg = _write_config(tmp_path, "p.json", {"n": 2, "I": 3, "instances": 4, "seed": 0})
        assert cli.main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 0
        digests = {name: _sha256((tmp_path / name).read_bytes())
                   for name in ("probe.csv", "probe_results.jsonl")}
        # the same bytes under SkylakeX and Haswell, and under Sandybridge and Katmai
        assert digests == pinned_for_kernel({
            "SkylakeX": self._SMALL_FILES, "Haswell": self._SMALL_FILES,
            "Sandybridge": self._SMALL_FILES_SANDYBRIDGE,
            "Nehalem": {
                "probe.csv": "c53eebca8defd8fe11f23c4a4f43b8a5360b6049317355f6f16eac4af35f9422",
                "probe_results.jsonl":
                    "324780e72312acb6afb685a556b753701b4119cc89cd251c7ac6c0ef3abd828d"},
            "Katmai": self._SMALL_FILES_SANDYBRIDGE,
        })

    def test_golden_outputs_at_benchmark_shape(self, tmp_path):
        """Pins both probe cases at the benchmark's n and I (H 33), where all but
        one row of each deltaZ is zero."""
        cfg = _write_config(tmp_path, "p.json", {"n": 16, "I": 32, "instances": 20, "seed": 0})
        assert cli.main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 0
        digests = {name: _sha256((tmp_path / name).read_bytes())
                   for name in ("probe.csv", "probe_results.jsonl")}
        assert digests == pinned_for_kernel({
            "SkylakeX": {
                "probe.csv": "981b6e9331860f94336aa1233eac675171a925363c2aefa483a2787f40e33539",
                "probe_results.jsonl":
                    "0730af899c1051b86858dd0a1bb07714374d899d96ecec2eb78b2afa74cd7264"},
            "Haswell": {
                "probe.csv": "168515677f8f56fc3a4c3cb815c46bdeb2f08aceacdbf74ff90c9edbabdee4c6",
                "probe_results.jsonl":
                    "c644d08437a28e79825cecc9890ee3cb3edb8456241859332837a4e7ae31897e"},
            "Sandybridge": {
                "probe.csv": "02fbd87fc8e5c90c5c533f834b994ef0bfe550cebdb01a6e0653a7e079b2015c",
                "probe_results.jsonl":
                    "636820a19287f670158c8d6fb39601b295c5e200f0d508be45b1997f151078f6"},
            "Nehalem": {
                "probe.csv": "56be12b61a62536fa8f0eda7e5861138a45b457aeae9ce697361f2256f8bc398",
                "probe_results.jsonl":
                    "e74834b15b3227530fe3fcf92073d193b1da4a92adc890de708d0905641cef23"},
            "Katmai": {
                "probe.csv": "0f768de5df9be656991060a9340d15cbda14fbbf6fdee9c16d2507f36c347c81",
                "probe_results.jsonl":
                    "cd70799881cd01c612cf3fe0345834a9c7e07e7eeee6bc429f532deaf70fbd97"},
        })

    @pytest.mark.parametrize("cfg, seed", [
        ({"n": 32, "I": 64, "instances": 40, "init_scale": 1}, 0),
        ({"n": 16, "I": 32, "instances": 60, "init_scale": 1, "delta": 1e-6}, 0),
        ({"n": 8, "I": 128, "instances": 40, "init_scale": 0.52, "delta": 1e-6}, 0),
        ({"n": 16, "I": 32, "init_scale": 1}, 1)],
        ids=["n32_I64", "delta_1e-6", "n8_I128", "benchmark_shape_seed1"])
    def test_no_false_counterexample(self, tmp_path, capsys, cfg, seed):
        """Each campaign once reported instances as not found (21, 25 and 36; 43
        and 46; 26, 29 and 38; 87): all that the largest-|alpha| row could change
        at the worst sample lay below one ulp of its residual.  The row of largest
        |alpha_r sigma'| finds a decrease there."""
        path = _write_config(tmp_path, "p.json", cfg)
        rc = cli.main(["probe", "--config", path, "--seed", str(seed),
                       "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        assert captured.out.splitlines()[-1].endswith("(0 filtered), all found")

    @pytest.mark.parametrize("outcome", ["rejected", "not_found"])
    def test_files_appear_when_the_campaign_ends(self, tmp_path, monkeypatch, outcome):
        """A campaign rejected at instance 3 exits 2 and leaves no --out; one whose
        instance 3 finds no step exits 1 and still writes every row of both files."""
        real = cli.descent_probe

        def probe(p, data, spec, delta, seed, tape):
            if seed == 3:
                if outcome == "rejected":
                    raise ContractViolationError("padded samples are not independent")
                return ProbeResult(False, np.zeros((p.H, p.H), dtype=np.complex128),
                                   np.zeros(p.H), 1.0, 1.0, "alpha_nonzero", 0.0)
            return real(p, data, spec, delta=delta, seed=seed, tape=tape)

        monkeypatch.setattr(cli, "descent_probe", probe)
        out = tmp_path / "o"
        cfg = _write_config(tmp_path, "p.json", {"n": 2, "I": 3, "instances": 6, "seed": 0})
        rc = cli.main(["probe", "--config", cfg, "--out", str(out)])
        if outcome == "rejected":
            assert rc == 2 and not out.exists()
        else:
            assert rc == 1
            assert sorted(f.name for f in out.iterdir()) == ["probe.csv",
                                                             "probe_results.jsonl"]
            rows = (out / "probe.csv").read_text().splitlines()
            assert len(rows) == 7 and rows[4].startswith("3,") and rows[4].endswith(",false")
            assert len((out / "probe_results.jsonl").read_text().splitlines()) == 6

    def test_unwritable_output_leaves_no_partial_file(self, tmp_path, capsys):
        out = tmp_path / "o"
        (out / "probe.csv").mkdir(parents=True)  # the finished CSV cannot take its name
        cfg = _write_config(tmp_path, "p.json", {"n": 2, "I": 3, "instances": 2})
        assert cli.main(["probe", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
        assert [f.name for f in out.iterdir()] == ["probe.csv"]

    def test_memory_does_not_grow_with_instances(self, tmp_path):
        """Rows go to disk as they are produced: the traced allocation peak of a
        400-instance campaign is less than 1 MB above a 40-instance one, where
        each JSON line alone holds a 33x33 deltaZ of about 12.6 KB."""
        peaks = []
        for instances in (40, 400):
            cfg = _write_config(tmp_path, f"p{instances}.json",
                                {"n": 2, "I": 32, "instances": instances, "seed": 0})
            tracemalloc.start()
            try:
                rc = cli.main(["probe", "--config", cfg, "--out", str(tmp_path / str(instances))])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rc == 0
        assert peaks[1] - peaks[0] < 1 << 20, peaks

    def test_one_shared_forward_pass_per_instance(self, tmp_path, monkeypatch):
        """The zero-loss filter, the probe's premises and its residuals share one
        forward pass, the candidate step takes the other, and the loss is checked
        for well-posedness once per campaign."""
        counts = {"eval_fftnet_many": 0, "check_well_posed": 0}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(models, "eval_fftnet_many")
        counting(losses, "check_well_posed")
        cfg = _write_config(tmp_path, "p.json", {"n": 3, "I": 4, "instances": 6, "seed": 2})
        assert cli.main(["probe", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert counts == {"eval_fftnet_many": 2 * 6, "check_well_posed": 1}


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
                                     "fnn,fftnet,2,1,3,3,16,21,tiny",
                                     "fnn,fftnet,2,1,3,3,16,21,nan",
                                     "fnn,fftnet,2,1,3,3,16,21,-1.0",
                                     "fnn,fftnet,x,1,3,3,16,21,0.0"])
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

    def test_gap_above_the_gate_is_not_verified(self, tmp_path, capsys):
        rows = ["fnn,fftnet,2,1,3,3,16,21,0.5", "rnn,rftnet,3,10,2,8,14,136,inf",
                "crnet,fftnet,2,1,3,3,16,21,1e-12", "crnet,rftnet,2,10,3,6,18,78,0.0"]
        (tmp_path / "v.csv").write_text("\n".join([EMBEDDING_CSV_HEADER, *rows]) + "\n")
        rcfg = _write_config(tmp_path, "r.json", {"verify_csv": str(tmp_path / "v.csv")})
        # report checks no property, so a failing row is labelled, not an exit 1
        assert cli.main(["report", "--config", rcfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "report.md").read_text()
        assert "any fnn (FAILED, 1 instances, max gap 5.00e-01)" in text
        assert "any rnn (FAILED, 1 instances, max gap inf)" in text
        assert "any crnet (verified, 1 instances, max gap 1.00e-12)" in text
        assert "any crnet (verified, 1 instances, max gap 0.00e+00)" in text
        assert cli.CONFIG_TABLES["verify"]["tolerance"].default == cli.EXACTNESS_GATE


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
        write_model(tmp_path / "fnn.json", _sample_fnn(rng))
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


_STRING_KEYS = {cmd: [key for key, spec in table.items() if spec.kind is str]
                for cmd, table in cli.CONFIG_TABLES.items()}
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
        assert not (tmp_path / "o").exists()


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
        ("train", {"activation": "bogus"}, "activation: expected one of zrelu, "),
        ("probe", {"activation": "zrelu"}, "activation: expected one of holexpm1, holsin, "),
        # every draw would be the zero net, a stationary point no step leaves
        ("train", {"init_scale": 0.0}, "init_scale: expected a value >= 5e-324, got 0.0"),
        ("convert", {"target": "banana"}, "target: expected one of fftnet, rftnet, got 'banana'"),
        # a net's width rule: the demo's input size is known only when the net is drawn
        ("train", {"H": 1}, "H: expected a value >= I+1 = 2, got 1"),
        ("train_rec", {"H": 2}, "H: expected a value >= I+1 = 3, got 2"),
        ("probe", {"n": 2, "I": 4, "H": 3}, "H: expected a value >= I+1 = 5, got 3"),
        # case 2's instances are a share of the campaign, so a larger count leaves no case 1
        ("probe", {"instances": 4, "case2_instances": 9},
         "case2_instances: expected a value <= 4, got 9"),
    ])
    def test_rejected_before_any_work(self, tmp_path, rng, capsys, command, extra, message):
        cfg = {**_COMMAND_BASES[command], **extra}
        assert cli.main(_numeric_argv(tmp_path, rng, command, cfg)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()


# an output key of each command, with a config that runs once the key is good
_OUTPUT_NAMES = {"verify": "csv_name", "convert": "out_model", "report": "out_name"}
_GOOD_CSV = "\n".join([EMBEDDING_CSV_HEADER, "fnn,fftnet,2,1,3,3,16,21,0.0"]) + "\n"


def test_rejected_config_makes_no_out_dir(tmp_path, capsys):
    cfg = _write_config(tmp_path, "v.json", {"bogus": 1})
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "new/a/b")]) == 2
    assert capsys.readouterr().err == "error: bogus: unknown config key for verify\n"
    assert not (tmp_path / "new").exists()


def test_out_dir_that_cannot_be_made_exits_3(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    cfg = _write_config(tmp_path, "v.json", {"instances": 1, "assemblies": 0})
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "file/o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output: ")


# a config of each command, and an output name it writes only once its run is done
_LAST_RENAMES = {
    "report": ({"verify_csv": "v.csv"}, "report.md"),
    "convert": ({**_COMMAND_BASES["convert"], "in_model": "fnn.json"}, "out.json"),
    "train": (_COMMAND_BASES["train_rec"], "dods_linear_summary.json"),
}


@pytest.mark.parametrize("command", sorted(_LAST_RENAMES))
def test_a_failed_rename_prints_only_its_error_line(tmp_path, rng, capsys, monkeypatch,
                                                    command):
    """A directory holds an output's name, so the file cannot take it when the run
    ends: the run exits 3, leaves nothing it made, and prints only its error line,
    not the stdout lines of a run whose files are gone."""
    cfg, name = _LAST_RENAMES[command]
    monkeypatch.chdir(tmp_path)  # where the config's relative input files are
    (tmp_path / "v.csv").write_text(_GOOD_CSV)
    write_model(tmp_path / "fnn.json", _sample_fnn(rng))
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    path = _write_config(tmp_path, "cfg.json", cfg)
    assert cli.main([command, "--config", path, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output: "), err
    assert list(out.rglob("*")) == [out / name]


class TestOutputNames:
    """An output name is a plain file name, so a command writes only inside --out."""

    @pytest.mark.parametrize("name", ["../escaped.csv", "ABSOLUTE", "", ".", "..",
                                      "sub/x.csv", "x/"])
    @pytest.mark.parametrize("command", sorted(_OUTPUT_NAMES))
    def test_rejected_before_any_work(self, tmp_path, rng, capsys, command, name):
        key = _OUTPUT_NAMES[command]
        work = tmp_path / "work"
        out = work / "o"
        out.mkdir(parents=True)
        (work / "v.csv").write_text(_GOOD_CSV)
        write_model(work / "fnn.json", _sample_fnn(rng))
        if name == "ABSOLUTE":
            name = str(tmp_path / "abs_escape.csv")
        cfg = {"verify": {**_COMMAND_BASES["verify"], key: name},
               "convert": {**_COMMAND_BASES["convert"], "in_model": str(work / "fnn.json"),
                           key: name},
               "report": {"verify_csv": str(work / "v.csv"), key: name}}[command]
        path = _write_config(tmp_path, "cfg.json", cfg)
        before = sorted(tmp_path.rglob("*"))
        assert cli.main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {key}: expected a plain file name inside --out, got {name!r}"]
        assert sorted(tmp_path.rglob("*")) == before  # nothing written, in --out or beside it

    def test_names_with_dots_inside_are_kept(self, tmp_path):
        cfg = _write_config(tmp_path, "v.json", {**_COMMAND_BASES["verify"],
                                                 "csv_name": "..v.1.csv"})
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert [f.name for f in (tmp_path / "o").iterdir()] == ["..v.1.csv"]


def test_a_file_written_twice_is_refused(tmp_path, capsys):
    """The CSV takes the name of instance 0's replay: the replay is refused before
    it opens, and the run leaves nothing."""
    cfg = _write_config(tmp_path, "v.json", {
        "tolerance": 0, "instances": 3, "pairs": ["crnet_to_fftnet"],
        "csv_name": "replay_crnet_to_fftnet_0.json"})
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: replay_crnet_to_fftnet_0.json: the run would write this file twice"]
    assert not (tmp_path / "o").exists()


def test_verify_refuses_a_family_named_twice(tmp_path, capsys):
    cfg = _write_config(tmp_path, "v.json", {
        "instances": 1, "assemblies": 0,
        "pairs": ["rnn_to_rftnet", "fnn_to_fftnet_zrelu", "fnn_to_fftnet_zrelu"]})
    assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: pairs: 'fnn_to_fftnet_zrelu' appears more than once"]
    assert not (tmp_path / "o").exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("command,cfg", [
        ("train", {"demo": "sin_fit", "H": 1000000000, "samples": 8, "iters": 2}),
        ("verify", {"probes": 1000000000000}),
        ("convert", {"in_model": "fnn.json", "target": "fftnet", "out_model": "out.json",
                     "probes": 1000000000}),
        # sizes numpy cannot represent: it refuses them with a ValueError, allocating nothing
        ("probe", {"n": 1, "I": 10**18}),
        ("train", {"demo": "sin_fit", "H": 10**18, "iters": 1, "samples": 4}),
        ("train", {"demo": "dods_linear", "sequences": 10**19, "iters": 1, "H": 4}),
        ("verify", {"probes": 10**19, "instances": 1, "assemblies": 0,
                    "pairs": ["fnn_to_fftnet_zrelu"]}),
        ("convert", {"in_model": "fnn.json", "target": "fftnet", "out_model": "out.json",
                     "probes": 10**300}),
    ], ids=["train", "verify", "convert", "probe-I-unrepresentable",
            "train-H-unrepresentable", "train-sequences-unrepresentable",
            "verify-probes-unrepresentable", "convert-probes-unrepresentable"])
    def test_rejected_with_one_line(self, tmp_path, rng, command, cfg):
        """A size too large to allocate, or too large for numpy to represent,
        exits 2 with one line, not 1 with a traceback, and writes no file.

        The command runs in a child process under a 4 GiB address-space limit,
        so its huge array fails to allocate whatever the overcommit policy.  It
        runs in tmp_path, which holds the model that convert reads."""
        write_model(tmp_path / "fnn.json", _sample_fnn(rng))
        script = ("import resource, sys\n"
                  "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
                  "cap = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
                  "from ftnetlab.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        argv = [command, "--config", _write_config(tmp_path, "c.json", cfg),
                "--out", str(tmp_path / "o")]
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, timeout=120, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: "), proc.stderr
        assert not (tmp_path / "o").exists()

    def test_other_value_errors_surface(self, tmp_path, monkeypatch):
        """Only numpy's size refusals read as out of memory; any other
        ValueError is a fault of the program and keeps its traceback."""
        def broken(cfg, open_partial):
            raise ValueError("not a size refusal")

        monkeypatch.setitem(cli._COMMANDS, "probe", broken)
        cfg = _write_config(tmp_path, "p.json", {"n": 1, "I": 2})
        with pytest.raises(ValueError, match="not a size refusal"):
            cli.main(["probe", "--config", cfg, "--out", str(tmp_path / "o")])


class TestUnreadableJson:
    """The config and a convert model file go through one JSON reader: a file it
    cannot decode exits 3 with one line, never a traceback."""

    @pytest.mark.parametrize("text", [
        "[" * 100_000,                      # deeper than the parser's stack
        '{"n": ' + "1" * 5000 + "}",        # more digits than Python converts
    ], ids=["nested", "long-integer"])
    @pytest.mark.parametrize("slot", ["config", "model"])
    def test_exits_3_with_one_line(self, tmp_path, capsys, text, slot):
        (tmp_path / "bad.json").write_text(text)
        if slot == "config":
            argv = ["verify", "--config", str(tmp_path / "bad.json")]
            prefix = "cannot parse config"
        else:
            cfg = _write_config(tmp_path, "c.json", {
                "in_model": str(tmp_path / "bad.json"), "target": "fftnet",
                "out_model": "out.json"})
            argv = ["convert", "--config", cfg]
            prefix = "cannot read model"
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {prefix}: "), err
        assert not any((tmp_path / "o").glob("*"))  # nothing written


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_README_KINDS = {int: "int", float: "float", str: "str", list: "list of str", dict: "object"}


def _readme_table(command: str) -> dict:
    """key -> cells of the README's config table for ``command``."""
    section = _README.split(f"#### `{command}`\n", 1)[1].split("\n#### ", 1)[0]
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    return {row[0].strip("`"): row[1:] for row in rows}


# each command's table, and each object key's own table (the loss), by README heading
_TABLES = {**cli.CONFIG_TABLES, **{key: spec.table for table in cli.CONFIG_TABLES.values()
                                   for key, spec in table.items() if spec.table}}


class TestReadme:
    @pytest.mark.parametrize("command", sorted(_TABLES))
    def test_every_key_documented(self, command):
        table, documented = _TABLES[command], _readme_table(command)
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
