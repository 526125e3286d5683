"""Property-based tests of the CLI contract.

Whatever a config, a model file or a verify CSV holds, a command exits 0, 1,
2 or 3.  Exits 2 (rejected contract) and 3 (I/O failure) print exactly one
``error:`` line; no exit prints a traceback or a RuntimeWarning; and exit 1
only reports a property: a gap above tolerance, a probe that found no
descent step, or a fit that missed its target, whose loss was not finite, or
whose every start admitted no descent step.  No command writes outside
``--out``.

The config values are drawn from ``cli.CONFIG_TABLES``, so a new key is
fuzzed as soon as it is declared.  Sizes stay tiny so the module runs in a
few seconds.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftnetlab.cli as cli
from conftest import sample_models
from ftnetlab.constructions import EMBEDDING_CSV_HEADER
from ftnetlab.embeddings import FAMILIES

# names the program knows, so that drawn strings sometimes mean something
_WORDS = sorted({"zrelu", "modrelu", "crelu", "holexpm1", "holsin", "relu", "identity",
                 "induced", "squared", "param_cosh", "fnn", "rnn", "crnet", "additive",
                 "fftnet", "rftnet", *cli.CONFIG_TABLES["train"]["demo"].choices, *FAMILIES})
_TEXT = st.sampled_from(_WORDS) | st.text(max_size=6)
_NUMBER = (st.integers(-3, 6) | st.integers(min_value=2**1024, max_value=2**1100)
           | st.floats(allow_nan=True, allow_infinity=True))
_LEAF = st.none() | st.booleans() | _NUMBER | _TEXT
_JSON = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_TEXT, inner, max_size=3), max_leaves=6)
# output names: separators, dot names and absolute paths; "{tmp}" stands for the
# run's directory, so an absolute name points beside --out, where a write is seen
_OUT_NAMES = (st.sampled_from(["", ".", "..", "../x.csv", "sub/x.csv", "x/", "/",
                               "{tmp}/abs.csv", "{tmp}/out/x.csv"])
              | st.text(alphabet="./ab", max_size=6))


def _values(spec: cli.Key, base: dict):
    """Values of every JSON kind, weighted toward the edges of the key's range.  A
    range that depends on earlier keys takes its edges from ``base``, and an object
    with a table of its own draws its values from that table's keys."""
    edges = [cli._at(v, base) for v in (spec.minimum, spec.maximum) if v is not None]
    near = st.sampled_from([e + d for e in edges for d in (-1, 0, 1)]) if edges else st.nothing()
    entries = st.sampled_from(spec.choices or _WORDS) | _TEXT
    by_kind = {
        int: st.integers(-3, 6) | st.integers(min_value=2**1024, max_value=2**1100),
        float: st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 6),
        str: st.sampled_from(spec.choices) if spec.choices else _TEXT,
        # a list that names its first entry again
        list: st.lists(entries, max_size=3)
        | st.lists(entries, min_size=1, max_size=2).map(lambda v: v + v[:1]),
        dict: st.fixed_dictionaries({}, optional={
            key: _values(inner, {}) for key, inner in (spec.table or {}).items()}),
    }[spec.kind]
    if spec.file_name:
        by_kind |= _OUT_NAMES
    return by_kind | near | _JSON


_BASES = {
    "convert": {"target": "fftnet", "out_model": "out.json", "probes": 2},
    "verify": {"instances": 1, "assemblies": 0, "probes": 2, "sequence_length": 2,
               "pairs": ["rnn_to_rftnet"]},
    "train": {"demo": "sin_fit", "H": 4, "samples": 8, "iters": 2},
    "train_rec": {"demo": "dods_linear", "H": 4, "sequences": 2, "T": 2, "iters": 2},
    "probe": {"n": 2, "I": 3, "instances": 1},
    "report": {},
}


@st.composite
def _configs(draw, command):
    table = cli.CONFIG_TABLES[command.removesuffix("_rec")]
    cfg = dict(_BASES[command])
    for key in draw(st.lists(st.sampled_from(sorted(table)), min_size=1, max_size=3,
                             unique=True)):
        if draw(st.integers(0, 9)) == 0:
            cfg.pop(key, None)
        else:
            cfg[key] = draw(_values(table[key], _BASES[command]))
    if draw(st.integers(0, 9)) == 0:
        cfg[draw(_TEXT)] = draw(_JSON)
    return cfg


def _run(command: str, cfg, seed=None, files=None):
    """cli.main on ``cfg`` in a fresh directory; returns (exit code, stdout, stderr).
    Asserts that the command wrote nothing in that directory outside ``--out``.

    Every warning raised is recorded and added to stderr: Python shows a warning
    once per code location, so without this only the first example could see it.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, write in (files or {}).items():
            write(tmp / name)
        if isinstance(cfg, dict):
            defaults = {"in_model": str(tmp / "model.json"), "verify_csv": str(tmp / "v.csv")}
            cfg = {**{k: defaults[k] for k in defaults
                      if k in cli.CONFIG_TABLES[command] and k not in cfg},
                   **{k: v.replace("{tmp}", str(tmp)) if isinstance(v, str) else v
                      for k, v in cfg.items()}}
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        argv = [command, "--config", str(tmp / "cfg.json"), "--out", str(tmp / "out")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        before = sorted(tmp.rglob("*"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        assert sorted(f for f in tmp.rglob("*") if not f.is_relative_to(tmp / "out")) == before
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                    for w in caught)
    return rc, out.getvalue(), err.getvalue() + shown


def _reports_a_property(command: str, out: str, err: list[str]) -> bool:
    if command == "verify":
        return bool(err) and all(l.startswith("FAIL ") for l in err) and "-> FAIL" in out
    if command == "probe":
        return (bool(err) and all(l.startswith("FAIL instance ") for l in err)
                and "NOT all found" in out)
    if command == "train":
        missed = not err and "final per-sample loss" in out
        no_start = (len(err) == 1 and err[0].startswith("error: train ")
                    and any(why in err[0] for why in ("not finite",
                                                      "no step lowered the initial loss")))
        return missed or no_start
    return False  # convert and report check no property


def _check_contract(command: str, rc: int, out: str, err: str) -> None:
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err and "RuntimeWarning" not in err + out
    lines = err.splitlines()
    if rc == 0:
        assert lines == []
    elif rc == 1:
        assert _reports_a_property(command, out, lines), (out, err)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), err


_GOOD_CSV = "\n".join([EMBEDDING_CSV_HEADER, "fnn,fftnet,2,1,3,3,16,21,0.0",
                       "rnn,rftnet,3,10,2,8,14,136,1e-16"]) + "\n"
_FILES = {"model.json": lambda p: p.write_text(json.dumps(sample_models()["fnn"])),
          "v.csv": lambda p: p.write_text(_GOOD_CSV)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_BASES)))
def test_config_values(data, command):
    cfg = data.draw(_configs(command))
    seed = data.draw(st.none() | st.integers(-2, 3))
    name = command.removesuffix("_rec")
    rc, out, err = _run(name, cfg, seed, _FILES)
    _check_contract(name, rc, out, err)


@settings(max_examples=20, deadline=None)
@given(cfg=_JSON, command=st.sampled_from(sorted(cli.CONFIG_TABLES)))
def test_config_documents(cfg, command):
    rc, out, err = _run(command, cfg, files=_FILES)
    _check_contract(command, rc, out, err)
    assert rc != 1


_OUTPUT_KEYS = {command: key for command, table in cli.CONFIG_TABLES.items()
                for key, spec in table.items() if spec.file_name}


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(sorted(_OUTPUT_KEYS)), name=_OUT_NAMES)
def test_output_names(command, name):
    rc, out, err = _run(command, {**_BASES[command], _OUTPUT_KEYS[command]: name},
                        files=_FILES)
    _check_contract(command, rc, out, err)
    assert rc in (0, 2)  # a bad name is a rejected config, not an I/O failure


@settings(max_examples=30, deadline=None)
@given(pairs=st.lists(st.sampled_from(sorted(FAMILIES)), min_size=1, max_size=3))
def test_verify_pairs(pairs):
    rc, out, err = _run("verify", {**_BASES["verify"], "pairs": pairs})
    _check_contract("verify", rc, out, err)
    if len(set(pairs)) < len(pairs):
        assert rc == 2 and "appears more than once" in err


# an overflowing loss: ill posed (a + b overflows), and infinite at every start (1 / c)
@pytest.mark.parametrize("loss", [{"loss": "param_cosh", "a": 1e308, "b": 1e308},
                                  {"loss": "param_cosh", "c": 5e-324}],
                         ids=["a_b_overflow", "c_tiny"])
def test_overflowing_param_cosh_probe(loss):
    rc, out, err = _run("probe", {"n": 2, "I": 2, "loss": loss})
    _check_contract("probe", rc, out, err)
    assert rc == 2


# a target each kind converts to; fftnet and rftnet sources have none
_TARGETS = {"fnn": "fftnet", "rnn": "rftnet", "crnet": "fftnet", "additive": "rftnet",
            "fftnet": "fftnet", "rftnet": "rftnet"}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_TARGETS)))
def test_model_files(data, kind):
    model = sample_models()[kind]
    field = data.draw(st.sampled_from(sorted(model)))
    if data.draw(st.booleans()):
        del model[field]
    else:
        model[field] = data.draw(_JSON)
    files = {"model.json": lambda p: p.write_text(json.dumps(model))}
    cfg = {"target": _TARGETS[kind], "out_model": "out.json", "probes": 2}
    rc, out, err = _run("convert", cfg, files=files)
    _check_contract("convert", rc, out, err)
    assert rc in (0, 2)  # the file was read, so nothing here is an I/O failure


_CELL = (st.sampled_from(["", "fnn", "fftnet", "rnn", "rftnet", "3", "1e-13", "nan", "-1"])
         | _TEXT | st.floats().map(repr))
_ROW = st.lists(_CELL, min_size=0, max_size=11).map(",".join)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_ROW, max_size=4), header=st.sampled_from([EMBEDDING_CSV_HEADER, ""])
       | _ROW)
def test_report_csv_lines(rows, header):
    text = "\n".join([header, *rows]) + "\n"
    rc, out, err = _run("report", {}, files={"v.csv": lambda p: p.write_text(text)})
    _check_contract("report", rc, out, err)
    assert rc in (0, 2)
