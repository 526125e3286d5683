"""Batch driver: model conversion, equivalence sweeps, training demos,
descent-probe campaigns, and the width/parameter report.

Grammar: ``ftnet-lab {convert|verify|train|probe|report} --config <path>
[--seed N] [--out DIR]``.  Exit codes: 0 success, 1 property failure,
2 contract/config rejection, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import constructions as cons
from .activations import activation_from_tag
from .embeddings import (
    FAMILIES,
    SEQUENCE_LENGTH,
    conversion,
    relative_gap,  # noqa: F401  (the per-layer benchmark traces cli.relative_gap)
    run_embedding_sweep,
)
from .errors import ContractViolationError, DegenerateInputError
from .losses import Dataset, empirical_loss, loss_spec_from_config
from .models import (
    FFTNetParams,
    dods_linear,
    eval_dods,
    load_model,
    model_kind,
    save_model,
)
from .optimize import (
    SequenceDataset,
    TrainConfig,
    descent_probe,
    random_fftnet,
    random_rftnet,
    train_fftnet,
    train_rftnet,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_REJECTED = 2
EXIT_IO_FAILURE = 3

PROBE_CSV_HEADER = "instance_id,case_tag,old_loss,new_loss,perturbation_norm,found"


# ---------------------------------------------------------------------------
# config tables
# ---------------------------------------------------------------------------


class PerDemo(dict):
    """A ``train`` default for each demo; a demo it lacks does not take the key."""


@dataclass(frozen=True)
class Key:
    """One config key: its JSON kind, default, inclusive range and allowed strings."""

    kind: type                    # int, float, str, list (of str) or dict
    default: object = None        # None if required, a value, a PerDemo or f(resolved keys)
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple | None = None  # for a str, or for each entry of a list


DEMOS = ("sin_fit", "dods_linear")
POSITIVE = 5e-324  # the least positive double: this minimum means "> 0"

# delta and init_scale stop at 1: past it, overflow or rounding, not a claim, exits 1
CONFIG_TABLES = {
    "convert": {
        "in_model": Key(str),  # open() would read an int as a file descriptor
        "target": Key(str),
        "out_model": Key(str),
        "mode": Key(str, "zrelu"),
        "c": Key(float, 1.0),
        "probes": Key(int, 0, 0),
        "seed": Key(int, 0, 0),
    },
    "verify": {
        "seed": Key(int, 0, 0),
        "instances": Key(int, 200, 0),
        "assemblies": Key(int, 50, 0),
        "probes": Key(int, 100, 1),
        "sequence_length": Key(int, SEQUENCE_LENGTH, 1),
        "tolerance": Key(float, 1e-12, 0),
        "pairs": Key(list, list(FAMILIES), choices=tuple(FAMILIES)),
        "csv_name": Key(str, "verify.csv"),
    },
    "train": {  # demo comes first: the other defaults depend on it
        "demo": Key(str, choices=DEMOS),
        "seed": Key(int, 0, 0),
        "activation": Key(str, "holsin"),
        "loss": Key(dict, {"loss": "squared"}),
        "H": Key(int, PerDemo(sin_fit=32, dods_linear=16), 1),
        "iters": Key(int, PerDemo(sin_fit=50000, dods_linear=20000), 1),
        "step_size": Key(float, PerDemo(sin_fit=3e-3, dods_linear=1e-3), POSITIVE),
        "init_scale": Key(float, PerDemo(sin_fit=0.3, dods_linear=0.2), 0, 1.0),
        "target_mse": Key(float, PerDemo(sin_fit=1e-3, dods_linear=1e-2), 0),
        "samples": Key(int, PerDemo(sin_fit=256), 1),
        "sequences": Key(int, PerDemo(dods_linear=48), 1),
        "T": Key(int, PerDemo(dods_linear=8), 1),
    },
    "probe": {
        "n": Key(int, minimum=1),
        "I": Key(int, minimum=1),
        "seed": Key(int, 0, 0),
        "activation": Key(str, "holexpm1"),
        "loss": Key(dict, {"loss": "squared"}),
        "H": Key(int, lambda cfg: cfg["I"] + 1, 1),
        "delta": Key(float, 0.1, POSITIVE, 1.0),
        "instances": Key(int, 100, 1),
        "case2_instances": Key(int, lambda cfg: cfg["instances"] // 2, 0),
        "init_scale": Key(float, 0.4, 0, 1.0),
    },
    "report": {
        "verify_csv": Key(str),
        "out_name": Key(str, "report.md"),
    },
}

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a list of strings", dict: "a JSON object"}


def _checked(key: str, spec: Key, value):
    if spec.kind in (int, float):
        # NaN, the infinities and ints past the largest double all fail the bound
        ok = isinstance(value, (int, spec.kind)) and abs(value) <= sys.float_info.max
    elif spec.kind is list:
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    elif spec.kind is str:  # no file name holds a NUL, and open() raises on one
        ok = isinstance(value, str) and "\0" not in value
    else:
        ok = isinstance(value, spec.kind)
    if not ok or isinstance(value, bool):  # an int subclass, but never a number here
        raise ContractViolationError(f"{key}: expected {_KIND_NAMES[spec.kind]}, got {value!r}")
    if spec.minimum is not None and value < spec.minimum:
        raise ContractViolationError(f"{key}: expected a value >= {spec.minimum}, got {value!r}")
    if spec.maximum is not None and value > spec.maximum:
        raise ContractViolationError(f"{key}: expected a value <= {spec.maximum}, got {value!r}")
    for entry in value if spec.kind is list else [value]:
        if spec.choices is not None and entry not in spec.choices:
            raise ContractViolationError(
                f"{key}: expected one of {', '.join(spec.choices)}, got {entry!r}")
    return float(value) if spec.kind is float else value


def resolve_config(command: str, cfg, seed: int | None = None) -> dict:
    """``cfg`` with every default filled in; ``seed`` (``--seed``) overrides its own.

    Raises ContractViolationError naming the key of the first problem, checking
    required keys, unknown keys, keys the chosen demo does not take, then each
    value's kind, range and choices.
    """
    table = CONFIG_TABLES[command]
    if not isinstance(cfg, dict):
        raise ContractViolationError(f"config must be a JSON object, got {type(cfg).__name__}")
    if seed is not None and "seed" in table:
        cfg = {**cfg, "seed": seed}
    for key, spec in table.items():
        if spec.default is None and key not in cfg:
            raise ContractViolationError(f"{key}: missing required config key")
    for key in cfg:
        if key not in table:
            raise ContractViolationError(f"{key}: unknown config key for {command}")
    for key in cfg:
        default = table[key].default
        if isinstance(default, PerDemo) and cfg["demo"] in DEMOS and cfg["demo"] not in default:
            raise ContractViolationError(f"{key}: does not apply to demo {cfg['demo']}")
    resolved = {}
    for key, spec in table.items():
        default = spec.default
        if isinstance(default, PerDemo):
            if resolved["demo"] not in default:
                continue
            default = default[resolved["demo"]]
        if callable(default):
            default = default(resolved)
        resolved[key] = _checked(key, spec, cfg.get(key, default))
    return resolved


def _fail(code: int, message) -> int:
    """Print ``message`` as one ``error:`` line, whatever line breaks it holds."""
    print("error: " + " ".join(str(message).splitlines()), file=sys.stderr)
    return code


def cmd_convert(cfg: dict, out_dir: Path) -> int:
    try:
        model = load_model(cfg["in_model"])
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return _fail(EXIT_IO_FAILURE, f"cannot read model: {exc}")
    except ContractViolationError as exc:
        # the file parsed but the model breaks a documented invariant
        return _fail(EXIT_REJECTED, f"bad model: {exc}")
    src_kind = model_kind(model)
    fam = conversion(src_kind, cfg["target"], cfg["mode"])
    if fam is None:
        raise ContractViolationError(f"unsupported conversion {src_kind} -> {cfg['target']}")
    converted = fam.convert(model, cfg["c"])
    save_model(out_dir / cfg["out_model"], converted)
    rep = fam.check(model, converted, np.random.default_rng(cfg["seed"]),
                    cfg["probes"], SEQUENCE_LENGTH)
    print(cons.reports_to_csv([rep]), end="")
    return EXIT_OK


def cmd_verify(cfg: dict, out_dir: Path) -> int:
    seed, probes, t_len, tolerance = (cfg["seed"], cfg["probes"], cfg["sequence_length"],
                                      cfg["tolerance"])
    if sum(cfg[FAMILIES[p].count_key] for p in cfg["pairs"]) == 0:
        # an empty campaign proves nothing, so it is not a pass
        raise ContractViolationError("nothing to verify: the selected pairs have 0 instances")

    all_reports = []
    failures = 0
    for pair in cfg["pairs"]:
        count = cfg[FAMILIES[pair].count_key]
        reports, replays = run_embedding_sweep(pair, seed, count, probes, t_len)
        for idx, rep in enumerate(reports):
            all_reports.append(rep)
            if rep.max_abs_output_gap is None or rep.max_abs_output_gap > tolerance:
                failures += 1
                replay_path = out_dir / f"replay_{pair}_{idx}.json"
                with open(replay_path, "w", encoding="utf-8") as fh:
                    json.dump({"pair": pair, "seed": seed, "instance": idx,
                               "probes": probes, "sequence_length": t_len,
                               "model": replays[idx]}, fh, sort_keys=True)
                print(f"FAIL {pair}[{idx}]: gap {rep.max_abs_output_gap!r} "
                      f"> {tolerance!r} (replay: {replay_path})", file=sys.stderr)

    (out_dir / cfg["csv_name"]).write_text(cons.reports_to_csv(all_reports), encoding="utf-8")
    worst = max((r.max_abs_output_gap or 0.0) for r in all_reports)
    print(f"verify: {len(all_reports)} instances, worst gap {worst:.3e}, "
          f"tolerance {tolerance:.1e} -> {'OK' if failures == 0 else 'FAIL'}")
    return EXIT_OK if failures == 0 else EXIT_PROPERTY_FAILURE


def cmd_train(cfg: dict, out_dir: Path) -> int:
    demo, h, init_scale, target_mse = cfg["demo"], cfg["H"], cfg["init_scale"], cfg["target_mse"]
    act = activation_from_tag(cfg["activation"])
    spec = loss_spec_from_config(cfg["loss"])
    rng = np.random.default_rng(cfg["seed"])
    if demo == "dods_linear":
        t_len, n_seq = cfg["T"], cfg["sequences"]
        spec_dods = dods_linear(P=[[0.8, 0.0], [0.2, 0.5]],
                                Q=[[0.3, -0.2], [0.1, 0.4]],
                                readout=[1.0, -0.7], h0=[0.0, 0.0])
        xs = rng.uniform(-1.0, 1.0, size=(n_seq, t_len, spec_dods.I))
        ys = np.stack([eval_dods(spec_dods, xs[b]) for b in range(n_seq)])
        data = SequenceDataset(xs, ys)
        p0 = random_rftnet(spec_dods.I, h, act, init_scale, rng)
        train, samples, target_loss = train_rftnet, n_seq * t_len, target_mse * n_seq * t_len
        model_file, trace_file = "dods_model.json", "dods_trace.jsonl"
    else:
        n = cfg["samples"]
        xs = np.linspace(-1.0, 1.0, n)[:, None]
        data = Dataset(xs, np.sin(3.0 * xs[:, 0]))
        p0 = random_fftnet(1, h, act, init_scale, rng)
        train, samples, target_loss = train_fftnet, n, target_mse * n
        model_file, trace_file = "sin_fit_model.json", "sin_fit_trace.jsonl"
    tc = TrainConfig(step_size=cfg["step_size"], max_iters=cfg["iters"], target_loss=target_loss)
    try:
        trained, trace = train(p0, data, spec, tc)
    except RuntimeError as exc:  # the loss was not finite at the start, or diverged
        return _fail(EXIT_PROPERTY_FAILURE, f"train {demo} failed: {exc}")
    final_mse = trace[-1] / samples
    save_model(out_dir / model_file, trained)
    with open(out_dir / trace_file, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"iter": it, "loss": loss}) + "\n"
                      for it, loss in enumerate(trace))
    summary = {"demo": demo, "iters": len(trace) - 1, "final_mse": final_mse,
               "target_mse": target_mse, "reached": final_mse <= target_mse}
    with open(out_dir / f"{demo}_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    print(f"train {demo}: final per-sample loss {summary['final_mse']:.3e} "
          f"(target {summary['target_mse']:.1e}) after {summary['iters']} steps")
    return EXIT_OK if summary["reached"] else EXIT_PROPERTY_FAILURE


def cmd_probe(cfg: dict, out_dir: Path) -> int:
    act = activation_from_tag(cfg["activation"])
    n, i, h, seed = cfg["n"], cfg["I"], cfg["H"], cfg["seed"]
    if n > i:
        raise ContractViolationError(f"n={n} exceeds I={i}; sample independence is only "
                                     "guaranteed for n <= I")
    spec = loss_spec_from_config(cfg["loss"])

    rows = []
    jsonl = []
    skipped = 0
    all_found = True
    for idx in range(cfg["instances"]):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(idx,)))
        p = random_fftnet(i, h, act, cfg["init_scale"], rng)
        if idx < cfg["case2_instances"]:
            p = FFTNetParams(p.I, p.H, p.W, p.V, np.zeros(p.H), p.activation)
        data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
        if empirical_loss(p, data, spec) <= 1e-12:
            skipped += 1
            print(f"note: instance {idx} has (near-)zero loss; filtered out "
                  "(descent is only claimed for positive loss)")
            continue
        result = descent_probe(p, data, spec, delta=cfg["delta"], seed=idx)
        rows.append(f"{idx},{result.case_tag},{result.old_loss!r},"
                    f"{result.new_loss!r},{result.perturbation_norm!r},"
                    f"{str(result.found).lower()}")
        jsonl.append(json.dumps({"instance_id": idx, **result.to_dict()},
                                sort_keys=True))
        if not result.found:
            all_found = False
            print(f"FAIL instance {idx}: probe exhausted (replay seed {seed}, "
                  f"spawn {idx})", file=sys.stderr)

    with open(out_dir / "probe.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join([PROBE_CSV_HEADER, *rows]) + "\n")
    with open(out_dir / "probe_results.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in jsonl)
    print(f"probe: {len(rows)} instances ({skipped} filtered), "
          f"{'all found' if all_found else 'NOT all found'}")
    return EXIT_OK if all_found else EXIT_PROPERTY_FAILURE


# (recurrent target?, baseline family, its separation lower bound) per section
_REPORT_SECTIONS = ((False, "FNN", "Omega(e^(eps1*I)/I)"),
                    (True, "RNN", "Omega(e^(eps2*I))"))


def cmd_report(cfg: dict, out_dir: Path) -> int:
    csv_path = Path(cfg["verify_csv"])
    try:
        rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail(EXIT_IO_FAILURE, f"cannot read verify CSV: {exc}")
    # the file was read, so a bad header or no rows is a rejected contract
    if rows[:1] != [cons.EMBEDDING_CSV_HEADER]:
        raise ContractViolationError(f"{csv_path} line 1: expected the verify CSV header")
    if len(rows) < 2:
        raise ContractViolationError(f"{csv_path}: no data rows")
    columns = len(cons.EMBEDDING_CSV_HEADER.split(","))
    by_pair: dict[tuple[str, str], list[float | None]] = {}
    for lineno, line in enumerate(rows[1:], start=2):
        parts = line.split(",")
        if len(parts) != columns:
            raise ContractViolationError(f"{csv_path} line {lineno}: expected "
                                         f"{columns} columns, got {len(parts)}")
        try:
            gap = float(parts[-1]) if parts[-1] else None
        except ValueError:
            raise ContractViolationError(
                f"{csv_path} line {lineno}: bad gap {parts[-1]!r}") from None
        by_pair.setdefault((parts[0], parts[1]), []).append(gap)

    lines = ["# Width and parameter bookkeeping", "",
             "Constructive (upper bound) rows are measured by the verify sweep;",
             "separation rows are literals from the source analysis and are",
             "marked NOT-VERIFIED because the hard target function is external."]
    for recurrent, baseline, separation in _REPORT_SECTIONS:
        lines += ["", f"## FTNet vs {baseline}", "",
                  f"| target | {baseline} width | FTNet width |", "|---|---|---|",
                  f"| separation target | {separation}  [NOT-VERIFIED] "
                  "| O(I^(15/4))  [NOT-VERIFIED] |"]
        families = sorted((f for f in FAMILIES.values()
                            if f.report and f.recurrent == recurrent),
                           key=lambda f: f.report[0])
        for fam in families:
            gaps = by_pair.get((fam.source, fam.target))
            if not gaps:
                continue
            measured = [g for g in gaps if g is not None]
            status = (f"verified, {len(gaps)} instances, max gap {max(measured):.2e}"
                      if measured else f"{len(gaps)} instances, no gap measured")
            _, source_width, formula = fam.report
            lines.append(f"| any {fam.source} ({status}) | {source_width} "
                         f"| H -> {formula} |")
    lines += ["", "Parameter formulas: FTNet 2H^2+H (<= 3H^2); CRNet 2H(I+2); "
              "FNN 2H(I+1); RNN H(I+H+2).", ""]
    out_path = out_dir / cfg["out_name"]
    out_path.write_text("\n".join(lines), encoding="utf-8")
    print(f"report written to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"convert": cmd_convert, "verify": cmd_verify, "train": cmd_train,
             "probe": cmd_probe, "report": cmd_report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ftnet-lab")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        return _fail(EXIT_IO_FAILURE, f"cannot parse config: {exc}")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg = resolve_config(args.command, cfg, args.seed)
        return _COMMANDS[args.command](cfg, out_dir)
    except (ContractViolationError, DegenerateInputError) as exc:
        return _fail(EXIT_REJECTED, exc)
    except OSError as exc:
        return _fail(EXIT_IO_FAILURE, f"cannot write output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
