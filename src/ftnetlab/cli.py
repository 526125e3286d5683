"""Batch driver: model conversion, equivalence sweeps, training demos,
descent-probe campaigns, and the width/parameter report.

Grammar: ``ftnet-lab {convert|verify|train|probe|report} --config <path>
[--seed N] [--out DIR]``.  Exit codes: 0 success, 1 property failure,
2 contract/config rejection, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
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
# config validation
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "convert": {"required": {"in_model", "target", "out_model"},
                "optional": {"mode", "c", "probes", "seed"}},
    "verify": {"required": set(),
               "optional": {"seed", "instances", "probes", "sequence_length",
                            "tolerance", "pairs", "assemblies", "csv_name"}},
    "train": {"required": {"demo"},
              "optional": {"seed", "H", "hidden", "iters", "step_size",
                           "init_scale", "target_mse", "samples", "sequences",
                           "T", "activation", "loss"}},
    "probe": {"required": {"n", "I"},
              "optional": {"seed", "instances", "case2_instances", "H",
                           "delta", "activation", "loss", "init_scale"}},
    "report": {"required": {"verify_csv"}, "optional": {"out_name"}},
}


def validate_config(command: str, cfg: dict) -> list[str]:
    schema = _SCHEMAS[command]
    problems = []
    if not isinstance(cfg, dict):
        return [f"config must be a JSON object, got {type(cfg).__name__}"]
    keys = set(cfg)
    unknown = keys - schema["required"] - schema["optional"]
    missing = schema["required"] - keys
    for k in sorted(unknown):
        problems.append(f"unknown config key {k!r}")
    for k in sorted(missing):
        problems.append(f"missing required config key {k!r}")
    return problems


def _number(cfg: dict, key: str, default, kind=int, minimum=None):
    """The config value under ``key`` (``default`` when absent) as a ``kind``.

    An int field takes an int and a float field an int or a float.  A bool,
    a string, a non-finite value or one below ``minimum`` is rejected with a
    message naming the key.
    """
    value = cfg.get(key, default)
    allowed = int if kind is int else (int, float)
    try:
        ok = (isinstance(value, allowed) and not isinstance(value, bool)
              and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise ContractViolationError(f"{key}: expected {what}, got {value!r}")
    if minimum is not None and value < minimum:
        raise ContractViolationError(f"{key}: expected a value >= {minimum}, got {value!r}")
    return kind(value)


def _string(cfg: dict, key: str, default=None) -> str:
    """The config value under ``key`` (``default`` when absent), which must be a string."""
    value = cfg.get(key, default)
    if not isinstance(value, str):
        raise ContractViolationError(f"{key}: expected a string, got {value!r}")
    return value


def cmd_convert(cfg: dict, out_dir: Path, seed: int) -> int:
    in_model = _string(cfg, "in_model")  # open() reads an int as a file descriptor
    target = _string(cfg, "target")
    out_model = _string(cfg, "out_model")
    mode = _string(cfg, "mode", "zrelu")
    c = _number(cfg, "c", 1.0, float)
    probes = _number(cfg, "probes", 0, minimum=0)
    try:
        model = load_model(in_model)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE
    except ContractViolationError as exc:
        # the file parsed but the model breaks a documented invariant
        print(f"error: bad model: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    src_kind = model_kind(model)
    fam = conversion(src_kind, target, mode)
    if fam is None:
        print(f"error: unsupported conversion {src_kind} -> {target}",
              file=sys.stderr)
        return EXIT_REJECTED
    try:
        converted = fam.convert(model, c)
    except (ContractViolationError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    out_path = out_dir / out_model
    try:
        save_model(out_path, converted)
    except OSError as exc:
        print(f"error: cannot write model: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE

    rep = fam.check(model, converted, np.random.default_rng(seed),
                    probes, SEQUENCE_LENGTH)
    print(cons.reports_to_csv([rep]), end="")
    return EXIT_OK


def cmd_verify(cfg: dict, out_dir: Path, seed: int) -> int:
    csv_name = _string(cfg, "csv_name", "verify.csv")
    counts = {"instances": _number(cfg, "instances", 200, minimum=0),
              "assemblies": _number(cfg, "assemblies", 50, minimum=0)}
    probes = _number(cfg, "probes", 100, minimum=1)
    t_len = _number(cfg, "sequence_length", SEQUENCE_LENGTH, minimum=1)
    tolerance = _number(cfg, "tolerance", 1e-12, float, minimum=0)
    pairs = cfg.get("pairs", list(FAMILIES))
    if not isinstance(pairs, list) or not all(isinstance(p, str) for p in pairs):
        print(f"error: pairs must be a list of family names, got {pairs!r}",
              file=sys.stderr)
        return EXIT_REJECTED
    bad = [p for p in pairs if p not in FAMILIES]
    if bad:
        print(f"error: unknown pairs {bad}", file=sys.stderr)
        return EXIT_REJECTED
    if sum(counts[FAMILIES[p].count_key] for p in pairs) == 0:
        # an empty campaign proves nothing, so it is not a pass
        print("error: nothing to verify: the selected pairs have 0 instances",
              file=sys.stderr)
        return EXIT_REJECTED

    all_reports = []
    failures = 0
    for pair in pairs:
        count = counts[FAMILIES[pair].count_key]
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

    csv_path = out_dir / csv_name
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(cons.reports_to_csv(all_reports))
    worst = max((r.max_abs_output_gap or 0.0) for r in all_reports)
    print(f"verify: {len(all_reports)} instances, worst gap {worst:.3e}, "
          f"tolerance {tolerance:.1e} -> {'OK' if failures == 0 else 'FAIL'}")
    return EXIT_OK if failures == 0 else EXIT_PROPERTY_FAILURE


def _write_trace(path: Path, trace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for it, loss in enumerate(trace):
            fh.write(json.dumps({"iter": it, "loss": loss}) + "\n")


def cmd_train(cfg: dict, out_dir: Path, seed: int) -> int:
    demo = _string(cfg, "demo")
    act = activation_from_tag(_string(cfg, "activation", "holsin"))
    spec = loss_spec_from_config(cfg.get("loss", {"loss": "squared"}))
    if demo not in ("sin_fit", "dods_linear"):
        print(f"error: unknown demo {demo!r}", file=sys.stderr)
        return EXIT_REJECTED
    recurrent = demo == "dods_linear"
    h = _number(cfg, "H", _number(cfg, "hidden", 16 if recurrent else 32), minimum=1)
    target_mse = _number(cfg, "target_mse", 1e-2 if recurrent else 1e-3, float, minimum=0)
    init_scale = _number(cfg, "init_scale", 0.2 if recurrent else 0.3, float)
    step_size = _number(cfg, "step_size", 1e-3 if recurrent else 3e-3, float)
    iters = _number(cfg, "iters", 20000 if recurrent else 50000, minimum=1)
    rng = np.random.default_rng(seed)
    if recurrent:
        t_len = _number(cfg, "T", 8, minimum=1)
        n_seq = _number(cfg, "sequences", 48, minimum=1)
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
        n = _number(cfg, "samples", 256, minimum=1)
        xs = np.linspace(-1.0, 1.0, n)[:, None]
        data = Dataset(xs, np.sin(3.0 * xs[:, 0]))
        p0 = random_fftnet(1, h, act, init_scale, rng)
        train, samples, target_loss = train_fftnet, n, target_mse * n
        model_file, trace_file = "sin_fit_model.json", "sin_fit_trace.jsonl"
    tc = TrainConfig(step_size=step_size, max_iters=iters, target_loss=target_loss)
    try:
        trained, trace = train(p0, data, spec, tc)
    except RuntimeError as exc:  # the loss was not finite at the start, or diverged
        print(f"error: train {demo} failed: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILURE
    final_mse = trace[-1] / samples
    save_model(out_dir / model_file, trained)
    _write_trace(out_dir / trace_file, trace)
    summary = {"demo": demo, "iters": len(trace) - 1, "final_mse": final_mse,
               "target_mse": target_mse, "reached": final_mse <= target_mse}
    with open(out_dir / f"{demo}_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
    print(f"train {demo}: final per-sample loss {summary['final_mse']:.3e} "
          f"(target {summary['target_mse']:.1e}) after {summary['iters']} steps")
    return EXIT_OK if summary["reached"] else EXIT_PROPERTY_FAILURE


def cmd_probe(cfg: dict, out_dir: Path, seed: int) -> int:
    act = activation_from_tag(_string(cfg, "activation", "holexpm1"))
    n = _number(cfg, "n", None, minimum=1)
    i = _number(cfg, "I", None, minimum=1)
    if n > i:
        print(f"error: n={n} exceeds I={i}; sample independence is only "
              "guaranteed for n <= I", file=sys.stderr)
        return EXIT_REJECTED
    h = _number(cfg, "H", i + 1, minimum=1)
    delta = _number(cfg, "delta", 0.1, float)
    instances = _number(cfg, "instances", 100, minimum=1)
    case2 = _number(cfg, "case2_instances", instances // 2, minimum=0)
    spec = loss_spec_from_config(cfg.get("loss", {"loss": "squared"}))
    scale = _number(cfg, "init_scale", 0.4, float)

    rows = []
    jsonl = []
    skipped = 0
    all_found = True
    for idx in range(instances):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(idx,)))
        p = random_fftnet(i, h, act, scale, rng)
        if idx < case2:
            p = FFTNetParams(p.I, p.H, p.W, p.V, np.zeros(p.H), p.activation)
        data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
        if empirical_loss(p, data, spec) <= 1e-12:
            skipped += 1
            print(f"note: instance {idx} has (near-)zero loss; filtered out "
                  "(descent is only claimed for positive loss)")
            continue
        result = descent_probe(p, data, spec, delta=delta, seed=idx)
        rows.append(f"{idx},{result.case_tag},{result.old_loss!r},"
                    f"{result.new_loss!r},{result.perturbation_norm!r},"
                    f"{str(result.found).lower()}")
        jsonl.append(json.dumps({"instance_id": idx, **result.to_dict()},
                                sort_keys=True))
        if not result.found:
            all_found = False
            print(f"FAIL instance {idx}: probe exhausted (replay seed {seed}, "
                  f"spawn {idx})", file=sys.stderr)

    csv_path = out_dir / "probe.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(PROBE_CSV_HEADER + "\n")
        fh.write("\n".join(rows) + ("\n" if rows else ""))
    with open(out_dir / "probe_results.jsonl", "w", encoding="utf-8") as fh:
        fh.write("\n".join(jsonl) + ("\n" if jsonl else ""))
    print(f"probe: {len(rows)} instances ({skipped} filtered), "
          f"{'all found' if all_found else 'NOT all found'}")
    return EXIT_OK if all_found else EXIT_PROPERTY_FAILURE


# (recurrent target?, baseline family, its separation lower bound) per section
_REPORT_SECTIONS = ((False, "FNN", "Omega(e^(eps1*I)/I)"),
                    (True, "RNN", "Omega(e^(eps2*I))"))


def cmd_report(cfg: dict, out_dir: Path, seed: int) -> int:
    csv_path = Path(_string(cfg, "verify_csv"))
    out_name = _string(cfg, "out_name", "report.md")
    try:
        rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read verify CSV: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE
    if len(rows) < 2:
        print("error: verify CSV has no data rows", file=sys.stderr)
        return EXIT_IO_FAILURE
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
    out_path = out_dir / out_name
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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot parse config: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE

    problems = validate_config(args.command, cfg)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return EXIT_REJECTED

    try:
        seed = _number(cfg if args.seed is None else {"seed": args.seed}, "seed", 0,
                       minimum=0)
    except ContractViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE
    try:
        return _COMMANDS[args.command](cfg, out_dir, seed)
    except (ContractViolationError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


if __name__ == "__main__":
    sys.exit(main())
