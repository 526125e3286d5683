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
from collections.abc import Sequence
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import constructions as cons
from .activations import TABLE, activation_from_tag
from .embeddings import (
    FAMILIES,
    Assembly,
    SEQUENCE_LENGTH,
    conversion,
    instance_rng,
    relative_gap,  # noqa: F401  (the per-layer benchmark traces cli.relative_gap)
    run_embedding_sweep,
)
from .errors import ContractViolationError
from .losses import LOSSES, Dataset, empirical_loss, loss_spec_from_config
from .models import READ_ERRORS, Tape, model_from_dict, read_json, save_model
from .optimize import PROBE_CSV_HEADER, descent_probe, random_fftnet, training_fit

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_REJECTED = 2
EXIT_IO_FAILURE = 3

# the largest embedding gap that counts as exact: verify's default tolerance, and
# the gap under which report labels a family verified
EXACTNESS_GATE = 1e-12

# p0 draws a training run may take while its start's loss is not finite or takes no step
TRAIN_INIT_DRAWS = 5


# ---------------------------------------------------------------------------
# config tables
# ---------------------------------------------------------------------------


class PerChoice(dict):
    """A value for each choice of a table's first key; a choice it lacks does not take it."""


@dataclass(frozen=True)
class Key:
    """One config key: its JSON kind, default, inclusive range and allowed strings."""

    kind: type                    # int, float, str, list (of str) or dict
    default: object = None        # None if required, a value, a PerChoice or f(resolved keys)
    minimum: object = None        # None if unbounded, else as default
    maximum: object = None
    choices: tuple | None = None  # for a str, or for each entry of a list
    file_name: bool = False       # a str naming a file the command writes in --out
    table: dict | None = None     # a dict's own keys, resolved as a config of its own


POSITIVE = 5e-324  # the least positive double: this minimum means "> 0"

LOSS_TABLE = {"loss": Key(str, choices=tuple(LOSSES)),  # first: a, b and c are param_cosh's
              **{k: Key(float, PerChoice(param_cosh=1.0), POSITIVE) for k in "abc"}}

# delta and init_scale stop at 1: past it, overflow or rounding, not a claim, exits 1
CONFIG_TABLES = {
    "convert": {
        "in_model": Key(str),  # open() would read an int as a file descriptor
        "target": Key(str, choices=tuple(dict.fromkeys(  # an Assembly's source is no model
            fam.target for fam in FAMILIES.values() if not isinstance(fam, Assembly)))),
        "out_model": Key(str, file_name=True),
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
        "tolerance": Key(float, EXACTNESS_GATE, 0),
        "pairs": Key(list, list(FAMILIES), choices=tuple(FAMILIES)),
        "csv_name": Key(str, "verify.csv", file_name=True),
    },
    "train": {  # demo comes first: the other defaults depend on it
        "demo": Key(str, choices=("sin_fit", "dods_linear")),
        "seed": Key(int, 0, 0),
        "activation": Key(str, "holsin", choices=tuple(TABLE)),
        "loss": Key(dict, {"loss": "squared"}, table=LOSS_TABLE),
        "H": Key(int, PerChoice(sin_fit=32, dods_linear=16), 1),
        "iters": Key(int, PerChoice(sin_fit=50000, dods_linear=20000), 1),
        "step_size": Key(float, PerChoice(sin_fit=3e-3, dods_linear=1e-3), POSITIVE),
        # at 0 every draw of p0 is the zero net, a stationary point of the loss
        "init_scale": Key(float, PerChoice(sin_fit=0.3, dods_linear=0.2), POSITIVE, 1.0),
        "target_mse": Key(float, PerChoice(sin_fit=1e-3, dods_linear=1e-2), 0),
        "samples": Key(int, PerChoice(sin_fit=256), 1),
        "sequences": Key(int, PerChoice(dods_linear=48), 1),
        "T": Key(int, PerChoice(dods_linear=8), 1),
    },
    "probe": {
        "I": Key(int, minimum=1),
        "n": Key(int, minimum=1, maximum=lambda cfg: cfg["I"]),  # independence needs n <= I
        "seed": Key(int, 0, 0),
        # the descent probe's claim needs a holomorphic non-polynomial activation
        "activation": Key(str, "holexpm1", choices=tuple(
            tag for tag, act in TABLE.items() if act.holomorphic_nonpolynomial)),
        "loss": Key(dict, {"loss": "squared"}, table=LOSS_TABLE),
        "H": Key(int, lambda cfg: cfg["I"] + 1, 1),
        "delta": Key(float, 0.1, POSITIVE, 1.0),
        "instances": Key(int, 100, 1),
        "case2_instances": Key(int, lambda cfg: cfg["instances"] // 2, 0,
                               lambda cfg: cfg["instances"]),
        "init_scale": Key(float, 0.4, 0, 1.0),
    },
    "report": {
        "verify_csv": Key(str),
        "out_name": Key(str, "report.md", file_name=True),
    },
}

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               list: "a list of strings", dict: "a JSON object"}


def _at(value, resolved: dict):
    """A Key's default or bound, given the keys resolved before it."""
    if isinstance(value, PerChoice):
        return value[next(iter(resolved.values()))]  # the first key's value picks
    return value(resolved) if callable(value) else value


def _checked(key: str, spec: Key, value, resolved: dict):
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
    minimum, maximum = _at(spec.minimum, resolved), _at(spec.maximum, resolved)
    if minimum is not None and value < minimum:
        raise ContractViolationError(f"{key}: expected a value >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ContractViolationError(f"{key}: expected a value <= {maximum}, got {value!r}")
    for entry in value if spec.kind is list else [value]:
        if spec.choices is not None and entry not in spec.choices:
            raise ContractViolationError(
                f"{key}: expected one of {', '.join(spec.choices)}, got {entry!r}")
    # "", "." and ".." name --out or its parent, and a separator leads out of --out
    if spec.file_name and (value in ("", ".", "..") or Path(value).name != value):
        raise ContractViolationError(
            f"{key}: expected a plain file name inside --out, got {value!r}")
    if spec.kind is list and len(set(value)) < len(value):
        twice = next(entry for i, entry in enumerate(value) if entry in value[:i])
        raise ContractViolationError(f"{key}: {twice!r} appears more than once")
    if spec.table is not None:
        try:
            return _resolved(spec.table, value, key)
        except ContractViolationError as exc:
            raise ContractViolationError(f"{key}: {exc}") from None
    return float(value) if spec.kind is float else value


def _resolved(table: dict, cfg: dict, name: str) -> dict:
    """``cfg`` checked against ``table`` key by key, with every default filled in."""
    for key in cfg:
        if key not in table:
            raise ContractViolationError(f"{key}: unknown config key for {name}")
    first, resolved = next(iter(table)), {}
    for key, spec in table.items():
        if isinstance(spec.default, PerChoice) and resolved[first] not in spec.default:
            if key in cfg:
                raise ContractViolationError(f"{key}: does not apply to {first} {resolved[first]}")
            continue
        if spec.default is None and key not in cfg:
            raise ContractViolationError(f"{key}: missing required config key")
        resolved[key] = _checked(key, spec, cfg.get(key, _at(spec.default, resolved)), resolved)
    return resolved


def resolve_config(command: str, cfg, seed: int | None = None) -> dict:
    """``cfg`` with every default filled in; ``seed`` (``--seed``) overrides its own.

    Raises ContractViolationError naming the key of the first problem: an unknown
    key, then key by key in table order, one the first key's value does not take,
    a missing one, a value's kind, range or choices, an output name that is not a
    plain file name, or a list entry named twice.  A nested table's errors read
    ``<key>: <inner key>: ...``.
    """
    if not isinstance(cfg, dict):
        raise ContractViolationError(f"config must be a JSON object, got {type(cfg).__name__}")
    if seed is not None and "seed" in CONFIG_TABLES[command]:
        cfg = {**cfg, "seed": seed}
    return _resolved(CONFIG_TABLES[command], cfg, command)


class Outcome(NamedTuple):
    """How a run ended: ``main`` prints it once every file of the run has its name."""

    code: int                  # the exit code
    out: Sequence[str] = ()    # the stdout lines
    fails: Sequence[str] = ()  # the ``FAIL`` lines, printed to stderr first
    reason: str | None = None  # the ``error:`` line of a run that failed without raising


@contextmanager
def _partial_files(out_dir: Path):
    """Yields ``open_partial``, the one writer of a run: ``open_partial(name)`` opens a
    text handle on ``<name>.partial`` in ``out_dir``, closed when the block ends at the
    latest.  A campaign writes each row as it is produced, so its memory stays flat.

    The files take their names when the block ends.  If it raises, every file opened and
    every directory made is removed, so a rejected or failed run leaves nothing.
    """
    names = []
    with ExitStack() as undo:  # what removes each file and directory made, newest first

        def open_partial(name: str):
            if name in names:  # its second handle would clobber the first
                raise ContractViolationError(f"{name}: the run would write this file twice")
            for d in reversed(list(takewhile(lambda p: not p.exists(),
                                             (out_dir, *out_dir.parents)))):
                d.mkdir()  # the first file opened makes out_dir and its missing parents
                undo.callback(d.rmdir)
            part = out_dir / f"{name}.partial"
            fh = files.enter_context(open(part, "w", encoding="utf-8"))
            undo.callback(part.unlink, missing_ok=True)
            names.append(name)
            return fh

        with ExitStack() as files:
            yield open_partial
        for name in names:
            (out_dir / f"{name}.partial").replace(out_dir / name)
            undo.callback((out_dir / name).unlink)  # a later rename may fail
        undo.pop_all()  # the run ended: it keeps its files


def cmd_convert(cfg: dict, open_partial) -> Outcome:
    try:
        model_dict = read_json(cfg["in_model"])
    except READ_ERRORS as exc:
        return Outcome(EXIT_IO_FAILURE, reason=f"cannot read model: {exc}")
    try:
        model = model_from_dict(model_dict)
    except ContractViolationError as exc:
        # the file parsed but the model breaks a documented invariant
        raise ContractViolationError(f"bad model: {exc}") from None
    src_kind = model.kind
    fam = conversion(src_kind, cfg["target"])
    if fam is None:
        raise ContractViolationError(f"unsupported conversion {src_kind} -> {cfg['target']}")
    converted = fam.convert(model, cfg["c"])
    rep = fam.check(model, converted, np.random.default_rng(cfg["seed"]),
                    cfg["probes"], SEQUENCE_LENGTH)
    save_model(open_partial(cfg["out_model"]), converted)
    return Outcome(EXIT_OK, [cons.EMBEDDING_CSV_HEADER, rep.csv_row()])


def cmd_verify(cfg: dict, open_partial) -> Outcome:
    seed, probes, t_len, tolerance = (cfg["seed"], cfg["probes"], cfg["sequence_length"],
                                      cfg["tolerance"])
    if sum(cfg[FAMILIES[p].count_key] for p in cfg["pairs"]) == 0:
        # an empty campaign proves nothing, so it is not a pass
        raise ContractViolationError("nothing to verify: the selected pairs have 0 instances")

    rows, worst, fails = 0, 0.0, []
    csv_fh = open_partial(cfg["csv_name"])
    csv_fh.write(cons.EMBEDDING_CSV_HEADER + "\n")
    for pair in cfg["pairs"]:
        count = cfg[FAMILIES[pair].count_key]
        reports, replays = run_embedding_sweep(pair, seed, count, probes, t_len)
        for idx, rep in enumerate(reports):
            csv_fh.write(rep.csv_row() + "\n")
            gap = rep.max_abs_output_gap
            worst = max(worst, gap or 0.0)
            if gap is None or gap > tolerance:
                with open_partial(f"replay_{pair}_{idx}.json") as fh:
                    json.dump({"pair": pair, "seed": seed, "instance": idx,
                               "probes": probes, "sequence_length": t_len,
                               "model": replays[idx]}, fh, sort_keys=True)
                fails.append(f"FAIL {pair}[{idx}]: gap {gap!r} > {tolerance!r} "
                             f"(replay: {fh.name.removesuffix('.partial')})")
        rows += len(reports)
        del reports, replays  # the next family's sweep runs without them

    summary = (f"verify: {rows} instances, worst gap {worst:.3e}, "
               f"tolerance {tolerance:.1e} -> {'FAIL' if fails else 'OK'}")
    return Outcome(EXIT_PROPERTY_FAILURE if fails else EXIT_OK, [summary], fails)


def cmd_train(cfg: dict, open_partial) -> Outcome:
    demo, target_mse = cfg["demo"], cfg["target_mse"]
    fit = training_fit(cfg)
    # p0 is the fit's last draw, so redrawing it changes no run whose first draw steps
    for draws in range(1, TRAIN_INIT_DRAWS + 1):
        trained, trace = fit.train(fit.draw_p0())
        if not np.isfinite(trace[0]):  # the descent ended at its start
            reason = "initial loss not finite"
            start_failure = f"initial loss is not finite: {trace[0]}"
        elif len(trace) > 1 or trace[0] <= fit.target_loss:  # stepped, or started on target
            break
        else:
            reason = "no step lowered the initial loss"
            start_failure = f"{reason} {trace[0]!r}"
    else:
        return Outcome(EXIT_PROPERTY_FAILURE, reason=f"train {demo} failed: {start_failure} "
                                                     f"({TRAIN_INIT_DRAWS} draws of p0)")
    out = [f"note: {reason}; drew p0 {draws} times"] if draws > 1 else []
    final_mse = trace[-1] / fit.data.ys.size
    stem = "dods" if demo == "dods_linear" else demo  # of the model and trace files
    save_model(open_partial(f"{stem}_model.json"), trained)
    open_partial(f"{stem}_trace.jsonl").writelines(
        json.dumps({"iter": it, "loss": loss}) + "\n" for it, loss in enumerate(trace))
    summary = {"demo": demo, "iters": len(trace) - 1, "final_mse": final_mse,
               "target_mse": target_mse, "reached": final_mse <= target_mse}
    json.dump(summary, open_partial(f"{demo}_summary.json"), sort_keys=True, indent=1)
    out.append(f"train {demo}: final per-sample loss {summary['final_mse']:.3e} "
               f"(target {summary['target_mse']:.1e}) after {summary['iters']} steps")
    return Outcome(EXIT_OK if summary["reached"] else EXIT_PROPERTY_FAILURE, out)


def cmd_probe(cfg: dict, open_partial) -> Outcome:
    act = activation_from_tag(cfg["activation"])
    n, i, h, seed = cfg["n"], cfg["I"], cfg["H"], cfg["seed"]
    spec = loss_spec_from_config(cfg["loss"])

    rows = skipped = 0
    out, fails = [], []
    # as in training, an overflowing loss is refused by a finiteness check, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        csv_fh, jsonl_fh = map(open_partial, ("probe.csv", "probe_results.jsonl"))
        csv_fh.write(PROBE_CSV_HEADER + "\n")
        for idx in range(cfg["instances"]):
            rng = instance_rng(seed, idx)
            p = random_fftnet(i, h, act, cfg["init_scale"], rng)
            if idx < cfg["case2_instances"]:
                p = replace(p, alpha=np.zeros(p.H))
            data = Dataset(rng.standard_normal((n, i)), rng.standard_normal(n))
            tape = Tape()  # the filter's forward pass, reused by the probe
            if empirical_loss(p, data, spec, tape) <= 1e-12:
                skipped += 1
                out.append(f"note: instance {idx} has (near-)zero loss; filtered out "
                           "(descent is only claimed for positive loss)")
                continue
            result = descent_probe(p, data, spec, delta=cfg["delta"], seed=idx, tape=tape)
            csv_fh.write(result.csv_row(idx) + "\n")
            jsonl_fh.write(result.json_line(idx) + "\n")
            rows += 1
            if not result.found:
                fails.append(f"FAIL instance {idx}: probe exhausted (replay seed {seed}, "
                             f"spawn {idx})")
        if rows == 0:  # an empty campaign proves nothing, so it is not a pass
            raise ContractViolationError(
                f"nothing to probe: all {skipped} instances have (near-)zero loss")
    out.append(f"probe: {rows} instances ({skipped} filtered), "
               f"{'NOT all found' if fails else 'all found'}")
    return Outcome(EXIT_PROPERTY_FAILURE if fails else EXIT_OK, out, fails)


# (recurrent target?, baseline family, its separation lower bound) per section
_REPORT_SECTIONS = ((False, "FNN", "Omega(e^(eps1*I)/I)"),
                    (True, "RNN", "Omega(e^(eps2*I))"))


def cmd_report(cfg: dict, open_partial) -> Outcome:
    csv_path = Path(cfg["verify_csv"])
    try:
        rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return Outcome(EXIT_IO_FAILURE, reason=f"cannot read verify CSV: {exc}")
    # the file was read, so a bad header or no rows is a rejected contract
    if rows[:1] != [cons.EMBEDDING_CSV_HEADER]:
        raise ContractViolationError(f"{csv_path} line 1: expected the verify CSV header")
    if len(rows) < 2:
        raise ContractViolationError(f"{csv_path}: no data rows")
    by_pair: dict[tuple[str, str], list[float | None]] = {}
    for lineno, line in enumerate(rows[1:], start=2):
        try:
            rep = cons.EmbeddingReport.from_csv_row(line)
        except ContractViolationError as exc:
            raise ContractViolationError(f"{csv_path} line {lineno}: {exc}") from None
        by_pair.setdefault((rep.source_kind, rep.target_kind), []).append(
            rep.max_abs_output_gap)

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
            worst = max(measured, default=0.0)
            label = "verified" if worst <= EXACTNESS_GATE else "FAILED"
            status = (f"{label}, {len(gaps)} instances, max gap {worst:.2e}"
                      if measured else f"{len(gaps)} instances, no gap measured")
            _, source_width, formula = fam.report
            lines.append(f"| any {fam.source} ({status}) | {source_width} "
                         f"| H -> {formula} |")
    lines += ["", "Parameter formulas: FTNet 2H^2+H (<= 3H^2); CRNet 2H(I+2); "
              "FNN 2H(I+1); RNN H(I+H+2).", ""]
    fh = open_partial(cfg["out_name"])
    fh.write("\n".join(lines))
    return Outcome(EXIT_OK, [f"report written to {fh.name.removesuffix('.partial')}"])


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
        cfg = read_json(args.config)
    except READ_ERRORS as exc:
        outcome = Outcome(EXIT_IO_FAILURE, reason=f"cannot parse config: {exc}")
    else:
        try:
            cfg = resolve_config(args.command, cfg, args.seed)
            with _partial_files(Path(args.out)) as open_partial:
                outcome = _COMMANDS[args.command](cfg, open_partial)
        except ContractViolationError as exc:
            outcome = Outcome(EXIT_REJECTED, reason=str(exc))
        except MemoryError as exc:  # a size too large to allocate is a rejected config
            outcome = Outcome(EXIT_REJECTED, reason=f"out of memory: {exc}")
        except ValueError as exc:  # so is one too large for numpy to represent
            if not str(exc).startswith(("array is too big", "Maximum allowed dimension")):
                raise  # any other ValueError is a fault of the program
            outcome = Outcome(EXIT_REJECTED, reason=f"out of memory: {exc}")
        except OSError as exc:
            outcome = Outcome(EXIT_IO_FAILURE, reason=f"cannot write output: {exc}")
    # the writer has closed: each file a line names has its name, or the run exits 2 or 3
    for line in outcome.fails:
        print(line, file=sys.stderr)
    for line in outcome.out:
        print(line)
    if outcome.reason is not None:  # one line, whatever line breaks the reason holds
        print("error: " + " ".join(outcome.reason.splitlines()), file=sys.stderr)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
