"""The benchmark workloads: configs generated from a seed, the shape each one
runs at, the checks on the files a ``cli.main`` call writes, and the layers a
traced call must reach.

Why these four:

* ``train_ff`` -- the sin(3x) acceptance fit.  Dense 256x32 batches, so the
  activation layer is compute bound; no construction or numerics code runs.
* ``train_rec`` -- ``dods_linear`` trained to 3e-5.  BPTT over 8 steps makes
  many small activation calls, so the same layer is call-overhead bound.
* ``verify`` -- the default sweep of 1250 exact-embedding instances: many tiny
  models, every construction and baseline evaluator, no training.
* ``probe`` -- descent-probe campaign at n=16, I=32, the only workload that
  runs the probe, the numerics layer and the well-posedness check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TOLERANCE = 1e-12  # the exactness gate of the verify sweep

# The default verify sweep's families, kept here so that metric names stay
# fixed when the program reorganises its own table.
SWEEP_PAIRS = ("fnn_to_fftnet_zrelu", "fnn_to_fftnet_induced", "additive_to_rftnet",
               "crnet_to_fftnet", "crnet_to_rftnet", "rnn_to_rftnet", "dods_assembly")


@dataclass
class Outcome:
    """What one cli.main call produced, judged from its exit code and files."""

    attempted: int
    failed: int
    ops_done: int                      # accepted steps or instances
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# output checks, one per command
# ---------------------------------------------------------------------------

_MODEL_FILES = {"sin_fit": "sin_fit_model.json", "dods_linear": "dods_model.json"}


def check_train(out: Path, cfg: dict) -> Outcome:
    demo = cfg["demo"]
    summary = json.loads((out / f"{demo}_summary.json").read_text(encoding="utf-8"))
    model = out / _MODEL_FILES[demo]
    res = Outcome(1, 0, int(summary["iters"]),
                  info={"iters": summary["iters"], "final_mse": summary["final_mse"],
                        "sha256": {model.name: sha256(model)}})
    if summary["reached"] is not True or not summary["final_mse"] <= summary["target_mse"]:
        res.problems.append(f"{demo}: final MSE {summary['final_mse']!r} misses target "
                            f"{summary['target_mse']!r}")
        res.failed = 1
    return res


def verify_rows(cfg: dict) -> int:
    return (len(SWEEP_PAIRS) - 1) * cfg.get("instances", 200) + cfg.get("assemblies", 50)


def check_verify(out: Path, cfg: dict) -> Outcome:
    csv = out / cfg.get("csv_name", "verify.csv")
    rows = csv.read_text(encoding="utf-8").strip().splitlines()[1:]
    expected = verify_rows(cfg)
    gaps = [r.rsplit(",", 1)[1] for r in rows]
    bad = sum(1 for g in gaps if g == "" or not float(g) <= TOLERANCE)
    worst = max((float(g) for g in gaps if g != ""), default=float("nan"))
    res = Outcome(expected, bad + max(0, expected - len(rows)), len(rows),
                  info={"rows": len(rows), "worst_gap": worst,
                        "sha256": {csv.name: sha256(csv)}})
    if len(rows) != expected:
        res.problems.append(f"verify.csv has {len(rows)} data rows, expected {expected}")
    if bad:
        res.problems.append(f"{bad} verify instances have a blank gap or one above {TOLERANCE}")
    return res


def probe_instances(cfg: dict) -> int:
    return cfg.get("instances", 100)


def check_probe(out: Path, cfg: dict) -> Outcome:
    csv = out / "probe.csv"
    rows = csv.read_text(encoding="utf-8").strip().splitlines()[1:]
    expected = probe_instances(cfg)
    not_found = sum(1 for r in rows if r.rsplit(",", 1)[1] != "true")
    filtered = expected - len(rows)
    res = Outcome(expected, not_found + filtered, expected,
                  info={"rows": len(rows), "filtered": filtered, "not_found": not_found,
                        "sha256": {csv.name: sha256(csv)}})
    if filtered:
        res.problems.append(f"probe.csv has {len(rows)} rows for {expected} instances "
                            f"({filtered} filtered)")
    if not_found:
        res.problems.append(f"{not_found} probes found no descent step")
    return res


# ---------------------------------------------------------------------------
# reconciliation of traced counts, one per workload
# ---------------------------------------------------------------------------

def _equal(problems, what, got, want):
    if got != want:
        problems.append(f"reconcile: {what} is {got}, expected {want}")


def reconcile_train(grad: str):
    def check(calls, counters, traced: Outcome, untraced: Outcome | None):
        problems = []
        if grad in calls:
            _equal(problems, f"{grad}.calls", calls[grad], traced.info.get("iters"))
        if "losses.empirical_loss" in calls and "optimize.forward_evals" in counters:
            # one loss at the start plus one per candidate step
            _equal(problems, "losses.empirical_loss.calls", calls["losses.empirical_loss"],
                   counters["optimize.forward_evals"])
        if untraced is not None:
            _equal(problems, "traced iters_to_target", traced.info.get("iters"),
                   untraced.info.get("iters"))
        return problems
    return check


def reconcile_verify(calls, counters, traced, untraced):
    problems = []
    if "cli.run_embedding_sweep" in calls:
        _equal(problems, "cli.run_embedding_sweep.calls", calls["cli.run_embedding_sweep"],
               len(SWEEP_PAIRS))
    return problems


def reconcile_probe(calls, counters, traced, untraced):
    problems = []
    if "optimize.descent_probe" in calls:
        _equal(problems, "optimize.descent_probe.calls", calls["optimize.descent_probe"],
               traced.info.get("rows"))
    return problems


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    full: dict
    tiny: dict
    shape: dict                         # (I, H, N, T) of the full config
    op: str                             # the operation the throughput counts
    unit: str                           # the operation failed_frac counts
    attempted: Callable[[dict], int]    # operations one call attempts
    check: Callable[[Path, dict], Outcome]
    reconcile: Callable
    exercises: frozenset                # layers a traced call must reach

    def config(self, seed: int, tiny: bool = False) -> dict:
        return {**(self.tiny if tiny else self.full), "seed": seed}


_COMMON = {"activations.apply", "models.kappa_many", "cli.main"}
_TRAIN = _COMMON | {"activations.jacobian_parts", "models.model_to_dict", "models.save_model"}

WORKLOADS = {w.name: w for w in (
    Workload("train_ff", "train", {"demo": "sin_fit"},
             {"demo": "sin_fit", "H": 8, "samples": 32, "target_mse": 0.02},
             {"I": 1, "H": 32, "N": 256, "T": 1}, "accepted descent step", "training run",
             lambda cfg: 1, check_train, reconcile_train("optimize.grad_fftnet"),
             frozenset(_TRAIN | {"models.eval_fftnet_many", "losses.empirical_loss",
                                 "optimize.grad_fftnet", "optimize.train_fftnet"})),
    Workload("train_rec", "train", {"demo": "dods_linear", "target_mse": 3e-5},
             {"demo": "dods_linear", "H": 6, "sequences": 4, "T": 3, "target_mse": 0.01},
             {"I": 2, "H": 16, "N": 48, "T": 8}, "accepted descent step", "training run",
             lambda cfg: 1, check_train, reconcile_train("optimize.grad_rftnet"),
             frozenset(_TRAIN | {"models.eval_rftnet_many", "optimize.grad_rftnet",
                                 "optimize.train_rftnet"})),
    Workload("verify", "verify", {}, {"instances": 3, "assemblies": 2, "probes": 5,
                                      "sequence_length": 3},
             {"I": [1, 8], "H": [2, 31], "N": 100, "T": 10},
             "verified instance", "verified instance",
             verify_rows, check_verify, reconcile_verify,
             frozenset(_COMMON | {
                 "activations.apply_real", "activations.induced",
                 "models.eval_fftnet_many", "models.eval_rftnet_many",
                 "models.eval_additive_many", "models.eval_rnn_many",
                 "models.eval_crnet_many", "models.eval_fnn_many", "models.model_to_dict",
                 "constructions.convert", "constructions.assemble_dods_additive",
                 "constructions.dods_stage_trajectories", "numerics.numerical_rank",
                 "cli.relative_gap", "cli.run_embedding_sweep"})),
    Workload("probe", "probe", {"n": 16, "I": 32, "instances": 500},
             {"n": 2, "I": 3, "instances": 4},
             {"I": 32, "H": 33, "N": 16, "T": 1}, "probed instance", "probed instance",
             probe_instances, check_probe, reconcile_probe,
             frozenset(_COMMON | {"models.eval_fftnet_many", "losses.empirical_loss",
                                  "losses.check_well_posed", "numerics.null_vector_against",
                                  "numerics.numerical_rank", "optimize.descent_probe"})),
)}


def write_config(name: str, seed: int, path, tiny: bool = False) -> dict:
    cfg = WORKLOADS[name].config(seed, tiny)
    Path(path).write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    return cfg
