"""ftnetlab benchmark: one workload, run in process through ``ftnetlab.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {train_ff|train_rec|verify|probe} \\
        --seed N --seconds S --trace {0|1}

The seed generates the workload's config (see ``workloads.py``).  The run
repeats the same ``cli.main`` call for S seconds, checks every call's output
files, and prints a human-readable table followed, on the last line, by one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` gives the end-to-end metrics, measured untraced:

* ``setup_s``: median wall time of fresh interpreters that import
  ``ftnetlab.cli`` and generate the config (7 samples after one warm-up).
* ``ops_per_s_norm``: median over calls of operations per second, where an
  operation is an accepted descent step (``iters_per_s``) on ``train_*`` and
  an instance (``instances_per_s``) on ``verify`` and ``probe``, scaled to a
  machine on which the calibration kernel takes 1 ms.  The kernel is timed
  between calls, and each call is scaled by the mean of the two timings
  around it.  This removes most of the drift of a shared VM.
* ``peak_rss_mb``: maximum resident set size of this process.

The raw ``ops_per_s``, ``wall_s``, ``iters_to_target`` and ``failed_frac``
are printed in the table and kept in the run record, not gated: the raw rate
drifts with the machine, and the iteration count to the target, and with it
the wall time of a training call, changes tenfold from one seed to the next.
Failures are gated through ``attempted``/``failed``.

``--trace 1`` alternates untraced and traced calls and gives the per-layer
metrics of ``tracing.LAYERS`` (calls and self time per function), optimizer
and CLI counters with their bases, the tracing overhead and a calibration
kernel's time.

Load shape: one process, ``OPENBLAS_NUM_THREADS=1`` set before numpy is
imported, ``FTNET_LAB_THREADS`` unset.  Each run writes a run record to
``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

_INHERITED = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "FTNET_LAB_THREADS")}
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("FTNET_LAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
RECORD_FORMAT = "ftnetlab-run-record/1"
SETUP_PROBES = 7
CAL_REPS = 5       # kernel timings per calibration, median taken
CAL_REF_MS = 1.0   # ops_per_s_norm is scaled to this calibration time

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "ops_per_s_norm": "1/s", "peak_rss_mb": "MB"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.LAYER_NAMES:
        if name == "cli.main":
            units["cli.main.self_ms"] = "ms"
        elif name == "cli.run_embedding_sweep":
            units["cli.run_embedding_sweep.calls"] = "count"
        else:
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_ms"] = "ms"
        if name == "activations.apply":
            units["activations.apply.elems"] = "count"
    units.update({f"cli.sweep.{p}.ms": "ms" for p in workloads.SWEEP_PAIRS})
    units.update({
        "cli.out_bytes": "bytes",
        "cli.replay_dicts_built": "count",
        "cli.replay_useful_ratio": "ratio",
        "optimize.accepted_steps": "count",
        "optimize.candidate_evals": "count",
        "optimize.accept_ratio": "ratio",
        "optimize.forward_per_step": "ratio",
        "optimize.probe_found_ratio": "ratio",
        "trace.overhead_frac": "ratio",
        "trace.unattributed_ms": "ms",
        "env.calib_ms": "ms",
    })
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def versions() -> dict:
    import numpy as np
    import ftnetlab

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "ftnetlab": getattr(ftnetlab, "__version__", None)}


def calibrate(reps: int = CAL_REPS) -> float:
    """Median ms of a fixed numpy kernel: 256^3 matmul plus complex sin on 256x32."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    z = rng.standard_normal((256, 32)) + 1j * rng.standard_normal((256, 32))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        a @ a
        np.sin(z)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def setup_times(name: str, seed: int, work: Path, probes: int) -> list[float]:
    """Wall time of fresh interpreters up to the first call: import + config."""
    code = ("import sys; sys.path[:0] = [{b!r}, {s!r}]; import ftnetlab.cli; "
            "import workloads; workloads.write_config({n!r}, {seed}, {p!r})").format(
        b=str(BENCH_DIR), s=str(SRC), n=name, seed=seed, p=str(work / "setup.json"))
    times = []
    for i in range(probes + 1):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if i:  # the first one fills the bytecode cache
            times.append(perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# one call
# ---------------------------------------------------------------------------

def call_cli(wl: workloads.Workload, cfg: dict, cfg_path: Path, out: Path, tracer=None):
    """Run cli.main once; returns (wall seconds, Outcome)."""
    from ftnetlab import cli

    if out.exists():
        shutil.rmtree(out)
    argv = [wl.command, "--config", str(cfg_path), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.reset()
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
            error = None
        except (Exception, SystemExit):
            rc, error = None, traceback.format_exc()
        wall = perf_counter() - t0

    attempted = wl.attempted(cfg)
    if error is None and rc == 0:
        try:
            res = wl.check(out, cfg)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res = workloads.Outcome(attempted, attempted, 0,
                                    [f"unreadable output: {exc!r}"])
    else:
        res = workloads.Outcome(attempted, attempted, 0,
                                [f"cli.main {'raised' if error else f'exited {rc}'}: "
                                 f"{(error or stderr.getvalue()).strip()[-2000:]}"])
    files = [f for f in out.rglob("*") if f.is_file()] if out.exists() else []
    res.info.update(exit_code=rc, out_bytes=sum(f.stat().st_size for f in files),
                    replay_files=sum(f.name.startswith("replay_") for f in files))
    return wall, res


def layer_metrics(tracer: tracing.Tracer, wall: float, res: workloads.Outcome) -> dict:
    stats, counters = tracer.stats, tracer.counters
    out = {}
    for key in PER_LAYER:
        name, _, kind = key.rpartition(".")
        st = stats.get(name)
        if kind == "calls":
            out[key] = st.calls if st else 0
        elif kind == "self_ms":
            out[key] = st.self_ns / 1e6 if st else 0.0
    for pair in workloads.SWEEP_PAIRS:
        out[f"cli.sweep.{pair}.ms"] = counters.get(f"cli.sweep.{pair}.ns", 0) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    accepted = counters.get("optimize.accepted_steps", 0)
    forward = counters.get("optimize.forward_evals", 0)
    candidates = max(0, forward - (1 if forward else 0))
    built = counters.get("cli.replay_dicts_built", 0)
    probes = out.get("optimize.descent_probe.calls", 0)
    out.update({
        "activations.apply.elems": counters.get("activations.apply.elems", 0),
        "cli.out_bytes": res.info["out_bytes"],
        "cli.replay_dicts_built": built,
        "cli.replay_useful_ratio": ratio(res.info["replay_files"], built),
        "optimize.accepted_steps": accepted,
        "optimize.candidate_evals": candidates,
        "optimize.accept_ratio": ratio(accepted, candidates),
        "optimize.forward_per_step": ratio(forward + counters.get("optimize.grad_evals", 0),
                                           accepted),
        "optimize.probe_found_ratio": ratio(counters.get("optimize.probes_found", 0), probes),
        "trace.unattributed_ms": (wall * 1e9 - sum(s.self_ns for s in stats.values())) / 1e6,
    })
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; returns the run record (metrics under "metrics")."""
    wl = workloads.WORKLOADS[name]
    RUNS_DIR.mkdir(exist_ok=True)
    work = RUNS_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        return _run(wl, seed, seconds, trace, tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@dataclass
class Call:
    traced: bool
    wall: float
    res: workloads.Outcome
    cal_ms: float              # mean calibration around the call
    layers: dict | None = None  # per-layer metrics of a traced call

    @property
    def rate(self) -> float:
        return self.res.ops_done / self.wall


def _run(wl, seed, seconds, trace, tiny, work) -> dict:
    phases = {}
    setup = []
    if not trace:
        t0 = perf_counter()
        setup = setup_times(wl.name, seed, work, SETUP_PROBES)
        phases["setup_probes_s"] = perf_counter() - t0

    cfg_path = work / "config.json"
    cfg = workloads.write_config(wl.name, seed, cfg_path, tiny)
    if not tiny:  # pay first-call costs on a tiny config, untimed
        t0 = perf_counter()
        warm = work / "warmup.json"
        call_cli(wl, workloads.write_config(wl.name, seed, warm, tiny=True), warm, work / "warm")
        phases["warmup_s"] = perf_counter() - t0

    tracer = tracing.Tracer() if trace else None
    calls: list[Call] = []
    cal = [calibrate()]
    t_start = perf_counter()
    while True:
        traced = trace and len(calls) % 2 == 1
        wall, res = call_cli(wl, cfg, cfg_path, work / "out", tracer if traced else None)
        cal.append(calibrate())
        call = Call(traced, wall, res, (cal[-2] + cal[-1]) / 2)
        if traced:
            call.layers = layer_metrics(tracer, wall, res)
            res.problems += wl.reconcile(
                {n: s.calls for n, s in tracer.stats.items()}, tracer.counters, res,
                calls[-1].res)
            res.problems += [f"coverage: {layer} recorded no calls"
                             for layer in sorted(wl.exercises)
                             if layer not in tracer.stats and not _absent(tracer, layer)]
            res.info["edges"] = {f"{a or '<root>'} -> {b}": {"calls": c, "ms": ns / 1e6}
                                 for (a, b), (c, ns) in sorted(tracer.edges.items())}
        calls.append(call)
        # stop before a call that would end past the deadline
        longest = max(c.wall for c in calls)
        if len(calls) >= (2 if trace else 1) and perf_counter() - t_start + longest > seconds:
            break
    phases["measure_s"] = perf_counter() - t_start

    results = [c.res for c in calls]
    problems = sorted({p for r in results for p in r.problems})
    shas = {json.dumps(r.info.get("sha256"), sort_keys=True) for r in results}
    if len(shas) > 1:
        problems.append("outputs differ between repeats of the same config and seed")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    plain = [c for c in calls if not c.traced]

    summary = {
        "wall_s": statistics.median(c.wall for c in plain),
        "ops_per_s": statistics.median(c.rate for c in plain),
        "ops_per_call": statistics.median(c.res.ops_done for c in plain),
        "failed_frac": failed / attempted,
        "samples": len(plain),
        "iters_to_target": results[0].info.get("iters"),
        "sha256": results[0].info.get("sha256"),
    }
    if trace:
        traced = [c for c in calls if c.traced]
        metrics = {k: statistics.median(c.layers[k] for c in traced) for k in PER_LAYER
                   if k not in ("trace.overhead_frac", "env.calib_ms")}
        metrics["trace.overhead_frac"] = (statistics.median(c.wall for c in traced)
                                          / summary["wall_s"] - 1.0)
        metrics["env.calib_ms"] = statistics.median(cal)
        summary["traced_samples"] = len(traced)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s_norm": statistics.median(c.rate * c.cal_ms / CAL_REF_MS for c in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        summary["setup_samples"] = len(setup)
    units = PER_LAYER if trace else END_TO_END

    return {
        "format": RECORD_FORMAT,
        "workload": wl.name, "command": wl.command, "config": cfg, "seed": seed,
        "trace": int(trace), "seconds": seconds, "shape": wl.shape, "op": wl.op,
        "failure_unit": wl.unit,
        "versions": versions(),
        "env": {"nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "FTNET_LAB_THREADS": os.environ.get("FTNET_LAB_THREADS"),
                "inherited": _INHERITED},
        "calib_ms": cal,
        "phases_s": phases,
        "setup_s": setup,
        "absent": tracer.absent if tracer else [],
        "calls": [{"traced": c.traced, "wall_s": c.wall, "calib_ms": c.cal_ms,
                   "attempted": c.res.attempted, "failed": c.res.failed, "ops": c.res.ops_done,
                   "problems": c.res.problems, "info": c.res.info} for c in calls],
        "summary": summary,
        "problems": problems,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _absent(tracer, layer) -> bool:
    """True when every function of a layer is missing from the package."""
    funcs = [f"{m}.{f}" for m, f, p in tracing.LAYERS if p == layer]
    return all(f in tracer.absent for f in funcs)


def report(rec: dict) -> str:
    s, wl = rec["summary"], workloads.WORKLOADS[rec["workload"]]
    lines = [f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
             f"{len(rec['calls'])} calls of `{rec['command']}`, shape {rec['shape']}, "
             f"OPENBLAS_NUM_THREADS={rec['env']['OPENBLAS_NUM_THREADS']}"]
    n = s["samples"]
    rate = "iters_per_s" if wl.command == "train" else "instances_per_s"
    lines.append(f"  {'wall_s':<18}{s['wall_s']:.4f} s (median of {n})")
    if not rec["trace"]:
        m = rec["metrics"]
        lines.append(f"  {'setup_s':<18}{m['setup_s']['value']:.4f} s "
                     f"(median of {s['setup_samples']})")
        lines.append(f"  {rate:<18}{s['ops_per_s']:.2f} 1/s (median of {n})")
        lines.append(f"  {'ops_per_s_norm':<18}{m['ops_per_s_norm']['value']:.2f} 1/s "
                     f"(median of {n}, at {CAL_REF_MS} ms calibration)")
        lines.append(f"  {'peak_rss_mb':<18}{m['peak_rss_mb']['value']:.1f} MB")
    if wl.command == "train":
        lines.append(f"  {'iters_to_target':<18}{s['iters_to_target']} count")
    else:
        lines.append(f"  {'instances':<18}{s['ops_per_call']:g} per call")
    lines.append(f"  {'failed_frac':<18}{s['failed_frac']:.4g} "
                 f"({rec['failed']}/{rec['attempted']} {wl.unit}s)")
    for fname, digest in (s["sha256"] or {}).items():
        lines.append(f"  sha256 {fname} {digest}")
    lines.append(f"  env.calib_ms before {rec['calib_ms'][0]:.3f} "
                 f"after {rec['calib_ms'][-1]:.3f}")
    if rec["trace"]:
        m = rec["metrics"]
        busy = sorted((k for k in m if k.endswith(".self_ms")),
                      key=lambda k: -m[k]["value"])[:8]
        lines.append(f"  top self time (median of {s['traced_samples']} traced calls):")
        lines += [f"    {k:<40}{m[k]['value']:10.2f} ms" for k in busy]
    lines += [f"  PROBLEM {p}" for p in rec["problems"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ftnetlab" / "cli.py").is_file():
        print(f"error: no ftnetlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))

    rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True, default=str), encoding="utf-8")
    print(report(rec))
    print(f"  run record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
