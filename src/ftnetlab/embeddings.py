"""The table of embedding families, with their random sources and sweeps.

Each record names one exact construction: a random source, its converter, the
gap check with the state mirrors it claims, and its row in the report.
Records call converters and evaluators by module attribute when they run, so
replacing one (as tests and the per-layer tracer do) takes effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import constructions as cons
from . import models
from .activations import HOLSIN, RELU, ZRELU
from .errors import ContractViolationError
from .models import (AdditiveFTNetParams, CRNetParams, FFTNetParams, FNNParams,
                     RFTNetParams, RNNParams)

SEQUENCE_LENGTH = 10  # default T of recurrent gap checks

_FNN, _RNN, _CRNET, _ADDITIVE, _FFTNET, _RFTNET = (
    cls.kind for cls in (FNNParams, RNNParams, CRNetParams, AdditiveFTNetParams, FFTNetParams,
                         RFTNetParams))


# ---------------------------------------------------------------------------
# random instances (shared by the sweeps, the demos and the test suite)
# ---------------------------------------------------------------------------

def instance_rng(seed: int, idx: int) -> np.random.Generator:
    """The generator of instance ``idx`` of a campaign run with ``seed``: each
    instance has its own stream, so (seed, idx) alone replays it."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))


def random_relu_fnn(rng: np.random.Generator) -> FNNParams:
    i = int(rng.integers(1, 9))  # 1..8
    h = int(rng.integers(1, 17))  # 1..16
    return FNNParams(i, h, rng.standard_normal((h, i)), rng.standard_normal(h),
                     rng.standard_normal(h), RELU)


def random_relu_rnn(rng: np.random.Generator) -> RNNParams:
    i = int(rng.integers(1, 7))  # 1..6
    h = int(rng.integers(1, 13))  # 1..12
    return RNNParams(i, h, rng.standard_normal((h, i)),
                     0.4 / np.sqrt(h) * rng.standard_normal((h, h)),
                     rng.standard_normal(h), rng.standard_normal(h),
                     0.5 * rng.standard_normal(h), RELU)


def random_crnet(rng: np.random.Generator) -> CRNetParams:
    i = int(rng.choice((2, 4, 6, 8)))
    h = int(rng.integers(1, 9))  # 1..8
    return CRNetParams(
        i, h,
        # each real part is drawn before its imaginary part, which fixes what a seed gives
        rng.standard_normal((h, i // 2)) + 1j * rng.standard_normal((h, i // 2)),
        rng.standard_normal(h) + 1j * rng.standard_normal(h),
        rng.standard_normal(h) + 1j * rng.standard_normal(h),
        ZRELU)


def random_additive(rng: np.random.Generator) -> AdditiveFTNetParams:
    i = int(rng.integers(1, 7))  # 1..6
    h = int(rng.integers(1, 11))  # 1..10
    base = ZRELU if rng.random() < 0.5 else HOLSIN
    # the sinh feedback of the holsin q-side explodes unless kept small
    s = 1.0 if base == ZRELU else 0.3
    fb = 0.3 if base == ZRELU else 0.1
    return AdditiveFTNetParams(
        i, h, s * rng.standard_normal((h, i)),
        fb / np.sqrt(h) * rng.standard_normal((h, h)),
        s * rng.standard_normal(h), rng.standard_normal(h),
        0.2 * rng.standard_normal(h), base, float(rng.uniform(0.5, 1.5)))


def _random_assembly(rng):
    """A random DODS chain (stage1, stage2, readout, base, c, h0); each stage
    draws A, B, C and b, in that order."""
    i = int(rng.integers(1, 5))
    hd = int(rng.integers(1, 4))
    h1 = hd + int(rng.integers(1, 4))
    h2 = hd + int(rng.integers(1, 4))
    h5 = int(rng.integers(1, 6))
    base = ZRELU if rng.random() < 0.5 else HOLSIN
    # the stage-1 self-recurrence goes through cosh (>= 1 even at 0), so
    # holsin instances must be strongly contractive to stay in range
    scale, feedback, ro = (1.0, 0.25, 1.0) if base == ZRELU else (0.2, 0.02, 0.5)

    def units(h, width):  # A and B of h units reading x and a state of this width
        return scale * rng.standard_normal((h, i)), feedback * rng.standard_normal((h, width))

    s1, s2 = (cons.Stage(*units(h, hd),
                         cons.pad_row_independent(ro * rng.standard_normal((hd, h - hd))),
                         scale * rng.standard_normal(h)) for h in (h1, h2))
    readout = cons.Stage(*units(h5, h2), rng.standard_normal((1, h5)),
                         scale * rng.standard_normal(h5))
    c = float(rng.uniform(0.5, 1.5))
    h0 = 0.1 * rng.standard_normal(hd)
    return s1, s2, readout, base, c, h0


def relative_gap(target_vals: np.ndarray, source_vals: np.ndarray) -> float:
    """max |target - source| / (1 + |source|); +inf on any non-finite value."""
    target_vals = np.asarray(target_vals)
    source_vals = np.asarray(source_vals)
    if not (np.all(np.isfinite(target_vals)) and np.all(np.isfinite(source_vals))):
        return float("inf")
    diff = np.abs(target_vals - source_vals)
    return float(np.max(diff / (1.0 + np.abs(source_vals))))


def _worst(*gaps) -> float:
    vals = [float(g) for g in gaps]
    return float("inf") if any(np.isnan(v) for v in vals) else max(vals)


def _fnn_gap(f, g, x):
    return relative_gap(models.eval_fftnet_many(g, x), models.eval_fnn_many(f, x))


def _crnet_fftnet_gap(crn, g, x):
    return relative_gap(models.eval_fftnet_many(g, x), models.eval_crnet_many(crn, x))


def outputs_and_receptors(g, xs):
    """Outputs of g on xs and the receptor after each step, shape (B, T, H)."""
    tape = models.Tape()
    out = models.eval_rftnet_many(g, xs, tape=tape)
    return out, np.stack([act.imag for act in tape.acts], axis=1)


def _recurrent_gap(g, xs, src, mirrors=()) -> float:
    """Worst of the output gap of g on xs against ``src`` and the receptor's errors:
    it holds each (block, states) of ``mirrors`` and stays 0 on the input block and
    in the bias slot at every step."""
    tgt, rec = outputs_and_receptors(g, xs)
    return _worst(relative_gap(tgt, src),
                  *(np.max(np.abs(rec[:, :, block] - states)) for block, states in mirrors),
                  np.max(np.abs(rec[:, :, : g.I]), initial=0.0),  # no input, no error
                  np.max(np.abs(rec[:, :, -1])))


def _additive_gap(a, g, xs):
    src, _, qs = models.eval_additive_many(a, xs)
    # receptor mirrors (0; q_t; 0) at every step
    return _recurrent_gap(g, xs, src, [(slice(a.I, a.I + a.H), qs)])


def _crnet_rftnet_gap(crn, g, xs):
    src = np.stack([models.eval_crnet_many(crn, xs[:, t, :]) for t in range(xs.shape[1])],
                   axis=1)
    return _recurrent_gap(g, xs, src)


def _rnn_gap(r, g, xs):
    src, ms = models.eval_rnn_many(r, xs)
    return _recurrent_gap(g, xs, src, [(slice(r.I + r.H, r.I + 2 * r.H), ms)])


def assembly_structural_gap(stages, addnet, xs) -> float:
    """Worst relative violation of the three exact chain claims plus state
    stacking, for ``addnet``, the net :func:`constructions.assemble_dods_additive`
    assembled from ``stages`` = (s1, s2, readout, base, c, h0).  Each claim
    ``lhs = rhs`` is measured as ``relative_gap(lhs, rhs)``, like the outputs of
    the other families, so rounding at large states is not read as a failure."""
    s1, s2 = stages[:2]
    traj = cons.dods_stage_trajectories(*stages, xs)
    _, ps, qs = models.eval_additive_many(addnet, np.asarray(xs)[None])
    ps, qs = ps[0], qs[0]
    h1 = s1.hidden
    return _worst(
        relative_gap(traj["p1"], traj["p2"] @ s1.C.T),                # p1 = C1 p2
        relative_gap(traj["q1"], traj["q2"] @ s2.C.T),                # q1 = C2 q2
        relative_gap(traj["q3"][:, h1:], traj["q2"]),                 # q3 tail = q2
        relative_gap(ps, np.hstack([traj["p3"], traj["p5"]])),        # p = (p3; p5)
        relative_gap(qs, np.hstack([traj["q3"], traj["q5"]])),        # q = (q3; q5)
    )


@dataclass(frozen=True)
class Family:
    """One exact construction from a source family into a target family."""

    name: str                     # the verify ``pairs`` value
    source: str                   # model kinds, as in the CSV and model files
    target: str
    random: Callable              # rng -> random source instance
    convert: Callable             # (source, c) -> target; c is the FNN offset
    gap: Callable                 # (source, target, inputs) -> worst gap or mirror error
    input_bound: float            # probe inputs are uniform on [-bound, bound]
    # the FNN sweeps draw c from this range; zrelu's (1, 1) gives exactly 1 and still
    # takes one draw, so both FNN families read the same draws from an instance's stream
    c_range: tuple | None = None
    report: tuple | None = None   # (row order, source width, target width formula)
    count_key: str = "instances"  # the verify key giving the instance count

    @property
    def recurrent(self) -> bool:
        return self.target == _RFTNET

    def check(self, src, tgt, rng, probes: int, t_len: int) -> cons.EmbeddingReport:
        """Width and parameter bookkeeping, and the worst gap on random probes."""
        t_len = t_len if self.recurrent else 1
        gap = None
        if probes > 0:
            size = (probes, t_len, src.I) if self.recurrent else (probes, src.I)
            xs = rng.uniform(-self.input_bound, self.input_bound, size=size)
            with np.errstate(over="ignore", invalid="ignore"):  # relative_gap maps these to inf
                gap = self.gap(src, tgt, xs)
        return cons.EmbeddingReport(self.source, self.target, src.I, t_len, src.H, tgt.H,
                                    src.params(src.H, src.I), tgt.params(tgt.H, tgt.I), gap)

    def sweep(self, rng, probes: int, t_len: int):
        """One random instance: (EmbeddingReport, replay dict of the source)."""
        src = self.random(rng)
        c = float(rng.uniform(*self.c_range)) if self.c_range else 1.0
        rep = self.check(src, self.convert(src, c), rng, probes, t_len)
        return rep, models.model_to_dict(src)


class Assembly(Family):
    """The DODS stage chain assembled into one additive net.

    Its source is a tuple of stages rather than a model, so an instance
    checks one sequence and replays the assembled target.
    """

    def sweep(self, rng, probes: int, t_len: int):
        stages = self.random(rng)
        i = stages[0].A.shape[1]
        xs = rng.uniform(-self.input_bound, self.input_bound, size=(t_len, i))
        net = self.convert(stages, 1.0)
        gap = self.gap(stages, net, xs)
        params = net.params(net.H, net.I)
        rep = cons.EmbeddingReport(self.source, self.target, i, t_len,
                                   sum(s.hidden for s in stages[:3]), net.H,
                                   params, params, gap)
        return rep, models.model_to_dict(net)


FAMILIES = {fam.name: fam for fam in (
    Family("fnn_to_fftnet_zrelu", _FNN, _FFTNET, random_relu_fnn,
           lambda f, c: cons.fnn_to_fftnet(f, c),
           _fnn_gap, 2.0, c_range=(1.0, 1.0),
           # the induced family shares this (fnn, fftnet) row
           report=(0, "H_F", "max{H_F, I+1}")),
    Family("fnn_to_fftnet_induced", _FNN, _FFTNET, random_relu_fnn,
           lambda f, c: cons.fnn_to_fftnet(f, c),
           _fnn_gap, 2.0, c_range=(0.25, 2.0)),
    Family("additive_to_rftnet", _ADDITIVE, _RFTNET, random_additive,
           lambda a, c: cons.additive_to_rftnet(a),
           _additive_gap, 1.0, report=(4, "-", "I + H_plus + 1")),
    Family("crnet_to_fftnet", _CRNET, _FFTNET, random_crnet,
           lambda crn, c: cons.crnet_to_fftnet(crn),
           _crnet_fftnet_gap, 2.0, report=(1, "-", "max{2H_C, I+1}")),
    Family("crnet_to_rftnet", _CRNET, _RFTNET, random_crnet,
           lambda crn, c: cons.crnet_to_rftnet(crn),
           _crnet_rftnet_gap, 2.0, report=(3, "-", "2H_C + I + 1")),
    Family("rnn_to_rftnet", _RNN, _RFTNET, random_relu_rnn,
           lambda r, c: cons.rnn_to_rftnet(r),
           _rnn_gap, 1.0, report=(2, "H_R", "2H_R + I + 1")),
    Assembly("dods_assembly", "dods_stages", _ADDITIVE, _random_assembly,
             lambda stages, c: cons.assemble_dods_additive(*stages),
             assembly_structural_gap, 1.0, count_key="assemblies"),
)}


def conversion(source: str, target: str) -> Family | None:
    """The first family that converts ``source`` models into ``target`` ones."""
    for fam in FAMILIES.values():
        if (fam.source, fam.target) == (source, target):
            return fam
    return None


def run_embedding_sweep(pair: str, seed: int, instances: int, probes: int = 100,
                        t_len: int = SEQUENCE_LENGTH):
    """Returns (reports, replay dicts) for one construction family."""
    fam = FAMILIES.get(pair)
    if fam is None:
        raise ContractViolationError(f"unknown sweep pair {pair!r}")
    results = [fam.sweep(instance_rng(seed, idx), probes, t_len) for idx in range(instances)]
    return [r[0] for r in results], [r[1] for r in results]
