"""Per-layer tracing of ftnetlab from outside the package.

The modules import functions by name (``from .activations import apply``), so
a function is reachable through several module attributes.  ``Tracer.install``
replaces every binding of each listed function across the loaded
``ftnetlab.*`` modules with one wrapper, and ``Tracer.uninstall`` puts the
originals back.  A wrapper records a span: its self time is its duration
minus the durations of the spans it caused.  Spans are aggregated in memory
per name (calls and self time) and per caller -> callee edge (calls and time).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

# (module, function, metric prefix).  Functions that share a prefix are
# summed into one layer metric.
LAYERS = (
    ("activations", "apply", "activations.apply"),
    ("activations", "jacobian_parts", "activations.jacobian_parts"),
    ("activations", "apply_real", "activations.apply_real"),
    ("activations", "induced_real", "activations.induced"),
    ("activations", "induced_imag", "activations.induced"),
    ("models", "kappa_many", "models.kappa_many"),
    ("models", "eval_fftnet_many", "models.eval_fftnet_many"),
    ("models", "eval_rftnet_many", "models.eval_rftnet_many"),
    ("models", "eval_additive_many", "models.eval_additive_many"),
    ("models", "eval_rnn_many", "models.eval_rnn_many"),
    ("models", "eval_crnet_many", "models.eval_crnet_many"),
    ("models", "eval_fnn_many", "models.eval_fnn_many"),
    ("models", "model_to_dict", "models.model_to_dict"),
    ("models", "save_model", "models.save_model"),
    ("constructions", "fnn_to_fftnet", "constructions.convert"),
    ("constructions", "additive_to_rftnet", "constructions.convert"),
    ("constructions", "crnet_to_fftnet", "constructions.convert"),
    ("constructions", "crnet_to_rftnet", "constructions.convert"),
    ("constructions", "rnn_to_rftnet", "constructions.convert"),
    ("constructions", "assemble_dods_additive", "constructions.assemble_dods_additive"),
    ("constructions", "dods_stage_trajectories", "constructions.dods_stage_trajectories"),
    ("losses", "empirical_loss", "losses.empirical_loss"),
    ("losses", "check_well_posed", "losses.check_well_posed"),
    ("numerics", "null_vector_against", "numerics.null_vector_against"),
    ("numerics", "numerical_rank", "numerics.numerical_rank"),
    ("optimize", "grad_fftnet", "optimize.grad_fftnet"),
    ("optimize", "grad_rftnet", "optimize.grad_rftnet"),
    ("optimize", "train_fftnet", "optimize.train_fftnet"),
    ("optimize", "train_rftnet", "optimize.train_rftnet"),
    ("optimize", "descent_probe", "optimize.descent_probe"),
    ("cli", "main", "cli.main"),
    ("cli", "relative_gap", "cli.relative_gap"),
    ("cli", "run_embedding_sweep", "cli.run_embedding_sweep"),
)

LAYER_NAMES = tuple(dict.fromkeys(prefix for _, _, prefix in LAYERS))

# The loop shared by both trainers.  It is private, so it gets no span: its
# time stays in train_fftnet / train_rftnet.  Its loss and gradient closures
# are counted to give the optimizer ratios their bases.
DESCENT_LOOP = ("optimize", "_descend")


class Stats:
    __slots__ = ("calls", "self_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0


class Tracer:
    """Wraps the functions in LAYERS; one instance traces one call at a time."""

    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child_ns] per open span
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        self.counters.clear()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, on_call=None):
        stack, stats, edges = self._stack, self.stats, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = Stats()
                st.calls += 1
                st.self_ns += dt - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                edge = edges.setdefault((parent[0] if parent else "", name), [0, 0])
                edge[0] += 1
                edge[1] += dt
            if on_call is not None:
                on_call(args, kwargs, result, dt)
            return result

        return wrapper

    def _hooks(self):
        def elems(args, kwargs, result, dt):
            z = args[1] if len(args) > 1 else kwargs.get("z")
            self.count("activations.apply.elems", int(getattr(z, "size", 1)))

        def sweep(args, kwargs, result, dt):
            pair = args[0] if args else kwargs["pair"]
            self.count(f"cli.sweep.{pair}.ns", dt)
            self.count("cli.replay_dicts_built", len(result[1]))

        def probe(args, kwargs, result, dt):
            self.count("optimize.probes_found", int(bool(result.found)))

        return {"activations.apply": elems, "cli.run_embedding_sweep": sweep,
                "optimize.descent_probe": probe}

    def _counting_descent(self, fn):
        sig = inspect.signature(fn)

        def counted(key, inner):
            def f(*a, **k):
                self.count(key)
                return inner(*a, **k)
            return f

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            for arg, key in (("loss_of", "optimize.forward_evals"),
                             ("grad_of", "optimize.grad_evals")):
                if arg in bound.arguments:
                    bound.arguments[arg] = counted(key, bound.arguments[arg])
            result = fn(*bound.args, **bound.kwargs)
            self.count("optimize.accepted_steps", len(result[1]) - 1)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of each listed function in ftnetlab.*."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.absent = []
        hooks = self._hooks()
        replacements = {}
        for module, func, prefix in LAYERS:
            orig = getattr(importlib.import_module(f"ftnetlab.{module}"), func, None)
            if orig is None:
                self.absent.append(f"{module}.{func}")
                continue
            replacements[id(orig)] = (orig, self._wrap(prefix, orig, hooks.get(prefix)))
        module, func = DESCENT_LOOP
        orig = getattr(importlib.import_module(f"ftnetlab.{module}"), func, None)
        if orig is None:
            self.absent.append(f"{module}.{func}")
        else:
            replacements[id(orig)] = (orig, self._counting_descent(orig))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ftnetlab" or mod_name.startswith("ftnetlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
