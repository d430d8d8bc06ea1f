"""Per-layer tracing of symdigits from outside the package.

The tracer replaces public functions of the symdigits modules with timing
wrappers.  A wrapper is installed at every module attribute that holds the
original function, so a caller that did ``from .network import train``
sees the wrapper as well as one that calls ``network.train``.  Nothing
under ``src/`` changes.

Two kinds of wrapper:

* a *span* adds to its function's aggregate (calls, inclusive seconds,
  self seconds) and keeps a frame on the stack of open spans while it
  runs, so that its children's time can be taken out of its self time;
* a *leaf* is for functions called once per SGD step or once per toy-loss
  evaluation.  It only adds a count and a time to the aggregate and to
  its parent span's child time.

Only the aggregates are kept, so memory stays flat however long training
runs.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import sys
import time

# module -> public functions traced as spans
SPAN_FUNCTIONS = {
    "cli": ["main"],
    "digits": ["load_dataset", "augment_shifts", "split", "symmetrize",
               "invert_dataset"],
    "network": ["train", "init_mlp"],
    "experiments": ["reproduce_tables", "run_row", "evaluate", "accuracy",
                    "bound_check"],
    "degeneracy": ["weight_orbit_invariance", "weight_flip_deviation",
                   "dataset_is_inversion_closed", "train_toy", "orbit_loss_scan",
                   "generator_curvature", "smallest_hessian_eigenvalue",
                   "sampled_loss_expectation"],
    "persistence": ["save_model", "load_model"],
    "svg": ["bar_chart", "line_chart"],
}

# module -> functions called per SGD step or per toy-loss evaluation
LEAF_FUNCTIONS = {
    "network": ["forward", "softmax", "cross_entropy_loss"],
    "degeneracy": ["toy_loss", "toy_gradient"],
}

# feature-map classes whose ``apply`` method is traced as a span
FEATURE_CLASSES = {"Identity": "identity", "Square": "square",
                   "NeighborProduct": "neighbor", "PermutationProduct": "perm"}


def _rows(array) -> int:
    shape = getattr(array, "shape", ())
    return int(shape[0]) if len(shape) >= 2 else 1


class _Stat:
    __slots__ = ("calls", "s", "child_s", "rows", "durations")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0
        self.rows = 0
        self.durations = []


class Tracer:
    """Collects per-function aggregates while installed."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.extra = {"network.train.steps": 0, "persistence.model_bytes": 0}
        self._stack: list[list] = []   # [child seconds] per open span
        self._restore: list[tuple] = []

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, func, before=None, after=None):
        stat = self._stat(name)
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.s += elapsed
                stat.child_s += frame[0]
                if name == "experiments.run_row":
                    stat.durations.append(elapsed)
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(self, args, kwargs)
            return result

        return wrapper

    def _leaf(self, name: str, func, count_rows: bool = False):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.s += elapsed
                if count_rows:
                    stat.rows += _rows(args[1] if len(args) > 1 else kwargs["features"])
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    # -- install / remove -------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every traced function wherever a symdigits module holds it."""
        import symdigits.cli  # noqa: F401  (imports every traced module)
        import symdigits.features as features

        replacements = {}
        for module, names in SPAN_FUNCTIONS.items():
            mod = sys.modules[f"symdigits.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                before, after = _HOOKS.get(f"{module}.{fname}", (None, None))
                replacements[id(original)] = (
                    original, self._span(f"{module}.{fname}", original, before, after))
        for module, names in LEAF_FUNCTIONS.items():
            mod = sys.modules[f"symdigits.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                replacements[id(original)] = (original, self._leaf(
                    f"{module}.{fname}", original, count_rows=fname == "forward"))

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "symdigits" or mod_name.startswith("symdigits.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

        for cls_name, short in FEATURE_CLASSES.items():
            cls = getattr(features, cls_name)
            original = cls.__dict__["apply"]
            name = f"features.{short}.apply"
            setattr(cls, "apply", self._span(name, original, before=_count_feature_rows(name)))
            self._restore.append((cls, "apply", original))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Flat name -> number map of every aggregate."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.s
            if name in self._span_names():
                out[f"{name}.self_s"] = stat.s - stat.child_s
            if name.startswith("features.") or name == "network.forward":
                out[f"{name}.rows"] = stat.rows
        out.update(self.extra)
        cells = self.stats["experiments.run_row"].durations
        out["experiments.run_row.cell_median_s"] = statistics.median(cells) if cells else 0.0
        out["experiments.run_row.cell_max_s"] = max(cells) if cells else 0.0
        train_calls = self.stats["network.train"].calls
        train_s = self.stats["network.train"].s
        out["network.train.calls_per_cell"] = train_calls / len(cells) if cells else 0.0
        out["network.train.steps_per_s"] = self.extra["network.train.steps"] / train_s \
            if train_s else 0.0
        return out

    def _span_names(self) -> set:
        names = {f"{m}.{f}" for m, fs in SPAN_FUNCTIONS.items() for f in fs}
        return names | {f"features.{s}.apply" for s in FEATURE_CLASSES.values()}


def _count_train_steps(tracer: Tracer, args, kwargs) -> None:
    config = args[0] if args else kwargs["config"]
    train_set = args[1] if len(args) > 1 else kwargs["train_set"]
    per_epoch = math.ceil(len(train_set) / config.batch_size)
    tracer.extra["network.train.steps"] += config.epochs * per_epoch


def _count_model_bytes(tracer: Tracer, args, kwargs) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.extra["persistence.model_bytes"] += os.path.getsize(path)


def _count_feature_rows(name: str):
    def before(tracer: Tracer, args, kwargs) -> None:
        tracer.stats[name].rows += _rows(args[1] if len(args) > 1 else kwargs["pixels"])
    return before


# "module.function" -> (called before the span opens, called after it closes)
_HOOKS = {
    "network.train": (_count_train_steps, None),
    "persistence.save_model": (None, _count_model_bytes),
}
