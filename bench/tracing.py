"""Layer tracing from outside the program.

The traced pass replaces public functions of the ``miph`` modules with
wrappers that record one span per call (layer, start, end, parent span and a
few counts) in memory. Nothing inside ``miph`` is edited: a name imported
directly into another module (``expm_batch`` into ``estimation``, ``model``
and ``phasetype``, ``sample_absorption_times`` into ``model``,
``sample_joint_rows`` into ``dataio``) is wrapped in every module that holds
it, so each call is seen once whichever module makes it.

A wrapped name that no longer exists is listed as an absent layer; its
metrics are left out rather than reported as zero. ``Tracer.restore`` puts
every original attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
import warnings


def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _matrices(args, kwargs, result):
    shape = getattr(result, "shape", ())
    count = 1
    for extent in shape[:-2]:
        count *= int(extent)
    return {"matrices": count}


def _points(args, kwargs, result):
    y = args[2] if len(args) > 2 else kwargs["y"]
    shape = getattr(y, "shape", None)
    if shape is None:
        return {"points": 1}
    return {"points": 1 if len(shape) == 1 else int(shape[0])}


def _sampled_rows(args, kwargs, result):
    return {"rows": len(result)}


def _paths(args, kwargs, result):
    return {"paths": len(result)}


def _written(args, kwargs, result):
    return {"rows": args[1].n, "bytes": os.path.getsize(args[0])}


def _loaded(args, kwargs, result):
    return {"rows": result.n, "bytes": os.path.getsize(args[0])}


def _fitted(args, kwargs, result):
    return {"iterations": result.iterations}


# layer name -> (the (module, attribute) pairs to wrap, a function that reads
# counts from one call's arguments and result, whether to count warnings)
LAYERS = {
    "cli.measures": ([("miph.cli", "_cmd_measures")], None, False),
    "cli.eval": ([("miph.cli", "_cmd_eval")], None, False),
    "cli.simulate": ([("miph.cli", "_cmd_simulate")], None, False),
    "cli.beran": ([("miph.cli", "_cmd_beran")], None, False),
    "estimation.fit": ([("miph.estimation", "fit")], _fitted, True),
    "estimation.e_step": ([("miph.estimation", "e_step")], _rows, False),
    "estimation.r_step": ([("miph.estimation", "r_step")], None, False),
    "estimation.m_step": ([("miph.estimation", "m_step")], None, False),
    "estimation.i_step": ([("miph.estimation", "i_step")], None, False),
    "linalg.expm_batch": (
        [("miph.linalg", "expm_batch"), ("miph.estimation", "expm_batch"),
         ("miph.model", "expm_batch"), ("miph.phasetype", "expm_batch")],
        _matrices, False),
    "model.conditional_expectation": (
        [("miph.model", "conditional_expectation")], None, False),
    "model.condition_on_survival": (
        [("miph.model", "condition_on_survival")], None, False),
    "model.joint_density": ([("miph.model", "joint_density")], _points, False),
    "model.joint_survival": ([("miph.model", "joint_survival")], _points, False),
    "model.joint_cdf": ([("miph.model", "joint_cdf")], _points, False),
    "model.psi1": ([("miph.model", "psi1")], None, False),
    "model.cross_ratio": ([("miph.model", "cross_ratio")], None, False),
    "model.kendall_tau": ([("miph.model", "kendall_tau")], None, False),
    "model.spearman_rho": ([("miph.model", "spearman_rho")], None, False),
    "model.sample_joint_rows": (
        [("miph.model", "sample_joint_rows"), ("miph.dataio", "sample_joint_rows")],
        _sampled_rows, False),
    "phasetype.sample_absorption_times": (
        [("miph.phasetype", "sample_absorption_times"),
         ("miph.model", "sample_absorption_times")],
        _paths, False),
    "dataio.write_csv": ([("miph.dataio", "write_csv")], _written, False),
    "dataio.load_csv": ([("miph.dataio", "load_csv")], _loaded, False),
    "dataio.beran_cdf": ([("miph.dataio", "beran_cdf")], None, False),
    "dataio.generate_synthetic": ([("miph.dataio", "generate_synthetic")], None, False),
    "dataio.load_model": ([("miph.dataio", "load_model")], None, False),
}

# the per-layer metrics reported for each layer. ``total_s`` includes the
# layer's child spans (the EM steps are compared by it, since most of their
# time is spent in ``expm_batch``); ``expm_calls`` counts ``linalg.expm_batch``
# spans that run inside the layer's spans
STATS = {
    "cli.measures": ("self_s",),
    "cli.eval": ("self_s",),
    "cli.simulate": ("self_s",),
    "cli.beran": ("self_s",),
    "estimation.fit": ("self_s", "iterations", "warnings"),
    "estimation.e_step": ("calls", "self_s", "total_s", "rows"),
    "estimation.r_step": ("calls", "self_s", "total_s", "p50_ms", "max_ms"),
    "estimation.m_step": ("self_s",),
    "estimation.i_step": ("calls", "self_s", "total_s", "expm_calls"),
    "linalg.expm_batch": ("calls", "matrices", "self_s", "us_per_matrix"),
    "model.conditional_expectation": ("calls", "self_s", "expm_calls"),
    "model.condition_on_survival": ("calls", "self_s"),
    "model.joint_density": ("self_s", "points"),
    "model.joint_survival": ("self_s", "points"),
    "model.joint_cdf": ("self_s", "points"),
    "model.psi1": ("self_s",),
    "model.cross_ratio": ("self_s",),
    "model.kendall_tau": ("self_s",),
    "model.spearman_rho": ("self_s",),
    "model.sample_joint_rows": ("self_s", "rows"),
    "phasetype.sample_absorption_times": ("self_s", "paths"),
    "dataio.write_csv": ("self_s", "rows", "bytes"),
    "dataio.load_csv": ("self_s", "rows", "bytes"),
    "dataio.beran_cdf": ("calls", "self_s"),
    "dataio.generate_synthetic": ("self_s",),
    "dataio.load_model": ("self_s",),
}

UNITS = {"self_s": "s", "total_s": "s", "p50_ms": "ms", "max_ms": "ms", "bytes": "B",
         "us_per_matrix": "us"}

EXPM = "linalg.expm_batch"


class Span:
    """One call into a layer: where it sits in the call tree and its counts."""

    __slots__ = ("layer", "parent", "start", "end", "info")

    def __init__(self, layer: str, parent: int):
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.info: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``restore`` undoes every wrap."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.missing_targets: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._active = True

    def install(self, layers=LAYERS) -> None:
        """Wrap every target of every layer. A target that cannot be found
        goes to ``missing_targets``; a layer none of whose targets was found
        goes to ``absent``."""
        for layer, (targets, count, catch) in layers.items():
            wrapped = False
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing_targets.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original, count, catch))
                wrapped = True
            if not wrapped:
                self.absent.append(layer)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block (the benchmark's own output checks)
        record no spans."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _wrap(self, layer, original, count, catch):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._active:
                return original(*args, **kwargs)
            span = Span(layer, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            with warnings.catch_warnings(record=True) if catch else contextlib.nullcontext() as caught:
                if catch:
                    warnings.simplefilter("always")
                span.start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
            if catch:
                span.info["warnings"] = sum(
                    issubclass(w.category, RuntimeWarning) for w in caught
                )
            if count is not None:
                span.info.update(count(args, kwargs, result))
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]


def _under(spans: list[Span], index: int, layer: str) -> bool:
    """Whether span ``index`` has an ancestor in ``layer``."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].layer == layer:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], absent=()) -> dict:
    """Per-layer metrics as ``{name: {"value": v, "unit": u}}``.

    Layers the run never entered report zero calls and zero time; layers in
    ``absent`` (names the program no longer has) are left out.
    """
    selfs = self_times(spans)
    expm_spans = [i for i, s in enumerate(spans) if s.layer == EXPM]
    out = {}
    for layer, stats in STATS.items():
        if layer in absent:
            continue
        mine = [i for i, s in enumerate(spans) if s.layer == layer]
        self_s = sum(selfs[i] for i in mine)
        durations = [spans[i].seconds * 1e3 for i in mine]
        for stat in stats:
            if stat == "calls":
                value = len(mine)
            elif stat == "self_s":
                value = self_s
            elif stat == "total_s":
                value = sum(spans[i].seconds for i in mine if not _under(spans, i, layer))
            elif stat == "p50_ms":
                value = statistics.median(durations) if durations else 0.0
            elif stat == "max_ms":
                value = max(durations, default=0.0)
            elif stat == "expm_calls":
                value = sum(_under(spans, i, layer) for i in expm_spans)
            elif stat == "us_per_matrix":
                matrices = sum(spans[i].info.get("matrices", 0) for i in mine)
                value = self_s / matrices * 1e6 if matrices else 0.0
            else:
                value = sum(spans[i].info.get(stat, 0) for i in mine)
            out[f"{layer}.{stat}"] = {"value": value, "unit": UNITS.get(stat, "count")}
    return out
