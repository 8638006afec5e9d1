"""Span tracing of the qhsd layers, installed from outside the package.

`Tracer.install()` replaces each function in `TARGETS` with a wrapper that
records a span (name, start, end, parent) and, for a few names, counters
read off the call's arguments and result.  A function is replaced under
every name a loaded `qhsd` module binds it to, because modules such as
`qhsd.clustering` import `encode`, `hsd_exact` and `measure_hsd` by name and
look them up in their own namespace.  `Tracer.remove()` puts every original
object back.  Nothing under `src/` is edited.

Spans are kept in flat arrays in memory for one pass and written out by
`Tracer.write()`.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

import numpy as np

# (module, attribute path) of every traced function.  Methods are given as
# "Class.method"; the span name drops the class so that the two HSD
# backends share one "clustering.distance_sq" span.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("clustering", "kmeans"),
    ("clustering", "assign"),
    ("clustering", "update_centroids"),
    ("clustering", "two_gaussian_demo"),
    ("clustering", "ExactHsdBackend.distance_sq"),
    ("clustering", "SimulatedHsdBackend.distance_sq"),
    ("encoding", "encode"),
    ("states", "hsd_exact"),
    ("states", "overlap_exact"),
    ("states", "make_werner"),
    ("states", "make_horodecki"),
    ("states", "make_bell"),
    ("states", "make_separable"),
    ("interferometry", "measure_hsd"),
    ("interferometry", "measure_overlap"),
)

FACTORIES = frozenset(
    {"states.make_werner", "states.make_horodecki", "states.make_bell", "states.make_separable"}
)

# Layer metrics reported by a traced run, in the order they are printed.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("clustering.kmeans_s", "s"),
    ("clustering.assign_s", "s"),
    ("clustering.assign_self_s", "s"),
    ("clustering.update_centroids_s", "s"),
    ("clustering.distance_sq_calls", "count"),
    ("clustering.distance_sq_self_s", "s"),
    ("clustering.iterations", "count"),
    ("encoding.encode_calls", "count"),
    ("encoding.encode_s", "s"),
    ("states.hsd_exact_calls", "count"),
    ("states.hsd_exact_s", "s"),
    ("states.overlap_exact_calls", "count"),
    ("states.overlap_exact_s", "s"),
    ("states.factory_calls", "count"),
    ("states.factory_s", "s"),
    ("states.density_matrix_constructions", "count"),
    ("interferometry.measure_hsd_calls", "count"),
    ("interferometry.measure_hsd_self_s", "s"),
    ("interferometry.measure_overlap_calls", "count"),
    ("interferometry.measure_overlap_s", "s"),
    ("interferometry.shots_drawn", "count"),
    ("interferometry.out_of_range_frac", "fraction"),
    ("interferometry.clamped_frac", "fraction"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
)


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _qhsd_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items()) if n == "qhsd" or n.startswith("qhsd.")]


class Tracer:
    """Records spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.names: List[str] = sorted({_span_name(m, a) for m, a in TARGETS})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._patched: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the recorded spans and counters."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: Dict[str, float] = {
            "kmeans_iterations": 0,
            "density_matrices": 0,
            "shots_drawn": 0,
            "overlaps_out_of_range": 0,
            "distances_clamped": 0,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import qhsd.cli  # noqa: F401  (loads every qhsd module)

        modules = _qhsd_modules()
        try:
            for module, attr in TARGETS:
                owner = sys.modules[f"qhsd.{module}"]
                *cls, fname = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                original = owner.__dict__[fname]
                wrapper = self._wrap(original, self._ids[_span_name(module, attr)])
                if cls:
                    self._patch(owner, fname, wrapper)
                    continue
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, wrapper)
            density = sys.modules["qhsd.states"].DensityMatrix
            self._patch(density, "__post_init__", self._count_density(density.__post_init__))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def _patch(self, owner: object, name: str, wrapper: object) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, name_id: int) -> Callable:
        hook = _HOOKS.get(self.names[name_id])
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_end.append(0.0)
            tracer._stack.append(i)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[i] = clock()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_density(self, post_init: Callable) -> Callable:
        tracer = self

        def counted(obj):
            tracer.counters["density_matrices"] += 1
            post_init(obj)

        return counted

    # -- results -----------------------------------------------------------

    def calls(self) -> Dict[str, int]:
        counts = np.bincount(np.asarray(self.span_name, dtype=np.int64), minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the spans and counters recorded since reset."""
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        selft = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

        def ids(names) -> np.ndarray:
            return np.array([self._ids[n] for n in names], dtype=np.int64)

        def calls(*names) -> int:
            return int(np.isin(name, ids(names)).sum())

        def covered(*names) -> float:
            # time inside any of the named spans, counting nested ones once
            group = ids(names)
            top = np.isin(name, group) & ~np.isin(parent_name, group)
            return float(dur[top].sum())

        def self_time(*names) -> float:
            return float(selft[np.isin(name, ids(names))].sum())

        c = self.counters
        overlaps = calls("interferometry.measure_overlap")
        distances = calls("interferometry.measure_hsd")
        return {
            "clustering.kmeans_s": covered("clustering.kmeans"),
            "clustering.assign_s": covered("clustering.assign"),
            "clustering.assign_self_s": self_time("clustering.assign"),
            "clustering.update_centroids_s": covered("clustering.update_centroids"),
            "clustering.distance_sq_calls": calls("clustering.distance_sq"),
            "clustering.distance_sq_self_s": self_time("clustering.distance_sq"),
            "clustering.iterations": int(c["kmeans_iterations"]),
            "encoding.encode_calls": calls("encoding.encode"),
            "encoding.encode_s": covered("encoding.encode"),
            "states.hsd_exact_calls": calls("states.hsd_exact"),
            "states.hsd_exact_s": covered("states.hsd_exact"),
            "states.overlap_exact_calls": calls("states.overlap_exact"),
            "states.overlap_exact_s": covered("states.overlap_exact"),
            "states.factory_calls": calls(*FACTORIES),
            "states.factory_s": covered(*FACTORIES),
            "states.density_matrix_constructions": int(c["density_matrices"]),
            "interferometry.measure_hsd_calls": distances,
            "interferometry.measure_hsd_self_s": self_time("interferometry.measure_hsd"),
            "interferometry.measure_overlap_calls": overlaps,
            "interferometry.measure_overlap_s": covered("interferometry.measure_overlap"),
            "interferometry.shots_drawn": int(c["shots_drawn"]),
            "interferometry.out_of_range_frac": c["overlaps_out_of_range"] / overlaps if overlaps else 0.0,
            "interferometry.clamped_frac": c["distances_clamped"] / distances if distances else 0.0,
            "cli.main_s": covered("cli.main"),
            "cli.self_s": self_time("cli.main"),
        }

    def write(self, path: str) -> None:
        """Save the recorded spans (times in seconds from the first start)."""
        start = np.asarray(self.span_start)
        t0 = start.min() if start.size else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.span_parent, dtype=np.int32),
            start=start - t0,
            end=np.asarray(self.span_end) - t0,
        )


def _kmeans_hook(counters, args, kwargs, result) -> None:
    counters["kmeans_iterations"] += result.iterations


def _overlap_hook(counters, args, kwargs, result) -> None:
    rho1 = args[0] if args else kwargs["rho1"]
    noise = args[2] if len(args) > 2 else kwargs["noise"]
    if noise.mode != "exact":
        counters["shots_drawn"] += 2 ** rho1.n_qubits * noise.shots
    counters["overlaps_out_of_range"] += bool(result.clamped)


def _hsd_hook(counters, args, kwargs, result) -> None:
    counters["distances_clamped"] += bool(result.clamped)


_HOOKS = {
    "clustering.kmeans": _kmeans_hook,
    "interferometry.measure_overlap": _overlap_hook,
    "interferometry.measure_hsd": _hsd_hook,
}
