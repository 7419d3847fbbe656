"""Spans recorded around the package's layer boundaries, kept in memory.

The benchmark never edits the package: it swaps module attributes for timed
wrappers while an operation runs and puts the originals back afterwards.
Each wrapper records a span (name, start, end, parent).  The system's
``field``, ``jacobian`` and ``field_rows`` callables are wrapped too, but as
leaves: their calls are counted and timed per parent span, because a single
Arenstorf round makes millions of them.

A span's name is ``<layer>.<function>``, the layer being the package module
that defines the function.  ``PATCH_SITES`` lists where the wrappers go in.
A change that routes a layer's calls through another module attribute has to
update this table, or the traced run loses those spans.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("problems", "integrators", "collocation", "rpnn", "parareal",
          "certificates", "cli")
LEAVES = ("field", "jacobian", "field_rows")

# (module under rpnn_parareal, attribute looked up by the caller, span name)
PATCH_SITES = (
    ("parareal", "zeroth_iterate", "parareal.zeroth_iterate"),
    ("parareal", "fine_propagate", "integrators.fine_propagate"),
    ("parareal", "train_coarse", "collocation.train_coarse"),
    ("parareal", "sample_basis", "rpnn.sample_basis"),
    ("parareal", "eval_network", "rpnn.eval_network"),
    ("integrators", "fine_propagate", "integrators.fine_propagate"),
    ("certificates", "eval_network", "rpnn.eval_network"),
    ("certificates", "eval_network_derivative", "rpnn.eval_network_derivative"),
    ("cli", "parareal_solve", "parareal.parareal_solve"),
    ("cli", "serial_solve", "integrators.serial_solve"),
    ("cli", "evaluate_piecewise", "parareal.evaluate_piecewise"),
    ("cli", "collocation_grid", "collocation.collocation_grid"),
    ("cli", "eval_network_many", "rpnn.eval_network_many"),
    ("cli", "field_log_norm_bound", "certificates.field_log_norm_bound"),
    ("cli", "quadrature_certificate", "certificates.quadrature_certificate"),
)


class SpanRecorder:
    """Spans of one traced operation, plus leaf calls counted per parent span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.leaf_calls = {leaf: defaultdict(int) for leaf in LEAVES}
        self.leaf_time = {leaf: defaultdict(float) for leaf in LEAVES}
        self.results: dict[str, list] = defaultdict(list)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, keep_results: bool = False):
        """`fn` recording one span per call; optionally keep what it returns."""
        nid = self._name_id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        results = self.results[name]

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if keep_results:
                results.append(out)
            return out

        return traced

    def wrap_leaf(self, leaf: str, fn):
        calls, spent = self.leaf_calls[leaf], self.leaf_time[leaf]
        stack, clock = self._stack, time.perf_counter

        def counted(*args):
            t0 = clock()
            out = fn(*args)
            owner = stack[-1]
            spent[owner] += clock() - t0
            calls[owner] += 1
            return out

        return counted

    def system(self, system):
        """A copy of the OdeSystem whose callables are counted leaves."""
        return dataclasses.replace(
            system,
            field=self.wrap_leaf("field", system.field),
            jacobian=self.wrap_leaf("jacobian", system.jacobian),
            field_rows=(None if system.field_rows is None
                        else self.wrap_leaf("field_rows", system.field_rows)),
        )

    def to_json(self) -> list[dict]:
        """Spans in call order; a leaf entry is [calls, seconds] under that span."""
        return [
            {"name": self.names[self.name_id[i]], "start": self.start[i],
             "end": self.end[i], "parent": self.parent[i],
             **{leaf: [self.leaf_calls[leaf][i], self.leaf_time[leaf][i]]
                for leaf in LEAVES if i in self.leaf_calls[leaf]}}
            for i in range(len(self.name_id))
        ]


class SpanTable:
    """Durations, self times and leaf counts of a recorder's spans as arrays."""

    def __init__(self, rec: SpanRecorder):
        self.names = [rec.names[i] for i in rec.name_id]
        self.layer = np.array([name.split(".")[0] for name in self.names])
        self.parent = np.frombuffer(rec.parent, dtype=np.int32).copy()
        self.duration = (np.frombuffer(rec.end, dtype=float)
                         - np.frombuffer(rec.start, dtype=float))
        n = len(self.names)
        self.leaf_calls = {}
        self.leaf_time = {}
        for leaf in LEAVES:
            calls, spent = np.zeros(n, dtype=np.int64), np.zeros(n)
            for owner, count in rec.leaf_calls[leaf].items():
                if owner < 0:
                    raise RuntimeError(f"{leaf} called outside any traced span")
                calls[owner] = count
                spent[owner] = rec.leaf_time[leaf][owner]
            self.leaf_calls[leaf], self.leaf_time[leaf] = calls, spent
        children = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.duration[has_parent])
        leaves = sum(self.leaf_time.values())
        self.self_time = self.duration - children - leaves
        self.leaf_total = float(np.sum(leaves))

    def select(self, name: str) -> np.ndarray:
        return np.array([n == name for n in self.names], dtype=bool)

    def layer_self_time(self, layer: str) -> float:
        """Time inside the layer's own code, children and leaves excluded."""
        if layer == "problems":
            return self.leaf_total
        return float(np.sum(self.self_time[self.layer == layer]))

    def layer_spans(self, layer: str) -> int:
        if layer == "problems":
            return int(sum(np.sum(calls) for calls in self.leaf_calls.values()))
        return int(np.sum(self.layer == layer))

    def leaves_under(self, leaves, parent_mask: np.ndarray | None = None) -> int:
        """Leaf calls, optionally only those whose direct parent is in the mask."""
        total = 0
        for leaf in leaves:
            calls = self.leaf_calls[leaf]
            total += int(np.sum(calls if parent_mask is None else calls[parent_mask]))
        return total


@contextmanager
def tracing(rec: SpanRecorder):
    """Install the recorder's wrappers at every patch site while the block runs."""
    import rpnn_parareal.certificates
    import rpnn_parareal.cli
    import rpnn_parareal.integrators
    import rpnn_parareal.parareal

    modules = {
        "parareal": rpnn_parareal.parareal,
        "integrators": rpnn_parareal.integrators,
        "certificates": rpnn_parareal.certificates,
        "cli": rpnn_parareal.cli,
    }
    saved = []
    try:
        for module_name, attr, span in PATCH_SITES:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, rec.wrap(span, original,
                                           keep_results=attr == "train_coarse"))
        cli = modules["cli"]
        make_benchmark = cli.make_benchmark
        saved.append((cli, "make_benchmark", make_benchmark))
        cli.make_benchmark = lambda *args, **kwargs: rec.system(
            make_benchmark(*args, **kwargs))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class FineProbe:
    """Start and end of each fine-interval and training call, for untraced solves.

    Two clock reads per call, a few hundred calls per solve: well under a
    millisecond on solves that take a second or more.
    """

    def __init__(self):
        self.fine: list[tuple[float, float]] = []
        self.train: list[tuple[float, float]] = []

    def _timed(self, fn, into):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            into.append((t0, clock()))
            return out

        return timed

    @contextmanager
    def installed(self):
        import rpnn_parareal.parareal as parareal

        fine, train = parareal.fine_propagate, parareal.train_coarse
        parareal.fine_propagate = self._timed(fine, self.fine)
        parareal.train_coarse = self._timed(train, self.train)
        try:
            yield self
        finally:
            parareal.fine_propagate, parareal.train_coarse = fine, train

    def model_parts(self, solve_start: float, solve_end: float, intervals: int) -> np.ndarray:
        """The parts of the modelled parallel time of one solve, in order.

        The zeroth sweep, then for each iteration its fine intervals and its
        coarse sweep.  Iteration i's fine sweep is calls i*N .. i*N+N-1; its
        coarse sweep runs from the end of the last of them to the next
        sweep's first call, or to the end of the solve.
        """
        if not self.fine or len(self.fine) % intervals:
            raise RuntimeError(f"{len(self.fine)} fine calls for {intervals} intervals")
        sweeps = [self.fine[i:i + intervals] for i in range(0, len(self.fine), intervals)]
        starts = [sweep[0][0] for sweep in sweeps[1:]] + [solve_end]
        parts = [sweeps[0][0][0] - solve_start]
        for sweep, next_start in zip(sweeps, starts):
            parts.extend(end - begin for begin, end in sweep)
            parts.append(next_start - sweep[-1][1])
        return np.array(parts)


def model_parallel(parts: list[np.ndarray], intervals: int) -> float:
    """Zeroth sweep + sum over iterations of (slowest fine interval + coarse sweep).

    Each part is taken at its fastest among repeated identical solves, as
    the solves' end-to-end times are: interference only ever adds time.
    """
    best = np.min(parts, axis=0)
    iterations = best[1:].reshape(-1, intervals + 1)
    return float(best[0] + np.sum(iterations[:, :-1].max(axis=1) + iterations[:, -1]))
