"""Spans around the benchmark's calls into each library layer.

A span is ``[name, start, end, parent, tag]``; its layer is the name up to the
first dot (``core.query_many`` belongs to ``core``).  Names without a dot
(``step``, ``round``, ``setup``) are roots owned by the benchmark.  Spans live
in memory and are written out when the run ends.

Client threads open spans with an empty stack of their own; those spans are
parented to the innermost span the main thread has open (the phase that is
waiting for them), so concurrent work still nests under the step it serves.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

_NULL = nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "tag", "index")

    def __init__(self, tracer: "Tracer", name: str, tag) -> None:
        self.tracer = tracer
        self.name = name
        self.tag = tag

    def __enter__(self) -> "_Span":
        self.index = self.tracer._open(self.name, self.tag)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.index)


class Tracer:
    """Records spans while :attr:`enabled`; a disabled tracer costs one branch per span."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def span(self, name: str, tag=None):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, tag)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, tag) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else -1
        with self._lock:
            if tag is None and parent >= 0:
                tag = self.spans[parent][4]
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, tag])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    # ------------------------------------------------------------------
    # queries over the recorded spans
    # ------------------------------------------------------------------
    def durations(self, name: str, tags=None) -> list[float]:
        """Seconds of every closed span called ``name`` (optionally only the given tags)."""
        return [
            end - start
            for span_name, start, end, _, tag in self.spans
            if span_name == name and end > 0.0 and (tags is None or tag in tags)
        ]

    def count(self, prefix: str, tags=None) -> int:
        return sum(
            1 for name, _, _, _, tag in self.spans
            if name.startswith(prefix) and (tags is None or tag in tags)
        )

    def attribute(self, root_name: str) -> list[dict[str, float]]:
        """Per-layer self time of every root span called ``root_name``.

        Each root's interval is cut at every span boundary; each piece is
        charged to the innermost open spans (split evenly when several
        threads are busy at once), so the layers plus the root's own
        remainder (key ``""``) add up to the root's wall time exactly.
        """
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        out = []
        for index, span in enumerate(self.spans):
            if span[0] == root_name and span[3] < 0 and span[2] > 0.0:
                out.append(_attribute_tree(self.spans, children, index))
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, tag) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end, "parent": parent, "tag": tag}
                ) + "\n")


def _attribute_tree(spans: list[list], children: dict[int, list[int]], root: int) -> dict[str, float]:
    members = [root]
    for index in members:
        members.extend(children.get(index, ()))
    local = {index: k for k, index in enumerate(members)}
    starts = np.array([spans[i][1] for i in members])
    ends = np.array([spans[i][2] if spans[i][2] > 0.0 else spans[root][2] for i in members])
    cuts = np.unique(np.concatenate([starts, ends]))
    dt = np.diff(cuts)
    active = (starts[:, None] <= cuts[None, :-1]) & (ends[:, None] >= cuts[None, 1:])
    busy_child = np.zeros_like(active)
    parents = np.array([local[spans[i][3]] for i in members[1:]], dtype=np.int64)
    np.logical_or.at(busy_child, parents, active[1:])
    leaf = active & ~busy_child
    share = np.divide(leaf, leaf.sum(axis=0), out=np.zeros(leaf.shape), where=leaf.any(axis=0))
    charged = share @ dt
    layers: dict[str, float] = defaultdict(float)
    for k, index in enumerate(members):
        name = spans[index][0]
        layers[name.split(".", 1)[0] if "." in name else ""] += float(charged[k])
    return dict(layers)


@contextmanager
def substrate_probes(tracer: Tracer):
    """Span the lazy substrate builders as ``repro.mesh.base`` binds them.

    ``AdjacencyList.from_cells`` and ``extract_surface`` run inside whichever
    call first touches a mesh's connectivity; wrapping them charges that work
    to the mesh layer within the enclosing span.
    """
    from repro.mesh import base

    adjacency = base.AdjacencyList
    original_from_cells = adjacency.__dict__["from_cells"]
    original_extract = base.extract_surface

    def from_cells(cls, *args, **kwargs):
        with tracer.span("mesh.adjacency_build"):
            return original_from_cells.__func__(cls, *args, **kwargs)

    def extract_surface(*args, **kwargs):
        with tracer.span("mesh.surface_extract"):
            return original_extract(*args, **kwargs)

    adjacency.from_cells = classmethod(from_cells)
    base.extract_surface = extract_surface
    try:
        yield
    finally:
        adjacency.from_cells = original_from_cells
        base.extract_surface = original_extract
