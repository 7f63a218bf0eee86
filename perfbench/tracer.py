"""Outside-in span tracing of lhdopt's public functions.

``Tracer.install()`` replaces each traced function with a wrapper at every
name a caller looks it up by: ``lhdopt.search`` imports ``two_distinct`` by
name, so ``lhdopt.search.two_distinct`` is wrapped as well as
``lhdopt.rng.two_distinct``, while ``criteria`` reaches the kernels through
the ``_kernels`` module attribute.  Private aliases such as
``_kernels.phi_delta_np`` are left alone, so one kernel span is one call
through the dispatch name the program uses.  ``uninstall()`` restores every
original, which is how the benchmark alternates traced and untraced passes in
one process.

A span has a name, start, end, parent span and run id; one search run or
one CLI call is one run id.  Self time is a span's duration minus the
durations of its child spans on the same thread.  Counts and self times are
accumulated per thread as spans close; raw spans are kept in memory up to a
cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import threading
import time

# layer -> modules whose functions it owns, in the order reports list them
LAYERS = {
    "kernel": ("_kernels",),
    "criteria": ("criteria",),
    "algorithm": ("search", "rng", "design"),
    "cli": ("cli", "io", "constructions"),
    "harness": ("benchmark",),
}

SEARCH_FUNCTIONS = ("sa_search", "oasa_search", "sa_multiobj_search",
                    "sliced_sa_search", "ga_search", "lapso_search")

# (module, attribute) of every traced function besides the kernels, which
# come from ``_kernels.IMPLEMENTATIONS``
TRACED = (
    [("criteria", "evaluate"), ("criteria", "Evaluator.__init__"),
     ("criteria", "Evaluator.propose"), ("criteria", "Evaluator.commit")]
    + [("search", name) for name in SEARCH_FUNCTIONS]
    + [("search", "match_swaps"), ("rng", "two_distinct"), ("rng", "permutation"),
       ("design", "random_lhd"), ("design", "validate")]
    + [("constructions", name) for name in ("olhd_ye1998", "olhd_cioppa2007",
                                            "olhd_sun2010", "olhd_butler2001",
                                            "oa_to_lhd")]
    + [("io", "write_design"), ("io", "write_json"), ("io", "read_design"),
       ("cli", "main"), ("benchmark", "run_benchmark")]
)

SPAN_CAP = 200_000


def span_name(module: str, attr: str) -> str:
    """``_kernels.phi_delta`` -> ``kernels.phi_delta``; ``__init__`` -> ``init``."""
    return f"{module.lstrip('_')}.{attr.replace('__init__', 'init')}"


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0].replace("kernels", "_kernels")
    for layer, modules in LAYERS.items():
        if module in modules:
            return layer
    raise KeyError(name)


class _ThreadState:
    __slots__ = ("stack", "calls", "self_s", "total_s", "is_main")

    def __init__(self, n_names: int):
        self.stack: list[list] = []          # frames: [span id, child seconds, name id]
        self.calls = [0] * n_names
        self.self_s = [0.0] * n_names
        self.total_s = [0.0] * n_names
        self.is_main = threading.current_thread() is threading.main_thread()


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self, run_id: int = 0, span_cap: int = SPAN_CAP):
        from lhdopt import _kernels

        for module in {m for m, _ in TRACED}:  # every module a traced name lives in
            importlib.import_module(f"lhdopt.{module}")

        self.run_id = run_id
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.searches: list[tuple] = []       # (name id, parent name id, main?, wall, cpu, evals)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple] = []
        self._targets = [("_kernels", name) for name in _kernels.IMPLEMENTATIONS[_kernels.ACTIVE]]
        self._targets += TRACED
        self.names = [span_name(m, a) for m, a in self._targets]
        self._search_ids = frozenset(
            i for i, (m, a) in enumerate(self._targets) if m == "search" and a in SEARCH_FUNCTIONS
        )

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(len(self.names))
            with self._lock:
                self._states.append(st)
            self._local.state = st
            return st

    def _wrap(self, nid: int, fn):
        tracer = self
        clock = time.perf_counter
        ids = self._ids
        spans = self.spans
        cap = self.span_cap
        is_search = nid in self._search_ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0, nid]
            stack.append(frame)
            if is_search:
                c0 = time.thread_time()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.calls[nid] += 1
                st.self_s[nid] += dur - frame[1]
                st.total_s[nid] += dur
                if parent is not None:
                    parent[1] += dur
                if len(spans) < cap:
                    spans.append((tracer.run_id, frame[0], parent[0] if parent else 0,
                                  nid, t0, t1))
            if is_search:
                tracer.searches.append((
                    nid, parent[2] if parent else -1, st.is_main, dur,
                    time.thread_time() - c0, int(result.evaluations_used),
                ))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each lhdopt name bound to it."""
        if self._installed:
            return
        modules = [m for name, m in sys.modules.items()
                   if name == "lhdopt" or name.startswith("lhdopt.")]
        for nid, (module, attr) in enumerate(self._targets):
            owner = sys.modules[f"lhdopt.{module}"]
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._installed.append((cls, meth, original))
                setattr(cls, meth, self._wrap(nid, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._installed.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self and total seconds, plus what metrics derive from.

        ``top_evals`` counts evaluations of search runs not nested in another
        search (``sa_multiobj_search`` calls ``sa_search``); ``cells`` are the
        search runs a ``run_benchmark`` grid executed, as (wall, thread CPU)
        seconds.
        """
        calls = {n: 0 for n in self.names}
        self_s = {n: 0.0 for n in self.names}
        total_s = {n: 0.0 for n in self.names}
        main_self = 0.0
        for st in self._states:
            for nid, name in enumerate(self.names):
                calls[name] += st.calls[nid]
                self_s[name] += st.self_s[nid]
                total_s[name] += st.total_s[nid]
                if st.is_main:
                    main_self += st.self_s[nid]
        evals = {self.names[i]: 0 for i in self._search_ids}
        top_evals = 0
        cells = []
        grid = self.names.index("benchmark.run_benchmark")
        for nid, parent, is_main, wall, cpu, n_evals in self.searches:
            evals[self.names[nid]] += n_evals
            if parent not in self._search_ids:
                top_evals += n_evals
            if parent == grid or (parent == -1 and not is_main):
                cells.append([wall, cpu])
        return {"calls": calls, "self_s": self_s, "total_s": total_s, "main_self_s": main_self,
                "evals": evals, "top_evals": top_evals, "cells": cells,
                "spans": [list(s) for s in self.spans], "names": self.names}


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several processes; spans get their names."""
    out = {"calls": {}, "self_s": {}, "total_s": {}, "main_self_s": 0.0, "evals": {},
           "top_evals": 0, "cells": [], "spans": []}
    for s in summaries:
        for key in ("calls", "self_s", "total_s", "evals"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["main_self_s"] += s["main_self_s"]
        out["top_evals"] += s["top_evals"]
        out["cells"] += s["cells"]
        names = s["names"]
        out["spans"] += [[r, sid, parent, names[nid], t0, t1]
                         for r, sid, parent, nid, t0, t1 in s["spans"]]
    return out


def write_spans(path, spans: list) -> None:
    """Raw spans as gzip CSV: run, span, parent, name, start_s, end_s."""
    with gzip.open(path, "wt", newline="\n") as f:
        f.write("run,span,parent,name,start_s,end_s\n")
        for r, sid, parent, name, t0, t1 in spans:
            f.write(f"{r},{sid},{parent},{name},{t0!r},{t1!r}\n")
