"""Out-of-package tracing of ottopair's layers.

`Tracer` wraps the layer functions listed in `LAYERS`, in every ottopair
module namespace that bound them, plus ``numpy.linalg.eigh``/``eigvalsh``
when ottopair calls them.  Each call records a span (name, start, end,
parent span, job id) in per-thread buffers; `Tracer.stats` turns the spans
into per-layer counts and times after the pass.  `Tracer.remove` puts every
original attribute back.  The program itself is never modified.

Self time is a span's duration minus the union of its child spans.  Pool
threads have no span of their own at the bottom of their stack, so their
top-level spans take the span open on the main thread as parent (the
`cli.main` or `cli.figure_rows` call that waits on the pool).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer module -> functions timed at its boundary
LAYERS = {
    "cli": ("main", "figure_rows"),
    "medium": ("standard_cycle", "mode_pairs_for_cycle", "oscillator_normal_modes",
               "spin_normal_modes", "oscillator_mode_frequencies", "spin_mode_frequencies"),
    "cycle": ("evaluate_cycle", "mode_heats", "classify_regime", "heats_arrays"),
    "entanglement": ("spin_pair_hamiltonian", "spin_pair_hamiltonian_batch",
                     "thermal_state_batch", "concurrence_batch"),
    "optimize": ("single_system_work", "coupled_total_work", "max_uncoupled_work",
                 "max_coupled_work", "sample_engine_points"),
    "oracle": ("run_verification", "exact_spin_spectrum", "truncated_oscillator_spectrum",
               "spin_spectrum_check", "partition_factorization_check", "thermal_energy_check",
               "mode_heat_check", "spin_cycle_heat_check", "oscillator_cycle_heat_check"),
}
LINALG = ("eigh", "eigvalsh")


def _bucket(dim: int) -> str:
    """Eigensolver matrices by dimension: spin pairs and their 2x2 blocks,
    the conserved-sector blocks of the oscillator oracle, dense Fock spaces."""
    return "small" if dim <= 4 else "sector" if dim < 100 else "fock"


# work counts recorded next to the spans: key -> fn(args, kwargs, result) -> {stat: value}
EXTRAS = {
    "cycle.heats_arrays": lambda a, k, out: {"elements": np.size(out[0])},
    "entanglement.thermal_state_batch": lambda a, k, out: {"states": np.shape(out)[0]},
    "entanglement.concurrence_batch": lambda a, k, out: {"states": np.shape(out)[0]},
    "optimize.sample_engine_points": lambda a, k, out: {
        "accepted": len(out), "draws": int(k["n"] if "n" in k else a[1])},
}


class _ThreadBuffer:
    """Spans and counters of one thread; only that thread appends."""

    def __init__(self):
        self.stack: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.job = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict = defaultdict(int)


class Tracer:
    """Install with `install()`, run jobs, `remove()`, then read `stats()`.

    `layers` maps each ottopair module to the functions to time; a listed
    function the module no longer has is reported absent."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS):
        self.job = 0
        self._layers = layers
        self.absent: list[str] = []
        self._names: list[str] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_ThreadBuffer] = []
        self._main = self._buffer()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._tls.buf
        except AttributeError:
            buf = _ThreadBuffer()
            self._tls.buf = buf
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _span(self, nid: int, fn, args, kwargs, counts=None):
        buf = self._buffer()
        stack = buf.stack
        if stack:
            parent = stack[-1]
        elif buf is not self._main and self._main.stack:
            parent = self._main.stack[-1]
        else:
            parent = -1
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            buf.sid.append(sid)
            buf.parent.append(parent)
            buf.name.append(nid)
            buf.job.append(self.job)
            buf.t0.append(t0)
            buf.t1.append(t1)
        if counts is not None:
            key = self._names[nid]
            for stat, value in counts(args, kwargs, out).items():
                buf.counts[(key, stat)] += value
        return out

    def _name_id(self, key: str) -> int:
        if key not in self._names:
            self._names.append(key)
        return self._names.index(key)

    def _wrap(self, key: str, fn):
        nid, counts = self._name_id(key), EXTRAS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(nid, fn, args, kwargs, counts)

        return traced

    def _wrap_linalg(self, fn):
        nids = {name: self._name_id(f"linalg.{name}") for name in ("small", "sector", "fock")}

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not (caller == "ottopair" or caller.startswith("ottopair.")):
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            bucket = _bucket(shape[-1])
            matrices = int(np.prod(shape[:-2], dtype=np.int64))
            return self._span(nids[bucket], fn, (a,) + args, kwargs,
                              lambda *_: {"matrices": matrices})

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        import ottopair.cli  # noqa: F401  (imports every layer module)

        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "ottopair" or name.startswith("ottopair."))]
        for layer, names in self._layers.items():
            home = sys.modules.get(f"ottopair.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                self._patch(mods, orig, self._wrap(f"{layer}.{fname}", orig))
        for fname in LINALG:
            orig = getattr(np.linalg, fname)
            self._patch(mods + [np.linalg], orig, self._wrap_linalg(orig))
        return self

    def _patch(self, mods, orig, wrapper):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- analysis ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays indexed by span id."""
        cols = {k: np.concatenate([np.frombuffer(getattr(b, k), dtype=t) for b in self._buffers])
                for k, t in (("sid", np.int64), ("parent", np.int64), ("name", np.uint16),
                             ("job", np.uint16), ("t0", float), ("t1", float))}
        order = np.argsort(cols["sid"])
        return {k: v[order] for k, v in cols.items()}

    def stats(self) -> tuple[dict, dict]:
        """Per-layer ``calls``, ``incl_s``, ``self_s``, ``overlap_s`` and
        extra counts keyed by ``layer.function`` (None for an absent
        function), and the self time per job index and layer function."""
        sp = self.spans()
        n_names = len(self._names)
        dur = sp["t1"] - sp["t0"]
        self_t = dur - _child_cover(sp)
        layers: dict[str, dict | None] = {key: None for key in self.absent}
        calls = np.bincount(sp["name"], minlength=n_names)
        incl = np.bincount(sp["name"], weights=dur, minlength=n_names)
        own = np.bincount(sp["name"], weights=self_t, minlength=n_names)
        for nid, key in enumerate(self._names):
            mine = sp["name"] == nid
            layers[key] = {"calls": int(calls[nid]), "incl_s": float(incl[nid]),
                           "self_s": float(own[nid]),
                           "overlap_s": float(incl[nid] - _union(sp["t0"][mine], sp["t1"][mine]))}
        for buf in self._buffers:
            for (key, stat), value in buf.counts.items():
                layers[key][stat] = layers[key].get(stat, 0) + value
        per_job: dict[int, dict[str, float]] = {}
        for job in np.unique(sp["job"]):
            mine = sp["job"] == job
            sums = np.bincount(sp["name"][mine], weights=self_t[mine], minlength=n_names)
            per_job[int(job)] = {self._names[n]: float(sums[n]) for n in np.nonzero(sums)[0]}
        return layers, per_job


def _union(t0: np.ndarray, t1: np.ndarray) -> float:
    """Length of the union of intervals [t0, t1]."""
    if t0.size == 0:
        return 0.0
    order = np.argsort(t0, kind="stable")
    s, e = t0[order], t1[order]
    reach = np.maximum.accumulate(e)
    prev = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.maximum(0.0, e - np.maximum(s, prev)).sum())


def _child_cover(sp) -> np.ndarray:
    """Per span id, the length of the union of its children's intervals.

    Children on the parent's own thread never overlap, so their union is
    their sum; only parents whose children overlap (pool threads) need the
    interval merge.
    """
    n = sp["sid"].size
    has = sp["parent"] >= 0
    parent, t0, t1 = sp["parent"][has], sp["t0"][has], sp["t1"][has]
    cover = np.bincount(parent, weights=t1 - t0, minlength=n)
    order = np.lexsort((t0, parent))
    p, s, e = parent[order], t0[order], t1[order]
    overlapping = np.unique(p[1:][(p[1:] == p[:-1]) & (s[1:] < e[:-1])])
    for pid in overlapping:
        mine = p == pid
        cover[pid] = _union(s[mine], e[mine])
    return cover
