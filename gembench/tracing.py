"""Span recorder for the traced benchmark run.

The recorder lives in the benchmark, not in the library: :meth:`Tracer.install`
wraps public methods of each layer (``GaussianMixture.fit``,
``GemIndex.search``, ``GemService.ingest``, ...) by replacing the class or
module attribute, and :meth:`Tracer.uninstall` restores the originals. Untimed
runs never install it, so they carry no wrapper at all.

A span records its name, start and end (``perf_counter_ns``), the span that
was open on the same thread when it started (its parent) and the benchmark
phase it ran in. Self time is a span's duration minus its direct children's.
Spans stay in memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("sid", "name", "parent", "phase", "start", "end", "children_ns")

    def __init__(self, sid: int, name: str, parent: int | None, phase: str) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.phase = phase
        self.start = time.perf_counter_ns()
        self.end = self.start
        self.children_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.children_ns


class Tracer:
    """In-memory span recorder plus the layer wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.counts: dict[str, float] = {
            "cache_gets": 0,
            "cache_hits": 0,
            "rows_scanned": 0,
        }
        self.fits: list[tuple[int, np.ndarray]] = []  # (n_iter_, fit input)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(len(self.spans), name, parent.sid if parent else None, self.phase)
        self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent.children_ns += sp.duration_ns

    # ------------------------------------------------------------- wrappers

    def _patch(self, owner: object, attr: str, name: str | None, after=None) -> None:
        """Wrap ``owner.attr`` in a span ``name`` (``None``: count only)."""
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if name is None:
                result = func(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = func(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every traced public call; idempotent."""
        if self._patches:
            return
        from repro.core import persistence as core_persistence
        from repro.core.cache import SignatureCache
        from repro.core.gem import GemEmbedder
        from repro.data.table import ColumnCorpus
        from repro.gmm.model import GaussianMixture
        from repro.index import persistence as index_persistence
        from repro.index.core import GemIndex
        from repro.serve.oplog import GemOpLog
        from repro.serve.service import GemService
        from repro.serve.snapshot import SnapshotStore

        counts = self.counts

        def count_get(args, row):
            counts["cache_gets"] += 1
            counts["cache_hits"] += row is not None

        def count_scan(args, result):
            index, queries = args[0], args[1]
            counts["rows_scanned"] += int(np.shape(queries)[0]) * len(index)

        def keep_fit(args, gmm):
            self.fits.append((int(gmm.n_iter_), np.asarray(args[1])))

        self._patch(ColumnCorpus, "stacked_values", "data.stack")
        self._patch(GaussianMixture, "fit", "gmm.fit", keep_fit)
        self._patch(GaussianMixture, "predict_proba", "gmm.score")
        self._patch(GemEmbedder, "fit", "core.fit")
        self._patch(GemEmbedder, "transform", "core.transform")
        self._patch(GemEmbedder, "mean_probabilities", "core.signature")
        self._patch(GemEmbedder, "statistical_embeddings", "core.statistics")
        self._patch(SignatureCache, "get", None, count_get)
        self._patch(core_persistence, "save_gem", "core.save")
        self._patch(core_persistence, "load_gem", "core.load")
        self._patch(GemIndex, "add", "index.add")
        self._patch(GemIndex, "search", "index.search", count_scan)
        self._patch(GemIndex, "snapshot", "index.snapshot")
        self._patch(GemIndex, "remove", "index.remove")
        self._patch(index_persistence, "save_index", "index.save")
        self._patch(index_persistence, "load_index", "index.load")
        self._patch(GemService, "search", "serve.search")
        self._patch(GemService, "ingest", "serve.ingest")
        self._patch(GemService, "evict", "serve.evict")
        self._patch(GemService, "from_archives", "serve.from_archives")
        self._patch(SnapshotStore, "apply", "serve.apply")
        self._patch(GemOpLog, "append", "serve.wal_append")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def active(self, on: bool):
        """Install the wrappers for the duration of the block when ``on``."""
        if not on:
            yield
            return
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------ reporting

    def self_seconds(self, name: str) -> float:
        return sum(sp.self_ns for sp in self.spans if sp.name == name) / 1e9

    def mean_self_ms(self, name: str) -> float:
        spans = [sp.self_ns for sp in self.spans if sp.name == name]
        return float(np.mean(spans)) / 1e6 if spans else float("nan")

    def replay_seconds(self) -> float:
        """``from_archives`` time minus its model and index loads."""
        by_id = {sp.sid: sp for sp in self.spans}
        total = 0
        for sp in self.spans:
            if sp.name == "serve.from_archives":
                total += sp.duration_ns
        for sp in self.spans:
            if sp.name in ("core.load", "index.load") and sp.parent is not None:
                if by_id[sp.parent].name == "serve.from_archives":
                    total -= sp.duration_ns
        return total / 1e9

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the traced portion of the run.

        ``*_s`` metrics are summed self seconds; ``*_ms`` are mean self
        milliseconds per request; the rest are counts or ratios.
        """
        n_iter, fit_input = self.fits[-1] if self.fits else (0, np.empty(0))
        gets = self.counts["cache_gets"]
        return {
            "data.corpus_s": self.self_seconds("data.corpus"),
            "data.stack_s": self.self_seconds("data.stack"),
            "gmm.fit_s": self.self_seconds("gmm.fit"),
            "gmm.n_iter": n_iter,
            "gmm.values_fit": int(fit_input.size),
            "gmm.values_unique": int(np.unique(fit_input).size),
            "gmm.score_s": self.self_seconds("gmm.score"),
            "core.fit_self_s": self.self_seconds("core.fit"),
            "core.transform_s": self.self_seconds("core.transform"),
            "core.signature_s": self.self_seconds("core.signature"),
            "core.statistics_s": self.self_seconds("core.statistics"),
            "core.cache_hit_ratio": self.counts["cache_hits"] / gets if gets else 0.0,
            "index.add_s": self.self_seconds("index.add"),
            "index.search_s": self.self_seconds("index.search"),
            "index.rows_scanned": self.counts["rows_scanned"],
            "index.snapshot_s": self.self_seconds("index.snapshot"),
            "index.remove_s": self.self_seconds("index.remove"),
            "index.save_s": self.self_seconds("index.save"),
            "index.load_s": self.self_seconds("index.load"),
            "evaluation.self_s": self.self_seconds("evaluation"),
            "serve.search_self_ms": self.mean_self_ms("serve.search"),
            "serve.ingest_self_ms": self.mean_self_ms("serve.ingest"),
            "serve.apply_s": self.self_seconds("serve.apply"),
            "serve.wal_append_s": self.self_seconds("serve.wal_append"),
            "serve.replay_s": self.replay_seconds(),
        }

    def dump(self, path: Path, extra: dict) -> None:
        """Write every span (and ``extra`` summary fields) as JSON."""
        t0 = self.spans[0].start if self.spans else 0
        payload = dict(extra)
        payload["spans"] = [
            {
                "id": sp.sid,
                "name": sp.name,
                "parent": sp.parent,
                "phase": sp.phase,
                "start_us": (sp.start - t0) / 1e3,
                "end_us": (sp.end - t0) / 1e3,
                "self_us": sp.self_ns / 1e3,
            }
            for sp in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
