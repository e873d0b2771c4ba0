"""One benchmark run: set-up, offline pipeline rounds and serving sessions.

Every workload runs the same steps, so every metric is defined on every
workload; the workloads differ in their corpora (see ``spec.json``):

* **gen** — generate the inputs (``setup_s``, with the archive save and the
  service start);
* **build** — ``GemEmbedder.fit`` then ``build_index`` on the lake, which
  transforms and indexes it (``build_s``; on serve-gds, where that lake is
  the served one, also part of ``setup_s``). The first build also indexes
  the 10,000-row served lake where it differs from the lake (pipeline-sato;
  part of ``setup_s``) and saves the archives the sessions start from;
* **search** — the §4.1.2 all-columns top-k via
  ``precision_recall_at_k(..., index=...)`` (``lake_search_s``);
* **session** — start a ``GemService`` with a fresh write-ahead log from the
  saved archives, warm it up, let one closed-loop client send a fixed
  number of requests of the seeded op mix (the latency and throughput
  metrics), close it, then restart it with ``GemService.from_archives``,
  which replays the session's writes before answering a first search
  (``restart_s``).

The host's speed drifts: identical code runs up to ~30% slower in some
runs than in others, for minutes at a time, and by 10-20% between seconds
of one run. The steps are therefore interleaved (:data:`PLAN`), so each
metric's samples come from several points of the run and their median
resists a slow stretch. Slow stretches that outlast a run move all of its
times together, so the gated times are divided by the run's host factor
(:mod:`hostref`, measured in a helper process before every step); the
measured times are reported beside them (see ``spec.json``).
With tracing on, the repeats of each step alternate untraced and traced,
so the traced ÷ untraced ratio (``tracing.overhead``) compares interleaved
samples.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import GemConfig, GemEmbedder
from repro.core import persistence as core_persistence
from repro.core.cache import array_fingerprint
from repro.data import ColumnCorpus
from repro.evaluation.neighbors import cosine_similarity_matrix, top_k_neighbors
from repro.evaluation.precision import precision_recall_at_k
from repro.index import corpus_column_ids
from repro.index import persistence as index_persistence
from repro.serve import DeadlineExceededError, GemService, SheddingError

from hostref import HostReference
from tracing import Tracer
from workloads import (
    SESSION_RATE,
    SEARCH_COLUMNS,
    SEARCH_K,
    WARMUP_OPS,
    WORKLOADS,
    RequestSource,
)

#: The model every workload fits: 20 components, 2 restarts, all else default.
CONFIG = {"n_components": 20, "n_init": 2}
#: Step order of a run; the first build also saves the archives the
#: sessions start from.
PLAN = (
    "gen", "build", "search", "session", "gen", "session",
    "search", "build", "session", "search", "session",
)
#: Workloads whose fit and lake index are set-up before serving: there
#: ``setup_s`` includes the build, which ``build_s`` also reports.
BUILD_IN_SETUP = ("serve-gds",)
#: Timed all-columns searches per search step.
SEARCH_REPEATS = 3
#: Restarts per session.
RESTARTS = 5
#: Throughput and latency percentiles are medians over blocks of this many
#: consecutive requests: a stretch of host contention (which a shared
#: 2-vCPU host has, lasting from milliseconds to minutes) then moves only the
#: blocks it touches, not the figure.
BLOCK = 50
#: Columns per transform when indexing the served lake: in one piece, its
#: 10,000 columns would set the run's memory high-water mark (peak_rss_mb),
#: which is the pipeline's on pipeline-sato.
SERVED_CHUNK = 2_000
#: Query rows of the index-versus-dense bit-identity check.
IDENTITY_QUERIES = 64
#: End-to-end times divided by the run's host factor (throughput is
#: multiplied by it); the other metrics are not times.
HOST_SCALED = (
    "setup_s", "build_s", "lake_search_s", "search_p50_ms", "search_p90_ms",
    "ingest_p50_ms", "ingest_p90_ms", "restart_s",
)
#: Errors a request may raise instead of an answer: a typed refusal.
REFUSALS = (SheddingError, DeadlineExceededError)


@dataclass
class Samples:
    """Values of one measurement, split by whether tracing was on."""

    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)

    def extend(self, traced: bool, values: list[float]) -> None:
        (self.traced if traced else self.plain).extend(values)

    def values(self, traced: bool = False) -> list[float]:
        return self.traced if traced else self.plain

    def median(self, traced: bool = False) -> float:
        values = self.values(traced)
        return statistics.median(values) if values else math.nan


@dataclass
class RunResult:
    end_to_end: dict[str, float]
    raw_end_to_end: dict[str, float]
    host_factor: float
    per_layer: dict[str, float]
    checks: dict[str, bool]
    attempted: int
    failed: int
    notes: list[str]


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


def block_percentile(values: list[float], q: float) -> float:
    """Median over blocks of :data:`BLOCK` consecutive values of the block's
    ``q``-th percentile (one block if there are fewer values)."""
    n_blocks = max(len(values) // BLOCK, 1)
    blocks = [values[i * BLOCK : (i + 1) * BLOCK] for i in range(n_blocks)]
    return statistics.median(percentile(b, q) for b in blocks)


def tail_percentile(n: int) -> float:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = 50.0
    for q in (90.0, 99.0, 99.9):
        if n * (1 - q / 100) >= 10:
            best = q
    return best


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.requests = round(seconds * SESSION_RATE)
        self.tracer = Tracer()
        self.checks: dict[str, bool] = {}
        self.notes: list[str] = []
        self.samples = {
            name: Samples()
            for name in (
                "gen_s", "serve_index_s", "save_s", "start_s", "build_s", "lake_search_s",
                "restart_s",
            )
        }
        self.samples["throughput_rps"] = Samples()
        self.latency = {op: Samples() for op in ("search", "ingest", "evict")}
        self.done: Counter = Counter()  # repeats of each step so far
        self.attempted = 0
        self.failed = 0
        self.answers: list[tuple[list[str], np.ndarray]] = []  # query labels, ids
        self.service_counts: Counter = Counter()

    def record(self, name: str, traced: bool, value: float) -> None:
        self.samples[name].extend(traced, [value])

    def span(self, traced: bool):
        return (lambda name: self.tracer.span(name)) if traced else (lambda name: nullcontext())

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"CHECK FAILED {name}: {detail}")

    # ----------------------------------------------------------------- steps

    def gen(self, traced: bool) -> None:
        # Inputs are the same on every repeat: keep only one copy alive, and
        # let the new request source resume where the old one stopped.
        position = self.source.position if self.done["gen"] else 0
        self.inputs = self.source = None
        gc.collect()
        with self.tracer.active(traced):
            t0 = perf_counter()
            self.inputs = WORKLOADS[self.workload](self.seed, self.span(traced))
            self.record("gen_s", traced, perf_counter() - t0)
        self.source = RequestSource(self.inputs, position)
        if self.done["gen"] == 0:
            served = self.inputs.served
            self.labels = {
                cid: c.fine_label for cid, c in zip(corpus_column_ids(served), served)
            }

    def build(self, traced: bool) -> None:
        inputs = self.inputs
        self.gem = self.index = self.evaluated = None  # free the previous round
        gc.collect()
        with self.tracer.active(traced):
            t0 = perf_counter()
            gem = GemEmbedder(config=GemConfig(**CONFIG)).fit(inputs.fit)
            index = gem.build_index(inputs.lake)
            self.record("build_s", traced, perf_counter() - t0)
        self.attempted += 1
        self.gem, self.index = gem, index
        if inputs.evaluated is inputs.lake:
            self.evaluated = index
        else:
            self.evaluated = gem.build_index(inputs.evaluated)
        if self.done["build"] == 0:
            self.save(self.trace)  # saved once, so traced whenever tracing is on
        self.check(
            "gmm_converged", gem.gmm_.converged_, f"EM stopped after {gem.gmm_.n_iter_} sweeps"
        )
        self.check(
            "embeddings_finite",
            np.isfinite(index.vectors()).all() and np.isfinite(self.evaluated.vectors()).all(),
            "non-finite embedding rows",
        )

    def save(self, traced: bool) -> None:
        """Write the model and served-lake index archives every session
        starts from, indexing the served lake first where it is not the
        lake just built (untraced: set-up, not a pipeline layer)."""
        served = self.index
        if self.inputs.served is not self.inputs.lake:
            gc.collect()
            t0 = perf_counter()
            served = self.index_served()
            self.record("serve_index_s", False, perf_counter() - t0)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.gem_path = self.workdir / "gem.npz"
        self.index_path = self.workdir / "lake.idx.npz"
        gc.collect()
        with self.tracer.active(traced):
            t0 = perf_counter()
            core_persistence.save_gem(self.gem, self.gem_path)
            index_persistence.save_index(served, self.index_path)
            self.record("save_s", traced, perf_counter() - t0)

    def index_served(self):
        """``build_index`` of the served lake, :data:`SERVED_CHUNK` columns
        at a time."""
        cols, ids = list(self.inputs.served), corpus_column_ids(self.inputs.served)
        index = self.gem.build_index(ColumnCorpus(cols[:SERVED_CHUNK]), ids=ids[:SERVED_CHUNK])
        for a in range(SERVED_CHUNK, len(cols), SERVED_CHUNK):
            chunk = cols[a : a + SERVED_CHUNK]
            index.add(
                ids[a : a + SERVED_CHUNK],
                self.gem.transform(ColumnCorpus(chunk)),
                value_fingerprints=[array_fingerprint(c.values) for c in chunk],
            )
        return index

    def search(self, traced: bool) -> None:
        labels = self.inputs.evaluated.labels("fine")
        rows = self.evaluated.vectors()
        for _ in range(SEARCH_REPEATS):
            gc.collect()
            with self.tracer.active(traced):
                t0 = perf_counter()
                with self.span(traced)("evaluation"):
                    result = precision_recall_at_k(rows, labels, index=self.evaluated)
                self.record("lake_search_s", traced, perf_counter() - t0)
            self.attempted += 1
        self.evaluation = result
        sizes = Counter(labels)
        evaluable = sum(1 for label in labels if sizes[label] > 1)
        self.check(
            "every_column_evaluated",
            len(self.index) == len(self.inputs.lake) and result.n_evaluated == evaluable,
            f"{result.n_evaluated} of {evaluable} evaluable columns scored",
        )

    def session(self, traced: bool) -> None:
        """Start, warm up, serve, close and restart one service."""
        number = self.done["session"]
        wal = self.workdir / f"oplog-{number}.wal"
        probes = self.source.probes
        gc.collect()
        with self.tracer.active(traced):
            t0 = perf_counter()
            service = GemService.from_archives(self.gem_path, self.index_path, oplog=wal)
            self.record("start_s", traced, perf_counter() - t0)
        expected = set(service.snapshot().ids)
        try:
            # Untimed warm-up of every op type on columns no timed request uses.
            warm = self.source.warmups[number]
            for i in range(WARMUP_OPS):
                service.search(warm[i * SEARCH_COLUMNS : (i + 1) * SEARCH_COLUMNS], SEARCH_K)
            for i, col in enumerate(warm[WARMUP_OPS * SEARCH_COLUMNS :]):
                service.ingest([f"warm-{number}-{i}"], [col])
            for i in range(WARMUP_OPS):
                service.evict([f"warm-{number}-{i}"])
            gc.collect()
            with self.tracer.active(traced):
                live = self.serve(service, number, traced)
            expected |= set(live)
            # Served answers equal a solo search of the final snapshot.
            served = service.search(probes, SEARCH_K)
            snapshot = service.snapshot()
            solo = snapshot.search(service.embedder.transform(ColumnCorpus(probes)), SEARCH_K)
            self.check(
                "served_equals_solo",
                np.array_equal(served.ids, solo.ids) and np.array_equal(served.scores, solo.scores),
                "probe answers differ from snapshot().search",
            )
            self.check(
                "final_ids", set(snapshot.ids) == expected,
                f"{len(set(snapshot.ids) ^ expected)} ids differ from the op sequence",
            )
            counters = service.metrics.snapshot()
            self.service_counts.update(counters["requests_by_op"])
            self.service_counts["batches"] += counters["batches"]
        finally:
            service.close()

        for _ in range(RESTARTS):
            gc.collect()
            with self.tracer.active(traced):
                t0 = perf_counter()
                service = GemService.from_archives(self.gem_path, self.index_path, oplog=wal)
                first = service.search(probes, SEARCH_K)
                self.record("restart_s", traced, perf_counter() - t0)
            self.attempted += 1
            try:
                self.check(
                    "restart_ids", set(service.snapshot().ids) == expected,
                    "restarted service holds other ids",
                )
                self.check(
                    "restart_answers",
                    np.array_equal(first.ids, served.ids)
                    and np.array_equal(first.scores, served.scores),
                    "restarted service answers the probes differently",
                )
            finally:
                service.close()

    def serve(self, service: GemService, number: int, traced: bool) -> deque[str]:
        """One closed-loop client; returns the ids it ingested and kept."""
        source, labels = self.source, self.labels
        live: deque[str] = deque()
        completions: list[float] = []
        n_ingested = 0
        t_start = perf_counter()
        # A backstop only: at the nominal rate all sessions take ``seconds``.
        t_stop = t_start + 4 * self.seconds
        for kind in self.inputs.ops[number][: self.requests]:
            if perf_counter() >= t_stop:
                self.notes.append("session request budget not spent within 4x --seconds")
                break
            cols = cid = None
            if kind == "search":
                cols = source.take(SEARCH_COLUMNS)
            elif kind == "ingest":
                cols = source.take(1)
                cid = f"ing-{number}-{n_ingested}"
                n_ingested += 1
            elif live:
                cid = live[0]
            else:
                continue  # every ingest so far was refused: nothing to evict
            if kind != "evict" and cols is None:
                self.notes.append("fresh-column pool spent before the sessions ended")
                break
            self.attempted += 1
            t0 = perf_counter()
            try:
                if kind == "search":
                    found = service.search(cols, SEARCH_K)
                elif kind == "ingest":
                    service.ingest([cid], cols)
                else:
                    service.evict([cid])
            except REFUSALS:
                self.failed += 1
                continue
            except Exception as exc:  # noqa: BLE001 — an untyped failure fails the gate
                self.failed += 1
                self.check("typed_refusals_only", False, f"{kind}: {exc!r}")
                continue
            done = perf_counter()
            self.latency[kind].extend(traced, [done - t0])
            completions.append(done - t_start)
            if kind == "search":
                self.answers.append(([c.fine_label for c in cols], found.ids))
            elif kind == "ingest":
                live.append(cid)
                labels[cid] = cols[0].fine_label
            else:
                live.popleft()
        self.check("typed_refusals_only", True)
        ends = np.asarray(completions)[BLOCK - 1 :: BLOCK]
        self.samples["throughput_rps"].extend(
            traced, (BLOCK / np.diff(ends, prepend=0.0)).tolist()
        )
        return live

    def check_index_identity(self) -> None:
        """Exact ``GemIndex.search`` equals dense ``top_k_neighbors`` rows."""
        rows, index = self.evaluated.vectors(), self.evaluated
        rng = np.random.default_rng(self.seed)
        sample = np.sort(rng.choice(len(rows), size=min(IDENTITY_QUERIES, len(rows)), replace=False))
        ids = list(index.ids)
        found = index.search(rows[sample], SEARCH_K, exclude_ids=[ids[i] for i in sample])
        dense = top_k_neighbors(cosine_similarity_matrix(rows), SEARCH_K)[sample]
        self.check(
            "index_equals_dense", np.array_equal(found.positions, dense),
            "exact index search differs from evaluation.top_k_neighbors",
        )

    # --------------------------------------------------------------- results

    def served_precision(self) -> float:
        """Share of served top-k neighbours with the query column's label."""
        hits = total = 0
        for query_labels, ids in self.answers:
            for label, row in zip(query_labels, ids):
                hits += sum(self.labels.get(cid) == label for cid in row)
                total += len(row)
        return hits / total if total else math.nan

    def end_to_end(self, raw: dict[str, float]) -> dict[str, float]:
        """``raw`` with every time at the reference host's speed."""
        factor = self.host.factor()
        scaled = {k: v / factor if k in HOST_SCALED else v for k, v in raw.items()}
        scaled["throughput_rps"] = raw["throughput_rps"] * factor
        return scaled

    def raw_end_to_end(self) -> dict[str, float]:
        s = self.samples
        searches = self.latency["search"].values()
        ingests = self.latency["ingest"].values()
        precision = (
            self.evaluation.macro_precision
            if self.workload.startswith("pipeline")
            else self.served_precision()
        )
        setup = ["gen_s", "save_s", "start_s"]
        if self.workload in BUILD_IN_SETUP:
            setup.append("build_s")
        if s["serve_index_s"].plain:
            setup.append("serve_index_s")
        return {
            "setup_s": sum(s[name].median() for name in setup),
            "build_s": s["build_s"].median(),
            "lake_search_s": s["lake_search_s"].median(),
            "precision_at_k": precision,
            "peak_rss_mb": self.peak_rss_mb,
            "throughput_rps": s["throughput_rps"].median(),
            "search_p50_ms": block_percentile(searches, 50) * 1e3,
            "search_p90_ms": block_percentile(searches, 90) * 1e3,
            "ingest_p50_ms": block_percentile(ingests, 50) * 1e3,
            "ingest_p90_ms": block_percentile(ingests, 90) * 1e3,
            "restart_s": s["restart_s"].median(),
        }

    def per_layer(self) -> dict[str, float]:
        metrics = self.tracer.layer_metrics()
        counts = self.service_counts
        # An ingest submits two batch items (embed, then write); the rest one.
        items = counts["search"] + counts["evict"] + 2 * counts["ingest"]
        metrics["serve.batch_size_mean"] = items / max(counts["batches"], 1)
        metrics["serve.failed"] = self.failed / max(self.attempted, 1)
        ratios = self.overhead_ratios()
        metrics["tracing.overhead"] = math.exp(
            statistics.fmean(math.log(r) for r in ratios.values())
        )
        return metrics

    def overhead_ratios(self) -> dict[str, float]:
        """Traced ÷ untraced median of each end-to-end time metric."""
        s, lat = self.samples, self.latency
        pairs = {
            "setup_s": s["gen_s"],
            "build_s": s["build_s"],
            "lake_search_s": s["lake_search_s"],
            "search_p50_ms": lat["search"],
            "ingest_p50_ms": lat["ingest"],
            "restart_s": s["restart_s"],
        }
        return {name: v.median(True) / v.median(False) for name, v in pairs.items()}

    def latency_report(self) -> list[str]:
        lines = []
        for op, samples in self.latency.items():
            values = samples.values()
            if not values:
                continue
            q = tail_percentile(len(values))
            lines.append(
                f"# {op}: n={len(values)} p50={percentile(values, 50) * 1e3:.3f} ms "
                f"p{q:g}={percentile(values, q) * 1e3:.3f} ms (highest percentile with "
                f">=10 samples beyond it)"
            )
        return lines

    def execute(self) -> RunResult:
        self.host = HostReference()
        try:
            for step in PLAN:
                self.host.measure()
                # Traced runs alternate each step's repeats: untraced, traced, ...
                traced = self.trace and self.done[step] % 2 == 1
                self.tracer.phase = step
                getattr(self, step)(traced)
                self.done[step] += 1
            self.host.measure()
        finally:
            self.host.close()
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.check(
            "host_reference_steady", self.host.steady(),
            f"host reference readings {self.host.readings}",
        )
        # Read the high-water mark before the dense correctness check, whose
        # (n, n) similarity matrix is the benchmark's, not the program's.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check_index_identity()
        raw = self.raw_end_to_end()
        return RunResult(
            end_to_end=self.end_to_end(raw),
            raw_end_to_end=raw,
            host_factor=self.host.factor(),
            per_layer=self.per_layer() if self.trace else {},
            checks=self.checks,
            attempted=self.attempted,
            failed=self.failed,
            notes=self.notes,
        )
