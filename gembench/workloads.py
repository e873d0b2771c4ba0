"""Workload inputs: the lake, the model's fit columns and the request stream.

Every corpus comes from a ``repro.data`` builder at that builder's own seed
(Sato 13, GDS 7), so the EM fit sees the same values on every run.
The run's ``--seed`` draws everything else: the lake's column order, which
columns of the GDS draw join the lake and which stay fresh, the order of
the fresh columns, and the serving op sequence. Varying the builder seed
itself moves the fit time by ~25% between seeds (EM converges in 7 to 17
sweeps), more than any regression bound could absorb.

Serving has one shape on every workload, the one defined for serve-gds:
the service starts from a 10,000-row lake indexed with the fitted model,
and one closed-loop client sends 70% ``search`` of 4 fresh columns (k=10),
20% ``ingest`` of 1 fresh column and 10% ``evict`` of the oldest ingested
id. Fresh columns are unseen by the model and the lake and each is used
once, so the signature cache misses. On ``serve-gds`` the served lake and
the fresh columns are GDS columns outside the fit set; on
``pipeline-sato`` they come from a second Sato draw at a fixed builder seed
(same 12 types and value vocabulary, other columns), and the served lake
is the paper-scale corpus plus enough of that draw to reach 10,000 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data import ColumnCorpus, NumericColumn, make_gds, make_sato_tables

#: Share of ``search`` / ``ingest`` / ``evict`` ops in the serving mix.
OP_MIX = {"search": 0.7, "ingest": 0.2, "evict": 0.1}
#: Columns per search request and neighbours asked for.
SEARCH_COLUMNS, SEARCH_K = 4, 10
#: Untimed warm-up requests per op type, and probe columns for the checks.
WARMUP_OPS, N_PROBES = 3, 8
#: Serving sessions per run, spread between the offline steps.
SESSIONS = 4
#: Longest op sequence a session can draw; sessions use far fewer.
MAX_OPS = 5_000
#: Columns one session's warm-up uses.
WARMUP_COLUMNS = WARMUP_OPS * (SEARCH_COLUMNS + 1)

#: Rows of the lake every serving session starts from.
SERVED_ROWS = 10_000
#: Fresh request columns a run can draw from, on every workload.
FRESH_POOL = 9_000
GDS_FIT = 2_117
#: Builder seed of the second Sato draw that tops pipeline-sato's served
#: lake up to :data:`SERVED_ROWS` and supplies its fresh columns.
SATO_DRAW_SEED = 1013

#: Requests per session per ``--seconds`` second. At 12 seconds a session
#: sends 600 requests and a run 2,400, which take ~7,200 of the 9,000 fresh
#: columns; longer runs spend the pool (the run notes it).
SESSION_RATE = 50


@dataclass
class Inputs:
    """Everything a run feeds the library, generated from the seed."""

    fit: ColumnCorpus  # columns the model is fitted on
    lake: ColumnCorpus  # columns the timed build indexes
    evaluated: ColumnCorpus  # columns of the §4.1.2 all-columns search
    served: ColumnCorpus  # the lake every serving session starts from
    fresh: list[NumericColumn]  # unseen columns for requests, in seeded order
    ops: list[list[str]]  # the op sequence of each serving session


def op_sequence(rng: np.random.Generator) -> list[str]:
    """One session's seeded op kinds.

    Every session starts from the saved lake, so an evict drawn while the
    session has no live ingested id becomes an ingest.
    """
    kinds = rng.choice(list(OP_MIX), size=MAX_OPS, p=list(OP_MIX.values()))
    ops, live = [], 0
    for kind in kinds.tolist():
        if kind == "evict" and live == 0:
            kind = "ingest"
        live += {"ingest": 1, "evict": -1}.get(kind, 0)
        ops.append(kind)
    return ops


def _sato_workload(seed: int, span) -> Inputs:
    with span("data.corpus"):
        corpus = make_sato_tables(scale="paper", random_state=13)
        extra = SERVED_ROWS - len(corpus)
        draw = make_sato_tables(
            scale="paper", random_state=SATO_DRAW_SEED, n_columns=extra + FRESH_POOL
        )
    rng = np.random.default_rng(seed)
    lake = corpus.take(rng.permutation(len(corpus)).tolist())
    order = rng.permutation(len(draw))
    served = ColumnCorpus(list(lake) + [draw[int(i)] for i in order[:extra]])
    fresh = [draw[int(i)] for i in order[extra:]]
    ops = [op_sequence(rng) for _ in range(SESSIONS)]
    return Inputs(lake, lake, lake, served, fresh, ops)


def _serve_workload(seed: int, span) -> Inputs:
    with span("data.corpus"):
        corpus = make_gds(scale="paper", random_state=7, n_columns=SERVED_ROWS + FRESH_POOL)
    rng = np.random.default_rng(seed)
    rest = GDS_FIT + rng.permutation(len(corpus) - GDS_FIT)
    joined = rest[: SERVED_ROWS - GDS_FIT]
    fit = corpus.take(range(GDS_FIT))
    lake = corpus.take(list(range(GDS_FIT)) + joined.tolist())
    fresh = [corpus[int(i)] for i in rest[SERVED_ROWS - GDS_FIT :]]
    ops = [op_sequence(rng) for _ in range(SESSIONS)]
    return Inputs(fit, lake, fit, lake, fresh, ops)


WORKLOADS = {
    "pipeline-sato": _sato_workload,
    "serve-gds": _serve_workload,
}


class RequestSource:
    """Hands out fresh request columns, each once.

    Probe columns and each session's warm-up columns come off the far end
    of the pool, so timed requests never reuse them. ``position`` resumes a
    source rebuilt from regenerated (identical) inputs where the last one
    stopped.
    """

    def __init__(self, inputs: Inputs, position: int = 0) -> None:
        self._fresh = list(inputs.fresh)
        self.position = position
        held = [self._fresh.pop() for _ in range(N_PROBES + SESSIONS * WARMUP_COLUMNS)]
        self.probes = held[:N_PROBES]
        self.warmups = [
            held[N_PROBES + s * WARMUP_COLUMNS : N_PROBES + (s + 1) * WARMUP_COLUMNS]
            for s in range(SESSIONS)
        ]

    def take(self, n: int) -> list[NumericColumn] | None:
        """The next ``n`` request columns, or ``None`` once the pool is spent."""
        start, self.position = self.position, self.position + n
        if self.position > len(self._fresh):
            return None
        return self._fresh[start : self.position]
