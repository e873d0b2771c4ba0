"""The count-weighted fit engine over unique values, and its quality pin.

``GaussianMixture`` fits a 1-D stack by running EM on
``np.unique(x, return_counts=True)``: every sufficient statistic of EM and
of its seeding is count-weighted, so the fit is that of the full stack up
to floating-point summation order. The transform likewise scores each
distinct value of a chunk once. These tests hold the change to that claim:

* **Quality pin.** The §4.1.2 retrieval metrics and the Table 4 clustering
  metrics at tiny scale, on the four corpus stand-ins at their builders'
  seeds, were recorded with the engine that fitted every raw value. The
  unique-grid engine reproduces every figure exactly on the recording
  host; the test allows ``PR_TOL`` on precision/recall@k (about two
  swapped neighbours) and ``CLUSTER_TOL`` on ARI/ACC (about one moved
  column) so that a different BLAS or SIMD path cannot fail it, while a
  real quality change still does. EM's iteration count must match exactly
  and its lower bound to ``1e-9`` relative.
* **Oracle.** The same engine fed the expanded stack with unit counts is
  the raw-stack fit; on duplicate-heavy stacks it must agree with the
  unique grid within ``rtol=1e-9``.
* **Pooling.** Scoring each distinct value once is bit-identical to
  scoring every value.
"""

import numpy as np
import pytest

from repro.clustering import SDCN, TableDC
from repro.core import GemConfig, GemEmbedder
from repro.core.signature import column_chunks, column_offsets, mean_component_probabilities
from repro.data import make_gds, make_git_tables, make_sato_tables, make_wdc
from repro.evaluation import adjusted_rand_index, clustering_accuracy
from repro.evaluation.precision import precision_recall_at_k
from repro.gmm import GaussianMixture, kmeans_plus_plus_init
from repro.gmm.kmeans import grid_quantile
from repro.utils.rng import spawn_seeds

PR_TOL = 0.005
CLUSTER_TOL = 0.02

#: Recorded with the raw-stack engine: GemConfig.fast(random_state=0),
#: scale="tiny", each builder's default seed; TableDC/SDCN as in Table 4
#: (latent_dim=16, 50 + 50 epochs, random_state=0) on ``gem.signature``.
PINNED = {
    "gds": {
        "n_iter": 9,
        "lower_bound": -3.6376621080700233,
        "precision": 0.8234950234950235,
        "recall": 0.8234950234950235,
        "eq12_ari": 0.17536869839025804,
        "eq12_acc": 0.3,
        "tabledc_ari": 0.8223297543145521,
        "tabledc_acc": 0.9166666666666666,
        "sdcn_ari": 0.8080965782644125,
        "sdcn_acc": 0.9166666666666666,
    },
    "wdc": {
        "n_iter": 14,
        "lower_bound": -2.760134357238394,
        "precision": 0.7699404761904762,
        "recall": 0.7699404761904762,
        "eq12_ari": 0.24502607819372757,
        "eq12_acc": 0.359375,
        "tabledc_ari": 0.7737339220412415,
        "tabledc_acc": 0.8125,
        "sdcn_ari": 0.768579862249918,
        "sdcn_acc": 0.796875,
    },
    "git": {
        "n_iter": 22,
        "lower_bound": -5.603586775903741,
        "precision": 0.895675505050505,
        "recall": 0.895675505050505,
        "eq12_ari": 0.41150384765879744,
        "eq12_acc": 0.5208333333333334,
        "tabledc_ari": 0.8387748851454824,
        "tabledc_acc": 0.8333333333333334,
        "sdcn_ari": 0.8387748851454824,
        "sdcn_acc": 0.8333333333333334,
    },
    "sato": {
        "n_iter": 7,
        "lower_bound": -6.787185954650214,
        "precision": 0.6749819624819624,
        "recall": 0.6749819624819624,
        "eq12_ari": 0.10007895775759967,
        "eq12_acc": 0.2916666666666667,
        "tabledc_ari": 0.47545540066706576,
        "tabledc_acc": 0.7083333333333334,
        "sdcn_ari": 0.46507544224765873,
        "sdcn_acc": 0.6875,
    },
}
BUILDERS = {"gds": make_gds, "wdc": make_wdc, "git": make_git_tables, "sato": make_sato_tables}


def _quality(name: str) -> dict:
    corpus = BUILDERS[name](scale="tiny")
    gem = GemEmbedder(config=GemConfig.fast(random_state=0)).fit(corpus)
    labels = corpus.labels("fine")
    n_clusters = len(set(labels))
    res = precision_recall_at_k(gem.transform(corpus), labels)
    eq12 = gem.cluster(corpus)
    sig = gem.signature(corpus)
    deep = dict(latent_dim=16, pretrain_epochs=50, finetune_epochs=50, random_state=0)
    tabledc = TableDC(n_clusters, **deep).fit_predict(sig)
    sdcn = SDCN(n_clusters, **deep).fit_predict(sig)
    return {
        "n_iter": gem.gmm_.n_iter_,
        "lower_bound": gem.gmm_.lower_bound_,
        "precision": res.macro_precision,
        "recall": res.macro_recall,
        "eq12_ari": adjusted_rand_index(labels, eq12),
        "eq12_acc": clustering_accuracy(labels, eq12),
        "tabledc_ari": adjusted_rand_index(labels, tabledc),
        "tabledc_acc": clustering_accuracy(labels, tabledc),
        "sdcn_ari": adjusted_rand_index(labels, sdcn),
        "sdcn_acc": clustering_accuracy(labels, sdcn),
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quality_pin(name):
    got, want = _quality(name), PINNED[name]
    assert got["n_iter"] == want["n_iter"]
    assert got["lower_bound"] == pytest.approx(want["lower_bound"], rel=1e-9)
    for metric in ("precision", "recall"):
        assert got[metric] == pytest.approx(want[metric], abs=PR_TOL), metric
    for metric in ("eq12_ari", "eq12_acc", "tabledc_ari", "tabledc_acc", "sdcn_ari", "sdcn_acc"):
        assert got[metric] == pytest.approx(want[metric], abs=CLUSTER_TOL), metric


# ------------------------------------------------------------------ oracle


def _duplicate_heavy(seed: int) -> np.ndarray:
    """Stacks like a lake's: rounded values, each repeated many times."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            np.round(rng.normal(0, 1, 3000), 1),
            np.round(rng.normal(40, 4, 2000)),
            rng.integers(1990, 2024, 2500).astype(float),
            np.round(rng.lognormal(3, 1, 1500), 2),
        ]
    )


@pytest.fixture(scope="module", params=[0, 1])
def dup_stack(request):
    x = _duplicate_heavy(request.param)
    assert np.unique(x).size * 5 < x.size
    return x


class TestRawStackOracle:
    """The unique grid fits what the raw stack with unit counts fits."""

    @pytest.mark.parametrize("init", ["quantile", "kmeans"])
    @pytest.mark.parametrize("n_init", [1, 3])
    def test_grid_matches_expanded_stack(self, dup_stack, init, n_init):
        gm = GaussianMixture(8, n_init=n_init, init=init, random_state=5).fit(dup_stack)
        values, counts = np.unique(dup_stack, return_counts=True)
        expanded = np.repeat(values, counts)
        engine = GaussianMixture(8, n_init=n_init, init=init)
        seeds = spawn_seeds(5, n_init)
        oracle = engine._fit_1d(expanded, np.ones(expanded.size), seeds, stacked=True)
        assert gm.n_iter_ == oracle["n_iter"]
        assert gm.converged_ == oracle["converged"]
        assert gm.lower_bound_ == pytest.approx(oracle["lower_bound"], rel=1e-9)
        np.testing.assert_allclose(gm.weights_, oracle["weights"], rtol=1e-9)
        np.testing.assert_allclose(gm.means_, oracle["means"], rtol=1e-9)
        np.testing.assert_allclose(gm.covariances_, oracle["covariances"], rtol=1e-9)

    def test_fit_from_matches_expanded_stack(self, dup_stack):
        base = GaussianMixture(4, n_init=1, random_state=0).fit(dup_stack)
        warm = GaussianMixture(4).fit_from(dup_stack, base.weights_, base.means_, base.covariances_)
        values, counts = np.unique(dup_stack, return_counts=True)
        expanded = np.repeat(values, counts)
        params = (base.weights_, base.means_, base.covariances_)
        oracle = GaussianMixture(4).fit_from(expanded[::-1], *params)
        assert warm.n_iter_ == oracle.n_iter_
        np.testing.assert_allclose(warm.means_, oracle.means_, rtol=1e-9)
        np.testing.assert_allclose(warm.covariances_, oracle.covariances_, rtol=1e-9)

    @pytest.mark.parametrize("batch_size", [100, 512, 1500, 10**9])
    def test_fit_batch_size_bit_identical_on_grid(self, dup_stack, batch_size):
        kw = dict(n_init=3, random_state=2)
        ref = GaussianMixture(6, **kw).fit(dup_stack)
        alt = GaussianMixture(6, fit_batch_size=batch_size, **kw).fit(dup_stack)
        assert ref.lower_bound_ == alt.lower_bound_
        assert np.array_equal(ref.weights_, alt.weights_)
        assert np.array_equal(ref.means_, alt.means_)
        assert np.array_equal(ref.covariances_, alt.covariances_)

    @pytest.mark.parametrize("init", ["quantile", "kmeans", "random"])
    def test_serial_equals_batched_on_grid(self, dup_stack, init):
        kw = dict(n_init=4, init=init, fit_batch_size=512, random_state=9)
        serial = GaussianMixture(6, fit_engine="serial", **kw).fit(dup_stack)
        batched = GaussianMixture(6, fit_engine="batched", **kw).fit(dup_stack)
        assert serial.lower_bound_ == batched.lower_bound_
        assert np.array_equal(serial.means_, batched.means_)
        assert np.array_equal(serial.covariances_, batched.covariances_)


class TestGridSeeding:
    def test_grid_quantile_bit_identical_to_expanded(self):
        rng = np.random.default_rng(3)
        q = np.concatenate([rng.random(200), [0.0, 0.5, 1.0]])
        for _ in range(20):
            x = np.round(rng.standard_cauchy(int(rng.integers(1, 4000))) * 100, 1)
            values, counts = np.unique(x, return_counts=True)
            assert np.array_equal(grid_quantile(values, counts, q), np.quantile(x, q))

    def test_weighted_kmeans_pp_draws_like_expanded(self, dup_stack):
        values, counts = np.unique(dup_stack, return_counts=True)
        grid = kmeans_plus_plus_init(
            values.reshape(-1, 1), 6, np.random.default_rng(4), sample_weight=counts
        )
        expanded = np.repeat(values, counts).reshape(-1, 1)
        ones = np.ones(dup_stack.size)
        oracle = kmeans_plus_plus_init(expanded, 6, np.random.default_rng(4), sample_weight=ones)
        assert np.array_equal(grid, oracle)

    @pytest.mark.parametrize("init", ["quantile", "kmeans", "random"])
    def test_fewer_distinct_values_than_components(self, init):
        # 7 distinct values standing for 70 samples: 12 components are
        # feasible, as they are on the raw stack.
        x = np.repeat(np.arange(7.0), 10)
        gm = GaussianMixture(12, n_init=2, init=init, random_state=0).fit(x)
        assert np.all(np.isfinite(gm.means_))
        assert np.isclose(gm.weights_.sum(), 1.0)

    def test_more_components_than_samples_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            GaussianMixture(5).fit(np.full(4, 2.0))


# ----------------------------------------------------------------- pooling


def _pool_every_value(gmm, columns, kind, batch_size):
    """The pooling loop that scores every value (the reference)."""
    sizes, offsets = column_offsets(columns)
    stacked = np.concatenate(columns).reshape(-1, 1)
    score = gmm.predict_proba if kind == "responsibility" else gmm.component_pdf
    sums = np.zeros((len(columns), gmm.n_components))
    for rows in column_chunks(offsets, batch_size):
        per_value = score(stacked[rows])
        first = int(np.searchsorted(offsets, rows.start, side="right")) - 1
        stop = int(np.searchsorted(offsets, rows.stop, side="left"))
        bounds = np.concatenate([[0], offsets[first + 1 : stop] - rows.start])
        sums[first : first + bounds.size] += np.add.reduceat(per_value, bounds, axis=0)
    return sums / sizes[:, None]


@pytest.mark.parametrize("kind", ["responsibility", "pdf"])
@pytest.mark.parametrize("batch_size", [None, 777, 4096])
def test_pooled_rows_bit_identical_to_scoring_every_value(kind, batch_size):
    rng = np.random.default_rng(8)
    gmm = GaussianMixture(5, n_init=1, random_state=0).fit(_duplicate_heavy(2))
    columns = [
        np.round(rng.normal(rng.uniform(-5, 60), rng.uniform(0.5, 5), int(n)), 1)
        for n in rng.integers(1, 2500, 40)
    ]
    columns.append(np.array([-0.0, 0.0, 0.0, -0.0]))
    got = mean_component_probabilities(gmm, columns, kind=kind, batch_size=batch_size)
    assert np.array_equal(got, _pool_every_value(gmm, columns, kind, batch_size))
