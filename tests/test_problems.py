import math
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import chocosim
from chocosim import problems
from chocosim.config import ExperimentConfig, execute_single
from chocosim.metrics import write_csv
from chocosim.numerics import RandomStream, sym_eigenvalues
from chocosim.problems import (PARTITION_MODES, LogisticProblem, MlpProblem, Partition,
                               estimate_constants, load_csv_dataset,
                               make_blob_dataset, make_logistic, make_mlp,
                               make_quadratic)


def _fd_gradient(fn, x, eps=1e-6):
    g = np.empty_like(x)
    for j in range(x.shape[0]):
        step = np.zeros_like(x)
        step[j] = eps
        g[j] = (fn(x + step) - fn(x - step)) / (2.0 * eps)
    return g


def _check_gradients(problem, rtol, points=4, seed=11, eps=1e-6):
    rng = RandomStream(seed, 0, "init").generator()
    for k in range(points):
        x = 0.5 * rng.standard_normal(problem.dim)
        i = k % problem.n
        exact = problem.node_gradient(i, x)
        approx = _fd_gradient(lambda z: problem.node_loss(i, z), x, eps)
        scale = np.linalg.norm(exact) + 1e-8
        assert np.linalg.norm(approx - exact) / scale < rtol


# ---------------------------------------------------------------- quadratic

def test_quadratic_gradient_matches_finite_differences():
    _check_gradients(make_quadratic(4, 12, seed=2), rtol=1e-6)


def test_quadratic_optimum_is_mean_of_node_optima():
    p = make_quadratic(5, 8, heterogeneity=2.0, seed=1)
    np.testing.assert_allclose(p.optimum(), p.node_optima.mean(axis=0))
    assert np.linalg.norm(p.full_gradient(p.optimum())) < 1e-12


def test_quadratic_optimum_is_a_copy_of_a_cached_mean():
    p = make_quadratic(5, 8, heterogeneity=2.0, seed=1)
    x = np.linspace(-1.0, 1.0, 8)
    before = p.full_gradient(x)
    np.testing.assert_array_equal(p.optimum(), p.node_optima.mean(axis=0))
    opt = p.optimum()
    opt += 100.0
    np.testing.assert_array_equal(p.full_gradient(x), before)
    np.testing.assert_array_equal(p.optimum(), p.node_optima.mean(axis=0))


def test_quadratic_optimum_agrees_with_gradient_descent():
    p = make_quadratic(4, 6, heterogeneity=1.5, seed=3)
    x = np.zeros(p.dim)
    for _ in range(4000):
        x = x - (1.0 / p.smoothness()) * p.full_gradient(x)
    assert np.linalg.norm(x - p.optimum()) < 1e-8


def test_quadratic_f_star_is_minimal():
    p = make_quadratic(4, 6, seed=4)
    rng = RandomStream(4, 1, "init").generator()
    for _ in range(10):
        assert p.loss(p.optimum() + 0.3 * rng.standard_normal(p.dim)) > p.f_star()


def test_zero_heterogeneity_makes_nodes_identical():
    p = make_quadratic(6, 7, heterogeneity=0.0, seed=5)
    x = RandomStream(5, 0, "init").generator().standard_normal(7)
    losses = [p.node_loss(i, x) for i in range(6)]
    assert max(losses) - min(losses) < 1e-15
    assert np.ptp(p.node_optima, axis=0).max() == 0.0


def test_hessian_spectrum_spans_mu_to_l():
    p = make_quadratic(3, 9, mu=0.2, l_smooth=2.5, seed=6)
    eigs = sym_eigenvalues(p.hessian)
    assert eigs[0] == pytest.approx(2.5, abs=1e-10)
    assert eigs[-1] == pytest.approx(0.2, abs=1e-10)
    assert p.smoothness() == 2.5


def test_a_quadratic_round_trips_through_a_pickle():
    # a pool worker receives its set-up pickled
    p = make_quadratic(4, 7, seed=1)
    copy = pickle.loads(pickle.dumps(p))
    np.testing.assert_array_equal(copy.hessian, p.hessian)
    np.testing.assert_array_equal(copy.node_optima, p.node_optima)


@pytest.mark.parametrize("n, dim, seed", [(6, 7, 8), (16, 10, 1), (16, 10, 3), (64, 200, 1),
                                          (64, 200, 3)])
def test_the_hessian_equals_the_two_product_expression(n, dim, seed):
    # scaling the basis's columns is the product with diag(spectrum) less its
    # exact zero terms: the corpus's and the benchmark's sizes, byte for byte
    p = make_quadratic(n, dim, seed=seed)
    rng = RandomStream(seed, 0, "problem").generator()
    basis, _ = np.linalg.qr(rng.standard_normal(dim * dim).reshape(dim, dim))
    hessian = basis @ np.diag(np.linspace(p.mu, p.l_smooth, dim)) @ basis.T
    assert p.hessian.tobytes() == (0.5 * (hessian + hessian.T)).tobytes()


def test_noise_variance_matches_noise_std():
    p = make_quadratic(2, 20, noise_std=0.7, seed=7)
    rng = RandomStream(7, 0, "grad").generator()
    x = np.ones(20)
    exact = p.node_gradient(0, x)
    sq = [float(np.sum((p.stochastic_gradient(0, x, rng) - exact) ** 2))
          for _ in range(4000)]
    assert np.mean(sq) == pytest.approx(0.49, rel=0.05)


def test_zero_noise_gradient_is_exact():
    p = make_quadratic(2, 5, noise_std=0.0, seed=8)
    rng = RandomStream(8, 0, "grad").generator()
    x = np.arange(5.0)
    # the oracle's one-row product, with no noise added to it
    np.testing.assert_array_equal(p.stochastic_gradient(0, x, rng),
                                  ((x - p.node_optima[0])[None] @ p.hessian)[0])


@pytest.mark.parametrize("n, d", [(64, 200), (16, 10), (4, 6)])
def test_the_stochastic_oracle_is_one_product_within_rounding_of_node_gradient(n, d):
    p = make_quadratic(n, d, heterogeneity=1.0, noise_std=0.7, seed=n + d)
    x_rows = RandomStream(3, 0, "init").generator().standard_normal((n, d))
    g = p.stochastic_gradients(x_rows, RandomStream(9, 0, "grad").at(2), 2)
    # bit for bit: the residuals times the symmetric Hessian in one product,
    # plus the iteration's noise block, scaled
    noise = RandomStream(9, 0, "grad").at(2).standard_normal((n, d))
    r = x_rows - p.node_optima
    assert g.tobytes() == (r @ p.hessian + p.noise_std / np.sqrt(d) * noise).tobytes()
    # that product rounds unlike node_gradient's gemv, within the forward-error
    # bound of a length-d dot product (measured: at most 0.16 of it)
    exact = np.stack([p.node_gradient(i, x) for i, x in enumerate(x_rows)])
    bound = d * np.finfo(float).eps * (np.abs(r) @ np.abs(p.hessian))
    assert (np.abs(r @ p.hessian - exact) <= bound).all()


def test_stochastic_gradient_is_unbiased():
    p = make_quadratic(2, 6, noise_std=1.0, seed=9)
    rng = RandomStream(9, 0, "grad").generator()
    x = np.full(6, 0.5)
    draws = np.array([p.stochastic_gradient(0, x, rng) for _ in range(4000)])
    se = 1.0 / np.sqrt(6 * 4000)  # per-coordinate noise std is 1/sqrt(6)
    dev = np.abs(draws.mean(axis=0) - p.node_gradient(0, x))
    assert dev.max() < 4 * se


def test_quadratic_validation():
    with pytest.raises(ValueError):
        make_quadratic(0, 5)
    with pytest.raises(ValueError):
        make_quadratic(2, 5, mu=0.0)
    with pytest.raises(ValueError):
        make_quadratic(2, 5, mu=2.0, l_smooth=1.0)
    with pytest.raises(ValueError):
        make_quadratic(2, 5, noise_std=-1.0)


# ---------------------------------------------------------------- partition

def test_fixed_split_is_stable_across_epochs():
    part = Partition("fixed-split", 4, 100, seed=0)
    first = part.shards(0)
    later = part.shards(7)
    for a, b in zip(first, later):
        np.testing.assert_array_equal(a, b)


def test_reshuffled_split_changes_by_epoch_but_is_reproducible():
    part = Partition("iid-reshuffled", 4, 100, seed=0)
    e0, e1 = part.shards(0), part.shards(1)
    assert any(not np.array_equal(a, b) for a, b in zip(e0, e1))
    again = Partition("iid-reshuffled", 4, 100, seed=0).shards(1)
    for a, b in zip(e1, again):
        np.testing.assert_array_equal(a, b)


def test_an_epoch_permutes_on_the_shuffle_stream():
    # the epoch addresses the counter of the problem seed's "shuffle" stream
    for seed, n, samples, epoch in ((0, 4, 100, 0), (3, 7, 100, 5), (8, 6, 120, 2**40)):
        order = RandomStream(seed, 0, "shuffle").at(epoch).permutation(samples)
        want = [np.sort(chunk) for chunk in np.array_split(order, n)]
        got = Partition("iid-reshuffled", n, samples, seed=seed).shards(np.int64(epoch))
        assert [s.tolist() for s in got] == [s.tolist() for s in want]


@pytest.mark.parametrize("mode", PARTITION_MODES)
@pytest.mark.parametrize("epoch", [1.5, 1.0, True, np.float64(2.0)])
def test_a_non_integer_epoch_is_refused_not_truncated(mode, epoch):
    with pytest.raises(ValueError, match="epoch must be an integer"):
        Partition(mode, 4, 100, seed=0).shards(epoch)


@pytest.mark.parametrize("factory", [make_logistic, make_mlp])
@pytest.mark.parametrize("t", [1.5, 1.0, True])
def test_a_dataset_oracle_refuses_a_non_integer_iteration(factory, t):
    problem = factory(4, samples=200, batch=8, seed=3)
    x = np.zeros((4, problem.dim))
    with pytest.raises(ValueError, match="iteration must be an integer"):
        problem.stochastic_gradients(x, RandomStream(1, 0, "grad").at(1), t)
    with pytest.raises(ValueError, match="iteration must be an integer"):
        problem.stochastic_gradient(0, x[0], RandomStream(1, 0, "grad").at(1), t)


def test_shards_exactly_partition_the_dataset():
    for mode, epoch in (("fixed-split", 0), ("iid-reshuffled", 3)):
        shards = Partition(mode, 3, 25, seed=2).shards(epoch)
        sizes = [s.shape[0] for s in shards]
        assert max(sizes) - min(sizes) <= 1
        merged = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(merged, np.arange(25))


def test_every_shard_is_strictly_increasing():
    # minibatch draws index a shard and full-batch sums run in its order, so
    # the order is part of every dataset trajectory, not only the set
    labels = np.where(np.arange(40) % 3 == 0, 1.0, -1.0)
    for part in (Partition("fixed-split", 3, 25, seed=2),
                 Partition("fixed-split", 4, 40, by_label=True, labels=labels),
                 Partition("iid-reshuffled", 3, 25, seed=2),
                 Partition("iid-reshuffled", 7, 100, seed=5)):
        for epoch in (0, 1, 3, 11):
            for shard in part.shards(epoch):
                assert (np.diff(shard) > 0).all()


def test_by_label_split_concentrates_classes():
    labels = np.ones(40)
    labels[20:] = -1.0
    part = Partition("fixed-split", 2, 40, by_label=True, labels=labels)
    shard0, shard1 = part.shards()
    assert set(labels[shard0]) == {-1.0}
    assert set(labels[shard1]) == {1.0}


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition("sorted", 2, 10)
    with pytest.raises(ValueError):
        Partition("fixed-split", 8, 4)
    with pytest.raises(ValueError):
        Partition("iid-reshuffled", 2, 10, by_label=True, labels=np.ones(10))
    with pytest.raises(ValueError):
        Partition("fixed-split", 2, 10, by_label=True)


# ----------------------------------------------------------------- datasets

def test_blob_dataset_shapes_and_separation():
    z, y = make_blob_dataset(2000, 10, seed=0, margin=1.5)
    assert z.shape == (2000, 10) and y.shape == (2000,)
    assert np.sum(y == 1.0) == np.sum(y == -1.0) == 1000
    gap = np.linalg.norm(z[y == 1.0].mean(axis=0) - z[y == -1.0].mean(axis=0))
    assert 2.5 < gap < 3.5  # class centers sit at +-margin along one direction


def test_load_csv_dataset(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n")
    z, y = load_csv_dataset(path)
    np.testing.assert_array_equal(z, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(y, [-1.0, 1.0])

    path.write_text("1.0,2.0,-1\n3.0,4.0,1\n")
    _, y = load_csv_dataset(path)
    np.testing.assert_array_equal(y, [-1.0, 1.0])

    # a comment on the first line does not make it a header
    path.write_text("1,2,1 # c\n3,4,0\n")
    z, _ = load_csv_dataset(path)
    np.testing.assert_array_equal(z, [[1.0, 2.0], [3.0, 4.0]])

    path.write_text("1.0,2.0,3\n")
    with pytest.raises(ValueError):
        load_csv_dataset(path)
    path.write_text("1.0\n2.0\n")
    with pytest.raises(ValueError):
        load_csv_dataset(path)


@pytest.mark.parametrize("content, reason", [
    ("a,b,label\n", "no data rows"),
    ("1.0,2.0,1\nnan,4.0,0\n", "features must be finite"),
])
def test_load_csv_dataset_refuses_no_rows_and_nonfinite_features(tmp_path, content, reason):
    path = tmp_path / "data.csv"
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        load_csv_dataset(path)
    assert str(info.value) == f"{path}: {reason}"


@pytest.mark.parametrize("content, row, reason", [
    ("1,2,1\n3,x,0\n", 2, "'3,x,0' holds a cell that is not a number"),
    ("1,2,1\n3,4\n", 2, "2 columns, the first data row has 3"),
    ("a,b,label\n1,2,1\n\n3,x,0\n", 4, "'3,x,0' holds a cell that is not a number"),
    ("a,b,label\n# c\n1,2,1\n3,4,0,5\n", 4, "4 columns, the first data row has 3"),
    ("1,2,1\n3,1_0,0\n", 2, "'3,1_0,0' holds a cell that is not a number"),
])
def test_load_csv_dataset_names_the_file_and_the_bad_row(tmp_path, content, row, reason):
    # a header is decided from the first line alone: a numeric first line is
    # data, and a later bad row is an error at its own row in the file
    path = tmp_path / "data.csv"
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        load_csv_dataset(path)
    assert str(info.value) == f"{path}: row {row}: {reason}"


# ----------------------------------------------------------------- logistic

def test_logistic_gradient_matches_finite_differences():
    _check_gradients(make_logistic(3, dim=6, samples=120, seed=3), rtol=1e-6)


def test_logistic_loss_at_origin_is_log_two():
    p = make_logistic(2, dim=5, samples=64, seed=1, reg=1e-3)
    assert p.loss(np.zeros(5)) == pytest.approx(np.log(2.0), abs=1e-12)


def test_logistic_smoothness_matches_direct_eigenvalue():
    p = make_logistic(2, dim=6, samples=200, seed=2, reg=0.01)
    gram = p.features.T @ p.features / (4.0 * 200)
    expected = float(np.linalg.eigvalsh(gram)[-1]) + 0.01
    assert p.smoothness() == pytest.approx(expected, rel=1e-12)


def test_logistic_minibatch_gradient_is_unbiased():
    # with-replacement minibatches on a fixed split average to the shard mean
    p = make_logistic(2, dim=4, samples=80, mode="fixed-split", seed=5, batch=8)
    rng = RandomStream(5, 0, "grad").generator()
    x = 0.1 * np.arange(4.0)
    draws = np.array([p.stochastic_gradient(0, x, rng) for _ in range(6000)])
    exact = p.node_gradient(0, x)
    se = draws.std(axis=0, ddof=1) / np.sqrt(6000)
    assert np.all(np.abs(draws.mean(axis=0) - exact) < 4 * se + 1e-12)


def test_logistic_training_reduces_loss():
    p = make_logistic(2, dim=5, samples=200, seed=6)
    x = np.zeros(5)
    start = p.loss(x)
    for _ in range(300):
        x = x - (1.0 / p.smoothness()) * p.full_gradient(x)
    assert p.loss(x) < 0.5 * start


# ---------------------------------------------------------------------- mlp

def test_mlp_gradient_matches_finite_differences():
    p = make_mlp(2, input_dim=4, hidden=3, samples=40, seed=4, batch=8)
    _check_gradients(p, rtol=1e-4, eps=1e-5)


def test_a_dataset_problem_pickles_its_samples_about_twice():
    # the features and labels, and the epoch-0 stacks the full-batch oracles
    # read, node i's samples among them: a per-node list beside them is a third
    p = make_logistic(8, dim=10, samples=2000, batch=8, seed=1)
    size = len(pickle.dumps(p))
    assert size < 2.5 * (p.features.nbytes + p.labels.nbytes)
    copy = pickle.loads(pickle.dumps(p))
    x = np.linspace(-1.0, 1.0, 10)
    assert [copy.node_loss(i, x) for i in range(8)] == [p.node_loss(i, x) for i in range(8)]
    assert p.node_loss(-1, x) == p.node_loss(7, x)
    with pytest.raises(IndexError):
        p.node_gradient(8, x)


@pytest.mark.parametrize("problem", [
    make_logistic(8, dim=10, samples=2000, batch=8, seed=1),
    make_mlp(16, input_dim=32, hidden=64, samples=4096, seed=1),
], ids=["logistic", "mlp"])
def test_a_dataset_problem_pickles_its_samples_once(problem):
    # the split and its stacks are rebuilt on unpickling, with the same floats
    size = len(pickle.dumps(problem))
    assert size < 1.1 * (problem.features.nbytes + problem.labels.nbytes)
    problem._deal(5)  # a later epoch's split is not pickled either
    copy = pickle.loads(pickle.dumps(problem))
    x = np.linspace(-1.0, 1.0, 3 * problem.dim).reshape(3, problem.dim)
    for got, want in zip(copy.loss_and_gradient(x), problem.loss_and_gradient(x)):
        assert got.tobytes() == want.tobytes()
    rng = RandomStream(2, 0, "grad")
    assert copy.stochastic_gradients(x[[0] * problem.n], rng.at(9), 9).tobytes() == \
        problem.stochastic_gradients(x[[0] * problem.n], rng.at(9), 9).tobytes()


def _arrays(value):
    """Every array in ``value``, through tuples, lists and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)


@pytest.mark.parametrize("factory, n, dim, samples, split", [
    (make_mlp, 4, 3, 64, dict(mode="fixed-split", hidden=4)),
    (make_logistic, 8, 5, 200, dict(mode="fixed-split", by_label=True)),
    (make_logistic, 4, 5, 200, dict(mode="iid-reshuffled")),
    (make_mlp, 16, 8, 100, dict(mode="iid-reshuffled", hidden=4)),  # 4 shards of 7, 12 of 6
    (make_logistic, 3, 4, 100, dict(mode="fixed-split")),  # 34, 33, 33
], ids=["fixed-split", "by-label", "iid-reshuffled", "unequal-shards", "unequal-fixed"])
@pytest.mark.parametrize("unpickled", [False, True], ids=["built", "unpickled"])
def test_a_dataset_problem_holds_each_sample_once(factory, n, dim, samples, split, unpickled):
    z, y = make_blob_dataset(samples, dim, seed=2, margin=1.0)
    problem = factory(n, data=(z, y), batch=8, seed=3, **split)
    if unpickled:
        problem = pickle.loads(pickle.dumps(problem))
    # the store: the samples once, in epoch-0 deal order
    dealt = np.concatenate(problem.partition.shards(0))
    assert problem._z.tobytes() == z[dealt].tobytes()
    assert problem._y.tobytes() == y[dealt].tobytes()
    # the full-batch stacks are views of it, and a later epoch's split adds no samples
    for _, z_stack, y_stack in problem._chunks:
        assert np.shares_memory(z_stack, problem._z) and np.shares_memory(y_stack, problem._y)
    problem._deal(5)
    floats = [a for a in _arrays(vars(problem)) if a.dtype.kind == "f"]
    assert floats and all(np.shares_memory(a, problem._z) or np.shares_memory(a, problem._y)
                          for a in floats)
    assert not any(np.shares_memory(a, z) or np.shares_memory(a, y) for a in _arrays(vars(problem)))
    # the input order, gathered on each access, read-only
    assert problem.features.tobytes() == z.tobytes() and problem.labels.tobytes() == y.tobytes()
    assert not np.shares_memory(problem.features, problem._z)
    with pytest.raises(AttributeError):
        problem.features = z
    with pytest.raises(AttributeError):
        problem.labels = y


def test_no_dataset_problem_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 0.4 MB and 10 ms of set-up; the label checks compare
    (tmp_path / "zero_one.csv").write_text("x,y,label\n1.0,2.0,1\n-1.0,0.5,0\n2.0,1.0,1\n-2.0,0.1,0\n")
    (tmp_path / "sign.csv").write_text("1.0,2.0,1\n-1.0,0.5,-1\n2.0,1.0,1\n-2.0,0.1,-1\n")
    code = textwrap.dedent(f"""
        import sys
        from chocosim.config import build_problem
        from chocosim.problems import make_logistic, make_mlp
        make_logistic(4, samples=64, batch=8)
        make_mlp(4, samples=64, batch=8, mode="fixed-split", by_label=True)
        build_problem({{"kind": "logistic", "n": 2, "csv": {str(tmp_path / "zero_one.csv")!r}}})
        build_problem({{"kind": "mlp", "n": 2, "csv": {str(tmp_path / "sign.csv")!r}}})
    """)
    assert not _loads_numpy_ma(code)


def test_no_graph_set_up_or_verify_run_imports_numpy_ma(tmp_path):
    # the graph normalization finds repeated edges by lexsort, not np.unique
    (tmp_path / "g.txt").write_text("0 1\n1 2\n2 0\n2 1\n")
    code = textwrap.dedent(f"""
        from chocosim import verify
        from chocosim.config import ExperimentConfig, build_setup
        from chocosim.topology import (from_edge_list, fully_connected, load_edge_list,
                                       mixing_matrix, ring, torus)
        for graph in (ring(16), torus(64), fully_connected(8), from_edge_list(3, [(1, 0), (2, 1)]),
                      load_edge_list({str(tmp_path / "g.txt")!r})):
            mixing_matrix(graph)
        for topology, n in (("ring:16", 16), ("torus:64", 64), ("full:8", 8)):
            build_setup(ExperimentConfig.from_dict(
                {{"topology": topology, "problem": {{"kind": "quadratic", "n": n}}}}))
        assert all(check.passed for check in verify.run_suite("all"))
    """)
    assert not _loads_numpy_ma(code)


def _loads_numpy_ma(code):
    """Whether running ``code`` in a fresh interpreter imports ``numpy.ma``
    (about 0.4 MB and 10 ms of set-up)."""
    source = os.path.dirname(os.path.dirname(chocosim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    code += "\nimport sys; print('numpy.ma' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout.strip() == "True"


@pytest.mark.parametrize("bad", [0.0, 0.5, 2.0, -2.0, np.nan, np.inf])
def test_labels_other_than_plus_or_minus_one_are_refused(bad):
    z, y = make_blob_dataset(40, 3, seed=1, margin=1.0)
    y[7] = bad
    for factory in (make_logistic, make_mlp):
        with pytest.raises(ValueError, match="^labels must be -1/[+]1$"):
            factory(4, data=(z, y), batch=8)


@pytest.mark.parametrize("labels, values", [
    ("0,1,2", "[0.0, 1.0, 2.0]"),
    ("-1,0,1", "[-1.0, 0.0, 1.0]"),
    ("1,0.5,1", "[0.5, 1.0]"),
    ("-1,-1,2", "[-1.0, 2.0]"),
    ("1,nan,0,nan", "[0.0, 1.0, nan]"),
])
def test_csv_labels_other_than_zero_one_or_plus_minus_one_are_refused(tmp_path, labels, values):
    path = tmp_path / "data.csv"
    path.write_text("".join(f"{j}.0,2.0,{label}\n" for j, label in enumerate(labels.split(","))))
    with pytest.raises(ValueError) as info:
        load_csv_dataset(path)
    assert str(info.value) == f"{path}: labels must be 0/1 or -1/+1, got {values}"


def test_an_mlp_without_layer_boundaries_computes_the_same_floats():
    # the kernel's parameter layout is its own: layer_boundaries is the compressor's
    default = make_mlp(4, input_dim=3, hidden=4, samples=64, batch=8, seed=1)
    whole = make_mlp(4, input_dim=3, hidden=4, samples=64, batch=8, seed=1)
    whole.layer_boundaries = None
    x = np.linspace(-1.0, 1.0, 4 * default.dim).reshape(4, default.dim)
    for got, want in zip(whole.loss_and_gradient(x), default.loss_and_gradient(x)):
        assert got.tobytes() == want.tobytes()
    for t in (0, 9):
        rng = RandomStream(2, 0, "grad")
        assert whole.stochastic_gradients(x, rng.at(t), t).tobytes() == \
            default.stochastic_gradients(x, rng.at(t), t).tobytes()
    assert whole.node_loss(2, x[0]) == default.node_loss(2, x[0])


def test_mlp_parameter_layout():
    p = make_mlp(2, input_dim=4, hidden=3, samples=40, seed=4)
    assert p.dim == 3 * 4 + 3 + 3 + 1
    assert p.layer_boundaries == [0, 12, 15, 18, 19]


def test_mlp_full_gradient_is_node_mean():
    p = make_mlp(3, input_dim=4, hidden=2, samples=60, seed=7)
    x = 0.3 * RandomStream(7, 0, "init").generator().standard_normal(p.dim)
    mean = np.mean([p.node_gradient(i, x) for i in range(3)], axis=0)
    np.testing.assert_allclose(p.full_gradient(x), mean, atol=1e-14)


def test_mlp_training_reduces_loss():
    p = make_mlp(2, input_dim=4, hidden=4, samples=120, seed=8)
    x = 0.1 * RandomStream(8, 0, "init").generator().standard_normal(p.dim)
    start = p.loss(x)
    for _ in range(400):
        x = x - 0.5 * p.full_gradient(x)
    assert p.loss(x) < 0.6 * start
    assert p.smoothness() is None


# ---------------------------------------------------------- dataset splits

@pytest.mark.parametrize("cls, factory, extra", [
    (LogisticProblem, make_logistic, {"reg": 1e-3}),
    (MlpProblem, make_mlp, {"hidden": 3}),
], ids=["logistic", "mlp"])
def test_a_dataset_problem_deals_its_own_split(cls, factory, extra):
    z, y = make_blob_dataset(66, 4, seed=1, margin=1.0)
    for mode, by_label in (("fixed-split", False), ("fixed-split", True),
                           ("iid-reshuffled", False)):
        split = dict(mode=mode, by_label=by_label, seed=3)
        p = cls(4, z, y, batch=8, **split, **extra)
        assert p.n == p.partition.n_nodes == 4
        # the split covers the problem's own samples, all of them
        alone = Partition(mode, 4, 66, seed=3, by_label=by_label, labels=y if by_label else None)
        built = factory(4, data=(z, y), batch=8, **split, **extra)
        for epoch in (0, 1):
            shards = [s.tolist() for s in p.partition.shards(epoch)]
            assert shards == [s.tolist() for s in alone.shards(epoch)]
            assert shards == [s.tolist() for s in built.partition.shards(epoch)]
    with pytest.raises(ValueError, match="n_nodes <= n_samples"):
        cls(67, z, y, batch=8, mode="fixed-split", by_label=False, seed=0, **extra)
    with pytest.raises(ValueError, match="seed"):
        cls(4, z, y, batch=8, mode="fixed-split", by_label=False, seed=-1, **extra)
    with pytest.raises(ValueError, match="^feature/label row counts differ$"):
        factory(4, data=(z, y[:-1]), batch=8, **extra)
    with pytest.raises(ValueError, match="^labels must be -1/[+]1$"):
        factory(4, data=(z, y + 1.0), batch=8, **extra)  # labels {0, 2}


# ---------------------------------------------------------------- constants

def test_estimated_smoothness_matches_quadratic():
    p = make_quadratic(4, 10, seed=10, mu=0.1, l_smooth=1.7)
    est = estimate_constants(p, seed=0)
    assert est.l_smooth == pytest.approx(1.7, rel=0.02)


def test_estimated_noise_matches_quadratic():
    p = make_quadratic(4, 20, noise_std=0.5, seed=11)
    est = estimate_constants(p, seed=1, trials=16, grad_samples=32)
    assert est.sigma_sq == pytest.approx(0.25, rel=0.1)


def test_gradient_bound_at_noiseless_optimum():
    p = make_quadratic(4, 20, heterogeneity=0.0, noise_std=0.6, seed=12)
    est = estimate_constants(p, seed=2, center=p.optimum(), radius=0.0)
    # exact gradients vanish there, so G^2 reduces to the noise energy
    assert 0.9 * 0.36 < est.g_sq < 1.5 * 0.36


@pytest.mark.parametrize("name", ["trials", "grad_samples", "power_iters"])
@pytest.mark.parametrize("value", [0, -1])
def test_estimate_constants_rejects_counts_below_one(name, value):
    # 0 used to divide by zero, average over nothing (NaN) or skip the power
    # iteration (L = 0); every count names itself in one line instead
    with pytest.raises(ValueError, match=f"^estimate_constants: {name} must be >= 1, "
                                         f"got {value}$"):
        estimate_constants(make_quadratic(2, 3), **{name: value})


def _compensated_sum(values, start=0):
    # CPython 3.12's sum() of floats: Neumaier's compensated summation
    total, compensation = float(start), 0.0
    for value in values:
        added = total + value
        if abs(total) >= abs(value):
            compensation += (total - added) + value
        else:
            compensation += (value - added) + total
        total = added
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_outputs_do_not_depend_on_the_builtin_sum(monkeypatch, tmp_path):
    assert _compensated_sum([1e16, 1.0, -1e16]) == 1.0  # in order, the 1.0 is lost
    quadratic = make_quadratic(n=16, dim=10, seed=3)
    datasets = (make_logistic(n=8, dim=6, samples=400, seed=3),
                make_mlp(n=8, input_dim=4, hidden=5, samples=400, seed=3))
    config = ExperimentConfig.from_dict({"topology": "ring:16", "compressor": "sign",
                                         "iterations": 200,
                                         "problem": {"kind": "quadratic", "n": 16, "dim": 10}})

    def outputs():
        draw = RandomStream(5, 0, "rows").generator()
        out = [quadratic.loss(draw.standard_normal((40, quadratic.dim))).tobytes()]
        for problem in datasets:
            f, g = problem.loss_and_gradient(draw.standard_normal((40, problem.dim)))
            out += [f.tobytes(), g.tobytes()]
        write_csv(execute_single(config, 1), tmp_path / "run.csv")
        return out + [(tmp_path / "run.csv").read_bytes()]

    before = outputs()
    # Python 3.12's sum() in place of this Python's: a module global shadows the builtin
    monkeypatch.setattr(problems, "sum", _compensated_sum, raising=False)
    assert outputs() == before
