"""Tests for the built-in benchmark problems and their oracles."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numax import (
    ConfigurationError,
    LoopConfig,
    NuPIConfig,
    PrimalKind,
    PrimalOptimizerConfig,
    QPSystem,
    Scheme,
    SvmDataset,
    benchmark2d_constrained_optimum,
    build_2d_benchmark,
    build_qp_problem,
    build_svm_problem,
    iris_csv_path,
    kkt_solve_qp,
    load_dataset_csv,
    run,
    svm_dual_oracle,
    svm_train_accuracy,
    train_validation_split,
    validate_gradients,
)
from numax import problems
from reference import svm_oracle_reference


def two_point_dataset():
    return SvmDataset(points=[[1.0], [-1.0]], labels=[1.0, -1.0])


def random_separable_dataset(rng, m=24, d=3, margin=0.4):
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    b = float(rng.uniform(-0.5, 0.5))
    points, labels = [], []
    while len(points) < m:
        x = rng.uniform(-3, 3, size=d)
        score = float(w @ x + b)
        if abs(score) < margin:
            continue
        points.append(x)
        labels.append(np.sign(score))
    labels = np.array(labels)
    if not (np.any(labels > 0) and np.any(labels < 0)):
        return random_separable_dataset(rng, m, d, margin)
    return SvmDataset(points=np.array(points), labels=labels)


class TestSvmDataset:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="labels"):
            SvmDataset(points=[[1.0], [2.0]], labels=[1.0, 2.0])
        with pytest.raises(ConfigurationError, match="both classes"):
            SvmDataset(points=[[1.0], [2.0]], labels=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            SvmDataset(points=[[1.0]], labels=[1.0, -1.0])
        with pytest.raises(ConfigurationError, match="two points"):
            SvmDataset(points=[[1.0]], labels=[1.0])


def test_accuracy_of_overflowing_margins_without_warning():
    data = load_dataset_csv(iris_csv_path())  # 50 points of each class, every feature > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # every w'x overflows to +inf, so a margin is +inf exactly for label +1
        assert svm_train_accuracy(data, [1e308] * 4, 0.0) == 0.5
        # every w'x is inf - inf = NaN, and a NaN margin is not positive
        assert svm_train_accuracy(data, [1e308, -1e308, 0.0, 0.0], 0.0) == 0.0


class TestBuildSvmProblem:
    def test_origin_violates_every_constraint_by_one(self):
        problem = build_svm_problem(two_point_dataset())
        g = problem.eval_ineq(np.zeros(2))
        np.testing.assert_array_equal(g, [1.0, 1.0])

    def test_two_point_kkt_by_hand(self):
        # x = +-1, y = +-1: w* = 1, b* = 0, both constraints active,
        # stationarity w* = sum lam_i y_i x_i gives lam = (1/2, 1/2)
        solution = svm_dual_oracle(two_point_dataset())
        np.testing.assert_allclose(solution.lam, [0.5, 0.5], atol=1e-10)
        np.testing.assert_allclose(solution.w, [1.0], atol=1e-10)
        assert solution.b == pytest.approx(0.0, abs=1e-10)

    def test_gradients_validate(self):
        data = load_dataset_csv(iris_csv_path())
        train, _ = train_validation_split(data, seed=0)
        report = validate_gradients(build_svm_problem(train), num_points=10, seed=0)
        assert report.passed


class TestSvmDualOracle:
    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        data = random_separable_dataset(rng)
        base = svm_dual_oracle(data)
        scaled = svm_dual_oracle(SvmDataset(points=2.0 * data.points, labels=data.labels))
        np.testing.assert_allclose(scaled.w, base.w / 2.0, atol=1e-6)
        np.testing.assert_allclose(scaled.lam, base.lam / 4.0, atol=1e-6)

    def test_iris_kkt_properties(self):
        data = load_dataset_csv(iris_csv_path())
        train, _ = train_validation_split(data, seed=0)
        sol = svm_dual_oracle(train)
        problem = build_svm_problem(train)
        g = problem.eval_ineq(np.concatenate([sol.w, [sol.b]]))
        assert np.all(sol.lam >= 0.0)
        assert np.sum(sol.lam > 1e-8) >= 1  # at least one support vector
        assert np.max(np.abs(sol.lam * g)) <= 1e-6  # complementary slackness
        assert np.max(g) <= 1e-6  # primal feasibility
        stationarity = sol.w - (sol.lam * train.labels) @ train.points
        assert np.max(np.abs(stationarity)) <= 1e-6
        assert abs(train.labels @ sol.lam) <= 1e-8
        assert svm_train_accuracy(train, sol.w, sol.b) == 1.0

    def test_matches_frozen_reference(self):
        # The oracle stops at the first polish that meets tol; the frozen
        # reference runs gradient steps to a loose KKT estimate and polishes
        # once. Both must land on the same bits: the 16 Iris splits the
        # benchmark draws from, seeded random sets, and two sets whose
        # support points are collinear, so that lambda* is not unique.
        data = load_dataset_csv(iris_csv_path())
        datasets = [train_validation_split(data, seed=split)[0] for split in range(16)]
        rng = np.random.default_rng(13)
        for _ in range(40):
            datasets.append(random_separable_dataset(
                rng, m=int(rng.integers(4, 31)), d=int(rng.integers(1, 5)),
                margin=float(rng.uniform(0.05, 0.8))))
        datasets.append(SvmDataset(
            points=[[-1, 1], [0, 1], [1, 1], [-1, -1], [0, -1], [1, -1], [0, 3], [2, -4]],
            labels=[1, 1, 1, -1, -1, -1, 1, -1]))
        datasets.append(SvmDataset(
            points=[[0, 1, 0], [1, 1, 0], [2, 1, 0], [3, 1, 1], [0, -1, 0], [1, -1, 0],
                    [2, -1, 0]],
            labels=[1, 1, 1, 1, -1, -1, -1]))
        for i, data in enumerate(datasets):
            sol = svm_dual_oracle(data)
            lam, w, b, residual = svm_oracle_reference.svm_dual_oracle(data.points, data.labels)
            assert np.array_equal(sol.lam, lam), i
            assert np.array_equal(sol.w, w), i
            assert np.array_equal(sol.b, b), i
            assert np.array_equal(sol.kkt_residual, residual), i

    def test_failed_start_set_is_not_polished_again(self, monkeypatch):
        # Overlapping classes: the dual is unbounded along one fixed support
        # set, so every check after the first would repeat a failed polish.
        rng = np.random.default_rng(5)
        data = SvmDataset(points=rng.standard_normal((70, 4)),
                          labels=np.where(rng.standard_normal(70) > 0, 1.0, -1.0))
        polish, starts = problems._polish_support, []

        def recorded(X, y, Q, support, tol):
            starts.append(support.copy())
            return polish(X, y, Q, support, tol)

        monkeypatch.setattr(problems, "_polish_support", recorded)
        with pytest.raises(ConfigurationError, match="did not reach KKT residual"):
            svm_dual_oracle(data, max_pgd_iters=2000)
        # one polish at the first of ten checks, one after the last iteration
        assert len(starts) == 2 and np.array_equal(starts[0], starts[1])

    def test_non_separable_reported(self):
        data = SvmDataset(points=[[0.0], [0.0], [1.0], [1.0]],
                          labels=[1.0, -1.0, 1.0, -1.0])
        with pytest.raises(ConfigurationError, match="separable"):
            svm_dual_oracle(data, max_pgd_iters=2000)


class TestBenchmark2D:
    def test_feasible_point(self):
        problem = build_2d_benchmark()
        np.testing.assert_allclose(problem.eval_eq(np.array([1.0, 0.0])), [0.0], atol=1e-15)

    def test_gradients_match_finite_differences(self):
        report = validate_gradients(build_2d_benchmark(), num_points=20, seed=3)
        assert report.passed, report.summary()

    def test_brute_force_optimum(self):
        problem = build_2d_benchmark()
        x_star = benchmark2d_constrained_optimum()
        assert abs(problem.eval_eq(x_star)[0]) <= 1e-9
        f_star = problem.eval_objective(x_star)
        # no sampled feasible point does better
        rng = np.random.default_rng(11)
        for x1 in rng.uniform(-3.0, 1.0599, size=300):
            disc = 9.0 - 4.0 * x1 - 4.0 * x1**3
            if disc < 0:
                continue
            for sign in (1.0, -1.0):
                x = np.array([x1, (-1.0 + sign * np.sqrt(disc)) / 2.0])
                assert problem.eval_objective(x) >= f_star - 1e-9

    def test_constraint_gradient_nonzero_along_curve(self):
        # the single equality constraint keeps a nonzero gradient at sampled
        # feasible points, so the multiplier is well defined along the curve
        problem = build_2d_benchmark()
        rng = np.random.default_rng(6)
        for x1 in rng.uniform(-3.0, 1.0599, size=200):
            disc = 9.0 - 4.0 * x1 - 4.0 * x1**3
            if disc < 0:
                continue
            for sign in (1.0, -1.0):
                x = np.array([x1, (-1.0 + sign * np.sqrt(disc)) / 2.0])
                grad = problem.eval_constraint_jacobian(x)[:, 0]
                assert np.linalg.norm(grad) > 1e-6

    def test_nupi_near_critical_reaches_optimum(self):
        problem = build_2d_benchmark()
        x_star = benchmark2d_constrained_optimum()
        config = LoopConfig(
            scheme=Scheme.ALTERNATING, max_steps=50000,
            dual_optimizer=NuPIConfig(nu=0.0, kp=3.0, ki=0.01),
            primal_optimizer=PrimalOptimizerConfig(kind=PrimalKind.GRADIENT_DESCENT,
                                                   step_size=0.002))
        traj = run(problem, np.array([-0.5, -2.0]), np.zeros(1), config)
        assert np.linalg.norm(traj.final.x - x_star) <= 1e-3


class TestQpProblem:
    def test_matches_kkt_solution(self):
        sys = QPSystem(H=np.eye(2), A=[[1.0, 0.0]], b=[1.0], c_lin=[0.0, 0.0],
                       kp=1.0, ki=1.0)
        problem = build_qp_problem(sys)
        x_star, mu_star = kkt_solve_qp(sys)
        np.testing.assert_allclose(x_star, [1.0, 0.0], atol=1e-12)
        assert abs(problem.eval_eq(x_star)[0]) <= 1e-9
        # stationarity of the Lagrangian at (x*, mu*)
        grad = problem.eval_objective_grad(x_star) + problem.eval_constraint_jacobian(x_star) @ mu_star
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_bilinear_game_builds(self):
        sys = QPSystem(H=np.zeros((1, 1)), A=[[1.0]], b=[0.0], c_lin=[0.0],
                       kp=0.0, ki=1.0)
        problem = build_qp_problem(sys)
        assert problem.eval_objective(np.array([3.0])) == 0.0
        np.testing.assert_array_equal(problem.eval_eq(np.array([3.0])), [3.0])

    def test_gradients_validate(self):
        rng = np.random.default_rng(23)
        Mx = rng.standard_normal((3, 3))
        sys = QPSystem(H=Mx @ Mx.T, A=rng.standard_normal((2, 3)),
                       b=rng.standard_normal(2), c_lin=rng.standard_normal(3),
                       kp=1.0, ki=1.0)
        assert validate_gradients(build_qp_problem(sys), num_points=10, seed=0).passed


# A coordinate between 1e-3 and 1e3 in size, of either sign.
_COORDINATE = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
# A second benchmark2d coordinate x1 at which exp(-x1) overflows.
_OVERFLOWING = st.floats(-1e3, -710.0)
# Multipliers, signed zeros included: a zero times a negative Jacobian entry is -0.0.
_MULTIPLIER = _COORDINATE | st.sampled_from([0.0, -0.0])
_FIELDS = ("eval_objective", "eval_objective_grad", "eval_ineq", "eval_eq",
           "eval_constraint_jacobian")


def _stacks(dim, last=_COORDINATE):
    """K points of `dim` coordinates, the last drawn from `last`, K from 1 to
    40, as a (K, dim) array."""
    point = st.tuples(*[_COORDINATE] * (dim - 1), last)
    return st.lists(point, min_size=1, max_size=40).map(np.array)


def _same_bits(a, b):
    """Equal bit for bit, except that any NaN equals any NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def _assert_rows_are_one_point_calls(problem, points, theta):
    """Row k of each callable's output on the stack is, bit for bit, its
    output at point k. A constant Jacobian may be returned once for the
    whole stack; it then holds for every row. The fused `values` and
    `primal_gradient` (at multipliers `theta`, one row per point) pass
    `check_fused`, on the stack and at each point."""
    for field in _FIELDS:
        fn = getattr(problem, field)
        with np.errstate(over="ignore", invalid="ignore"):  # exp(1e3) overflows on both paths
            stacked = np.asarray(fn(points))
            singles = [np.asarray(fn(x)) for x in points]
        if field == "eval_constraint_jacobian" and stacked.shape == singles[0].shape:
            stacked = np.broadcast_to(stacked, (len(points),) + stacked.shape)
        assert stacked.shape == (len(points),) + singles[0].shape, field
        for k, single in enumerate(singles):
            assert stacked[k].tobytes() == single.astype(np.float64).tobytes(), (field, k)
    with np.errstate(over="ignore", invalid="ignore"):
        for x, th in [(points, theta), *zip(points, theta)]:
            problem.check_fused(x, th)
        stacked = (*problem.values(points), problem.primal_gradient(points, theta))
        for k, (x, th) in enumerate(zip(points, theta)):
            single = (*problem.values(x), problem.primal_gradient(x, th))
            for a, b in zip(stacked, single):
                assert _same_bits(a[k], b), k


def _multipliers(points, num_constraints, data):
    """One row of multipliers per point."""
    return np.array(data.draw(st.lists(
        st.lists(_MULTIPLIER, min_size=num_constraints, max_size=num_constraints),
        min_size=len(points), max_size=len(points))))


class TestStackedEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(split=st.integers(0, 15), points=_stacks(5), seed=st.integers(0, 2**32 - 1))
    def test_svm_rows_are_one_point_calls(self, split, points, seed):
        train, _ = train_validation_split(load_dataset_csv(iris_csv_path()), seed=split)
        problem = build_svm_problem(train)
        # 70 multipliers a row: drawn by numpy, a third of them signed zeros
        rng = np.random.default_rng(seed)
        theta = rng.standard_normal((len(points), problem.num_constraints))
        theta[rng.random(theta.shape) < 1 / 3] = 0.0
        theta *= np.where(rng.random(theta.shape) < 0.5, -1.0, 1.0)
        _assert_rows_are_one_point_calls(problem, points, theta)

    @settings(max_examples=60, deadline=None)
    @given(points=_stacks(2) | _stacks(2, last=_OVERFLOWING), data=st.data())
    def test_benchmark2d_rows_are_one_point_calls(self, points, data):
        _assert_rows_are_one_point_calls(build_2d_benchmark(), points,
                                         _multipliers(points, 1, data))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_qp_rows_are_one_point_calls(self, n, seed, data):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        c = int(rng.integers(1, n + 1))
        sys = QPSystem(H=m @ m.T + 0.1 * np.eye(n), A=rng.standard_normal((c, n)),
                       b=rng.standard_normal(c), c_lin=rng.standard_normal(n), kp=1.0, ki=1.0)
        points = data.draw(_stacks(n))
        _assert_rows_are_one_point_calls(build_qp_problem(sys), points,
                                         _multipliers(points, c, data))


@pytest.mark.parametrize("x", [[0.1, 0.2], [[0.1, 0.2], [-1.5, 3.0]]], ids=["point", "stack"])
def test_accessors_take_lists(x):
    # The raw callables need ndarrays; the checked Jacobian converts a list.
    problem = build_2d_benchmark()
    from_list = problem.constraint_jacobian(x)
    from_array = problem.constraint_jacobian(np.array(x))
    assert from_list.shape == from_array.shape
    assert from_list.tobytes() == from_array.tobytes()


class TestLoadDatasetCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0,1\n1.0,0.0,-1\n2.0,2.0,1\n3.0,3.0,-1\n")
        data = load_dataset_csv(path)
        assert data.num_points == 4 and data.num_features == 2

    def test_zero_label_remapped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,0\n1.0,1\n")
        data = load_dataset_csv(path)
        np.testing.assert_array_equal(data.labels, [-1.0, 1.0])

    def test_iris_subset_split_sizes(self):
        data = load_dataset_csv(iris_csv_path())
        assert data.num_points == 100 and data.num_features == 4
        train, valid = train_validation_split(data, seed=0)
        assert train.num_points == 70 and valid.num_points == 30

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0,1\n1.0,-1\n")
        with pytest.raises(ConfigurationError, match=":2"):
            load_dataset_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0,1\nfoo,0.0,-1\n")
        with pytest.raises(ConfigurationError, match=":2"):
            load_dataset_csv(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1.0,2\n1.0,0.0,-1\n")
        with pytest.raises(ConfigurationError, match="label"):
            load_dataset_csv(path)

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.0,1\n1.0,1\n")
        with pytest.raises(ConfigurationError, match="both classes"):
            load_dataset_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            load_dataset_csv(path)

    def test_one_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# labels only\n1\n-1\n")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:2: need at least "
                                                     "one feature column and a label$"):
            load_dataset_csv(path)


class TestSplit:
    def test_deterministic_and_disjoint(self):
        data = load_dataset_csv(iris_csv_path())
        t1, v1 = train_validation_split(data, seed=5)
        t2, v2 = train_validation_split(data, seed=5)
        np.testing.assert_array_equal(t1.points, t2.points)
        np.testing.assert_array_equal(v1.labels, v2.labels)
        # row multiset is preserved
        all_rows = np.vstack([t1.points, v1.points])
        assert sorted(map(tuple, all_rows)) == sorted(map(tuple, data.points))

    def test_ceil_rule(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("".join(f"{i}.0,{1 if i % 2 == 0 else -1}\n" for i in range(8)))
        train, valid = train_validation_split(load_dataset_csv(path), seed=2)
        assert train.num_points == 6 and valid.num_points == 2  # ceil(0.7 * 8)

    def test_bad_fraction(self):
        data = load_dataset_csv(iris_csv_path())
        with pytest.raises(ConfigurationError):
            train_validation_split(data, seed=0, train_fraction=1.5)

    def test_split_without_validation_rows_rejected(self):
        # ceil(0.99 * 2) = 2 training rows of 2
        with pytest.raises(ConfigurationError, match="^split leaves no validation rows$"):
            train_validation_split(two_point_dataset(), seed=0, train_fraction=0.99)
