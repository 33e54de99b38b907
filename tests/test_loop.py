"""Tests for the alternating/simultaneous descent-ascent drivers."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from numax import (
    AdamConfig,
    ConfigurationError,
    ConstrainedProblem,
    GAConfig,
    LoopConfig,
    NuPIConfig,
    NumericalError,
    PrimalKind,
    PrimalOptimizerConfig,
    QPSystem,
    Scheme,
    TerminationReason,
    UMConfig,
    Xi0Policy,
    benchmark2d_constrained_optimum,
    build_2d_benchmark,
    build_qp_problem,
    build_svm_problem,
    checked_dual_step,
    evaluate_lagrangian,
    iris_csv_path,
    load_dataset_csv,
    make_dual_state,
    map_um_to_nupi,
    read_trajectory_csv,
    train_validation_split,
    run,
    validate_gradients,
    write_trajectory_csv,
)
from numax import cli, loop
from numax.cli import _compute_metric
from numax.core import lagrangian_value
from reference import loop_reference
from reference.loop_reference import _PrimalOptimizer


def gd(step):
    return PrimalOptimizerConfig(kind=PrimalKind.GRADIENT_DESCENT, step_size=step)


def unconstrained_norm_square(dim=3):
    return ConstrainedProblem.from_values(
        dim, 0, 0, lambda x: (float(x @ x), np.zeros(0)),
        lambda x: (2.0 * x, np.zeros((dim, 0))))


def one_sided_line():
    # min x subject to x >= 1, i.e. g(x) = 1 - x; KKT point (x, lam) = (1, 1)
    return ConstrainedProblem.from_values(
        1, 1, 0, lambda x: (float(x[0]), np.array([1.0 - x[0]])),
        lambda x: (np.ones(1), np.array([[-1.0]])))


def two_sided_plane():
    # min (x0 - 2)^2 + x1^2 s.t. 1 - x0 <= 0, x1 - 5 <= 0, x0 + x1 = 3; the
    # unconstrained minimizer strictly satisfies both inequalities
    return ConstrainedProblem.from_values(
        2, 2, 1,
        lambda x: (float((x[0] - 2.0) ** 2 + x[1] ** 2),
                   np.array([1.0 - x[0], x[1] - 5.0, x[0] + x[1] - 3.0])),
        lambda x: (np.array([2.0 * (x[0] - 2.0), 2.0 * x[1]]),
                   np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])))


def bilinear_game():
    # min_x max_theta theta * x: f = 0, h(x) = x
    return ConstrainedProblem.from_values(
        1, 0, 1, lambda x: (0.0, np.array([x[0]])),
        lambda x: (np.zeros(1), np.array([[1.0]])))


class TestUnconstrained:
    def test_reduces_to_plain_gradient_descent(self):
        problem = unconstrained_norm_square()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1))
        traj = run(problem, np.full(3, 2.0), np.zeros(0), config)
        # x_{t+1} = (1 - 2 eta) x_t = 0.8 x_t
        np.testing.assert_allclose(traj.final.x, np.full(3, 2.0) * 0.8**50, rtol=1e-12)
        assert traj.terminated_reason is TerminationReason.MAX_STEPS

    def test_schemes_identical_without_constraints(self):
        problem = unconstrained_norm_square()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=30,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.07))
        x0 = np.array([1.0, -2.0, 0.5])
        ta = run(problem, x0, np.zeros(0), config)
        ts = run(problem, x0, np.zeros(0),
                 dataclasses.replace(config, scheme=Scheme.SIMULTANEOUS))
        for ra, rs in zip(ta.steps, ts.steps):
            assert ra.t == rs.t
            assert np.array_equal(ra.x, rs.x)
            assert ra.f == rs.f


class TestOneSidedLine:
    def test_ga_orbit_stays_bounded(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=10000,
                            dual_optimizer=GAConfig(step_size=0.01),
                            primal_optimizer=gd(0.01))
        traj = run(problem, [0.0], np.zeros(1), config)
        deviations = [np.hypot(rec.x[0] - 1.0, rec.lam[0] - 1.0) for rec in traj.steps]
        assert max(deviations) < 3.0
        assert deviations[-1] > 1e-3  # orbits, does not converge

    def test_nupi_converges_to_kkt_point(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=10000,
                            dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.01),
                            primal_optimizer=gd(0.01))
        traj = run(problem, [0.0], np.zeros(1), config)
        assert abs(traj.final.lam[0] - 1.0) < 1e-3
        assert abs(traj.final.x[0] - 1.0) < 1e-3


class TestBilinearGame:
    def test_simultaneous_diverges_at_spectral_rate(self):
        eta = 0.1
        problem = bilinear_game()
        config = LoopConfig(scheme=Scheme.SIMULTANEOUS, max_steps=200,
                            dual_optimizer=GAConfig(step_size=eta),
                            primal_optimizer=gd(eta))
        traj = run(problem, [1.0], [0.5], config)
        norms = np.array([np.hypot(r.x[0], r.mu[0]) for r in traj.steps])
        assert np.all(np.diff(norms) > 0.0)
        # iteration matrix [[1, -eta], [eta, 1]] has |eigenvalue| = sqrt(1 + eta^2)
        rate = np.sqrt(1.0 + eta * eta)
        observed = (norms[-1] / norms[0]) ** (1.0 / (len(norms) - 1))
        assert observed == pytest.approx(rate, rel=1e-6)

    def test_alternating_stays_bounded(self):
        eta = 0.1
        # alternating matrix [[1 - eta^2, -eta], [eta, 1]] has det 1 and
        # |trace| < 2: eigenvalues on the unit circle
        mat = np.array([[1.0 - eta * eta, -eta], [eta, 1.0]])
        assert np.max(np.abs(np.linalg.eigvals(mat))) == pytest.approx(1.0, abs=1e-12)
        problem = bilinear_game()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5000,
                            dual_optimizer=GAConfig(step_size=eta),
                            primal_optimizer=gd(eta))
        traj = run(problem, [1.0], [0.5], config)
        norms = [np.hypot(r.x[0], r.mu[0]) for r in traj.steps]
        assert max(norms) < 10.0 * norms[0]


class TestLoopMechanics:
    def test_lambda_nonnegative_for_every_dual_optimizer(self):
        problem = one_sided_line()
        for dual in (GAConfig(step_size=0.3),
                     NuPIConfig(nu=0.0, kp=2.0, ki=0.3),
                     UMConfig(alpha=0.3, beta=-0.5, gamma=0.0),
                     AdamConfig(step_size=0.1)):
            config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=500,
                                dual_optimizer=dual, primal_optimizer=gd(0.05))
            traj = run(problem, [5.0], np.zeros(1), config)
            assert all(rec.lam[0] >= 0.0 for rec in traj.steps)

    def test_constraint_evaluations_once_per_iteration(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=137,
                            dual_optimizer=GAConfig(step_size=0.01),
                            primal_optimizer=gd(0.01), record_every=10)
        traj = run(problem, [0.0], np.zeros(1), config)
        # one evaluation per iteration plus the terminal record, and one
        # primal gradient per primal step
        assert traj.counters == {"values": 137 + 1, "primal_gradient": 137}

    def test_dual_restarts_zero_satisfied_constraints(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=300,
                            dual_optimizer=GAConfig(step_size=0.05),
                            primal_optimizer=gd(0.05), dual_restarts=True)
        traj = run(problem, [0.0], np.zeros(1), config)
        # a restart fires after the dual update, so any record following a
        # strictly satisfied constraint carries a zeroed multiplier
        fired = 0
        for prev, cur in zip(traj.steps, traj.steps[1:]):
            if prev.g[0] < 0.0 and cur.t == prev.t + 1:
                assert cur.lam[0] == 0.0
                fired += 1
        assert fired > 0

    def test_records_strictly_increasing_and_terminal_state(self):
        problem = unconstrained_norm_square()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=25,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1), record_every=7)
        traj = run(problem, np.ones(3), np.zeros(0), config)
        ts = [rec.t for rec in traj.steps]
        assert ts == [0, 7, 14, 21, 25]

    def test_non_finite_terminates_with_flagged_record(self):
        problem = unconstrained_norm_square(dim=1)
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=500,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(1e6))  # wildly unstable
        traj = run(problem, [1.0], np.zeros(0), config)
        assert traj.terminated_reason is TerminationReason.NON_FINITE
        assert traj.steps[-1].t <= 500

    def test_tolerance_stop(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50000,
                            dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.05),
                            primal_optimizer=gd(0.05), stop_tolerance=1e-9)
        traj = run(problem, [0.0], np.zeros(1), config)
        assert traj.terminated_reason is TerminationReason.TOLERANCE
        assert traj.final.t < 50000

    def test_input_validation(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError):
            run(problem, [np.nan], np.zeros(1), config)
        with pytest.raises(ConfigurationError):
            run(problem, [0.0], [-1.0], config)
        svm = build_svm_problem(train_validation_split(load_dataset_csv(iris_csv_path()), 0)[0])
        x0, m = np.zeros(svm.dim_primal), svm.num_ineq  # 70 inequalities
        for theta0, message in (([0.5], r"theta0 must have shape \(70,\), got \(1,\)"),
                                (np.zeros(m + 1), r"theta0 must have shape \(70,\), got \(71,\)"),
                                (np.full(m, np.nan), "finite")):
            with pytest.raises(ConfigurationError, match=message):
                run(svm, x0, theta0, config)
        with pytest.raises(ConfigurationError):
            LoopConfig(scheme=Scheme.ALTERNATING, max_steps=0,
                       dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError, match="Scheme"):
            dataclasses.replace(config, scheme="simultaneous")
        for step in (np.nan, np.inf, 0.0):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                gd(step)

    @pytest.mark.parametrize("name, value, message", [
        ("kind", "gd", "primal kind must be a PrimalKind, got 'gd'"),
        ("kind", None, "primal kind must be a PrimalKind, got None"),
        ("step_size", "3", "primal step_size must be a number, got '3'"),
        ("step_size", None, "primal step_size must be a number, got None"),
        ("step_size", True, "primal step_size must be a number, got True"),
        ("momentum", np.nan, "primal momentum must be finite, got nan"),
        ("momentum", -np.inf, "primal momentum must be finite, got -inf"),
        ("momentum", "0.9", "primal momentum must be a number, got '0.9'"),
    ])
    def test_primal_config_fields_checked(self, name, value, message):
        # an unknown kind would otherwise fall through the step to Adam
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(gd(0.1), **{name: value})
        assert dataclasses.replace(gd(0.1), step_size=np.float32(0.5), momentum=0).momentum == 0

    @pytest.mark.parametrize("tolerance", [-1.0, -1e-300, np.nan, np.inf])
    def test_stop_tolerance_must_be_finite_and_non_negative(self, tolerance):
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError, match="stop_tolerance must be finite and >= 0"):
            dataclasses.replace(config, stop_tolerance=tolerance)
        assert dataclasses.replace(config, stop_tolerance=0.0).stop_tolerance == 0.0

    @pytest.mark.parametrize("name, value, message", [
        ("max_steps", 0, "max_steps must be >= 1"),
        ("record_every", 0, "record_every must be >= 1"),
        ("record_every", np.int64(-3), "record_every must be >= 1"),
        ("max_steps", 2.5, "max_steps must be an integer, got 2.5"),
        ("record_every", 1.5, "record_every must be an integer, got 1.5"),
        ("max_steps", "3", "max_steps must be an integer, got '3'"),
        ("record_every", None, "record_every must be an integer, got None"),
        ("max_steps", True, "max_steps must be an integer, got True"),
        ("record_every", np.float64(2.0), "record_every must be an integer, got np.float64(2.0)"),
        ("max_steps", np.bool_(True), "max_steps must be an integer, got np.True_"),
    ])
    def test_step_counts_are_integers_from_one(self, name, value, message):
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(config, **{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("primal_optimizer", None, "primal_optimizer must be a PrimalOptimizerConfig, got None"),
        ("primal_optimizer", 2.5, "primal_optimizer must be a PrimalOptimizerConfig, got 2.5"),
        ("primal_optimizer", GAConfig(step_size=0.1),
         "primal_optimizer must be a PrimalOptimizerConfig, got GAConfig(step_size=0.1)"),
        ("dual_restarts", "no", "dual_restarts must be a bool, got 'no'"),
        ("dual_restarts", None, "dual_restarts must be a bool, got None"),
        ("dual_restarts", 2.5, "dual_restarts must be a bool, got 2.5"),
        ("dual_restarts", 1, "dual_restarts must be a bool, got 1"),
        ("dual_restarts", np.array([0.1, 0.2]), "dual_restarts must be a bool, got array([0.1, 0.2])"),
        ("stop_tolerance", "3", "stop_tolerance must be a number or None, got '3'"),
        ("stop_tolerance", [0.1], "stop_tolerance must be a number or None, got [0.1]"),
        ("stop_tolerance", True, "stop_tolerance must be a number or None, got True"),
        ("stop_tolerance", np.array(0.1), "stop_tolerance must be a number or None, got array(0.1)"),
        pytest.param("stop_tolerance", 2**1024,
                     f"stop_tolerance must be finite and >= 0, got {2**1024}",
                     id="stop_tolerance-int-beyond-float"),
    ])
    def test_last_fields_checked(self, name, value, message):
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(config, **{name: value})
        numpy_config = dataclasses.replace(config, dual_restarts=np.True_,
                                           stop_tolerance=np.float32(0.5))
        assert numpy_config.dual_restarts is True and type(numpy_config.stop_tolerance) is float
        assert dataclasses.replace(config, stop_tolerance=1).stop_tolerance == 1.0

    def test_numpy_integer_step_counts_run_as_ints(self, tmp_path):
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=40, record_every=3,
                            dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        numpy_config = dataclasses.replace(config, max_steps=np.int64(40),
                                           record_every=np.int32(3))
        assert numpy_config == config and type(numpy_config.max_steps) is int
        for name, cfg in (("int", config), ("numpy", numpy_config)):
            write_trajectory_csv(run(one_sided_line(), [5.0], np.zeros(1), cfg), tmp_path / name)
        assert (tmp_path / "int").read_bytes() == (tmp_path / "numpy").read_bytes()

    def test_wrong_jacobian_shape_rejected(self):
        # one_sided_line with its Jacobian as a vector: the start check reads
        # the Jacobian before the fused gradient would multiply by it
        problem = ConstrainedProblem.from_values(
            1, 1, 0, lambda x: (float(x[0]), np.array([1.0 - x[0]])),
            lambda x: (np.ones(1), np.array([-1.0])))
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError, match="Jacobian"):
            run(problem, [0.0], np.zeros(1), config)
        with pytest.raises(ConfigurationError, match="Jacobian"):
            validate_gradients(problem, num_points=1, seed=0)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("dual", [GAConfig(step_size=0.05),
                                      NuPIConfig(nu=0.3, kp=1.0, ki=0.05),
                                      UMConfig(alpha=0.05, beta=0.5, gamma=1.0),
                                      AdamConfig(step_size=0.05)],
                             ids=["ga", "nupi", "um", "adam"])
    def test_record_lagrangian_is_cores(self, scheme, dual):
        problem = two_sided_plane()
        config = LoopConfig(scheme=scheme, max_steps=300, dual_optimizer=dual,
                            primal_optimizer=gd(0.05), dual_restarts=True)
        traj = run(problem, [0.0, 0.0], np.zeros(3), config)
        assert traj.terminated_reason is TerminationReason.MAX_STEPS
        assert any(rec.lam[0] > 0.0 for rec in traj.steps)
        for rec in traj.steps:
            expected = evaluate_lagrangian(problem, rec.x, np.concatenate([rec.lam, rec.mu]))
            assert rec.lagrangian == expected


# Any one field of the loop's configs set to a hostile value: building the
# configs and running on benchmark2d ends in a Trajectory, a
# ConfigurationError or a NumericalError, and numpy warns of nothing.
_HOSTILE = [None, True, False, np.True_, 0, -1, 3, np.int64(3), 2.5, -1.0, 0.0, -0.0, 5e-324,
            1e308, -1e308, 10**400, np.nan, np.inf, -np.inf, np.float32(0.5), 1j, "3", "",
            [0.1], (0.1,), np.array(0.1), np.array([0.1]), np.array([0.1, 0.2]),
            np.array([[0.1]]), np.array(["3"]), Scheme.SIMULTANEOUS, PrimalKind.ADAM,
            Xi0Policy.MATCH_UM, GAConfig(step_size=0.1), gd(0.1)]
_HOSTILE_BASE = {
    LoopConfig: {"scheme": Scheme.ALTERNATING, "max_steps": 20, "dual_restarts": False,
                 "record_every": 1, "stop_tolerance": None},
    NuPIConfig: {"nu": 0.5, "kp": 1.0, "ki": 0.1, "xi0_policy": Xi0Policy.MATCH_ERROR},
    UMConfig: {"alpha": 0.1, "beta": 0.5, "gamma": 1.0},
    GAConfig: {"step_size": 0.1},
    AdamConfig: {"step_size": 0.1},
}


@settings(max_examples=500)
@given(dual=st.sampled_from([NuPIConfig, UMConfig, GAConfig, AdamConfig]),
       kind=st.sampled_from(list(PrimalKind)),
       target=st.sampled_from(["loop", "primal", "dual"]), data=st.data())
def test_hostile_config_field_is_refused_or_runs(dual, kind, target, data):
    cls = {"loop": LoopConfig, "primal": PrimalOptimizerConfig, "dual": dual}[target]
    name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls) if f.init]))
    value = data.draw(st.sampled_from(_HOSTILE))
    # a valid step budget stays small
    assume(not (name == "max_steps" and isinstance(value, (int, np.integer)) and value > 20))
    fields = {"loop": dict(_HOSTILE_BASE[LoopConfig]), "dual": dict(_HOSTILE_BASE[dual]),
              "primal": {"kind": kind, "step_size": 0.01, "momentum": 0.9}}
    fields[target][name] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loop_fields = {"dual_optimizer": dual(**fields["dual"]),
                           "primal_optimizer": PrimalOptimizerConfig(**fields["primal"]),
                           **fields["loop"]}
            traj = run(build_2d_benchmark(), cli.BENCHMARK2D_DEFAULT_X0, np.zeros(1),
                       LoopConfig(**loop_fields))
        except (ConfigurationError, NumericalError):
            return
    assert isinstance(traj, loop.Trajectory) and len(traj.steps) >= 1


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@given(dim=st.integers(1, 5), steps=st.integers(1, 30), eta=st.floats(1e-4, 1.0),
       data=st.data())
def test_primal_adam_step_is_dual_increment_negated(dim, steps, eta, data):
    vectors = st.lists(_FINITE, min_size=dim, max_size=dim).map(np.array)
    x = data.draw(vectors)
    primal = _PrimalOptimizer(PrimalOptimizerConfig(kind=PrimalKind.ADAM, step_size=eta), dim)
    dual_config = AdamConfig(step_size=eta)
    dual = make_dual_state(dual_config, np.zeros(dim))
    for _ in range(steps):
        grad = data.draw(vectors)
        # from theta = 0 the dual step's theta is its increment
        dual = checked_dual_step(dual, dual_config, grad)
        x_next = primal.step(x, grad)
        np.testing.assert_array_equal(x_next, x - dual.theta)
        x, dual = x_next, dataclasses.replace(dual, theta=np.zeros(dim))


class TestTrajectoryCsv:
    @given(nu=st.floats(-0.9, 0.9), kp=st.floats(0.0, 5.0), ki=st.floats(1e-3, 0.5),
           x0=st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
           max_steps=st.integers(1, 120), record_every=st.integers(1, 9))
    def test_round_trip_lossless(self, tmp_path_factory, nu, kp, ki, x0, max_steps,
                                 record_every):
        problem = two_sided_plane()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=max_steps,
                            dual_optimizer=NuPIConfig(nu=nu, kp=kp, ki=ki),
                            primal_optimizer=gd(0.02), record_every=record_every)
        traj = run(problem, x0, np.zeros(3), config)
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_trajectory_csv(traj, path)
        table = read_trajectory_csv(path)
        assert table.terminated_reason == traj.terminated_reason.value
        assert len(table.t) == len(traj.steps)
        for i, rec in enumerate(traj.steps):
            assert table.t[i] == rec.t
            assert table.f[i] == rec.f
            assert table.lagrangian[i] == rec.lagrangian
            assert table.linf_g[i] == np.max(np.abs(rec.g))
            assert table.linf_h[i] == np.max(np.abs(rec.h))
            np.testing.assert_array_equal(table.lam[i], rec.lam)
            np.testing.assert_array_equal(table.mu[i], rec.mu)
            np.testing.assert_array_equal(table.x[i], rec.x)

    def test_header_documents_columns(self, tmp_path):
        problem = bilinear_game()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=4,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1))
        traj = run(problem, [1.0], [0.0], config)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[2].split(",")[:5] == ["t", "f", "linf_g", "linf_h", "lagrangian"]
        assert "mu_0" in lines[2] and "x_0" in lines[2]


def test_csv_writer_matches_plain_formatting(tmp_path, monkeypatch):
    # The writer reuses a row's text for a row whose floats have the same
    # bits. Against plain per-row formatting: repeats inside and across
    # two-row blocks, rows that differ only in the sign of a zero, NaN with
    # two payloads, and +-inf.
    monkeypatch.setattr(loop, "_CSV_BLOCK_ROWS", 2)
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    records = loop.Records(4, 2, 1, 1)  # grows as rows are appended
    rows = [  # (x, f, c, theta), each appended as given, one step each
        ([0.0, 1.5], 1.0, [0.5, -0.25], [1.0, 2.0]),
        ([0.0, 1.5], 1.0, [0.5, -0.25], [1.0, 2.0]),    # repeat in a block
        ([0.0, 1.5], 1.0, [0.5, -0.25], [1.0, 2.0]),    # repeat across blocks
        ([-0.0, 1.5], 1.0, [0.5, -0.25], [1.0, 2.0]),   # the sign of a zero
        ([0.0, 1.5], 1.0, [0.5, -0.25], [1.0, 2.0]),
        ([0.0, 1.5], 1.0, [0.5, -0.0], [1.0, 2.0]),
        ([0.0, 1.5], -0.0, [0.5, -0.0], [1.0, 2.0]),
        ([np.nan, 1.5], 1.0, [0.5, -0.25], [1.0, 2.0]),
        ([other_nan, 1.5], 1.0, [0.5, -0.25], [1.0, 2.0]),
        ([other_nan, 1.5], 1.0, [0.5, -0.25], [1.0, 2.0]),
        ([-np.inf, 1.5], np.inf, [0.5, -0.25], [1.0, 2.0]),
        ([-np.inf, 1.5], np.inf, [0.5, -0.25], [1.0, 2.0]),
    ]
    for t, (x, f, c, theta) in enumerate(rows):
        records.append(t, np.array(x), f, np.array(c), np.array(theta))
    records.append(range(12, 20, 3), np.array([0.0, 1.5]), 1.0, np.array([0.5, -0.25]),
                   np.array([1.0, 2.0]))
    traj = loop.Trajectory(steps=records, terminated_reason=TerminationReason.MAX_STEPS)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)

    row = "%d" + ",%.17g" * 8 + "\r\n"
    with np.errstate(invalid="ignore"):
        plain = "".join(row % (rec.t, rec.f, np.max(np.abs(rec.g)), np.max(np.abs(rec.h)),
                               rec.lagrangian, *rec.lam, *rec.mu, *rec.x)
                        for rec in traj.steps)
    text = path.read_bytes().decode()
    assert text.split("\n", 3)[3] == plain
    assert [rec.t for rec in traj.steps] == list(range(12)) + [12, 15, 18]
    assert ",-0,1.5\r\n" in plain and "nan" in plain and "-inf" in plain


# Piecewise-constant columns for the writer, which formats a column once in a
# block where its bits hold over the changed rows. A stored row is
# x, f, c, theta flattened; each later row sets the columns named in its
# change and keeps the rest, and a tail of (step, count, change) fills count
# steps past the last row, as `Records.append(range(...), ...)` does.
_OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
_CSV_VALUES = (st.sampled_from([0.0, -0.0, np.nan, _OTHER_NAN, np.inf, -np.inf, 5e-324])
               | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _piecewise_rows(draw):
    d, m, n = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    width = d + 1 + 2 * (m + n)
    change = st.dictionaries(st.integers(0, width - 1), _CSV_VALUES, max_size=2)
    first = draw(st.lists(_CSV_VALUES, min_size=width, max_size=width))
    tail = st.tuples(st.integers(1, 4), st.integers(1, 8), change)
    return (d, m, n), first, draw(st.lists(change, max_size=24)), draw(st.none() | tail)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 512])
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_piecewise_rows())
# x_0 holds 1.0 over the first three rows and varies after them.
@example(case=((1, 1, 0), [1.0, 2.0, 0.5, 0.0],
               [{1: 3.0}, {1: 4.0}, {0: 1.25}, {0: 1.5}, {0: 1.75}], None))
# x_0 holds -0.0 over the first three rows, then 0.0; lam_0 is -0.0 throughout.
@example(case=((1, 1, 0), [-0.0, 1.0, 0.5, -0.0],
               [{1: 2.0}, {1: 3.0}, {0: 0.0, 1: 4.0}, {1: 5.0}, {1: 6.0}], None))
# Blocks in which only one column changes, or one row only.
@example(case=((2, 0, 1), [1.0, 1.0, 1.0, 1.0, 1.0],
               [{0: 2.0}, {0: 3.0}, {}, {2: 7.0}, {}, {0: 5e-324}, {0: -5e-324}], None))
# A range-filled tail, the same record and then one with a new mu_0.
@example(case=((1, 0, 1), [0.5, 0.25, 0.0, np.nan],
               [{3: _OTHER_NAN}, {0: -np.inf}], (3, 4, {})))
@example(case=((1, 0, 1), [0.5, 0.25, 0.0, 1.0], [{0: 0.75}], (1, 5, {3: -0.0})))
def test_csv_writer_matches_plain_formatting_on_piecewise_columns(tmp_path, monkeypatch,
                                                                  block_rows, case):
    monkeypatch.setattr(loop, "_CSV_BLOCK_ROWS", block_rows)
    (d, m, n), first, changes, tail = case
    records = loop.Records(2, d, m, n)

    def append(t, row):
        k = m + n
        records.append(t, np.array(row[:d]), row[d], np.array(row[d + 1:d + 1 + k]),
                       np.array(row[d + 1 + k:]))

    row = list(first)
    for t, change in enumerate([{}] + changes):
        row = [change.get(i, value) for i, value in enumerate(row)]
        append(t, row)
    if tail is not None:
        step, count, change = tail
        start = len(records)
        append(range(start, start + step * count, step),
               [change.get(i, value) for i, value in enumerate(row)])
    traj = loop.Trajectory(steps=records, terminated_reason=TerminationReason.MAX_STEPS)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)

    fmt = "%d" + ",%.17g" * (4 + m + n + d) + "\r\n"
    with np.errstate(invalid="ignore"):
        plain = "".join(fmt % (rec.t, rec.f, np.max(np.abs(rec.g), initial=0.0),
                               np.max(np.abs(rec.h), initial=0.0), rec.lagrangian,
                               *rec.lam, *rec.mu, *rec.x)
                        for rec in traj.steps)
    assert path.read_bytes().decode().split("\n", 3)[3] == plain


# The frozen record-per-step driver in tests/reference is the oracle for the
# columnar driver: same records bit for bit, same stop, same counts, same
# CSV bytes.

_PROBLEMS = {"one_sided_line": one_sided_line, "two_sided_plane": two_sided_plane,
             "benchmark2d": build_2d_benchmark, "unconstrained": unconstrained_norm_square}
_DUALS = {
    "nupi": st.builds(NuPIConfig, nu=st.floats(-0.9, 0.9), kp=st.floats(-2.0, 10.0),
                      ki=st.floats(1e-3, 2.0)),
    "ga": st.builds(GAConfig, step_size=st.floats(1e-3, 2.0)),
    "um": st.builds(UMConfig, alpha=st.floats(1e-3, 1.0), beta=st.floats(-0.9, 0.9),
                    gamma=st.sampled_from([0.0, 1.0])),
    "adam": st.builds(AdamConfig, step_size=st.floats(1e-3, 0.5)),
}


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200)
@given(problem_name=st.sampled_from(sorted(_PROBLEMS)), scheme=st.sampled_from(list(Scheme)),
       dual_kind=st.sampled_from(sorted(_DUALS)), primal_kind=st.sampled_from(list(PrimalKind)),
       primal_step=st.floats(1e-3, 0.2), restarts=st.booleans(),
       record_every=st.integers(1, 9), max_steps=st.integers(1, 250),
       stop_tolerance=st.none() | st.floats(1e-6, 10.0), x0=st.floats(-3.0, 3.0),
       diverge=st.sampled_from(["no", "step", "start"]), data=st.data())
def test_matches_reference_driver(tmp_path_factory, problem_name, scheme, dual_kind,
                                  primal_kind, primal_step, restarts, record_every, max_steps,
                                  stop_tolerance, x0, diverge, data):
    problem = _PROBLEMS[problem_name]()
    config = LoopConfig(
        scheme=scheme, max_steps=max_steps, dual_optimizer=data.draw(_DUALS[dual_kind]),
        primal_optimizer=PrimalOptimizerConfig(
            kind=primal_kind, step_size=1e300 if diverge == "step" else primal_step),
        dual_restarts=restarts, record_every=record_every, stop_tolerance=stop_tolerance)
    x0 = np.full(problem.dim_primal, 1e200 if diverge == "start" else x0)
    _assert_matches_reference(problem, x0, config, tmp_path_factory.getbasetemp())


# With ki > 1 the dual increment, not the violation, decides when the stop fires.
@pytest.mark.parametrize("tolerance", [1e-9, 1e-6, 1e-3, 3e-2])
@pytest.mark.parametrize("record_every", [1, 4])
@pytest.mark.parametrize("ki", [0.05, 1.5])
def test_tolerance_stop_matches_reference(tmp_path, tolerance, record_every, ki):
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50000,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=ki),
                        primal_optimizer=gd(0.05), stop_tolerance=tolerance,
                        record_every=record_every)
    traj = _assert_matches_reference(one_sided_line(), [0.0], config, tmp_path)
    assert traj.terminated_reason is TerminationReason.TOLERANCE


def test_tolerance_stop_holds_records_not_budget():
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=10**12,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.05),
                        primal_optimizer=gd(0.05), stop_tolerance=1e-6)
    traj = run(one_sided_line(), [0.0], np.zeros(1), config)
    assert traj.terminated_reason is TerminationReason.TOLERANCE
    assert len(traj.steps) < 10**4
    assert len(traj.steps.t) <= loop._RECORDS_INITIAL_ROWS


@pytest.mark.parametrize("record_every,stop_tolerance,primal_step",
                         [(1, None, 0.05), (3, None, 0.05), (1, 1e-2, 0.05), (1, None, 1e300)],
                         ids=["every-step", "strided", "tolerance", "non-finite"])
def test_grown_records_match_reference(tmp_path, monkeypatch, record_every, stop_tolerance,
                                       primal_step):
    monkeypatch.setattr(loop, "_RECORDS_INITIAL_ROWS", 2)
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=300,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.5),
                        primal_optimizer=gd(primal_step), stop_tolerance=stop_tolerance,
                        record_every=record_every)
    traj = _assert_matches_reference(one_sided_line(), [0.0], config, tmp_path)
    assert 2 < len(traj.steps) <= len(traj.steps.t) < 2 * len(traj.steps)


def _assert_matches_reference(problem, x0, config, base):
    theta0 = np.zeros(problem.num_constraints)
    traj = run(problem, x0, theta0, config)
    ref = loop_reference.run(problem, x0, theta0, config)

    assert traj.terminated_reason is ref.terminated_reason
    # the reference calls the five callables; `values` stands for f, g and h,
    # `primal_gradient` for grad f and, with constraints, the Jacobian
    counts = ref.counters
    assert counts["ineq"] == counts["eq"] == counts["objective"]
    assert counts["jacobian"] == (counts["objective_grad"] if problem.num_constraints else 0)
    assert traj.counters == {"values": counts["objective"],
                             "primal_gradient": counts["objective_grad"]}
    assert len(traj.steps) == len(ref.steps)
    assert traj.final.t == ref.final.t
    for rec, ref_rec in zip(traj.steps, ref.steps):
        assert type(rec.t) is int and rec.t == ref_rec.t
        for name in ("f", "lagrangian", "x", "g", "h", "lam", "mu"):
            assert _same(getattr(rec, name), getattr(ref_rec, name)), (rec.t, name)
    for name in ("t", "f", "lagrangian", "x", "g", "h", "lam", "mu"):
        assert _same(traj.column(name), ref.column(name)), name
    write_trajectory_csv(traj, base / "columns.csv")
    loop_reference.write_trajectory_csv(ref, base / "reference.csv")
    assert (base / "columns.csv").read_bytes() == (base / "reference.csv").read_bytes()
    return traj


def test_svm_inactive_multipliers_match_reference(tmp_path, monkeypatch):
    # Complementary slackness keeps most of the 70 Iris multipliers projected
    # to exactly 0, so most columns hold their bits over whole 64-row blocks,
    # where the writer formats them once.
    monkeypatch.setattr(loop, "_CSV_BLOCK_ROWS", 64)
    train, _ = train_validation_split(load_dataset_csv(iris_csv_path()), seed=4)
    problem = build_svm_problem(train)
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=400,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.1),
                        primal_optimizer=PrimalOptimizerConfig(
                            kind=PrimalKind.GRADIENT_DESCENT_MOMENTUM, step_size=1e-3,
                            momentum=0.9))
    traj = _assert_matches_reference(problem, np.zeros(problem.dim_primal), config, tmp_path)
    lam = traj.column("lam")
    for start in range(64, len(lam), 64):
        assert (lam[start:start + 64] == 0.0).all(axis=0).sum() > lam.shape[1] // 2, start


# A run whose whole carried state repeats bit for bit sits on an exact fixed
# point, and the loop fills the records left at once. Each case reaches such a
# point within about 2k steps and must still be the reference driver's run bit
# for bit; counting evaluations shows whether the skip fired.

def _counting(problem):
    """`problem` with its evaluations through `values` counted, one entry
    in the returned list per call (the start check makes one)."""
    calls = []

    def eval_values(x):
        calls.append(None)
        return problem.values(x)

    return dataclasses.replace(problem, eval_values=eval_values), calls


def _fixed_step(traj) -> int:
    """The first recorded step from which x and theta keep the final
    record's bits."""
    rows = np.concatenate([traj.column(name) for name in ("x", "lam", "mu")], axis=1)
    bits = rows.view(np.uint64)
    changing = np.flatnonzero((bits != bits[-1]).any(axis=1))
    return int(traj.column("t")[changing[-1] + 1]) if len(changing) else 0


def _near_optimum():
    return benchmark2d_constrained_optimum() + 0.01


# name: (problem, x0, dual, primal kind, other LoopConfig fields, whether the skip fires)
_FIXED_POINT_CASES = {
    "every-step": (build_2d_benchmark, _near_optimum, NuPIConfig(nu=0.0, kp=3.0, ki=0.1),
                   PrimalKind.GRADIENT_DESCENT, {}, True),
    "strided": (build_2d_benchmark, _near_optimum, NuPIConfig(nu=0.0, kp=3.0, ki=0.1),
                PrimalKind.GRADIENT_DESCENT, {"record_every": 7}, True),
    "simultaneous": (build_2d_benchmark, _near_optimum, NuPIConfig(nu=0.0, kp=1.0, ki=0.1),
                     PrimalKind.GRADIENT_DESCENT, {"scheme": Scheme.SIMULTANEOUS}, True),
    "restarts": (two_sided_plane, lambda: [0.0, 0.0], NuPIConfig(nu=0.0, kp=1.0, ki=0.5),
                 PrimalKind.GRADIENT_DESCENT, {"dual_restarts": True}, True),
    "ga": (two_sided_plane, lambda: [0.0, 0.0], GAConfig(step_size=0.5),
           PrimalKind.GRADIENT_DESCENT, {}, True),
    "um": (two_sided_plane, lambda: [0.0, 0.0], UMConfig(alpha=0.05, beta=0.3, gamma=1.0),
           PrimalKind.GRADIENT_DESCENT, {}, True),
    # Adam's step count moves every step, on either side: no state repeats.
    "dual-adam": (two_sided_plane, lambda: [0.0, 0.0], AdamConfig(step_size=0.05),
                  PrimalKind.GRADIENT_DESCENT, {"record_every": 7}, False),
    "primal-adam": (build_2d_benchmark, _near_optimum, NuPIConfig(nu=0.0, kp=1.0, ki=0.1),
                    PrimalKind.ADAM, {}, False),
}


@pytest.mark.parametrize("case", sorted(_FIXED_POINT_CASES))
def test_fixed_point_matches_reference(tmp_path, case):
    make, x0, dual, primal_kind, fields, skips = _FIXED_POINT_CASES[case]
    problem, calls = _counting(make())
    step = 0.01 if make is build_2d_benchmark else 0.05
    config = LoopConfig(**{"scheme": Scheme.ALTERNATING, "max_steps": 3000,
                           "dual_optimizer": dual,
                           "primal_optimizer": PrimalOptimizerConfig(kind=primal_kind,
                                                                     step_size=step),
                           **fields})
    traj = _assert_matches_reference(problem, x0(), config, tmp_path)
    assert traj.terminated_reason is TerminationReason.MAX_STEPS
    if skips:
        assert _fixed_step(traj) < 2000 and len(calls) < config.max_steps
    else:
        assert len(calls) == config.max_steps + 2


@pytest.mark.parametrize("below", [False, True], ids=["at-max-violation", "below-max-violation"])
def test_fixed_point_under_tolerance_matches_reference(tmp_path, below):
    # two_sided_plane's fixed point strictly satisfies both inequalities, so
    # max |c| there is the slack, about 4.5. Every 100th step is recorded, so
    # a streak takes 1000 steps, and the state repeats between recorded steps
    # long before a streak at that tolerance completes: a skip there would end
    # the run at max-steps. Just below that max |c| no streak starts.
    base = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=3000,
                      dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.5),
                      primal_optimizer=gd(0.05), record_every=100)
    final = run(two_sided_plane(), [0.0, 0.0], np.zeros(3), base).final
    tolerance = float(np.max(np.abs(np.concatenate([final.g, final.h]))))
    if below:
        tolerance = float(np.nextafter(tolerance, 0.0))
    problem, calls = _counting(two_sided_plane())
    traj = _assert_matches_reference(problem, [0.0, 0.0],
                                     dataclasses.replace(base, stop_tolerance=tolerance), tmp_path)
    if below:
        assert traj.terminated_reason is TerminationReason.MAX_STEPS
        assert len(calls) < base.max_steps
    else:
        assert traj.terminated_reason is TerminationReason.TOLERANCE
        assert traj.final.t > _fixed_step(traj) + 2 * loop._FIXED_POINT_EVERY


def test_acceptance_7_runs_skip_at_their_fixed_point():
    # The three 50k-step runs of acceptance criterion 7 each reach an exact
    # fixed point; every step from there on is filled, not computed. A
    # detector that never fires evaluates 50002 times.
    every = loop._FIXED_POINT_EVERY
    for kp in (1.0, 3.0, 5.0):
        problem, calls = _counting(build_2d_benchmark())
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50000,
                            dual_optimizer=NuPIConfig(nu=0.0, kp=kp, ki=0.01),
                            primal_optimizer=gd(0.002))
        traj = run(problem, [-0.5, -2.0], np.zeros(1), config)
        assert traj.counters["values"] == 50001 and len(traj.steps) == 50001
        assert len(calls) <= _fixed_step(traj) + 2 * every + 2, kp


def _zero_sign_relay():
    """No constraints; x = (a, b, s) from (0, -0, -0) with GD step 1. a
    counts the steps up to E = `_FIXED_POINT_EVERY` and stays there. At
    step E the gradient turns s to +0, and at step E + 1 the gradient, now
    -0 through s, turns b to +0: the states at E and E + 1 differ only in
    the sign of a zero, and the run is at its fixed point from E + 2."""
    every = loop._FIXED_POINT_EVERY

    def grad(x):
        a, _, s = x
        return np.array([-1.0, 0.0, 0.0]) if a < every else np.array([0.0, -s, -0.0])

    return ConstrainedProblem.from_values(
        3, 0, 0, lambda x: (float(x[0]), np.zeros(0)), lambda x: (grad(x), np.zeros((3, 0))))


def test_state_that_differs_in_the_sign_of_a_zero_is_no_fixed_point(tmp_path):
    every = loop._FIXED_POINT_EVERY
    problem, calls = _counting(_zero_sign_relay())
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=3 * every,
                        dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(1.0))
    traj = _assert_matches_reference(problem, [0.0, -0.0, -0.0], config, tmp_path)
    assert str(traj.steps[every + 1].x[1]) == "-0.0" and str(traj.final.x[1]) == "0.0"
    assert len(calls) < config.max_steps


def test_first_step_that_only_sets_xi_is_no_fixed_point(tmp_path):
    # From two_sided_plane's unconstrained minimizer (2, 0) with kp = -ki,
    # the first nuPI step gives theta_1 = ki e_0 + kp xi_0 = 0 and the primal
    # gradient is 0, so x and theta repeat; only xi is set. The next step
    # moves mu.
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=600,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=-0.5, ki=0.5),
                        primal_optimizer=gd(0.05))
    traj = _assert_matches_reference(two_sided_plane(), [2.0, 0.0], config, tmp_path)
    first, second, third = traj.steps[:3]
    assert _same(first.x, second.x) and _same(first.mu, second.mu)
    assert not _same(second.mu, third.mu)


def test_velocity_that_x_absorbs_is_no_fixed_point(tmp_path):
    # f = x from x0 = 1.5 * 2^60, whose neighbours lie 256 away, under heavy-ball
    # momentum 0.99: the velocity climbs toward 100, and the steps eta v stay
    # under half that spacing, so x repeats while v grows, until after step
    # E + 1. Then x moves.
    problem = ConstrainedProblem.from_values(
        1, 0, 0, lambda x: (float(x[0]), np.zeros(0)), lambda x: (np.ones(1), np.zeros((1, 0))))
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=600,
                        dual_optimizer=GAConfig(step_size=0.1),
                        primal_optimizer=PrimalOptimizerConfig(
                            kind=PrimalKind.GRADIENT_DESCENT_MOMENTUM, step_size=1.3617,
                            momentum=0.99))
    traj = _assert_matches_reference(problem, [1.5 * 2.0**60], config, tmp_path)
    x = traj.column("x")[:, 0]
    assert loop._FIXED_POINT_EVERY + 1 < np.flatnonzero(x != x[0])[0] < config.max_steps


@pytest.mark.parametrize("primal_step,x0", [(0.05, [0.0, 0.0]), (0.9, [0.0, 0.0]),
                                            (50.0, [0.0, 0.0]), (0.05, [1e200, 0.0])],
                         ids=["converging", "oscillating", "diverging", "non-finite-start"])
def test_overshoot_matches_reference(primal_step, x0):
    problem = two_sided_plane()
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=400,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.5),
                        primal_optimizer=gd(primal_step), dual_restarts=True)
    traj = run(problem, x0, np.zeros(3), config)
    expected = loop_reference.overshoot(traj)
    assert _same(_compute_metric("overshoot", traj, None), expected)
    assert _same(expected, loop_reference.overshoot(
        loop_reference.run(problem, x0, np.zeros(3), config)))


# The column driver behind `numax grid` against `run`: column k of a K-cell
# lockstep run is `run` of cell k, bit for bit, in its final record, its
# termination reason and step, and every grid metric.

def _iris_svm(rng):
    train, _ = train_validation_split(load_dataset_csv(iris_csv_path()),
                                      seed=int(rng.integers(16)))
    return build_svm_problem(train)


def _random_qp(rng):
    n = int(rng.integers(1, 5))
    c = int(rng.integers(1, n + 1))
    m = rng.standard_normal((n, n))
    return build_qp_problem(QPSystem(H=m @ m.T + 0.1 * np.eye(n), A=rng.standard_normal((c, n)),
                                     b=rng.standard_normal(c), c_lin=rng.standard_normal(n),
                                     kp=0.0, ki=1.0))


_GRID_PROBLEMS = {"svm": _iris_svm, "benchmark2d": lambda _rng: build_2d_benchmark(),
                  "qp": _random_qp}
# One cell: nuPI gains, a factor on both gains (1e4 makes the cell diverge)
# and a factor on a shared start direction (1e200 is non-finite at t = 0).
_CELL = st.fixed_dictionaries({
    "kp": st.floats(-0.5, 3.0), "ki": st.floats(0.01, 1.0), "nu": st.floats(-0.5, 0.9),
    "blow_up": st.sampled_from([1.0, 1.0, 1.0, 1e4]),
    "x0_scale": st.sampled_from([0.0, 0.5, 1.0, 1e200]),
})


# nuPI cells on benchmark2d from (0, 0) with GD at 0.02: each reaches an
# exact fixed point, between steps 365 and 1263; the last diverges.
_FREEZING_CELLS = [
    {"kp": kp, "ki": ki, "nu": nu, "blow_up": blow_up, "x0_scale": 0.0}
    for kp, ki, nu, blow_up in ((3.0, 0.1, 0.0, 1.0), (1.0, 0.1, 0.5, 1.0),
                                (0.5, 0.2, 0.0, 1.0), (1.0, 0.3, -0.3, 1.0),
                                (2.0, 0.05, 0.3, 1.0), (1.0, 0.1, 0.0, 1e4))]


@settings(max_examples=100, deadline=None)
@given(problem_name=st.sampled_from(sorted(_GRID_PROBLEMS)), scheme=st.sampled_from(list(Scheme)),
       primal_kind=st.sampled_from(list(PrimalKind)),
       primal_step=st.floats(1e-3, 0.05), restarts=st.booleans(),
       record_every=st.sampled_from([1, 2, 7]),
       max_steps=st.integers(1, 10) | st.integers(100, 200),
       stop_tolerance=st.sampled_from([None, 1e-6, 1e-3, 0.1, 10.0]),
       seed=st.integers(0, 2**32 - 1),
       cells=st.lists(_CELL, min_size=1, max_size=6))
# benchmark2d rows that reach exact fixed points at different steps, and one
# that diverges and is dropped: the grid skips only once every row repeats.
@example(problem_name="benchmark2d", scheme=Scheme.ALTERNATING,
         primal_kind=PrimalKind.GRADIENT_DESCENT, primal_step=0.02, restarts=False,
         record_every=7, max_steps=2000, stop_tolerance=None, seed=0,
         cells=_FREEZING_CELLS)
def test_columns_match_run(problem_name, scheme, primal_kind, primal_step, restarts,
                           record_every, max_steps, stop_tolerance, seed, cells):
    rng = np.random.default_rng(seed)
    problem = _GRID_PROBLEMS[problem_name](rng)
    base = LoopConfig(scheme=scheme, max_steps=max_steps, dual_optimizer=NuPIConfig(0.0, 0.0, 0.0),
                      primal_optimizer=PrimalOptimizerConfig(kind=primal_kind, step_size=primal_step),
                      dual_restarts=restarts, record_every=record_every,
                      stop_tolerance=stop_tolerance)
    direction = rng.standard_normal(problem.dim_primal)
    x0 = np.array([cell["x0_scale"] * direction for cell in cells])
    theta0 = np.zeros(problem.num_constraints)
    gains = {key: np.array([[cell[key] * (cell["blow_up"] if key != "nu" else 1.0)]
                            for cell in cells]) for key in ("kp", "ki", "nu")}
    columns = loop._run_columns(problem, x0, theta0,
                                dataclasses.replace(base, dual_optimizer=NuPIConfig(**gains)),
                                len(cells))
    lambda_star = rng.uniform(0.0, 1.0, problem.num_ineq)
    metrics = ["max_violation", "overshoot"] + (["dist_to_lambda_star"] if problem.num_ineq else [])
    for k, cell in enumerate(cells):
        config = dataclasses.replace(base, dual_optimizer=NuPIConfig(
            nu=cell["nu"], kp=cell["kp"] * cell["blow_up"], ki=cell["ki"] * cell["blow_up"]))
        traj, column = run(problem, x0[k], theta0, config), columns[k]
        assert column.terminated_reason is traj.terminated_reason, k
        assert type(column.final.t) is int and column.final.t == traj.final.t, k
        for name in ("x", "f", "g", "h", "lam", "mu", "lagrangian"):
            assert _same(getattr(column.final, name), getattr(traj.final, name)), (k, name)
        assert _same(column.overshoot, traj.overshoot), k
        for metric in metrics:
            assert _same(_compute_metric(metric, column, lambda_star),
                         _compute_metric(metric, traj, lambda_star)), (k, metric)


def test_columns_cover_every_stop():
    # one grid, one cell per way of stopping: max steps, tolerance, non-finite
    # at an evaluation and non-finite after a primal step
    problem = build_2d_benchmark()
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=3000,
                        dual_optimizer=NuPIConfig(nu=np.zeros((4, 1)),
                                                  kp=np.array([[0.0], [3.0], [0.0], [1e4]]),
                                                  ki=np.array([[1e-3], [0.5], [0.01], [100.0]])),
                        primal_optimizer=gd(0.002), stop_tolerance=1e-8)
    x0 = np.array([[-0.5, -2.0], [-0.5, -2.0], [1e200, 0.0], [-0.5, -2.0]])
    columns = loop._run_columns(problem, x0, np.zeros(1), config, 4)
    assert [c.terminated_reason for c in columns] == [
        TerminationReason.MAX_STEPS, TerminationReason.TOLERANCE,
        TerminationReason.NON_FINITE, TerminationReason.NON_FINITE]
    assert columns[2].final.t == 0 and not np.isfinite(columns[3].final.f)
    for k, column in enumerate(columns):
        cell = dataclasses.replace(config, dual_optimizer=NuPIConfig(
            nu=0.0, kp=float(config.dual_optimizer.kp[k, 0]), ki=float(config.dual_optimizer.ki[k, 0])))
        traj = run(problem, x0[k], np.zeros(1), cell)
        assert (column.terminated_reason, column.final.t) == (traj.terminated_reason, traj.final.t)
        assert _same(column.final.x, traj.final.x)


def test_svm_columns_diverging_between_records_match_run():
    # Most of these cells overflow f between two recorded steps, while g is
    # still finite and larger than at any recorded step: `run` keeps that
    # row, so it sets the cell's overshoot.
    train, _ = train_validation_split(load_dataset_csv(iris_csv_path()), seed=0)
    problem = build_svm_problem(train)
    cells = [(kp, ki) for kp in (0.0, 10.0, 100.0) for ki in (0.01, 1.0, 100.0)]
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=300,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=0.0),
                        primal_optimizer=PrimalOptimizerConfig(
                            kind=PrimalKind.GRADIENT_DESCENT_MOMENTUM, step_size=1e-3),
                        record_every=7)
    gains = np.array(cells)
    columns = loop._run_columns(problem, np.zeros(5), np.zeros(problem.num_ineq),
                                dataclasses.replace(config, dual_optimizer=NuPIConfig(
                                    nu=np.zeros((9, 1)), kp=gains[:, :1], ki=gains[:, 1:])), 9)
    between_records = 0
    for (kp, ki), column in zip(cells, columns):
        traj = run(problem, np.zeros(5), np.zeros(problem.num_ineq),
                   dataclasses.replace(config, dual_optimizer=NuPIConfig(nu=0.0, kp=kp, ki=ki)))
        assert (column.terminated_reason, column.final.t) == (traj.terminated_reason, traj.final.t)
        assert _same(column.final.lam, traj.final.lam) and _same(column.overshoot, traj.overshoot)
        between_records += traj.final.t % 7 != 0 and traj.overshoot > 1e100
    assert between_records >= 3


def _split_plane():
    # f = a^2 / 2 on the first coordinate and h = b on the second; every
    # callable takes one point or a stack
    return ConstrainedProblem.from_values(
        2, 0, 1, lambda x: (0.5 * x[..., 0] * x[..., 0], x[..., 1:]),
        lambda x: (x * np.array([1.0, 0.0]), np.array([[0.0], [1.0]])))


def test_columns_stopping_together_match_run():
    # The primal step 11 multiplies a by -10, so f overflows at t = 10 from
    # a0 = 1e145. With b0 = 0 nothing moves theta, and the tolerance streak
    # completes at t = 10 too: row 0 stops there on both rules (non-finite
    # wins), row 1 on tolerance alone. Row 2's ki = 1e27 overflows b in the
    # primal step of t = 10, row 3 runs to max_steps, and row 4 is row 0
    # with b0 = 1, whose violation keeps the streak at zero.
    problem = _split_plane()
    x0 = np.array([[1e145, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1e145, 1.0]])
    ki = np.array([[1.0], [1.0], [1e27], [0.01], [0.01]])
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=ki),
                        primal_optimizer=gd(11.0), stop_tolerance=1e-3)
    columns = loop._run_columns(problem, x0, np.zeros(1), config, len(x0))
    non_finite, tolerance = TerminationReason.NON_FINITE, TerminationReason.TOLERANCE
    assert [(c.terminated_reason, c.final.t) for c in columns] == [
        (non_finite, 10), (tolerance, 10), (non_finite, 11),
        (TerminationReason.MAX_STEPS, 50), (non_finite, 10)]
    for k, column in enumerate(columns):
        traj = run(problem, x0[k], np.zeros(1), dataclasses.replace(
            config, dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=float(ki[k, 0]))))
        assert (column.terminated_reason, column.final.t) == (traj.terminated_reason, traj.final.t)
        for name in ("x", "f", "g", "h", "lam", "mu", "lagrangian"):
            assert _same(getattr(column.final, name), getattr(traj.final, name)), (k, name)
        assert _same(column.overshoot, traj.overshoot), k


def test_final_record_obeys_the_non_finite_rule(tmp_path):
    # GD at 1e300 takes x to about 1e302 in the first step, where f
    # overflows. At max_steps 1 that is the final record, at max_steps 2 an
    # ordinary one: both runs end on it, non-finite, after two evaluations,
    # and the reference driver agrees.
    problem = build_2d_benchmark()
    trajectories = []
    for max_steps in (1, 2):
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=max_steps,
                            dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=0.01),
                            primal_optimizer=gd(1e300))
        trajectories.append(_assert_matches_reference(problem, [-0.5, -2.0], config, tmp_path))
    for traj in trajectories:
        assert (traj.terminated_reason, traj.final.t) == (TerminationReason.NON_FINITE, 1)
        assert traj.final.f == np.inf
        assert traj.counters == {"values": 2, "primal_gradient": 1}
    first, second = (traj.final for traj in trajectories)
    for name in ("x", "f", "g", "h", "lam", "mu", "lagrangian"):
        assert _same(getattr(first, name), getattr(second, name)), name


def test_columns_whose_final_evaluation_overflows_match_run():
    # The primal step 11 multiplies a by -10, so from a0 = 1e145 f = a^2 / 2
    # overflows at t = 10 = max_steps, the final record: those rows end
    # non-finite there, as at any other step, while from a0 = 1e144 f stays
    # finite and the rows end max-steps.
    problem = _split_plane()
    x0 = np.array([[1e145, 0.0], [1e144, 0.0], [1e145, 1.0], [0.0, 1.0]])
    ki = np.array([[1.0], [1.0], [0.01], [0.01]])
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=10,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=ki), primal_optimizer=gd(11.0))
    columns = loop._run_columns(problem, x0, np.zeros(1), config, len(x0))
    non_finite, max_steps = TerminationReason.NON_FINITE, TerminationReason.MAX_STEPS
    assert [(c.terminated_reason, c.final.t) for c in columns] == [
        (non_finite, 10), (max_steps, 10), (non_finite, 10), (max_steps, 10)]
    for k, column in enumerate(columns):
        _cell_matches_run(column, problem, x0[k], np.zeros(1), dataclasses.replace(
            config, dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=float(ki[k, 0]))))


def _cell_matches_run(column, problem, x0, theta0, config):
    """`column`, a `_run_columns` cell, against `run` of its row alone."""
    traj = run(problem, x0, theta0, config)
    assert (column.terminated_reason, column.final.t) == (traj.terminated_reason, traj.final.t)
    for name in ("x", "f", "g", "h", "lam", "mu", "lagrangian"):
        assert _same(getattr(column.final, name), getattr(traj.final, name)), name
    assert _same(column.overshoot, traj.overshoot)


def _ramp():
    # f = |x|^2 / 2 with g = 1 - x0 <= 0 and h = x1 - 0.5 = 0; every callable
    # takes one point or a stack
    return ConstrainedProblem.from_values(
        2, 1, 1,
        lambda x: (0.5 * (x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]),
                   np.concatenate([1.0 - x[..., :1], x[..., 1:] - 0.5], axis=-1)),
        lambda x: (1.0 * x, np.array([[-1.0, 0.0], [0.0, 1.0]])))


# One factor per row on every rule's gains: the small ones run to max_steps
# or stop on tolerance, the large ones overflow, each at its own step.
_ROW_SCALES = np.array([[1.0], [30.0], [1e3], [1e5], [1e200]])
_ROW_RULES = {
    "nupi": NuPIConfig(nu=np.full((5, 1), 0.5), kp=0.5 * _ROW_SCALES, ki=0.1 * _ROW_SCALES),
    "nupi-match-um": map_um_to_nupi(UMConfig(alpha=0.1 * _ROW_SCALES, beta=np.full((5, 1), 0.5),
                                             gamma=np.ones((5, 1)))),
    "um": UMConfig(alpha=0.1 * _ROW_SCALES, beta=np.full((5, 1), 0.5), gamma=np.ones((5, 1))),
    "ga": GAConfig(step_size=0.1 * _ROW_SCALES),
    "adam": AdamConfig(step_size=0.01 * _ROW_SCALES),
}


@pytest.mark.parametrize("rule", sorted(_ROW_RULES))
def test_every_rule_columns_match_run(rule):
    # Per-row gains of each rule through the column driver: rows stop at
    # staggered steps, so the gain arrays and their products are re-sliced
    # as rows are dropped, and every cell must still be its row's run.
    dual = _ROW_RULES[rule]
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=1500, dual_optimizer=dual,
                        primal_optimizer=PrimalOptimizerConfig(
                            kind=PrimalKind.GRADIENT_DESCENT_MOMENTUM, step_size=0.05),
                        stop_tolerance=1e-5, record_every=2)
    problem, x0, theta0 = _ramp(), [3.0, -1.0], [0.0, 0.0]
    columns = loop._run_columns(problem, x0, theta0, config, len(_ROW_SCALES))
    assert len({column.final.t for column in columns}) >= 3
    for k, column in enumerate(columns):
        row = dataclasses.replace(dual, **{name: float(getattr(dual, name)[k, 0])
                                           for name in dual.GAINS})
        _cell_matches_run(column, problem, x0, theta0,
                          dataclasses.replace(config, dual_optimizer=row))


def test_columns_skip_once_every_row_repeats():
    # The grid of _FREEZING_CELLS: the diverging row is dropped, the others
    # freeze one by one, and the stack is evaluated until shortly after the
    # last of them freezes, not to max_steps.
    problem, calls = _counting(build_2d_benchmark())
    gains = {key: np.array([[cell[key] * (cell["blow_up"] if key != "nu" else 1.0)]
                            for cell in _FREEZING_CELLS]) for key in ("kp", "ki", "nu")}
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5000,
                        dual_optimizer=NuPIConfig(**gains), primal_optimizer=gd(0.02))
    columns = loop._run_columns(problem, [0.0, 0.0], [0.0], config, len(_FREEZING_CELLS))
    assert [c.terminated_reason for c in columns] == (
        [TerminationReason.MAX_STEPS] * 5 + [TerminationReason.NON_FINITE])
    frozen = []
    for k, column in enumerate(columns):
        cell = dataclasses.replace(config, dual_optimizer=NuPIConfig(
            **{key: float(value[k, 0]) for key, value in gains.items()}))
        _cell_matches_run(column, build_2d_benchmark(), [0.0, 0.0], [0.0], cell)
        frozen.append(_fixed_step(run(build_2d_benchmark(), [0.0, 0.0], [0.0], cell)))
    frozen = frozen[:5]  # the diverging row's records end non-finite
    assert len(set(frozen)) == 5
    assert len(calls) <= max(frozen) + 2 * loop._FIXED_POINT_EVERY + 2


def _ray(ineq: bool):
    # f = 0 with the one constraint x - 1, an inequality or an equality
    return ConstrainedProblem.from_values(
        1, int(ineq), int(not ineq), lambda x: (0.0 * x[..., 0], x - 1.0),
        lambda x: (0.0 * x, np.ones((1, 1))))


@pytest.mark.parametrize("ineq", [True, False], ids=["inequality", "equality"])
def test_overflowing_multiplier_stops_non_finite(ineq):
    # ki * g(x0) = 1e10 * -1e300 overflows to -inf at the first dual step. The
    # projection would clamp an inequality multiplier to 0, so the dual step
    # is tested before it: both kinds stop non-finite at t = 1, and the
    # stopping record holds the -inf.
    problem = _ray(ineq)
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=1e10), primal_optimizer=gd(0.1))
    traj = run(problem, [-1e300], [0.0], config)
    assert (traj.terminated_reason, traj.final.t) == (TerminationReason.NON_FINITE, 1)
    assert np.concatenate([traj.final.lam, traj.final.mu]).tolist() == [-np.inf]
    reference = loop_reference.run(problem, [-1e300], [0.0], config)
    assert (reference.terminated_reason, reference.final.t) == (traj.terminated_reason, 1)
    for name in ("x", "lam", "mu"):
        assert _same(getattr(reference.final, name), getattr(traj.final, name)), name

    # as one column of a grid, next to a row that runs to max_steps
    ki = np.array([[1e10], [1e-3]])
    columns = loop._run_columns(problem, [-1e300], [0.0], dataclasses.replace(
        config, dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=ki)), 2)
    assert [(c.terminated_reason, c.final.t) for c in columns] == [
        (TerminationReason.NON_FINITE, 1), (TerminationReason.MAX_STEPS, 5)]
    for k, column in enumerate(columns):
        _cell_matches_run(column, problem, [-1e300], [0.0], dataclasses.replace(
            config, dual_optimizer=NuPIConfig(nu=0.0, kp=0.0, ki=float(ki[k, 0]))))


# The Lagrangian column is computed when it is read, in one pass over the
# rows read. Each row must be, bit for bit, what
# `lagrangian_value` gives for that record alone, and what f + lam . g + mu . h
# gives with each dot product taken as a 1-D `@` and summed one at a time.

def _assert_lagrangian_rows(records, column):
    """`column`, read from `records`, against the per-record rules. Overflow
    in the rules is silenced here; the column read itself must warn of none."""
    n, m = len(records), records.num_ineq
    assert len(column) >= n
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            f, c, theta = float(records.f[i]), records.c[i], records.theta[i]
            g, h, lam, mu = c[:m], c[m:], theta[:m], theta[m:]
            summed = f
            if m:
                summed += float(lam @ g)
            if len(mu):
                summed += float(mu @ h)
            assert _same(column[i], np.float64(lagrangian_value(f, g, h, lam, mu))), i
            assert _same(column[i], np.float64(summed)), i


def test_lagrangian_column_fills_as_records_grow(monkeypatch):
    # Reads between appends fill a few rows at a time, across two growths of
    # the columns; some rows overflow to inf or nan.
    monkeypatch.setattr(loop, "_RECORDS_INITIAL_ROWS", 4)
    rng = np.random.default_rng(3)
    records = loop.Records(1000, 2, 2, 1)
    for batch in (1, 2, 5, 13, 40, 1):
        for _ in range(batch):
            scale = rng.choice([1.0, 1.0, 1.0, 1e160, 1e300])
            records.append(len(records), rng.standard_normal(2), float(rng.standard_normal()),
                           scale * rng.standard_normal(3), scale * np.abs(rng.standard_normal(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            column = records.lagrangian
        _assert_lagrangian_rows(records, column)
    assert len(records) == 62 and len(records.t) == 64
    assert not np.all(np.isfinite(records.lagrangian[:len(records)]))


def _svm_reference_grid():
    """The SVM grid of test_cli's `_REFERENCE_GRIDS`: seed 4, 150 steps,
    kp in {0, 100} and ki in {0.01, 10}; the cell (100, 10) diverges."""
    settings = ["--problem.kind", "svm", "--run.seed", "4", "--loop.max_steps", "150",
                "--loop.primal_kind", "gd-momentum", "--loop.primal_step_size", "1e-3"]
    config = cli._load_config(None, cli._split_overrides(settings))
    bundle = cli._build_problem(config, 4)
    return (bundle.problem, bundle.x0, cli._loop_config(config, cli._dual_config(config)),
            [(kp, ki) for kp in (0.0, 100.0) for ki in (0.01, 10.0)])


def test_lagrangian_of_grid_finals_and_diverging_svm_cell():
    problem, x0, config, cells = _svm_reference_grid()
    gains = np.array(cells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # each stopping row's record is read as it is appended, while the grid runs
        columns = loop._run_columns(problem, x0, np.zeros(problem.num_ineq),
                                    dataclasses.replace(config, dual_optimizer=NuPIConfig(
                                        nu=np.zeros((4, 1)), kp=gains[:, :1], ki=gains[:, 1:])),
                                    len(cells))
    assert len({column.final.t for column in columns}) > 1
    finals = loop.Records(len(cells), problem.dim_primal, problem.num_ineq, problem.num_eq)
    for column in columns:
        final = column.final
        finals.append(final.t, final.x, final.f, np.concatenate([final.g, final.h]),
                      np.concatenate([final.lam, final.mu]))
    _assert_lagrangian_rows(finals, [column.final.lagrangian for column in columns])

    traj = run(problem, x0, np.zeros(problem.num_ineq),
               dataclasses.replace(config, dual_optimizer=NuPIConfig(nu=0.0, kp=100.0, ki=10.0)))
    assert traj.terminated_reason is TerminationReason.NON_FINITE
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        column = traj.column("lagrangian")
    _assert_lagrangian_rows(traj.steps, column)
    overflowed = ~np.isfinite(column)
    assert overflowed.any() and np.isfinite(traj.column("f")[overflowed]).any()
    assert _same(column[-1], np.float64(columns[3].final.lagrangian))


def _disagreeing(problem, which):
    """`problem` whose fused f, c or gradient is one ulp off its five callables'."""
    def values(x):
        f, c = problem.eval_values(x)
        return (np.nextafter(f, np.inf) if which == "f" else f,
                np.nextafter(c, np.inf) if which == "c" else c)

    def primal_gradient(x, theta):
        grad = problem.eval_primal_gradient(x, theta)
        return np.nextafter(grad, np.inf) if which == "gradient" else grad

    return dataclasses.replace(problem, eval_values=values, eval_primal_gradient=primal_gradient)


@pytest.mark.parametrize("which", ["f", "c", "gradient"])
def test_fused_pair_that_disagrees_is_refused_at_start(which):
    problem = _disagreeing(build_2d_benchmark(), which)
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.1), primal_optimizer=gd(0.01))
    with pytest.raises(ConfigurationError, match="fused .* differs from its five callables"):
        run(problem, [-0.5, -2.0], np.zeros(1), config)
    with pytest.raises(ConfigurationError, match="fused"):
        loop._run_columns(problem, [-0.5, -2.0], np.zeros(1), config, 3)
    run(_disagreeing(build_2d_benchmark(), None), [-0.5, -2.0], np.zeros(1), config)
