"""Tests for the alternating/simultaneous descent-ascent drivers."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numax import (
    AdamConfig,
    ConfigurationError,
    ConstrainedProblem,
    DualVector,
    GAConfig,
    LoopConfig,
    NuPIConfig,
    PrimalKind,
    PrimalOptimizerConfig,
    Scheme,
    TerminationReason,
    UMConfig,
    adam_dual_step,
    build_2d_benchmark,
    evaluate_lagrangian,
    init_adam,
    read_trajectory_csv,
    run,
    validate_gradients,
    write_trajectory_csv,
)
from numax import loop
from numax.cli import _compute_metric
from numax.loop import _PrimalOptimizer
from reference import loop_reference


def gd(step):
    return PrimalOptimizerConfig(kind=PrimalKind.GRADIENT_DESCENT, step_size=step)


def unconstrained_norm_square(dim=3):
    return ConstrainedProblem(
        dim_primal=dim, num_ineq=0, num_eq=0,
        eval_objective=lambda x: float(x @ x),
        eval_objective_grad=lambda x: 2.0 * x,
        eval_ineq=lambda x: np.zeros(0),
        eval_eq=lambda x: np.zeros(0),
        eval_constraint_jacobian=lambda x: np.zeros((dim, 0)),
    )


def one_sided_line():
    # min x subject to x >= 1, i.e. g(x) = 1 - x; KKT point (x, lam) = (1, 1)
    return ConstrainedProblem(
        dim_primal=1, num_ineq=1, num_eq=0,
        eval_objective=lambda x: float(x[0]),
        eval_objective_grad=lambda x: np.ones(1),
        eval_ineq=lambda x: np.array([1.0 - x[0]]),
        eval_eq=lambda x: np.zeros(0),
        eval_constraint_jacobian=lambda x: np.array([[-1.0]]),
    )


def two_sided_plane():
    # min (x0 - 2)^2 + x1^2 s.t. 1 - x0 <= 0, x1 - 5 <= 0, x0 + x1 = 3; the
    # unconstrained minimizer strictly satisfies both inequalities
    return ConstrainedProblem(
        dim_primal=2, num_ineq=2, num_eq=1,
        eval_objective=lambda x: float((x[0] - 2.0) ** 2 + x[1] ** 2),
        eval_objective_grad=lambda x: np.array([2.0 * (x[0] - 2.0), 2.0 * x[1]]),
        eval_ineq=lambda x: np.array([1.0 - x[0], x[1] - 5.0]),
        eval_eq=lambda x: np.array([x[0] + x[1] - 3.0]),
        eval_constraint_jacobian=lambda x: np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
    )


def bilinear_game():
    # min_x max_theta theta * x: f = 0, h(x) = x
    return ConstrainedProblem(
        dim_primal=1, num_ineq=0, num_eq=1,
        eval_objective=lambda x: 0.0,
        eval_objective_grad=lambda x: np.zeros(1),
        eval_ineq=lambda x: np.zeros(0),
        eval_eq=lambda x: np.array([x[0]]),
        eval_constraint_jacobian=lambda x: np.array([[1.0]]),
    )


class TestUnconstrained:
    def test_reduces_to_plain_gradient_descent(self):
        problem = unconstrained_norm_square()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1))
        traj = run(problem, np.full(3, 2.0), DualVector.zeros(0, 0), config)
        # x_{t+1} = (1 - 2 eta) x_t = 0.8 x_t
        np.testing.assert_allclose(traj.final.x, np.full(3, 2.0) * 0.8**50, rtol=1e-12)
        assert traj.terminated_reason is TerminationReason.MAX_STEPS

    def test_schemes_identical_without_constraints(self):
        problem = unconstrained_norm_square()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=30,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.07))
        x0 = np.array([1.0, -2.0, 0.5])
        ta = run(problem, x0, DualVector.zeros(0, 0), config)
        ts = run(problem, x0, DualVector.zeros(0, 0),
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
        traj = run(problem, [0.0], DualVector.zeros(1, 0), config)
        deviations = [np.hypot(rec.x[0] - 1.0, rec.lam[0] - 1.0) for rec in traj.steps]
        assert max(deviations) < 3.0
        assert deviations[-1] > 1e-3  # orbits, does not converge

    def test_nupi_converges_to_kkt_point(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=10000,
                            dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.01),
                            primal_optimizer=gd(0.01))
        traj = run(problem, [0.0], DualVector.zeros(1, 0), config)
        assert abs(traj.final.lam[0] - 1.0) < 1e-3
        assert abs(traj.final.x[0] - 1.0) < 1e-3


class TestBilinearGame:
    def test_simultaneous_diverges_at_spectral_rate(self):
        eta = 0.1
        problem = bilinear_game()
        config = LoopConfig(scheme=Scheme.SIMULTANEOUS, max_steps=200,
                            dual_optimizer=GAConfig(step_size=eta),
                            primal_optimizer=gd(eta))
        traj = run(problem, [1.0], DualVector([], [0.5]), config)
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
        traj = run(problem, [1.0], DualVector([], [0.5]), config)
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
            traj = run(problem, [5.0], DualVector.zeros(1, 0), config)
            assert all(rec.lam[0] >= 0.0 for rec in traj.steps)

    def test_constraint_evaluations_once_per_iteration(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=137,
                            dual_optimizer=GAConfig(step_size=0.01),
                            primal_optimizer=gd(0.01), record_every=10)
        traj = run(problem, [0.0], DualVector.zeros(1, 0), config)
        # one evaluation per iteration plus the terminal record
        assert traj.counters["ineq"] == 137 + 1
        assert traj.counters["eq"] == 137 + 1
        assert traj.counters["objective"] == 137 + 1
        assert traj.counters["jacobian"] == 137
        assert traj.counters["objective_grad"] == 137

    def test_dual_restarts_zero_satisfied_constraints(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=300,
                            dual_optimizer=GAConfig(step_size=0.05),
                            primal_optimizer=gd(0.05), dual_restarts=True)
        traj = run(problem, [0.0], DualVector.zeros(1, 0), config)
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
        traj = run(problem, np.ones(3), DualVector.zeros(0, 0), config)
        ts = [rec.t for rec in traj.steps]
        assert ts == [0, 7, 14, 21, 25]

    def test_non_finite_terminates_with_flagged_record(self):
        problem = unconstrained_norm_square(dim=1)
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=500,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(1e6))  # wildly unstable
        traj = run(problem, [1.0], DualVector.zeros(0, 0), config)
        assert traj.terminated_reason is TerminationReason.NON_FINITE
        assert traj.steps[-1].t <= 500

    def test_tolerance_stop(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=50000,
                            dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.05),
                            primal_optimizer=gd(0.05), stop_tolerance=1e-9)
        traj = run(problem, [0.0], DualVector.zeros(1, 0), config)
        assert traj.terminated_reason is TerminationReason.TOLERANCE
        assert traj.final.t < 50000

    def test_input_validation(self):
        problem = one_sided_line()
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1),
                            primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError):
            run(problem, [np.nan], DualVector.zeros(1, 0), config)
        with pytest.raises(ConfigurationError):
            run(problem, [0.0], DualVector([-1.0], []), config)
        with pytest.raises(ConfigurationError):
            LoopConfig(scheme=Scheme.ALTERNATING, max_steps=0,
                       dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError, match="Scheme"):
            dataclasses.replace(config, scheme="simultaneous")
        for step in (np.nan, np.inf, 0.0):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                gd(step)

    def test_wrong_jacobian_shape_rejected(self):
        problem = dataclasses.replace(one_sided_line(),
                                      eval_constraint_jacobian=lambda x: np.array([-1.0]))
        config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=5,
                            dual_optimizer=GAConfig(step_size=0.1), primal_optimizer=gd(0.1))
        with pytest.raises(ConfigurationError, match="Jacobian"):
            run(problem, [0.0], DualVector.zeros(1, 0), config)
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
        traj = run(problem, [0.0, 0.0], DualVector.zeros(2, 1), config)
        assert traj.terminated_reason is TerminationReason.MAX_STEPS
        assert any(rec.lam[0] > 0.0 for rec in traj.steps)
        for rec in traj.steps:
            expected = evaluate_lagrangian(problem, rec.x, DualVector(rec.lam, rec.mu))
            assert rec.lagrangian == expected


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@given(dim=st.integers(1, 5), steps=st.integers(1, 30), eta=st.floats(1e-4, 1.0),
       data=st.data())
def test_primal_adam_step_is_dual_increment_negated(dim, steps, eta, data):
    vectors = st.lists(_FINITE, min_size=dim, max_size=dim).map(np.array)
    x = data.draw(vectors)
    primal = _PrimalOptimizer(PrimalOptimizerConfig(kind=PrimalKind.ADAM, step_size=eta), dim)
    dual = init_adam(np.zeros(dim))
    for _ in range(steps):
        grad = data.draw(vectors)
        # from theta = 0 the dual step's theta is its increment
        dual = adam_dual_step(dual, AdamConfig(step_size=eta), grad)
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
        traj = run(problem, x0, DualVector.zeros(2, 1), config)
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
        traj = run(problem, [1.0], DualVector([], [0.0]), config)
        path = tmp_path / "t.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[2].split(",")[:5] == ["t", "f", "linf_g", "linf_h", "lagrangian"]
        assert "mu_0" in lines[2] and "x_0" in lines[2]


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
    traj = run(one_sided_line(), [0.0], DualVector.zeros(1, 0), config)
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
    duals0 = DualVector.zeros(problem.num_ineq, problem.num_eq)
    traj = run(problem, x0, duals0, config)
    ref = loop_reference.run(problem, x0, duals0, config)

    assert traj.terminated_reason is ref.terminated_reason
    assert traj.counters == ref.counters
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


@pytest.mark.parametrize("primal_step,x0", [(0.05, [0.0, 0.0]), (0.9, [0.0, 0.0]),
                                            (50.0, [0.0, 0.0]), (0.05, [1e200, 0.0])],
                         ids=["converging", "oscillating", "diverging", "non-finite-start"])
def test_overshoot_matches_reference(primal_step, x0):
    problem = two_sided_plane()
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=400,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=1.0, ki=0.5),
                        primal_optimizer=gd(primal_step), dual_restarts=True)
    traj = run(problem, x0, DualVector.zeros(2, 1), config)
    expected = loop_reference.overshoot(traj)
    assert _same(_compute_metric("overshoot", traj, None), expected)
    assert _same(expected, loop_reference.overshoot(
        loop_reference.run(problem, x0, DualVector.zeros(2, 1), config)))
