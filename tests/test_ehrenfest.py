import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import solve_ivp

from ionvib import ehrenfest, exact, model
from ionvib.ehrenfest import (
    EnsembleConfig,
    TrajectoryState,
    ensemble_average,
    evolve_trajectory,
    mean_field_energy,
    sample_initial,
    trajectory_rng,
)
from ionvib.errors import ConvergenceError, InvalidModelError
from ionvib.units import ev_to_rad_per_fs
from test_exact import _frame_specs

DELTA_W = ev_to_rad_per_fs(0.08679)


class TestSampling:
    def test_ground_state_moments(self):
        spec = model.build_toy_model(2, 1.0)
        config = EnsembleConfig(trajectories=1, seed=11)
        rng = trajectory_rng(11, 0)
        qs, ps = [], []
        for _ in range(100_000):
            st = sample_initial(config, spec, rng)
            qs.extend(st.q)
            ps.extend(st.p)
        qs = np.asarray(qs)
        assert abs(qs.mean()) < 3 * qs.std() / np.sqrt(len(qs))
        assert qs.var() == pytest.approx(0.5, rel=0.02)
        assert np.var(ps) == pytest.approx(0.5, rel=0.02)

    def test_thermal_variance(self):
        spec = model.build_toy_model(2, 1.0)
        config = EnsembleConfig(trajectories=1, nbar=0.5, seed=1)
        rng = trajectory_rng(1, 0)
        qs = np.concatenate([sample_initial(config, spec, rng).q for _ in range(50_000)])
        assert qs.var() == pytest.approx(1.0, rel=0.03)

    def test_seeded_reproducibility(self):
        spec = model.build_toy_model(2, 1.0)
        config = EnsembleConfig(trajectories=1, seed=42)
        a = sample_initial(config, spec, trajectory_rng(42, 3))
        b = sample_initial(config, spec, trajectory_rng(42, 3))
        assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)


class TestTrajectory:
    def test_decoupled_limit_matches_rabi(self):
        spec = model.build_toy_model(2, 0.0)
        state = TrajectoryState(c=[1.0, 0.0], q=[0.3, -0.2], p=[0.1, 0.4])
        times = np.linspace(0, 100, 21)
        pops = evolve_trajectory(spec, state, times)
        assert np.max(np.abs(pops[:, 0] - np.cos(DELTA_W * times / 2) ** 2)) < 1e-8

    def test_pure_dephasing_constant_populations(self):
        # no off-diagonal coupling: |c_i|^2 are constants of motion
        delta = np.zeros((2, 2), dtype=complex)
        kappa = np.zeros((2, 2, 1), dtype=complex)
        kappa[0, 0, 0] = 0.1
        kappa[1, 1, 0] = -0.1
        spec = model.LvcmSpec(delta, kappa, [0.13])
        c0 = np.array([0.6, 0.8], dtype=complex)
        state = TrajectoryState(c=c0, q=[0.7], p=[-0.3])
        pops = evolve_trajectory(spec, state, np.linspace(0, 200, 9))
        assert np.max(np.abs(pops[:, 0] - 0.36)) < 1e-8
        assert np.max(np.abs(pops[:, 1] - 0.64)) < 1e-8

    def test_deterministic_single_trajectory(self):
        spec = model.build_toy_model(2, 2.0)
        state = TrajectoryState(c=[1.0, 0.0], q=[0.0, 0.0], p=[0.0, 0.0])
        times = np.linspace(0, 150, 11)
        a = evolve_trajectory(spec, state, times)
        b = evolve_trajectory(spec, TrajectoryState(c=[1, 0], q=[0, 0], p=[0, 0]), times)
        assert np.array_equal(a, b)

    def test_norm_conservation(self):
        spec = model.build_toy_model(2, 5.0)
        state = TrajectoryState(c=[1.0, 0.0], q=[0.9, -0.4], p=[0.2, 0.5])
        pops = evolve_trajectory(spec, state, np.linspace(0, 400, 21))
        assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-8

    def test_mean_field_energy_conserved(self):
        spec = model.build_toy_model(2, 5.0)
        times = np.linspace(0, 400, 9)
        m, n = 2, 2
        state = TrajectoryState(c=[1.0, 0.0], q=[0.8, -0.5], p=[0.3, 0.6])
        e0 = mean_field_energy(spec, state)
        # re-integrate keeping full state at each grid point
        def rhs(t, y):
            c = y[:m]
            q = y[m : m + n].real
            p = y[m + n :].real
            h = spec.electronic_matrix(t) + np.tensordot(spec.kappa, np.sqrt(2) * q, axes=([2], [0]))
            force = np.sqrt(2) * np.real(np.einsum("i,ijk,j->k", c.conj(), spec.kappa, c))
            return np.concatenate(
                [-1j * (h @ c), (spec.nu * p).astype(complex), (-spec.nu * q - force).astype(complex)]
            )

        y0 = np.concatenate([state.c, state.q.astype(complex), state.p.astype(complex)])
        sol = solve_ivp(rhs, (0, times[-1]), y0, t_eval=times, method="DOP853", rtol=1e-10, atol=1e-10)
        for i in range(len(times)):
            st = TrajectoryState(c=sol.y[:m, i], q=sol.y[m : m + n, i].real, p=sol.y[m + n :, i].real)
            assert abs(mean_field_energy(spec, st) - e0) / abs(e0) < 1e-6


class TestEnsemble:
    def test_single_trajectory_matches_direct(self):
        spec = model.build_toy_model(2, 1.0)
        times = np.linspace(0, 100, 6)
        config = EnsembleConfig(trajectories=1, seed=5)
        ens = ensemble_average(spec, config, times)
        state = sample_initial(config, spec, trajectory_rng(5, 0))
        direct = evolve_trajectory(spec, state, times, config.tol)
        assert np.array_equal(ens.populations, direct)
        assert np.all(ens.stderr == 0)

    def test_bit_identical_rerun(self):
        # also at the chaotic lambda = 5 over the 40 restarted intervals of the default grid
        cases = [
            (2.0, EnsembleConfig(trajectories=8, seed=123), np.linspace(0, 100, 6)),
            (5.0, EnsembleConfig(trajectories=20, seed=7), exact.default_time_grid()),
        ]
        for lam, config, times in cases:
            spec = model.build_toy_model(2, lam)
            a = ensemble_average(spec, config, times)
            b = ensemble_average(spec, config, times)
            assert np.array_equal(a.populations, b.populations)
            assert np.array_equal(a.stderr, b.stderr)
            assert a.metadata["rhs_evals"] == b.metadata["rhs_evals"]

    def test_stderr_scaling(self):
        spec = model.build_toy_model(2, 1.0)
        times = np.linspace(0, 200, 9)
        small = ensemble_average(spec, EnsembleConfig(trajectories=32, seed=3), times)
        large = ensemble_average(spec, EnsembleConfig(trajectories=128, seed=3), times)
        ratio = small.stderr[1:].mean() / large.stderr[1:].mean()
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_kappa_zero_matches_exact_solver(self):
        spec = model.build_toy_model(2, 0.0)
        times = np.linspace(0, 100, 11)
        ens = ensemble_average(spec, EnsembleConfig(trajectories=4, seed=2, tol=1e-12), times)
        ex = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(2, 2)))
        assert np.max(np.abs(ens.populations - ex.populations)) < 1e-6

    def test_csv_includes_stderr_columns(self, tmp_path):
        spec = model.build_toy_model(2, 1.0)
        ens = ensemble_average(spec, EnsembleConfig(trajectories=4, seed=2), np.linspace(0, 50, 3))
        path = tmp_path / "e.csv"
        ens.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "time_fs,P_0,P_1,leakage,stderr_0,stderr_1"


def test_strong_coupling_short_time_agreement():
    # mean field tracks the exact donor decay well below 50 fs at strong
    # coupling; measured deviation ~0.011 with a 300-trajectory ensemble
    spec = model.build_toy_model(2, 30.0)
    times = np.linspace(0.0, 50.0, 11)
    ex = exact.propagate(exact.PropagationRequest(spec=spec, times_fs=times, cutoffs=(30, 26)))
    ens = ensemble_average(spec, EnsembleConfig(trajectories=150, seed=7), times)
    assert np.max(np.abs(ex.populations[:, 0] - ens.populations[:, 0])) < 0.05


def test_intersection_model_runs_with_conserved_energy():
    # off-diagonal couplings enter both the electronic matrix and the force
    spec = model.build_ci_model(0.02, 0.015, 0.08, 0.09)
    state = TrajectoryState(c=[1.0, 0.0], q=[0.4, -0.6], p=[0.2, 0.1])
    times = np.linspace(0, 300, 7)
    e0 = mean_field_energy(spec, state)
    pops = evolve_trajectory(spec, state, times, 1e-11)
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-8
    assert np.min(pops[:, 1]) >= 0.0 and np.max(pops[:, 1]) > 1e-3  # transfer happens


@pytest.mark.parametrize(
    "kwargs,key",
    [
        ({"tol": 0.0}, "tol"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": -1e-3}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"nbar": -1.0}, "nbar"),
        ({"nbar": float("nan")}, "nbar"),
        ({"nbar": float("inf")}, "nbar"),
        ({"trajectories": 0}, "trajectories"),
    ],
)
def test_ensemble_config_rejects(kwargs, key):
    with pytest.raises(InvalidModelError) as info:
        EnsembleConfig(**kwargs)
    assert info.value.key == key


def test_initial_state_past_last_state_rejected():
    spec = model.build_toy_model(2, 1.0)
    for initial_state in (2, -1):
        with pytest.raises(InvalidModelError, match="initial state") as info:
            ensemble_average(spec, EnsembleConfig(trajectories=2, initial_state=initial_state), np.linspace(0, 10, 3))
        assert info.value.key == "initial_state"


def _per_term_rhs(spec, r):
    """The module docstring's equations, term by term, for r stacked trajectories."""
    m, n = spec.state_count, spec.mode_count

    def rhs(t, y):
        y = y.reshape(r, m + 2 * n)
        c, q, p = y[:, :m], y[:, m : m + n].real, y[:, m + n :].real
        h = spec.electronic_matrix(t) + np.einsum("ijk,rk->rij", spec.kappa, np.sqrt(2) * q)
        dc = -1j * np.einsum("rij,rj->ri", h, c)
        force = np.sqrt(2) * np.real(np.einsum("ri,ijk,rj->rk", c.conj(), spec.kappa, c))
        return np.concatenate([dc, spec.nu * p, -spec.nu * q - force], axis=1).ravel()

    return rhs


def _per_term_batch(spec, states, times, tol):
    """Populations (R, T, M) of one batch integrated with the per-term RHS and _integrate's settings."""
    r, m = len(states), spec.state_count
    y0 = np.concatenate([np.concatenate([s.c, s.q, s.p]) for s in states])
    batch_tol = tol / np.sqrt(r)
    sol = solve_ivp(
        _per_term_rhs(spec, r), (times[0], times[-1]), y0, t_eval=times, method="DOP853", rtol=batch_tol, atol=batch_tol
    )
    assert sol.success
    return np.abs(sol.y.reshape(r, -1, len(times))[:, :m].transpose(0, 2, 1)) ** 2


def _batched_and_standalone(lam, tau_fs, points, trajectories, seed):
    spec = model.build_toy_model(2, lam)
    times = np.linspace(0.0, tau_fs, points)
    config = EnsembleConfig(trajectories=trajectories, seed=seed)
    states = [sample_initial(config, spec, trajectory_rng(seed, r)) for r in range(trajectories)]
    batched, _ = ehrenfest._integrate(spec, states, times, config.tol)
    alone = np.stack([_per_term_batch(spec, [st], times, config.tol)[0] for st in states])
    return batched, alone


@pytest.mark.parametrize("lam,tau_fs,points,trajectories", [(1.0, 200.0, 9, 32), (30.0, 50.0, 11, 32)])
def test_batch_matches_standalone_trajectories(lam, tau_fs, points, trajectories):
    # regular dynamics: each batched trajectory agrees with its own solve_ivp run
    batched, alone = _batched_and_standalone(lam, tau_fs, points, trajectories, seed=3)
    assert batched.shape == alone.shape == (trajectories, points, 2)
    assert np.max(np.abs(batched - alone)) <= 1e-6


def test_batch_matches_standalone_ensemble_statistics():
    # chaotic at lambda = 5: single trajectories may differ, the ensemble means
    # agree within their standard errors
    batched, alone = _batched_and_standalone(5.0, 400.0, 40, 20, seed=3)
    mean_b, mean_a = batched.mean(axis=0), alone.mean(axis=0)
    se_b, se_a = (x.std(axis=0, ddof=1) / np.sqrt(len(x)) for x in (batched, alone))
    scale = np.hypot(se_b, se_a)
    spread = scale > 1e-12
    assert np.max(np.abs(mean_b - mean_a)[~spread], initial=0.0) <= 1e-9
    assert np.max(np.abs(mean_b - mean_a)[spread] / scale[spread]) <= 4.0


def test_ensemble_is_one_solver_call(monkeypatch):
    solvers = _captured_solver(monkeypatch)
    spec = model.build_toy_model(2, 1.0)
    tr = ensemble_average(spec, EnsembleConfig(trajectories=16, seed=1), np.linspace(0, 50, 4))
    (solver,) = solvers
    assert {(name, kw["rtol"], kw["atol"]) for name, kw in solver.settings} == {("dop853", 1e-10 / 4, 1e-10 / 4)}
    assert tr.metadata["rhs_evals"] > 0


def _three_state_spec():
    """M = 3, N = 2, with complex Hermitian kappa slices and a complex Hermitian delta."""
    delta = np.array([[0.0, 0.02 + 0.01j, 0.0], [0.02 - 0.01j, 0.1, 0.015j], [0.0, -0.015j, 0.2]])
    kappa = np.zeros((3, 3, 2), dtype=complex)
    kappa[:, :, 0] = [[0.03, 0.01 - 0.02j, 0.0], [0.01 + 0.02j, -0.02, 0.005], [0.0, 0.005, 0.01]]
    kappa[:, :, 1] = [[-0.01, 0.0, 0.02j], [0.0, 0.025, 0.01 + 0.01j], [-0.02j, 0.01 - 0.01j, -0.03]]
    return model.LvcmSpec(delta, kappa, [0.1, 0.15])


def _rhs_specs():
    three = _three_state_spec()
    drive = model.DriveSpec(
        transitions=((0, 2),),
        dipoles=((0.0, 1.0),),
        polarization=(1.0, 1.0j),  # an imaginary coupling: H_el(t) is not real symmetric
        carrier_rad_per_fs=0.2,
        envelope=model.Envelope("gaussian", amplitude=0.05, center_fs=80.0, width_fs=30.0),
        rotating_states=(2,),
    )
    return {
        "toy": model.build_toy_model(2, 1.0),
        "three-state": three,
        "driven": _frame_specs()["driven"][0],
        "three-state-driven": model.LvcmSpec(three.delta, three.kappa, three.nu, drive=drive),
        "modeless-driven": model.LvcmSpec(three.delta, np.zeros((3, 3, 0)), np.zeros(0), drive=drive),
    }


@pytest.mark.parametrize("name", ["toy", "three-state", "driven", "three-state-driven", "modeless-driven"])
def test_batch_matches_per_term_equations(name):
    spec = _rhs_specs()[name]
    assert name.endswith("driven") == spec.is_time_dependent()
    assert not name.startswith("three-state") or np.any(spec.kappa.imag)
    times = np.linspace(0.0, 200.0, 11)
    config = EnsembleConfig(trajectories=8, seed=4)
    states = [sample_initial(config, spec, trajectory_rng(4, r)) for r in range(8)]
    got, _ = ehrenfest._integrate(spec, states, times, config.tol)
    ref = _per_term_batch(spec, states, times, config.tol)
    assert np.max(np.abs(got - ref)) <= 1e-9
    assert np.max(np.abs(got[:, 0] - got[:, -1])) > 1e-2  # populations move


def test_ensemble_matches_per_term_equations_in_stderr_units():
    # chaotic at lambda = 5: compare the ensemble means in units of their standard error
    spec = model.build_toy_model(2, 5.0)
    times = np.linspace(0.0, 400.0, 40)
    config = EnsembleConfig(trajectories=100, seed=7)
    states = [sample_initial(config, spec, trajectory_rng(7, r)) for r in range(100)]
    got, _ = ehrenfest._integrate(spec, states, times, config.tol)
    ref = _per_term_batch(spec, states, times, config.tol)
    scale = np.hypot(*(x.std(axis=0, ddof=1) / np.sqrt(len(x)) for x in (got, ref)))
    gap = np.abs(got.mean(axis=0) - ref.mean(axis=0))
    spread = scale > 1e-12
    assert np.max(gap[~spread], initial=0.0) <= 1e-9
    assert np.max(gap[spread] / scale[spread]) <= 3.0


def _captured_solver(monkeypatch):
    """Patch scipy.integrate.ode to record each solver's rhs (``f``), integrator settings, initial values and states."""
    solvers = []

    class Kept(scipy.integrate.ode):
        def __init__(self, f, jac=None):
            super().__init__(f, jac)
            self.settings, self.starts, self.ends = [], [], []
            solvers.append(self)

        def set_integrator(self, name, **kwargs):
            self.settings.append((name, kwargs))
            return super().set_integrator(name, **kwargs)

        def set_initial_value(self, y, t=0.0):
            self.starts.append(np.array(y))
            return super().set_initial_value(y, t)

        def integrate(self, t, *args, **kwargs):
            self.ends.append(np.array(super().integrate(t, *args, **kwargs)))
            return self.ends[-1]

    monkeypatch.setattr(scipy.integrate, "ode", Kept)
    return solvers


def _real_state(c, q, p):
    return np.concatenate([c.real, c.imag, q, p], axis=-1)


@pytest.mark.parametrize("name", ["toy", "three-state", "driven", "three-state-driven", "modeless-driven"])
def test_rhs_matches_per_term_equations(name, monkeypatch):
    # the real right-hand side at random (Re c, Im c, q, p) equals the complex per-term equations
    solvers = _captured_solver(monkeypatch)
    spec = _rhs_specs()[name]
    m, n, r = spec.state_count, spec.mode_count, 3
    config = EnsembleConfig(trajectories=r, seed=6)
    states = [sample_initial(config, spec, trajectory_rng(6, i)) for i in range(r)]
    ehrenfest._integrate(spec, states, np.linspace(0.0, 1.0, 2), 1e-6)
    (solver,) = solvers
    rhs = solver.f
    rng = np.random.default_rng(8)
    for t in (37.0, 80.0):
        c = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
        q, p = rng.normal(size=(r, n)), rng.normal(size=(r, n))
        ref = _per_term_rhs(spec, r)(t, np.concatenate([c, q, p], axis=1).ravel()).reshape(r, m + 2 * n)
        want = _real_state(ref[:, :m], ref[:, m : m + n].real, ref[:, m + n :].real)
        got = rhs(t, _real_state(c, q, p).ravel()).reshape(r, 2 * m + 2 * n)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["toy", "three-state", "driven", "three-state-driven", "modeless-driven"])
def test_solver_state_is_real_c_then_q_p(name, monkeypatch):
    # each trajectory is the float64 row (Re c, Im c, q, p); populations are (Re c)^2 + (Im c)^2
    solvers = _captured_solver(monkeypatch)
    spec = _rhs_specs()[name]
    m, n, r = spec.state_count, spec.mode_count, 4
    rng = np.random.default_rng(2)
    states = []
    for _ in range(r):
        c = rng.normal(size=m) + 1j * rng.normal(size=m)
        states.append(TrajectoryState(c=c / np.linalg.norm(c), q=rng.normal(size=n), p=rng.normal(size=n)))
    pops, _ = ehrenfest._integrate(spec, states, np.linspace(0.0, 300.0, 13), 1e-10)
    (solver,) = solvers
    y0 = solver.starts[0]
    assert y0.dtype == np.float64 and y0.shape == (r * (2 * m + 2 * n),)
    assert np.array_equal(y0, np.concatenate([_real_state(s.c, s.q, s.p) for s in states]))
    y = np.stack([y0, *solver.ends]).reshape(-1, r, 2 * m + 2 * n)
    np.testing.assert_allclose(pops, (y[..., :m] ** 2 + y[..., m : 2 * m] ** 2).transpose(1, 0, 2), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "c,q,p",
    [([1.0, 0.0, 0.0], [0.1], [0.2, 0.3]), ([1.0, 0.0], [0.1], [0.2, 0.3])],
    ids=["same-total-length", "short"],
)
def test_mis_sized_trajectory_state_rejected(c, q, p):
    spec = model.build_toy_model(2, 1.0)
    with pytest.raises(InvalidModelError, match="2 amplitudes c and 2 coordinates each in q and p"):
        evolve_trajectory(spec, TrajectoryState(c=c, q=q, p=p), np.linspace(0.0, 10.0, 3))


def test_zero_length_grid_returns_initial_populations():
    spec = model.build_toy_model(2, 1.0)
    c = np.array([0.6, 0.8j])
    state = TrajectoryState(c=c, q=[0.3, -0.2], p=[0.1, 0.4])
    assert np.array_equal(evolve_trajectory(spec, state, [0.0]), [np.abs(c) ** 2])
    pops = evolve_trajectory(spec, state, [0.0, 0.0, 20.0, 20.0])
    assert np.array_equal(pops[0], pops[1]) and np.array_equal(pops[2], pops[3])


def test_long_interval_is_not_step_capped():
    # one 0 -> 400 fs interval at strong coupling takes far more than ode's default 500 steps
    spec = model.build_toy_model(2, 30.0)
    config = EnsembleConfig(trajectories=100, seed=7)
    states = [sample_initial(config, spec, trajectory_rng(7, r)) for r in range(100)]
    pops, evals = ehrenfest._integrate(spec, states, np.array([0.0, 400.0]), config.tol)
    assert evals > 12 * 500  # DOP853 takes 12 evaluations per step
    assert np.max(np.abs(pops.sum(axis=2) - 1.0)) < 1e-8


def test_step_budget_exhausted_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(ehrenfest, "NO_STEP_CAP", 10)
    spec = model.build_toy_model(2, 1.0)
    state = TrajectoryState(c=[1.0, 0.0], q=[0.3, -0.2], p=[0.1, 0.4])
    with pytest.warns(UserWarning, match="larger nsteps"), pytest.raises(ConvergenceError, match="return code -2"):
        evolve_trajectory(spec, state, [0.0, 50.0, 400.0])


def test_rtol_below_floor_warns_and_runs_at_the_floor(monkeypatch):
    solvers = _captured_solver(monkeypatch)
    spec = model.build_toy_model(2, 1.0)
    with pytest.warns(UserWarning, match="below 100 eps"):
        tr = ensemble_average(spec, EnsembleConfig(trajectories=100, seed=7, tol=1e-13), np.linspace(0, 20, 3))
    (solver,) = solvers
    assert {(kw["rtol"], kw["atol"]) for _, kw in solver.settings} == {(100 * np.finfo(float).eps, 1e-14)}
    assert np.max(np.abs(tr.populations.sum(axis=1) - 1.0)) < 1e-12


def test_interval_restarts_carry_the_step():
    # the solve_ivp DOP853 this replaced took 3674 evaluations here; restarting each
    # interval with DOP853's own first-step search takes about 4840
    spec = model.build_toy_model(2, 1.0)
    tr = ensemble_average(spec, EnsembleConfig(trajectories=20, seed=7), exact.default_time_grid())
    assert tr.metadata["rhs_evals"] <= 1.15 * 3674
