"""States, correlation functionals, fixed points, spectra, and mixing brackets."""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcert as lr
from lrcert import bounds, correlations, harness
from lrcert.bounds import BoundReport, ModelConstants
from lrcert.correlations import (
    CorrelationsError,
    DegenerateFixedPointError,
    NotMixingError,
    StateFunctional,
    trace_norm,
)
from lrcert.decay import FFunction
from lrcert.harness import ConfigError
from lrcert.model import DissipativeInteraction, LindbladTerm
from lrcert.qalgebra import from_matrix

from conftest import dense_local_error, mixed_field_chain, single_qubit_damping


@pytest.fixture(scope="module")
def tfim4():
    space = lr.FiniteMetricSpace.chain(4)
    inter = lr.tfim_dissipative(space, j=0.4, h=0.3, gamma=1.0)
    return space, inter


class TestStateFunctional:
    def test_product_is_valid_density(self, chain4):
        omega = StateFunctional.product(chain4.points, "+")
        assert np.trace(omega.density).real == pytest.approx(1.0)
        assert np.min(np.linalg.eigvalsh(omega.density)) >= -1e-14

    def test_non_unit_trace_rejected(self):
        with pytest.raises(CorrelationsError, match="trace"):
            StateFunctional(np.eye(2, dtype=complex), (0,), (2,))

    def test_non_psd_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(CorrelationsError, match="positive"):
            StateFunctional(bad, (0,), (2,))

    def test_product_factorizes(self, chain4):
        omega = StateFunctional.product(chain4.points, "+")
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        b = lr.embed(lr.site_operator("X", 3), chain4.points)
        got = omega.expect(a @ b)
        assert got == pytest.approx(omega.expect(a) * omega.expect(b), abs=1e-14)

    def test_expectation_refuses_other_local_dimensions(self):
        # same sites and total dimension, local dimensions swapped
        omega = StateFunctional.maximally_mixed((0, 1), (2, 3))
        a = from_matrix(np.diag(np.arange(6.0)), (0, 1), dims=(3, 2))
        with pytest.raises(CorrelationsError, match="differs from the state volume"):
            omega.expect(a)

    def test_governance_zero_beyond_contact(self):
        assert correlations.product_governance(3, 4, 0.5) == 0.0
        assert correlations.product_governance(3, 4, 0.0) == 2.0


class TestCorrelation:
    def test_identity_second_factor(self, tfim4):
        space, inter = tfim4
        omega = StateFunctional.product(space.points, "+")
        dyn = lr.Dynamics(inter)
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.identity(space.points)
        assert abs(lr.correlation(omega, dyn, 0.7, a, b)) <= 1e-13

    def test_product_state_time_zero(self, tfim4):
        space, inter = tfim4
        omega = StateFunctional.product(space.points, "0")
        dyn = lr.Dynamics(inter)
        a = lr.embed(lr.site_operator("X", 0), space.points)
        b = lr.embed(lr.site_operator("X", 3), space.points)
        assert abs(lr.correlation(omega, dyn, 0.0, a, b)) <= 1e-14

    def test_bounded_by_localization_defect(self, tfim4):
        # product state, strict 2r < d: the correlation is controlled by c_ab
        space, inter = tfim4
        omega = StateFunctional.product(space.points, "+")
        dyn = lr.Dynamics(inter)
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        for t in (0.2, 0.6):
            corr = abs(lr.correlation(omega, dyn, t, a, b))
            defect = lr.c_ab(dyn, 1.0, t, a, b)
            assert corr <= defect * (1 + 1e-9) + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_centred_form(self, seed):
        # w(T_t(A (B - w(T_t B) 1))) is the correlation, since T_t(1) = 1
        cfg = harness.random_model(seed, n_sites=3)
        sites = cfg.space.points
        dyn = lr.Dynamics(cfg.interaction)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        omega = StateFunctional(x @ x.conj().T / np.trace(x @ x.conj().T).real, sites, (2,) * 3)
        a = lr.embed(from_matrix(rng.normal(size=(2, 2)), (sites[0],)), sites)
        b = lr.embed(from_matrix(rng.normal(size=(2, 2)), (sites[2],)), sites)
        for t in (0.0, 0.3, 1.1):
            b_t = b - omega.expect(dyn.evolve(t, b)) * lr.identity(sites)
            centred = omega.expect(dyn.evolve(t, a @ b_t))
            assert abs(centred - lr.correlation(omega, dyn, t, a, b)) <= 1e-12


class TestCAb:
    def test_zero_at_time_zero(self, tfim4):
        space, inter = tfim4
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        assert lr.c_ab(lr.Dynamics(inter), 1.0, 0.0, a, b) == \
            pytest.approx(0.0, abs=1e-13)

    def test_zero_when_regions_cover_volume(self, tfim4):
        space, inter = tfim4
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        assert lr.c_ab(lr.Dynamics(inter), 4.0, 0.8, a, b) <= 1e-11

    def test_regions_are_the_inflated_supports(self, tfim4):
        # B, A and AB are localized to the r-inflations of {3}, {1} and {1, 3}
        space, inter = tfim4
        a = lr.embed(lr.site_operator("Z", 1), space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        t, r = 0.5, 1.0
        want = (lr.op_norm(a) * dense_local_error(inter, t, b, lr.inflate(space, {3}, r))
                + lr.op_norm(b) * dense_local_error(inter, t, a, lr.inflate(space, {1}, r))
                + dense_local_error(inter, t, a @ b, lr.inflate(space, {1, 3}, r)))
        assert lr.c_ab(lr.Dynamics(inter), r, t, a, b) == pytest.approx(want, rel=1e-10)


def dynamic_correlation_row(omega, inter, xs, ys, r, t, a, b):
    """The dynamic_correlation row as the theorem table builds it: the exact
    evolved correlation against ``rhs_dynamic_correlation``."""
    dyn = lr.Dynamics(inter)
    c = ModelConstants.from_model(FFunction.power(3.0), inter)
    rhs = bounds.rhs_dynamic_correlation(c, lr.op_norm(a), lr.op_norm(b), xs, ys, r,
                                         omega.governance,
                                         lr.c_ab(dyn, r, t, a, b))
    return BoundReport("dynamic_correlation", {},
                       abs(lr.correlation(omega, dyn, t, a, b)), rhs.value, rhs.flags)


class TestCheckDynamicCorrelation:
    def test_product_state_sweep(self):
        space, f, inter = mixed_field_chain(4, alpha=3.0)
        omega = StateFunctional.product(space.points, "+")
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        for t in np.linspace(0.0, 1.0, 5):
            rep = dynamic_correlation_row(omega, inter, {0}, {3}, 1.0, t, a, b)
            assert rep.valid and rep.passes()

    def test_trivial_governance_always_passes(self, tfim4):
        # |w(AB) - w(A) w(B)| <= 2 |A| |B| holds for every state
        space, inter = tfim4
        rho = StateFunctional.maximally_mixed(space.points)
        omega = StateFunctional(rho.density, space.points, rho.dims,
                                governance=lambda nx, ny, d: 2.0)
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        rep = dynamic_correlation_row(omega, inter, {0}, {3}, 1.0, 0.5, a, b)
        assert rep.valid and rep.passes()

    def test_boundary_radius_flagged(self, tfim4):
        space, inter = tfim4
        omega = StateFunctional.product(space.points, "+")
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.embed(lr.site_operator("Z", 2), space.points)
        rep = dynamic_correlation_row(omega, inter, {0}, {2}, 1.0, 0.3, a, b)
        assert not rep.flags["factorization_strict"]
        assert not rep.valid

    def test_ungoverned_state_rejected(self):
        # a density-matrix state carries no governance: the runner refuses
        # the config before any model work
        cfg = harness.config_from_dict({
            "seed": 1, "space": "chain(4)", "observables": {"a": "Z0", "b": "Z3"},
            "theorems": ["dynamic_correlation"],
            "state": {"density": (np.eye(16) / 16).tolist()}})
        with pytest.raises(ConfigError, match="governance"):
            harness.ExperimentRunner(cfg)


class TestStationaryState:
    def test_amplitude_damping_ground_state(self):
        space, inter = single_qubit_damping(gamma=1.3)
        rho = lr.stationary_state(lr.generator(inter))
        np.testing.assert_allclose(rho.density, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_generator_fully_degenerate(self):
        space = lr.FiniteMetricSpace.chain(1)
        gen = lr.generator(DissipativeInteraction(space, ()))
        with pytest.raises(DegenerateFixedPointError) as err:
            lr.stationary_state(gen)
        assert err.value.dimension == 4

    def test_unitary_only_degenerate(self):
        space = lr.FiniteMetricSpace.chain(1)
        h = from_matrix(np.diag([1.0, -1.0]), (0,))
        inter = DissipativeInteraction(space, (LindbladTerm(frozenset([0]), h, ()),))
        with pytest.raises(DegenerateFixedPointError) as err:
            lr.stationary_state(lr.generator(inter))
        assert err.value.dimension == 2

    def test_invariance_under_dynamics(self):
        space, f, inter = mixed_field_chain(3, alpha=3.0)
        gen = lr.generator(inter)
        rho = lr.stationary_state(gen)
        rng = np.random.default_rng(77)
        for t in (0.3, 1.1):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            a = from_matrix(m, space.points)
            drift = rho.expect(lr.evolve(gen, t, a)) - rho.expect(a)
            assert abs(drift) <= 1e-9 * lr.op_norm(a)


class TestPeriodicPoints:
    def test_damping_only_zero(self):
        space, inter = single_qubit_damping(gamma=0.9)
        pts = lr.periodic_points(lr.generator(inter))
        assert pts == [(0.0, 1)]

    def test_hamiltonian_only_pair(self):
        space = lr.FiniteMetricSpace.chain(1)
        h = from_matrix(np.diag([1.0, -1.0]), (0,))
        inter = DissipativeInteraction(space, (LindbladTerm(frozenset([0]), h, ()),))
        pts = lr.periodic_points(lr.generator(inter))
        by_imag = dict(pts)
        assert by_imag[0.0] == 2
        assert any(abs(im - 2.0) <= 1e-10 for im, m in pts if m == 1)
        assert any(abs(im + 2.0) <= 1e-10 for im, m in pts if m == 1)

    def test_zero_generator_full_multiplicity(self):
        space = lr.FiniteMetricSpace.chain(1)
        gen = lr.generator(DissipativeInteraction(space, ()))
        assert lr.periodic_points(gen) == [(0.0, 4)]

    def test_agrees_with_brute_force_classification(self):
        space, f, inter = mixed_field_chain(2, alpha=3.0)
        gen = lr.generator(inter)
        eigs = np.linalg.eigvals(gen.matrix.toarray())
        expected = sum(1 for ev in eigs if abs(ev.real) <= 1e-9)
        assert sum(m for _, m in lr.periodic_points(gen)) == expected


class TestSpectralGap:
    def test_damping_half_rate(self):
        for gamma in (0.6, 1.0, 1.8):
            space, inter = single_qubit_damping(gamma)
            gap, omega0 = lr.spectral_gap(lr.generator(inter))
            assert gap == pytest.approx(gamma / 2.0, rel=1e-10)
            assert omega0 == -gap

    def test_two_independent_qubits_min_gap(self):
        space = lr.FiniteMetricSpace.chain(2)
        k1 = from_matrix(math.sqrt(0.8) * np.array([[0, 1], [0, 0]]), (0,),
                         frozenset([0]))
        k2 = from_matrix(math.sqrt(1.2) * np.array([[0, 1], [0, 0]]), (1,),
                         frozenset([1]))
        inter = DissipativeInteraction(space, (
            LindbladTerm(frozenset([0]), None, (k1,)),
            LindbladTerm(frozenset([1]), None, (k2,))))
        gap, _ = lr.spectral_gap(lr.generator(inter))
        assert gap == pytest.approx(0.4, rel=1e-10)

    def test_scaling(self):
        space, inter = single_qubit_damping(1.0)
        gen = lr.generator(inter)
        scaled = lr.Superoperator(3.0 * gen.matrix, gen.sites, gen.dims)
        gap1, _ = lr.spectral_gap(gen)
        gap3, _ = lr.spectral_gap(scaled)
        assert gap3 == pytest.approx(3.0 * gap1, rel=1e-10)

    def test_oscillatory_spectrum_rejected(self):
        m = np.diag([0.0, -1.0, 2.0j, -2.0j]).astype(complex)
        fake = lr.Superoperator(m, (0,), (2,))
        with pytest.raises(NotMixingError):
            lr.spectral_gap(fake)

    def test_degenerate_rejected(self):
        space = lr.FiniteMetricSpace.chain(1)
        gen = lr.generator(DissipativeInteraction(space, ()))
        with pytest.raises(DegenerateFixedPointError):
            lr.spectral_gap(gen)

    def test_growth_bound_identity(self):
        space, f, inter = mixed_field_chain(3, alpha=3.0)
        gen = lr.generator(inter)
        gap, omega0 = lr.spectral_gap(gen)  # raises if rad != exp(omega0) at t=1
        assert gap > 0 and omega0 == -gap

    def test_growth_bound_refuses_a_wrong_projection(self, monkeypatch):
        # with P = 0 the eigenvalue 1 of T_1 stays, and rad(T_1 - P) = 1
        space, f, inter = mixed_field_chain(2, alpha=3.0)
        gen = lr.generator(inter)

        def zero_projection(gen, rho_pi):
            return [np.zeros((k, n, n), dtype=complex) for k, n in
                    (idx.shape for idx in gen._blocks)]

        monkeypatch.setattr(correlations, "_fixed_projection", zero_projection)
        with pytest.raises(CorrelationsError, match="growth-bound identity violated"):
            lr.analyze_fixed_point(gen, [0.5, 1.0])

    def test_mixing_read_off_the_periodic_points(self, damped4, monkeypatch):
        # the analysis reads periodic_points once, and its gap is the least
        # decay rate of every eigenvalue but the simple zero one, bit for bit
        calls = []
        periodic_points = correlations.periodic_points

        def counted(gen):
            calls.append(gen)
            return periodic_points(gen)

        monkeypatch.setattr(correlations, "periodic_points", counted)
        space, f, inter = mixed_field_chain(3, alpha=3.0)
        for gen in (lr.generator(inter), damped4[0]):
            calls.clear()
            gap = lr.analyze_fixed_point(gen, [1.0]).gap
            assert len(calls) == 1 and calls[0] is gen
            assert gap == min(-ev.real for ev in sorted(gen.spectrum, key=abs)[1:])

    def test_gap_is_the_analysis_gap(self, damped4):
        # the gap's t = 1 map is built whether or not 1 is on the grid
        space, f, inter = mixed_field_chain(2, alpha=3.0)
        for gen in (lr.generator(inter), damped4[0]):
            for grid in ((0.5, 1.0, 2.0), (0.5, 2.0)):
                assert lr.spectral_gap(gen)[0] == lr.analyze_fixed_point(gen, grid).gap


@pytest.fixture(scope="module")
def damped():
    space, inter = single_qubit_damping(gamma=1.0)
    return lr.generator(inter)


class TestConvergenceEnvelope:
    def test_bracket_and_certificate(self, damped):
        analysis = lr.analyze_fixed_point(damped, np.linspace(0.0, 10.0, 9))
        c, gamma, samples = lr.convergence_envelope(analysis, n_starts=8, seed=5)
        assert c >= 1.0
        for t, lo, up in samples:
            assert lo <= up * (1 + 1e-12)
            assert up <= c * math.exp(-gamma * t) * (1 + 1e-12)

    def test_initial_distance_attained(self, damped):
        analysis = lr.analyze_fixed_point(damped, [0.0])
        _, _, samples = lr.convergence_envelope(analysis, n_starts=8, seed=5)
        t0, lo, up = samples[0]
        # the orthogonal pure state sits at trace distance 2
        assert lo >= 2.0 - 1e-9

    def test_asymptotic_rate_is_half_gamma(self, damped):
        analysis = lr.analyze_fixed_point(damped, [8.0, 12.0])
        _, _, samples = lr.convergence_envelope(analysis, n_starts=4, seed=5)
        (_, _, u1), (_, _, u2) = samples
        rate = -(math.log(u2) - math.log(u1)) / 4.0
        assert rate == pytest.approx(0.5, rel=0.05)

    def test_governed_observable_convergence(self):
        # the envelope bounds |pi(T_t(A)) - psi(T_t(A))| for sampled states
        space, f, inter = mixed_field_chain(2, alpha=3.0)
        gen = lr.generator(inter)
        analysis = lr.analyze_fixed_point(gen, [0.0, 1.0, 2.0, 4.0])
        g = analysis.governance()
        rng = np.random.default_rng(8)
        for t in (0.5, 1.5, 3.0):
            prop = lr.propagator(gen, t)
            for _ in range(4):
                m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                a = from_matrix(m, space.points)
                psi = rng.normal(size=4) + 1j * rng.normal(size=4)
                psi /= np.linalg.norm(psi)
                state = StateFunctional(np.outer(psi, psi.conj()), space.points,
                                        (2, 2))
                evolved = lr.dynamics.apply_superop(prop, a)
                diff = abs(analysis.rho_pi.expect(evolved) - state.expect(evolved))
                assert diff <= g(t) * lr.op_norm(a) * (1 + 1e-9)


@pytest.fixture(scope="module")
def damped4():
    space = lr.FiniteMetricSpace.chain(4)
    inter = lr.tfim_dissipative(space, j=0.2, h=0.0, gamma=1.0)
    gen = lr.generator(inter)
    rho = lr.stationary_state(gen)
    return gen, rho


class TestMixingEta:
    def test_orthogonal_probe_at_time_zero(self, damped4):
        analysis = lr.analyze_fixed_point(damped4[0], [0.0])
        lo, up = lr.mixing_eta(analysis, 0.0, n_starts=16, seed=3)
        assert lo >= 1.0 - 1e-9
        assert lo <= up * (1 + 1e-12)

    def test_non_increasing_along_grid(self):
        space, inter = single_qubit_damping(1.0)
        grid = (0.0, 0.5, 1.0, 2.0, 4.0)
        analysis = lr.analyze_fixed_point(lr.generator(inter), grid)
        uppers, lowers = [], []
        for t in grid:
            lo, up = lr.mixing_eta(analysis, t, n_starts=12, seed=9)
            lowers.append(lo)
            uppers.append(up)
        assert all(a >= b - 1e-9 for a, b in zip(lowers, lowers[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(uppers, uppers[1:]))

    def test_dominated_by_envelope(self, damped4):
        grid = [0.0, 1.0, 2.0, 4.0]
        analysis = lr.analyze_fixed_point(damped4[0], grid)
        c, gamma, _ = lr.convergence_envelope(analysis, n_starts=4, seed=7)
        for t in grid:
            lo, up = lr.mixing_eta(analysis, t, n_starts=8, seed=7)
            assert up <= 0.5 * c * math.exp(-gamma * t) * (1 + 1e-12)
            assert lo <= 0.5 * c * math.exp(-gamma * t) * (1 + 1e-12)

    def test_ascent_not_below_nelder_mead(self, damped4):
        # the lower brackets that multistart Nelder-Mead reached from these starts
        analysis = lr.analyze_fixed_point(damped4[0], [2.0, 4.0, 8.0])
        for t, nelder_mead in ((2.0, 0.44102684), (4.0, 0.087957524),
                               (8.0, 0.0096370075)):
            lo, up = lr.mixing_eta(analysis, t, n_starts=64, seed=23)
            assert lo >= nelder_mead
            assert lo <= up * (1 + 1e-12)

    def test_lower_attained_at_returned_state(self, damped4):
        gen, rho = damped4
        prop = lr.propagator(gen, 4.0).conj().T
        value, psi = correlations._multistart_state_distance(prop, rho.density, 64, 23)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        image = (prop @ np.outer(psi, psi.conj()).flatten(order="F")).reshape(
            (16, 16), order="F")
        assert trace_norm(image - rho.density) == pytest.approx(value, rel=1e-13)

    def test_oscillatory_rejected(self):
        m = np.diag([0.0, -1.0, 1.5j, -1.5j]).astype(complex)
        fake = lr.Superoperator(m, (0,), (2,))
        with pytest.raises(NotMixingError):
            lr.analyze_fixed_point(fake, [1.0])

    def test_degenerate_rejected(self):
        # no terms: every state is fixed
        space = lr.FiniteMetricSpace.chain(1)
        gen = lr.generator(DissipativeInteraction(space, ()))
        with pytest.raises(DegenerateFixedPointError):
            lr.analyze_fixed_point(gen, [1.0])

    def test_off_grid_time_rejected(self, recorded_analysis, monkeypatch):
        calls = _counting_ascent(monkeypatch)
        with pytest.raises(CorrelationsError,
                           match=r"t = 1\.5 is not on the analysis grid \[0\.5, 1\.0, 2\.0"):
            lr.mixing_eta(recorded_analysis, 1.5, n_starts=4, seed=3)
        assert calls == []


def _one_call_per_block_size(gen, shapes):
    """The shapes of one step's batched calls: one (k, n, n) stack per block
    size of the generator's invariant blocks, whose rows partition its
    coordinates, so the step covers every block exactly once."""
    blocks = gen._blocks
    covered = np.sort(np.concatenate([idx.ravel() for idx in blocks]))
    assert np.array_equal(covered, np.arange(gen.matrix.shape[0]))
    return shapes == [(*idx.shape, idx.shape[1]) for idx in blocks]


def test_analysis_decomposes_the_generator_once(monkeypatch):
    space = lr.FiniteMetricSpace.chain(3)
    gen = lr.generator(lr.tfim_dissipative(space, j=0.2, h=0.0, gamma=1.0))
    shapes = []
    eig = np.linalg.eig

    def counted(m):
        shapes.append(m.shape)
        return eig(m)

    monkeypatch.setattr(np.linalg, "eig", counted)
    lr.analyze_fixed_point(gen, [0.0, 1.0, 2.0])
    assert _one_call_per_block_size(gen, shapes)


def _counting_expm(monkeypatch):
    calls = []
    expm = scipy.linalg.expm

    def counted(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


class TestSemigroupStore:
    def test_semigroup_maps_match_expm(self, damped4, monkeypatch):
        # t = 0 is the identity, 0.5 is exponentiated, 1 = 0.5 + 0.5,
        # 2 = 1 + 1, 3 = 2 + 1 and 4 = 2 + 2 are products of earlier maps
        gen, _ = damped4
        times = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0)
        calls = _counting_expm(monkeypatch)
        maps = correlations._semigroup(gen, times)
        assert _one_call_per_block_size(gen, calls)
        monkeypatch.undo()
        assert sorted(maps) == list(times)
        for t in times:
            assert not any(m.flags.writeable for m in maps[t])
            want = scipy.linalg.expm(t * gen.matrix.conj().T.toarray())
            np.testing.assert_allclose(gen._scatter(maps[t]), want, rtol=0, atol=1e-12)

    def test_analysis_keeps_the_grid_maps(self, damped4):
        # the gap's t = 1 map is not kept unless 1 is on the grid
        gen, _ = damped4
        grid = (0.0, 0.5, 2.0)
        analysis = lr.analyze_fixed_point(gen, grid)
        assert sorted(analysis.maps) == list(grid)
        rho = StateFunctional.product(gen.sites, "+").density
        for t in grid:
            want = scipy.linalg.expm(t * gen.matrix.conj().T.toarray()) @ rho.flatten(order="F")
            np.testing.assert_allclose(analysis.evolve(t, rho).flatten(order="F"), want,
                                       rtol=0, atol=1e-12)
        assert np.array_equal(analysis.evolve(0.0, rho), rho)
        with pytest.raises(CorrelationsError,
                           match=r"t = 1\.0 is not on the analysis grid \[0\.0, 0\.5, 2\.0\]"):
            analysis.evolve(1.0, rho)

    def test_analysis_exponentiates_once(self, monkeypatch):
        space = lr.FiniteMetricSpace.chain(3)
        gen = lr.generator(lr.tfim_dissipative(space, j=0.2, h=0.0, gamma=1.0))
        calls = _counting_expm(monkeypatch)
        lr.analyze_fixed_point(gen, [0.5, 1.0, 2.0, 4.0])
        assert _one_call_per_block_size(gen, calls)

    def test_upper_brackets_unchanged(self, recorded_brackets):
        # sqrt(dim) |T_t - P|_2 from one scipy expm per time (and the eta
        # bracket from a second one), before the maps were shared
        (_, _, samples), (_, eta_upper) = recorded_brackets
        recorded = (13.356670668602515, 10.099284685936254, 4.690051513527809,
                    2.1876001411728727, 1.3582987147627)
        for (_, lower, upper), want in zip(samples, recorded):
            assert upper == pytest.approx(want, rel=1e-12, abs=0)
            assert lower <= upper
        assert eta_upper == pytest.approx(0.67914935738135, rel=1e-12, abs=0)


RECORDED_GRID = (0.5, 1.0, 2.0, 3.0, 4.0)


@pytest.fixture(scope="module")
def recorded_analysis(damped4):
    return lr.analyze_fixed_point(damped4[0], RECORDED_GRID)


@pytest.fixture(scope="module")
def recorded_brackets(recorded_analysis):
    """The brackets whose values are recorded: ``convergence_envelope`` on
    ``RECORDED_GRID`` and ``mixing_eta`` at t = 4, on the damped chain(4),
    both read from one analysis."""
    return (lr.convergence_envelope(recorded_analysis, n_starts=4, seed=3),
            lr.mixing_eta(recorded_analysis, 4.0, n_starts=16, seed=3))


def _counting_ascent(monkeypatch):
    calls = []
    ascent = correlations._multistart_state_distance

    def counted(*args):
        calls.append(args[2:])
        return ascent(*args)

    monkeypatch.setattr(correlations, "_multistart_state_distance", counted)
    return calls


class TestLowerBrackets:
    """Only ``convergence_envelope`` and ``mixing_eta`` run the ascent;
    ``analyze_fixed_point`` computes the envelope by the same steps."""

    # the lower brackets recorded on this model and grid (OpenBLAS, one
    # thread); the ascent has not settled at t = 2, where four BLAS threads
    # gave 0.8821192466476342, 1.3e-7 lower
    RECORDED_LOWER = (1.9520626983579734, 1.680677399697628, 0.8821193640436484,
                      0.44846517171185585, 0.25099486663991855)
    RECORDED_ETA_LOWER = 0.12549743331995927

    def test_analysis_runs_no_ascent(self, damped4, monkeypatch):
        calls = _counting_ascent(monkeypatch)
        lr.analyze_fixed_point(damped4[0], RECORDED_GRID)
        assert calls == []

    def test_recorded_lower_brackets(self, recorded_brackets):
        (_, _, samples), (eta_lower, _) = recorded_brackets
        assert [t for t, _, _ in samples] == list(RECORDED_GRID)
        for (_, lower, _), want in zip(samples, self.RECORDED_LOWER):
            assert lower == pytest.approx(want, rel=1e-6, abs=0)
        assert eta_lower == pytest.approx(self.RECORDED_ETA_LOWER, rel=1e-6, abs=0)

    def test_envelope_equals_the_analysis(self, recorded_analysis):
        # the envelope reads its brackets from the analysis' maps and upper
        # brackets at each grid time, with the analysis' gap and c
        analysis = recorded_analysis
        samples = tuple((t, analysis.lower_bracket(t, 4, 3), analysis.uppers[t])
                        for t in RECORDED_GRID)
        assert lr.convergence_envelope(analysis, n_starts=4, seed=3) == (
            analysis.envelope_c, analysis.gap, samples)

    def test_no_start_rejected(self, damped4, recorded_analysis, monkeypatch):
        # refused on entry, on an empty grid too: no dense map, no ascent
        empty = lr.analyze_fixed_point(damped4[0], [])

        def no_dense(*args):
            raise AssertionError("dense map built before the start count was checked")

        calls = _counting_ascent(monkeypatch)
        monkeypatch.setattr(lr.Superoperator, "_scatter", no_dense)
        for analysis in (recorded_analysis, empty):
            with pytest.raises(CorrelationsError, match="at least one start"):
                lr.convergence_envelope(analysis, n_starts=0)
        with pytest.raises(CorrelationsError, match="at least one start"):
            lr.mixing_eta(recorded_analysis, 4.0, n_starts=0)
        assert calls == []


@pytest.fixture(scope="module")
def analyzed():
    space = lr.FiniteMetricSpace.chain(4)
    inter = lr.tfim_dissipative(space, j=0.2, h=0.0, gamma=1.0)
    analysis = lr.analyze_fixed_point(lr.generator(inter), np.linspace(0, 6, 7))
    return space, lr.Dynamics(inter), analysis


def fixed_point_row(pi, dyn, a, b, t, omega, g):
    """The fixed_point_correlation row as the theorem table builds it:
    |pi(AB) - pi(A) pi(B)| against |omega(T_t(A B_t))| + 3 |A| |B| g(t)."""
    lhs = abs(pi.expect(a @ b) - pi.expect(a) * pi.expect(b))
    first = abs(lr.correlation(omega, dyn, t, a, b))
    return BoundReport("fixed_point_correlation", {}, lhs,
                       first + 3.0 * lr.op_norm(a) * lr.op_norm(b) * float(g(t)))


class TestCheckFixedPointCorrelation:
    def test_identity_observable_trivial(self, analyzed):
        space, dyn, analysis = analyzed
        omega = StateFunctional.product(space.points, "0")
        a = lr.identity(space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        rep = fixed_point_row(analysis.rho_pi, dyn, a, b, 1.0, omega, analysis.governance())
        assert rep.lhs == pytest.approx(0.0, abs=1e-11)
        assert rep.passes()

    def test_self_state_time_zero_identity(self, analyzed):
        # with omega = pi at t = 0 the first term reproduces the lhs exactly
        space, dyn, analysis = analyzed
        pi = analysis.rho_pi
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        rep = fixed_point_row(pi, dyn, a, b, 0.0, pi, analysis.governance())
        first = rep.rhs - 3.0 * analysis.governance()(0.0)
        assert first == pytest.approx(rep.lhs, abs=1e-11)
        assert rep.passes()

    def test_grid_passes(self, analyzed):
        space, dyn, analysis = analyzed
        omega = StateFunctional.product(space.points, "+")
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        b = lr.embed(lr.site_operator("Z", 3), space.points)
        for t in (0.0, 0.5, 1.5, 3.0):
            rep = fixed_point_row(analysis.rho_pi, dyn, a, b, t, omega,
                                  analysis.governance())
            assert rep.passes()

    def test_overlapping_supports_rejected(self):
        # the row needs disjoint supports; check_selection refuses overlapping
        # observables for every theorem that reads b, this one included
        cfg = harness.config_from_dict({
            "seed": 1, "space": "chain(4)", "observables": {"a": "Z0", "b": "X0"},
            "theorems": ["fixed_point_correlation"]})
        with pytest.raises(ConfigError, match="disjoint"):
            harness.ExperimentRunner(cfg)


class TestTraceNorm:
    def test_hermitian_path(self):
        rng = np.random.default_rng(99)
        m = rng.normal(size=(5, 5))
        m = m + m.T
        assert trace_norm(m) == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(m))),
                                              rel=1e-13)

    def test_general_path(self):
        rng = np.random.default_rng(100)
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert trace_norm(m) == pytest.approx(
            np.sum(np.linalg.svd(m, compute_uv=False)), rel=1e-13)


# -- invariant blocks against the full matrix ----------------------------------------


def _oracle(gen, times):
    """The fixed-point steps on the full matrix, one dense LAPACK call each:
    (maps, eigenvalues, stationary density, gap, upper brackets).  The maps
    follow ``_semigroup``'s rule: a time that is the sum of two earlier ones
    is their product."""
    m_s = gen.matrix.conj().T.toarray()
    maps = {}
    for t in times:
        s = next((u for u in sorted(maps, reverse=True) if t - u in maps and u + (t - u) == t),
                 None)
        maps[t] = scipy.linalg.expm(t * m_s) if s is None else maps[s] @ maps[t - s]
    w, v = np.linalg.eig(gen.matrix.toarray())
    _, s, vh = np.linalg.svd(m_s)
    dim = math.isqrt(m_s.shape[0])
    rho = vh[-1].conj().reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho)
    vals, vecs = np.linalg.eigh(rho)
    rho = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    rho = rho / np.trace(rho).real
    zero = np.abs(w) <= correlations.PERIODIC_ATOL
    gap = float(np.min(-w.real[~zero]))
    proj = np.outer(rho.flatten(order="F"), np.eye(dim, dtype=complex).flatten(order="F"))
    uppers = {t: math.sqrt(dim) * lr.op_norm(maps[t] - proj) for t in times}
    return maps, w, rho, gap, uppers


def _blockwise(gen, times):
    """The same quantities as ``_oracle``, through the package: one analysis."""
    analysis = lr.analyze_fixed_point(gen, times)
    maps = {t: gen._scatter(analysis.maps[t]) for t in times}
    return maps, gen.spectrum, analysis.rho_pi.density, analysis.gap, analysis.uppers


@st.composite
def _damped_models(draw, field: bool):
    """2-3 sites, amplitude damping at each, ZZ couplings and Z fields (both
    diagonal), and a transverse X field at each site when ``field``: the
    generator given as a dense array and the CSR generator a run reads."""
    n = draw(st.integers(2, 3))
    space = lr.FiniteMetricSpace.chain(n)
    rate = st.floats(0.5, 1.5)
    strength = st.floats(0.1, 1.0)
    terms = []
    for s in space.points:
        ham = draw(strength) * lr.qalgebra.PAULI["Z"]
        if field:
            ham = ham + draw(strength) * lr.qalgebra.PAULI["X"]
        kraus = (from_matrix(math.sqrt(draw(rate)) * lr.qalgebra.PAULI["M"], (s,)),)
        terms.append(LindbladTerm(frozenset([s]), from_matrix(ham, (s,)), kraus))
    for x, y in zip(space.points, space.points[1:]):
        zz = draw(strength) * np.kron(lr.qalgebra.PAULI["Z"], lr.qalgebra.PAULI["Z"])
        terms.append(LindbladTerm(frozenset([x, y]), from_matrix(zz, (x, y)), ()))
    interaction = DissipativeInteraction(space, tuple(terms))
    csr = lr.Dynamics(interaction).generator()
    dense = lr.Superoperator(csr.matrix.toarray(), csr.sites, csr.dims)
    return dense, csr


BLOCK_TIMES = (0.0, 0.5, 1.0, 1.5)


def _assert_reads_alike(csr, gen, times):
    """The CSR generator ``csr`` and ``gen``, built from its dense array, give
    the same blocks, block stacks, spectrum, exponentials and analysis maps,
    entry for entry."""
    assert len(csr._blocks) == len(gen._blocks)
    for x, y in zip(csr._blocks, gen._blocks):
        assert np.array_equal(x, y)
    for x, y in zip(csr._gather(), gen._gather()):
        assert np.array_equal(x, y)
    assert np.array_equal(csr.spectrum, gen.spectrum)
    got, want = lr.analyze_fixed_point(csr, times), lr.analyze_fixed_point(gen, times)
    for t in times:
        assert np.array_equal(lr.propagator(csr, t), lr.propagator(gen, t))
        for x, y in zip(got.maps[t], want.maps[t]):
            assert np.array_equal(x, y)


class TestInvariantBlocks:
    @given(gens=_damped_models(field=False))
    @settings(max_examples=25, deadline=None)
    def test_split_generator_matches_the_full_matrix(self, gens):
        gen, csr = gens
        _assert_reads_alike(csr, gen, BLOCK_TIMES)
        n_sites = len(gen.sites)
        assert sum(idx.shape[0] for idx in gen._blocks) == 3 ** n_sites
        assert gen._blocks[-1].shape[1] == 2 ** n_sites
        (maps, w, rho, gap, uppers), want = _blockwise(gen, BLOCK_TIMES), \
            _oracle(gen, BLOCK_TIMES)
        for t in BLOCK_TIMES:
            np.testing.assert_allclose(maps[t], want[0][t], rtol=0, atol=1e-12)
            assert uppers[t] == pytest.approx(want[4][t], rel=1e-12, abs=0)
        rows, cols = scipy.optimize.linear_sum_assignment(np.abs(w[:, None] - want[1][None, :]))
        assert np.max(np.abs(w[rows] - want[1][cols])) <= 1e-12
        np.testing.assert_allclose(rho, want[2], rtol=0, atol=1e-12)
        assert gap == pytest.approx(want[3], rel=1e-12, abs=0)

    @given(gens=_damped_models(field=True))
    @settings(max_examples=10, deadline=None)
    def test_one_block_generator_is_the_full_matrix(self, gens):
        gen, csr = gens
        _assert_reads_alike(csr, gen, BLOCK_TIMES)
        assert [idx.shape for idx in gen._blocks] == [(1, gen.matrix.shape[0])]
        got, want = _blockwise(gen, BLOCK_TIMES), _oracle(gen, BLOCK_TIMES)
        for t in BLOCK_TIMES:
            assert np.array_equal(got[0][t], want[0][t])
            assert got[4][t] == want[4][t]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert got[3] == want[3]

    def test_projection_off_its_block_refused(self, damped4, monkeypatch):
        # vec(rho) of a state with coherences leaves the block of vec(1), so
        # T_t - P is not block-diagonal and the blockwise norm would drop P
        gen, _ = damped4
        coherent = StateFunctional.product(gen.sites, "+")
        monkeypatch.setattr(correlations, "stationary_state", lambda _: coherent)
        with pytest.raises(CorrelationsError, match="spans 81 invariant blocks"):
            lr.analyze_fixed_point(gen, [1.0])

    def test_five_sites(self):
        # the slowest mode is a single-site coherence, decaying at gamma / 2
        space = lr.FiniteMetricSpace.chain(5)
        gen = lr.generator(lr.tfim_dissipative(space, j=0.2, h=0.0, gamma=1.0))
        assert sum(idx.shape[0] for idx in gen._blocks) == 243
        assert gen._blocks[-1].shape[1] == 32
        grid = (0.5, 1.0, 2.0, 4.0)
        analysis = lr.analyze_fixed_point(gen, grid)
        assert analysis.gap == pytest.approx(0.5, rel=1e-10)
        c, gamma, samples = lr.convergence_envelope(analysis, n_starts=4, seed=3)
        assert (c, gamma) == (analysis.envelope_c, analysis.gap)
        for _, lower, upper in samples:
            assert lower <= upper


def _damped_pair():
    return lr.tfim_dissipative(lr.FiniteMetricSpace.chain(2), j=0.2, h=0.0, gamma=1.0)


# each builds a fresh instance of a type that holds numpy arrays, or is built on one
VALUE_TYPES = {
    "FiniteMetricSpace": lambda: lr.FiniteMetricSpace.chain(3),
    "ObservableOp": lambda: lr.site_operator("Z", 0),
    "ObservationMap": lambda: lr.commutator_map(lr.site_operator("Z", 1)),
    "Superoperator": lambda: lr.generator(_damped_pair()),
    "StateFunctional": lambda: StateFunctional.product((0, 1), "+"),
    "LindbladTerm": lambda: _damped_pair().terms[0],
    "DissipativeInteraction": _damped_pair,
    "FixedPointAnalysis": lambda: lr.analyze_fixed_point(lr.generator(_damped_pair()), [1.0]),
}


@pytest.mark.parametrize("build", VALUE_TYPES.values(), ids=list(VALUE_TYPES))
def test_equality_answers(build):
    # == on an array field has no single truth value, so the array holders
    # compare by identity and the types built on them compare without raising
    x, y = build(), build()
    assert x == x
    assert (x == y) in (True, False)
    if not isinstance(x, lr.FixedPointAnalysis):  # whose uppers are a dict
        assert x in {x}
