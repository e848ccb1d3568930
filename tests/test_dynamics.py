"""Propagators: unitality, contraction, complete positivity, and oracles."""
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse

import lrcert as lr
from lrcert import model
from lrcert.dynamics import DynamicsError, choi_matrix, choi_min_eigenvalue
from lrcert.model import DissipativeInteraction, ModelError
from lrcert.qalgebra import _basis_permutation, embed, from_matrix, left_right_superop

from conftest import mixed_field_chain, single_qubit_damping


def damping_closed_form(t, a):
    """Heisenberg evolution oracle for single-qubit amplitude damping, gamma=1.

    On the matrix-unit basis: T_t(|1><1|) = e^{-t} |1><1|,
    T_t(|0><0|) = 1 - e^{-t}|1><1|, coherences scale by e^{-t/2}.
    """
    e = math.exp(-t)
    s = math.exp(-t / 2.0)
    out = np.zeros((2, 2), dtype=complex)
    out += a[0, 0] * (np.diag([1.0, 1.0 - e]).astype(complex))
    out += a[1, 1] * np.diag([0.0, e]).astype(complex)
    out[0, 1] += a[0, 1] * s
    out[1, 0] += a[1, 0] * s
    return out


class TestPropagator:
    def test_time_zero_is_identity(self, chain4):
        gen = lr.generator(lr.tfim_dissipative(chain4, 0.3, 0.2, 1.0))
        prop = lr.propagator(gen, 0.0)
        np.testing.assert_array_equal(prop.matrix, np.eye(256))

    def test_zero_generator(self):
        space = lr.FiniteMetricSpace.chain(2)
        gen = lr.generator(DissipativeInteraction(space, ()))
        np.testing.assert_allclose(lr.propagator(gen, 3.7).matrix, np.eye(16))

    def test_negative_time_rejected(self, chain4):
        gen = lr.generator(lr.tfim_dissipative(chain4, 0.3, 0.2, 1.0))
        with pytest.raises(DynamicsError):
            lr.propagator(gen, -0.1)

    def test_damping_closed_form(self):
        space, inter = single_qubit_damping(gamma=1.0)
        gen = lr.generator(inter)
        rng = np.random.default_rng(41)
        for t in (0.1, math.log(2), 1.5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got = lr.evolve(gen, t, from_matrix(a, (0,))).matrix
            np.testing.assert_allclose(got, damping_closed_form(t, a), atol=1e-13)

    def test_halving_the_excited_population(self):
        space, inter = single_qubit_damping(gamma=1.0)
        gen = lr.generator(inter)
        proj = from_matrix(np.diag([0.0, 1.0]), (0,), frozenset([0]))
        out = lr.evolve(gen, math.log(2.0), proj)
        np.testing.assert_allclose(out.matrix, 0.5 * proj.matrix, atol=1e-14)

    def test_semigroup_law(self):
        space, f, inter = mixed_field_chain(3, alpha=3.0)
        gen = lr.generator(inter)
        rng = np.random.default_rng(42)
        for _ in range(4):
            s, t = rng.uniform(0, 1.5, size=2)
            combined = lr.propagator(gen, s + t).matrix
            split = lr.propagator(gen, s).matrix @ lr.propagator(gen, t).matrix
            assert np.linalg.norm(combined - split, 2) <= 1e-10 * max(
                1.0, np.linalg.norm(combined, 2))

    def test_unitality(self):
        space, f, inter = mixed_field_chain(3, alpha=3.0)
        gen = lr.generator(inter)
        ident = lr.identity(space.points)
        for t in (0.0, 0.2, 1.0, 2.5):
            out = lr.evolve(gen, t, ident)
            assert lr.op_norm(out - ident) <= 1e-10


class TestEvolve:
    def test_identity_fixed(self, chain4):
        gen = lr.generator(lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0))
        ident = lr.identity(chain4.points)
        np.testing.assert_allclose(lr.evolve(gen, 0.7, ident).matrix, ident.matrix,
                                   atol=1e-12)

    def test_time_zero(self, chain4):
        gen = lr.generator(lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0))
        rng = np.random.default_rng(43)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a = from_matrix(m, chain4.points)
        np.testing.assert_allclose(lr.evolve(gen, 0.0, a).matrix, a.matrix, atol=1e-14)

    def test_contraction(self):
        space, f, inter = mixed_field_chain(3, alpha=3.0)
        gen = lr.generator(inter)
        rng = np.random.default_rng(44)
        for t in (0.1, 0.6, 2.0):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            a = from_matrix(m, space.points)
            assert lr.op_norm(lr.evolve(gen, t, a)) <= lr.op_norm(a) * (1 + 1e-10)

    def test_volume_mismatch_rejected(self, chain4):
        gen = lr.generator(lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0))
        with pytest.raises(DynamicsError):
            lr.evolve(gen, 0.1, lr.site_operator("X", 0))


class TestLhsQuasiLocality:
    def test_zero_at_time_zero(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        k = lr.commutator_map(lr.site_operator("Z", 3))
        assert lr.Dynamics(inter).quasi_locality(0.0, a, k) == pytest.approx(0.0, abs=1e-14)

    def test_zero_map(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        k = lr.commutator_map(lr.identity((3,)))
        assert lr.Dynamics(inter).quasi_locality(0.8, a, k) <= 1e-12

    def test_overlapping_supports_rejected(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        k = lr.commutator_map(lr.site_operator("Z", 0))
        with pytest.raises(DynamicsError, match="overlap"):
            lr.Dynamics(inter).quasi_locality(0.5, a, k)


class TestLhsErrors:
    def test_truncation_saturation(self, chain4):
        inter = lr.long_range_zz(chain4, 0.4, 3.0, 1.0)
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        dyn = lr.Dynamics(inter)
        assert dyn.truncation_error(0.8, a, 3.0) <= 1e-10
        assert dyn.truncation_error(0.8, a, 5.0) <= 1e-10

    def test_truncation_zero_time(self, chain4):
        inter = lr.long_range_zz(chain4, 0.4, 3.0, 1.0)
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        assert lr.Dynamics(inter).truncation_error(0.0, a, 1.0) == \
            pytest.approx(0.0, abs=1e-14)

    def test_local_error_full_region(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        assert lr.Dynamics(inter).local_error(0.9, a, {0}, 5.0) <= 1e-12

    def test_local_error_zero_time(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        assert lr.Dynamics(inter).local_error(0.0, a, {0}, 1.0) == \
            pytest.approx(0.0, abs=1e-14)

    def test_unsupported_observable_rejected(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        a = lr.embed(lr.site_operator("Z", 2), chain4.points)
        with pytest.raises(DynamicsError):
            lr.Dynamics(inter).local_error(0.5, a, {0}, 1.0)


class TestChoi:
    def test_identity_map(self):
        sup = lr.Superoperator(np.eye(4, dtype=complex), (0,), (2,), "schrodinger")
        c = choi_matrix(sup)
        # the rank-one projector onto the (unnormalized) maximally entangled vector
        omega = np.eye(2).flatten(order="F")
        np.testing.assert_allclose(c, np.outer(omega, omega.conj()), atol=1e-14)
        assert choi_min_eigenvalue(sup) >= -1e-14

    def test_time_zero_psd(self, chain4):
        gen = lr.generator(lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)).adjoint
        assert choi_min_eigenvalue(lr.propagator(gen, 0.0)) >= -1e-12

    def test_damping_choi_psd(self):
        space, inter = single_qubit_damping()
        gen = lr.generator(inter).adjoint
        assert choi_min_eigenvalue(lr.propagator(gen, 1.0)) >= -1e-12

    def test_kraus_consistency(self):
        # Choi of a map given by Kraus operators equals sum |vec K><vec K|
        rng = np.random.default_rng(45)
        ks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
        sup_m = sum(np.kron(k.conj(), k) for k in ks)
        sup = lr.Superoperator(sup_m, (0,), (2,), "schrodinger")
        want = sum(np.outer(k.flatten(order="F"), k.flatten(order="F").conj())
                   for k in ks)
        np.testing.assert_allclose(choi_matrix(sup), want, atol=1e-13)


class TestOdeOracle:
    def test_propagator_matches_adaptive_integration(self):
        rng = np.random.default_rng(46)
        space = lr.FiniteMetricSpace.chain(2)
        for seed in range(3):
            m = lr.harness.random_model(900 + seed, n_sites=2)
            gen = lr.generator(m.interaction)
            a0 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            y0 = a0.flatten(order="F")
            t_end = 0.9

            def rhs(t, y):
                return gen.matrix @ y

            sol = scipy.integrate.solve_ivp(rhs, (0.0, t_end), y0, method="DOP853",
                                            rtol=1e-11, atol=1e-12)
            want = sol.y[:, -1]
            got = lr.propagator(gen, t_end).matrix @ y0
            assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))


def dense_term_superop(term, sites, dims):
    """The dense accumulation generators were once assembled by; the reference
    for the sparse assembly."""
    total = int(np.prod(dims))
    eye = np.eye(total, dtype=complex)
    out = np.zeros((total * total, total * total), dtype=complex)
    if term.hamiltonian is not None:
        h = embed(term.hamiltonian, sites, dims).matrix
        out += 1j * (left_right_superop(h, eye) - left_right_superop(eye, h))
    for k in term.kraus:
        km = embed(k, sites, dims).matrix
        kdag = km.conj().T
        kk = kdag @ km
        out += left_right_superop(kdag, km)
        out -= 0.5 * (left_right_superop(kk, eye) + left_right_superop(eye, kk))
    return out


def kron_term_superop(term, sites, dims):
    """The Kronecker embedding terms were once placed in a volume by: the own
    superoperator tensored with the identity on the rest of the volume, then
    the legs permuted by fancy indexing; the reference for the index
    arithmetic of ``local_superop``."""
    own = term._site_order()
    rest = tuple(s for s in sites if s not in term.support)
    by_site = dict(zip(sites, dims))
    rest_dim = int(np.prod([by_site[s] for s in rest], dtype=int))
    big = scipy.sparse.kron(scipy.sparse.csr_matrix(model.own_superop(term)),
                            scipy.sparse.identity(rest_dim * rest_dim), format="csr")
    legs = tuple((leg, s) for part in (own, rest) for leg in ("col", "row") for s in part)
    target = tuple((leg, s) for leg in ("col", "row") for s in sites)
    sigma = _basis_permutation(legs, target, tuple(dims) * 2)
    return big[sigma][:, sigma]


def layer_models(sizes=(3, 4)):
    for n in sizes:
        space = lr.FiniteMetricSpace.chain(n)
        yield lr.tfim_dissipative(space, 0.5, 0.4, 1.0)
        yield lr.long_range_zz(space, 0.4, 3.0, 1.0)
        yield lr.harness.random_model(30 + n, n_sites=n).interaction


def interleaved(points):
    """The volume's sites with every other one moved to the back, so a
    two-site term such as (0, 1) runs against the volume's order."""
    return tuple(points[1::2]) + tuple(points[0::2])


def csr_arrays(m):
    return m.indptr, m.indices, m.data


class TestSparseAssembly:
    @pytest.mark.parametrize("inter", list(layer_models()))
    def test_equals_dense_accumulation(self, inter):
        gen = lr.generator(inter)
        want = np.zeros_like(gen.matrix)
        for term in inter.terms:
            want += dense_term_superop(term, gen.sites, gen.dims)
        assert np.array_equal(gen.matrix, want)
        assert np.array_equal(lr.Dynamics(inter).generator().toarray(), want)

    @pytest.mark.parametrize("inter", list(layer_models((3, 4, 5))))
    def test_embedding_equals_kronecker_formula(self, inter):
        """Bit for bit: in the volume's own order the Kronecker formula's rows
        are already sorted; in an interleaved order they hold the same entries
        in another order, which ``local_superop`` sorts."""
        points = inter.space.points
        dims = (2,) * len(points)
        for term in inter.terms:
            want = kron_term_superop(term, points, dims)
            assert want.has_sorted_indices
            got = model.local_superop(term, points, dims)
            assert all(map(np.array_equal, csr_arrays(got), csr_arrays(want)))
            want = kron_term_superop(term, interleaved(points), dims)
            want.sort_indices()
            got = model.local_superop(term, interleaved(points), dims)
            assert all(map(np.array_equal, csr_arrays(got), csr_arrays(want)))

    @pytest.mark.parametrize("inter", list(layer_models((3,))))
    def test_term_superop_is_stored_read_only(self, inter):
        for term in inter.terms:
            assert np.array_equal(term.superop, model.own_superop(term))
            with pytest.raises(ValueError):
                term.superop[0, 0] = 1.0


class TestDynamicsLayer:
    def test_action_matches_dense_propagator(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        gen = lr.generator(inter)
        dyn = lr.Dynamics(inter)
        rng = np.random.default_rng(47)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a = from_matrix(m, chain4.points)
        for t in (0.25, 0.5, 1.0, 2.0):
            want = lr.propagator(gen, t).matrix @ lr.vectorize(a)
            np.testing.assert_allclose(lr.vectorize(dyn.evolve(t, a)), want,
                                       rtol=0, atol=1e-13)
            np.testing.assert_allclose(lr.vectorize(lr.evolve(gen, t, a)), want,
                                       rtol=0, atol=1e-13)

    def test_time_zero_returns_input(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        rng = np.random.default_rng(48)
        a = from_matrix(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)),
                        chain4.points)
        dyn = lr.Dynamics(inter)
        assert np.array_equal(dyn.evolve(0.0, a).matrix, a.matrix)
        assert np.array_equal(dyn.evolve(0.0, a, "subvolume", region={0}).matrix, a.matrix)
        assert np.array_equal(lr.evolve(lr.generator(inter), 0.0, a).matrix, a.matrix)

    def test_truncation_saturates(self, chain4):
        inter = lr.long_range_zz(chain4, 0.4, 3.0, 1.0)
        dyn = lr.Dynamics(inter)
        full = dyn.generator()
        assert inter.range_r0 == 3.0
        for R in (3.0, 4.5):
            assert dyn.generator("truncated", R=R) is full
        short = dyn.generator("truncated", R=1.0)
        assert short is not full
        assert (short != full).nnz > 0

    def test_one_generator_per_term_set(self, chain4):
        dyn = lr.Dynamics(lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0))
        assert dyn.generator("subvolume", region=chain4.points) is dyn.generator()
        dyn = lr.Dynamics(lr.long_range_zz(chain4, 0.4, 3.0, 1.0))
        assert dyn.generator("truncated", R=1.0) is dyn.generator("truncated", R=1.5)
        assert dyn.generator("truncated", R=2.0) is not dyn.generator("truncated", R=1.0)
        assert dyn.counters["generators"] == 2

    def test_shared_generator_shares_evolutions(self, chain4):
        dyn = lr.Dynamics(lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0))
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        full = dyn.evolve(0.5, a)
        assert dyn.evolve(0.5, a, "subvolume", region=chain4.points) is full
        assert dyn.evolve(0.5, a, "truncated", R=1.0) is full
        dyn.evolve(0.0, a, "subvolume", region={0})
        assert dyn.counters == {"generators": 2, "evolutions": 2, "evolution_hits": 2,
                                "expm_multiply": 1}

    def test_volume_mismatch_rejected(self, chain4):
        dyn = lr.Dynamics(lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0))
        with pytest.raises(DynamicsError):
            dyn.evolve(0.1, lr.site_operator("X", 0))


class TestDenseCeiling:
    def test_refused_before_assembly(self, chain4, monkeypatch):
        inter = lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0)
        monkeypatch.setattr(model, "MAX_DENSE_DIM", 64)

        def no_assembly(*args):
            raise AssertionError("assembled an over-size dense generator")

        with monkeypatch.context() as patch:
            patch.setattr(model, "local_superop", no_assembly)
            with pytest.raises(ModelError, match="dense ceiling"):
                lr.generator(inter)
        # the action path has no dense ceiling
        a = lr.embed(lr.site_operator("Z", 0), chain4.points)
        assert lr.Dynamics(inter).local_error(0.5, a, {0}, 1.0) > 0
