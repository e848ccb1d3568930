"""Lindblad terms, interaction norms, and generator assembly."""
import math

import numpy as np
import pytest

import lrcert as lr
from lrcert import model
from lrcert.model import (
    DissipativeInteraction,
    LindbladTerm,
    LOWERING,
    ModelError,
    PAULI_Z,
)
from lrcert.qalgebra import from_matrix

from conftest import single_qubit_damping


def lindblad_action(term, a):
    """Direct formula oracle on matrices of the term's own volume."""
    out = np.zeros_like(a)
    if term.hamiltonian is not None:
        h = term.hamiltonian.matrix
        out = out + 1j * (h @ a - a @ h)
    for k in term.kraus:
        km = k.matrix
        kk = km.conj().T @ km
        out = out + km.conj().T @ a @ km - 0.5 * (kk @ a + a @ kk)
    return out


class TestLindbladSuperop:
    def test_trivial_term_is_zero(self):
        space = lr.FiniteMetricSpace.chain(2)
        h = from_matrix(np.zeros((2, 2)), (0,), frozenset([0]))
        term = LindbladTerm(frozenset([0]), h, ())
        sup = lr.generator(DissipativeInteraction(space, (term,)))
        assert np.allclose(sup.matrix, 0)

    def test_annihilates_identity(self):
        space, inter = single_qubit_damping()
        gen = lr.generator(inter)
        ident = lr.vectorize(lr.identity((0,)))
        assert np.linalg.norm(gen.matrix @ ident) <= 1e-14

    def test_damping_on_sigma_z(self):
        space, inter = single_qubit_damping(gamma=1.0)
        gen = lr.generator(inter)
        out = lr.devectorize(gen.matrix @ lr.vectorize(lr.site_operator("Z", 0)), (0,))
        np.testing.assert_allclose(out.matrix, np.eye(2) - PAULI_Z, atol=1e-14)

    def test_damping_on_excited_projector(self):
        space, inter = single_qubit_damping(gamma=1.0)
        gen = lr.generator(inter)
        proj = from_matrix(np.diag([0.0, 1.0]), (0,), frozenset([0]))
        out = lr.devectorize(gen.matrix @ lr.vectorize(proj), (0,))
        np.testing.assert_allclose(out.matrix, -proj.matrix, atol=1e-14)

    def test_matches_direct_formula_on_random_inputs(self):
        rng = np.random.default_rng(21)
        space = lr.FiniteMetricSpace.chain(2)
        hm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hm = hm + hm.conj().T
        km = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        term = LindbladTerm(frozenset([0, 1]),
                            from_matrix(hm, (0, 1)),
                            (from_matrix(km, (0, 1)),))
        sup = lr.generator(DissipativeInteraction(space, (term,)))
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            got = lr.devectorize(sup.matrix @ a.flatten(order="F"), (0, 1)).matrix
            want = lindblad_action(term, a)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_support_outside_volume_rejected(self):
        space = lr.FiniteMetricSpace.chain(3)
        _, inter = single_qubit_damping()
        with pytest.raises(ModelError):
            model.local_superop(inter.terms[0], (1, 2), (2, 2))

    def test_non_hermitian_hamiltonian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ModelError, match="self-adjoint"):
            LindbladTerm(frozenset([0]), from_matrix(m, (0,)), ())


def pair_only_interaction(space, amp=0.5):
    terms = []
    pts = space.points
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            h = from_matrix(amp * np.kron(PAULI_Z, PAULI_Z), (x, y), frozenset([x, y]))
            terms.append(LindbladTerm(frozenset([x, y]), h, ()))
    return DissipativeInteraction(space, tuple(terms))


class TestGenerator:
    def test_truncation_below_min_diameter_is_zero(self):
        space = lr.FiniteMetricSpace.chain(3)
        inter = pair_only_interaction(space)
        gen = lr.generator(inter, mode="truncated", R=0.5)
        assert np.allclose(gen.matrix, 0)

    def test_truncation_saturates(self, chain4):
        inter = lr.long_range_zz(chain4, 0.5, 3.0, 1.0)
        full = lr.generator(inter, mode="full")
        trunc = lr.generator(inter, mode="truncated", R=inter.range_r0)
        np.testing.assert_array_equal(full.matrix, trunc.matrix)

    def test_subvolume_filter_oracle(self):
        space = lr.FiniteMetricSpace.chain(3)
        inter = lr.tfim_dissipative(space, j=0.4, h=0.3, gamma=0.8)
        gen = lr.generator(inter, mode="subvolume", region={0, 1})
        acc = np.zeros_like(gen.matrix)
        for t in inter.terms:
            if t.support <= {0, 1}:
                acc = acc + model.local_superop(t, space.points, gen.dims).toarray()
        np.testing.assert_allclose(gen.matrix, acc, atol=1e-14)

    def test_truncation_term_count_monotone(self, chain4):
        inter = lr.long_range_zz(chain4, 0.5, 3.0, 1.0)
        counts = [len(inter.terms_for(chain4.all_sites(), max_diam=R))
                  for R in (0.5, 1, 2, 3)]
        assert counts == sorted(counts)

    def test_full_generator_unital(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.5, 0.4, 1.0)
        gen = lr.generator(inter)
        ident = lr.vectorize(lr.identity(chain4.points))
        assert np.linalg.norm(gen.matrix @ ident) <= 1e-12


class TestInteractionFNorm:
    def test_empty_interaction(self, chain4):
        inter = DissipativeInteraction(chain4, ())
        f = lr.FFunction.power(2.0)
        assert lr.interaction_f_norm(inter, f) == 0.0

    def test_single_pair_term(self):
        space = lr.FiniteMetricSpace.chain(2)
        h = from_matrix(0.5 * np.kron(PAULI_Z, PAULI_Z), (0, 1))
        term = LindbladTerm(frozenset([0, 1]), h, ())
        inter = DissipativeInteraction(space, (term,))
        f = lr.FFunction.power(2.0)
        # anchored ratio is maximal at the pair (0, 1): cb / F(1) = 4 cb
        assert lr.interaction_f_norm(inter, f) == pytest.approx(4.0 * term.cb_upper)

    def test_kraus_scaling(self):
        space, inter1 = single_qubit_damping(gamma=1.0)
        _, inter2 = single_qubit_damping(gamma=2.0)
        f = lr.FFunction.power(2.0)
        assert lr.interaction_f_norm(inter2, f) == pytest.approx(
            2.0 * lr.interaction_f_norm(inter1, f), rel=1e-12)

    def test_certificate_post_hoc(self, chain4):
        inter = lr.long_range_zz(chain4, 0.7, 3.0, 1.0)
        f = lr.FFunction.power(3.0)
        m = lr.interaction_f_norm(inter, f)
        for x in chain4.points:
            for y in chain4.points:
                total = sum(t.cb_upper for t in inter.terms
                            if x in t.support and y in t.support)
                assert total <= m * f(chain4.d(x, y)) * (1 + 1e-12)


class TestFiniteRangeBound:
    def test_zero_interaction(self, chain4):
        inter = DissipativeInteraction(
            chain4, (LindbladTerm(frozenset([0, 1]),
                                  from_matrix(np.zeros((4, 4)), (0, 1)), ()),))
        f = lr.FFunction.power(2.0)
        assert lr.finite_range_fnorm_bound(inter, f, kappa=2.0, nu=1.0) == 0.0

    def test_arithmetic(self):
        space = lr.FiniteMetricSpace.chain(2)
        h = from_matrix(0.25 * np.kron(PAULI_Z, PAULI_Z), (0, 1))
        term = LindbladTerm(frozenset([0, 1]), h, ())
        inter = DissipativeInteraction(space, (term,))
        f = lr.FFunction.power(2.0)
        # sup-norm 2|H| = 0.5; 2^(kappa R0^nu - 2) / F(1) with kappa=2, R0=1
        want = 0.5 * 2.0 ** (2.0 - 2.0) / f(1.0)
        assert lr.finite_range_fnorm_bound(inter, f, 2.0, 1.0) == pytest.approx(want)

    def test_dominates_exhaustive_f_norm(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.5, 0.4, 1.0)
        f = lr.FFunction.power(2.0)
        kappa = lr.nu_regularity(chain4, 1.0)
        bound = lr.finite_range_fnorm_bound(inter, f, kappa, 1.0)
        assert bound >= lr.interaction_f_norm(inter, f)

    def test_zero_range_rejected(self):
        space, inter = single_qubit_damping()
        with pytest.raises(ModelError):
            lr.finite_range_fnorm_bound(inter, lr.FFunction.power(2.0), 2.0, 1.0)


class TestAdjointGenerator:
    def test_zero_map(self, chain4):
        gen = lr.generator(DissipativeInteraction(chain4, ()))
        adj = gen.adjoint
        assert np.allclose(adj.matrix, 0)
        assert adj.picture == "schrodinger"

    def test_pure_hamiltonian_oracle(self):
        space = lr.FiniteMetricSpace.chain(1)
        h = from_matrix(np.array([[0.3, 0.1], [0.1, -0.3]]), (0,))
        inter = DissipativeInteraction(space, (LindbladTerm(frozenset([0]), h, ()),))
        adj = lr.generator(inter).adjoint
        rng = np.random.default_rng(31)
        for _ in range(5):
            rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got = lr.devectorize(adj.matrix @ rho.flatten(order="F"), (0,)).matrix
            want = -1j * (h.matrix @ rho - rho @ h.matrix)
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_involution(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.3, 0.2, 0.9)
        gen = lr.generator(inter)
        twice = gen.adjoint.adjoint
        np.testing.assert_array_equal(twice.matrix, gen.matrix)
        assert twice.picture == "heisenberg"

    def test_trace_pairing(self):
        space = lr.FiniteMetricSpace.chain(2)
        inter = lr.tfim_dissipative(space, 0.4, 0.3, 1.1)
        gen = lr.generator(inter)
        adj = gen.adjoint
        rng = np.random.default_rng(32)
        for _ in range(5):
            rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = np.trace((lr.devectorize(adj.matrix @ rho.flatten(order="F"),
                                           (0, 1)).matrix).conj().T @ a)
            rhs = np.trace(rho.conj().T @ lr.devectorize(
                gen.matrix @ a.flatten(order="F"), (0, 1)).matrix)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_trace_annihilation(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.5, 0.4, 1.0)
        adj = lr.generator(inter).adjoint
        rng = np.random.default_rng(33)
        d = 16
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        out = lr.devectorize(adj.matrix @ rho.flatten(order="F"), chain4.points).matrix
        assert abs(np.trace(out)) <= 1e-10 * np.linalg.norm(rho)


class TestSupNormAndRange:
    def test_sup_norm_matches_single_terms(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.5, 0.4, 1.0)
        assert inter.sup_norm == pytest.approx(max(t.cb_upper for t in inter.terms))

    def test_sup_norm_merges_duplicate_supports(self):
        space = lr.FiniteMetricSpace.chain(1)
        k = from_matrix(LOWERING, (0,), frozenset([0]))
        t1 = LindbladTerm(frozenset([0]), None, (k,))
        t2 = LindbladTerm(frozenset([0]), None, (k,))
        inter = DissipativeInteraction(space, (t1, t2))
        assert inter.sup_norm == pytest.approx(t1.cb_upper + t2.cb_upper)

    def test_range_is_derived(self, chain4):
        inter = lr.long_range_zz(chain4, 0.5, 3.0, 1.0)
        assert inter.range_r0 == 3.0
        assert lr.tfim_dissipative(chain4, 0.5, 0.0, 1.0).range_r0 == 1.0
        _, onsite = single_qubit_damping()
        assert onsite.range_r0 == 0.0

    def test_cb_surrogate_value(self):
        h = from_matrix(0.7 * PAULI_Z, (0,))
        k = from_matrix(math.sqrt(0.9) * LOWERING, (0,), frozenset([0]))
        term = LindbladTerm(frozenset([0]), h, (k, k))
        assert term.cb_upper == pytest.approx(2 * 0.7 + 2 * (0.9 + 0.9))
        assert 0.0 <= term.cb_lower <= term.cb_upper
