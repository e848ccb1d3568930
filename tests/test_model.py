"""Lindblad terms, interaction norms, and generator assembly."""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

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

from conftest import csr_arrays, mixed_field_chain, single_qubit_damping


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
        assert np.allclose(sup.matrix.toarray(), 0)

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


def assembled(inter, terms):
    """The dense generator of ``terms`` on the interaction's whole space."""
    points = inter.space.points
    return model.assemble(terms, points, inter.dims).matrix.toarray()


SPIN1_Z = np.diag([1.0, 0.0, -1.0])


class TestInteractionDims:
    def test_read_off_the_terms(self):
        # a qutrit at site 1, coupled to site 0; no term covers site 2
        space = lr.FiniteMetricSpace.chain(3)
        terms = (LindbladTerm(frozenset([1]), from_matrix(SPIN1_Z, (1,), dims=(3,)), ()),
                 LindbladTerm(frozenset([0, 1]),
                              from_matrix(np.kron(PAULI_Z, SPIN1_Z), (0, 1), dims=(2, 3)), ()))
        inter = DissipativeInteraction(space, terms)
        assert inter.dims == lr.generator(inter).dims == lr.Dynamics(inter).dims == (2, 3, 2)

    def test_inconsistent_dimensions_refused(self):
        space = lr.FiniteMetricSpace.chain(2)
        qubit = LindbladTerm(frozenset([0]), from_matrix(PAULI_Z, (0,)), ())
        qutrit = LindbladTerm(frozenset([0]), from_matrix(SPIN1_Z, (0,), dims=(3,)), ())
        with pytest.raises(ModelError, match="inconsistent local dimension at site 0"):
            DissipativeInteraction(space, (qubit, qutrit)).dims


class TestGenerator:
    def test_truncation_below_min_diameter_is_zero(self):
        space = lr.FiniteMetricSpace.chain(3)
        inter = pair_only_interaction(space)
        gen = assembled(inter, inter.terms_for(space.all_sites(), max_diam=0.5))
        assert np.allclose(gen, 0)

    def test_truncation_saturates(self, chain4):
        inter = lr.long_range_zz(chain4, 0.5, 3.0, 1.0)
        full = lr.generator(inter)
        trunc = assembled(inter, inter.terms_for(chain4.all_sites(), max_diam=inter.range_r0))
        np.testing.assert_array_equal(full.matrix.toarray(), trunc)

    def test_subvolume_filter_oracle(self):
        space = lr.FiniteMetricSpace.chain(3)
        inter = lr.tfim_dissipative(space, j=0.4, h=0.3, gamma=0.8)
        gen = assembled(inter, inter.terms_for(frozenset({0, 1})))
        acc = np.zeros_like(gen)
        for t in inter.terms:
            if t.support <= {0, 1}:
                acc = acc + model.local_superop(t, space.points, (2, 2, 2)).toarray()
        np.testing.assert_allclose(gen, acc, atol=1e-14)

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
    def test_dominates_exhaustive_f_norm(self, chain4):
        # the counting bound for uniformly bounded finite-range interactions,
        # sup over supports of the summed cb_upper * 2**(kappa * R0**nu - 2) / F(R0)
        inter = lr.tfim_dissipative(chain4, 0.5, 0.4, 1.0)
        f = lr.FFunction.power(2.0)
        kappa = lr.nu_regularity(chain4, 1.0)
        by_support = {}
        for t in inter.terms:
            by_support[t.support] = by_support.get(t.support, 0.0) + t.cb_upper
        r0 = inter.range_r0
        bound = max(by_support.values()) * 2.0 ** (kappa * r0 - 2.0) / f(r0)
        assert bound >= lr.interaction_f_norm(inter, f)


class TestAdjointGenerator:
    """The Schroedinger generator L_s = L^H, the CSR conjugate transpose of the
    Heisenberg generator, as the fixed-point analysis reads it."""

    def test_zero_map(self, chain4):
        gen = lr.generator(DissipativeInteraction(chain4, ()))
        assert gen.matrix.conj().T.nnz == 0

    def test_pure_hamiltonian_oracle(self):
        space = lr.FiniteMetricSpace.chain(1)
        h = from_matrix(np.array([[0.3, 0.1], [0.1, -0.3]]), (0,))
        inter = DissipativeInteraction(space, (LindbladTerm(frozenset([0]), h, ()),))
        adj = lr.generator(inter).matrix.conj().T
        rng = np.random.default_rng(31)
        for _ in range(5):
            rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got = lr.devectorize(adj @ rho.flatten(order="F"), (0,)).matrix
            want = -1j * (h.matrix @ rho - rho @ h.matrix)
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_trace_pairing(self):
        space = lr.FiniteMetricSpace.chain(2)
        inter = lr.tfim_dissipative(space, 0.4, 0.3, 1.1)
        gen = lr.generator(inter)
        adj = gen.matrix.conj().T
        rng = np.random.default_rng(32)
        for _ in range(5):
            rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = np.trace((lr.devectorize(adj @ rho.flatten(order="F"),
                                           (0, 1)).matrix).conj().T @ a)
            rhs = np.trace(rho.conj().T @ lr.devectorize(
                gen.matrix @ a.flatten(order="F"), (0, 1)).matrix)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_trace_annihilation(self, chain4):
        inter = lr.tfim_dissipative(chain4, 0.5, 0.4, 1.0)
        adj = lr.generator(inter).matrix.conj().T
        rng = np.random.default_rng(33)
        d = 16
        rho = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        out = lr.devectorize(adj @ rho.flatten(order="F"), chain4.points).matrix
        assert abs(np.trace(out)) <= 1e-10 * np.linalg.norm(rho)

    @pytest.mark.parametrize("inter, split", [
        (lr.tfim_dissipative(lr.FiniteMetricSpace.chain(3), 0.2, 0.0, 1.0), True),
        (mixed_field_chain(3, alpha=3.0)[2], False),
    ], ids=["damped-split", "mixed-field-one-block"])
    def test_analysis_reads_the_conjugate_transposes_blocks(self, inter, split, monkeypatch):
        # the stationary state's SVD and the semigroup's exponential read L_s
        # gathered on the Heisenberg generator's blocks: entry for entry the
        # blocks of a map built from the conjugate transpose on its own blocks
        gen = lr.generator(inter)
        assert (sum(idx.shape[0] for idx in gen._blocks) > 1) == split
        own = lr.Superoperator(gen.matrix.conj().T, gen.sites, gen.dims)
        assert len(gen._blocks) == len(own._blocks)
        assert all(map(np.array_equal, gen._blocks, own._blocks))
        svd, expm, seen = np.linalg.svd, scipy.linalg.expm, []
        monkeypatch.setattr(np.linalg, "svd", lambda m: seen.append(m.copy()) or svd(m))
        monkeypatch.setattr(scipy.linalg, "expm", lambda m: seen.append(m.copy()) or expm(m))
        lr.stationary_state(gen)
        lr.correlations._semigroup(gen, [1.0])  # t = 1 leaves the blocks unscaled
        want = own._gather()
        assert len(seen) == 2 * len(want)
        assert all(map(np.array_equal, seen, want + want))


def storage_inputs(csr):
    """The canonical CSR matrix ``csr`` as a dense array, as COO, and as CSR
    with each row's entries in reverse order, every entry stored as two
    halves, and one explicit zero per row: all the same matrix."""
    dense = csr.toarray()
    data, indices, indptr = [], [], [0]
    for i in range(csr.shape[0]):
        cols = csr.indices[csr.indptr[i]:csr.indptr[i + 1]][::-1]
        vals = csr.data[csr.indptr[i]:csr.indptr[i + 1]][::-1]
        empty = np.flatnonzero(dense[i] == 0)[:1]
        indices += [*cols, *cols, *empty]
        data += [*(0.5 * vals), *(0.5 * vals), *np.zeros(empty.size)]
        indptr.append(len(indices))
    messy = scipy.sparse.csr_matrix((np.array(data, dtype=complex), indices, indptr),
                                    shape=csr.shape)
    return dense, scipy.sparse.coo_matrix(dense), messy


class TestSuperoperatorStorage:
    """A superoperator holds one canonical CSR matrix, whatever it was given."""

    @pytest.mark.parametrize("inter", [
        lr.tfim_dissipative(lr.FiniteMetricSpace.chain(3), 0.4, 0.3, 1.0),
        lr.tfim_dissipative(lr.FiniteMetricSpace.chain(3), 0.2, 0.0, 1.0),
    ], ids=["one-block", "split"])
    def test_every_input_gives_one_canonical_csr(self, inter):
        gen = lr.generator(inter)
        assert gen.matrix.format == "csr" and gen.matrix.has_canonical_format
        assert np.all(gen.matrix.data != 0)
        for m in storage_inputs(gen.matrix):
            sup = lr.Superoperator(m, gen.sites, gen.dims)
            assert sup.matrix.format == "csr" and sup.matrix.has_canonical_format
            assert all(map(np.array_equal, csr_arrays(sup.matrix), csr_arrays(gen.matrix)))
            assert len(sup._blocks) == len(gen._blocks)
            assert all(map(np.array_equal, sup._blocks, gen._blocks))
            assert np.array_equal(sup.spectrum, gen.spectrum)

    def test_canonical_csr_is_kept(self, chain4):
        gen = lr.generator(lr.tfim_dissipative(chain4, 0.4, 0.3, 1.0))
        assert gen.matrix.format == "csr"
        assert lr.Superoperator(gen.matrix, gen.sites, gen.dims).matrix is gen.matrix

    def test_stored_zero_is_dropped_from_a_copy(self):
        m = scipy.sparse.csr_matrix(np.diag([1.0, 0.0, 2.0, 3.0]).astype(complex))
        m.data[0] = 0.0
        sup = lr.Superoperator(m, (0,), (2,))
        assert sup.matrix is not m and sup.matrix.nnz == 2 and m.nnz == 3
        assert np.array_equal(sup.matrix.toarray(), m.toarray())


class TestSupNormAndRange:
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
