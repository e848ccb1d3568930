"""Operator algebra conventions: embedding order, vectorization, observation maps."""
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcert as lr
from lrcert import model, qalgebra
from lrcert.harness import load_config
from lrcert.qalgebra import AlgebraError, PAULI

ROOT = Path(__file__).resolve().parent.parent
PINNED_CONFIGS = (ROOT / "docs" / "tfim_dissipative.json",
                  ROOT / "tests" / "data" / "all_theorems.json")


def rand_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def digit_permutation(src_sites, dst_sites, dst_dims):
    """The reference for ``_basis_permutation``: every destination index
    unravelled into one digit per site and re-ravelled in the source order."""
    pos = {s: k for k, s in enumerate(dst_sites)}
    src_order = [pos[s] for s in src_sites]
    digits = np.unravel_index(np.arange(int(np.prod(dst_dims))), dst_dims)
    return np.ravel_multi_index([digits[k] for k in src_order],
                                tuple(dst_dims[k] for k in src_order))


class TestEmbed:
    @given(data=st.data(), n=st.integers(1, 6), tuple_sites=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_basis_permutation_equals_digit_permutation(self, data, n, tuple_sites):
        sites = [(k // 2, k % 2) if tuple_sites else k for k in range(n)]
        src = tuple(data.draw(st.permutations(sites)))
        dst = tuple(data.draw(st.permutations(sites)))
        dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        got = qalgebra._basis_permutation(src, dst, dims)
        want = digit_permutation(src, dst, dims)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_identity_embeds_to_identity(self):
        ident = lr.identity((1,))
        out = lr.embed(ident, (0, 1, 2))
        np.testing.assert_allclose(out.matrix, np.eye(8))

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        a = lr.from_matrix(rand_matrix(rng, 2), (1,))
        out = lr.embed(a, (0, 1, 2))
        assert lr.op_norm(out) == pytest.approx(lr.op_norm(a), rel=1e-12)

    def test_first_site_is_leftmost_factor(self):
        out = lr.embed(lr.site_operator("Z", 0), (0, 1))
        np.testing.assert_allclose(out.matrix, np.diag([1, 1, -1, -1]))

    def test_second_site_is_rightmost_factor(self):
        out = lr.embed(lr.site_operator("Z", 1), (0, 1))
        np.testing.assert_allclose(out.matrix, np.kron(np.eye(2), PAULI["Z"]))

    def test_interleaved_two_site_op(self):
        rng = np.random.default_rng(4)
        m = rand_matrix(rng, 4)
        op = lr.from_matrix(m, (0, 2))
        out = lr.embed(op, (0, 1, 2))
        # direct construction: reorder (0,2,1) -> (0,1,2) via swap of last two qubits
        swap = np.eye(8)[[0, 2, 1, 3, 4, 6, 5, 7]]
        np.testing.assert_allclose(out.matrix, swap @ np.kron(m, np.eye(2)) @ swap.T,
                                   atol=1e-14)

    def test_star_homomorphism(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = lr.from_matrix(rand_matrix(rng, 4), (1, 2))
            b = lr.from_matrix(rand_matrix(rng, 4), (1, 2))
            vol = (0, 1, 2)
            np.testing.assert_allclose(lr.embed(a @ b, vol).matrix,
                                       (lr.embed(a, vol) @ lr.embed(b, vol)).matrix,
                                       atol=1e-12)
            a_dagger = lr.from_matrix(a.matrix.conj().T, a.sites)
            np.testing.assert_allclose(lr.embed(a_dagger, vol).matrix,
                                       lr.embed(a, vol).matrix.conj().T, atol=1e-14)

    def test_acts_trivially_outside_support(self):
        rng = np.random.default_rng(6)
        a = lr.from_matrix(rand_matrix(rng, 2), (1,))
        out = lr.embed(a, (0, 1))
        # partial trace over the support reproduces tr(a) * identity / scale
        m = out.matrix.reshape(2, 2, 2, 2)
        reduced = np.einsum("ikjk->ij", m)
        np.testing.assert_allclose(reduced, np.trace(a.matrix) * np.eye(2), atol=1e-12)

    def test_qutrit_site(self):
        a = lr.from_matrix(np.diag([1.0, 2.0, 3.0]), (0,), dims=(3,))
        out = lr.embed(a, (0, 1), dims=(3, 2))
        assert out.matrix.shape == (6, 6)
        np.testing.assert_allclose(np.diag(out.matrix),
                                   [1, 1, 2, 2, 3, 3])

    def test_site_not_in_volume_rejected(self):
        with pytest.raises(AlgebraError):
            lr.embed(lr.site_operator("X", 9), (0, 1))

    @pytest.mark.parametrize("dims", [3, {0: 3, 1: 2}], ids=["int", "mapping"])
    def test_dims_not_in_site_order_rejected(self, dims):
        # dims is one local dimension per site, in site order; a mapping
        # would be read by its keys and an int is no sequence at all
        with pytest.raises(AlgebraError, match="sequence in site order"):
            lr.identity((0, 1), dims=dims)


class TestOpNorm:
    def test_identity(self):
        assert lr.op_norm(lr.identity((0, 1))) == pytest.approx(1.0)

    def test_pauli(self):
        assert lr.op_norm(lr.site_operator("X", 0)) == pytest.approx(1.0)

    def test_shifted_zz(self):
        zz = lr.embed(lr.site_operator("Z", 0), (0, 1)) \
            @ lr.embed(lr.site_operator("Z", 1), (0, 1))
        shifted = zz + 0.5 * lr.identity((0, 1))
        assert lr.op_norm(shifted) == pytest.approx(1.5, rel=1e-12)


class TestVectorize:
    def test_identity_column_stacking(self):
        np.testing.assert_allclose(lr.vectorize(lr.identity((0,))), [1, 0, 0, 1])

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        a = lr.from_matrix(rand_matrix(rng, 4), (0, 1))
        back = lr.devectorize(lr.vectorize(a), (0, 1))
        np.testing.assert_array_equal(back.matrix, a.matrix)

    def test_sandwich_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            x, a, y = (rand_matrix(rng, 2) for _ in range(3))
            lhs = (x @ a @ y).flatten(order="F")
            rhs = np.kron(y.T, x) @ a.flatten(order="F")
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_frobenius_isometry(self):
        rng = np.random.default_rng(9)
        a = rand_matrix(rng, 4)
        assert np.linalg.norm(a.flatten(order="F")) == pytest.approx(
            np.linalg.norm(a, "fro"), rel=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(AlgebraError):
            lr.devectorize(np.zeros(5), (0,))


class TestCommutatorMap:
    def test_central_element(self):
        k = lr.commutator_map(lr.identity((0,)))
        assert k.cb_upper == pytest.approx(2.0)
        assert k.cb_lower == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(k.matrix, 0)

    def test_pauli_probe_attains_upper(self):
        k = lr.commutator_map(lr.embed(lr.site_operator("Z", 0), (0,)))
        assert k.cb_upper == pytest.approx(2.0)
        assert k.cb_lower == pytest.approx(2.0, rel=1e-12)

    def test_kills_identity(self):
        b = lr.embed(lr.site_operator("Y", 1), (0, 1))
        k = lr.commutator_map(b)
        out = lr.apply_map(k, lr.identity((0, 1)))
        assert lr.op_norm(out) <= 1e-12

    def test_pauli_commutator(self):
        k = lr.commutator_map(lr.site_operator("Z", 0))
        out = lr.apply_map(k, lr.site_operator("X", 0))
        np.testing.assert_allclose(out.matrix, 2j * PAULI["Y"], atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(10)
        b = lr.from_matrix(rand_matrix(rng, 4), (0, 1))
        k = lr.commutator_map(b)
        a1 = lr.from_matrix(rand_matrix(rng, 4), (0, 1))
        a2 = lr.from_matrix(rand_matrix(rng, 4), (0, 1))
        lhs = lr.apply_map(k, a1 + 2.0 * a2)
        rhs = lr.apply_map(k, a1) + 2.0 * lr.apply_map(k, a2)
        np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-12)

    def test_bracket_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            b = lr.from_matrix(rand_matrix(rng, 2), (0,))
            k = lr.commutator_map(b)
            assert k.cb_lower <= k.cb_upper + 1e-12
            assert k.cb_lower <= 2 * lr.op_norm(b) + 1e-12


class TestGeneralMap:
    def test_explicit_matrix(self):
        b = lr.site_operator("Z", 0)
        kc = lr.commutator_map(b)
        kg = lr.general_map(kc.matrix, (0,))
        assert kg.cb_lower <= kg.cb_upper
        out = lr.apply_map(kg, lr.site_operator("X", 0))
        np.testing.assert_allclose(out.matrix, 2j * PAULI["Y"], atol=1e-14)

    def test_factorized_upper_is_valid(self):
        # probed lower bound can never exceed the factorization upper bound
        rng = np.random.default_rng(12)
        for _ in range(4):
            m = rand_matrix(rng, 4)
            ident = np.eye(2).flatten(order="F")
            m = m - np.outer(m @ ident, ident) / 2.0  # make it kill the identity
            k = lr.general_map(m, (0,))
            assert k.cb_lower <= k.cb_upper + 1e-10

    def test_supplied_upper_below_a_probe_rejected(self):
        m = lr.commutator_map(lr.site_operator("Z", 3)).matrix
        with pytest.raises(AlgebraError, match="a probe reaches 2, above cb_upper 0.5"):
            lr.general_map(m, (3,), cb_upper=0.5)
        k = lr.general_map(m, (3,), cb_upper=2.0)
        assert (k.cb_upper, k.cb_lower) == (2.0, 2.0)

    def test_identity_annihilation_enforced(self):
        with pytest.raises(AlgebraError, match="identity"):
            lr.general_map(np.eye(4), (0,))

    def test_wrong_shape_rejected(self):
        with pytest.raises(AlgebraError, match="shape"):
            lr.general_map(np.zeros((4, 4)), (0, 1))


def per_probe_cb_lower(matrix, sites, dims, seed, upper):
    """The probe loop the batched ``probed_cb_lower`` replaced: one embedded
    probe, one product and two norms at a time."""
    probes = [lr.embed(lr.site_operator(letter, s), sites, dims)
              for s, d in zip(sites, dims) if d == 2 for letter in ("X", "Y", "Z")]
    dim = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    for _ in range(4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(g)
        probes.append(lr.from_matrix(q * (np.diag(r) / np.abs(np.diag(r))), sites, dims=dims))
    ratios = [lr.op_norm(lr.devectorize(matrix @ lr.vectorize(p), sites, dims)) / lr.op_norm(p)
              for p in probes]
    return min(max(ratios), upper)


def probed_terms():
    for path in PINNED_CONFIGS:
        yield from load_config(path).interaction.terms
    for n in (3, 4):
        yield from lr.harness.random_model(50 + n, n_sites=n).interaction.terms


class TestProbedCbLower:
    def test_batched_equals_probe_loop(self):
        terms = list(probed_terms())
        assert len(terms) > 20
        for term in terms:
            assert term.cb_lower == per_probe_cb_lower(
                term.superop, term.sites, term.dims, 99, term.cb_upper)
        b = lr.from_matrix(rand_matrix(np.random.default_rng(13), 4), (2, 5))
        k = lr.commutator_map(b)
        assert k.cb_lower == per_probe_cb_lower(k.matrix, (2, 5), (2, 2), 2024, k.cb_upper)

    def test_probe_stack_built_once_read_only(self):
        stack, norms = qalgebra._probe_stack((2, 2), 99)
        assert qalgebra._probe_stack((2, 2), 99)[0] is stack
        assert stack.shape == (10, 4, 4) and norms.shape == (10,)
        for array in (stack, norms):
            with pytest.raises(ValueError):
                array[0] = 0.0


def random_term(rng, sites):
    """A Lindblad term on the ordered ``sites``: its Heisenberg superoperator
    kills the identity, so it is an observation map on those sites."""
    d = 2 ** len(sites)
    h = rand_matrix(rng, d) / d
    return lr.LindbladTerm(frozenset(sites), lr.from_matrix(h + h.conj().T, sites),
                           (lr.from_matrix(rand_matrix(rng, d) / d, sites),))


class TestApplyMap:
    @pytest.mark.parametrize("own, volume", [
        ((1, 3), (0, 1, 2, 3)),      # interleaved, non-adjacent
        ((3, 1), (0, 1, 2, 3)),      # the map's own order reversed
        ((1, 3), (2, 3, 0, 1)),      # a volume in permuted order
        ((2,), (3, 0, 2, 1)),
        ((0, 1, 2, 3), (0, 1, 2, 3)),
    ])
    def test_matches_csr_embedding(self, own, volume):
        rng = np.random.default_rng(41)
        dims = (2,) * len(volume)
        for _ in range(3):
            term = random_term(rng, own)
            k = lr.general_map(model.own_superop(term), own)
            assert k.matrix.shape == (4 ** len(own),) * 2
            a = lr.from_matrix(rand_matrix(rng, 16), volume)
            want = model.local_superop(term, volume, dims) @ lr.vectorize(a)
            got = lr.vectorize(lr.apply_map(k, a))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_commutator_on_a_larger_volume(self):
        rng = np.random.default_rng(42)
        b = lr.from_matrix(rand_matrix(rng, 4), (3, 1))
        a = lr.from_matrix(rand_matrix(rng, 16), (0, 1, 2, 3))
        big_b = lr.embed(b, a.sites)
        want = big_b.matrix @ a.matrix - a.matrix @ big_b.matrix
        got = lr.apply_map(lr.commutator_map(b), a).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_sites_outside_the_volume_rejected(self):
        k = lr.commutator_map(lr.site_operator("Z", 5))
        with pytest.raises(AlgebraError, match="volume"):
            lr.apply_map(k, lr.identity((0, 1)))

    def test_dimension_mismatch_rejected(self):
        k = lr.commutator_map(lr.site_operator("Z", 0))
        with pytest.raises(AlgebraError, match="volume"):
            lr.apply_map(k, lr.identity((0, 1), dims=(3, 2)))
