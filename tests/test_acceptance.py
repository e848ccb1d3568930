"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line (visible with ``pytest -s``).  The
mixing-coefficient threshold check is a strict expected failure: its certified
*lower* bound already exceeds the threshold at these parameters, so no valid
upper bound can meet it; see the reason string on the marker.
"""
import math
import time

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import lrcert as lr
from lrcert import bounds, correlations, dynamics, qalgebra
from lrcert.bounds import ModelConstants
from lrcert.decay import FFunction

from conftest import mixed_field_chain
from test_decay import mp_exp_tail

SLACK = 1e-9


def conclude(name, failures, extra=""):
    status = "FAIL" if failures else "PASS"
    suffix = f" ({extra})" if extra else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert not failures, f"{name}: {len(failures)} failures, first: {failures[:3]}"


def dominated(lhs, rhs):
    return lhs <= rhs + SLACK * max(1.0, rhs)


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_1_semigroup_validity(model_pool):
    started = time.perf_counter()
    failures = []
    ts = [0.0, 0.1, 0.5, 1.0, 2.0]
    for idx, m in enumerate(model_pool):
        gen = lr.generator(m.interaction)
        ident = lr.identity(m.space.points)
        props = {t: lr.propagator(gen, t) for t in ts}
        for t in ts:
            unital = lr.op_norm(dynamics.apply_superop(props[t], ident) - ident)
            if unital > 1e-10:
                failures.append((idx, t, "unitality", unital))
            schro = lr.Superoperator(props[t].matrix.conj().T, gen.sites, gen.dims,
                                     "schrodinger")
            cmin = dynamics.choi_min_eigenvalue(schro)
            if cmin < -1e-10:
                failures.append((idx, t, "choi", cmin))
        for s, t in ((0.1, 0.5), (0.5, 1.0), (1.0, 2.0)):
            combined = lr.propagator(gen, s + t).matrix
            err = np.linalg.norm(combined - props[s].matrix @ props[t].matrix, 2)
            if err > 1e-10 * max(1.0, np.linalg.norm(combined, 2)):
                failures.append((idx, (s, t), "semigroup", err))
    conclude("criterion 1 (semigroup validity)", failures,
             f"{len(model_pool)} models, {time.perf_counter() - started:.1f}s")


# -- criterion 2 -------------------------------------------------------------------


def test_criterion_2_quasi_locality_domination(model_pool, pool_constants):
    started = time.perf_counter()
    failures = []
    rows = 0
    for idx, (m, c) in enumerate(zip(model_pool, pool_constants)):
        sites = m.space.points
        if len(sites) < 3:
            continue
        a = lr.embed(m.a_local, sites)
        dyn = lr.Dynamics(m.interaction)
        t_grid = np.linspace(0.0, 2.0 / c.v, 8)
        targets = [y for y in sites
                   if m.space.d(sites[0], y) in (2.0, 3.0, 4.0)]
        for y in targets:
            k = lr.commutator_map(lr.site_operator("Z", y))
            xs, ys = {sites[0]}, {y}
            for t in t_grid:
                lhs_full = dyn.quasi_locality(t, a, k)
                rhs_full = bounds.rhs_full_lrb(c, k.cb_upper, a.norm(), xs, ys, t)
                rows += 1
                if not dominated(lhs_full, rhs_full):
                    failures.append((idx, y, t, "static", lhs_full, rhs_full))
                for R in (1.0, 2.0, 3.0):
                    lhs_r = dyn.quasi_locality(t, a, k, R)
                    rhs_r = bounds.rhs_finite_range_lrb(c, k.cb_upper, a.norm(),
                                                        xs, ys, t, R)
                    rows += 1
                    if not dominated(lhs_r, rhs_r):
                        failures.append((idx, y, t, R, "finite-range", lhs_r, rhs_r))
    conclude("criterion 2 (quasi-locality domination)", failures,
             f"{rows} rows, {time.perf_counter() - started:.1f}s")


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_3_truncation_and_locality(model_pool, pool_constants):
    started = time.perf_counter()
    failures = []
    rows = 0
    for idx, (m, c) in enumerate(zip(model_pool, pool_constants)):
        sites = m.space.points
        a = lr.embed(m.a_local, sites)
        xs = {sites[0]}
        dyn = lr.Dynamics(m.interaction)
        t_grid = np.linspace(0.0, 2.0 / c.v, 8)
        k = None
        if len(sites) >= 3:
            k = lr.commutator_map(m.b_local)
        for t in t_grid:
            for R in (1.0, 2.0, 3.0):
                lhs_tr = dyn.truncation_error(t, a, R)
                if R >= c.r0 and lhs_tr > 1e-10:
                    failures.append((idx, t, R, "saturation", lhs_tr))
                for r in (1.0, 2.0):
                    rhs_tr = bounds.rhs_range_truncation(c, a.norm(), xs, t, r, R)
                    rows += 1
                    if not dominated(lhs_tr, rhs_tr):
                        failures.append((idx, t, R, r, "truncation", lhs_tr, rhs_tr))
                    if k is not None:
                        head = dyn.quasi_locality(t, a, k, R)
                        rhs_comp = bounds.rhs_composite_lrb(
                            c, k.cb_upper, a.norm(), xs, t, r, R, head)
                        lhs_comp = dyn.quasi_locality(t, a, k)
                        rows += 1
                        if not dominated(lhs_comp, rhs_comp):
                            failures.append((idx, t, R, r, "composite",
                                             lhs_comp, rhs_comp))
            for r in (1.0, 2.0):
                lhs_loc = dyn.local_error(t, a, xs, r)
                wv = bounds.rhs_local_approx(c, a.norm(), xs, t, r)
                rows += 1
                if wv.valid and not dominated(lhs_loc, wv.value):
                    failures.append((idx, t, r, "local", lhs_loc, wv.value))
        for r in (1.0, 2.0):
            rep = bounds.BoundReport("surface_sum", {},
                                     *bounds.surface_sum_check(c, xs, r, sites[0]))
            rows += 1
            if not rep.passes():
                failures.append((idx, r, "surface", rep.lhs, rep.rhs))
    conclude("criterion 3 (truncation and locality errors)", failures,
             f"{rows} rows, {time.perf_counter() - started:.1f}s")


# -- criterion 4 -------------------------------------------------------------------


def test_criterion_4_static_recovery(model_pool, pool_constants):
    failures = []
    for idx, (m, c) in enumerate(zip(model_pool, pool_constants)):
        sites = m.space.points
        if len(sites) < 2:
            continue
        xs, ys = {sites[0]}, {sites[-1]}
        a_norm = 1.0
        k_cb = 2.0
        R = 2.0 * m.space.diam
        for t in np.linspace(0.0, 2.0 / c.v, 8):
            head = bounds.rhs_finite_range_lrb(c, k_cb, a_norm, xs, ys, t, R)
            comp = bounds.rhs_composite_lrb(c, k_cb, a_norm, xs, t, 1.0, R, head)
            if comp != head:  # the additive bracket must be exactly zero
                failures.append((idx, t, "collapse", comp, head))
            full = bounds.rhs_full_lrb(c, k_cb, a_norm, xs, ys, t)
            if head > full * (1.0 + 1e-12) + 1e-300:
                failures.append((idx, t, "ordering", head, full))
    conclude("criterion 4 (static-bound recovery)", failures)


# -- criterion 5 -------------------------------------------------------------------


@pytest.fixture(scope="module")
def power_law_suite():
    space, f, inter = mixed_field_chain(5, alpha=4.0, j=0.3, h=0.25, gamma=1.0)
    c = ModelConstants.from_model(f, inter, nu=1.0)
    return space, f, inter, c, lr.Dynamics(inter)


def test_criterion_5_power_law_theorems(power_law_suite):
    started = time.perf_counter()
    space, f, inter, c, dyn = power_law_suite
    eps, delta, eta_exp = 0.5, 0.3, 0.02
    failures = []
    rows = 0

    # constants against the arbitrary-precision formula oracle
    with mpmath.workdps(60):
        ce = mpmath.zeta(1 + mpmath.mpf(eps))
        a_eps = mpmath.mpf(c.f.alpha) - c.nu - 1 - mpmath.mpf(eps)
        c_oracle = c.kappa * ce * c.l_fnorm * (
            mpmath.e + 2 ** (2 * a_eps) * mpmath.mpf(2) ** (1 - delta)
            * (ce + c.conv) / c.conv)
        c2_oracle = (c.kappa * ce / c.conv) * (
            c.kappa * 2 ** (2 * a_eps) * mpmath.mpf(2) ** (1 - delta)
            * (ce + c.conv) + mpmath.e * (c.conv + c.fnorm))
    c_got = bounds.power_law_lrb_constant(c, eps, delta)
    c2_got = bounds.local_approx_constant(c, eps, delta)
    if abs(c_got - float(c_oracle)) > 1e-12 * float(c_oracle):
        failures.append(("constant", c_got, float(c_oracle)))
    if abs(c2_got - float(c2_oracle)) > 1e-12 * float(c2_oracle):
        failures.append(("constant2", c2_got, float(c2_oracle)))

    sites = space.points
    a = lr.embed(lr.site_operator("Z", 0), sites)
    b = lr.embed(lr.site_operator("Z", 4), sites)
    k = lr.commutator_map(lr.site_operator("Z", 4))
    xs, ys = {0}, {4}
    d = 4.0

    for t in np.linspace(0.0, d ** delta / (math.e * c.v), 6):
        wv = bounds.rhs_power_law_lrb(c, k.cb_upper, a.norm(), 1, d, t, eps, delta)
        rows += 1
        if not wv.valid:
            continue
        lhs = dyn.quasi_locality(t, a, k)
        if not dominated(lhs, wv.value):
            failures.append(("power-law lrb", t, lhs, wv.value))

    for r in (1.0, 2.0):
        for t in np.linspace(0.0, r ** delta / (math.e * c.v), 4):
            wv = bounds.rhs_local_approx_power_law(c, a.norm(), 1, r, t, eps, delta)
            rows += 1
            if not wv.valid:
                continue
            lhs = dyn.local_error(t, a, xs, r)
            if not dominated(lhs, wv.value):
                failures.append(("local power-law", r, t, lhs, wv.value))

    r = 1.0
    for t in np.linspace(0.0, r ** delta / (math.e * c.v), 4):
        wv = bounds.rhs_correlation_power_law(c, a.norm(), b.norm(), 1, 1, r, t,
                                              eps, delta)
        rows += 1
        if not wv.valid:
            continue
        lhs = lr.c_ab(dyn, xs, ys, r, t, a, b)
        if not dominated(lhs, wv.value):
            failures.append(("correlation power-law", t, lhs, wv.value))

    # fixed-point power-law bound against the exact stationary correlation
    t_point = d ** eta_exp / (math.e * c.v * 2.0 ** eta_exp)
    analysis = lr.analyze_fixed_point(lr.generator(inter), [t_point, 1.0, 2.0, 4.0])
    rho_pi = analysis.rho_pi
    env_c, env_gamma = analysis.envelope_c, analysis.gap
    g = lambda t: min(2.0, env_c * math.exp(-env_gamma * t))
    lhs_fp = abs(rho_pi.expect(a @ b) - rho_pi.expect(a) * rho_pi.expect(b))
    rhs_fp = bounds.rhs_fixed_point_power_law(c, a.norm(), b.norm(), 1, 1, d,
                                              eps, delta, eta_exp, g)
    rows += 1
    if not dominated(lhs_fp, rhs_fp):
        failures.append(("fixed-point power-law", lhs_fp, rhs_fp))

    conclude("criterion 5 (power-law theorems)", failures,
             f"{rows} rows, {time.perf_counter() - started:.1f}s")


# -- criterion 6 -------------------------------------------------------------------


def test_criterion_6_correlation_decay(model_pool, pool_constants):
    started = time.perf_counter()
    failures = []
    rows = 0
    for idx, (m, c) in enumerate(zip(model_pool, pool_constants)):
        sites = m.space.points
        if len(sites) != 4:
            continue  # strict factorization window 2r < d needs d = 3 at r = 1
        xs, ys = {sites[0]}, {sites[-1]}
        a = lr.embed(m.a_local, sites)
        b = lr.embed(m.b_local, sites)
        omega = correlations.StateFunctional.product(sites, "+")
        dyn = lr.Dynamics(m.interaction)
        for t in np.linspace(0.0, 2.0 / c.v, 8):
            corr = abs(lr.correlation(omega, dyn, t, a, b))
            defect = lr.c_ab(dyn, xs, ys, 1.0, t, a, b)
            wv = bounds.rhs_correlation_general(c, a.norm(), b.norm(), xs, ys, t, 1.0)
            rows += 1
            if not dominated(corr, defect):
                failures.append((idx, t, "correlation vs defect", corr, defect))
            if not dominated(defect, wv.value):
                failures.append((idx, t, "defect vs bound", defect, wv.value))
    conclude("criterion 6 (correlation decay)", failures,
             f"{rows} rows, {time.perf_counter() - started:.1f}s")


# -- criterion 7 -------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixed_point_suite():
    space = lr.FiniteMetricSpace.chain(4)
    inter = lr.tfim_dissipative(space, j=0.2, h=0.0, gamma=1.0)
    gen = lr.generator(inter)
    # one analysis for the gap, the envelope and every eta bracket
    t_grid = np.linspace(0.0, 8.0, 16)
    analysis = lr.analyze_fixed_point(gen, t_grid)
    rho_pi, gap = analysis.rho_pi, analysis.gap
    env_c, env_gamma, samples = lr.convergence_envelope(analysis, n_starts=8, seed=11)
    eta = [(t, *lr.mixing_eta(analysis, t, n_starts=64, seed=23)) for t in t_grid]
    return space, inter, gen, rho_pi, gap, env_c, env_gamma, samples, eta


def test_criterion_7_fixed_point_suite(fixed_point_suite):
    started = time.perf_counter()
    space, inter, gen, rho_pi, gap, env_c, env_gamma, samples, eta = fixed_point_suite
    failures = []

    if abs(np.trace(rho_pi.density).real - 1.0) > 1e-10:
        failures.append(("trace", np.trace(rho_pi.density)))
    if float(np.min(np.linalg.eigvalsh(rho_pi.density))) < -1e-10:
        failures.append(("psd",))
    if not gap > 0:
        failures.append(("gap", gap))

    for t, lo, up in samples:
        if lo > up * (1 + 1e-12):
            failures.append(("envelope bracket", t, lo, up))
        if up > env_c * math.exp(-env_gamma * t) * (1 + 1e-12):
            failures.append(("envelope certificate", t, up))

    for t, lo, up in eta:
        if lo > up * (1 + 1e-12):
            failures.append(("eta bracket", t, lo, up))

    sites = space.points
    a = lr.embed(lr.site_operator("Z", 0), sites)
    b = lr.embed(lr.site_operator("Z", 3), sites)
    omega = correlations.StateFunctional.product(sites, "+")
    g = lambda t: min(2.0, env_c * math.exp(-env_gamma * t))
    dyn = lr.Dynamics(inter)
    lhs_fp = abs(rho_pi.expect(a @ b) - rho_pi.expect(a) * rho_pi.expect(b))
    for t in (0.5, 2.0, 6.0):
        rhs = abs(lr.correlation(omega, dyn, t, a, b)) \
            + 3.0 * lr.op_norm(a) * lr.op_norm(b) * float(g(t))
        rep = bounds.BoundReport("fixed_point_correlation", {}, lhs_fp, rhs)
        if not rep.passes():
            failures.append(("fixed-point correlation", t, rep.lhs, rep.rhs))

    f0 = FFunction.power(3.0)
    c_a = ModelConstants.from_model(FFunction.weighted(1.0, f0), inter, nu=1.0)
    rhs_fp = bounds.rhs_fixed_point_exponential(c_a, lr.f_norm(f0, space), a.norm(),
                                                b.norm(), 1, 1, 3.0, g)
    if not dominated(lhs_fp, rhs_fp):
        failures.append(("exponential clustering", lhs_fp, rhs_fp))

    conclude("criterion 7 (fixed-point suite)", failures,
             f"gap={gap:.3f}, c={env_c:.2f}, {time.perf_counter() - started:.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable at these parameters: the slowest Liouvillian mode is a "
           "single-site coherence decaying at rate gamma/2 = 0.5, so the certified "
           "lower bound on the mixing coefficient at t = 8 is already ~1.6e-2 > 1e-3; "
           "no valid upper bound can cross below the threshold on this grid")
def test_criterion_7_eta_upper_reaches_threshold(fixed_point_suite):
    *_, eta = fixed_point_suite
    t_end, _, up_end = eta[-1]
    print(f"[acceptance] criterion 7 (eta threshold at t={t_end:g}): "
          f"{'PASS' if up_end < 1e-3 else 'FAIL'} (upper={up_end:.3e}, threshold=1e-3)")
    assert up_end < 1e-3


# -- criterion 8 -------------------------------------------------------------------


def test_criterion_8_spectral_identities():
    failures = []
    # growth-bound identity on a mixing chain: rad(exp(L restricted)) = e^{omega0}
    space = lr.FiniteMetricSpace.chain(3)
    inter = lr.tfim_dissipative(space, j=0.3, h=0.2, gamma=1.0)
    gen = lr.generator(inter)
    gap, omega0 = lr.spectral_gap(gen)  # verifies the identity at 1e-8 internally
    w, v = np.linalg.eig(gen.matrix)
    zero_idx = int(np.argmin(np.abs(w)))
    proj = np.outer(v[:, zero_idx], np.linalg.inv(v)[zero_idx, :])
    restricted = scipy.linalg.expm(gen.matrix) @ (np.eye(len(w)) - proj)
    rad = float(np.max(np.abs(np.linalg.eigvals(restricted))))
    if abs(rad - math.exp(omega0)) > 1e-8 * math.exp(omega0):
        failures.append(("growth bound", rad, math.exp(omega0)))

    # periodic-point detector on the purely Hamiltonian single qubit
    from lrcert.model import DissipativeInteraction, LindbladTerm
    h = qalgebra.from_matrix(np.diag([1.0, -1.0]), (0,))
    ham_only = DissipativeInteraction(
        lr.FiniteMetricSpace.chain(1),
        (LindbladTerm(frozenset([0]), h, ()),))
    pts = lr.periodic_points(lr.generator(ham_only))
    by_imag = {round(im, 6): mult for im, mult in pts}
    for lam in (2.0, -2.0):
        match = [(im, mult) for im, mult in pts if abs(im - lam) <= 1e-10]
        if not match or match[0][1] != 1:
            failures.append(("periodic point", lam, pts))
    conclude("criterion 8 (spectral identities)", failures,
             f"rad={rad:.12f}, spectrum={sorted(by_imag)}")


# -- criterion 9 -------------------------------------------------------------------


def test_criterion_9_numerical_kernels():
    started = time.perf_counter()
    failures = []

    for t in np.linspace(0.0, 10.0, 11):
        for k in range(21):
            got = lr.exp_tail(float(t), float(k))
            want = float(mp_exp_tail(float(t), k))
            if want == 0.0:
                ok = got == 0.0
            else:
                ok = abs(got - want) <= 1e-12 * want
            if not ok:
                failures.append(("series tail", t, k, got, want))

    rng = np.random.default_rng(17)
    for seed in range(3):
        m = lr.harness.random_model(7000 + seed, n_sites=2)
        gen = lr.generator(m.interaction)
        y0 = (rng.normal(size=16) + 1j * rng.normal(size=16))
        sol = scipy.integrate.solve_ivp(lambda t, y: gen.matrix @ y, (0.0, 0.8), y0,
                                        method="DOP853", rtol=1e-11, atol=1e-12)
        got = lr.propagator(gen, 0.8).matrix @ y0
        err = np.linalg.norm(got - sol.y[:, -1])
        if err > 1e-8 * max(1.0, np.linalg.norm(sol.y[:, -1])):
            failures.append(("propagator vs integrator", seed, err))

    for seed in range(4):
        rng2 = np.random.default_rng(800 + seed)
        x, a, y = (rng2.normal(size=(2, 2)) + 1j * rng2.normal(size=(2, 2))
                   for _ in range(3))
        lhs = (x @ a @ y).flatten(order="F")
        rhs = np.kron(y.T, x) @ a.flatten(order="F")
        if np.max(np.abs(lhs - rhs)) > 1e-14:
            failures.append(("vectorization identity", seed))

    conclude("criterion 9 (numerical kernels)", failures,
             f"{time.perf_counter() - started:.1f}s")
