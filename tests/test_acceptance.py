"""Acceptance suite: one test (or tightly scoped test group) per criterion.

Each criterion prints a PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  Tolerances are pinned here, not configurable.

Criterion 3 checks the Kerr-dip spot value at chi t = pi/2, k = 0,
alpha1 = alpha2 = 0.4.  There the mode-1 operator is B = e^{-i theta N} a1 with
theta = 2 chi t = pi, and the coherent-state kernel
<alpha| e^{i lam n} |alpha> = exp(alpha^2 (e^{i lam} - 1)) gives
<B> = alpha1 exp(-2 (alpha1^2 + alpha2^2)), <B^2> = -alpha1^2 and
<B+ B> = alpha1^2, so F = 2 Re<B^2> + 2 <B+ B> - 4 (Re<B>)^2 =
-4 alpha1^2 exp(-4 (alpha1^2 + alpha2^2)) = -0.64 e^{-1.28}.  The quoted value -0.64 e^{-0.64} halves that dephasing
exponent: it is the single-dephasing reduced form (3a pins it to the
unarbitrated closed form).  3b asserts the exact value on the oracle and that
the oracle rejects the quoted one; 3c pins the arbitrated form to the oracle.
"""

import math
import time

import numpy as np
import pytest

from kerrdown import (
    DConvention,
    SqueezeKind,
    SystemParams,
    moments_for,
    quad_core,
)
from kerrdown.cli import write_figure
from kerrdown.fock_oracle import OracleConfig, moment_set_numeric
from kerrdown.squeezing_analytic import factors, single_mode_extremum
from kerrdown.verify import conservation_checks, grid_params, grid_times, run_verification

TOL_PAIR = 1e-10
TOL_ORACLE = 1e-6


def _line(tag, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")


@pytest.fixture(scope="module")
def verification():
    t0 = time.monotonic()
    report = run_verification()
    elapsed = time.monotonic() - t0
    return report, elapsed


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"missing check {name}")


def test_criterion_1_cross_engine_equality(verification):
    report, elapsed = verification
    am = _check(report, "analytic vs moments route")
    ao = _check(report, "analytic vs oracle")
    mo = _check(report, "moments route vs oracle")
    ok = (
        am.value <= TOL_PAIR
        and ao.value <= TOL_ORACLE
        and mo.value <= TOL_ORACLE
        and elapsed < 120.0
    )
    _line(
        "criterion 1 cross-engine equality",
        ok,
        f"|analytic-moments|={am.value:.2e} (<=1e-10), "
        f"|analytic-oracle|={ao.value:.2e} (<=1e-6), "
        f"|moments-oracle|={mo.value:.2e}, runtime={elapsed:.1f}s (<120s)",
    )
    assert am.value <= TOL_PAIR
    assert ao.value <= TOL_ORACLE
    assert mo.value <= TOL_ORACLE
    assert elapsed < 120.0


def test_criterion_2_sum_identity_at_zero_gain(grid_times):
    worst = 0.0
    cfg = OracleConfig()
    for chi in (0.25, 0.5):
        for a1, a2 in ((0.4, 0.0), (0.4, 0.4), (0.2, 0.3)):
            p = SystemParams(chi, 0.0, a1, a2)
            for t in grid_times:
                f_a, g_a, _ = factors(p, float(t), SqueezeKind.SUM)
                m = moments_for(p, float(t), SqueezeKind.SUM)
                mo = moment_set_numeric(p, float(t), SqueezeKind.SUM, cfg)
                (f_m, g_m, _), (f_o, g_o, _) = quad_core.factors(m), quad_core.factors(mo)
                worst = max(worst, abs(f_a), abs(g_a), abs(f_m), abs(g_m), abs(f_o), abs(g_o))
    ok = worst <= 1e-12
    _line("criterion 2 minimum-uncertainty sum identity", ok, f"max |F|,|G| = {worst:.2e} (<=1e-12)")
    assert ok


_SPOT = -0.64 * math.exp(-0.64)  # quoted reduced-form value at chi t = pi/2


def test_criterion_3_spot_value_matches_quoted_closed_form():
    # the value is the reduced closed form as circulated (single dephasing)
    p = SystemParams(0.5, 0.0, 0.4, 0.4)
    f, _ = single_mode_extremum(p, math.pi, variant="unarbitrated")
    ok = abs(f - _SPOT) <= 1e-12
    _line("criterion 3a spot value vs quoted closed form", ok, f"|diff| = {abs(f - _SPOT):.2e} (<=1e-12)")
    assert ok


def test_criterion_3_spot_value_matches_oracle_as_stated():
    """The Kerr-dip spot value at chi t = pi/2, k = 0, alpha1 = alpha2 = 0.4.

    The oracle's F must sit within 1e-6 of the exact dip
    -4 alpha1^2 exp(-4 (alpha1^2 + alpha2^2) sin^2(chi t)) = -0.64 e^{-1.28},
    derived in the module docstring from the coherent-state kernel.  The
    quoted -0.64 e^{-0.64} carries the single-dephasing defect of the source
    formula, so the oracle must also reject it, by at least 0.1 (the gap is
    0.64 (e^{-0.64} - e^{-1.28}) = 0.160).
    """
    chi, k, a1, a2, t = 0.5, 0.0, 0.4, 0.4, math.pi
    p = SystemParams(chi, k, a1, a2)
    m = moment_set_numeric(p, t, SqueezeKind.SINGLE1, OracleConfig())
    f_oracle = quad_core.factors(m)[0]
    exact = -4.0 * a1**2 * math.exp(-4.0 * (a1**2 + a2**2) * math.sin(chi * t) ** 2)
    gap_exact = abs(f_oracle - exact)
    gap_quoted = abs(f_oracle - _SPOT)
    ok = gap_exact <= 1e-6 and gap_quoted >= 0.1
    _line(
        "criterion 3b spot value on the oracle",
        ok,
        f"oracle F = {f_oracle:.9f}, exact = {exact:.9f}, quoted = {_SPOT:.9f}, "
        f"|F - exact| = {gap_exact:.2e} (<=1e-6), |F - quoted| = {gap_quoted:.2e} (>=0.1)",
    )
    assert gap_exact <= 1e-6
    assert gap_quoted >= 0.1


def test_criterion_3_arbitrated_form_matches_oracle():
    # the arbitrated reduced form does sit on the oracle to 1e-6
    p = SystemParams(0.5, 0.0, 0.4, 0.4)
    f_red, _ = single_mode_extremum(p, math.pi)
    m = moment_set_numeric(p, math.pi, SqueezeKind.SINGLE1, OracleConfig())
    diff = abs(f_red - quad_core.factors(m)[0])
    ok = diff <= 1e-6 and abs(f_red - (-0.64 * math.exp(-1.28))) <= 1e-12
    _line("criterion 3c arbitrated reduced form vs oracle", ok, f"|diff| = {diff:.2e} (<=1e-6)")
    assert ok


def test_criterion_4_pure_gain_limits(grid_times):
    worst = 0.0
    for k in (0.05, 0.1):
        for which, kind in ((1, SqueezeKind.SINGLE1), (2, SqueezeKind.SINGLE2)):
            p = SystemParams(0.0, k, 0.4, 0.2)
            for t in grid_times:
                want = 2.0 * math.sinh(k * t) ** 2
                f_a, g_a, _ = factors(p, float(t), kind)
                f_m, g_m, _ = quad_core.factors(moments_for(p, float(t), kind))
                worst = max(worst, abs(f_a - want), abs(g_a - want), abs(f_m - want), abs(g_m - want))
    two_ok = True
    p = SystemParams(0.0, 0.1, 0.4, 0.0)
    for t in grid_times[1:]:
        if quad_core.factors(moments_for(p, float(t), SqueezeKind.TWO_MODE))[1] >= 0.0:
            two_ok = False
    ok = worst <= 1e-10 and two_ok
    _line(
        "criterion 4 pure-amplifier limits",
        ok,
        f"max |single - 2 sinh^2(kt)| = {worst:.2e} (<=1e-10), two-mode G<0 for t>0: {two_ok}",
    )
    assert worst <= 1e-10
    assert two_ok


def test_criterion_5_typo_arbitration(verification):
    report, _ = verification
    good = _check(report, "single-mode arbitrated variant vs oracle")
    bad = _check(report, "single-mode sin-theta variant vs oracle")
    dephasing = _check(report, "single-mode single-dephasing variant vs oracle")
    unarbitrated = _check(report, "single-mode unarbitrated variant vs oracle")
    ok = (
        good.value <= TOL_ORACLE
        and bad.value >= 1e-3
        and dephasing.passed
        and unarbitrated.passed
    )
    _line(
        "criterion 5 trig-term arbitration",
        ok,
        f"arbitrated max dev = {good.value:.2e} (<=1e-6), "
        f"sin-theta max dev = {bad.value:.2e} (>=1e-3), "
        f"single-dephasing = {dephasing.value:.2e}, unarbitrated = {unarbitrated.value:.2e} "
        f"(>={dephasing.bound:.0e})",
    )
    assert good.value <= TOL_ORACLE
    assert bad.value >= 1e-3
    assert dephasing.passed, dephasing.render()
    assert unarbitrated.passed, unarbitrated.render()


def _grid_min_refined(m):
    """Independent minimization at each time: 3600-point phase grid + parabolic refinement."""
    phis = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    rot = np.exp(-1j * phis)
    b, b_sq, n, d = (x[:, None] for x in (m.mean_b, m.mean_b_sq, m.mean_bdag_b, m.mean_d))
    curve = (
        2.0 * (b_sq * rot * rot).real + 2.0 * n + d - abs(d) - 4.0 * (b * rot).real ** 2
    ) / abs(d)
    i = np.argmin(curve, axis=1)[:, None]
    y1, y2, y3 = (np.take_along_axis(curve, (i + j) % 3600, axis=1)[:, 0] for j in (-1, 0, 1))
    denom = y1 - 2.0 * y2 + y3
    # no refinement where the parabola does not open upwards
    return y2 - (y3 - y1) ** 2 / (8.0 * np.where(denom > 0.0, denom, np.inf))


def test_criterion_6_principal_is_phase_minimum(grid_times):
    worst = 0.0
    worst_env = 0.0
    for p in grid_params():
        for kind in SqueezeKind:
            for conv in (DConvention.NUMBER_SUM, DConvention.COMMUTATOR):
                if conv is DConvention.COMMUTATOR and kind is not SqueezeKind.SUM:
                    continue
                m = moments_for(p, grid_times, kind, conv)
                f, g, v = quad_core.factors(m)
                worst = max(worst, float(np.max(abs(v - _grid_min_refined(m)))))
                worst_env = max(worst_env, float(np.max(v - np.minimum(f, g))))
    ok = worst <= 1e-8 and worst_env <= 1e-10
    _line(
        "criterion 6 principal squeezing minimization",
        ok,
        f"max |V - grid min| = {worst:.2e} (<=1e-8), max V - min(F,G) = {worst_env:.2e} (<=1e-10)",
    )
    assert worst <= 1e-8
    assert worst_env <= 1e-10


def test_criterion_7_conservation_and_unitarity():
    checks = conservation_checks(OracleConfig())
    detail = ", ".join(f"{c.name.removesuffix(' drift')}={c.value:.1e}" for c in checks)
    ok = all(c.passed for c in checks)
    _line("criterion 7 conservation and unitarity", ok, detail)
    for c in checks:
        assert c.passed, c.render()


def test_criterion_8_kerr_periodicity():
    worst = 0.0
    kinds = (SqueezeKind.SINGLE1, SqueezeKind.SINGLE2, SqueezeKind.TWO_MODE)
    for chi in (0.25, 0.5):
        period = math.pi / chi
        for a1, a2 in ((0.4, 0.0), (0.4, 0.4), (0.2, 0.3)):
            p = SystemParams(chi, 0.0, a1, a2)
            for kind in kinds:
                for t in np.linspace(0.0, period, 17):
                    f1, g1, _ = factors(p, float(t), kind)
                    f2, g2, _ = factors(p, float(t) + period, kind)
                    worst = max(worst, abs(f1 - f2), abs(g1 - g2))
    ok = worst <= 1e-12
    _line("criterion 8 zero-gain periodicity", ok, f"max |X(t) - X(t + pi/chi)| = {worst:.2e} (<=1e-12)")
    assert ok


def test_criterion_9_figure_regressions(tmp_path):
    def curve(fig, name):
        rows = []
        for line in (tmp_path / fig / name).read_text().splitlines():
            if line.startswith("#") or line.startswith("t,"):
                continue
            rows.append([float(x) for x in line.split(",")])
        return np.array(rows)

    for fig in ("1", "2b", "3"):
        write_figure(fig, tmp_path / fig)

    f_solo = curve("1", "fig1_f_chi0.5_k0_a0.4_0.csv")
    f_both = curve("1", "fig1_f_chi0.5_k0_a0.4_0.4.csv")
    fig1_ok = f_both[:, 1].min() > f_solo[:, 1].min() and f_solo[:, 1].min() < 0

    f0 = curve("2b", "fig2b_f_chi0_k0.1_a0.4_0.csv")
    g0 = curve("2b", "fig2b_g_chi0_k0.1_a0.4_0.csv")
    fig2_ok = bool(np.all(f0[:, 1] >= 0.0) and np.all(g0[1:, 1] < 0.0))

    f3 = curve("3", "fig3_f_chi0.5_k0.1_a0.4_0.csv")
    g3 = curve("3", "fig3_g_chi0.5_k0.1_a0.4_0.csv")
    v3 = curve("3", "fig3_v_chi0.5_k0.1_a0.4_0.csv")
    t = f3[:, 0]
    c4 = np.cos(4 * 0.5 * t)
    sel = (t > 0) & (np.abs(c4) > 0.05)
    fig3_ok = bool(
        np.all((f3[sel, 1] - g3[sel, 1]) * c4[sel] > 0)
        and np.all(v3[:, 1] <= np.minimum(f3[:, 1], g3[:, 1]) + 1e-10)
        and f3[:, 1].min() < 0
        and g3[:, 1].min() < 0
    )
    ok = fig1_ok and fig2_ok and fig3_ok
    _line(
        "criterion 9 figure-shape regressions",
        ok,
        f"dip ordering: {fig1_ok}, sign pattern: {fig2_ok}, quadrature alternation: {fig3_ok}",
    )
    assert fig1_ok
    assert fig2_ok
    assert fig3_ok
