"""README.md against the code: its commands run as written and its numbers are re-computed.

README states three kinds of figure.  A deterministic one is re-computed
here and compared at the digits README prints (`_rounds_to`).  One that is a
constant of the code (a tolerance, a gate, a limit, a default) is compared
with that constant.  A machine-dependent one (a wall time, an RSS) carries
the commit and host it was measured on (`test_machine_figures_are_tagged`)
and is not re-measured.  Coefficients inside formulas belong to their
formulas and are not parsed.  README wraps its lines anywhere, so its text
is read with the whitespace collapsed.
"""

import math
import platform
import re
import shlex
import sys
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import kerrdown
from kerrdown import DConvention, NumericOverflow, SqueezeKind, SystemParams, TailOverflow
from kerrdown import cli, fock_oracle, moments_engine, quad_core, squeezing_analytic, verify
from kerrdown.fock_oracle import OracleConfig, moment_sets

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
TEXT = " ".join(README.split())


def _one(pattern):
    """The groups of pattern's one match in README."""
    found = [m.groups() for m in re.finditer(pattern, TEXT)]
    assert len(found) == 1, f"README matches {pattern!r} {len(found)} times"
    return found[0]


def _number(printed):
    """A figure as README prints it (4e-2, 0.16, 10^6) as a float."""
    return float(printed.replace("10^", "1e"))


def _rounds_to(value, printed):
    """Whether value, rounded to the significant digits of printed, reads as printed."""
    digits = re.sub(r"e.*", "", printed).lstrip("-").replace(".", "").lstrip("0")
    return float(f"{value:.{len(digits) - 1}e}") == _number(printed)


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def report():
    return verify.run_verification()


@pytest.fixture
def cold_spectra():
    """Deep cutoffs' spectra are dropped after the test, so no later test holds them."""
    yield
    fock_oracle._spectrum.cache_clear()


# ---------------------------------------------------------------------------
# the *Command line* block, run as written

_BLOCK = README.split("\n## Command line\n", 1)[1].split("```\n")[1].replace("\\\n", " ")


def _command(name):
    """(argv, optional argvs) of the block's `kerrdown name` line; [...] parts are optional."""
    (line,) = (line for line in _BLOCK.splitlines() if line.startswith(f"kerrdown {name} "))
    line = line.split("#")[0]
    argv = shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]
    return argv, [shlex.split(part) for part in re.findall(r"\[([^\]]*)\]", line)]


SWEEP, SWEEP_OPTIONAL = _command("sweep")


def _sweep(**values):
    """README's sweep argv with the given flags' values replaced."""
    argv = list(SWEEP)
    for flag, value in values.items():
        argv[argv.index(f"--{flag}") + 1] = str(value)
    return argv


def test_readme_sweep_is_header_plus_its_columns(capsys):
    # the README's 5-step example, end to end, each value in the format README states
    assert SWEEP_OPTIONAL == [["--out", "sweep.csv"]]
    fmt, digits = _one(r"is printed as `%\.(\d+)g`: (\d+) significant digits")
    assert fmt == digits
    code, out, _ = _run(capsys, SWEEP)
    assert code == 0
    result = cli.run_sweep(cli.SweepRequest(
        kind=SqueezeKind.SINGLE1, engine="analytic",
        params=SystemParams(0.5, 0.0, 0.4, 0.0), t_max=6.2832, steps=5,
    ))
    rows = zip(*(column.tolist() for column in (result.t, result.f, result.g, result.v)))
    assert out == (
        "# engine=analytic, kind=single1, chi=0.5, k=0.0, alpha1=0.4, "
        "alpha2=0.0, d_convention=paper\n"
        f"# package=kerrdown {kerrdown.__version__}, numpy={np.__version__}, "
        "variant=arbitrated, cutoff=24\n"
        "t,f,g,v\n"
    ) + "".join(",".join(format(x, f".{fmt}g") for x in row) + "\n" for row in rows)


def test_readme_figure_and_verify_commands_exit_0(capsys, tmp_path):
    (ids,) = re.findall(r"# ids: (.*)", _BLOCK)
    assert ids.split(", ") == sorted(cli._FIGURES)
    argv, optional = _command("figure")
    argv[argv.index("--out-dir") + 1] = str(tmp_path)
    assert optional == []
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert sorted(out.split()) == sorted(str(path) for path in tmp_path.iterdir())
    argv, optional = _command("verify")
    assert optional == [["--cutoff", str(OracleConfig.n_max)]]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.endswith("overall: PASS\n")


# ---------------------------------------------------------------------------
# constants of the code

_CONSTANTS = [
    (r"The routes agree to `([^`]+)` \(closed forms among themselves\)", verify.TOL_ANALYTIC_MOMENTS),
    (r"and `([^`]+)` \(against the oracle\) over the whole verification grid", verify.TOL_ORACLE),
    (r"fails when a rejected variant comes within `([^`]+)` of it", verify.ARBITRATION_FLOOR),
    (r"drifts by more than `([^`]+)` from its seed's stops the run", fock_oracle._TAU_NORM),
    (r"One degenerate point \(`\|d\| <= ([^`]+)`\)", quad_core.EPS_DEN),
    (r"with one slack, `([^`]+)` plus the roundoff", quad_core._CHECK_TOL),
    (r"the moments they cancel, `[^`]+`, exceeds `([^` ]+) \|d\|`", quad_core._CHECK_TOL),
    (r"the sum of their sizes over `\|d\|`, exceeds `([^`]+)`", quad_core._CHECK_TOL),
    (r"Below the precision guards the `([^`]+)` agreement", verify.TOL_ANALYTIC_MOMENTS),
    (r"refuse only `\|chi t\| >= float max / (\d+)`", sys.float_info.max / moments_engine._MAX_ARG),
    (r"At `(10\^\d+)` steps a two-mode sweep", cli.MAX_STEPS),
    (r"`n_max = (\d+)` per mode by default", OracleConfig.n_max),
    (r"the truncated seed misses more than `([^`]+)` of its norm", fock_oracle._TAU_TRUNC),
    (r"either mode hold more than `([^`]+)` of a state's norm", fock_oracle._TAU_TAIL),
    (r"a state's norm drifts from its seed's by more than `([^`]+)`", fock_oracle._TAU_NORM),
]


@pytest.mark.parametrize("pattern, constant", _CONSTANTS)
def test_stated_constant_is_the_code_s(pattern, constant):
    (printed,) = _one(pattern)
    assert _number(printed) == constant


def test_stated_ranges_are_the_validated_ones():
    lo, hi = (int(_number(x)) for x in _one(r"`n_max = \d+` per mode by default, an integer in `\[(\d+), (\d+)\]`"))
    for n_max in (lo, hi):
        OracleConfig(n_max)
    for n_max in (lo - 1, hi + 1):
        with pytest.raises(ValueError):
            OracleConfig(n_max)
    assert hi == fock_oracle._N_MAX_LIMIT
    ranges = re.findall(r"`--steps` outside `\[(\d+), (10\^\d+)\]`", TEXT)
    assert len(ranges) == 2
    for printed in ranges:
        lo, hi = (int(_number(x)) for x in printed)
        p = SystemParams(0.5, 0.1, 0.4, 0.3)
        for steps, ok in ((lo - 1, False), (lo, True), (hi, True), (hi + 1, False)):
            if ok:
                cli.SweepRequest(SqueezeKind.TWO_MODE, "analytic", p, 1.0, steps)
            else:
                with pytest.raises(ValueError):
                    cli.SweepRequest(SqueezeKind.TWO_MODE, "analytic", p, 1.0, steps)


def test_kind_table_is_each_route_s_d():
    p, t = SystemParams(0.5, 0.1, 0.4, 0.3), 0.7
    for kind in (SqueezeKind.SINGLE1, SqueezeKind.SINGLE2, SqueezeKind.TWO_MODE):
        (d,) = _one(rf"\| `{kind.value}` \| `[^`]+` \| (\d+) \|")
        (oracle,) = moment_sets(p, t, [(kind, DConvention.NUMBER_SUM)])
        assert moments_engine.moments_for(p, t, kind).mean_d == float(d)
        assert oracle.mean_d == pytest.approx(float(d), abs=1e-12)


# ---------------------------------------------------------------------------
# variants and criterion 3


def test_variant_deviations_are_the_verify_rows(report):
    rows = {check.name: check.value for check in report.checks}
    sin_theta, arbitrated = _one(
        r"it deviates from the oracle by up to `([^`]+)`, while the arbitrated form sits at `([^`]+)`"
    )
    (dephasing,) = _one(r"overstating the squeezing dips \(deviation up to `([^`]+)`\)")
    (unarbitrated,) = _one(r"both defects together \(deviation up to `([^`]+)`\)")
    stated = {"sin-theta": sin_theta, "arbitrated": arbitrated,
              "single-dephasing": dephasing, "unarbitrated": unarbitrated}
    for variant, printed in stated.items():
        value = rows[f"single-mode {variant} variant vs oracle"]
        assert _rounds_to(value, printed), (variant, value, printed)


def test_criterion_3_spot_values_are_the_oracle_s():
    value = r"`(-?[\d.]+) e\^\{(-?[\d.]+)\}`"
    *quoted, k, alpha = _one(
        rf"the quoted reduced-form dip value {value} at `chi t = pi/2`, `k = (\d+)`, `alpha1 = alpha2 = ([\d.]+)`"
    )
    exact = _one(rf"The exact evolution gives {value}")
    quoted, exact = (float(a) * math.exp(float(b)) for a, b in (quoted, exact))
    a, b, tol, c, d, floor, gap = _one(
        rf"asserts the oracle's {value} to `([^`]+)` and requires the oracle to reject the quoted "
        rf"{value} by at least `([^`]+)` \(the gap is `([^`]+)`\)"
    )
    assert float(a) * math.exp(float(b)) == exact and float(c) * math.exp(float(d)) == quoted
    tol, floor = _number(tol), _number(floor)
    a1 = float(alpha)
    p = SystemParams(0.5, float(k), a1, a1)  # chi t = pi/2 at t = pi
    (m,) = moment_sets(p, math.pi, [(SqueezeKind.SINGLE1, DConvention.NUMBER_SUM)])
    f = float(quad_core.factors(m)[0])
    assert abs(f - exact) <= tol
    assert abs(f - quoted) >= floor
    assert _rounds_to(abs(f - quoted), gap)
    # the kernel it follows from: <B> = alpha1 e^{-2(alpha1^2 + alpha2^2)}, <B^2> = -alpha1^2, <B+ B> = alpha1^2
    assert m.mean_b == pytest.approx(a1 * math.exp(-2.0 * (a1**2 + a1**2)), abs=tol)
    assert m.mean_b_sq == pytest.approx(-a1**2, abs=tol)
    assert m.mean_bdag_b == pytest.approx(a1**2, abs=tol)
    # 3a: the quoted value is the unarbitrated reduced form
    f_quoted, _ = squeezing_analytic.single_mode_extremum(p, math.pi, variant="unarbitrated")
    assert f_quoted == pytest.approx(quoted, abs=1e-12)


# ---------------------------------------------------------------------------
# the command line's examples


def test_sweep_examples_end_as_stated(capsys):
    k, chi_t = _one(r"leave the float range \(e\.g\. `--k ([^`]+)`, or `chi t` near `([^`]+)`\)")
    (alpha1,) = _one(r"whose factors lose their precision \(e\.g\. `--alpha1 ([^`]+)`\)")
    for argv in (_sweep(k=k), _sweep(chi=chi_t, tmax=1), _sweep(alpha1=alpha1)):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("kerrdown: NumericOverflow: ")


def test_figure_ranges_and_counts():
    evaluations, curves = _one(r"\((\d+) evaluations for the (\d+) curves of the four figures\)")
    assert len(cli._FIGURES) == 4
    assert int(evaluations) == sum(len(sets) for *_, sets in cli._FIGURES.values())
    assert int(curves) == sum(len(quantities) * len(sets) for _, quantities, _, _, sets in cli._FIGURES.values())
    (t_max,) = _one(r"two Kerr periods \(`k = 0` figures\), else `\[0, (\d+)\]`")
    for fig_id, (_, _, default, _, sets) in cli._FIGURES.items():
        chis, ks = {s[0] for s in sets}, {s[1] for s in sets}
        assert default == (2 * math.pi / chis.pop() if ks == {0.0} else float(t_max))
        # `--tmax 0` keeps the default range
        assert [req.t_max for req, _, _ in cli._figure_sets(fig_id, 0.0, 5)] == [default] * len(sets)


def test_verify_grid_is_the_stated_one():
    chis, ks, steps = _one(r"\(`chi in \{([^}]+)\} x k in \{([^}]+)\} x` three seed pairs x (\d+) times")
    assert tuple(float(x) for x in chis.split(", ")) == verify.GRID_CHIS
    assert tuple(float(x) for x in ks.split(", ")) == verify.GRID_KS
    assert len(verify.GRID_ALPHAS) == 3 and int(steps) == verify.GRID_STEPS
    (reach,) = _one(r"The verify grid reaches `chi t = ([\d.]+)` only")
    assert max(verify.GRID_CHIS) * verify.GRID_T_MAX == float(reach)


# ---------------------------------------------------------------------------
# precision guards


def _refuses(engine, p, t, kind):
    try:
        cli.ENGINES[engine](p, t, [(kind, DConvention.NUMBER_SUM)], OracleConfig())
    except NumericOverflow as exc:
        assert "lost its precision" in str(exc)
        return True
    return False


def test_precision_guard_examples(capsys):
    (alpha,) = _one(r"a coherent seed of `alpha = ([^`]+)` is refused there")
    assert _refuses("moments", SystemParams(0.5, 0.0, _number(alpha), 0.0), 0.0, SqueezeKind.SINGLE1)
    t, k, passed, refused = _one(
        r"at `t = (\d+), k = (\d+)` both pass `alpha1 = alpha2 = (\d+)` and both refuse `(\d+)`"
    )
    for kind in (SqueezeKind.SINGLE1, SqueezeKind.SINGLE2, SqueezeKind.TWO_MODE):
        for engine in ("analytic", "moments"):
            for seed, refuses in ((passed, False), (refused, True)):
                p = SystemParams(0.5, float(k), float(seed), float(seed))
                assert _refuses(engine, p, float(t), kind) == refuses
    (flags,) = _one(
        r"so the seed alone never fires its guard \(`([^`]+)` evaluates, where the moments route is refused\)"
    )
    words = shlex.split(flags)
    values = {flag[2:]: value for flag, value in zip(words[::2], words[1::2])}
    assert _run(capsys, _sweep(kind="sum", **values))[0] == 0
    assert _run(capsys, _sweep(kind="sum", engine="moments", **values))[0] == 1


def test_sum_precision_guard_thresholds():
    analytic, seed, moments, passed, refused = _one(
        r"fires it: at `kt = ([\d.]+)` for the seed `\(([^)]+)\)`, where the moments route's fires at `([\d.]+)` "
        r"\(both engines pass `kt = (\d+)` and refuse `kt = (\d+)`\)"
    )
    p = SystemParams(0.5, 1.0, *map(float, seed.split(", ")))
    for name, printed in (("analytic", analytic), ("moments", moments)):
        lo, hi = float(passed), float(refused)
        assert not _refuses(name, p, lo, SqueezeKind.SUM) and _refuses(name, p, hi, SqueezeKind.SUM)
        while hi - lo > 1e-3:  # the guard's kt, by bisection
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _refuses(name, p, mid, SqueezeKind.SUM) else (mid, hi)
        assert _rounds_to(lo, printed), (name, lo)


# ---------------------------------------------------------------------------
# *Limits*


def _seed_cells():
    """The (chi, k) columns and the times of the seed-amplitude limit, as README states them."""
    chis, ks, steps, t_max = _one(
        r"Over `chi in \{([^}]+)\}`, `k in \{([^}]+)\}`, (\d+) times in `\[0, (\d+)\]`, "
        r"every kind cell and seeds `\(alpha, 0\)`"
    )
    chi, k = np.meshgrid([float(x) for x in chis.split(", ")], [float(x) for x in ks.split(", ")])
    return chi.reshape(-1, 1), k.reshape(-1, 1), np.linspace(0.0, float(t_max), int(steps))


def test_seed_amplitude_deviation():
    found = _one(
        r"the largest deviation of F or G is `([^`]+)` at `alpha = (\d+)`, `([^`]+)` at `alpha = (\d+)` "
        r"and `([^`]+)` at `alpha = (\d+)`"
    )
    chi, k, ts = _seed_cells()
    for deviation, alpha in zip(found[::2], found[1::2]):
        p = SystemParams(chi, k, float(alpha), 0.0)
        analytic, moments = (cli.ENGINES[route](p, ts, verify.KIND_CELLS, OracleConfig())
                             for route in ("analytic", "moments"))
        worst = 0.0
        for (fa, ga, _), (fm, gm, _) in zip(analytic, moments):
            worst = max(worst, float(np.max(abs(fa - fm))), float(np.max(abs(ga - gm))))
        assert _rounds_to(worst, deviation), (alpha, worst, deviation)
    (photons,) = _one(r"`alpha = 20` averages (\d+) photons, past the largest cutoff")
    assert 20**2 == int(photons) > fock_oracle._N_MAX_LIMIT


@pytest.mark.skipif(not np.finfo(np.longdouble).eps < 1e-18, reason="np.longdouble is no wider than float64 here")
def test_seed_amplitude_error_per_route():
    moments, analytic, alphas = _one(
        r"the largest F/G/V error over the same cells is `([^`]+)` on the moments route and `([^`]+)` on the "
        r"analytic route at `alpha = ([^`]+)`"
    )
    if platform.machine() in ("x86_64", "AMD64"):
        assert _one(r"copies of the float64 inputs, (\d+)-bit on x86-64") == ("80",)
        assert np.finfo(np.longdouble).nmant == 63  # the x87 80-bit format
    chi, k, ts = _seed_cells()
    wide = np.longdouble
    for alpha, *printed in zip(alphas.split(" / "), moments.split(" / "), analytic.split(" / ")):
        a1 = float(alpha)
        p = SystemParams(chi, k, a1, 0.0)
        # SystemParams casts to float64: the reference takes a namespace of its fields and a mirrored twin
        couplings = {"chi_bar": chi.astype(wide), "k": k.astype(wide)}
        mirrored = types.SimpleNamespace(**couplings, alpha1=wide(0.0), alpha2=wide(a1))
        ref_p = types.SimpleNamespace(**couplings, alpha1=wide(a1), alpha2=wide(0.0), mirrored=mirrored)
        worst = {"moments": 0.0, "analytic": 0.0}
        refs = squeezing_analytic.factor_sets(ref_p, ts.astype(wide), verify.KIND_CELLS)
        for route in worst:
            for got, ref in zip(cli.ENGINES[route](p, ts, verify.KIND_CELLS, OracleConfig()), refs):
                worst[route] = max([worst[route]] + [float(np.max(abs(x - want))) for x, want in zip(got, ref)])
        for route, error in zip(("moments", "analytic"), printed):
            assert _rounds_to(worst[route], error), (alpha, route, worst[route], error)


def test_kerr_phase_limits(capsys):
    (gate,) = _one(
        r"`(sweep --kind single1 --chi [^`]+)` exits 0 with the analytic and moments engines and 1 with the oracle"
    )
    for engine, code in (("analytic", 0), ("moments", 0), ("oracle", 1)):
        assert _run(capsys, shlex.split(gate) + ["--engine", engine])[0] == code
    base, *stated, oracle_dev, oracle_chi = _one(
        r"With `(sweep --kind two [^`]+)`, analytic vs moments F at `t = 1` is `([^`]+)` at `--chi ([^`]+)`, "
        r"`([^`]+)` at `([^`]+)` and `([^`]+)` at `([^`]+)`; oracle vs moments is `([^`]+)` at `([^`]+)`"
    )

    def f_at_1(chi, engine):
        code, out, _ = _run(capsys, shlex.split(base) + ["--chi", chi, "--engine", engine])
        t, f = out.splitlines()[-1].split(",")[:2]
        assert (code, float(t)) == (0, 1.0)
        return float(f)

    for deviation, chi in zip(stated[::2], stated[1::2]):
        assert _rounds_to(abs(f_at_1(chi, "analytic") - f_at_1(chi, "moments")), deviation), chi
    assert _rounds_to(abs(f_at_1(oracle_chi, "oracle") - f_at_1(oracle_chi, "moments")), oracle_dev)


# ---------------------------------------------------------------------------
# *Oracle notes*


def test_cutoff_doubling_bound():
    lo, hi, bound = _one(
        r"Raising the cutoff from (\d+) to (\d+) moves no moment of the verify grid by more than `([^`]+)`"
    )
    params, ts = verify.grid_params(), verify.grid_times()
    grid = SystemParams(*(np.array([getattr(p, f.name) for p in params])[:, None] for f in fields(SystemParams)))
    worst = 0.0
    for a, b in zip(*(moment_sets(grid, ts, verify.KIND_CELLS, OracleConfig(int(n))) for n in (lo, hi))):
        for field in ("mean_b", "mean_b_sq", "mean_bdag_b", "mean_d"):
            worst = max(worst, float(np.max(abs(getattr(a, field) - getattr(b, field)))))
    assert worst <= _number(bound)


def test_reach_of_the_deep_cutoffs(cold_spectra):
    seed, *reach, largest, fails = _one(
        r"For the seed `\(chi, k, alpha1, alpha2\) = \(([^)]+)\)`, cutoff (\d+) holds `kt <= ([\d.]+)`, (\d+) holds "
        r"`kt <= ([\d.]+)` and (\d+) holds `kt <= ([\d.]+)`; at (\d+), the largest, `kt = ([\d.]+)` raises "
        r"`TailOverflow`"
    )
    p = SystemParams(*map(float, seed.split(", ")))
    cells = verify.KIND_CELLS
    for n_max, kt in zip(reach[::2], reach[1::2]):
        moment_sets(p, np.linspace(0.0, float(kt) / p.k, 5), cells, OracleConfig(int(n_max)))
    assert int(largest) == fock_oracle._N_MAX_LIMIT
    with pytest.raises(TailOverflow):
        moment_sets(p, float(fails) / p.k, cells, OracleConfig(int(largest)))
    (held,) = _one(rf"The cutoff-{largest} spectrum holds (\d+) MB")
    assert _rounds_to(sum(a.nbytes for a in fock_oracle._spectrum(int(largest))) / 1e6, held)
    assert _one(r"verify's (\w+) kind cells") == ("five",) and len(cells) == 5


# ---------------------------------------------------------------------------
# what is not re-computed, and the layout


def test_machine_figures_are_tagged():
    # a wall time, an RSS or a memory size names the commit and the host it was measured on
    chunks = re.split(r"\n\n|\n\* ", README)
    measured = [c for c in chunks if re.search(r"\d (s|MiB|MB)\b", c)]
    assert len(measured) == 3
    for chunk in measured:
        chunk = " ".join(chunk.split())
        assert re.search(r"measured at `[0-9a-f]{7}`[^.]* host", chunk, re.IGNORECASE), chunk


def test_package_layout_names_the_test_files():
    layout = README.split("\n## Package layout\n", 1)[1]
    named = set(re.findall(r"test_\w+\.py", layout))
    assert {"test_extended_precision.py", "test_readme.py"} <= named
    tests = Path(__file__).parent
    assert all((tests / name).exists() for name in named)
