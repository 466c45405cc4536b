"""CLI behavior: CSV contracts, exit codes, figure datasets."""

import contextlib
import inspect
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kerrdown
from kerrdown import DConvention, SqueezeKind, SystemParams, cli, fock_oracle, moments_engine, quad_core, verify
from kerrdown.cli import main
from kerrdown.fock_oracle import OracleConfig


def _reference_rows(*columns):
    """CSV lines formatted one value at a time: the formatter the block formatter must match."""
    cols = [column.tolist() for column in columns]
    return "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in zip(*cols))


def _parse_csv(text):
    rows = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("t,"):
            continue
        rows.append([float(x) for x in line.split(",")])
    return np.array(rows)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SWEEP_ARGS = [
    "sweep", "--kind", "single1", "--chi", "0.5", "--k", "0",
    "--alpha1", "0.4", "--alpha2", "0", "--tmax", "6.2832", "--steps", "5",
    "--engine", "analytic",
]


class TestSweep:
    def test_row_count_and_t0(self, capsys):
        code, out, _ = _run(capsys, SWEEP_ARGS)
        assert code == 0
        rows = _parse_csv(out)
        assert rows.shape == (5, 4)
        assert np.all(rows[0] == 0.0)

    def test_kerr_dip_row(self, capsys):
        _, out, _ = _run(capsys, SWEEP_ARGS)
        rows = _parse_csv(out)
        near_pi = rows[np.argmin(np.abs(rows[:, 0] - math.pi))]
        assert near_pi[1] == pytest.approx(-0.64 * math.exp(-0.64), abs=1e-10)

    def test_metadata_header(self, capsys):
        # both header lines, exactly; the sweep without --cutoff states the default
        base = SWEEP_ARGS[:-1]  # strip engine value
        for engine, extra, cutoff in (("analytic", [], 24), ("oracle", ["--cutoff", "16"], 16)):
            _, out, _ = _run(capsys, base + [engine] + extra)
            assert out.splitlines()[:3] == [
                f"# engine={engine}, kind=single1, chi=0.5, k=0.0, alpha1=0.4, "
                "alpha2=0.0, d_convention=paper",
                f"# package=kerrdown {kerrdown.__version__}, numpy={np.__version__}, "
                f"variant=arbitrated, cutoff={cutoff}",
                "t,f,g,v",
            ]

    def test_deterministic_output(self, capsys, tmp_path):
        _, first, _ = _run(capsys, SWEEP_ARGS)
        _, second, _ = _run(capsys, SWEEP_ARGS)
        assert first == second
        out_file = tmp_path / "sweep.csv"
        code, _, _ = _run(capsys, SWEEP_ARGS + ["--out", str(out_file)])
        assert code == 0
        assert out_file.read_text() == first

    def test_engines_agree(self, capsys):
        base = SWEEP_ARGS[:-1]  # strip engine value
        results = {}
        for engine in ("analytic", "moments", "oracle"):
            _, out, _ = _run(capsys, base + [engine])
            results[engine] = _parse_csv(out)
        assert np.allclose(results["analytic"], results["moments"], atol=1e-12)
        assert np.allclose(results["analytic"], results["oracle"], atol=1e-6)

    def test_sum_at_zero_gain_is_flat(self, capsys):
        code, out, _ = _run(capsys, [
            "sweep", "--kind", "sum", "--chi", "0.5", "--k", "0",
            "--alpha1", "0.4", "--alpha2", "0.4", "--tmax", "3", "--steps", "7",
        ])
        assert code == 0
        rows = _parse_csv(out)
        assert np.all(np.abs(rows[:, 1:3]) <= 1e-12)

    def test_free_evolution_is_flat(self, capsys):
        # chi = k = 0: coherent states stay coherent, every factor is zero
        for kind in ("single1", "single2", "two", "sum"):
            for engine in ("analytic", "moments", "oracle"):
                _, out, _ = _run(capsys, [
                    "sweep", "--kind", kind, "--chi", "0", "--k", "0",
                    "--alpha1", "0.4", "--alpha2", "0.2", "--tmax", "3",
                    "--steps", "4", "--engine", engine,
                ])
                rows = _parse_csv(out)
                assert np.all(np.abs(rows[:, 1:]) <= 1e-12)

    def test_round_trip_precision(self, capsys):
        # 17 significant digits survive the text round trip losslessly
        _, out, _ = _run(capsys, SWEEP_ARGS)
        rows = _parse_csv(out)
        from kerrdown.squeezing_analytic import factors

        p = SystemParams(0.5, 0.0, 0.4, 0.0)
        for t, f, _, _ in rows:
            assert f == factors(p, t, SqueezeKind.SINGLE1)[0]


class TestExitCodes:
    def test_unknown_kind_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "bogus", "--chi", "0", "--k", "0",
                  "--alpha1", "0", "--alpha2", "0", "--tmax", "1", "--steps", "2"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "single1"])
        assert exc.value.code == 2

    def test_bad_steps_is_usage_error(self, capsys, tmp_path):
        # refused before the time axis is allocated or anything is written
        out_file = tmp_path / "sweep.csv"
        for steps in (1, cli.MAX_STEPS + 1):
            code, out, err = _run(capsys, [
                "sweep", "--kind", "single1", "--chi", "0.5", "--k", "0",
                "--alpha1", "0.4", "--alpha2", "0", "--tmax", "1", "--steps", str(steps),
                "--out", str(out_file),
            ])
            assert code == 2
            assert err.startswith("kerrdown sweep: steps must be in [2, 1000000]")
            assert out == "" and not out_file.exists()

    def test_cutoff_overflow_is_physics_error(self, capsys):
        code, _, err = _run(capsys, [
            "sweep", "--kind", "single1", "--chi", "0", "--k", "1.0",
            "--alpha1", "0", "--alpha2", "0", "--tmax", "5", "--steps", "3",
            "--engine", "oracle", "--cutoff", "12",
        ])
        assert code == 1
        assert "TailOverflow" in err

    def test_degenerate_sum_is_physics_error(self, capsys):
        code, _, err = _run(capsys, [
            "sweep", "--kind", "sum", "--chi", "0.5", "--k", "0",
            "--alpha1", "0", "--alpha2", "0", "--tmax", "1", "--steps", "3",
        ])
        assert code == 1
        assert "DegenerateDenominator" in err

    def test_sweep_to_a_missing_directory_fails_cleanly(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "sweep.csv"
        code, out, err = _run(capsys, SWEEP_ARGS + ["--out", str(out_file)])
        assert code == 1
        assert err.startswith("kerrdown: FileNotFoundError: ") and err.count("\n") == 1
        assert out == "" and not out_file.exists()

    def test_figure_into_a_file_fails_cleanly(self, capsys, tmp_path):
        not_a_dir = tmp_path / "taken"
        not_a_dir.write_text("keep")
        code, out, err = _run(capsys, ["figure", "1", "--out-dir", str(not_a_dir)])
        assert code == 1
        assert err.startswith("kerrdown: FileExistsError: ") and err.count("\n") == 1
        assert out == "" and not_a_dir.read_text() == "keep"

    def test_unknown_figure_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "7"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--cutoff", "3"],
        ["sweep", "--kind", "single1", "--chi", "0.5", "--k", "0", "--alpha1", "0.4",
         "--alpha2", "0", "--tmax", "1", "--steps", "3", "--engine", "oracle",
         "--cutoff", "100000"],
    ])
    def test_cutoff_out_of_range_is_usage_error(self, capsys, argv):
        # refused before anything is allocated
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"kerrdown {argv[0]}: n_max must be in [4, 256]")
        assert "Traceback" not in err


# ordinary, huge and non-finite values, each passed as --flag=value so that
# negative ones reach the program
_ANY_FLOAT = st.one_of(
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from([400.0, 1e10, 1e154, 1e200, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.floats(),
)


@given(
    kind=st.sampled_from(["single1", "single2", "two", "sum"]),
    engine=st.sampled_from(["analytic", "moments", "oracle"]),
    conv=st.sampled_from(["paper", "commutator"]),
    values=st.tuples(*[_ANY_FLOAT] * 5),
    # only 2-5 reach allocation; the others are refused before it
    steps=st.one_of(st.integers(2, 5), st.integers(10**6 + 1, 10**12)),
    # only 4-8 reach allocation; the others are refused before it
    cutoff=st.one_of(st.integers(4, 8), st.integers(-5, 3), st.integers(257, 10**9)),
)
def test_sweep_argv_ends_in_result_or_typed_error(kind, engine, conv, values, steps, cutoff):
    chi, k, alpha1, alpha2, tmax = values
    argv = [
        "sweep", "--kind", kind, "--engine", engine, "--d-convention", conv,
        f"--chi={chi!r}", f"--k={k!r}", f"--alpha1={alpha1!r}", f"--alpha2={alpha2!r}",
        f"--tmax={tmax!r}", "--steps", str(steps), "--cutoff", str(cutoff),
    ]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--tmax", "nan"],
    ["--tmax", "inf"],
])
def test_non_finite_tmax_is_usage_error(capsys, argv):
    code, _, err = _run(capsys, SWEEP_ARGS + argv)
    assert code == 2
    assert "tmax" in err


@pytest.mark.parametrize("engine", ["analytic", "moments"])
@pytest.mark.parametrize("kind", ["single1", "two"])
def test_coherent_seed_beyond_precision_is_typed_error(capsys, engine, kind):
    # at t = 0 the seed is coherent, V = 0; at alpha = 1e8 the moments cancel
    # from 1e16 and V would read -1 from roundoff alone
    code, out, err = _run(capsys, [
        "sweep", "--kind", kind, "--chi", "0.5", "--k", "0", "--alpha1", "1e8",
        "--alpha2", "1e8", "--tmax", "3", "--steps", "2", "--engine", engine,
    ])
    assert code == 1
    assert out == ""
    assert "NumericOverflow" in err and "lost its precision" in err


@pytest.mark.parametrize("engine", ["analytic", "moments"])
def test_large_sum_seed_within_its_roundoff_evaluates(capsys, engine):
    # <B+ B> and |<B>|^2 are 6.25e6 here and meet Cauchy-Schwarz only to 2 ulp
    code, out, err = _run(capsys, [
        "sweep", "--kind", "sum", "--chi", "0.25", "--k", "0", "--alpha1", "50",
        "--alpha2", "50", "--tmax", "3", "--steps", "301", "--engine", engine,
    ])
    assert code == 0, err
    assert _parse_csv(out).shape == (301, 4)


@pytest.mark.parametrize("engine", ["analytic", "moments", "oracle"])
@pytest.mark.parametrize("overrides", [
    ["--k", "400", "--tmax", "1"],
    ["--chi", "1e308", "--tmax", "1e10"],
    ["--tmax", "1e308", "--k", "0.1"],
])
def test_overflow_is_typed_physics_error(capsys, engine, overrides):
    base = ["sweep", "--kind", "two", "--chi", "0.5", "--k", "0",
            "--alpha1", "0.4", "--alpha2", "0.3", "--tmax", "1", "--steps", "3",
            "--cutoff", "8", "--engine", engine]
    code, _, err = _run(capsys, base + overrides)
    assert code == 1
    assert "NumericOverflow" in err or (engine == "oracle" and "TailOverflow" in err)


def test_pair_energy_overflow_names_k_and_cutoff(capsys):
    # the oracle scales one k-free spectrum by k: an overflowing product is a
    # typed error on one line, not a RuntimeWarning or a traceback
    code, out, err = _run(capsys, [
        "sweep", "--kind", "two", "--engine", "oracle", "--chi", "0.5", "--k", "1e307",
        "--alpha1", "0.4", "--alpha2", "0.3", "--tmax", "1", "--steps", "3",
    ])
    assert (code, out) == (1, "")
    assert err == "kerrdown: NumericOverflow: generator entries overflow at k=1e+307, n_max=24\n"


@pytest.mark.parametrize("engine, exit_code", [("analytic", 0), ("moments", 0), ("oracle", 1)])
def test_each_engine_keeps_its_own_kerr_gate(capsys, engine, exit_code):
    # the closed forms refuse only |chi t| >= float max / 16; the oracle refuses
    # max|chi| n_max (n_max + 1) t past float max, and names max|chi| and n_max
    code, _, err = _run(capsys, [
        "sweep", "--kind", "single1", "--engine", engine, "--chi", "1e306", "--k", "0",
        "--alpha1", "0.4", "--alpha2", "0", "--tmax", "1", "--steps", "2",
    ])
    assert code == exit_code, err
    if engine == "oracle":
        assert "NumericOverflow: Kerr phase" in err
        assert "|chi| <= 1.000e+306, n_max=24" in err and "inf" not in err


@pytest.mark.parametrize("argv", [
    ["--tmax", "nan"],
    ["--tmax", "inf"],
    ["--tmax=-1"],
    ["--steps", "1"],
    ["--steps", "1000001"],
])
def test_bad_figure_input_is_usage_error(capsys, tmp_path, argv):
    out_dir = tmp_path / "figs"
    code, out, err = _run(capsys, ["figure", "2b", "--out-dir", str(out_dir)] + argv)
    assert code == 2
    assert err.startswith("kerrdown figure: ")
    assert out == "" and not out_dir.exists()  # nothing was written


def test_zero_figure_tmax_means_the_default_range(capsys, tmp_path):
    for out_dir, extra in ((tmp_path / "zero", ["--tmax", "0"]), (tmp_path / "default", [])):
        code, _, _ = _run(capsys, ["figure", "2b", "--out-dir", str(out_dir), "--steps", "5"] + extra)
        assert code == 0
    zero = sorted((tmp_path / "zero").iterdir())
    assert [p.name for p in zero] == sorted(p.name for p in (tmp_path / "default").iterdir())
    assert all(p.read_bytes() == (tmp_path / "default" / p.name).read_bytes() for p in zero)


@given(
    fig=st.sampled_from(["1", "2a", "2b", "3"]),
    tmax=st.one_of(st.none(), _ANY_FLOAT),
    steps=st.one_of(st.integers(-1, 4), st.integers(10**6 + 1, 10**12)),
)
def test_figure_argv_ends_in_result_or_typed_error(fig, tmax, steps):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = ["figure", fig, "--out-dir", out_dir, "--steps", str(steps)]
        if tmax is not None:
            argv.append(f"--tmax={tmax!r}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def _read_curve(path):
    return _parse_csv(path.read_text())


class TestFigures:
    def test_fig1_files_and_dip_ordering(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["figure", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        csvs = sorted(tmp_path.glob("fig1_*.csv"))
        assert len(csvs) == 4  # {V, F} x two seed pairs
        assert (tmp_path / "fig1.gp").exists()
        f_solo = _read_curve(tmp_path / "fig1_f_chi0.5_k0_a0.4_0.csv")
        f_both = _read_curve(tmp_path / "fig1_f_chi0.5_k0_a0.4_0.4.csv")
        # seeding the second mode makes the squeezing dip strictly shallower
        assert f_both[:, 1].min() > f_solo[:, 1].min()
        assert f_solo[:, 1].min() < 0.0

    def test_fig1_principal_envelopes_factor(self, capsys, tmp_path):
        _run(capsys, ["figure", "1", "--out-dir", str(tmp_path)])
        f = _read_curve(tmp_path / "fig1_f_chi0.5_k0_a0.4_0.csv")
        v = _read_curve(tmp_path / "fig1_v_chi0.5_k0_a0.4_0.csv")
        assert np.all(v[:, 1] <= f[:, 1] + 1e-10)

    def test_fig2b_sign_pattern(self, capsys, tmp_path):
        code, _, _ = _run(capsys, ["figure", "2b", "--out-dir", str(tmp_path)])
        assert code == 0
        f = _read_curve(tmp_path / "fig2b_f_chi0_k0.1_a0.4_0.csv")
        g = _read_curve(tmp_path / "fig2b_g_chi0_k0.1_a0.4_0.csv")
        assert np.all(f[:, 1] >= 0.0)
        assert np.all(g[1:, 1] < 0.0)

    def test_fig3_quadrature_alternation(self, capsys, tmp_path):
        code, _, _ = _run(capsys, ["figure", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        f = _read_curve(tmp_path / "fig3_f_chi0.5_k0.1_a0.4_0.csv")
        g = _read_curve(tmp_path / "fig3_g_chi0.5_k0.1_a0.4_0.csv")
        v = _read_curve(tmp_path / "fig3_v_chi0.5_k0.1_a0.4_0.csv")
        t = f[:, 0]
        c4 = np.cos(4 * 0.5 * t)
        sel = (t > 0) & (np.abs(c4) > 0.05)
        # which quadrature is squeezed follows the sign of cos(4 chi t)
        assert np.all((f[sel, 1] - g[sel, 1]) * c4[sel] > 0.0)
        assert f[:, 1].min() < 0.0 and g[:, 1].min() < 0.0
        assert np.all(v[:, 1] <= np.minimum(f[:, 1], g[:, 1]) + 1e-10)
        # the chi = 0 dataset stays squeezed in y only
        g0 = _read_curve(tmp_path / "fig3_g_chi0_k0.1_a0.4_0.csv")
        f0 = _read_curve(tmp_path / "fig3_f_chi0_k0.1_a0.4_0.csv")
        assert np.all(g0[1:, 1] < 0.0)
        assert np.all(f0[:, 1] >= 0.0)

    def test_fig2a_emits_both_seed_sets(self, capsys, tmp_path):
        code, _, _ = _run(capsys, ["figure", "2a", "--out-dir", str(tmp_path)])
        assert code == 0
        assert len(sorted(tmp_path.glob("fig2a_*.csv"))) == 6

    def test_each_curve_set_is_evaluated_once(self, monkeypatch, tmp_path):
        # 22 curves over the four figures come from 8 (kind, params) sets
        sweeps = []
        run_sweep = cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep", lambda req: sweeps.append(req) or run_sweep(req))
        paths = [p for fig in ("1", "2a", "2b", "3") for p in cli.write_figure(fig, tmp_path)]
        assert len(sweeps) == 8
        assert sum(p.suffix == ".csv" for p in paths) == 22


def test_analytic_sweeps_and_figures_take_nothing_from_the_moments_route(monkeypatch, tmp_path):
    # every function of moments_engine and quad_core refuses to run; the closed
    # forms keep their own reference to the shared (p, t) gate _hyperbolic
    def refuse(*args, **kwargs):
        raise AssertionError("the analytic engine reached the moments route")

    for module in (moments_engine, quad_core):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(quad_core.QuadratureMoments, "__post_init__", refuse)
    params = SystemParams(0.5, 0.1, 0.4, 0.3)
    for kind in SqueezeKind:
        for conv in DConvention:
            cli.run_sweep(cli.SweepRequest(kind, "analytic", params, 3.0, 50, conv))
    for fig in ("1", "2a", "2b", "3"):
        cli.write_figure(fig, tmp_path, steps=20)
    with pytest.raises(AssertionError, match="moments route"):
        cli.run_sweep(cli.SweepRequest(SqueezeKind.TWO_MODE, "moments", params, 3.0, 50))


def test_verify_command_passes(capsys):
    code, out, _ = _run(capsys, ["verify"])
    assert code == 0
    assert "overall: PASS" in out
    assert "sin-theta" in out
    # the value column starts at the same place on every check row, whatever
    # the length of the check's name; a lone check renders unpadded
    rows = [line for line in out.splitlines() if line.startswith("[")]
    assert len(rows) == 12
    assert len({re.search(r" [<>]= ", row).start() for row in rows}) == 1
    assert verify.Check("x", 0.5, 1.0).render() == "[PASS] x  5.00000e-01 <= 1.0e+00"


def test_oracle_norm_gate_stops_verify_before_its_report(capsys, monkeypatch):
    # eigenvectors 1e-8 too long: the oracle refuses the state at its own
    # 1e-10 budget, so the report's norm-drift row (same bound) never shows
    spectrum = fock_oracle._spectrum

    def leaky(n_max):
        evals, evecs, slots = spectrum(n_max)
        return evals, evecs * (1.0 + 1e-8), slots

    monkeypatch.setattr(fock_oracle, "_spectrum", leaky)
    code, out, err = _run(capsys, ["verify"])
    assert code == 1
    assert err.startswith("kerrdown: NormDrift: norm drift 2.000e-08 > 1.000e-10")
    assert out == ""


def test_default_cutoff_is_the_oracle_default(capsys, monkeypatch):
    seen = []
    run_sweep = cli.run_sweep
    monkeypatch.setattr(cli, "run_sweep", lambda req: seen.append(req.cfg) or run_sweep(req))
    monkeypatch.setattr(cli, "run_verification",
                        lambda cfg: seen.append(cfg) or verify.VerificationReport([]))
    assert _run(capsys, SWEEP_ARGS)[0] == 0
    assert _run(capsys, ["verify"])[0] == 0
    assert [cfg.n_max for cfg in seen] == [OracleConfig.n_max] * 2


# ---------------------------------------------------------------------------
# CSV formatting: values are %.17g, byte for byte the per-value formatter

_CHUNK = cli._CSV_CHUNK
_EDGE_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, -2.225073858507201e-308, sys.float_info.max, -sys.float_info.max,
]


@given(
    n_columns=st.sampled_from([1, 2, 4]),
    rows=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
    seed=st.integers(0, 2**32 - 1),
    picked=st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)), max_size=24),
)
def test_csv_matches_per_value_format(n_columns, rows, seed, picked):
    # arbitrary float64 bit patterns (nan payloads, subnormals, both signs),
    # with drawn and edge values scattered over every block, seams included
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=(n_columns, rows), dtype=np.uint64)
    columns = bits.view(np.float64)
    flat = columns.reshape(-1)
    flat[rng.integers(0, flat.size, size=len(picked))] = picked
    seams = [i for i in (_CHUNK - 1, _CHUNK, 2 * _CHUNK) if i < rows]
    flat[seams] = _EDGE_FLOATS[:len(seams)]
    # compared line by line: a failure names the first wrong row, cheaply
    got = cli._csv("# h\n", *columns).split("\n")
    assert got == ("# h\n" + _reference_rows(*columns)).split("\n")


def test_figure_curve_is_header_plus_its_columns(capsys, tmp_path):
    assert _run(capsys, ["figure", "1", "--out-dir", str(tmp_path)])[0] == 0
    (req, _, _), _ = cli._figure_sets("1", None, cli._FIGURE_STEPS)
    result = cli.run_sweep(req)
    assert (tmp_path / "fig1_f_chi0.5_k0_a0.4_0.csv").read_text() == (
        "# figure=1, curve=f, kind=single1, engine=analytic, chi=0.5, k=0.0, "
        "alpha1=0.4, alpha2=0.0, d_convention=paper\n"
        "t,value\n"
    ) + _reference_rows(result.t, result.f)


def test_figure_titles_read_the_four_fields():
    # a read of params.shape caches it among vars(params); titles keep to the fields
    titles = {}
    for fig_id, (*_, template, sets) in cli._FIGURES.items():
        for (req, _, title), values in zip(cli._figure_sets(fig_id, None, 5), sets):
            assert req.params.shape == ()
            assert title == template.format(**vars(req.params))
            assert title == template.format(**dict(zip(("chi_bar", "k", "alpha1", "alpha2"), values)))
            titles.setdefault(fig_id, []).append(title)
    assert titles == {
        "1": ["(0.4,0.0)", "(0.4,0.4)"],
        "2a": ["(0.4,0.0)", "(0.4,0.4)"],
        "2b": ["chi=0.5", "chi=0.0"],
        "3": ["chi=0.0", "chi=0.5"],
    }


def test_figure_curve_set_shares_its_t_column(capsys, tmp_path):
    assert _run(capsys, ["figure", "2a", "--out-dir", str(tmp_path)])[0] == 0
    for seeds in ("a0.4_0", "a0.4_0.4"):
        t_columns = {
            q: [line.split(",")[0] for line in
                (tmp_path / f"fig2a_{q}_chi0.5_k0_{seeds}.csv").read_text().splitlines()[2:]]
            for q in "fgv"
        }
        assert len(t_columns["f"]) == cli._FIGURE_STEPS
        assert t_columns["f"] == t_columns["g"] == t_columns["v"]


@pytest.mark.parametrize("engine", ["analytic", "moments", "oracle"])
def test_batched_params_are_refused_before_any_work(engine):
    batch = SystemParams(np.array([0.5, 0.25]), 0.0, 0.4, 0.0)
    with pytest.raises(TypeError, match=r"a sweep takes one parameter set, got a batch of shape \(2,\)"):
        cli.SweepRequest(kind=SqueezeKind.TWO_MODE, engine=engine, params=batch,
                         t_max=1.0, steps=5)


def test_unknown_engine_is_refused():
    with pytest.raises(ValueError, match=r"^engine must be one of \('analytic', 'moments', 'oracle'\)$"):
        cli.SweepRequest(kind=SqueezeKind.TWO_MODE, engine="bogus", params=SystemParams(0.5, 0.1, 0.4, 0.3),
                         t_max=1.0, steps=5)


def test_sweep_request_reads_its_convention_as_a_dconvention():
    # the value of a convention is that convention, as on every route; any other value is refused
    params = SystemParams(0.5, 0.1, 0.4, 0.3)
    req = cli.SweepRequest(SqueezeKind.SUM, "analytic", params, 1.0, 3, d_convention="paper")
    assert req.d_convention is DConvention.NUMBER_SUM
    want = cli.run_sweep(cli.SweepRequest(SqueezeKind.SUM, "analytic", params, 1.0, 3)).to_csv()
    assert cli.run_sweep(req).to_csv() == want
    with pytest.raises(ValueError, match="^'bogus' is not a valid DConvention$"):
        cli.SweepRequest(SqueezeKind.SUM, "analytic", params, 1.0, 3, d_convention="bogus")


@pytest.mark.parametrize("steps", [2.5, 5.0, "5"])
def test_non_integral_steps_is_refused(steps):
    # a float steps would space the axis by t_max / (steps - 1) and run it past t_max
    with pytest.raises(TypeError, match=r"^steps must be an integer, got "):
        cli.SweepRequest(kind=SqueezeKind.TWO_MODE, engine="analytic", params=SystemParams(0.5, 0.1, 0.4, 0.3),
                         t_max=3.0, steps=steps)
    cli.SweepRequest(kind=SqueezeKind.TWO_MODE, engine="analytic", params=SystemParams(0.5, 0.1, 0.4, 0.3),
                     t_max=3.0, steps=np.int64(5))


def test_non_integral_figure_steps_writes_nothing(tmp_path):
    out_dir = tmp_path / "figs"
    with pytest.raises(TypeError, match=r"^steps must be an integer, got 3\.5$"):
        cli.write_figure("1", out_dir, steps=3.5)
    assert not out_dir.exists()


def test_unknown_figure_id_writes_nothing(tmp_path):
    out_dir = tmp_path / "figs"
    with pytest.raises(ValueError, match="^unknown figure id '9'$"):
        cli.write_figure("9", out_dir)
    assert not out_dir.exists()


def _python(*args):
    """Run a fresh interpreter that finds the package in this checkout."""
    src = str(Path(kerrdown.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    # a usage error, so no grid runs
    proc = _python("-m", "kerrdown", "verify", "--cutoff", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("kerrdown verify: n_max must be in [4, 256]")


def test_programmatic_entry_points_import_without_the_parser():
    # argparse (and the gettext it loads) is for `main` only; quad_core rotates without cmath
    proc = _python("-c", "import sys, kerrdown.cli, kerrdown.verify, kerrdown.fock_oracle; "
                         "print(sorted({'argparse', 'gettext', 'cmath'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_help_lists_the_subcommands():
    proc = _python("-m", "kerrdown", "--help")
    assert proc.returncode == 0, proc.stderr
    for command in ("sweep", "figure", "verify"):
        assert command in proc.stdout
