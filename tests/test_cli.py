"""CLI behavior: CSV contracts, exit codes, figure datasets."""

import contextlib
import io
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrdown import cli
from kerrdown.cli import main


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
        _, out, _ = _run(capsys, SWEEP_ARGS)
        head = out.splitlines()[0]
        for piece in ("engine=analytic", "kind=single1", "chi=0.5", "k=0",
                      "alpha1=0.4", "alpha2=0", "d_convention=paper"):
            assert piece in head

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
        from kerrdown import SqueezeKind, SystemParams
        from kerrdown.squeezing_analytic import single_mode_fg

        p = SystemParams(0.5, 0.0, 0.4, 0.0)
        for t, f, _, _ in rows:
            assert f == single_mode_fg(p, t)[0]


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

    def test_bad_steps_is_usage_error(self, capsys):
        code, _, err = _run(capsys, [
            "sweep", "--kind", "single1", "--chi", "0.5", "--k", "0",
            "--alpha1", "0.4", "--alpha2", "0", "--tmax", "1", "--steps", "1",
        ])
        assert code == 2
        assert "steps" in err

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

    def test_unknown_figure_id(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "7"])
        assert exc.value.code == 2


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
    steps=st.integers(2, 5),
    cutoff=st.integers(4, 8),
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


@pytest.mark.parametrize("argv", [
    ["--tmax", "nan"],
    ["--tmax", "inf"],
    ["--tmax=-1"],
    ["--steps", "1"],
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
    steps=st.integers(-1, 4),
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


def test_verify_command_passes(capsys):
    code, out, _ = _run(capsys, ["verify"])
    assert code == 0
    assert "overall: PASS" in out
    assert "sin-theta" in out
