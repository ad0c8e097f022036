"""Config parsing, artifact round trips and the command-line entry points."""

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from r2ch import FieldState, build_grid
from r2ch import certificates as cert_mod
from r2ch import cli
from r2ch import evolution
from r2ch.cli import (
    _KNOWN_KEYS,
    ConfigError,
    RunConfig,
    _jsonable,
    _parse_profile,
    _split_top_level,
    main,
    parse_config,
    read_diagnostics_csv,
    read_snapshot,
    write_diagnostics_csv,
    write_json,
    write_snapshot,
)
from r2ch.crosscheck import selftest_checks
from r2ch.evolution import DiagnosticRow, RunSettings
from r2ch.model import InitialDataSpec

BASIC = """\
params.A = 0.5          # background shear
params.sigma = 1.0
params.mu = 0.2
params.Omega = 0.1
grid.L = 20
grid.n = 256
init.u = gaussian_bump(a=0.3, w=2.0)
init.eta = eta_bump(b=0.1, w=2.0, x_c=1.0)
run.t_end = 0.05
run.dt_max = 0.01
"""

# the steep-slope breaking problem of criterion 10
STEEP = """\
params.A = 0.5
params.sigma = -1
params.Omega = 0.1
grid.L = 5
grid.n = 16384
init.u = slope_bump(a=9.0, w=0.1)
run.t_end = 0.5
run.blowup_threshold = 50
run.dt_max = 0.01
run.snapshot_cadence = 0
run.diag_stride = 2
"""

# half a cell of the n = 1024 grid on [-5, 5)
OFF_NODE = 10.0 / 1024 / 2


class TestParseConfig:
    def test_basic(self):
        cfg = parse_config(BASIC)
        assert cfg.params.sigma == 1.0
        assert cfg.grid.n == 256
        assert cfg.init.u_terms[0].kind == "gaussian_bump"
        assert cfg.init.eta_terms[0].center == 1.0
        assert cfg.settings.t_end == 0.05
        assert cfg.fit_window == (20.0, 500.0)
        assert cfg.m_assumed is None

    def test_defaults_are_the_dataclasses(self):
        # every targeted key the config leaves out takes its field's default;
        # t_end and dense_diag_above (fit.m_lo) are the config's own
        cfg = parse_config("params.A = 0.5\nparams.sigma = 1\n")
        assert cfg.settings == RunSettings(t_end=1.0, dense_diag_above=20.0)
        assert cfg.init == InitialDataSpec()

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3.*params.sigmma"):
            parse_config("params.A = 0.5\nparams.sigma = 1\nparams.sigmma = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("params.A = 0.5\nparams.sigma = 1\nparams.A = 0.6\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="params.sigma"):
            parse_config("params.A = 0.5\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config("params.A = 0\nparams.sigma = 1\ngrid.n = many\n")

    def test_bad_line_shape(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("params.A 0.5\n")

    def test_invalid_params_rejected(self):
        # 1 - 2 Omega A <= 0 is outside the admissible region
        with pytest.raises(ConfigError):
            parse_config("params.A = 2.0\nparams.sigma = 1\nparams.Omega = 0.5\n")

    def test_bad_fit_window(self):
        with pytest.raises(ConfigError, match="fit window"):
            parse_config(
                "params.A = 0\nparams.sigma = 1\nfit.m_lo = 600\n"
            )

    def test_sweep_lists(self):
        cfg = parse_config(
            BASIC + "sweep.params.sigma = 0.5, 1.0, 2.0\n"
            "sweep.init.u = gaussian_bump(a=0.1, w=2), gaussian_bump(a=0.2, w=2)\n"
        )
        assert cfg.sweep_lists["params.sigma"] == ["0.5", "1.0", "2.0"]
        assert len(cfg.sweep_lists["init.u"]) == 2
        # a second list for one key is refused like any duplicate, not merged
        with pytest.raises(ConfigError, match="line 12: duplicate key 'sweep.params.sigma'"):
            parse_config(BASIC + "sweep.params.sigma = 0.5, 1.0\nsweep.params.sigma = 2.0\n")

    def test_unknown_sweep_key(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(BASIC + "sweep.params.bogus = 1, 2\n")

    def test_blank_and_comment_lines(self):
        cfg = parse_config("# a header comment\n\n" + BASIC.replace("grid.L", "\n   # grid\ngrid.L"))
        base = parse_config(BASIC)
        assert (cfg.params, cfg.init, cfg.settings) == (base.params, base.init, base.settings)
        assert cfg.grid.n == base.grid.n and cfg.grid.half_length == base.grid.half_length

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown override key 'params.bogus'"):
            parse_config(BASIC, {"params.bogus": "1"})


# a fixed pool of (well-formed, malformed) values per key; a line draws a
# malformed one at odds 1 in 4.  grid.n stays at or below 4096, so no draw
# allocates a large grid
_FLOATS = (("0.5", "-1", "0", "0.1", "2", "20", "1e-3", "1e300"), ("nan", "-inf", "abc", ""))
_INTS = (("0", "1", "10", "-1"), ("1.5", "abc", ""))
_VALUES = {
    "grid.n": (("256", "1024", "4096"), ("0", "-256", "100", "2.5", "abc")),
    "init.u": (
        ("zero", "gaussian_bump(a=0.3, w=2.0)", "slope_bump(a=9.0, w=0.1)"),
        ("gaussian_bump(a=0.3)", "bump(a=1, w=1)", "eta_zero", "(", ""),
    ),
    "init.eta": (
        ("zero", "eta_zero", "eta_bump(b=0.1, w=2.0, x_c=1.0)", "eta_bump(b=-2, w=1)"),
        ("eta_bump(b=nan, w=1)", "gaussian_bump(a=1, w=)"),
    ),
    "output.dir": (("out",), ("",)),
}


def _pool(key):
    base = key.removeprefix("sweep.")
    if base in _VALUES:
        well, bad = _VALUES[base]
    else:  # the unknown key takes floats
        well, bad = _INTS if _KNOWN_KEYS.get(base, (float,))[0] is int else _FLOATS
    value = st.integers(0, 3).flatmap(lambda i: st.sampled_from(well if i else bad))
    if base != key:  # a sweep list of one to three values
        return st.lists(value, min_size=1, max_size=3).map(", ".join)
    return value


_KEYS = sorted(_KNOWN_KEYS) + sorted("sweep." + k for k in _KNOWN_KEYS) + ["params.muu"]
_ITEMS = st.sampled_from(_KEYS).flatmap(lambda k: st.tuples(st.just(k), _pool(k)))


class TestConfigProperty:
    """Any config text over the known keys, their sweep forms and one unknown
    key parses to a RunConfig or raises ConfigError, and ``r2ch certify``
    on it exits 0 or 4.  No draw runs a simulation."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(required=st.booleans(), items=st.lists(_ITEMS, max_size=6, unique_by=lambda i: i[0]))
    def test_parse_or_config_error(self, tmp_path, required, items):
        # with required, the two required keys come first; a drawn value replaces one
        if required:
            items = [("params.A", "0.5"), ("params.sigma", "-1")] + items
        text = "\n".join(f"{k} = {v}" for k, v in dict(items).items())
        try:
            cfg = parse_config(text)
        except ConfigError:
            cfg = None
        else:
            assert isinstance(cfg, RunConfig)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        code = main(["certify", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code in (0, 4)
        assert cfg is not None or code == 4


class TestProfileExpr:
    def test_zero(self):
        assert _parse_profile("zero", for_eta=False) == ((), False)

    def test_eta_zero_only_for_eta(self):
        terms, flat = _parse_profile("eta_zero", for_eta=True)
        assert terms == () and flat
        with pytest.raises(ConfigError):
            _parse_profile("eta_zero", for_eta=False)

    def test_sum_of_terms(self):
        terms, _ = _parse_profile(
            "gaussian_bump(a=0.3, w=2) + slope_bump(a=-1, w=0.5, x_c=3)",
            for_eta=False,
        )
        assert [t.kind for t in terms] == ["gaussian_bump", "slope_bump"]
        assert terms[1].center == 3.0

    def test_missing_parameter(self):
        with pytest.raises(ConfigError, match="missing"):
            _parse_profile("gaussian_bump(a=0.3)", for_eta=False)

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="unknown profile parameters"):
            _parse_profile("gaussian_bump(a=0.3, w=2, q=1)", for_eta=False)

    def test_garbage(self):
        with pytest.raises(ConfigError):
            _parse_profile("gaussian_bump[a=0.3]", for_eta=False)

    def test_bad_number(self):
        with pytest.raises(ConfigError, match=r"in 'gaussian_bump\(a=abc, w=2\)'"):
            _parse_profile("gaussian_bump(a=abc, w=2)", for_eta=False)

    def test_split_top_level(self):
        assert _split_top_level("a(x=1, y=2), b, c(z=3)") == [
            "a(x=1, y=2)",
            "b",
            "c(z=3)",
        ]


def sample_rows():
    return [
        DiagnosticRow(
            t=0.1 * i, dt=0.01, E=1.0 + 1e-9 * i, sup_ux=0.5 * i, inf_ux=-0.1,
            x_at_sup_ux=0.3, x_at_inf_ux=-0.4, sup_abs_eta=0.2, min_rho=0.9,
            m3=-0.05, f_sup_abs=1.3, boundary_leak=1e-12,
        )
        for i in range(4)
    ]


class TestArtifacts:
    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "d.csv")
        rows = sample_rows()
        write_diagnostics_csv(path, rows)
        with open(path) as fh:
            assert fh.readline() == (
                "t,dt,E,E_drift_rel,sup_ux,inf_ux,x_at_sup_ux,x_at_inf_ux,"
                "sup_abs_eta,min_rho,m3,f_sup_abs,lemma31_ceiling,boundary_leak\n"
            )
        back = read_diagnostics_csv(path)
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert a.t == b.t and a.E == b.E and a.sup_ux == b.sup_ux

    @pytest.mark.parametrize("ceiling, text", [(2.5, "2.5"), (None, "nan")])
    def test_csv_ceiling_from_certificate(self, tmp_path, ceiling, text):
        # the certificate's Lemma 3.1 ceiling on every line, NaN where it has
        # none (sigma <= 0)
        cert = cert_mod.Certificate(
            E0=1.0, rho0_sup=1.1, u0x_sup_norm=1.0, C=2.0, lemma31_ceiling=ceiling,
            thm41=None, thm42=None, K2=1.0, rate_target=None,
        )
        path = tmp_path / "d.csv"
        write_diagnostics_csv(str(path), sample_rows(), cert)
        header, *lines = path.read_text().splitlines()
        column = header.split(",").index("lemma31_ceiling")
        assert {line.split(",")[column] for line in lines} == {text}

    @pytest.mark.parametrize("damage", ["not a number", "one field short", "wrong header"])
    def test_csv_damaged_line(self, tmp_path, damage):
        path = tmp_path / "d.csv"
        write_diagnostics_csv(str(path), sample_rows())
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        if damage == "not a number":
            fields[6] = "abc"
        elif damage == "one field short":
            fields.pop()
        lines[3] = ",".join(fields)
        if damage == "wrong header":
            lines[0] = lines[0].replace("E_drift_rel", "drift")
        path.write_text("\n".join(lines) + "\n")
        match = "unexpected CSV columns" if damage == "wrong header" else r"line 4"
        with pytest.raises(ConfigError, match=r"d\.csv: " + match):
            read_diagnostics_csv(str(path))

    def test_csv_deterministic(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_diagnostics_csv(p1, sample_rows())
        write_diagnostics_csv(p2, sample_rows())
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_snapshot_round_trip(self, tmp_path):
        g = build_grid(10.0, 64)
        st = FieldState(0.25, np.sin(g.x), 0.1 * np.cos(g.x))
        path = str(tmp_path / "s.bin")
        write_snapshot(path, st)
        back = read_snapshot(path)
        assert back.t == 0.25
        np.testing.assert_array_equal(back.u, st.u)
        np.testing.assert_array_equal(back.eta, st.eta)

    def test_snapshot_bad_magic(self, tmp_path):
        path = str(tmp_path / "s.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTASNAP" + b"\x00" * 24)
        with pytest.raises(ConfigError, match="magic"):
            read_snapshot(path)

    def test_snapshot_unsupported_version(self, tmp_path):
        g = build_grid(10.0, 64)
        path = tmp_path / "s.bin"
        write_snapshot(str(path), FieldState(0.25, np.sin(g.x), np.zeros(g.n)))
        data = bytearray(path.read_bytes())
        data[8:12] = (2).to_bytes(4, "little")  # the version field after the magic
        path.write_bytes(bytes(data))
        with pytest.raises(ConfigError, match="unsupported snapshot version 2"):
            read_snapshot(str(path))

    def test_jsonable(self):
        out = _jsonable(
            {"a": np.float64(1.5), "b": math.nan, "c": np.array([1.0, 2.0]), "d": (1, "x"),
             "e": np.int64(3)}
        )
        assert out == {"a": 1.5, "b": None, "c": [1.0, 2.0], "d": [1, "x"], "e": 3}
        assert type(out["e"]) is int
        with pytest.raises(TypeError):
            _jsonable(object())

    def test_write_json(self, tmp_path):
        path = str(tmp_path / "v.json")
        write_json(path, {"x": 1.0, "y": None})
        assert json.load(open(path)) == {"x": 1.0, "y": None}


class TestCommands:
    def write_cfg(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return str(p)

    def assert_rate_matches_verdict(self, cfg, out):
        # r2ch rate on a run's directory writes the fit and rate of its verdict
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
        verdict = json.load(open(out / "verdict.json"))
        rate = json.load(open(out / "rate.json"))
        assert rate == {"fit": verdict["fit"], "rate": verdict["rate"]}
        return rate

    def test_run_smoke(self, tmp_path):
        cfg = self.write_cfg(tmp_path, BASIC)
        out = str(tmp_path / "out")
        code = main(["run", "--config", cfg, "--out", out])
        assert code == 0
        verdict = json.load(open(tmp_path / "out" / "verdict.json"))
        assert verdict["termination"]["event"] == "reached_t_end"
        assert verdict["exit_code"] == 0
        assert verdict["monitor_violations"] == []
        rows = read_diagnostics_csv(str(tmp_path / "out" / "diagnostics.csv"))
        assert rows[-1].t == pytest.approx(0.05)
        cert = json.load(open(tmp_path / "out" / "certificate.json"))
        assert cert["inputs"]["sigma"] == 1.0
        assert cert["certificate"]["C"] > 0
        # snapshots are per accepted step; diagnostic rows are strided
        snaps = sorted((tmp_path / "out" / "snapshots").iterdir())
        assert len(snaps) >= len(rows)
        final = read_snapshot(str(snaps[-1]))
        assert final.t == pytest.approx(0.05)

    def test_run_blowup_exit_code(self, tmp_path):
        cfg = self.write_cfg(tmp_path, STEEP + "fit.m_lo = 15\n")
        out = str(tmp_path / "out")
        code = main(["run", "--config", cfg, "--out", out])
        assert code == 2
        verdict = json.load(open(tmp_path / "out" / "verdict.json"))
        assert verdict["termination"]["event"] == "blowup_detected"
        assert verdict["fit"] is not None and verdict["fit"]["reliable"]
        # fit.m_lo also sets where every accepted step gets a row
        rows = read_diagnostics_csv(str(tmp_path / "out" / "diagnostics.csv"))
        dense = [(a, b) for a, b in zip(rows, rows[1:]) if a.sup_ux > 15 and b.sup_ux > 15]
        assert len(dense) >= 8
        for a, b in dense:
            assert b.t - a.t == pytest.approx(b.dt, rel=1e-9)

    def test_run_fit_window_error_recorded(self, tmp_path):
        # the default window (20, G/2 = 25) holds too few rows for a fit
        cfg = self.write_cfg(tmp_path, STEEP)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        verdict = json.load(open(out / "verdict.json"))
        assert list(verdict["fit"]) == ["error"]
        assert "samples with |M| in [20.0, 25.0]" in verdict["fit"]["error"]
        assert verdict["rate"] is None
        self.assert_rate_matches_verdict(cfg, out)

    @staticmethod
    def tree(root):
        # every path under root, with a file's bytes (None for a directory)
        return {
            str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
            for path in root.rglob("*")
        }

    @pytest.mark.parametrize("cadence", [1, 0])
    def test_rerun_leaves_no_stale_snapshots(self, tmp_path, cadence):
        # a longer run, then a shorter one into the same directory: the tree
        # is the one a fresh run of the second config writes
        first = tmp_path / "first.cfg"
        first.write_text(BASIC.replace("run.t_end = 0.05", "run.t_end = 0.2"))
        second = tmp_path / "second.cfg"
        second.write_text(BASIC + f"run.snapshot_cadence = {cadence}\n")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", "--config", str(first), "--out", str(out)]) == 0
        assert len(list((out / "snapshots").iterdir())) > 6
        assert main(["run", "--config", str(second), "--out", str(out)]) == 0
        assert main(["run", "--config", str(second), "--out", str(fresh)]) == 0
        assert self.tree(out) == self.tree(fresh)
        assert ("snapshots" in self.tree(fresh)) == (cadence > 0)

    def test_rerun_drops_an_earlier_rate(self, tmp_path):
        # a run that breaks and its r2ch rate, then a run that does not break
        # into the same directory: the tree is the one a fresh run writes, so
        # no rate.json holds a fit that the new verdict.json does not
        text = STEEP.replace("16384", "1024").replace("= 50", "= 16")
        text += "fit.m_lo = 10\nfit.m_hi = 15\n"
        cfg = self.write_cfg(tmp_path, text)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert self.assert_rate_matches_verdict(cfg, out)["fit"] is not None
        cfg = self.write_cfg(tmp_path, text.replace("t_end = 0.5", "t_end = 0.01"))
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert main(["run", "--config", cfg, "--out", str(fresh)]) == 0
        assert json.load(open(out / "verdict.json"))["fit"] is None
        assert self.tree(out) == self.tree(fresh)

    def test_rerun_keeps_other_files(self, tmp_path):
        # only the earlier run's snap_*.bin files go
        cfg = self.write_cfg(tmp_path, BASIC)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        (out / "snapshots" / "notes.txt").write_text("kept")
        cfg = self.write_cfg(tmp_path, BASIC + "run.snapshot_cadence = 0\n")
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert [p.name for p in (out / "snapshots").iterdir()] == ["notes.txt"]

    def test_missing_config_exit_4(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 4
        assert "config error" in capsys.readouterr().err

    def test_decay_violation_exit_4(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            "params.A = 0\nparams.sigma = 1\ngrid.L = 5\ngrid.n = 256\n"
            "init.u = gaussian_bump(a=1.0, w=10.0)\n",  # far too wide for the box
        )
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 4
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "run.diag_stride = 0",
            "run.tol = -1",
            "run.t_end = inf",
            "thm42.m_assumed = nan",
            "init.decay_tol = nan",
        ],
    )
    def test_bad_run_settings_exit_4(self, tmp_path, capsys, line):
        # unchecked, stride 0 divides by zero, a negative tol breaks the step
        # controller, an infinite t_end never ends, a NaN density bound gives
        # a NaN constant N and a NaN decay tolerance switches its check off
        key = line.split("=")[0].strip()
        kept = [ln for ln in BASIC.splitlines() if not ln.startswith(key)]
        cfg = self.write_cfg(tmp_path, "\n".join(kept + [line]) + "\n")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert "config error" in err and key.split(".")[1] in err

    @pytest.mark.parametrize("amplitude, constant", [("1e110", "C"), ("1e200", "E0")])
    def test_non_finite_certificate_exit_4(self, tmp_path, capsys, amplitude, constant):
        # a = 1e110 overflows E0**1.5 in constant_C; a = 1e200 overflows E0
        kept = [ln for ln in BASIC.splitlines() if not ln.startswith("init.u")]
        line = f"init.u = gaussian_bump(a={amplitude}, w=0.5)"
        cfg = self.write_cfg(tmp_path, "\n".join(kept + [line]) + "\n")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: certificate constant {constant} is not finite")
        assert not (tmp_path / "out" / "certificate.json").exists()

    @pytest.mark.parametrize("amplitude, code", [("1e102", 3), ("1e120", 4)])
    def test_run_invariant_violation_exit_3(self, tmp_path, capsys, amplitude, code):
        # with sigma = -1 and Omega = 0 the certificate of a = 1e102 is still
        # finite, but the first tendency overflows, so the run ends on an
        # invariant violation at t = 0 and exits 3; a = 1e120 overflows C first
        cfg = self.write_cfg(
            tmp_path,
            "params.A = 0.5\nparams.sigma = -1\nparams.Omega = 0\ngrid.L = 20\n"
            f"grid.n = 256\ninit.u = gaussian_bump(a={amplitude}, w=0.5)\n"
            "run.blowup_threshold = 1e300\nrun.t_end = 0.1\nrun.snapshot_cadence = 0\n",
        )
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 4:
            assert err.startswith("config error: certificate constant C is not finite")
            return
        # the run turns the overflow into its exit code, without a numpy warning
        assert err == "" and caught == []
        verdict = json.load(open(out / "verdict.json"))
        assert verdict["termination"] == {
            "event": "invariant_violation", "t": 0.0, "detail": "non-finite tendency"
        }
        assert verdict["exit_code"] == 3
        assert math.isfinite(json.load(open(out / "certificate.json"))["certificate"]["C"])

    def test_run_under_resolved_exit_3(self, tmp_path):
        # at n = 4096 the steep data fall below their certified envelope of
        # sup u_x at t = 0.243, before it blows up at T = 0.3127: exit 3, not
        # a run to t_end = 0.8 past the lifespan bound T1 = 0.6724
        text = STEEP.replace("16384", "4096").replace("t_end = 0.5", "t_end = 0.8")
        cfg = self.write_cfg(tmp_path, text + "fit.m_lo = 20\nfit.m_hi = 40\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        verdict = json.load(open(out / "verdict.json"))
        assert verdict["termination"]["event"] == "under_resolved"
        assert verdict["termination"]["t"] == pytest.approx(0.243, abs=1e-3)
        # the detail names the refined sup u_x, its instant and the floor it fell below
        sup, t, floor = re.fullmatch(
            r"sup u_x (\S+) at t (\S+) below its floor (\S+)", verdict["termination"]["detail"]
        ).groups()
        assert float(t) == verdict["termination"]["t"] and float(sup) < float(floor)
        assert verdict["exit_code"] == 3 and verdict["fit"] is None
        # the run ends with the row of the state it flagged
        last = read_diagnostics_csv(str(out / "diagnostics.csv"))[-1]
        assert last.t == verdict["termination"]["t"]
        self.assert_rate_matches_verdict(cfg, out)

    @pytest.mark.parametrize(
        "text, thm41, floored",
        [
            (BASIC, False, False),  # sigma > 0
            (STEEP.replace("16384", "1024").replace("a=9.0", "a=1.0"), False, False),
            # the peak of u0_x half a cell off the nodes: the floor starts at
            # the grid max 8.936, the witness is 8.999
            (STEEP.replace("16384", "1024").replace("w=0.1", f"w=0.1, x_c={OFF_NODE}"), True, True),
            # the grid max 2.7304 lies below the threshold 2.7475, which only
            # the refined witness 2.7497 passes: thm41 holds, with no floor
            (STEEP.replace("16384", "1024").replace("9.0, w=0.1", f"2.75, w=0.1, x_c={OFF_NODE}"),
             True, False),
        ],
        ids=["sigma_positive", "no_thm41", "thm41_off_node", "thm41_grid_max_below_threshold"],
    )
    def test_floor_only_with_thm41(self, tmp_path, monkeypatch, text, thm41, floored):
        floors = []
        real = cli.run_sim

        def run_sim(*args):
            floors.append(args[4])
            return real(*args)

        monkeypatch.setattr(cli, "run_sim", run_sim)
        text = text.replace("t_end = 0.5", "t_end = 0.01")
        out = tmp_path / "out"
        assert main(["run", "--config", self.write_cfg(tmp_path, text), "--out", str(out)]) == 0
        certificate = json.load(open(out / "certificate.json"))["certificate"]
        assert (certificate["thm41"] is not None) == thm41
        assert (floors[0] is not None) == floored
        assert "slope_floor" not in certificate

    @pytest.mark.parametrize("early", [False, True])
    def test_run_rate_needs_breaking_time_past_last_row(self, tmp_path, monkeypatch, early):
        # the steep data at n = 1024 with G = 16 fits a reliable T_est near
        # 0.22, past its last row at t = 0.11; a fit whose T_est does not pass
        # the last row (the early case moves it onto that row) gets no rate,
        # from r2ch run and from r2ch rate alike
        if early:
            fit = cli.estimate_T
            monkeypatch.setattr(
                cli, "estimate_T",
                lambda rows, *a: dataclasses.replace(fit(rows, *a), T_est=rows[-1].t),
            )
        text = STEEP.replace("16384", "1024").replace("= 50", "= 16")
        cfg = self.write_cfg(tmp_path, text + "fit.m_lo = 10\nfit.m_hi = 15\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        verdict = json.load(open(out / "verdict.json"))
        last_t = read_diagnostics_csv(str(out / "diagnostics.csv"))[-1].t
        assert verdict["fit"]["reliable"] and (verdict["fit"]["T_est"] > last_t) != early
        assert (verdict["rate"] is None) == early
        self.assert_rate_matches_verdict(cfg, out)

    @pytest.mark.parametrize("a, code", [(-12, 0), (-15, 2)], ids=["no_break", "breaks"])
    def test_rate_sigma_positive(self, tmp_path, a, code):
        # the steep profile mirrored for sigma = 1 at n = 2048 and G = 40:
        # a = -12 reaches t_end = 0.5 below G, a = -15 breaks at t = 0.0941
        text = STEEP.replace("sigma = -1", "sigma = 1").replace("16384", "2048")
        text = text.replace("a=9.0", f"a={a}").replace("= 50", "= 40")
        cfg = self.write_cfg(tmp_path, text + "fit.m_lo = 16\nfit.m_hi = 30\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == code
        rate = self.assert_rate_matches_verdict(cfg, out)
        if code == 0:  # no breaking time for a run that never broke
            assert rate == {"fit": None, "rate": None}
        else:  # the exploratory rate of the inf branch, near its limit -2/sigma
            assert rate["fit"]["reliable"] and rate["rate"]["validated"] is False
            assert rate["rate"]["final_mean"] == pytest.approx(-2.0, rel=0.02)

    @pytest.mark.parametrize("m_assumed, validated", [(1.2, True), (1.1, False)])
    def test_run_thm42_validation(self, tmp_path, m_assumed, validated):
        # rho starts at 1.0999 and peaks at 1.1065 over the recorded rows:
        # M_assumed = 1.1 holds for the initial data but not along the run
        kept = [ln for ln in BASIC.splitlines() if not ln.startswith("params.mu")]
        text = "\n".join(kept + ["params.mu = 0", f"thm42.m_assumed = {m_assumed}"]) + "\n"
        out = tmp_path / "out"
        assert main(["run", "--config", self.write_cfg(tmp_path, text), "--out", str(out)]) == 0
        # eta > 0 here, so each row's max rho is 1 + sup |eta|
        rho_sup = [1.0 + r.sup_abs_eta for r in read_diagnostics_csv(str(out / "diagnostics.csv"))]
        report = json.load(open(out / "verdict.json"))["thm42_validation"]
        assert report["M_assumed"] == m_assumed and report["validated"] is validated
        assert report["observed_rho_sup"] == pytest.approx(max(rho_sup), rel=1e-15)
        assert rho_sup[0] < 1.1 < report["observed_rho_sup"]

    def test_certify(self, tmp_path):
        cfg = self.write_cfg(tmp_path, BASIC)
        out = str(tmp_path / "c")
        assert main(["certify", "--config", cfg, "--out", out]) == 0
        cert = json.load(open(tmp_path / "c" / "certificate.json"))
        assert cert["certificate"]["thm41"] is None
        assert cert["certificate"]["lemma31_ceiling"] > 0

    def test_rate_from_existing_run(self, tmp_path):
        cfg = self.write_cfg(tmp_path, STEEP + "fit.m_lo = 15\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        rate = self.assert_rate_matches_verdict(cfg, out)
        assert rate["fit"]["reliable"] and rate["rate"]["validated"]
        assert rate["fit"]["T_est"] > 0

    def test_rate_flat_fit_writes_null(self, tmp_path, capsys):
        # M = 30 at every row of the fit window and then 1000: the fit line is
        # flat, slope 0 and T_est = inf, which strict JSON has no number for
        rows = [
            dataclasses.replace(sample_rows()[0], t=0.01 * i, sup_ux=30.0 if i < 11 else 1e3)
            for i in range(12)
        ]
        out = tmp_path / "out"
        out.mkdir()
        write_diagnostics_csv(str(out / "diagnostics.csv"), rows)
        cfg = self.write_cfg(tmp_path, "params.A = 0.5\nparams.sigma = -1\nparams.Omega = 0.1\n")
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"non-finite constant {constant}")

        rate = json.loads((out / "rate.json").read_text(), parse_constant=refuse)
        assert rate["fit"]["T_est"] is None and rate["fit"]["reliable"] is False
        printed = capsys.readouterr().out
        assert '"T_est": null' in printed and "Infinity" not in printed

    def test_allocation_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        # a grid too large to allocate (as grid.n = 2^40 is) ends in a message
        def build_grid(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(cli, "build_grid", build_grid)
        cfg = self.write_cfg(tmp_path, BASIC)
        code = main(["certify", "--config", cfg, "--out", str(tmp_path / "c")])
        assert code == 4
        assert capsys.readouterr().err == "config error: Unable to allocate 8.00 TiB\n"

    def test_rate_without_run_exit_4(self, tmp_path):
        cfg = self.write_cfg(tmp_path, BASIC)
        assert main(["rate", "--config", cfg, "--out", str(tmp_path / "empty")]) == 4

    def test_rate_damaged_csv_exit_4(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, BASIC)
        csv = tmp_path / "out" / "diagnostics.csv"
        csv.parent.mkdir()
        write_diagnostics_csv(str(csv), sample_rows())
        text = csv.read_text()
        # a field that is no number, and a header without rows: an empty
        # series is no run, not a run without blow-up
        for damaged, message in (
            (text.replace("0.29999999999999999", "x", 1), "diagnostics.csv: line 2"),
            (text.splitlines()[0] + "\n", "empty diagnostic series"),
        ):
            csv.write_text(damaged)
            assert main(["rate", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
            err = capsys.readouterr().err
            assert err.startswith("config error:") and message in err
            assert not (tmp_path / "out" / "rate.json").exists()

    def test_sweep(self, tmp_path):
        cfg = self.write_cfg(
            tmp_path, BASIC + "sweep.params.sigma = 0.5, 2.0\n"
        )
        out = str(tmp_path / "sw")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        lines = open(tmp_path / "sw" / "summary.csv").read().strip().splitlines()
        assert len(lines) == 3  # header + two runs
        header = lines[0].split(",")
        assert "params.sigma" in header and "exit_code" in header
        assert (tmp_path / "sw" / "sweep_0000" / "verdict.json").exists()
        assert (tmp_path / "sw" / "sweep_0001" / "verdict.json").exists()

    def test_sweep_point_config_error_recorded(self, tmp_path, monkeypatch):
        # a point that fails on its input is an error row; the sweep goes on
        real = cli.execute_run

        def execute_run(cfg, out_dir):
            if out_dir.endswith("sweep_0001"):
                raise ConfigError("bad point")
            return real(cfg, out_dir)

        monkeypatch.setattr(cli, "execute_run", execute_run)
        cfg = self.write_cfg(tmp_path, BASIC + "sweep.params.sigma = 0.5, 2.0\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
        lines = open(tmp_path / "sw" / "summary.csv").read().strip().splitlines()
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        assert [r["status"] for r in rows] == ["ok", "error: bad point"]
        assert [r["exit_code"] for r in rows] == ["0", "4"]

    def test_sweep_program_error_propagates(self, tmp_path, monkeypatch):
        # a bug in the program is no per-point input error: it ends the sweep
        def execute_run(cfg, out_dir):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "execute_run", execute_run)
        cfg = self.write_cfg(tmp_path, BASIC + "sweep.params.sigma = 0.5, 2.0\n")
        with pytest.raises(RuntimeError, match="bug"):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")])

    def test_sweep_jobs_2_matches_jobs_1(self, tmp_path):
        # the process-pool path writes the bytes of the sequential one
        cfg = self.write_cfg(tmp_path, BASIC + "sweep.params.sigma = 0.5, 2.0\n")
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / jobs),
                         "--jobs", jobs]) == 0
        names = ["summary.csv"] + [
            f"sweep_000{i}/{f}" for i in (0, 1) for f in ("verdict.json", "diagnostics.csv")
        ]
        for name in names:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_sweep_seed_list(self, tmp_path):
        cfg = self.write_cfg(tmp_path, BASIC)
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(
            "params.mu = 0.0\n"
            "params.mu = 0.3; run.t_end = 0.02\n"
        )
        out = str(tmp_path / "sw")
        assert main(
            ["sweep", "--config", cfg, "--out", out, "--seed-list", str(seeds)]
        ) == 0
        lines = open(tmp_path / "sw" / "summary.csv").read().strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "params.mu = 0.0\nparams.mu 0.3\n",
            "params.mu = 0.0\nparams.muu = 0.1\n",
            "# only comments\n\n   # and blanks\n",
        ],
    )
    def test_sweep_bad_seed_list_exit_4(self, tmp_path, capsys, content):
        # a missing seed list, a line without '=', an unknown key and a list
        # without any override set, an empty axis of no points (checked before
        # any point runs)
        cfg = self.write_cfg(tmp_path, BASIC)
        seeds = tmp_path / "seeds.txt"
        if content is not None:
            seeds.write_text(content)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                     "--seed-list", str(seeds)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "seeds.txt" in err
        assert not (tmp_path / "sw").exists()  # no point ran


    def test_sweep_bad_value_exit_4(self, tmp_path, capsys):
        # a sweep value that does not parse stops the sweep before any point runs
        cfg = self.write_cfg(tmp_path, BASIC + "sweep.params.mu = 0.1, abc\n")
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep point 1:") and "abc" in err
        assert not (tmp_path / "sw").exists()  # no point ran

    def test_sweep_empty_list_exit_4(self, tmp_path, capsys):
        # a sweep key without values is an empty axis: no points, not a sweep
        cfg = self.write_cfg(tmp_path, BASIC + "sweep.params.sigma =\n")
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: line 11:") and "'sweep.params.sigma'" in err
        assert not (tmp_path / "sw").exists()  # no point ran

    def test_sweep_point_allocation_failure_recorded(self, tmp_path, monkeypatch):
        # a point whose grid cannot be allocated is an error row, exit code 4
        def run_sim(*args):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr(cli, "run_sim", run_sim)
        cfg = self.write_cfg(tmp_path, BASIC + "sweep.params.sigma = 0.5\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw")]) == 0
        lines = open(tmp_path / "sw" / "summary.csv").read().strip().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["status"] == "error: Unable to allocate 8.00 TiB"
        assert row["exit_code"] == "4"

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_sweep_jobs_below_1_exit_4(self, tmp_path, capsys, jobs):
        cfg = self.write_cfg(tmp_path, BASIC)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "sw"), "--jobs", jobs])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--jobs" in err
        assert not (tmp_path / "sw").exists()  # no point ran


class TestSelftest:
    def test_all_checks_pass(self):
        results = list(selftest_checks())
        names = [name for name, _, _ in results]
        assert names == [
            "kernel_oracle_p",
            "kernel_oracle_dxp",
            "rest_state_equilibrium",
            "tendency_oracle",
            "reflection_symmetry",
            "double_entry_formulas",
            "synthetic_rate_profile",
        ]
        assert all(ok for _, ok, _ in results)

    def test_mutation_detected(self):
        # a perturbed constant must trip the double-entry comparison
        results = dict(
            (name, ok) for name, ok, _ in selftest_checks(mutate_c=1e-6)
        )
        assert not results["double_entry_formulas"]

    @pytest.mark.parametrize(
        "name, attr",
        [
            ("thm41_certificate", "T1_bound"),
            ("thm41_certificate", "T1_bound_stated"),
            ("thm42_constant_N", None),
            ("thm42_certificate", "T_bound"),
        ],
    )
    def test_theorem_formula_mutation_detected(self, monkeypatch, name, attr):
        # a perturbed theorem bound must trip the double-entry comparison
        original = getattr(cert_mod, name)

        def mutated(*args, **kwargs):
            out = original(*args, **kwargs)
            if attr is None:
                return out * (1.0 + 1e-6)
            if out is None or getattr(out, attr) is None:
                return out
            return dataclasses.replace(out, **{attr: getattr(out, attr) * (1.0 + 1e-6)})

        monkeypatch.setattr(cert_mod, name, mutated)
        results = {check: ok for check, ok, _ in selftest_checks()}
        assert not results["double_entry_formulas"]

    def test_tendency_weight_mutation_detected(self, monkeypatch):
        # a perturbed weight row of the stepping kernel must trip the
        # six-product comparison
        class Mutated(evolution.SpectralKernel):
            def __init__(self, params, grid):
                super().__init__(params, grid)
                self.w_u2 = self.w_u2 * (1.0 + 1e-6)

        monkeypatch.setattr(evolution, "SpectralKernel", Mutated)
        results = {check: ok for check, ok, _ in selftest_checks()}
        assert not results["tendency_oracle"]
        assert results["rest_state_equilibrium"]

    def test_cli_exit_codes(self, capsys):
        assert main(["selftest"]) == 0
        assert main(["selftest", "--mutate-c", "1e-6"]) == 1
        capsys.readouterr()

    def test_reflection_mutation_detected(self, monkeypatch):
        # a transport term mu u_x added to the kernel breaks the reflection
        # symmetry of A = Omega = mu = 0
        class Mutated(evolution.SpectralKernel):
            def __init__(self, params, grid):
                super().__init__(params, grid)
                self.w_uh = self.w_uh + 1e-6 * grid.ik

        monkeypatch.setattr(evolution, "SpectralKernel", Mutated)
        results = {check: ok for check, ok, _ in selftest_checks()}
        assert not results["reflection_symmetry"]
