"""The benchmark's workloads: inputs made from a seed, one round of r2ch
operations, and the checks on what the round returned.

Each workload class has

- ``OPS_PER_ROUND``: operations attempted per round (a solve, a Lagrangian
  analysis or a sweep point);
- ``problems()``: (params, L, n, initial-data spec) of every problem it runs;
- ``prepare(problems)``: untimed preparation from the built problems;
- ``round(clock)``: the work of one round, timed step by step with
  ``clock.step(name, solve)``;
- ``check()``: the output checks of the last round, returning
  (list of failed checks, number of failed operations).

Every call into r2ch goes through a module attribute (``EV.run``, not
``r2ch.run``) so that the wrappers of the traced run see it.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import random
import shutil
import struct
import time

import numpy as np
from scipy.integrate import cumulative_simpson

from r2ch import certificates as CE
from r2ch import characteristics as CH
from r2ch import cli as CLI
from r2ch import evolution as EV
from r2ch import model as MO


class Clock:
    """Wall time of each step of a round, in the order the steps ran; in a
    traced round each step is also the span that parents the layers' spans."""

    def __init__(self, tracer=None):
        self.steps: list[tuple[str, float, bool]] = []
        self.tracer = tracer

    @contextlib.contextmanager
    def step(self, name: str, solve: bool = False):
        span = self.tracer.open(f"step.{name}") if self.tracer else None
        t0 = time.perf_counter()
        yield
        self.steps.append((name, time.perf_counter() - t0, solve))
        if span is not None:
            self.tracer.close(span)


def build(problems):
    """Grid, initial state and certificate of every problem: the set-up a
    user pays before any solve."""
    out = []
    for params, L, n, spec in problems:
        grid = MO.build_grid(L, n)
        state0 = MO.synthesize(spec, grid)
        out.append((params, grid, state0, CE.build_certificate(state0, params, grid)))
    return out


def breaking_params():
    return MO.PhysParams(A=0.5, sigma=-1.0, mu=0.0, Omega=0.1)


def thm41_lifespan(s, C, sigma):
    """Proven lifespan bound -2/(sigma s + C^2/s) of the steep-slope data."""
    return -2.0 / (sigma * s + C**2 / s)


def thm41_lower(s, K2, sigma):
    """No solution starting at sup u0_x = s breaks before this time."""
    a = abs(sigma)
    return math.atan(math.sqrt(2.0 * K2 / a) / s) / math.sqrt(a * K2 / 2.0)


def np_deriv(f, L):
    """Spectral d/dx with numpy's FFT, independent of r2ch.spectral."""
    n = f.size
    fh = np.fft.rfft(f) * (1j * math.pi / L * np.arange(n // 2 + 1))
    fh[-1] = 0.0
    return np.fft.irfft(fh, n)


def parabola_max(x, y):
    """Vertex value of the parabola through three points, or the middle
    value when the vertex lies outside them."""
    a, b, c = np.polyfit(x, y, 2)
    if a == 0:
        return y[1]
    xv = -b / (2 * a)
    if not min(x) <= xv <= max(x):
        return y[1]
    return a * xv * xv + b * xv + c


def energy_drift(rows):
    E = np.array([r.E for r in rows])
    return float(np.max(np.abs(E - E[0])) / E[0])


class BreakingN16k:
    """Criterion-10 steep-slope problem at n = 2^14, solved to blow-up
    detection, then certified and its breaking time and rate fitted."""

    OPS_PER_ROUND = 1
    WINDOW = (20.0, 200.0)

    def __init__(self, seed, out_dir):
        rng = random.Random(seed)
        self.slope = rng.uniform(8.7, 9.3)
        self.center = rng.uniform(-0.3, 0.3)

    def problems(self):
        spec = MO.InitialDataSpec(
            u_terms=(MO.ProfileTerm("slope_bump", self.slope, 0.1, self.center),)
        )
        return [(breaking_params(), 5.0, 2**14, spec)]

    def prepare(self, built):
        self.params, self.grid, self.state0, _ = built[0]
        self.settings = EV.RunSettings(
            t_end=0.5, tol=1e-8, blowup_threshold=50.0, dt_max=0.01,
            snapshot_cadence=0, diag_stride=2, dense_diag_above=15.0,
        )

    def round(self, clock):
        p, g = self.params, self.grid
        with clock.step("solve", solve=True):
            rec = EV.run(self.state0, p, g, self.settings)
        with clock.step("analysis"):
            cert = CE.build_certificate(self.state0, p, g)
            fit = EV.estimate_T(rec.rows, p, "sup", self.WINDOW)
            track = CH.track_from_rows(rec, "sup")
            violations = CE.monitor_bounds(rec, cert, track, p)
            rate = CE.rate_check(track, fit.T_est, p, window=self.WINDOW)
        self.result = rec, cert, fit, violations, rate

    def check(self):
        rec, cert, fit, violations, rate = self.result
        sigma = self.params.sigma
        bad = []
        if rec.termination.event != "blowup_detected":
            bad.append(f"termination {rec.termination.event}, expected blowup_detected")
        t41 = cert.thm41
        if t41 is None:
            return bad + ["no thm41 certificate"], 0
        s = t41.u0x_at_witness
        # max of d/dx [a (x - c) exp(-((x - c)/w)^2)] is a, at x = c
        if abs(s - self.slope) > 1e-6 * self.slope:
            bad.append(f"witness slope {s!r} != profile slope {self.slope!r}")
        T1 = thm41_lifespan(s, cert.C, sigma)
        T_lower = thm41_lower(s, cert.K2, sigma)
        if abs(T1 - t41.T1_bound) > 1e-12 * T1:
            bad.append(f"certified T1 {t41.T1_bound!r} != {T1!r}")
        if not (fit.reliable and T_lower <= fit.T_est <= T1):
            bad.append(f"T_est {fit.T_est!r} outside [{T_lower!r}, {T1!r}]")
        if abs(fit.slope_est - sigma / 2) > 0.15 * abs(sigma / 2):
            bad.append(f"reciprocal slope {fit.slope_est!r} not within 15% of {sigma / 2}")
        # (T_est - t) M over the final quarter of the fit window
        t = np.array([r.t for r in rec.rows])
        M = np.array([r.sup_ux for r in rec.rows])
        inside = (M >= self.WINDOW[0]) & (M <= self.WINDOW[1])
        tw = t[inside]
        final = inside & (t >= tw[-1] - 0.25 * (tw[-1] - tw[0]))
        product = float(np.mean((fit.T_est - t[final]) * M[final]))
        target = -2.0 / sigma
        for label, value in (("benchmark", product), ("rate_check", rate.final_mean)):
            if abs(value - target) > 0.10 * abs(target):
                bad.append(f"{label} (T_est - t) M = {value!r} not within 10% of {target}")
        if violations:
            bad.append(f"{len(violations)} monitor violations, first {violations[0]}")
        return bad, 0


class _Smooth:
    """The smooth reference problem of the test suite, shortened to
    t_end = 0.25 (16 snapshots) so that a round takes about a second, with a
    snapshot and a diagnostic row at every accepted step."""

    OPS_PER_ROUND = 2  # the solve and its Lagrangian analysis

    def __init__(self, seed, out_dir):
        rng = random.Random(seed)
        self.u = (rng.uniform(0.27, 0.33), rng.uniform(-1.0, 1.0))
        self.eta = (rng.uniform(0.09, 0.11), rng.uniform(-1.0, 1.0))

    def problems(self):
        spec = MO.InitialDataSpec(
            u_terms=(MO.ProfileTerm("gaussian_bump", self.u[0], 2.0, self.u[1]),),
            eta_terms=(MO.ProfileTerm("eta_bump", self.eta[0], 2.0, self.eta[1]),),
        )
        return [(MO.PhysParams(A=0.5, sigma=1.0, mu=0.2, Omega=0.1), 20.0, 4096, spec)]

    def prepare(self, built):
        self.params, self.grid, self.state0, _ = built[0]
        self.settings = EV.RunSettings(
            t_end=0.25, tol=1e-8, dt_max=0.02, snapshot_cadence=1, diag_stride=1
        )

    def round(self, clock):
        with clock.step("solve", solve=True):
            self.rec = EV.run(self.state0, self.params, self.grid, self.settings)
        with clock.step("lagrangian"):
            self.analyse()

    def check_solve(self):
        bad = []
        if self.rec.termination.event != "reached_t_end":
            bad.append(f"termination {self.rec.termination.event}, expected reached_t_end")
        drift = energy_drift(self.rec.rows)
        if drift > 1e-6:
            bad.append(f"relative energy drift {drift:.3e} > 1e-6")
        return bad


class LagrangianDense(_Smooth):
    """Flow map of all 4,095 interior grid points (criterion 8): many query
    points, one evaluation per RK4 stage."""

    def analyse(self):
        self.traj = CH.advect(self.grid.x[1:].copy(), self.rec, substeps=1)
        self.jc = CH.jacobian_consistency(self.traj)
        self.te = CH.sup_transport_error(self.traj, self.rec, stride=5)

    def check(self):
        bad = self.check_solve()
        traj, rec, L = self.traj, self.rec, self.grid.half_length
        if self.jc > 1e-6 or self.te > 1e-6:
            bad.append(f"flow-map checks: jacobian {self.jc:.3e}, transport {self.te:.3e}")
        if not np.all(np.diff(traj.path, axis=1) > 0):
            bad.append("seed order not kept along the paths")
        integral = cumulative_simpson(traj.u_x_along, x=traj.times, axis=0, initial=0.0)
        jac = np.exp(integral)
        err = float(np.max(np.abs(traj.jac_ode - jac) / jac))
        if err > 1e-6:
            bad.append(f"variational J vs exp(int u_x): rel err {err:.3e} > 1e-6")
        worst = 0.0
        x, dx, n = self.grid.x, self.grid.dx, self.grid.n
        for i, snap in enumerate(rec.snapshots):
            ux = np_deriv(snap.u, L)
            j = int(np.argmax(ux))
            grid_sup = parabola_max(x[j] + dx * np.array([-1.0, 0.0, 1.0]),
                                    ux[[(j - 1) % n, j, (j + 1) % n]])
            vals, q = traj.u_x_along[i], traj.path[i]
            k = int(np.argmax(vals))
            if not 0 < k < vals.size - 1:
                bad.append(f"seed argmax at the edge of the seed set at t={snap.t}")
                continue
            seed_sup = parabola_max(q[k - 1 : k + 2], vals[k - 1 : k + 2])
            worst = max(worst, abs(seed_sup - grid_sup))
        if worst > 1e-6:
            bad.append(f"sup over seeds of u_x vs grid sup: {worst:.3e} > 1e-6")
        return bad, 0


class LagrangianSingle(_Smooth):
    """Argmax track plus the characteristic from the initial argmax
    (criterion 9): one query point, many evaluations."""

    def analyse(self):
        self.track = CH.track_extremum(self.rec, "sup")
        self.traj = CH.advect(np.array([self.track.xi[0]]), self.rec, substeps=2)
        self.ux = CH.sample_along(self.traj, self.rec, "u_x")[:, 0]
        self.rho = CH.sample_along(self.traj, self.rec, "rho")[:, 0]

    def check(self):
        bad = self.check_solve()
        p, tr = self.params, self.track
        # M' = -sigma/2 M^2 + (1 - 2 Omega A)/2 gamma^2 + f along the argmax,
        # away from jumps of the argmax between distant local maxima
        res_M = (np.gradient(tr.M, tr.t) + 0.5 * p.sigma * tr.M**2
                 - 0.5 * p.coriolis_margin * tr.gamma**2 - tr.f_along)
        keep = np.ones(tr.t.size, dtype=bool)
        jump = np.abs(np.diff(tr.xi)) > 10 * self.grid.dx
        keep[:-1] &= ~jump
        keep[1:] &= ~jump
        keep[0] = keep[-1] = False
        res_m = float(np.max(np.abs(res_M[keep])))
        # gamma' = -M gamma along a characteristic
        t = self.traj.times
        res_g = float(np.max(np.abs((np.gradient(self.rho, t) + self.ux * self.rho)[1:-1])))
        predicted = self.rho[0] * np.exp(-cumulative_simpson(self.ux, x=t, initial=0.0))
        decay = float(np.max(np.abs(self.rho - predicted) / np.abs(predicted)))
        if res_m > 1e-3 or res_g > 1e-3 or decay > 1e-5:
            bad.append(f"extremum ODE residuals M {res_m:.3e}, gamma {res_g:.3e} "
                       f"(tol 1e-3), decay mismatch {decay:.3e} (tol 1e-5)")
        return bad, 0


# fixed inputs of the under-resolved steep-slope sweep point: n = 4096 cannot
# resolve the slope, and the run passes its certified lifespan T1 = 0.6724
UNDER_RESOLVED = {"n": 4096, "t_end": 0.8, "slope": 9.0, "center": 0.0}

POSITIVE_CFG = """\
params.A = 0.3
params.sigma = 1.0
params.mu = 0.1
params.Omega = 0.1
grid.L = 20
grid.n = 2048
init.eta = {eta}
run.t_end = 2.0
run.tol = 1e-8
run.snapshot_cadence = 1
run.diag_stride = 1
sweep.init.u = {u_list}
"""

STEEP_CFG = """\
params.A = 0.5
params.sigma = -1.0
params.mu = 0.0
params.Omega = 0.1
grid.L = 5
grid.n = 16384
init.u = slope_bump(a=9.0, w=0.1)
run.t_end = 0.5
run.tol = 1e-8
run.blowup_threshold = 50
run.dt_max = 0.01
run.snapshot_cadence = 0
run.diag_stride = 2
fit.m_lo = 20
fit.m_hi = 40
"""


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


def read_snapshot_t(path, n):
    """Decode one snapshot file; returns its time."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, size, t = struct.unpack_from("<8sIId", blob)
    if magic != b"R2CHSNAP" or version != 1 or size != n or len(blob) != 24 + 16 * n:
        raise ValueError(f"{path}: bad header or length")
    fields = np.frombuffer(blob, dtype="<f8", offset=24)
    if not np.all(np.isfinite(fields)):
        raise ValueError(f"{path}: non-finite samples")
    return t


class SweepCli:
    """``r2ch sweep --jobs 1`` through ``r2ch.cli.main``: the sigma > 0 matrix
    at n = 2048, a resolved steep-slope point at n = 2^14 and one fixed
    under-resolved steep-slope point; then ``r2ch rate`` on the blow-up
    point."""

    AMPLITUDES = (0.1, 0.2, 0.4, 0.6)
    SIGMAS = (0.5, 1.0, 2.0)
    OPS_PER_ROUND = len(AMPLITUDES) * len(SIGMAS) + 2

    def __init__(self, seed, out_dir):
        rng = random.Random(seed)
        self.u_pos = [(a * rng.uniform(0.95, 1.05), rng.uniform(-1.0, 1.0))
                      for a in self.AMPLITUDES]
        self.eta_pos = (rng.uniform(0.09, 0.11), rng.uniform(-1.0, 1.0))
        self.steep = (rng.uniform(8.7, 9.3), rng.uniform(-0.3, 0.3))
        self.out = out_dir
        self.digests = None

    def problems(self):
        eta = MO.ProfileTerm("eta_bump", self.eta_pos[0], 2.0, self.eta_pos[1])
        pos = [
            (MO.PhysParams(A=0.3, sigma=s, mu=0.1, Omega=0.1), 20.0, 2048,
             MO.InitialDataSpec(u_terms=(MO.ProfileTerm("gaussian_bump", a, 2.0, c),),
                                eta_terms=(eta,)))
            for s in self.SIGMAS for a, c in self.u_pos
        ]
        ur = UNDER_RESOLVED
        steep = [
            (breaking_params(), 5.0, n,
             MO.InitialDataSpec(u_terms=(MO.ProfileTerm("slope_bump", a, 0.1, c),)))
            for n, a, c in [(2**14, *self.steep), (ur["n"], ur["slope"], ur["center"])]
        ]
        return pos + steep

    def prepare(self, built):
        """Write the sweep configs.  Each sigma of the matrix and each steep
        point is its own ``r2ch sweep`` invocation, so that every timed step
        of a round lasts about a second."""
        cfg = os.path.join(self.out, "cfg")
        os.makedirs(cfg, exist_ok=True)

        def write(name, text):
            with open(os.path.join(cfg, name), "w") as fh:
                fh.write(text)
            return os.path.join(cfg, name)

        u_list = ", ".join(f"gaussian_bump(a={a!r}, w=2.0, x_c={c!r})" for a, c in self.u_pos)
        eta = f"eta_bump(b={self.eta_pos[0]!r}, w=2.0, x_c={self.eta_pos[1]!r})"
        pos_cfg = write("positive.cfg", POSITIVE_CFG.format(eta=eta, u_list=u_list))
        self.steep_cfg = write("steep.cfg", STEEP_CFG)
        ur = UNDER_RESOLVED
        steep = {
            "steep": "init.u = slope_bump(a={!r}, w=0.1, x_c={!r})".format(*self.steep),
            "under_resolved": f"grid.n = {ur['n']}; run.t_end = {ur['t_end']}; init.u = "
                              f"slope_bump(a={ur['slope']!r}, w=0.1, x_c={ur['center']!r})",
        }
        # (step name, config, seed-list file)
        self.sweeps = [
            (f"sigma_{s}", pos_cfg, write(f"sigma_{s}.list", f"params.sigma = {s}\n"))
            for s in self.SIGMAS
        ] + [
            (name, self.steep_cfg, write(f"{name}.list", line + "\n"))
            for name, line in steep.items()
        ]

    def round(self, clock):
        points = os.path.join(self.out, "points")
        shutil.rmtree(points, ignore_errors=True)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for name, cfg, seed_list in self.sweeps:
                with clock.step(name, solve=True):
                    codes.append(CLI.main(["sweep", "--config", cfg, "--out",
                                           os.path.join(points, name), "--jobs", "1",
                                           "--seed-list", seed_list]))
            with clock.step("rate"):
                codes.append(CLI.main(["rate", "--config", self.steep_cfg, "--out",
                                       os.path.join(points, "steep", "sweep_0000")]))
        self.codes = codes

    def check(self):
        bad = [f"command {i} exited {c}" for i, c in enumerate(self.codes) if c != 0]
        failed = 0
        points = sorted(glob.glob(os.path.join(self.out, "points", "*", "sweep_*")))
        if len(points) != self.OPS_PER_ROUND:
            bad.append(f"{len(points)} sweep points, expected {self.OPS_PER_ROUND}")
        digests = {}
        for d in points:
            name = os.path.relpath(d, os.path.join(self.out, "points"))
            with open(os.path.join(d, "certificate.json")) as fh:
                cert_doc = json.load(fh)
            with open(os.path.join(d, "verdict.json"), "rb") as fh:
                verdict_bytes = fh.read()
            with open(os.path.join(d, "diagnostics.csv"), "rb") as fh:
                csv_bytes = fh.read()
            digests[name] = (hashlib.sha256(verdict_bytes).hexdigest(),
                             hashlib.sha256(csv_bytes).hexdigest())
            verdict = json.loads(verdict_bytes)
            inputs, cert = cert_doc["inputs"], cert_doc["certificate"]
            sigma, n = inputs["sigma"], inputs["grid_n"]
            rows = read_csv(os.path.join(d, "diagnostics.csv"))
            event, t_end = verdict["termination"]["event"], verdict["termination"]["t"]
            t41 = cert["thm41"]
            if t41 is not None and event == "reached_t_end" and t_end > t41["T1_bound"]:
                # the solver does not notice that it is under-resolved
                failed += 1
            if sigma > 0:
                bad += [f"{name}: {m}" for m in self._check_positive(d, cert, verdict, rows, n)]
            elif name.startswith("steep"):
                bad += [f"{name}: {m}" for m in self._check_steep(d, cert, verdict, sigma)]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            bad.append("diagnostics.csv or verdict.json differ from the first round")
        return bad, failed

    @staticmethod
    def _check_positive(d, cert, verdict, rows, n):
        bad = []
        if verdict["exit_code"] != 0:
            bad.append(f"exit code {verdict['exit_code']}, expected 0")
        ceiling = cert["lemma31_ceiling"]
        if np.max(rows["sup_ux"]) > ceiling + 1e-6 * max(1.0, abs(ceiling)):
            bad.append(f"sup_ux {np.max(rows['sup_ux'])!r} above ceiling {ceiling!r}")
        half_C2 = 0.5 * cert["C"] ** 2
        if np.max(rows["f_sup_abs"]) > half_C2 + 1e-6 * max(1.0, half_C2):
            bad.append(f"f_sup_abs {np.max(rows['f_sup_abs'])!r} above C^2/2 {half_C2!r}")
        E = rows["E"]
        drift = float(np.max(np.abs(E - E[0])) / E[0])
        if drift > 1e-6:
            bad.append(f"energy drift {drift:.3e} > 1e-6")
        snaps = sorted(glob.glob(os.path.join(d, "snapshots", "snap_*.bin")))
        try:
            times = [read_snapshot_t(p, n) for p in snaps]
        except ValueError as exc:
            return bad + [str(exc)]
        if len(times) != E.size or not times or times[-1] != rows["t"][-1]:
            bad.append(f"{len(times)} snapshots for {E.size} rows, or last t differs")
        return bad

    @staticmethod
    def _check_steep(d, cert, verdict, sigma):
        bad = []
        if verdict["exit_code"] != 2:
            bad.append(f"exit code {verdict['exit_code']}, expected 2")
        t41 = cert["thm41"]
        if t41 is None:
            return bad + ["no thm41 certificate"]
        s = t41["u0x_at_witness"]
        T1 = thm41_lifespan(s, cert["C"], sigma)
        T_lower = thm41_lower(s, cert["K2"], sigma)
        with open(os.path.join(d, "rate.json")) as fh:
            fit = json.load(fh)["fit"]
        if not (fit["reliable"] and T_lower <= fit["T_est"] <= T1):
            bad.append(f"rate.json T_est {fit['T_est']!r} outside [{T_lower!r}, {T1!r}]")
        return bad


WORKLOADS = {
    "breaking_n16k": BreakingN16k,
    "lagrangian_dense": LagrangianDense,
    "lagrangian_single": LagrangianSingle,
    "sweep_cli": SweepCli,
}
