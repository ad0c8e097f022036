"""Batch front end: config parsing, run orchestration, CSV/JSON artifacts.

Subcommands: run | certify | rate | sweep | selftest.

The config format is flat ``key = value`` text with ``#`` comments and dotted
keys; unknown keys are rejected with line numbers.  All data files are
written deterministically: fixed column order, 17 significant digits, no
timestamps.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import re
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from . import certificates as cert_mod
from . import crosscheck
from .characteristics import ExtremumTrack, track_from_rows
from .evolution import (
    DiagnosticRow,
    FitWindowError,
    RunSettings,
    detect_blowup,
    estimate_T,
    rhs,
    run as run_sim,
)
from .model import (
    DecayViolation,
    FieldState,
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    RegimeFlags,
    build_grid,
    classify_regime,
    synthesize,
)
from .spectral import direct_conv_oracle, helmholtz_conv, helmholtz_conv_dx

SNAPSHOT_MAGIC = b"R2CHSNAP"
SNAPSHOT_VERSION = 1

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_INVARIANT = 3
EXIT_CONFIG = 4

CSV_COLUMNS = [
    "t",
    "dt",
    "E",
    "E_drift_rel",
    "sup_ux",
    "inf_ux",
    "x_at_sup_ux",
    "x_at_inf_ux",
    "sup_abs_eta",
    "min_rho",
    "m3",
    "f_sup_abs",
    "lemma31_ceiling",
    "boundary_leak",
]


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------------
# config parsing


_KNOWN_KEYS = {
    "params.A": (float, None),
    "params.sigma": (float, None),
    "params.mu": (float, 0.0),
    "params.Omega": (float, 0.0),
    "grid.L": (float, 20.0),
    "grid.n": (int, 4096),
    "init.u": (str, "zero"),
    "init.eta": (str, "zero"),
    "init.decay_tol": (float, 1e-10),
    "run.t_end": (float, 1.0),
    "run.tol": (float, 1e-8),
    "run.blowup_threshold": (float, 1e3),
    "run.dt_floor": (float, 1e-12),
    "run.dt_max": (float, 0.05),
    "run.dt_init": (float, 1e-3),
    "run.snapshot_cadence": (int, 1),
    "run.diag_stride": (int, 10),
    "fit.m_lo": (float, 20.0),
    "fit.m_hi": (float, None),  # default: blowup threshold / 2
    "thm42.m_assumed": (float, None),
    "output.dir": (str, "out"),
}

_REQUIRED = ("params.A", "params.sigma")


@dataclass(frozen=True)
class RunConfig:
    raw: dict
    params: PhysParams
    grid_L: float
    grid_n: int
    init: InitialDataSpec
    settings: RunSettings
    fit_window: tuple[float, float]
    m_assumed: float | None
    out_dir: str
    sweep_lists: dict = field(default_factory=dict)


_TERM_RE = re.compile(r"^\s*(\w+)\s*\(([^()]*)\)\s*$")


def _parse_profile(expr: str, for_eta: bool) -> tuple[tuple[ProfileTerm, ...], bool]:
    expr = expr.strip()
    if expr == "zero":
        return (), False
    if expr == "eta_zero":
        if not for_eta:
            raise ConfigError("eta_zero is only valid for init.eta")
        return (), True
    terms = []
    for part in expr.split("+"):
        m = _TERM_RE.match(part)
        if not m:
            raise ConfigError(f"cannot parse profile term {part.strip()!r}")
        kind, body = m.group(1), m.group(2)
        kv = {}
        for item in body.split(","):
            if not item.strip():
                continue
            if "=" not in item:
                raise ConfigError(f"malformed parameter {item.strip()!r} in {part.strip()!r}")
            k, v = item.split("=", 1)
            try:
                kv[k.strip()] = float(v)
            except ValueError as exc:
                raise ConfigError(f"bad number {v.strip()!r} in {part.strip()!r}") from exc
        amp_key = "b" if kind == "eta_bump" else "a"
        try:
            term = ProfileTerm(
                kind=kind,
                amp=kv.pop(amp_key),
                width=kv.pop("w"),
                center=kv.pop("x_c", 0.0),
            )
        except KeyError as exc:
            raise ConfigError(f"profile {kind} missing parameter {exc.args[0]}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if kv:
            raise ConfigError(f"unknown profile parameters {sorted(kv)} in {part.strip()!r}")
        terms.append(term)
    return tuple(terms), False


def parse_config(text: str) -> RunConfig:
    """Parse and validate the flat key = value config format."""
    values: dict[str, str] = {}
    sweep_lists: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key.startswith("sweep."):
            base = key[len("sweep."):]
            if base not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown sweep key {base!r}")
            sweep_lists[base] = _split_top_level(value)
            continue
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")

    parsed: dict = {}
    for key, (typ, default) in _KNOWN_KEYS.items():
        if key in values:
            try:
                parsed[key] = typ(values[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse {values[key]!r} as {typ.__name__}") from exc
        else:
            parsed[key] = default

    try:
        params = PhysParams(
            A=parsed["params.A"],
            sigma=parsed["params.sigma"],
            mu=parsed["params.mu"],
            Omega=parsed["params.Omega"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    u_terms, _ = _parse_profile(parsed["init.u"], for_eta=False)
    eta_terms, eta_zero = _parse_profile(parsed["init.eta"], for_eta=True)
    try:
        init = InitialDataSpec(
            u_terms=u_terms,
            eta_terms=eta_terms,
            eta_zero=eta_zero,
            decay_tol=parsed["init.decay_tol"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    G = parsed["run.blowup_threshold"]
    m_lo = parsed["fit.m_lo"]
    m_hi = parsed["fit.m_hi"] if parsed["fit.m_hi"] is not None else G / 2.0
    if not (G > m_hi > m_lo > 0):
        raise ConfigError(
            f"fit window must satisfy blowup_threshold > m_hi > m_lo > 0, "
            f"got G={G}, m_hi={m_hi}, m_lo={m_lo}"
        )
    try:
        settings = RunSettings(
            t_end=parsed["run.t_end"],
            tol=parsed["run.tol"],
            blowup_threshold=G,
            dt_floor=parsed["run.dt_floor"],
            dt_max=parsed["run.dt_max"],
            dt_init=parsed["run.dt_init"],
            snapshot_cadence=parsed["run.snapshot_cadence"],
            diag_stride=parsed["run.diag_stride"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        raw=parsed,
        params=params,
        grid_L=parsed["grid.L"],
        grid_n=parsed["grid.n"],
        init=init,
        settings=settings,
        fit_window=(m_lo, m_hi),
        m_assumed=parsed["thm42.m_assumed"],
        out_dir=parsed["output.dir"],
        sweep_lists=sweep_lists,
    )


def _split_top_level(value: str) -> list[str]:
    """Split a comma-separated list, ignoring commas inside parentheses."""
    out, depth, cur = [], 0, []
    for ch in value:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur).strip())
    return [v for v in out if v]


# ----------------------------------------------------------------------------
# artifact writers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_diagnostics_csv(path: str, rows: list[DiagnosticRow]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    E0 = rows[0].E if rows else 0.0
    for r in rows:
        drift = (r.E - E0) / max(E0, 1e-14)
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.t,
                    r.dt,
                    r.E,
                    drift,
                    r.sup_ux,
                    r.inf_ux,
                    r.x_at_sup_ux,
                    r.x_at_inf_ux,
                    r.sup_abs_eta,
                    r.min_rho,
                    r.m3,
                    r.f_sup_abs,
                    r.lemma31_ceiling,
                    r.boundary_leak,
                )
            )
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics_csv(path: str) -> list[DiagnosticRow]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != CSV_COLUMNS:
            raise ConfigError(f"{path}: unexpected CSV columns")
        rows = []
        for line in fh:
            vals = dict(zip(header, (float(v) for v in line.strip().split(","))))
            rows.append(
                DiagnosticRow(
                    t=vals["t"],
                    dt=vals["dt"],
                    E=vals["E"],
                    sup_ux=vals["sup_ux"],
                    inf_ux=vals["inf_ux"],
                    x_at_sup_ux=vals["x_at_sup_ux"],
                    x_at_inf_ux=vals["x_at_inf_ux"],
                    sup_abs_eta=vals["sup_abs_eta"],
                    min_rho=vals["min_rho"],
                    m3=vals["m3"],
                    f_sup_abs=vals["f_sup_abs"],
                    lemma31_ceiling=vals["lemma31_ceiling"],
                    boundary_leak=vals["boundary_leak"],
                )
            )
    return rows


def write_snapshot(path: str, state: FieldState) -> None:
    n = state.u.size
    with open(path, "wb") as fh:
        fh.write(struct.pack("<8sII", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, n))
        fh.write(struct.pack("<d", state.t))
        fh.write(state.u.astype("<f8").tobytes())
        fh.write(state.eta.astype("<f8").tobytes())


def read_snapshot(path: str) -> FieldState:
    with open(path, "rb") as fh:
        magic, version, n = struct.unpack("<8sII", fh.read(16))
        if magic != SNAPSHOT_MAGIC:
            raise ConfigError(f"{path}: bad snapshot magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ConfigError(f"{path}: unsupported snapshot version {version}")
        (t,) = struct.unpack("<d", fh.read(8))
        u = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
        eta = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
    return FieldState(t=t, u=u, eta=eta)


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    if isinstance(obj, np.ndarray):
        return [_jsonable(float(v)) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=False)
        fh.write("\n")


def certificate_payload(cfg: RunConfig, certificate) -> dict:
    return {
        "inputs": {
            "A": cfg.params.A,
            "sigma": cfg.params.sigma,
            "mu": cfg.params.mu,
            "Omega": cfg.params.Omega,
            "grid_L": cfg.grid_L,
            "grid_n": cfg.grid_n,
            "init_u": cfg.raw["init.u"],
            "init_eta": cfg.raw["init.eta"],
            "M_assumed": cfg.m_assumed,
        },
        "certificate": certificate,
    }


# ----------------------------------------------------------------------------
# commands


def _build_problem(cfg: RunConfig):
    grid = build_grid(cfg.grid_L, cfg.grid_n)
    state0 = synthesize(cfg.init, grid)
    certificate = cert_mod.build_certificate(state0, cfg.params, grid, cfg.m_assumed)
    return grid, state0, certificate


def execute_run(cfg: RunConfig, out_dir: str) -> int:
    """Run one configuration and write all artifacts into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    grid, state0, certificate = _build_problem(cfg)
    ceiling = certificate.lemma31_ceiling if certificate.lemma31_ceiling is not None else math.nan
    rec = run_sim(state0, cfg.params, grid, cfg.settings, lemma31_ceiling=ceiling)

    write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), rec.rows)
    snap_dir = os.path.join(out_dir, "snapshots")
    if rec.snapshots:
        os.makedirs(snap_dir, exist_ok=True)
        for i, snap in enumerate(rec.snapshots):
            write_snapshot(os.path.join(snap_dir, f"snap_{i:06d}.bin"), snap)
    write_json(
        os.path.join(out_dir, "certificate.json"),
        certificate_payload(cfg, certificate),
    )

    regime = classify_regime(cfg.params)
    event = detect_blowup(rec.rows, regime, cfg.settings.blowup_threshold)
    # the two-sided detector of the general scenario, recorded alongside
    twosided = detect_blowup(
        rec.rows, RegimeFlags(False, False, False), cfg.settings.blowup_threshold
    )

    track_sup = track_from_rows(rec, "sup")
    violations = cert_mod.monitor_bounds(rec, certificate, track_sup, cfg.params)

    fit = None
    rate = None
    blew_up = rec.termination.event == "blowup_detected"
    if blew_up:
        branch = "inf" if cfg.params.sigma > 0 else "sup"
        try:
            fit = estimate_T(rec.rows, cfg.params, branch, cfg.fit_window)
        except FitWindowError:
            fit = None
        if fit is not None and fit.reliable and cfg.params.sigma < 0:
            try:
                rate = cert_mod.rate_check(
                    track_sup, fit.T_est, cfg.params, window=cfg.fit_window
                )
            except ValueError:
                rate = None

    thm42_validation = None
    if cfg.m_assumed is not None:
        observed = max(r.max_rho for r in rec.rows)
        thm42_validation = {
            "M_assumed": cfg.m_assumed,
            "observed_rho_sup": observed,
            "validated": observed <= cfg.m_assumed,
        }

    exit_code = {
        "reached_t_end": EXIT_OK,
        "blowup_detected": EXIT_BLOWUP,
        "invariant_violation": EXIT_INVARIANT,
        "step_floor": EXIT_INVARIANT,
    }[rec.termination.event]

    verdict = {
        "termination": {"event": rec.termination.event, "t": rec.termination.t},
        "exit_code": exit_code,
        "detectors": {
            "regime_specific": event,
            "two_sided": twosided,
        },
        "monitor_violations": violations,
        "boundary_leak_max": max(r.boundary_leak for r in rec.rows),
        "fit": fit,
        "rate": (
            {
                "final_mean": rate.final_mean,
                "target": rate.target,
                "rel_error": rate.rel_error,
                "validated": rate.validated,
            }
            if rate is not None
            else None
        ),
        "thm42_validation": thm42_validation,
    }
    write_json(os.path.join(out_dir, "verdict.json"), verdict)
    return exit_code


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args)
        return execute_run(cfg, args.out or cfg.out_dir)
    except (ConfigError, DecayViolation, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def cmd_certify(args) -> int:
    try:
        cfg = _load_config(args)
        out_dir = args.out or cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        _, _, certificate = _build_problem(cfg)
        write_json(
            os.path.join(out_dir, "certificate.json"),
            certificate_payload(cfg, certificate),
        )
        return EXIT_OK
    except (ConfigError, DecayViolation, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def cmd_rate(args) -> int:
    """Breaking-time extrapolation and rate product from a completed run."""
    try:
        cfg = _load_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or cfg.out_dir
    csv_path = os.path.join(out_dir, "diagnostics.csv")
    if not os.path.exists(csv_path):
        print(f"config error: no diagnostics at {csv_path}", file=sys.stderr)
        return EXIT_CONFIG
    rows = read_diagnostics_csv(csv_path)
    branch = "inf" if cfg.params.sigma > 0 else "sup"
    try:
        fit = estimate_T(rows, cfg.params, branch, cfg.fit_window)
    except FitWindowError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    payload = {"fit": fit, "rate": None}
    t = np.array([r.t for r in rows])
    M = np.array([r.sup_ux if branch == "sup" else r.inf_ux for r in rows])
    track = ExtremumTrack(
        branch=branch,
        t=t,
        xi=np.array([r.x_at_sup_ux if branch == "sup" else r.x_at_inf_ux for r in rows]),
        M=M,
        gamma=np.full_like(t, math.nan),
        f_along=np.full_like(t, math.nan),
    )
    if fit.reliable:
        rate = cert_mod.rate_check(
            track,
            fit.T_est,
            cfg.params,
            window=cfg.fit_window,
            allow_unvalidated=cfg.params.sigma >= 0,
        )
        payload["rate"] = {
            "final_mean": rate.final_mean,
            "target": rate.target,
            "rel_error": rate.rel_error,
            "validated": rate.validated,
        }
    write_json(os.path.join(out_dir, "rate.json"), payload)
    print(f"T_est = {fit.T_est!r}  slope = {fit.slope_est!r}  reliable = {fit.reliable}")
    return EXIT_OK


def _sweep_one(payload):
    """Worker: run one sweep point inside its own subdirectory."""
    text, overrides, out_dir = payload
    summary = dict(overrides)
    try:
        lines = [
            line
            for line in text.splitlines()
            if not any(
                line.split("#", 1)[0].strip().startswith(k.strip() + " ")
                or line.split("#", 1)[0].strip().startswith(k.strip() + "=")
                for k in overrides
            )
            and not line.split("#", 1)[0].strip().startswith("sweep.")
            and not line.split("#", 1)[0].strip().startswith("output.dir")
        ]
        for k, v in overrides.items():
            lines.append(f"{k} = {v}")
        cfg = parse_config("\n".join(lines))
        code = execute_run(cfg, out_dir)
        with open(os.path.join(out_dir, "verdict.json")) as fh:
            verdict = json.load(fh)
        # the certificate that execute_run built and wrote, read back exactly
        with open(os.path.join(out_dir, "certificate.json")) as fh:
            certificate = json.load(fh)["certificate"]
        summary.update(
            status="ok",
            exit_code=code,
            termination=verdict["termination"]["event"],
            E0=certificate["E0"],
            C=certificate["C"],
            thm41_certified=certificate["thm41"] is not None,
            thm42_condition=(
                certificate["thm42"]["condition_met"] if certificate["thm42"] else False
            ),
            T_est=(verdict["fit"] or {}).get("T_est"),
            rate_final_mean=(verdict["rate"] or {}).get("final_mean"),
        )
    except Exception as exc:  # per-run failures never abort the sweep
        summary.update(status=f"error: {exc}", exit_code=EXIT_CONFIG)
    return summary


def cmd_sweep(args) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
        cfg = parse_config(text)
    except (OSError, ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    override_sets: list[dict] = [{}]
    for key, options in cfg.sweep_lists.items():
        override_sets = [
            {**base, key: opt} for base in override_sets for opt in options
        ]
    if args.seed_list:
        extra = []
        with open(args.seed_list) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                ov = {}
                for item in _split_top_level(line.replace(";", ",")):
                    k, v = item.split("=", 1)
                    ov[k.strip()] = v.strip()
                extra.append(ov)
        if override_sets == [{}]:
            override_sets = extra
        else:
            override_sets = [{**a, **b} for a in override_sets for b in extra]

    out_root = args.out or cfg.out_dir
    os.makedirs(out_root, exist_ok=True)
    payloads = [
        (text, ov, os.path.join(out_root, f"sweep_{i:04d}"))
        for i, ov in enumerate(override_sets)
    ]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            summaries = list(pool.map(_sweep_one, payloads))
    else:
        summaries = [_sweep_one(p) for p in payloads]

    keys = sorted({k for s in summaries for k in s})
    lines = [",".join(keys)]
    for s in summaries:
        lines.append(
            ",".join(
                "" if s.get(k) is None else str(s.get(k)).replace(",", ";") for k in keys
            )
        )
    with open(os.path.join(out_root, "summary.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(summaries)} sweep runs -> {out_root}/summary.csv")
    return EXIT_OK


def selftest_checks(mutate_c: float = 0.0):
    """The oracle suite: yields (name, passed, detail)."""
    rng = np.random.default_rng(20240817)

    grid = build_grid(20.0, 2048)
    g = np.exp(-((grid.x - 1.0) / 2.0) ** 2)
    a = helmholtz_conv(g, grid)
    b = direct_conv_oracle(g, grid, "p")
    err_p = float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
    yield "kernel_oracle_p", err_p <= 1e-8, f"rel err {err_p:.3e}"
    c = helmholtz_conv_dx(g, grid)
    d = direct_conv_oracle(g, grid, "dxp")
    err_d = float(np.max(np.abs(c - d)) / np.max(np.abs(d)))
    yield "kernel_oracle_dxp", err_d <= 1e-8, f"rel err {err_d:.3e}"

    worst = 0.0
    for _ in range(20):
        A = rng.uniform(-1, 1)
        Om = rng.uniform(0, 0.5)
        if 1 - 2 * Om * A <= 0:
            A = 0.0
        p = PhysParams(A=A, sigma=rng.uniform(-2, 2), mu=rng.uniform(-1, 1), Omega=Om)
        st = FieldState(0.0, np.zeros(grid.n), np.zeros(grid.n))
        td = rhs(st, p, grid)
        worst = max(worst, float(np.max(np.abs(td.du_dt))), float(np.max(np.abs(td.deta_dt))))
    yield "rest_state_equilibrium", worst <= 1e-12, f"max |rhs| {worst:.3e}"

    worst_rel = 0.0
    # the initial profiles of the theorem certificates come from their own
    # generator, so the parameter draws stay those of the formula audit
    rng_u0 = np.random.default_rng(20240818)
    grid_u0 = build_grid(5.0, 256)

    def slope_profile(amp):
        spec = InitialDataSpec(u_terms=(ProfileTerm("slope_bump", amp, 0.2, 0.0),), decay_tol=1.0)
        return synthesize(spec, grid_u0).u

    for _ in range(1000):
        A = rng.uniform(-0.9, 0.9)
        Om = rng.uniform(0.0, 0.45)
        while 1 - 2 * Om * A <= 0.05:
            A, Om = rng.uniform(-0.9, 0.9), rng.uniform(0.0, 0.45)
        sigma = rng.uniform(-3, 3)
        mu = rng.uniform(-1, 1)
        p = PhysParams(A=A, sigma=sigma, mu=mu, Omega=Om)
        E0 = rng.uniform(0, 5)
        rs = rng.uniform(0, 3)
        C1 = cert_mod.constant_C(E0, rs, p) * (1.0 + mutate_c)
        C2 = crosscheck.constant_C_alt(E0, rs, A, sigma, mu, Om)
        worst_rel = max(worst_rel, abs(C1 - C2) / C2)
        K1 = cert_mod.k2_bound(C1, rs, p)
        K2a = crosscheck.k2_alt(C1, rs, A, Om)
        worst_rel = max(worst_rel, abs(K1 - K2a) / K2a)
        if sigma > 0:
            u0x = rng.uniform(0, 3)
            L1 = cert_mod.lemma31_ceiling(u0x, rs, C1, p)
            L2 = crosscheck.lemma31_ceiling_alt(u0x, rs, C1, A, sigma, Om)
            worst_rel = max(worst_rel, abs(L1 - L2) / max(abs(L2), 1e-30))
        if sigma < 0:
            u0 = slope_profile(rng_u0.uniform(1.5, 3.0) * C1 / math.sqrt(-sigma))
            t41 = cert_mod.thm41_certificate(u0, grid_u0, C1, p)
            if t41 is not None:
                slope = t41.u0x_at_witness
                T1 = crosscheck.t1_bound_alt(slope, C1, sigma)
                T1s = crosscheck.t1_bound_stated_alt(slope, C1, sigma)
                worst_rel = max(worst_rel, abs(t41.T1_bound - T1) / T1)
                worst_rel = max(worst_rel, abs(t41.T1_bound_stated - T1s) / T1s)
        if E0 > 0:
            M_assumed = rng_u0.uniform(0, 3)
            pN = PhysParams(A=A, sigma=1.0, mu=0.0, Omega=Om)
            N1 = cert_mod.thm42_constant_N(E0, M_assumed, pN)
            N2 = crosscheck.thm42_N_alt(E0, M_assumed, A, Om)
            worst_rel = max(worst_rel, abs(N1 - N2) / N2)
            u0 = slope_profile(-rng_u0.uniform(2, 6))
            t42 = cert_mod.thm42_certificate(u0, grid_u0, N1, E0)
            if t42.T_bound is not None:
                T2 = crosscheck.thm42_T_alt(t42.m0, E0, N1)
                worst_rel = max(worst_rel, abs(t42.T_bound - T2) / T2)
    yield "double_entry_formulas", worst_rel <= 1e-12, f"max rel diff {worst_rel:.3e}"

    # synthetic exact reciprocal profile: M = -2/(sigma (T - t)), sigma=-1, T=3
    p = PhysParams(A=0.0, sigma=-1.0, mu=0.0, Omega=0.0)
    T = 3.0
    ts = np.linspace(0.0, 2.95, 200)
    M = -2.0 / (p.sigma * (T - ts))
    rows = [
        DiagnosticRow(
            t=float(t), dt=0.0, E=0.0, sup_ux=float(m), inf_ux=0.0,
            x_at_sup_ux=0.0, x_at_inf_ux=0.0, sup_abs_eta=0.0, min_rho=1.0,
            m3=0.0, f_sup_abs=0.0, lemma31_ceiling=math.nan, boundary_leak=0.0,
        )
        for t, m in zip(ts, M)
    ]
    fit = estimate_T(rows, p, "sup", (2.0, 1e3))
    ok = abs(fit.T_est - T) <= 1e-10 and abs(fit.slope_est + 0.5) <= 1e-10 and fit.reliable
    yield "synthetic_rate_profile", ok, f"T_est {fit.T_est!r} slope {fit.slope_est!r}"


def cmd_selftest(args) -> int:
    failures = 0
    for name, passed, detail in selftest_checks(mutate_c=args.mutate_c):
        status = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        print(f"{status}  {name:28s} {detail}")
    return 0 if failures == 0 else 1


def _load_config(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="r2ch",
        description="Simulator and certificate checker for a rotation-two-component "
        "Camassa-Holm shallow-water system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("run", cmd_run),
        ("certify", cmd_certify),
        ("rate", cmd_rate),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("sweep")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--seed-list", default=None)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("selftest")
    sp.add_argument(
        "--mutate-c",
        type=float,
        default=0.0,
        help="perturb the forcing-bound constant (mutation-sensitivity mode)",
    )
    sp.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
