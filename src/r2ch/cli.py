"""Batch front end: config parsing, run orchestration, CSV/JSON artifacts.

Subcommands: run | certify | rate | sweep | selftest (``crosscheck.selftest_checks``).

The config format is flat ``key = value`` text with ``#`` comments and dotted
keys; ``_KNOWN_KEYS`` gives each key its parser, default and target field.
``CSV_COLUMNS`` is the one diagnostics.csv schema.  Every bad input ends in
``main`` with exit code 4.  All data files are written deterministically:
fixed column order, 17 significant digits, no timestamps.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import math
import os
import re
import struct
import sys

import numpy as np

from . import certificates as cert_mod
from .characteristics import track_from_rows
from .evolution import (
    DiagnosticRow,
    FitWindowError,
    RunRecord,
    RunSettings,
    detect_blowup,
    estimate_T,
    run as run_sim,
)
from .model import (
    FieldState,
    Grid,
    InitialDataSpec,
    PhysParams,
    ProfileTerm,
    build_grid,
    synthesize,
)

SNAPSHOT_MAGIC = b"R2CHSNAP"
SNAPSHOT_VERSION = 1
_SNAPSHOT_HEADER = "<8sIId"  # magic, version, n, t

EXIT_OK = 0
EXIT_BLOWUP = 2
EXIT_INVARIANT = 3
EXIT_CONFIG = 4

# the DiagnosticRow fields without a default (not the extremum-track extras),
# and the two columns a row does not hold: the energy drift relative to the
# first row after E, and the certificate's Lemma 3.1 ceiling before boundary_leak
_ROW_COLUMNS = tuple(
    f.name for f in dataclasses.fields(DiagnosticRow) if f.default is dataclasses.MISSING
)
CSV_COLUMNS = _ROW_COLUMNS[:3] + ("E_drift_rel",) + _ROW_COLUMNS[3:-1]
CSV_COLUMNS += ("lemma31_ceiling",) + _ROW_COLUMNS[-1:]


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------------
# config parsing


_REQUIRED = object()  # default of a key that every config must set
_FIELD = object()  # default of a targeted key: its field's default


def _finite_float(text: str) -> float:
    # a NaN fails every comparison, so a NaN tolerance switches its check off
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# key: (parser, default, target).  The value fills the field named by the
# key's last part in the target dataclass, and a _FIELD default is that
# field's own; a None target is read by name.
_KNOWN_KEYS = {
    "params.A": (_finite_float, _REQUIRED, PhysParams),
    "params.sigma": (_finite_float, _REQUIRED, PhysParams),
    "params.mu": (_finite_float, 0.0, PhysParams),
    "params.Omega": (_finite_float, 0.0, PhysParams),
    "grid.L": (_finite_float, 20.0, None),
    "grid.n": (int, 4096, None),
    "init.u": (str, "zero", None),
    "init.eta": (str, "zero", None),
    "init.decay_tol": (_finite_float, _FIELD, InitialDataSpec),
    "run.t_end": (_finite_float, 1.0, RunSettings),
    "run.tol": (_finite_float, _FIELD, RunSettings),
    "run.blowup_threshold": (_finite_float, _FIELD, RunSettings),
    "run.dt_floor": (_finite_float, _FIELD, RunSettings),
    "run.dt_max": (_finite_float, _FIELD, RunSettings),
    "run.dt_init": (_finite_float, _FIELD, RunSettings),
    "run.snapshot_cadence": (int, _FIELD, RunSettings),
    "run.diag_stride": (int, _FIELD, RunSettings),
    "fit.m_lo": (_finite_float, 20.0, None),
    "fit.m_hi": (_finite_float, None, None),  # default: blowup threshold / 2
    "thm42.m_assumed": (_finite_float, None, None),
    "output.dir": (str, "out", None),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    raw: dict
    params: PhysParams
    grid: Grid
    init: InitialDataSpec
    settings: RunSettings
    fit_window: tuple[float, float]
    m_assumed: float | None
    out_dir: str
    sweep_lists: dict = dataclasses.field(default_factory=dict)


_TERM_RE = re.compile(r"^\s*(\w+)\s*\(([^()]*)\)\s*$")


def _key_value(item: str, where: str) -> tuple[str, str]:
    """Split one ``key = value`` item; ``where`` locates it in the error."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected 'key = value', got {item.strip()!r}")
    key, value = item.split("=", 1)
    return key.strip(), value.strip()


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
        amp_key = "b" if kind == "eta_bump" else "a"
        try:
            kv = {}
            for item in _split_top_level(body):
                k, v = _key_value(item, "parameter")
                kv[k] = float(v)
            term = ProfileTerm(
                kind=kind,
                amp=kv.pop(amp_key),
                width=kv.pop("w"),
                center=kv.pop("x_c", 0.0),
            )
        except KeyError as exc:
            raise ConfigError(f"profile {kind} missing parameter {exc.args[0]}") from exc
        except ValueError as exc:
            raise ConfigError(f"{exc} in {part.strip()!r}") from exc
        if kv:
            raise ConfigError(f"unknown profile parameters {sorted(kv)} in {part.strip()!r}")
        terms.append(term)
    return tuple(terms), False


def _construct(cls, parsed: dict, **derived):
    """cls(**the parsed values targeted at cls, **derived), as a ConfigError on failure."""
    fields = {
        key.rsplit(".", 1)[1]: parsed[key]
        for key, (_, _, target) in _KNOWN_KEYS.items()
        if target is cls
    }
    try:
        return cls(**fields, **derived)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse and validate the flat key = value config format; ``overrides``
    (key -> value text, one sweep point) replace values of the text."""
    values: dict[str, str] = {}
    sweep_lists: dict[str, list[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, value = _key_value(stripped, f"line {lineno}")
        base = key.removeprefix("sweep.")
        if base not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if base in (values if base == key else sweep_lists):
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if base == key:
            values[key] = value
        elif options := _split_top_level(value):
            sweep_lists[base] = options
        else:
            raise ConfigError(f"line {lineno}: empty sweep list {key!r}")
    for key, value in (overrides or {}).items():
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = value

    parsed: dict = {}
    for key, (parse, default, target) in _KNOWN_KEYS.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            if default is _FIELD:
                name = key.rsplit(".", 1)[1]
                default = next(f.default for f in dataclasses.fields(target) if f.name == name)
            parsed[key] = default
            continue
        try:
            parsed[key] = parse(values[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc

    params = _construct(PhysParams, parsed)
    u_terms, _ = _parse_profile(parsed["init.u"], for_eta=False)
    eta_terms, eta_zero = _parse_profile(parsed["init.eta"], for_eta=True)
    G = parsed["run.blowup_threshold"]
    m_lo = parsed["fit.m_lo"]
    m_hi = parsed["fit.m_hi"] if parsed["fit.m_hi"] is not None else G / 2.0
    if not (G > m_hi > m_lo > 0):
        raise ConfigError(
            f"fit window must satisfy blowup_threshold > m_hi > m_lo > 0, "
            f"got G={G}, m_hi={m_hi}, m_lo={m_lo}"
        )
    return RunConfig(
        raw=parsed,
        params=params,
        grid=_construct(build_grid, parsed, half_length=parsed["grid.L"], n=parsed["grid.n"]),
        init=_construct(
            InitialDataSpec, parsed, u_terms=u_terms, eta_terms=eta_terms, eta_zero=eta_zero
        ),
        # every accepted step with |u_x| above the fit window's floor gets a row
        settings=_construct(RunSettings, parsed, dense_diag_above=m_lo),
        fit_window=(m_lo, m_hi),
        m_assumed=parsed["thm42.m_assumed"],
        out_dir=parsed["output.dir"],
        sweep_lists=sweep_lists,
    )


def _split_top_level(value: str) -> list[str]:
    """Split a comma-separated list, ignoring commas inside (unnested) parentheses."""
    return [v.strip() for v in re.split(r",(?![^(]*\))", value) if v.strip()]


def _read_seed_list(path: str) -> list[dict[str, str]]:
    """One override set per non-blank line: ``key = value; key = value``."""
    sets = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if line:
                where = f"{path}: line {lineno}"
                items = _split_top_level(line.replace(";", ","))
                overrides = dict(_key_value(item, where) for item in items)
                for key in overrides:
                    if key not in _KNOWN_KEYS:
                        raise ConfigError(f"{where}: unknown key {key!r}")
                sets.append(overrides)
    if not sets:
        raise ConfigError(f"{path}: no override sets")
    return sets


# ----------------------------------------------------------------------------
# artifact writers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_diagnostics_csv(path: str, rows: list[DiagnosticRow], certificate=None) -> None:
    """The rows as diagnostics.csv, each with its energy drift and the Lemma
    3.1 ceiling of ``certificate`` (a ``Certificate``; NaN for None or no ceiling)."""
    ceiling = None if certificate is None else certificate.lemma31_ceiling
    ceiling = math.nan if ceiling is None else ceiling
    lines = [",".join(CSV_COLUMNS)]
    E0 = rows[0].E if rows else 0.0
    for r in rows:
        values = {**vars(r), "E_drift_rel": (r.E - E0) / max(E0, 1e-14), "lemma31_ceiling": ceiling}
        lines.append(",".join(_fmt(values[c]) for c in CSV_COLUMNS))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics_csv(path: str) -> list[DiagnosticRow]:
    """The rows of a diagnostics.csv; a damaged line raises ConfigError."""
    rows = []
    with open(path) as fh:
        if fh.readline().strip().split(",") != list(CSV_COLUMNS):
            raise ConfigError(f"{path}: unexpected CSV columns")
        for lineno, line in enumerate(fh, start=2):
            try:
                values = dict(zip(CSV_COLUMNS, map(float, line.strip().split(",")), strict=True))
            except ValueError as exc:  # a field that is no number, or too few or many
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
            del values["E_drift_rel"], values["lemma31_ceiling"]
            rows.append(DiagnosticRow(**values))
    return rows


def write_snapshot(path: str, state: FieldState) -> None:
    n = state.u.size
    with open(path, "wb") as fh:
        fh.write(struct.pack(_SNAPSHOT_HEADER, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, n, state.t))
        fh.write(state.u.astype("<f8").tobytes())
        fh.write(state.eta.astype("<f8").tobytes())


def read_snapshot(path: str) -> FieldState:
    with open(path, "rb") as fh:
        magic, version, n, t = struct.unpack(_SNAPSHOT_HEADER, fh.read(24))
        if magic != SNAPSHOT_MAGIC:
            raise ConfigError(f"{path}: bad snapshot magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ConfigError(f"{path}: unsupported snapshot version {version}")
        u = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
        eta = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
    return FieldState(t=t, u=u, eta=eta)


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):  # a field hidden from repr is not written
        fields = obj.__dataclass_fields__.items()
        return {k: _jsonable(getattr(obj, k)) for k, f in fields if f.repr}
    if isinstance(obj, np.ndarray):
        return [_jsonable(float(v)) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=False)
        fh.write("\n")


# ----------------------------------------------------------------------------
# commands


def _certify(cfg: RunConfig, out_dir: str):
    """Build the initial state and write its certificate.json into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    state0 = synthesize(cfg.init, cfg.grid)
    certificate = cert_mod.build_certificate(state0, cfg.params, cfg.grid, cfg.m_assumed)
    inputs = {
        **dataclasses.asdict(cfg.params),
        "grid_L": cfg.grid.half_length,
        "grid_n": cfg.grid.n,
        "init_u": cfg.raw["init.u"],
        "init_eta": cfg.raw["init.eta"],
        "M_assumed": cfg.m_assumed,
    }
    payload = {"inputs": inputs, "certificate": certificate}
    write_json(os.path.join(out_dir, "certificate.json"), payload)
    return state0, certificate


def fit_and_rate(rows: list[DiagnosticRow], cfg: RunConfig) -> tuple[dict | None, dict | None]:
    """The ``fit`` and ``rate`` JSON values of verdict.json and rate.json.

    A fit only when the two-sided detector fires on the rows, through inf u_x
    for sigma > 0 and sup u_x otherwise, or ``{"error": ...}`` when too few
    rows fall in the window; a rate for a reliable fit whose T_est lies past
    the last row, validated only for sigma < 0."""
    if detect_blowup(rows, 0.0, cfg.settings.blowup_threshold) is None:
        return None, None
    branch = "inf" if cfg.params.sigma > 0 else "sup"
    try:
        fit = estimate_T(rows, cfg.params, branch, cfg.fit_window)
    except FitWindowError as exc:
        return {"error": str(exc)}, None
    rate = None
    if fit.reliable and fit.T_est > rows[-1].t:
        track = track_from_rows(RunRecord(cfg.params, cfg.grid, cfg.settings, rows=rows), branch)
        rate = cert_mod.rate_check(track, fit.T_est, cfg.params, window=cfg.fit_window)
    return _jsonable(fit), _jsonable(rate)


def execute_run(cfg: RunConfig, out_dir: str) -> tuple[int, dict, dict]:
    """Run one configuration and write all artifacts into out_dir.  Returns
    the exit code, and the verdict and certificate as JSON values."""
    state0, certificate = _certify(cfg, out_dir)
    rec = run_sim(state0, cfg.params, cfg.grid, cfg.settings, certificate.slope_floor)

    write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"), rec.rows, certificate)
    rate_path = os.path.join(out_dir, "rate.json")
    if os.path.isfile(rate_path):  # an earlier r2ch rate's fit would outlive this run
        os.remove(rate_path)
    snap_dir = os.path.join(out_dir, "snapshots")
    if os.path.isdir(snap_dir):  # an earlier run's snapshots would outlive it
        for name in os.listdir(snap_dir):
            if name.startswith("snap_") and name.endswith(".bin"):
                os.remove(os.path.join(snap_dir, name))
        if not os.listdir(snap_dir):
            os.rmdir(snap_dir)
    if rec.snapshots:
        os.makedirs(snap_dir, exist_ok=True)
        for i, snap in enumerate(rec.snapshots):
            write_snapshot(os.path.join(snap_dir, f"snap_{i:06d}.bin"), snap)

    event = detect_blowup(rec.rows, cfg.params.sigma, cfg.settings.blowup_threshold)
    # the two-sided detector of the general scenario, recorded alongside
    twosided = detect_blowup(rec.rows, 0.0, cfg.settings.blowup_threshold)

    violations = cert_mod.monitor_bounds(rec, certificate, track_from_rows(rec, "sup"), cfg.params)

    fit, rate = fit_and_rate(rec.rows, cfg)

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
        "under_resolved": EXIT_INVARIANT,
        "invariant_violation": EXIT_INVARIANT,
        "step_floor": EXIT_INVARIANT,
    }[rec.termination.event]

    termination = dataclasses.asdict(rec.termination)
    if not termination["detail"]:  # reached_t_end and blowup_detected carry none
        del termination["detail"]
    verdict = {
        "termination": termination,
        "exit_code": exit_code,
        "detectors": {
            "regime_specific": event,
            "two_sided": twosided,
        },
        "monitor_violations": violations,
        "boundary_leak_max": max(r.boundary_leak for r in rec.rows),
        "fit": fit,
        "rate": rate,
        "thm42_validation": thm42_validation,
    }
    write_json(os.path.join(out_dir, "verdict.json"), verdict)
    return exit_code, _jsonable(verdict), _jsonable(certificate)


def _load_config(args) -> RunConfig:
    with open(args.config) as fh:
        return parse_config(fh.read())


def cmd_run(args) -> int:
    cfg = _load_config(args)
    return execute_run(cfg, args.out or cfg.out_dir)[0]


def cmd_certify(args) -> int:
    cfg = _load_config(args)
    _certify(cfg, args.out or cfg.out_dir)
    return EXIT_OK


def cmd_rate(args) -> int:
    """verdict.json's fit and rate, from the diagnostics.csv of a completed run."""
    cfg = _load_config(args)
    out_dir = args.out or cfg.out_dir
    fit, rate = fit_and_rate(read_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv")), cfg)
    write_json(os.path.join(out_dir, "rate.json"), {"fit": fit, "rate": rate})
    print(f"fit = {json.dumps(fit)}  rate = {json.dumps(rate)}")
    return EXIT_OK


def _sweep_one(payload):
    """Worker: run one sweep point inside its own subdirectory."""
    text, overrides, out_dir = payload
    summary = dict(overrides)
    try:
        code, verdict, certificate = execute_run(parse_config(text, overrides), out_dir)
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
    except (OSError, ValueError, MemoryError) as exc:
        # a bad point, or a grid too large to allocate, never aborts the sweep; a bug does
        summary.update(status=f"error: {exc}", exit_code=EXIT_CONFIG)
    return summary


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    with open(args.config) as fh:
        text = fh.read()
    cfg = parse_config(text)

    # the cross product of the sweep lists and the seed-list lines
    axes = [[{key: opt} for opt in options] for key, options in cfg.sweep_lists.items()]
    if args.seed_list:
        axes.append(_read_seed_list(args.seed_list))
    override_sets = [
        {k: v for ov in combo for k, v in ov.items()} for combo in itertools.product(*axes)
    ]
    # every point's config is checked before the first point runs
    for i, overrides in enumerate(override_sets):
        try:
            parse_config(text, overrides)
        except ConfigError as exc:
            raise ConfigError(f"sweep point {i}: {exc}") from exc

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


def cmd_selftest(args) -> int:
    from .crosscheck import selftest_checks  # the front end binds no oracle

    failures = 0
    for name, passed, detail in selftest_checks(mutate_c=args.mutate_c):
        status = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        print(f"{status}  {name:28s} {detail}")
    return 0 if failures == 0 else 1


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
        ("sweep", cmd_sweep),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.set_defaults(fn=fn)
    # sp is the sweep parser
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--seed-list", default=None)

    sp = sub.add_parser("selftest")
    sp.add_argument(
        "--mutate-c",
        type=float,
        default=0.0,
        help="perturb the forcing-bound constant (mutation-sensitivity mode)",
    )
    sp.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, MemoryError) as exc:
        # ConfigError, DecayViolation and FitWindowError are ValueErrors; a
        # MemoryError is a grid too large to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
