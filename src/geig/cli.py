"""Configuration-driven experiment runner.

Subcommands:

* ``geig run <config.json>``        assemble, decompose, solve, write outputs
* ``geig validate <config.json>``   check a config and print problems
* ``geig transform <config.json>``  build and serialize the decomposition only
* ``geig diag <decomposition_dir>`` recompute diagnostics from serialized data

Every run writes ``history.csv`` (per-sweep convergence rows),
``summary.json`` (final values and measurements), and ``manifest.json``
(the fully resolved configuration, enough to reproduce the run).  Exit
status: 0 converged, 1 configuration or I/O error, 2 solver
non-convergence (outputs are still written).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy

from . import __version__
from .correction import McParams, multilevel_correction
from .diagnostics import decay_fit, measure_contraction, wavelet_condition_numbers
from .errors import GeigError, NonConvergenceError
from .fem import (
    CoefficientField,
    Grid,
    _block_layout,
    assemble,
    gen_anderson,
    gen_checkerboard,
    load_coefficient_file,
    nearest_dyadic_eps,
)
from .hierarchy import build_hierarchy, cell_depths, level_dim
from .lobpcg import (
    GambletPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    LobpcgParams,
    hybrid_solve,
    lobpcg,
)
from .multigrid import MgParams
from .transform import (
    _DEFAULT_DROPTOL,
    _DEFAULT_RADIUS,
    check_options,
    decay_profile,
    load_decomposition,
    save_decomposition,
    transform,
)

_SOLVERS = ("mc", "lobpcg", "hybrid")
_PRECONDITIONERS = ("gamblet", "jacobi", "identity")
# Numeric fields of each problem kind, with their defaults.
_PROBLEM_NUMBERS = {
    "constant": {"value": 1.0},
    "checkerboard": {"seed": 0, "eps": 1.0 / 64, "lo": 1.0 / 20, "hi": 20.0},
    "anderson": {"seed": 0, "eps": 0.01, "alpha": 1.0, "beta": 1e4},
    "coefficient_file": {},
}


@dataclass
class ExperimentConfig:
    problem: dict
    grid_n: int
    levels: int
    nev: int
    solver: str
    baseline: str
    mc: McParams
    mg: MgParams
    lobpcg: LobpcgParams
    lobpcg_preconditioner: str
    lobpcg_seed: int
    transform_opts: dict
    output_dir: str

    @property
    def resolved(self):
        """The config as the manifest records it, with every field of the
        parameter objects, so that it alone reproduces the run."""
        return {
            "problem": self.problem,
            "grid_n": self.grid_n,
            "levels": self.levels,
            "nev": self.nev,
            "solver": self.solver,
            "baseline": self.baseline,
            "mg": asdict(self.mg),
            "mc": {k: v for k, v in asdict(self.mc).items() if k != "mg"},
            "lobpcg": dict(asdict(self.lobpcg),
                           preconditioner=self.lobpcg_preconditioner,
                           seed=self.lobpcg_seed),
            "transform": self.transform_opts,
            "output_dir": self.output_dir,
        }


def _scalar(raw, name, default, errors):
    """The entry of ``raw`` named by the last part of ``name``, or ``default``,
    if it has the JSON type of ``default``: bool, integer (an integral float
    passes) or finite number.  Else it adds an error and gives ``default``."""
    value = raw.get(name.rpartition(".")[2], default)
    want = type(default)
    if want is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is want or (want is float and type(value) is int):
        try:
            if want is not float or math.isfinite(value):
                return want(value)
        except OverflowError:  # an integer beyond the float range
            pass
    kind = {bool: "true or false", int: "an integer", float: "a finite number"}
    errors.append(f"{name}: must be {kind[want]}, got {value!r}")
    return default


def _checked(errors, prefix, check, *args, **kwargs):
    """``check(*args, **kwargs)``, or None after adding the message of its
    ValueError (InvalidArgumentError or NumPy's) to ``errors`` under
    ``prefix``."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{prefix}: {exc}")
        return None


def _section(data, name, errors):
    raw = data.get(name, {})
    if isinstance(raw, dict):
        return dict(raw)
    errors.append(f"{name}: must be an object, got {raw!r}")
    return {}


def _params(cls, name, raw, errors, **fixed):
    """``cls(**fixed, **raw)`` with the bool, int and float fields of
    ``cls`` checked first; the defaults, and an error, when construction
    fails."""
    for f in fields(cls):
        if f.name in raw and type(f.default) in (bool, int, float):
            raw[f.name] = _scalar(raw, f"{name}.{f.name}", f.default, errors)
    try:
        return cls(**fixed, **raw)
    except (GeigError, TypeError) as exc:
        errors.append(f"{name}: {exc}")
        return cls(**fixed)


def _normalize_problem(raw, grid, errors):
    """The problem section with its defaults; on a valid ``grid`` the
    generators' own checks judge its values.  Files are not read."""
    if raw is None:
        errors.append("problem: missing")
        return None
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict) or "kind" not in raw:
        errors.append("problem: must be a name or an object with 'kind'")
        return None
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _PROBLEM_NUMBERS:
        errors.append(f"problem.kind: unknown kind {kind!r}")
        return None
    out = {"kind": kind}
    for key, default in _PROBLEM_NUMBERS[kind].items():
        out[key] = _scalar(raw, f"problem.{key}", default, errors)
    if kind == "coefficient_file":
        if "path" not in raw:
            errors.append("problem.path: required for coefficient_file")
        else:
            out["path"] = str(raw["path"])
        return out
    if kind == "anderson" and out["eps"] > 0:  # else the tiling check reports it
        out["eps"] = nearest_dyadic_eps(out["eps"])
    if grid is not None and (kind == "constant" or _checked(
            errors, "problem.eps", _block_layout, out["eps"], grid)):
        _checked(errors, "problem", build_field, out, grid)
    return out


def _normalize_transform(raw, grid_n, errors):
    if raw is None:
        raw = "exact" if grid_n <= 32 else "localized"
    if isinstance(raw, str):
        raw = {"mode": raw}
    if not isinstance(raw, dict):
        errors.append(f"transform: must be a mode name or an object, got {raw!r}")
        return None
    out = {"mode": raw.get("mode")}
    if out["mode"] == "localized":
        out["radius"] = _scalar(raw, "transform.radius", _DEFAULT_RADIUS, errors)
        out["droptol"] = _scalar(raw, "transform.droptol", _DEFAULT_DROPTOL, errors)
    _checked(errors, "transform", check_options, **out)
    return out


def validate_config(source):
    """Normalize a config mapping (or JSON file path) into an
    ExperimentConfig; returns (config_or_None, error_list)."""
    errors = []
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return None, [f"config file not found: {source}"]
        except ValueError as exc:  # JSONDecodeError, bad UTF-8, too many digits
            return None, [f"config is not valid JSON: {exc}"]
    else:
        data = source
    if not isinstance(data, dict):
        return None, [f"config: must be a JSON object, got {type(data).__name__}"]

    grid_n = _scalar(data, "grid_n", 0, errors)
    levels = _scalar(data, "levels", 0, errors)
    nev = _scalar(data, "nev", 0, errors)
    grid = depths = None
    if not errors:  # else the range checks would only repeat them
        grid = _checked(errors, "grid_n", Grid, grid_n)
        if grid is not None:
            depths = _checked(errors, "levels", cell_depths, levels, grid_n)
        if nev < 1:
            errors.append(f"nev: must be >= 1, got {nev}")
        elif depths is not None:
            cdim = level_dim(1, levels, grid_n)
            if nev > cdim:
                errors.append(
                    f"nev: {nev} exceeds the coarsest space dimension {cdim}; "
                    "reduce levels or nev")

    solver = data.get("solver", "mc")
    if solver not in _SOLVERS:
        errors.append(f"solver: must be one of {_SOLVERS}, got {solver!r}")
    baseline = data.get("baseline", "gamblet")
    if baseline not in ("gamblet", "geometric"):
        errors.append(f"baseline: must be 'gamblet' or 'geometric', got {baseline!r}")

    problem = _normalize_problem(data.get("problem"), grid, errors)
    transform_opts = _normalize_transform(data.get("transform"), grid_n, errors)

    mg_params = _params(MgParams, "mg", _section(data, "mg", errors), errors)
    mc_params = _params(McParams, "mc", _section(data, "mc", errors), errors,
                        mg=mg_params)
    lob_raw = _section(data, "lobpcg", errors)
    prec = lob_raw.pop("preconditioner", "gamblet")
    if prec not in _PRECONDITIONERS:
        errors.append(
            f"lobpcg.preconditioner: must be one of {_PRECONDITIONERS}, got {prec!r}")
    lob_seed = _scalar(lob_raw, "lobpcg.seed", 0, errors)
    lob_raw.pop("seed", None)
    lob_params = _params(LobpcgParams, "lobpcg", lob_raw, errors)

    output_dir = str(data.get("output_dir", "geig_out"))
    if errors:
        return None, errors
    return ExperimentConfig(
        problem=problem, grid_n=grid_n, levels=levels, nev=nev,
        solver=solver, baseline=baseline, mc=mc_params, mg=mg_params,
        lobpcg=lob_params, lobpcg_preconditioner=prec, lobpcg_seed=lob_seed,
        transform_opts=transform_opts, output_dir=output_dir), []


def build_field(prob, grid):
    kind = prob["kind"]
    if kind == "constant":
        return CoefficientField.constant(grid, prob["value"])
    if kind == "checkerboard":
        return gen_checkerboard(prob["seed"], prob["eps"], prob["lo"],
                                prob["hi"], grid)
    if kind == "anderson":
        return gen_anderson(prob["seed"], prob["eps"], prob["alpha"],
                            prob["beta"], grid)
    return load_coefficient_file(prob["path"])


def build_problem(config):
    """The stiffness and mass matrices of a validated config and the
    decomposition of the stiffness: (K, M, dec)."""
    grid = Grid(config.grid_n)
    K, M = assemble(grid, build_field(config.problem, grid))
    hier = build_hierarchy(config.levels, grid)
    variant = "geometric" if config.baseline == "geometric" else "adapted"
    return K, M, transform(K, hier, variant=variant, **config.transform_opts)


def _cond_b(dec):
    """cond(B^(k)) per detail level, keyed by the level as text."""
    cond_b = wavelet_condition_numbers(dec)
    return {str(k): cond_b[k] for k in sorted(cond_b)}


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _make_preconditioner(name, K, dec, mg_params):
    if name == "gamblet":
        return GambletPreconditioner(dec, mg_params)
    if name == "jacobi":
        return JacobiPreconditioner(K)
    return IdentityPreconditioner()


def run_experiment(config):
    """Execute one configured run; returns the process exit status."""
    K, M, dec = build_problem(config)
    converged = True
    try:
        if config.solver == "mc":
            eigset, record = multilevel_correction(dec, M, config.nev,
                                                   config.mc)
        elif config.solver == "lobpcg":
            rng = np.random.default_rng(config.lobpcg_seed)
            X0 = rng.standard_normal((K.nrows, config.nev))
            B = _make_preconditioner(config.lobpcg_preconditioner, K, dec,
                                     config.mg)
            eigset, record = lobpcg(K, M, B, X0, config.nev, config.lobpcg,
                                    level=config.levels)
        else:
            eigset, record = hybrid_solve(dec, M, config.nev, config.mc,
                                          config.lobpcg)
    except NonConvergenceError as exc:
        if exc.result is None or exc.history is None:
            raise
        eigset, record, converged = exc.result, exc.history, False

    cond_b = _cond_b(dec)
    contraction = measure_contraction(dec, config.mg) if dec.q > 1 else 0.0

    os.makedirs(config.output_dir, exist_ok=True)
    _atomic_write(os.path.join(config.output_dir, "history.csv"),
                  record.to_csv(io.StringIO()))
    summary = {
        "eigenvalues": [float(v) for v in eigset.lambdas],
        "residuals": [float(v) for v in eigset.residuals],
        "iterations": record.last_sweep(),
        "converged": converged,
        "cond_B": cond_b,
        "mg_contraction": contraction,
    }
    _atomic_write(os.path.join(config.output_dir, "summary.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    manifest = {
        "config": config.resolved,
        "seeds": {"problem": config.problem.get("seed"),
                  "lobpcg": config.lobpcg_seed},
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "code_version": __version__,
    }
    _atomic_write(os.path.join(config.output_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0 if converged else 2


def _cmd_run(config, args):
    return run_experiment(config)


def _cmd_validate(config, args):
    print("config OK")
    if args.resolved:
        print(json.dumps(config.resolved, indent=2, sort_keys=True))
    return 0


def _cmd_transform(config, args):
    _, _, dec = build_problem(config)
    out = os.path.join(config.output_dir, "decomposition")
    save_decomposition(dec, out)
    print(out)
    return 0


def _cmd_diag(args):
    dec = load_decomposition(args.decomposition_dir)
    report = {"cond_B": _cond_b(dec)}
    if dec.q >= 2:
        centers = dec.hierarchy.level_centers(2)
        i = int(np.argmin(np.linalg.norm(centers, axis=1)))
        prof = decay_profile(dec, 2, i)
        report["decay"] = {"level": 2, "index": i,
                           "profile": [[n, t] for n, t in prof]}
        try:
            slope, r2 = decay_fit(prof)
            report["decay"]["slope"] = slope
            report["decay"]["r_squared"] = r2
        except ValueError:
            pass
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="geig",
        description="Hierarchical eigenpair solvers for rough-coefficient "
                    "elliptic operators")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config")
    p_val.add_argument("--resolved", action="store_true",
                       help="print the fully resolved config")
    p_val.set_defaults(func=_cmd_validate)

    p_tr = sub.add_parser("transform",
                          help="build and serialize the decomposition only")
    p_tr.add_argument("config")
    p_tr.set_defaults(func=_cmd_transform)

    p_diag = sub.add_parser("diag",
                            help="diagnostics from a serialized decomposition")
    p_diag.add_argument("decomposition_dir")

    args = parser.parse_args(argv)
    try:
        if args.command == "diag":
            return _cmd_diag(args)
        # every other command takes a config, validated and reported here
        config, errors = validate_config(args.config)
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1 if config is None else args.func(config, args)
    except (GeigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
