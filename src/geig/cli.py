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
import os
import sys
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy

from . import __version__
from .correction import McParams, multilevel_correction
from .diagnostics import decay_fit, measure_contraction, wavelet_condition_numbers
from .errors import GeigError, InvalidArgumentError, NonConvergenceError
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
from .hierarchy import build_hierarchy, cell_depths
from .lobpcg import (
    GambletPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    LobpcgParams,
    hybrid_solve,
    lobpcg,
)
from .multigrid import MgParams
from .transform import decay_profile, load_decomposition, save_decomposition, transform

_SOLVERS = ("mc", "lobpcg", "hybrid")
_PRECONDITIONERS = ("gamblet", "jacobi", "identity")


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
    resolved: dict = dataclass_field(default_factory=dict, repr=False)


def _coarsest_dim(grid_n, levels):
    if levels == 1:
        return (grid_n - 1) ** 2
    return 4 ** cell_depths(levels, grid_n)[0]


def _normalize_problem(raw, grid_n, errors):
    if raw is None:
        errors.append("problem: missing")
        return None
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict) or "kind" not in raw:
        errors.append("problem: must be a name or an object with 'kind'")
        return None
    kind = raw["kind"]
    out = {"kind": kind}
    if kind == "constant":
        out["value"] = float(raw.get("value", 1.0))
        if out["value"] <= 0:
            errors.append("problem.value: must be positive")
    elif kind == "checkerboard":
        out["seed"] = int(raw.get("seed", 0))
        out["eps"] = float(raw.get("eps", 1.0 / 64))
        out["lo"] = float(raw.get("lo", 1.0 / 20))
        out["hi"] = float(raw.get("hi", 20.0))
        if out["lo"] <= 0 or out["hi"] <= 0:
            errors.append("problem.lo/hi: must be positive")
    elif kind == "coefficient_file":
        if "path" not in raw:
            errors.append("problem.path: required for coefficient_file")
        else:
            out["path"] = str(raw["path"])
    elif kind == "anderson":
        out["seed"] = int(raw.get("seed", 0))
        out["eps"] = nearest_dyadic_eps(float(raw.get("eps", 0.01)))
        out["alpha"] = float(raw.get("alpha", 1.0))
        out["beta"] = float(raw.get("beta", 1e4))
        if out["alpha"] < 0 or out["beta"] < 0:
            errors.append("problem.alpha/beta: must be nonnegative")
    else:
        errors.append(f"problem.kind: unknown kind {kind!r}")
        return None
    if kind in ("checkerboard", "anderson") and grid_n >= 2:
        try:
            _block_layout(out["eps"], Grid(grid_n))
        except InvalidArgumentError as exc:
            errors.append(f"problem.eps: {exc}")
    return out


def _normalize_transform(raw, grid_n, errors):
    if raw is None:
        mode = "exact" if grid_n <= 32 else "localized"
        raw = {"mode": mode}
    if isinstance(raw, str):
        raw = {"mode": raw}
    mode = raw.get("mode")
    if mode not in ("exact", "localized"):
        errors.append(f"transform.mode: must be 'exact' or 'localized', got {mode!r}")
        return None
    out = {"mode": mode, "track_vectors": bool(raw.get("track_vectors", False))}
    if mode == "localized":
        out["radius"] = int(raw.get("radius", 3))
        out["droptol"] = float(raw.get("droptol", 1e-9))
        if out["radius"] < 1:
            errors.append("transform.radius: must be >= 1")
        if out["droptol"] <= 0:
            errors.append("transform.droptol: must be positive")
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
        except json.JSONDecodeError as exc:
            return None, [f"config is not valid JSON: {exc}"]
    else:
        data = dict(source)

    grid_n = int(data.get("grid_n", 0))
    levels = int(data.get("levels", 0))
    nev = int(data.get("nev", 0))
    if grid_n < 2:
        errors.append(f"grid_n: must be >= 2, got {grid_n}")
    if levels < 1:
        errors.append(f"levels: must be >= 1, got {levels}")
    if grid_n >= 2 and levels >= 1 and grid_n % (2 ** levels) != 0:
        errors.append(f"grid_n: {grid_n} not divisible by 2^levels={2 ** levels}")
    if nev < 1:
        errors.append(f"nev: must be >= 1, got {nev}")
    elif grid_n >= 2 and levels >= 1 and grid_n % (2 ** levels) == 0:
        cdim = _coarsest_dim(grid_n, levels)
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

    problem = _normalize_problem(data.get("problem"), grid_n, errors)
    transform_opts = _normalize_transform(data.get("transform"), grid_n, errors)

    mg_raw = dict(data.get("mg", {}))
    mc_raw = dict(data.get("mc", {}))
    lob_raw = dict(data.get("lobpcg", {}))
    prec = lob_raw.pop("preconditioner", "gamblet")
    lob_seed = int(lob_raw.pop("seed", 0))
    if prec not in _PRECONDITIONERS:
        errors.append(
            f"lobpcg.preconditioner: must be one of {_PRECONDITIONERS}, got {prec!r}")
    try:
        mg_params = MgParams(**mg_raw)
    except (GeigError, TypeError) as exc:
        errors.append(f"mg: {exc}")
        mg_params = MgParams()
    try:
        mc_params = McParams(mg=mg_params, **mc_raw)
    except (GeigError, TypeError) as exc:
        errors.append(f"mc: {exc}")
        mc_params = McParams(mg=mg_params)
    try:
        lob_params = LobpcgParams(**lob_raw)
    except (GeigError, TypeError) as exc:
        errors.append(f"lobpcg: {exc}")
        lob_params = LobpcgParams()

    output_dir = str(data.get("output_dir", "geig_out"))
    if errors:
        return None, errors

    resolved = {
        "problem": problem,
        "grid_n": grid_n,
        "levels": levels,
        "nev": nev,
        "solver": solver,
        "baseline": baseline,
        "mg": {"m1": mg_params.m1, "m2": mg_params.m2, "p": mg_params.p,
               "smoother": mg_params.smoother,
               "lambda_bound_factor": mg_params.lambda_bound_factor,
               "variant": mg_params.variant},
        "mc": {"varpi": mc_params.varpi, "tol": mc_params.tol,
               "fine_level_extra": mc_params.fine_level_extra,
               "exact_inner": mc_params.exact_inner},
        "lobpcg": {"tol": lob_params.tol, "maxit": lob_params.maxit,
                   "preconditioner": prec, "seed": lob_seed},
        "transform": transform_opts,
        "output_dir": output_dir,
    }
    return ExperimentConfig(
        problem=problem, grid_n=grid_n, levels=levels, nev=nev,
        solver=solver, baseline=baseline, mc=mc_params, mg=mg_params,
        lobpcg=lob_params, lobpcg_preconditioner=prec, lobpcg_seed=lob_seed,
        transform_opts=transform_opts, output_dir=output_dir,
        resolved=resolved), []


def build_field(config, grid):
    prob = config.problem
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


def build_decomposition(config, K):
    hier = build_hierarchy(config.levels, Grid(config.grid_n))
    opts = config.transform_opts
    variant = "geometric" if config.baseline == "geometric" else "adapted"
    track = opts.get("track_vectors", False)
    if opts["mode"] == "exact":
        return transform(K, hier, mode="exact", variant=variant,
                         track_vectors=track)
    return transform(K, hier, mode="localized", radius=opts["radius"],
                     droptol=opts["droptol"], variant=variant,
                     track_vectors=track)


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
    grid = Grid(config.grid_n)
    field = build_field(config, grid)
    K, M = assemble(grid, field)
    dec = build_decomposition(config, K)

    def unpack(exc):
        if exc.result is None or exc.history is None:
            raise exc
        return exc.result, exc.history, False

    converged = True
    if config.solver == "mc":
        try:
            eigset, record = multilevel_correction(dec, M, config.nev,
                                                   config.mc)
        except NonConvergenceError as exc:
            eigset, record, converged = unpack(exc)
    elif config.solver == "lobpcg":
        rng = np.random.default_rng(config.lobpcg_seed)
        X0 = rng.standard_normal((K.nrows, config.nev))
        B = _make_preconditioner(config.lobpcg_preconditioner, K, dec,
                                 config.mg)
        try:
            eigset, record = lobpcg(K, M, B, X0, config.nev, config.lobpcg,
                                    level=config.levels)
        except NonConvergenceError as exc:
            eigset, record, converged = unpack(exc)
    else:
        try:
            eigset, record = hybrid_solve(dec, M, config.nev, config.mc,
                                          config.lobpcg)
        except NonConvergenceError as exc:
            eigset, record, converged = unpack(exc)

    cond_b = wavelet_condition_numbers(dec) if dec.q > 1 else {}
    contraction = measure_contraction(dec, config.mg) if dec.q > 1 else 0.0

    os.makedirs(config.output_dir, exist_ok=True)
    _atomic_write(os.path.join(config.output_dir, "history.csv"),
                  record.to_csv(io.StringIO()))
    summary = {
        "eigenvalues": [float(v) for v in eigset.lambdas],
        "residuals": [float(v) for v in eigset.residuals],
        "iterations": record.last_sweep(),
        "converged": converged,
        "cond_B": {str(k): cond_b[k] for k in sorted(cond_b)},
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


def _cmd_run(args):
    config, errors = validate_config(args.config)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return run_experiment(config)
    except GeigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_validate(args):
    config, errors = validate_config(args.config)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    print("config OK")
    if args.resolved:
        print(json.dumps(config.resolved, indent=2, sort_keys=True))
    return 0


def _cmd_transform(args):
    config, errors = validate_config(args.config)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        grid = Grid(config.grid_n)
        field = build_field(config, grid)
        K, _ = assemble(grid, field)
        dec = build_decomposition(config, K)
        out = os.path.join(config.output_dir, "decomposition")
        save_decomposition(dec, out)
        print(out)
        return 0
    except (GeigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_diag(args):
    try:
        dec = load_decomposition(args.decomposition_dir)
    except (GeigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cond_b = wavelet_condition_numbers(dec) if dec.q > 1 else {}
    report = {"cond_B": {str(k): cond_b[k] for k in sorted(cond_b)}}
    if dec.tracked and dec.q >= 2:
        k = min(2, dec.q)
        centers = dec.hierarchy.level_centers(k)
        i = int(np.argmin(np.linalg.norm(centers, axis=1)))
        prof = decay_profile(dec, k, i)
        report["decay"] = {"level": k, "index": i,
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
    p_diag.set_defaults(func=_cmd_diag)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
