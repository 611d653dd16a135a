"""The benchmark's workloads and the inputs it generates for them.

Every workload runs ``geig run`` on a checkerboard coefficient file: 64 x 64
blocks (eps = 1/64), each holding LO or HI (contrast 400), drawn i.i.d. with
probability 1/2 from FIELD_SEED.  The field is written by this module, not by
the program's own generator, and handed to the program as
``problem.kind = "coefficient_file"``.

The inputs are the same for every benchmark seed: the field, and LOBPCG's
starting block, seeded with FIELD_SEED too.  An input that changes with the
seed changes the program's work by more than the run-to-run bounds allow:
over five i.i.d. fields MC took 16 to 26 sweeps; over five rotated or
reflected images of one field, which share its spectrum, the grid-128
diagnostics took 20.5 to 35.8 s; over ten starting blocks LOBPCG took 30 to
37 iterations.
"""

from __future__ import annotations

import json
import os

import numpy as np

BLOCKS = 64
FIELD_SEED = 1
LO = 0.05
HI = 20.0

# Relative eigenvalue error allowed against the eigsh reference; README.md
# derives these from each solver's stopping rule.
MC_ERR_FACTOR = 100.0
LOBPCG_ERR = 1e-12

_TRANSFORM = {"mode": "localized", "radius": 1, "droptol": 1e-9}
_MG = {"m1": 2, "m2": 2, "p": 1, "smoother": "gauss_seidel"}

WORKLOADS = {
    "mc_checker64": {
        "grid_n": 64, "levels": 4, "nev": 4, "solver": "mc",
        "mc": {"tol": 1e-10},
    },
    "lobpcg_checker64": {
        "grid_n": 64, "levels": 4, "nev": 4, "solver": "lobpcg",
        "lobpcg": {"tol": 1e-8, "preconditioner": "gamblet"},
    },
    "ground_checker128": {
        "grid_n": 128, "levels": 5, "nev": 1, "solver": "mc",
        "mc": {"tol": 1e-8},
    },
}


def eigenvalue_tolerance(workload):
    """Relative eigenvalue error bound for a workload's solver."""
    spec = WORKLOADS[workload]
    if spec["solver"] == "mc":
        return MC_ERR_FACTOR * spec["mc"]["tol"]
    return LOBPCG_ERR


def checkerboard(grid_n):
    """Cellwise conductivity, indexed [iy, ix], on a grid_n x grid_n grid."""
    rng = np.random.Generator(np.random.PCG64(FIELD_SEED))
    blocks = np.where(rng.random((BLOCKS, BLOCKS)) < 0.5, HI, LO)
    cells = grid_n // BLOCKS
    return np.kron(blocks, np.ones((cells, cells)))


def write_coefficient_file(a, path):
    """The program's text format: "nx ny", then rows with y ascending."""
    ny, nx = a.shape
    lines = [f"{nx} {ny}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in a]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_inputs(workload, workdir):
    """Generate the field and the run config; returns (config path, field)."""
    spec = WORKLOADS[workload]
    os.makedirs(workdir, exist_ok=True)
    a = checkerboard(spec["grid_n"])
    field_path = os.path.join(workdir, "field.txt")
    write_coefficient_file(a, field_path)
    config = dict(spec)
    config["problem"] = {"kind": "coefficient_file", "path": field_path}
    config["transform"] = dict(_TRANSFORM)
    config["mg"] = dict(_MG)
    if spec["solver"] == "lobpcg":
        config["lobpcg"] = dict(spec["lobpcg"], seed=FIELD_SEED)
    config["output_dir"] = os.path.join(workdir, "geig_out")
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return config_path, a
