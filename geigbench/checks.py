"""Correctness checks on the outputs of one ``geig run``.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

# Relative slack for roundoff when a Ritz value meets its reference from
# below: both values are double-precision results near 1e-15 apart.
RITZ_ROUNDOFF = 1e-12


def check_status(exit_code, summary):
    out = []
    if exit_code != 0:
        out.append(f"exit status {exit_code}, expected 0")
    if summary.get("converged") is not True:
        out.append(f"converged is {summary.get('converged')!r}, expected true")
    return out


def check_eigenvalues(lams, ref, rel_tol):
    """Every eigenvalue within rel_tol of its reference."""
    lams = np.asarray(lams, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if lams.shape != ref.shape:
        return [f"{lams.size} eigenvalues, expected {ref.size}"]
    err = np.abs(lams - ref) / np.abs(ref)
    return [f"eigenvalue {j}: {lams[j]!r} is {err[j]:.3e} from reference "
            f"{ref[j]!r} (bound {rel_tol:.1e})"
            for j in range(ref.size) if not err[j] <= rel_tol]


def check_upper_bounds(lams, ref, roundoff=RITZ_ROUNDOFF):
    """Ritz values are upper bounds: none may lie below its reference."""
    lams = np.asarray(lams, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return [f"eigenvalue {j}: {lams[j]!r} lies below reference {ref[j]!r}"
            for j in range(min(lams.size, ref.size))
            if not lams[j] >= ref[j] * (1.0 - roundoff)]


def check_diagnostics(summary, levels):
    """0 < mg_contraction < 1, and cond(B) finite and >= 1 on every detail
    level 2..levels."""
    out = []
    rho = summary.get("mg_contraction")
    if not (isinstance(rho, (int, float)) and 0.0 < rho < 1.0):
        out.append(f"mg_contraction {rho!r} not in (0, 1)")
    cond = summary.get("cond_B", {})
    expected = {str(k) for k in range(2, levels + 1)}
    if set(cond) != expected:
        out.append(f"cond_B levels {sorted(cond)}, expected {sorted(expected)}")
    for k, c in sorted(cond.items()):
        if not (isinstance(c, (int, float)) and math.isfinite(c) and c >= 1.0):
            out.append(f"cond_B[{k}] = {c!r} is not finite and >= 1")
    return out


def check_history_digest(digest, previous):
    """history.csv must be byte-identical across repeats of one input."""
    if previous is not None and previous != digest:
        return [f"history.csv digest {digest[:16]} differs from an earlier "
                f"run of the same input ({previous[:16]})"]
    return []
