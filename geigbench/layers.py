"""Per-layer metrics and trace cross-checks, derived from recorded spans.

A span is ``[name, start, end, parent, counts]`` as written by
tracing.Tracer.  A layer's self time is its spans' duration minus the part
covered by their child spans.  Levels are named L2..L<q> for a workload with
q levels.
"""

from __future__ import annotations

from collections import defaultdict

COUNT_METRICS = (
    "ball_solves", "ball_cg_iters", "nnz_A", "nnz_R", "nnz_B",
    "galerkin_calls", "dense_eig_calls", "cg_iters", "gs_sweeps", "gs_rows",
    "spmv_calls", "spmv_nnz", "cycles", "sweeps", "iterations",
)


def metric_names(q):
    """Every per-layer metric of a q-level workload, in report order, with
    its unit."""
    levels = range(2, q + 1)
    names = ["cli.startup_s", "fem.assemble_s", "hierarchy.build_s"]
    for k in levels:
        names += [f"transform.L{k}.{m}" for m in (
            "wavelet_block_s", "interp_s", "coarsen_s", "ball_solves",
            "ball_cg_iters", "nnz_A", "nnz_R", "nnz_B")]
    names += ["sparse.galerkin_s", "sparse.galerkin_calls",
              "sparse.dense_eig_s", "sparse.dense_eig_calls",
              "sparse.direct_factor_s", "sparse.cg_s", "sparse.cg_iters",
              "kernels.gs_s", "kernels.gs_sweeps", "kernels.gs_rows",
              "kernels.spmv_s", "kernels.spmv_calls", "kernels.spmv_nnz"]
    for k in levels:
        names += [f"multigrid.L{k}.cycles", f"multigrid.L{k}.self_s"]
    names += ["multigrid.coarse_solve_s",
              "correction.sweeps", "correction.inner_solve_s",
              "correction.orthonormalize_s", "correction.rayleigh_ritz_s",
              "correction.coarse_eig_s", "correction.mass_levels_s",
              "correction.coarse_basis_s",
              "lobpcg.iterations", "lobpcg.precond_s",
              "lobpcg.orthonormalize_s", "lobpcg.rayleigh_ritz_s",
              "lobpcg.self_s"]
    names += [f"diagnostics.L{k}.cond_s" for k in levels]
    names += ["diagnostics.contraction_s",
              "cli.write_s", "trace.overhead_s"]
    return [(n, "count" if n.rsplit(".", 1)[1] in COUNT_METRICS else "s")
            for n in names]


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.kids = [[] for _ in spans]
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)
            if s[3] >= 0:
                self.kids[s[3]].append(i)

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        return self.dur(i) - sum(self.dur(c) for c in self.kids[i])

    def named(self, name, parents=None):
        """Spans called name, optionally only those whose parent is in
        the set ``parents``."""
        return [i for i in self.by_name[name]
                if parents is None or self.spans[i][3] in parents]

    def total(self, ids):
        return sum(self.dur(i) for i in ids)

    def count(self, ids, key):
        return sum(self.spans[i][4].get(key, 0) for i in ids)

    def kids_named(self, ids, name):
        return [c for i in ids for c in self.kids[i]
                if self.spans[c][0] == name]


def decomposition_levels(ix):
    """{k: {"n", "nnz_A", ...}} from the transform span's counts."""
    tr = ix.by_name["transform.transform"]
    if not tr:
        return {}
    levels = ix.spans[tr[0]][4].get("levels", {})
    return {int(k): v for k, v in levels.items()}


def _transform_levels(ix, levels, q, m):
    tr = set(ix.by_name["transform.transform"])
    gal = ix.named("sparse.galerkin_triple", tr)
    balls = ix.named("sparse.cg", tr)
    for k in range(2, q + 1):
        if k not in levels or k - 1 not in levels:
            continue
        n_k, n_c = levels[k]["n"], levels[k - 1]["n"]
        at_k = [i for i in gal if ix.spans[i][4].get("n") == n_k]
        wb = [i for i in at_k if ix.spans[i][4].get("m") != n_c]
        co = [i for i in at_k if ix.spans[i][4].get("m") == n_c]
        p = f"transform.L{k}."
        m[p + "wavelet_block_s"] = ix.total(wb)
        m[p + "coarsen_s"] = ix.total(co)
        if wb and co:
            lo, hi = ix.spans[wb[0]][2], ix.spans[co[0]][1]
            m[p + "interp_s"] = hi - lo
            inside = [i for i in balls if lo <= ix.spans[i][1] <= hi]
            m[p + "ball_solves"] = len(inside)
            m[p + "ball_cg_iters"] = ix.count(inside, "matvecs")
        for key in ("nnz_A", "nnz_R", "nnz_B"):
            m[p + key] = levels[k].get(key, 0)


def layer_metrics(trace, q):
    """{metric: value} for every name in metric_names(q)."""
    ix = SpanIndex(trace["spans"])
    levels = decomposition_levels(ix)
    m = {name: 0 for name, _ in metric_names(q)}
    load = ix.by_name["fem.load_coefficient_file"]
    if load and "t_spawn" in trace["meta"]:
        m["cli.startup_s"] = ix.spans[load[0]][1] - trace["meta"]["t_spawn"]
    m["fem.assemble_s"] = ix.total(ix.by_name["fem.assemble"])
    m["hierarchy.build_s"] = ix.total(ix.by_name["hierarchy.build_hierarchy"])
    _transform_levels(ix, levels, q, m)

    gal = ix.by_name["sparse.galerkin_triple"]
    eig = ix.by_name["sparse.dense_sym_geig"] + ix.by_name["sparse.jacobi_eigh"]
    cgs = ix.by_name["sparse.cg"]
    m.update({
        "sparse.galerkin_s": ix.total(gal), "sparse.galerkin_calls": len(gal),
        "sparse.dense_eig_s": ix.total(eig), "sparse.dense_eig_calls": len(eig),
        "sparse.direct_factor_s": ix.total(ix.by_name["sparse.make_direct_solver"]),
        "sparse.cg_s": ix.total(cgs), "sparse.cg_iters": ix.count(cgs, "matvecs"),
    })
    gs = ix.by_name["kernels.gauss_seidel_sweep"]
    mv = ix.by_name["kernels.csr_matvec"]
    m.update({
        "kernels.gs_s": ix.total(gs), "kernels.gs_sweeps": len(gs),
        "kernels.gs_rows": ix.count(gs, "rows"),
        "kernels.spmv_s": ix.total(mv), "kernels.spmv_calls": len(mv),
        "kernels.spmv_nnz": ix.count(mv, "nnz"),
    })

    mg = ix.by_name["multigrid.mg"]
    for k in range(2, q + 1):
        at_k = [i for i in mg if ix.spans[i][4].get("k") == k]
        m[f"multigrid.L{k}.cycles"] = len(at_k)
        m[f"multigrid.L{k}.self_s"] = sum(ix.self_time(i) for i in at_k)
    m["multigrid.coarse_solve_s"] = ix.total(
        [i for i in mg if ix.spans[i][4].get("k") == 1])

    mlc = set(ix.by_name["correction.multilevel_correction"])
    cb = ix.by_name["correction.correct_block"]
    inner = ix.total(ix.kids_named(cb, "multigrid.mg"))
    orth = ix.total(ix.kids_named(cb, "correction.m_orthonormalize"))
    basis = ix.total(ix.kids_named(cb, "transform.coarse_basis"))
    m.update({
        "correction.sweeps": len(cb),
        "correction.inner_solve_s": inner,
        "correction.orthonormalize_s": orth,
        "correction.rayleigh_ritz_s": (ix.total(cb) - inner - orth - basis) if cb else 0,
        "correction.coarse_eig_s": ix.total(ix.named("sparse.dense_sym_geig", mlc)),
        "correction.mass_levels_s": ix.total(ix.by_name["transform.mass_levels"]),
        "correction.coarse_basis_s": ix.total(ix.by_name["transform.coarse_basis"]),
    })

    lp = ix.by_name["lobpcg.lobpcg"]
    apply = ix.by_name["lobpcg.apply_block"]
    m.update({
        "lobpcg.iterations": len(apply),
        "lobpcg.precond_s": ix.total(apply),
        "lobpcg.orthonormalize_s": ix.total(ix.named("correction.m_orthonormalize", set(lp))),
        "lobpcg.rayleigh_ritz_s": ix.total(ix.named("sparse.jacobi_eigh", set(lp))),
        "lobpcg.self_s": sum(ix.self_time(i) for i in lp),
    })

    cond = ix.by_name["diagnostics.condition_number"]
    for k in range(2, q + 1):
        n_b = levels.get(k, {}).get("n_B")
        m[f"diagnostics.L{k}.cond_s"] = ix.total(
            [i for i in cond if n_b is not None and ix.spans[i][4].get("n") == n_b])
    contraction = ix.by_name["diagnostics.measure_contraction"]
    m["diagnostics.contraction_s"] = ix.total(contraction)
    run = ix.by_name["cli.run_experiment"]
    if run and contraction:
        m["cli.write_s"] = ix.spans[run[-1]][2] - ix.spans[contraction[-1]][2]
    m["trace.overhead_s"] = len(ix.spans) * trace["meta"].get("span_cost_s", 0.0)
    return m


def cross_check(trace, history, solver, nev):
    """Compare trace counts with the counts implied by history.csv rows
    (dicts with int "sweep" and "level").  Returns failure messages."""
    ix = SpanIndex(trace["spans"])
    absent = set(trace["absent"])
    out = []
    if solver == "mc":
        if {"geig.correction.correct_block", "geig.correction.mg"} & absent:
            return out
        cb = set(ix.by_name["correction.correct_block"])
        solves = ix.named("multigrid.mg", cb)
        sweeps = {r["sweep"] for r in history if r["sweep"] >= 1}
        if len(sweeps) != len(cb):
            out.append(f"trace saw {len(cb)} correction sweeps, "
                       f"history.csv has {len(sweeps)}")
        for k in sorted({r["level"] for r in history if r["sweep"] >= 1}):
            rows = sum(1 for r in history if r["sweep"] >= 1 and r["level"] == k)
            seen = sum(1 for i in solves if ix.spans[i][4].get("k") == k)
            if rows != seen:
                out.append(f"level {k}: trace saw {seen} multigrid solves, "
                           f"history.csv has {rows} sweep rows")
    else:
        if {"geig.lobpcg.Preconditioner.apply_block", "geig.lobpcg.precondition"} & absent:
            return out
        iters = max(r["sweep"] for r in history)
        apply = len(ix.by_name["lobpcg.apply_block"])
        prec = len(ix.by_name["multigrid.precondition"])
        if apply != iters:
            out.append(f"trace saw {apply} preconditioned iterations, "
                       f"history.csv has {iters}")
        if prec != nev * iters:
            out.append(f"trace saw {prec} preconditioner applications, "
                       f"expected nev x iterations = {nev * iters}")
    return out
