"""Spans and counts at the program's module boundaries, recorded from outside.

A ``Tracer`` replaces a name in a module (or a method on a class) with a
wrapper that records one span per call: name, start, end, the span open
around it, and a small dict of work counts taken from the arguments or the
result.  Spans stay in memory and are written once, when the run ends.  A
name that the program no longer has is listed as absent, and its time then
falls into its caller's self time.

``PHASES`` are the public calls ``geig run`` makes; the untraced run
wraps only these.  ``LAYERS`` add the calls between the modules of
``src/geig`` and the CSR kernels, for the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

clock = time.monotonic


def _rows(args, kwargs):
    return {"rows": len(args[0]) - 1}


def _nnz(args, kwargs):
    return {"nnz": len(args[2])}


def _level(args, kwargs):
    return {"k": int(args[0])}


def _galerkin_shape(args, kwargs):
    return {"m": args[0].nrows, "n": args[1].nrows}


def _block_size(args, kwargs):
    return {"n": args[0].nrows}


def _decomposition_levels(dec):
    levels = {}
    for k in range(1, dec.q + 1):
        lv = {"n": dec.A[k].nrows, "nnz_A": dec.A[k].nnz}
        if k in dec.B:
            lv.update(n_B=dec.B[k].nrows, nnz_B=dec.B[k].nnz,
                      nnz_R=dec.R[k].nnz)
        levels[str(k)] = lv
    return {"levels": levels}


# (module, attribute, span name, counts from the arguments, counts from
# the result).  "cg" spans also count calls of the matvec they are given.
PHASES = [
    ("geig.cli", "load_coefficient_file", "fem.load_coefficient_file", None, None),
    ("geig.cli", "assemble", "fem.assemble", None, None),
    ("geig.cli", "build_hierarchy", "hierarchy.build_hierarchy", None, None),
    ("geig.cli", "transform", "transform.transform", None, _decomposition_levels),
    ("geig.cli", "multilevel_correction", "correction.multilevel_correction", None, None),
    ("geig.cli", "lobpcg", "lobpcg.lobpcg", None, None),
    ("geig.cli", "wavelet_condition_numbers", "diagnostics.wavelet_condition_numbers", None, None),
    ("geig.cli", "measure_contraction", "diagnostics.measure_contraction", None, None),
]

LAYERS = [
    ("geig.cli", "run_experiment", "cli.run_experiment", None, None),
    ("geig.transform", "galerkin_triple", "sparse.galerkin_triple", _galerkin_shape, None),
    ("geig.transform", "cg", "sparse.cg", None, None),
    ("geig.transform", "make_direct_solver", "sparse.make_direct_solver", None, None),
    ("geig.transform", "GambletDecomposition.mass_levels", "transform.mass_levels", None, None),
    ("geig.transform", "GambletDecomposition.coarse_basis", "transform.coarse_basis", None, None),
    ("geig.correction", "correct_block", "correction.correct_block", None, None),
    ("geig.correction", "m_orthonormalize", "correction.m_orthonormalize", None, None),
    ("geig.correction", "mg", "multigrid.mg", _level, None),
    ("geig.correction", "dense_sym_geig", "sparse.dense_sym_geig", None, None),
    ("geig.correction", "jacobi_eigh", "sparse.jacobi_eigh", None, None),
    ("geig.correction", "make_direct_solver", "sparse.make_direct_solver", None, None),
    ("geig.lobpcg", "m_orthonormalize", "correction.m_orthonormalize", None, None),
    ("geig.lobpcg", "jacobi_eigh", "sparse.jacobi_eigh", None, None),
    ("geig.lobpcg", "precondition", "multigrid.precondition", None, None),
    ("geig.lobpcg", "Preconditioner.apply_block", "lobpcg.apply_block", None, None),
    ("geig.multigrid", "mg", "multigrid.mg", _level, None),
    ("geig.diagnostics", "condition_number", "diagnostics.condition_number", _block_size, None),
    ("geig.diagnostics", "cg", "sparse.cg", None, None),
    ("geig.diagnostics", "mg", "multigrid.mg", _level, None),
    ("geig.diagnostics", "make_direct_solver", "sparse.make_direct_solver", None, None),
    ("geig._kernels", "gauss_seidel_sweep", "kernels.gauss_seidel_sweep", _rows, None),
    ("geig._kernels", "csr_matvec", "kernels.csr_matvec", _nnz, None),
]


def _counts(fn, *args):
    """fn(*args), or no counts when the program's objects have changed."""
    try:
        return fn(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return {}


class Tracer:
    """Span recorder.  Each span is ``[name, start, end, parent, counts]``
    with ``parent`` the index of the enclosing span, or -1."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a recording wrapper; False if absent."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        spans, stack = self.spans, self._stack
        counting = name == "sparse.cg"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   _counts(before, args, kwargs) if before else {}]
            if counting and args and callable(args[0]):
                matvec = args[0]
                rec[4]["matvecs"] = 0

                def counted(*a):
                    rec[4]["matvecs"] += 1
                    return matvec(*a)

                args = (counted,) + args[1:]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[4].update(_counts(after, result))
            return result

        setattr(owner, attr, traced)
        return True

    def install(self, table):
        for module, attr, name, before, after in table:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            if owner is None or not self.wrap(owner, path[-1], name, before, after):
                self.absent.append(f"{module}.{attr}")

    def dump(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "absent": self.absent,
                       "spans": self.spans}, fh)


def span_cost(calls=20000):
    """Seconds one traced call adds over a plain call, measured here."""
    class Box:
        @staticmethod
        def f(x):
            return x

    plain = Box.f
    t = clock()
    for i in range(calls):
        plain(i)
    bare = clock() - t
    tracer = Tracer()
    tracer.wrap(Box, "f", "calibration")
    traced = Box.f
    t = clock()
    for i in range(calls):
        traced(i)
    return max((clock() - t - bare) / calls, 0.0)
