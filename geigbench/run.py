"""End-to-end benchmark of ``geig run``.

Usage (from the root of a checkout):

    python3 geigbench/run.py --workload mc_checker64 --seed 1 --seconds 10 --trace 0

Writes the workload's coefficient field and config, runs
``geig run`` in a child process with BLAS pinned to one thread, checks the
outputs against an eigensolve made here, apart from the program, and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1).

A run is one or more rounds, each a fresh ``geig run`` process.  A round is
not started if it would end after --seconds; the first always is.  setup_s is
the cold set-up of the run's first completed round, from the start of its
process; the other times are the best over the completed rounds, and
peak_rss_mb the highest.  The traced run reports the per-layer metrics of its
fastest round.  Every round is checked; a round that exits non-zero or does
not see every phase counts as failed.  Run details (environment, per-round
figures, checks) go to geigbench/out/<workload>-seed<n>-trace<t>/result.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = "geigbench"
OUT_DIR = os.path.join(BENCH_DIR, "out")
PROGRAM = os.path.join("src", "geig")
BLAS_THREADS = "1"
# All rounds of a run end within this many seconds of the first one's
# start; a round still running then is killed and counts as failed.
ROUND_LIMIT_S = 160.0
E2E_UNITS = {"setup_s": "s", "solve_s": "s", "diag_s": "s", "total_s": "s",
             "peak_rss_mb": "MB"}
PHASE_NAMES = ["fem.load_coefficient_file", "fem.assemble",
               "hierarchy.build_hierarchy", "transform.transform",
               "diagnostics.wavelet_condition_numbers",
               "diagnostics.measure_contraction"]
SOLVER_PHASE = {"mc": "correction.multilevel_correction",
                "lobpcg": "lobpcg.lobpcg"}


class RunRefused(Exception):
    """The run cannot start: there is no program to run."""


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS", "GEIG_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def input_digest(config_path, field_path):
    """Hash of everything a round's history.csv depends on: the config
    without its paths, the coefficient file and the program's source.  The
    inputs do not change with the seed, so all runs of a workload share one
    digest."""
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    del config["output_dir"], config["problem"]["path"]
    h = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    with open(field_path, "rb") as fh:
        h.update(fh.read())
    for root, dirs, files in os.walk(PROGRAM):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith((".py", ".pyx"))):
            path = os.path.join(root, name)
            h.update(path.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _read(path, binary=False):
    if not os.path.exists(path):
        return None
    with open(path, "rb" if binary else "r") as fh:
        return fh.read()


def _json(text):
    """Parsed JSON, or None for a file a killed child left empty or cut."""
    try:
        return json.loads(text) if text else None
    except ValueError:
        return None


def run_round(config, geig_out, spans_path, traced, env, deadline_s):
    """One ``geig run`` in a child process, with what it left behind: exit
    code, spans, summary.json, history.csv (bytes), times and peak RSS."""
    shutil.rmtree(geig_out, ignore_errors=True)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), config,
           spans_path, "1" if traced else "0"]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr.fileno())
    watchdog = threading.Timer(deadline_s, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        watchdog.join()
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    spans = _read(spans_path)
    summary = _read(os.path.join(geig_out, "summary.json"))
    trace = _json(spans)
    if trace is not None:
        trace["meta"]["t_spawn"] = t_spawn
    return {"exit": proc.returncode, "trace": trace, "summary": _json(summary),
            "history": _read(os.path.join(geig_out, "history.csv"), binary=True),
            "t_spawn": t_spawn, "t_exit": t_exit,
            "rss": usage.ru_maxrss / 1024.0}


def missing_phases(trace, solver):
    ix = layers.SpanIndex(trace["spans"])
    return [n for n in PHASE_NAMES + [SOLVER_PHASE[solver]] if not ix.by_name[n]]


def phase_metrics(trace, solver, t_spawn, t_exit, rss_mb):
    """End-to-end metrics of one round from its phase spans."""
    ix = layers.SpanIndex(trace["spans"])
    return {
        "setup_s": ix.spans[ix.by_name["transform.transform"][-1]][2] - t_spawn,
        "solve_s": ix.total(ix.by_name[SOLVER_PHASE[solver]]),
        "diag_s": ix.total(ix.by_name["diagnostics.wavelet_condition_numbers"]
                           + ix.by_name["diagnostics.measure_contraction"]),
        "total_s": t_exit - t_spawn,
        "peak_rss_mb": rss_mb,
    }


def read_history(data):
    rows = csv.DictReader(io.StringIO(data.decode("utf-8"), newline=""))
    return [{"sweep": int(r["sweep"]), "level": int(r["level"])} for r in rows]


def history_check(key, data):
    """Compare history.csv with the digest stored by an earlier round with
    the same input digest; store it if there is none."""
    digest = hashlib.sha256(data).hexdigest()
    store = os.path.join(OUT_DIR, "history-digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{key}.sha256")
    previous = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = fh.read().strip()
    else:
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(digest + "\n")
        os.replace(tmp, path)
    return checks.check_history_digest(digest, previous)


def check_round(r, spec, ref, tol, traced, key):
    """Failure messages of one round; sets r["complete"] when it finished
    with every phase seen, so that its times can be used."""
    out = []
    s = r["summary"]
    if s is None:
        out.append(f"exit status {r['exit']}, and no summary.json")
    else:
        lams = s.get("eigenvalues", [])
        out += (checks.check_status(r["exit"], s)
                + checks.check_eigenvalues(lams, ref, tol)
                + checks.check_upper_bounds(lams, ref)
                + checks.check_diagnostics(s, spec["levels"]))
    if r["history"] is None:
        out.append("no history.csv")
    else:
        out += history_check(key, r["history"])
    missing = ["spans"] if r["trace"] is None else missing_phases(r["trace"], spec["solver"])
    if missing:
        out.append(f"not seen in the run: {missing}")
    elif traced and r["history"] is not None:
        out += layers.cross_check(r["trace"], read_history(r["history"]),
                                  spec["solver"], spec["nev"])
    r["complete"] = r["exit"] == 0 and not missing
    return out


def run(workload, seed, seconds, traced):
    if not os.path.isfile(os.path.join(PROGRAM, "cli.py")):
        raise RunRefused(f"no program at {PROGRAM}; run from a checkout root")
    spec = workloads.WORKLOADS[workload]
    workdir = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(traced)}")
    shutil.rmtree(workdir, ignore_errors=True)
    config, field = workloads.write_inputs(workload, workdir)
    geig_out = os.path.join(workdir, "geig_out")
    env = child_env()
    key = input_digest(config, os.path.join(workdir, "field.txt"))

    t_begin = time.monotonic()
    rounds = []
    while True:
        spans_path = os.path.join(workdir, f"spans{len(rounds)}.json")
        rounds.append(run_round(config, geig_out, spans_path, traced, env,
                                ROUND_LIMIT_S - (time.monotonic() - t_begin)))
        last = rounds[-1]
        elapsed = time.monotonic() - t_begin
        if elapsed + (last["t_exit"] - last["t_spawn"]) > seconds:
            break

    ref = reference.lowest_eigenvalues(field, spec["nev"])
    tol = workloads.eigenvalue_tolerance(workload)
    failures = []
    for i, r in enumerate(rounds):
        r["failures"] = check_round(r, spec, ref, tol, traced, key)
        failures += [f"round {i}: {f}" for f in r["failures"]]
    ok = [r for r in rounds if r["complete"]]
    for r in ok:
        r["e2e"] = phase_metrics(r["trace"], spec["solver"], r["t_spawn"],
                                 r["t_exit"], r["rss"])
        if traced:
            r["layers"] = layers.layer_metrics(r["trace"], spec["levels"])

    if traced:
        units = dict(layers.metric_names(spec["levels"]))
        values = min(ok, key=lambda r: r["e2e"]["total_s"])["layers"] if ok else {}
    else:
        units = E2E_UNITS
        values = {n: min(r["e2e"][n] for r in ok) for n in units} if ok else {}
        if ok:
            values["setup_s"] = ok[0]["e2e"]["setup_s"]
            values["peak_rss_mb"] = max(r["e2e"]["peak_rss_mb"] for r in ok)
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units if n in values}
    traces = [r["trace"] for r in rounds if r["trace"] is not None]
    meta = traces[0]["meta"] if traces else {}
    env_info = {
        "compiled_kernels": meta.get("compiled_kernels"),
        "blas_threads_pinned": int(BLAS_THREADS),
        "numpy": meta.get("numpy"), "scipy": meta.get("scipy"),
        "nproc": os.cpu_count(), "python": platform.python_version(),
    }
    result = {"correct": not failures, "attempted": len(rounds),
              "failed": len(rounds) - len(ok), "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "traced": traced,
        "environment": env_info, "reference": [float(v) for v in ref],
        "eigenvalue_rel_tol": tol, "failures": failures,
        "absent": traces[0]["absent"] if traces else [],
        "rounds": [{k: r.get(k) for k in ("exit", "e2e", "layers", "summary",
                                          "failures")}
                   for r in rounds],
        "result": result,
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="names the run; the inputs do not depend on it")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except RunRefused as exc:
        print(f"geigbench: refused: {exc}", file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(details['environment'], sort_keys=True)}")
    if details["absent"]:
        print(f"absent names: {details['absent']}")
    for f in details["failures"]:
        print(f"check failed: {f}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
