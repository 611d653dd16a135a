"""The timed process: one ``geig run <config>``, with its calls recorded.

Usage: python3 geigbench/child.py <config.json> <spans.json> <0|1>

Wraps the public calls ``geig run`` makes (and, with 1, every module
boundary in tracing.LAYERS), runs ``geig.cli.main(["run", config])`` and
writes the spans to <spans.json>.  Exits with the status of ``geig run``.
"""

import sys

import numpy
import scipy

import tracing


def main(argv):
    config, spans_path, traced = argv[0], argv[1], argv[2] == "1"
    from geig import _kernels, cli

    tracer = tracing.Tracer()
    tracer.install(tracing.PHASES + (tracing.LAYERS if traced else []))
    meta = {
        "compiled_kernels": bool(getattr(_kernels, "HAVE_COMPILED_KERNELS", False)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    status = 1
    try:
        status = cli.main(["run", config])
    finally:
        if traced:
            meta["span_cost_s"] = tracing.span_cost()
        tracer.dump(spans_path, meta)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
