"""A traced stand-in for ``python -m nonsmooth.cli``.

    python3 perfbench/cli_child.py SPANS.npz <nonsmooth cli arguments...>

Times the numpy and ``nonsmooth`` imports, wraps the package's public
functions, runs ``nonsmooth.cli.main`` on the remaining arguments and writes
the spans to SPANS.npz before exiting with the CLI's exit code.
"""

import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import nonsmooth.cli  # noqa: E402

t2 = time.perf_counter()

import tracing  # noqa: E402  (the script's directory is first on sys.path)


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.record("import.numpy", t0, t1)
    tracer.record("import.nonsmooth", t1, t2)
    tracing.install(tracer)
    try:
        return nonsmooth.cli.main(argv)
    finally:
        tracer.save(path)


if __name__ == "__main__":
    sys.exit(main())
