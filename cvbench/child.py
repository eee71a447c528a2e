"""Fresh-process helper of the benchmark.

    child.py setup PACKAGE WORKLOAD SEED [rss]
        Import PACKAGE, generate the workload's inputs from SEED and warm up
        (one operation; for ``cli``, build the argument parser).  Prints one
        JSON line with the monotonic start and ready times and the phase
        durations.  With ``rss``, then run every operation of the pool once,
        so the process's peak memory covers all of them.

    child.py cli-trace PACKAGE SPANS_FILE ARG...
        Run ``PACKAGE.cli.main(ARG...)`` with the tracer installed and write
        the spans and the start/import times to SPANS_FILE at exit.

The parent process sets PYTHONPATH so that exactly one package is importable
by its plain name, and pins the BLAS/OpenMP thread counts.
"""

import time

START = time.monotonic()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _setup(package: str, workload: str, seed: int, rss: bool) -> None:
    t0 = time.monotonic()
    pkg = importlib.import_module(package)
    if workload == "cli":
        cli = importlib.import_module(package + ".cli")
    t1 = time.monotonic()
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    t2 = time.monotonic()
    if workload == "cli":
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            cli.main(["--version"])
    else:
        inputs = workloads.prepare(pkg, workload, inputs)
        # A failing operation is counted by the measured loop, not here.
        with contextlib.suppress(Exception):
            workloads.run_op(pkg, workload, inputs[0])
    t3 = time.monotonic()
    print(json.dumps({"start": START, "ready": t3, "import_s": t1 - t0,
                      "inputs_s": t2 - t1, "warm_s": t3 - t2}), flush=True)
    if rss and workload != "cli":
        for op in inputs[1:]:
            with contextlib.suppress(Exception):
                workloads.run_op(pkg, workload, op)


def _cli_trace(package: str, spans_file: str, argv: list[str]) -> int:
    import tracing

    t0 = time.monotonic()
    cli = importlib.import_module(package + ".cli")
    import_s = time.monotonic() - t0
    tracer = tracing.Tracer(package)
    tracer.install()
    tracer.op = 0
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"start": START, "import_s": import_s, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        _setup(sys.argv[2], sys.argv[3], int(sys.argv[4]), sys.argv[5:] == ["rss"])
    elif mode == "cli-trace":
        sys.exit(_cli_trace(sys.argv[2], sys.argv[3], sys.argv[4:]))
    else:
        sys.exit(f"unknown mode {mode!r}")
