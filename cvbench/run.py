"""Paired-reference benchmark of the cvteleport simulator.

Run it through the command in BENCHMARK.json, from the repository root:

    python3 cvbench/run.py --ref-sha256 HEX --nominal WORKLOAD:KEY=VALUE,... \
        --workload {sweep,mc,tomo,cli} --seed N --seconds S --trace {0,1} [--aa]

A closed loop with one client: one operation at a time, at most one child
process at a time.  Each operation of the live package (``src/cvteleport``)
runs next to the same operation of a frozen copy of the seed package
(``cvbench/cvteleport_ref``) on the same inputs, alternating which runs first.
Every end-to-end time is the live/reference ratio scaled by the reference's
nominal time, which BENCHMARK.json pins with ``--nominal``; the host's speed
swings cancel in the ratio.  Raw times are printed as information only.
``--aa`` lets the reference play both sides, to show what pairing cancels.

Outputs are checked after each operation, outside the timed region.  An
operation that raises, exits with another code than documented or writes an
unparseable report counts as failed; ``correct`` turns false when a completed
operation returns a wrong result.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".cvbench_work"
TRACE_OUT = ROOT / ".cvbench_out"
LIVE, REF = "cvteleport", "cvteleport_ref"

SETUP_PAIRS = 6
TRACE_SETUP_PAIRS = 2
CHILD_TIMEOUT_S = 60.0
TAIL_BEYOND = 10
# One BLAS/OpenMP thread in every process: the loop has one client, and the
# live and reference sides must not compete for cores.
THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def die(message: str) -> None:
    print(f"cvbench: {message}", file=sys.stderr)
    sys.exit(2)


def reference_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((BENCH / REF).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def parse_nominal(entries: list[str]) -> dict[str, dict[str, float]]:
    table = {}
    for entry in entries:
        workload, _, pairs = entry.partition(":")
        table[workload] = {k: float(v) for k, v in (p.split("=") for p in pairs.split(","))}
    return table


def child_env(package: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CVTELEPORT_OUTDIR")}
    env.update(THREADS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(SRC if package == LIVE else BENCH)
    return env


def spawn(argv, package, cwd, stem):
    """Run one child to completion; (wall s, exit code, peak RSS MB, stdout,
    monotonic spawn time)."""
    out, err = Path(f"{stem}.out"), Path(f"{stem}.err")
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t_spawn = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(package), cwd=cwd, stdout=fo, stderr=fe)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out.read_text(errors="replace"), t_spawn


def tail_index(n: int) -> int:
    """Index of the highest order statistic with TAIL_BEYOND samples beyond it;
    with too few samples, the upper median."""
    return max(n - TAIL_BEYOND - 1, n // 2)


class Bench:
    def __init__(self, args, nominal):
        self.args = args
        self.workload = args.workload
        self.nominal = nominal
        self.live_name = REF if args.aa else LIVE
        self.live = importlib.import_module(self.live_name)
        self.ref = importlib.import_module(REF)
        self.work = WORK / f"{self.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []
        self.cli_ops = 0  # numbers the output directories of CLI processes

    # --- bookkeeping --------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        self.note(f"failed: {what}")

    def mistake(self, what: str) -> None:
        self.failed += 1
        self.wrong += 1
        self.note(f"wrong result: {what}")

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)

    def op_nominal_ms(self, verb: str | None) -> float:
        table = self.nominal
        return table[verb] if verb is not None else table["op_ms"]

    # --- set-up: paired fresh processes --------------------------------------

    def setup_pairs(self, pairs: int) -> dict:
        """Fresh set-up processes, live and reference in strict alternation;
        each live process is compared with the reference process on either
        side of it, so every adjacent couple gives one ratio.  A process's
        set-up time runs from its spawn until it is warmed up; the last live
        process then runs the whole pool once for the peak memory."""
        runs = []
        for j in range(2 * pairs):
            package = self.live_name if j % 2 == 0 else REF
            argv = [sys.executable, str(BENCH / "child.py"), "setup", package,
                    self.workload, str(self.args.seed)]
            if j == 2 * pairs - 2:
                argv.append("rss")
            _, code, rss, out, t_spawn = spawn(argv, package, self.work, self.work / f"setup{j}")
            if code != 0:
                die(f"set-up process for {package} exited {code}")
            info = json.loads(out.strip().splitlines()[0])
            runs.append(dict(setup=info["ready"] - t_spawn, rss=rss,
                             interpreter_s=info["start"] - t_spawn, **info))
        live, ref = runs[0::2], runs[1::2]
        ratios = [
            runs[j]["setup"] / runs[j + 1]["setup"] if j % 2 == 0
            else runs[j + 1]["setup"] / runs[j]["setup"]
            for j in range(len(runs) - 1)
        ]
        ref_setup = [r["setup"] for r in ref]
        factor = self.nominal["setup_s"] / statistics.median(ref_setup)
        return {
            "setup_s": statistics.median(ratios) * self.nominal["setup_s"],
            "peak_rss_mb": live[-1]["rss"],
            "interpreter_ms": 1e3 * factor * statistics.median(r["interpreter_s"] for r in live),
            "import_ms": 1e3 * factor * statistics.median(r["import_s"] for r in live),
            "raw_setup_s": {"live": [r["setup"] for r in live], "ref": ref_setup},
        }

    # --- in-process workloads -------------------------------------------------

    def prepare_inproc(self):
        import workloads

        pool = workloads.make_inputs(self.workload, self.args.seed)
        self.pool_live = workloads.prepare(self.live, self.workload, pool)
        self.pool_ref = workloads.prepare(self.ref, self.workload, pool)
        if self.workload == "mc":
            self.ref_analytic = [
                self.ref.teleport_analytic(workloads.build_params(self.ref, op["point"]))
                for op in pool
            ]
        self.run_pair(0, 0)  # warm caches and lazy imports
        # Long-lived objects leave the collector's view, so the full collection
        # before each timed operation is cheap and both sides start alike.
        gc.collect()
        gc.freeze()

    def check_inproc(self, i, live_out, ref_out) -> str | None:
        import workloads

        if self.workload == "sweep":
            return workloads.check_sweep(live_out, ref_out)
        if self.workload == "mc":
            return workloads.check_mc(live_out, self.ref_analytic[i])
        return workloads.check_tomo(live_out, self.pool_ref[i]["state"])

    def run_pair(self, i: int, k: int) -> tuple[dict, dict]:
        """Op i on both sides, chunk by chunk; which side goes first alternates
        from chunk to chunk and from op to op."""
        import workloads

        chunks = {
            "live": workloads.op_chunks(self.live, self.workload, self.pool_live[i]),
            "ref": workloads.op_chunks(self.ref, self.workload, self.pool_ref[i]),
        }
        times = {"live": 0.0, "ref": 0.0}
        outputs: dict = {}
        gc.collect()
        step = k
        while len(outputs) < 2:
            for side in (("live", "ref") if step % 2 == 0 else ("ref", "live")):
                if side in outputs:
                    continue
                t0 = time.perf_counter()
                try:
                    next(chunks[side])
                except StopIteration as stop:
                    outputs[side] = stop.value
                except Exception as exc:  # a failing live op is counted, not fatal
                    if side == "ref":
                        raise
                    outputs[side] = exc
                times[side] += time.perf_counter() - t0
            step += 1
        return times, outputs

    def measure_inproc(self, *, seconds=None, count=None, tracer=None) -> list[dict]:
        records = []
        start = time.perf_counter()
        k = 0
        while (count is not None and k < count) or (
            count is None and (k == 0 or time.perf_counter() - start < seconds)
        ):
            i = k % len(self.pool_live)
            if tracer is not None:
                tracer.op = k
            times, outputs = self.run_pair(i, k)
            k += 1
            self.attempted += 1
            if isinstance(outputs["live"], Exception):
                self.fail(f"op {i}: {type(outputs['live']).__name__}: {outputs['live']}")
                continue
            problem = self.check_inproc(i, outputs["live"], outputs["ref"])
            if problem:
                self.mistake(f"op {i}: {problem}")
            records.append({"verb": None, "live": times["live"], "ref": times["ref"]})
        return records

    # --- cli workload -----------------------------------------------------------

    def prepare_cli(self):
        import workloads

        self.cycle = []
        for verb, argv, expect, files in workloads.make_inputs("cli", self.args.seed):
            for name, text in files.items():
                (self.work / name).write_text(text, encoding="utf-8")
            argv = [str(self.work / a) if a in files else a for a in argv]
            self.cycle.append((verb, argv, expect))
        self.expected: dict[str, dict] = {}

    def cli_argv(self, package, argv, outdir, spans=None):
        if spans is not None:
            return [sys.executable, str(BENCH / "child.py"), "cli-trace", package, str(spans),
                    *argv, "--out", str(outdir)]
        return [sys.executable, "-m", f"{package}.cli", *argv, "--out", str(outdir)]

    def measure_cli(self, *, seconds=None, cycles=None, traced=False) -> list[dict]:
        records = []
        start = time.perf_counter()
        done = 0
        while True:
            for verb, argv, expect in self.cycle:
                k = self.cli_ops
                rec = {"verb": verb, "argv": argv, "expect": expect}
                for side in (("live", "ref") if k % 2 == 0 else ("ref", "live")):
                    package = self.live_name if side == "live" else REF
                    outdir = self.work / f"op{k}-{side}"
                    spans = self.work / f"op{k}-spans.json" if traced and side == "live" else None
                    wall, code, rss, _, _ = spawn(
                        self.cli_argv(package, argv, outdir, spans), package, self.work,
                        self.work / f"op{k}-{side}")
                    rec[side] = wall
                    if side == "live":
                        rec.update(code=code, rss=rss, outdir=outdir, spans=spans)
                records.append(rec)
                self.cli_ops += 1
            done += 1
            elapsed = time.perf_counter() - start
            if (cycles is not None and done >= cycles) or (
                cycles is None and elapsed + elapsed / done > seconds
            ):
                break
        for rec in records:
            self.check_cli(rec)
        return records

    def expected_output(self, verb, argv) -> dict:
        """The verb's output files from an in-process run of the same package."""
        if verb not in self.expected:
            outdir = self.work / f"expected-{verb}"
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                importlib.import_module(f"{self.live_name}.cli").main([*argv, "--out", str(outdir)])
            self.expected[verb] = {p.name: p.read_bytes() for p in outdir.iterdir()}
        return self.expected[verb]

    def check_cli(self, rec) -> None:
        import workloads

        self.attempted += 1
        verb, code, expect, outdir = rec["verb"], rec["code"], rec["expect"], rec["outdir"]
        if code != expect:
            self.fail(f"{verb}: exit {code}, documented {expect}")
            return
        if expect != 0:
            return
        try:
            report = workloads.strict_json((outdir / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.fail(f"{verb}: report.json unreadable: {exc}")
            return
        expected = self.expected_output(verb, rec["argv"])
        want = workloads.comparable_report(verb, workloads.strict_json(expected["report.json"].decode()))
        if workloads.comparable_report(verb, report) != want:
            self.mistake(f"{verb}: report.json differs from the in-process run")
            return
        for name, data in expected.items():
            if name != "report.json" and (outdir / name).read_bytes() != data:
                self.mistake(f"{verb}: {name} differs from the in-process run")
                return

    # --- metrics ----------------------------------------------------------------

    def normalized(self, records) -> list[float]:
        return [r["live"] / r["ref"] * self.op_nominal_ms(r["verb"]) for r in records]

    def end_to_end(self, records, setup) -> tuple[dict, dict]:
        norm = sorted(self.normalized(records))
        n = len(norm)
        live_sum = sum(r["live"] for r in records)
        ref_sum = sum(r["ref"] for r in records)
        nominal_sum = sum(self.op_nominal_ms(r["verb"]) for r in records)
        if self.workload == "cli":
            peak_rss = max(r["rss"] for r in records)
        else:
            peak_rss = setup["peak_rss_mb"]
        metrics = {
            "ops_per_s": (1e3 * n / (live_sum * nominal_sum / ref_sum), "1/s"),
            "op_ms.p50": (statistics.median(norm), "ms"),
            "op_ms.tail": (norm[tail_index(n)], "ms"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        info = {
            "samples": n,
            "tail_percentile": round(100.0 * (tail_index(n) + 1) / n, 1),
            "tail_samples_beyond": n - 1 - tail_index(n),
            "raw_live_ms_p50": 1e3 * statistics.median(r["live"] for r in records),
            "raw_ref_ms_p50": 1e3 * statistics.median(r["ref"] for r in records),
            "raw_setup_s": setup["raw_setup_s"],
        }
        return metrics, info

    def host_swing(self, records) -> float:
        scaled = [r["ref"] / self.op_nominal_ms(r["verb"]) for r in records]
        if len(scaled) < 2:
            return 1.0
        deciles = statistics.quantiles(scaled, n=10)
        return deciles[8] / deciles[0]


def per_layer(bench, summary, traced_records, untraced_records, setup) -> dict:
    """Per-layer metrics of the traced pass, times scaled to the nominal host."""
    functions, nested = summary["functions"], summary["nested"]
    n_ops = len(traced_records)
    factor = statistics.median(
        bench.op_nominal_ms(r["verb"]) / (1e3 * r["ref"]) for r in traced_records)
    live_ns = 1e9 * sum(r["live"] for r in traced_records)

    def stat(name, column):
        return functions.get(name, [0, 0, 0, 0])[column]

    def calls(name):
        return stat(name, 0)

    def ms(ns):
        return ns * 1e-6 * factor

    def layer(prefix, column, exclude=()):
        return sum(v[column] for k, v in functions.items()
                   if k.startswith(prefix + ".") and k not in exclude)

    def per(value, count):
        return value / count if count else 0.0

    def rate(name):  # work units per normalized second of the call's inclusive time
        incl = ms(stat(name, 1))
        return per(stat(name, 3), incl * 1e-3)

    def share(self_ns):  # of the live ops' wall time
        return 100.0 * self_ns / live_ns

    state_ctor = "gaussian.GaussianState"
    gauss_self = layer("gaussian", 2)
    side_self = layer("sideband", 2)
    writes = [k for k in functions if k.startswith("harness.write")]
    traced_p50 = statistics.median(bench.normalized(traced_records))
    untraced_p50 = statistics.median(bench.normalized(untraced_records))
    gauss_in_mc = sum(v for k, v in nested.items()
                      if k.endswith("<teleporter.teleport_mc") and k.startswith("gaussian.")
                      and not k.startswith(state_ctor + "<"))
    values = {
        "gaussian.calls_per_op": (per(layer("gaussian", 0, (state_ctor,)), n_ops), "count"),
        "gaussian.states_per_op": (per(calls(state_ctor), n_ops), "count"),
        "gaussian.self_ms_per_op": (per(ms(gauss_self), n_ops), "ms"),
        "gaussian.self_pct": (share(gauss_self), "%"),
        "teleporter.make_epr.calls_per_op": (per(calls("teleporter.make_epr"), n_ops), "count"),
        "teleporter.teleport_analytic.us_per_point": (
            1e3 * per(ms(stat("teleporter.teleport_analytic", 1)), calls("teleporter.teleport_analytic")), "us"),
        "teleporter.teleport_analytic.self_ms_per_op": (
            per(ms(stat("teleporter.teleport_analytic", 2)), n_ops), "ms"),
        "teleporter.teleport_analytic.self_pct": (share(stat("teleporter.teleport_analytic", 2)), "%"),
        "teleporter.cascade.ms_per_stage": (
            per(ms(stat("teleporter.cascade", 1)), stat("teleporter.cascade", 3)), "ms"),
        "teleporter.teleport_mc.shots_per_s": (rate("teleporter.teleport_mc"), "1/s"),
        "teleporter.teleport_mc.self_ms_per_op": (per(ms(stat("teleporter.teleport_mc", 2)), n_ops), "ms"),
        "teleporter.teleport_mc.self_pct": (share(stat("teleporter.teleport_mc", 2)), "%"),
        "teleporter.teleport_mc.gaussian_calls_per_call": (
            per(gauss_in_mc, calls("teleporter.teleport_mc")), "count"),
        "sideband.calls_per_op": (per(layer("sideband", 0), n_ops), "count"),
        "sideband.self_ms_per_op": (per(ms(side_self), n_ops), "ms"),
        "sideband.self_pct": (share(side_self), "%"),
        "tomography.sample_record.samples_per_s": (rate("tomography.sample_record"), "1/s"),
        "tomography.inverse_radon.samples_per_s": (rate("tomography.inverse_radon"), "1/s"),
        "tomography.inverse_radon.self_ms_per_op": (
            per(ms(stat("tomography.inverse_radon", 2)), n_ops), "ms"),
        "tomography.inverse_radon.self_pct": (share(stat("tomography.inverse_radon", 2)), "%"),
        "tomography.wigner_moments.self_ms_per_op": (
            per(ms(stat("tomography.wigner_moments", 2)), n_ops), "ms"),
        "tomography.spectrum_trace.self_ms_per_call": (
            per(ms(stat("tomography.spectrum_trace", 2)), calls("tomography.spectrum_trace")), "ms"),
        "harness.calibrate_losses.ms_per_call": (
            per(ms(stat("harness.calibrate_losses", 1)), calls("harness.calibrate_losses")), "ms"),
        "harness.calibrate_losses.make_epr_calls_per_call": (
            per(nested.get("teleporter.make_epr<harness.calibrate_losses", 0),
                calls("harness.calibrate_losses")), "count"),
        "harness.run.self_ms_per_op": (per(ms(stat("harness.run", 2)), n_ops), "ms"),
        "harness.parse_config.ms_per_call": (
            per(ms(stat("harness.parse_config", 1)), calls("harness.parse_config")), "ms"),
        "harness.write.bytes_per_op": (per(sum(stat(k, 3) for k in writes), n_ops), "B"),
        "harness.write.ms_per_op": (per(ms(sum(stat(k, 1) for k in writes)), n_ops), "ms"),
        "harness.paper_repro.ms_per_call": (
            per(ms(stat("harness.paper_repro", 1)), calls("harness.paper_repro")), "ms"),
        "cli.main.self_ms_per_op": (per(ms(stat("cli.main", 2)), n_ops), "ms"),
        "cli.main.self_pct": (share(stat("cli.main", 2)), "%"),
        "process.interpreter_ms": (setup["interpreter_ms"], "ms"),
        "process.import_ms": (setup["import_ms"], "ms"),
        "bench.host_swing": (bench.host_swing(untraced_records), "ratio"),
        "bench.tracing_overhead_pct": (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"),
        "bench.traced_ops": (n_ops, "count"),
    }
    return values


def run(args, nominal) -> None:
    import tracing

    bench = Bench(args, nominal)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        cli = args.workload == "cli"
        if cli:
            bench.prepare_cli()
        else:
            bench.prepare_inproc()
        setup = bench.setup_pairs(TRACE_SETUP_PAIRS if args.trace else SETUP_PAIRS)
        if not args.trace:
            if cli:
                records = bench.measure_cli(seconds=args.seconds)
            else:
                records = bench.measure_inproc(seconds=args.seconds)
            if not records:
                die("every live operation failed")
            metrics, info = bench.end_to_end(records, setup)
            info["host_swing"] = bench.host_swing(records)
        else:
            if cli:
                untraced = bench.measure_cli(cycles=1)
                traced = bench.measure_cli(cycles=1, traced=True)
                dumps = [json.loads(r["spans"].read_text()) for r in traced if r["spans"].exists()]
            else:
                untraced = bench.measure_inproc(seconds=args.seconds / 2)
                tracer = tracing.Tracer(bench.live_name)
                tracer.install()
                try:
                    traced = bench.measure_inproc(count=len(bench.pool_live), tracer=tracer)
                finally:
                    tracer.uninstall()
                dumps = [tracer.dump()]
            TRACE_OUT.mkdir(exist_ok=True)
            with open(TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
                json.dump(dumps, fh)
            if not (traced and untraced):
                die("every live operation failed")
            metrics = per_layer(bench, tracing.summarize(dumps), traced, untraced, setup)
            info = {"samples": len(traced), "host_swing": bench.host_swing(untraced)}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    import numpy
    import scipy

    info.update(
        workload=args.workload, seed=args.seed, aa=args.aa,
        python=platform.python_version(), numpy=numpy.__version__, scipy=scipy.__version__,
        threads=THREADS, nproc=os.cpu_count(), notes=bench.notes,
    )
    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "mc", "tomo", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-sha256", required=True, help="pinned hash of the reference package")
    parser.add_argument("--nominal", action="append", default=[],
                        help="WORKLOAD:KEY=VALUE,... nominal reference times (ms; setup_s in s)")
    parser.add_argument("--aa", action="store_true", help="A/A check: the reference plays both sides")
    args = parser.parse_args()
    os.environ.update(THREADS)  # before numpy loads

    if not (SRC / LIVE / "__init__.py").is_file():
        die(f"live package not found at {SRC / LIVE}")
    if reference_sha256() != args.ref_sha256:
        die("reference package does not match its pinned hash")
    nominal = parse_nominal(args.nominal).get(args.workload)
    if nominal is None:
        die(f"no nominal times for workload {args.workload!r}")
    sys.path.insert(0, str(SRC))
    live = importlib.import_module(LIVE)
    if Path(live.__file__).resolve().parent != (SRC / LIVE).resolve():
        die(f"imported {LIVE} from {live.__file__}, not from {SRC}")
    run(args, nominal)


if __name__ == "__main__":
    main()
