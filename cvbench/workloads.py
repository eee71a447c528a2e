"""Workload inputs, operations and output checks.

Inputs are plain numbers generated from the benchmark seed; each side (the
live package or the frozen reference) builds its own objects from them, so
state construction and validation are part of every timed operation.  Every
operation within a workload does the same mix of work, so per-operation
live/reference ratios are comparable and no median falls between two kinds
of operation.  The ``cli`` workload is the exception by design: its
operations are separate processes cycling through a fixed verb mix, and its
metrics are taken over whole cycles.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("sweep", "mc", "tomo", "cli")

SWEEP_POINTS_PER_STRATUM = 5  # 3 inputs x 2 gains x 2 detectors x 5 = 60 points
CASCADE_STAGES = 16
MC_SHOTS = 200_000
TOMO_SAMPLES = 1_000_000
POOL_SIZE = {"sweep": 16, "mc": 16, "tomo": 8}

REL_TOL = 1e-9
ABS_FLOOR = 1e-6
MC_SIGMA_LIMIT = 5.0
TOMO_VAR_REL_LIMIT = 0.05
NORMALIZATION_WINDOW = (0.95, 1.05)
CALIBRATION_SOURCE_LIMIT_DB = -6.2  # x/p correlation of the default sources at eta = 1

# Documented exit codes: 0 success, 2 config error, 3 physics error.
EXIT_OK, EXIT_CONFIG, EXIT_PHYSICS = 0, 2, 3


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


# --- parameter points -------------------------------------------------------

def _input_spec(rng, kind):
    if kind == "coherent":
        return ("coherent", float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
    if kind == "squeezed":
        sq = float(rng.uniform(-8, -1))
        return ("squeezed", sq, -sq + float(rng.uniform(0, 6)), float(rng.uniform(0, np.pi)))
    return ("vacuum",)


def _point(rng, kind, unity_gain, ideal_detector):
    sq = tuple(float(v) for v in rng.uniform(-9, -1, 2))
    anti = None
    if rng.random() < 0.5:
        anti = tuple(-s + float(rng.uniform(0, 6)) for s in sq)
    gains = (1.0, 1.0) if unity_gain else tuple(float(v) for v in rng.uniform(0.5, 1.5, 2))
    return {
        "input": _input_spec(rng, kind),
        "epr_sq_db": sq,
        "epr_antisq_db": anti,
        "g_x": gains[0],
        "g_p": gains[1],
        "eta_source": tuple(float(v) for v in rng.uniform(0.8, 1.0, 2)),
        "eta_prop": tuple(float(v) for v in rng.uniform(0.8, 1.0, 2)),
        "eta_hom": 1.0 if ideal_detector else float(rng.uniform(0.7, 0.99)),
        "seed": int(rng.integers(2**31)),
    }


def build_input(pkg, spec):
    if spec[0] == "coherent":
        return pkg.coherent_state(complex(spec[1], spec[2]))
    if spec[0] == "squeezed":
        return pkg.rotate(pkg.impure_squeezed_vacuum(spec[1], spec[2]), 0, spec[3])
    return pkg.vacuum(1)


def build_params(pkg, point):
    return pkg.TeleporterParams(
        input_state=build_input(pkg, point["input"]),
        epr_sq_db=point["epr_sq_db"],
        epr_antisq_db=point["epr_antisq_db"],
        g_x=point["g_x"],
        g_p=point["g_p"],
        eta_source=point["eta_source"],
        eta_prop=point["eta_prop"],
        eta_hom=point["eta_hom"],
        seed=point["seed"],
    )


# --- input generation -------------------------------------------------------

def make_inputs(workload: str, seed: int):
    """Operation pool for ``sweep``/``mc``/``tomo``; one verb cycle for ``cli``."""
    rng = _rng(seed, workload)
    if workload == "cli":
        return make_cli_cycle(rng)
    pool = []
    for _ in range(POOL_SIZE[workload]):
        if workload == "sweep":
            points = [
                _point(rng, kind, unity, ideal)
                for kind in ("coherent", "squeezed", "vacuum")
                for unity in (True, False)
                for ideal in (True, False)
                for _ in range(SWEEP_POINTS_PER_STRATUM)
            ]
            cascade_point = _point(rng, "coherent", True, bool(rng.random() < 0.5))
            target = tuple(float(v) for v in rng.uniform(CALIBRATION_SOURCE_LIMIT_DB + 0.2, -0.5, 2))
            pool.append({"points": points, "cascade": cascade_point, "target": target})
        elif workload == "mc":
            pool.append({"point": _point(rng, "coherent", False, False)})
        else:
            kind = ("coherent", "squeezed", "vacuum")[len(pool) % 3]
            pool.append({
                "point": _point(rng, kind, bool(rng.random() < 0.5), bool(rng.random() < 0.5)),
                "record_seed": int(rng.integers(2**31)),
            })
    return pool


def _fmt(values):
    return [repr(float(v)) for v in values]


def _scenario_flags(rng):
    scenario = ("coherent", "squeezed_x", "squeezed_p", "vacuum")[int(rng.integers(4))]
    flags = ["--scenario", scenario, "--seed", str(int(rng.integers(2**31)))]
    flags += ["--alpha", repr(float(rng.uniform(0.5, 4)))]
    flags += ["--epr-sq-db", *_fmt(rng.uniform(-9, -1, 2))]
    flags += ["--eta-prop", *_fmt(rng.uniform(0.8, 1.0, 2))]
    flags += ["--eta-hom", repr(float(rng.uniform(0.8, 1.0)))]
    return flags


def make_cli_cycle(rng):
    """One cycle of CLI invocations: (verb, argv without --out, expected exit, files)."""
    cfg = "\n".join([
        "[run]",
        f"scenario = {('coherent', 'squeezed_x', 'vacuum')[int(rng.integers(3))]}",
        f"alpha = {float(rng.uniform(0.5, 4))!r}",
        f"seed = {int(rng.integers(2**31))}",
        "[teleporter]",
        "epr_sq_db = {} {}".format(*_fmt(rng.uniform(-9, -1, 2))),
        "g_x = {!r}".format(float(rng.uniform(0.7, 1.3))),
        "g_p = {!r}".format(float(rng.uniform(0.7, 1.3))),
        "eta_source = {} {}".format(*_fmt(rng.uniform(0.8, 1.0, 2))),
        "eta_hom = {!r}".format(float(rng.uniform(0.8, 1.0))),
        "",
    ])
    if rng.random() < 0.5:
        bad = "[run]\nscenario = coherent\nbogus_key = 1\n"
    else:
        bad = "[teleporter]\neta_hom = {!r}\n".format(float(rng.uniform(1.1, 2.0)))
    unity_flags = ["--alpha", repr(float(rng.uniform(0.5, 4))),
                   "--epr-sq-db", *_fmt(rng.uniform(-9, -1, 2)),
                   "--eta-prop", *_fmt(rng.uniform(0.8, 1.0, 2))]
    reachable = _fmt(rng.uniform(CALIBRATION_SOURCE_LIMIT_DB + 0.2, -0.5, 2))
    unreachable = _fmt(rng.uniform(-12.0, CALIBRATION_SOURCE_LIMIT_DB - 0.8, 2))
    return [
        ("run", ["run", *_scenario_flags(rng)], EXIT_OK, {}),
        ("run_config", ["run", "--config", "run.ini"], EXIT_OK, {"run.ini": cfg}),
        ("run_mc", ["run", "--method", "mc", *_scenario_flags(rng)], EXIT_OK, {}),
        ("trace", ["trace", "--sampled", *_scenario_flags(rng)], EXIT_OK, {}),
        ("wigner", ["wigner", "--samples", "100000", *_scenario_flags(rng)], EXIT_OK, {}),
        ("cascade", ["cascade", "--stages", "8", *unity_flags], EXIT_OK, {}),
        ("calibrate", ["calibrate", "--target-epr-db", *reachable], EXIT_OK, {}),
        ("paper_repro", ["paper-repro"], EXIT_OK, {}),
        ("alpha_nan", ["run", "--alpha", "nan"], EXIT_CONFIG, {}),
        ("config_error", ["run", "--config", "bad.ini"], EXIT_CONFIG, {"bad.ini": bad}),
        ("physics_error", ["calibrate", "--target-epr-db", *unreachable], EXIT_PHYSICS, {}),
    ]


# --- per-side preparation and operations ------------------------------------

def prepare(pkg, workload, pool):
    """Per-side objects that are inputs rather than work (teleported states)."""
    if workload != "tomo":
        return pool
    return [
        dict(op, state=pkg.teleport_analytic(build_params(pkg, op["point"])).output_state)
        for op in pool
    ]


def op_chunks(pkg, workload, op):
    """One operation as a generator that yields between chunks of its work and
    returns plain data for the output check.  The benchmark interleaves the
    chunks of the live and the reference operation, so a change of host speed
    within an operation reaches both sides alike."""
    if workload == "sweep":
        points = []
        for point in op["points"]:
            report = pkg.teleport_analytic(build_params(pkg, point))
            verdict = pkg.is_entangled(pkg.sidebands_from_single_mode(report.output_state))
            points.append((report, verdict))
            yield
        stages = pkg.cascade(build_params(pkg, op["cascade"]), CASCADE_STAGES)
        yield
        calibration = pkg.calibrate_losses(op["target"])
        return points, stages, calibration
    if workload == "mc":
        return pkg.teleport_mc(build_params(pkg, op["point"]), MC_SHOTS)
    if workload == "tomo":
        state = op["state"]
        record = pkg.sample_record(state, TOMO_SAMPLES, np.random.default_rng(op["record_seed"]))
        yield
        grid = pkg.inverse_radon(record, pkg.GridSpec.from_state(state))
        yield
        return pkg.wigner_moments(grid)
    raise ValueError(f"no in-process operation for workload {workload!r}")


def run_op(pkg, workload, op):
    """One whole operation, without interleaving."""
    chunks = op_chunks(pkg, workload, op)
    while True:
        try:
            next(chunks)
        except StopIteration as stop:
            return stop.value


# --- output checks ----------------------------------------------------------

def _close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)), ABS_FLOOR)
    return bool(np.all(np.abs(a - b) <= REL_TOL * scale))


def _bona_fide(cov) -> bool:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2) or not np.all(np.isfinite(cov)):
        return False
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    return bool(
        abs(cov[0, 1] - cov[1, 0]) <= 1e-12
        and cov[0, 0] > 0
        and det > 0
        and math.sqrt(det) >= 0.25 - 1e-9
    )


def _report_fields(report):
    fid = report.fidelity_coherent
    return [
        report.output_state.mean, report.output_state.cov, report.vx, report.vp,
        report.vx_db, report.vp_db, report.delta_sq_out, list(report.epr), list(report.gains),
        -1.0 if fid is None else fid,
    ]


def check_sweep(live, ref) -> str | None:
    """Live results equal the reference's within REL_TOL and are bona fide."""
    (live_points, live_stages, live_cal), (ref_points, ref_stages, ref_cal) = live, ref
    if len(live_points) != len(ref_points):
        return "point count differs"
    for k, ((lr, lv), (rr, rv)) in enumerate(zip(live_points, ref_points)):
        for a, b in zip(_report_fields(lr), _report_fields(rr)):
            if not _close(a, b):
                return f"point {k}: report differs from reference"
        if bool(lv.entangled) != bool(rv.entangled) or not _close(lv.margin, rv.margin):
            return f"point {k}: sideband verdict differs"
        if not _bona_fide(lr.output_state.cov):
            return f"point {k}: output covariance is not bona fide"
    if len(live_stages) != len(ref_stages):
        return "cascade stage count differs"
    for ls, rs in zip(live_stages, ref_stages):
        if ls.stage != rs.stage or not _close([ls.fidelity, ls.vx, ls.vp], [rs.fidelity, rs.vx, rs.vp]):
            return f"cascade stage {rs.stage} differs"
    if not _close([*live_cal.eta_source, live_cal.achieved_x_db, live_cal.achieved_p_db],
                  [*ref_cal.eta_source, ref_cal.achieved_x_db, ref_cal.achieved_p_db]):
        return "calibration differs"
    return None


def mc_max_sigma(empirical, analytic, shots) -> float:
    """Largest |deviation| / standard error over the MC output moments."""
    a_mean, a_cov = analytic.output_state.mean, analytic.output_state.cov
    e_mean, e_cov = empirical.output_state.mean, empirical.output_state.cov
    n = shots
    scores = [
        abs(e_mean[0] - a_mean[0]) / math.sqrt(a_cov[0, 0] / n),
        abs(e_mean[1] - a_mean[1]) / math.sqrt(a_cov[1, 1] / n),
        abs(e_cov[0, 0] - a_cov[0, 0]) / (a_cov[0, 0] * math.sqrt(2.0 / (n - 1))),
        abs(e_cov[1, 1] - a_cov[1, 1]) / (a_cov[1, 1] * math.sqrt(2.0 / (n - 1))),
        abs(e_cov[0, 1] - a_cov[0, 1]) / math.sqrt((a_cov[0, 0] * a_cov[1, 1] + a_cov[0, 1] ** 2) / n),
    ]
    return float(max(scores)) if all(map(math.isfinite, scores)) else math.inf


def check_mc(live, ref_analytic) -> str | None:
    """Live MC moments lie within MC_SIGMA_LIMIT of the *reference* analytic."""
    sigma = mc_max_sigma(live, ref_analytic, MC_SHOTS)
    if not sigma <= MC_SIGMA_LIMIT:
        return f"MC moments {sigma:.2f} sigma from the reference analytic"
    return None


def check_tomo(live, ref_state) -> str | None:
    """Normalization inside its window and variance error at most 5%."""
    lo, hi = NORMALIZATION_WINDOW
    if not lo <= live.normalization <= hi:
        return f"normalization {live.normalization:.4f} outside [{lo}, {hi}]"
    err = max(abs(live.cov[q, q] - ref_state.cov[q, q]) / ref_state.cov[q, q] for q in (0, 1))
    if not err <= TOMO_VAR_REL_LIMIT:
        return f"variance error {err:.3f} above {TOMO_VAR_REL_LIMIT}"
    return None


def strict_json(text: str):
    """Parse JSON, rejecting NaN and infinities."""
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def comparable_report(verb: str, payload):
    """Report content that must match between the process and in-process runs."""
    if verb == "paper_repro":
        for row in payload["reference_comparison"]:
            if row["quantity"] == "mc_sweep_seconds":  # wall-clock time, not a result
                row["simulated"] = None
    return payload
