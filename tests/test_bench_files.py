"""Every committed BENCH_<n>.json is strict JSON, has the fields a benchmark
record needs, and holds a claim the benchmark's rule admits: a workload and an
end-to-end metric that BENCHMARK.json declares, at least 9 of 10 pairs won,
and medians that differ by more than the parent's IQR.  It also reports every
declared end-to-end metric on every declared workload, none of whose change
medians is worse than its parent median by more than the metric's bound, a
fraction of the parent median.  From BENCH_21 on, each file also says how the
change's results compare with the parent's: bit-identical (``bit_identity``)
or by how much they differ (``differences_from_parent``)."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
# the first file written under the rule that results are bit-identical or their
# differences are stated
RESULTS_RULE_FROM = 21
REQUIRED = ("host", "benchmark", "change", "claim", "end_to_end", "tier1", "traced")


def strict_load(path):
    """json.loads, but NaN and infinities are errors, as in strict JSON."""
    def reject(constant):
        raise ValueError(f"{path.name}: {constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture(scope="module")
def declared():
    """BENCHMARK.json, read only."""
    return strict_load(ROOT / "BENCHMARK.json")


def test_bench_files_are_found():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_an_admissible_claim(path, declared):
    record = strict_load(path)
    assert [key for key in REQUIRED if key not in record] == []
    claim = record["claim"]
    assert claim["workload"] in {w["name"] for w in declared["workloads"]}
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    assert claim["metric"] in metrics
    assert claim["met"] is True
    won, pairs = (int(k) for k in claim["change_wins"].split("/"))
    assert pairs >= 10 and 10 * won >= 9 * pairs
    gain = claim["parent_median"] - claim["change_median"]
    if metrics[claim["metric"]]["better"] == "higher":
        gain = -gain
    assert gain > claim["parent_iqr"] >= 0.0


@pytest.mark.parametrize(
    "path",
    [p for p in BENCH_FILES if int(p.stem.split("_")[1]) >= RESULTS_RULE_FROM],
    ids=lambda p: p.name,
)
def test_bench_file_states_how_its_results_compare(path):
    record = strict_load(path)
    assert "bit_identity" in record or "differences_from_parent" in record


def regressions(end_to_end, declared):
    """(workload, metric) of each declared pair missing from ``end_to_end`` or
    whose change median is worse than its parent median beyond the bound."""
    found = []
    for workload in declared["workloads"]:
        for metric in declared["end_to_end"]:
            try:
                medians = end_to_end[workload["name"]]["metrics"][metric["name"]]
                parent, change = medians["parent"]["median"], medians["change"]["median"]
            except KeyError:
                found.append((workload["name"], metric["name"], "missing"))
                continue
            worse = change - parent if metric["better"] == "lower" else parent - change
            if not worse <= metric["bound"] * parent:
                found.append((workload["name"], metric["name"], f"{parent} -> {change}"))
    return found


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_reports_every_metric_inside_its_bound(path, declared):
    assert regressions(strict_load(path)["end_to_end"], declared) == []


def test_regressions_flags_a_missing_or_worse_metric(declared):
    def record(p50):
        metric = {"parent": {"median": 1.0}, "change": {"median": p50}}
        return {"metrics": {m["name"]: dict(metric) for m in declared["end_to_end"]}}

    ok = {w["name"]: record(1.0) for w in declared["workloads"]}
    assert regressions(ok, declared) == []
    worse = dict(ok, mc=record(1.5))
    flagged = {(w, m) for w, m, _ in regressions(worse, declared)}
    lower = {m["name"] for m in declared["end_to_end"] if m["better"] == "lower"}
    assert flagged == {("mc", m) for m in lower}
    missing = {k: v for k, v in ok.items() if k != "cli"}
    assert len(regressions(missing, declared)) == len(declared["end_to_end"])


def test_strict_load_rejects_non_finite_numbers(tmp_path):
    for constant in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / "BENCH_0.json"
        path.write_text('{"x": %s}' % constant)
        with pytest.raises(ValueError, match="is not JSON"):
            strict_load(path)
