"""Tests of the benchmark itself: oracles, smoke runs, frozen layer counts, robustness.

Run from the repository root with `python3 -m pytest benchmarks -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pairbij import charpair, cli, encoders, nadic, streams  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PRESETS = ("morton", "arith-set:2", "arith-set:3", "bits-of-naturals", "squares", "syracuse", "powers2")


# -- the oracles agree with the library on small inputs -----------------------------

@pytest.mark.parametrize("spec", PRESETS)
def test_oracle_guide_matches_seed_bits(spec):
    name, _, k = spec.partition(":")
    seed = charpair.preset_seed(name, int(k) if k else None)
    bits = seed.bits(streams.Fuel(500))
    want = [next(bits) for _ in range(400)]
    g = oracles.guide(spec)
    assert [next(g) for _ in range(400)] == want


@pytest.mark.parametrize("spec", PRESETS)
def test_oracle_pair_unpair_match_library(spec):
    fam = workloads._preset(spec)
    for x in range(12):
        for y in range(12):
            n, _ = oracles.pair(spec, x, y)
            assert fam.pair(x, y) == n
            assert oracles.unpair(spec, n)[:2] == (x, y)
    for n in range(200):
        assert oracles.unpair(spec, n)[:2] == fam.unpair(n)


def test_interleave_is_morton_and_arith_set_2():
    for x, y in [(0, 0), (1, 0), (0, 1), (37, 1000), (2**70 + 3, 5)]:
        assert oracles.interleave(x, y) == oracles.pair("morton", x, y)[0]
        assert oracles.interleave(x, y) == oracles.pair("arith-set:2", x, y)[0]
        assert oracles.deinterleave(oracles.interleave(x, y)) == (x, y)


@pytest.mark.parametrize("b", [2, 3, 7])
def test_nadic_oracle_matches_library(b):
    for x in range(6):
        for y in range(40):
            n = oracles.nadic_pair(b, x, y)
            assert n == nadic.pair(b, x, y)
            assert oracles.nadic_unpair(b, n) == (x, y)


@pytest.mark.parametrize("spec", workloads.CURVE_SPECS)
def test_curve_oracle_matches_cli(spec, tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["curve", spec, "300", "csv", "--out", str(out)]) == 0
    assert out.read_text() == oracles.curve_csv(oracles.curve_rows(spec, 300))


# -- smoke runs ---------------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_reports_every_declared_metric(name, trace):
    record = run.run_workload(name, seed=3, seconds=0, trace=trace, smoke=True)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert record["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in record["metrics"].values())


def test_traced_run_restores_entry_points():
    before = (charpair.generic_pair, charpair._nat_to_bits, nadic.decons,
              charpair.SeedSpec.bits, cli.parse_family, cli._render_csv)
    run.run_workload("curve-small", seed=1, seconds=0, trace=1, smoke=True)
    after = (charpair.generic_pair, charpair._nat_to_bits, nadic.decons,
             charpair.SeedSpec.bits, cli.parse_family, cli._render_csv)
    assert after == before


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER_UNITS)


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed):
        pool = workloads.build("dense-wide", seed, 2, tmp_path)
        return [op.call() for op in pool[1]]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_cli_prints_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "nadic-deep", "--seed", "2",
         "--trace", "0", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "dense-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_flags_a_regression(tmp_path):
    import compare

    record = {"workload": "dense-wide", "trace": 0, "correct": True, "failed": 0,
              "metrics": {"op_p50_ref": {"value": 1.0, "unit": "ref"}}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record))
    record["metrics"]["op_p50_ref"]["value"] = 1.5
    new.write_text(json.dumps(record))
    assert compare.main([str(old), str(old)]) == 0
    assert compare.main([str(old), str(new)]) == 1


def test_compare_flags_what_new_lacks(tmp_path):
    import compare

    record = {"workload": "dense-wide", "trace": 0, "correct": True, "failed": 0,
              "metrics": {"op_p50_ref": {"value": 1.0, "unit": "ref"}}}
    both = {"workloads": {"dense-wide": {"trace0": record},
                          "nadic-deep": {"trace0": {**record, "workload": "nadic-deep"}}}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(both))
    del both["workloads"]["nadic-deep"]
    new.write_text(json.dumps(both))
    assert compare.main([str(old), str(new)]) == 1
    record["metrics"] = {}
    new.write_text(json.dumps(record))
    assert compare.main([str(old), str(new)]) == 1


def test_run_all_keeps_a_failed_workload(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "WORKLOAD_NAMES", ("nadic-deep",))

    def fake_run(cmd, **kwargs):
        record = {"workload": "nadic-deep", "trace": 0, "correct": False, "failed": 1,
                  "metrics": {}}
        Path(cmd[cmd.index("--out") + 1]).write_text(json.dumps(record))
        return subprocess.CompletedProcess(cmd, 1, stdout="{}\n")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    out = tmp_path / "all.json"
    args = run.argparse.Namespace(seed=1, seconds=0, trace=0, smoke=True, out=str(out))
    assert run.run_all(args) == 1
    kept = json.loads(out.read_text())["workloads"]["nadic-deep"]["trace0"]
    assert kept["correct"] is False and kept["failed"] == 1


# -- wrong outputs count as failures ------------------------------------------------------

def test_wrong_pair_counts_as_failed(monkeypatch):
    real = charpair.generic_pair
    monkeypatch.setattr(charpair, "generic_pair", lambda *a, **k: real(*a, **k) + 1)
    record = run.run_workload("dense-wide", seed=1, seconds=0, trace=0, smoke=True)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] // 2  # every pair, no unpair


def test_refusal_that_terminates_counts_as_failed(monkeypatch):
    monkeypatch.setattr(charpair, "generic_pair", lambda *a, **k: 0)
    ops = [op for op in workloads.build("sparse-wide", 1, 1, Path("."), smoke=True)[0]
           if op.kind == "refuse"]
    assert len(ops) == 2
    assert all(op.check(op.call()) for op in ops)


def test_wrong_curve_row_counts_as_failed(monkeypatch):
    monkeypatch.setattr(cli, "_render_csv", lambda points: "n,x,y\n0,0,1\n")
    record = run.run_workload("curve-small", seed=1, seconds=0, trace=0, smoke=True)
    assert record["failed"] == record["attempted"]


# -- tracing survives a missing entry point ------------------------------------------------

def test_missing_entry_points_report_zero(monkeypatch):
    for attr in ("generic_pair", "generic_unpair", "_nat_to_bits", "_bits_to_nat"):
        monkeypatch.delattr(charpair, attr)
    monkeypatch.delattr(charpair.SeedSpec, "bits")
    monkeypatch.delattr(cli, "parse_family")
    record = run.run_workload("nadic-deep", seed=1, seconds=0, trace=1, smoke=True)
    assert record["correct"]
    m = {k: v["value"] for k, v in record["metrics"].items()}
    assert m["charpair.positions"] == 0 and m["charpair.bits.converted"] == 0
    assert m["nadic.decons.valuation"] > 0
    assert not hasattr(charpair, "_nat_to_bits")  # uninstall put nothing back


# -- frozen counts ------------------------------------------------------------------------
# Guide positions pulled per call (the fuel spent) and the valuation decons
# returns. ROADMAP requires fast paths to spend fuel exactly as the generic
# construction does, so these counts must not change.

POSITIONS = {  # spec: [(x, y, pair positions, unpair positions)]
    "morton": [(0, 0, 2, 3), (5, 3, 5, 7), (1000, 77, 19, 21), (2**40 + 1, 12345, 81, 83)],
    "arith-set:2": [(0, 0, 2, 3), (5, 3, 5, 7), (1000, 77, 19, 21), (2**40 + 1, 12345, 81, 83)],
    "arith-set:3": [(0, 0, 2, 4), (5, 3, 7, 10), (1000, 77, 28, 31), (2**40 + 1, 12345, 121, 124)],
    "bits-of-naturals": [(0, 0, 2, 3), (5, 3, 5, 7), (1000, 77, 19, 22), (2**40 + 1, 12345, 73, 75)],
    "squares": [(0, 0, 3, 3), (5, 3, 5, 10), (1000, 77, 82, 101), (2**40 + 1, 12345, 1601, 1682)],
    "syracuse": [(0, 0, 2, 4), (5, 3, 5, 11), (1000, 77, 61, 63), (2**40 + 1, 12345, 867, 930)],
    "powers2": [(0, 0, 2, 4), (5, 3, 5, 9), (200, 100, 129, 257), (1000, 77, 513, 1025)],
}
VALUATIONS = [(0, 0), (5, 9), (100, 2**64 - 1), (1000, 1)]  # (x, y); decons returns x


def _traced(calls):
    """Per call: the units each span name recorded while it ran."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, call in enumerate(calls):
            tracer.begin(i, "golden")
            call()
            tracer.end()
    finally:
        tracer.uninstall()
    per_op = [{} for _ in calls]
    for (op, name, _), rec in tracer.records.items():
        per_op[op][name] = per_op[op].get(name, 0) + rec[spans.UNITS]
    return per_op


@pytest.mark.parametrize("spec", PRESETS)
def test_golden_positions(spec):
    fam = workloads._preset(spec)
    calls = []
    for x, y, _, _ in POSITIONS[spec]:
        n = oracles.pair(spec, x, y)[0]
        calls += [lambda x=x, y=y: fam.pair(x, y), lambda n=n: fam.unpair(n)]
    got = [c.get("charpair.place", 0) for c in _traced(calls)]
    assert got == [p for _, _, pp, pu in POSITIONS[spec] for p in (pp, pu)]
    assert got[0::2] == [oracles.pair(spec, x, y)[1] for x, y, _, _ in POSITIONS[spec]]


@pytest.mark.parametrize("b", [2, 3, 7])
def test_golden_decons_valuation(b):
    calls = [lambda x=x, y=y: nadic.unpair(b, oracles.nadic_pair(b, x, y)) for x, y in VALUATIONS]
    assert [c["nadic.decons"] for c in _traced(calls)] == [x for x, _ in VALUATIONS]


def test_refusals_spend_exactly_the_budget():
    seeds = workloads._refusal_seeds()
    assert set(seeds) == {"arith-set:1", "cycle-0"}
    counts = _traced([lambda s=s: workloads.refuse(s, 5, 3) for s in seeds.values()])
    assert [c["charpair.place"] for c in counts] == [workloads.REFUSAL_FUEL + 1] * 2
    zero = charpair.SeedSpec(encoders.BINS, streams.cycle([0]), "z")
    assert workloads.refuse(zero, 1, 1) == workloads.REFUSAL_FUEL + 1
