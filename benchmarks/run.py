"""pairbij benchmark: end-to-end and per-layer timings of the library and CLI.

Run from the repository root:

    python3 benchmarks/run.py --workload dense-wide --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seconds 20 --trace 1 --out benchmarks/out/all.json

One workload per process, one thread, closed loop. `--trace 0` times the
untouched library and prints the end-to-end metrics; `--trace 1` runs an
untraced half and a traced half (layer entry points wrapped, see spans.py)
and prints the per-layer metrics. Every output is checked against an
oracle; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every output was correct.
"""

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("dense-wide", "sparse-wide", "nadic-deep", "curve-small")
# Rounds of distinct inputs drawn per seed; the loop cycles through them and
# stops only after a whole pass, so traced counts per operation are exact.
POOL_ROUNDS = 4
# Set-up probes per run, spread over the gaps between this many loop segments.
SETUP_PROBES = 10
SEGMENTS = 4
TAIL_BEYOND = 10

# Runs of each gauge loop timed after every round of operations.
REF_REPS = 3

END_TO_END_UNITS = {
    "ops_per_kref": "1/kref",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Reported beside the bounded metrics, in raw time.
RAW_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "pair_p50_us": "us",
    "unpair_p50_us": "us",
    "refuse_p50_us": "us",
    "ref_p50_us": "us",
    "division_ref_p50_us": "us",
    "setup_raw_s": "s",
}
PER_LAYER_UNITS = {
    "charpair.place.self_ref": "ref",
    "charpair.positions": "count",
    "charpair.payload_ratio": "bit/position",
    "charpair.bits.self_ref": "ref",
    "charpair.bits.converted": "bit",
    "encoders.guide.self_ref": "ref",
    "encoders.guide.mref_per_position": "mref",
    "streams.mref_per_pull": "mref",
    "nadic.decons.calls": "count",
    "nadic.decons.self_ref": "ref",
    "nadic.decons.valuation": "count",
    "nadic.cons.self_ref": "ref",
    "cli.parse_ref": "ref",
    "cli.unpair_ref": "ref",
    "cli.render_ref": "ref",
    "trace.overhead": "ratio",
}


def geomean(xs):
    return math.exp(statistics.fmean(math.log(x) for x in xs))


# -- measuring ----------------------------------------------------------------------

def run_loop(pool, seconds, tracer=None):
    """Closed loop over whole passes of the pool until `seconds` have gone by.

    Returns per-cell latencies in ns, the same latencies each over the
    median of its cell's gauge loop run right after its round, one Op of
    each cell, failure messages, the operation count, and each gauge's loop
    times in ns. Every loop in gauge.GAUGES that a cell of the pool names
    runs REF_REPS times after each round, and the interpreter loop always.
    """
    lat, norm, cells, failures, ref = {}, {}, {}, [], {}
    gauges = {"interp"} | {op.gauge for ops_of_round in pool for op in ops_of_round}
    clock = time.perf_counter_ns
    ops = 0
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        for ops_of_round in pool:
            done = []
            for op in ops_of_round:
                out = None  # free the previous result outside the timed call
                if tracer:
                    tracer.begin(ops, op.cell)
                t0 = clock()
                try:
                    out = op.call()
                except Exception as e:  # a failed operation, counted below
                    out = e
                t1 = clock()
                if tracer:
                    tracer.end()
                lat.setdefault(op.cell, []).append(t1 - t0)
                done.append((op, t1 - t0))
                cells[op.cell] = op
                err = op.check(out)
                if err:
                    failures.append(f"{op.cell}: {err}")
                ops += 1
            medians = {}
            for g in gauges:
                refs = []
                for _ in range(REF_REPS):
                    t0 = clock()
                    gauge.GAUGES[g]()
                    refs.append(clock() - t0)
                ref.setdefault(g, []).extend(refs)
                medians[g] = statistics.median(refs)
            for op, ns in done:
                norm.setdefault(op.cell, []).append(ns / medians[op.gauge])
        if time.perf_counter() >= deadline:
            return lat, norm, cells, failures, ops, ref


def merge_loops(parts):
    """Combine the results of several run_loop calls as if they were one."""
    lat, norm, cells, failures, ops, ref = {}, {}, {}, [], 0, {}
    for lat_i, norm_i, cells_i, failures_i, ops_i, ref_i in parts:
        for merged, part in ((lat, lat_i), (norm, norm_i), (ref, ref_i)):
            for key, v in part.items():
                merged.setdefault(key, []).extend(v)
        cells.update(cells_i)
        failures += failures_i
        ops += ops_i
    return lat, norm, cells, failures, ops, ref


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100 * (k + 1) / len(xs)


def at_percentile(samples, pct):
    xs = sorted(samples)
    return xs[max(math.ceil(pct / 100 * len(xs)) - 1, 0)]


def latency_summary(lat, norm, cells, ref):
    """End-to-end latency figures of one untraced loop.

    A cell is one input class (family, width, direction). Each statistic is
    taken per cell and the cells are combined by geometric mean, so every
    cell weighs the same. The bounded figures are in units of `ref`, the
    time of the cell's gauge loop (see gauge.py for why). Throughput and the
    median take each call's time over the gauge run right after its round,
    so the host's drift cancels while a slow minority of calls still counts
    in the throughput. The tail is over the gauge at the same percentile in
    the same run. Raw microseconds are reported beside them.
    """
    n = sum(map(len, lat.values()))
    med = {cell: statistics.median(v) for cell, v in lat.items()}
    tails = {cell: tail(v) for cell, v in lat.items()}
    ref_med = {g: statistics.median(v) for g, v in ref.items()}
    busy = sum(map(sum, lat.values()))  # ns spent in the timed calls
    out = {
        "ops_per_kref": 1000 * n / sum(map(sum, norm.values())),
        "op_p50_ref": geomean(statistics.median(v) for v in norm.values()),
        "op_tail_ref": geomean(t / at_percentile(ref[cells[cell].gauge], p)
                               for cell, (t, p) in tails.items()),
        "ops_per_s": n / busy * 1e9,
        "op_p50_us": geomean(med.values()) / 1e3,
        "op_tail_us": geomean(t for t, _ in tails.values()) / 1e3,
        "ref_p50_us": ref_med["interp"] / 1e3,
        "tail_percentiles": [min(p for _, p in tails.values()), max(p for _, p in tails.values())],
        "samples_per_cell": [min(map(len, lat.values())), max(map(len, lat.values()))],
    }
    if "division" in ref_med:
        out["division_ref_p50_us"] = ref_med["division"] / 1e3
    for kind in ("pair", "unpair", "refuse"):
        kind_med = [m for cell, m in med.items() if cells[cell].kind == kind]
        if kind_med:
            out[f"{kind}_p50_us"] = geomean(kind_med) / 1e3
    out["cell_p50_us"] = {cell: m / 1e3 for cell, m in sorted(med.items())}
    return out


def setup_times(workload, count):
    """(set-up seconds, reference-loop seconds) from each of `count` fresh processes.

    Set-up is importing pairbij and the workload module and building every
    family or seed the workload uses. The reference loop then runs 7 times in
    the same process and its median is returned beside it.
    """
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload!r}].setup()\n"
        "t1 = time.perf_counter()\n"
        "import gauge, statistics\n"
        "refs = []\n"
        "for _ in range(7):\n"
        "    r0 = time.perf_counter()\n"
        "    gauge.reference_loop()\n"
        "    refs.append(time.perf_counter() - r0)\n"
        "print(t1 - t0, statistics.median(refs))\n"
    )
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        setup, ref = map(float, proc.stdout.split())
        times.append((setup, ref))
    return times


def layer_metrics(tracer, ops, untraced, traced, refusal_ticks):
    """Per-layer figures per operation of the traced loop (zero for a layer never entered).

    Times are in units of the reference loop's median in the same half of the
    run, like the end-to-end figures; multiply by `ref_p50_us` for microseconds.
    """
    t = tracer.totals()

    def get(name, field):
        return t.get(name, [0, 0, 0, 0])[field]

    calls, busy, self_, units = range(4)
    ref_ns = traced["ref_p50_us"] * 1e3
    per_op = lambda ns: ns / ops / ref_ns  # noqa: E731
    positions = get("charpair.place", units)
    guide_pulls = get("encoders.guide", units)
    # A refusal's time is all fuel-metered pulls, so it is timed untraced.
    refusals = [m / untraced["ref_p50_us"] for cell, m in untraced["cell_p50_us"].items()
                if cell.startswith("refuse/")]
    return {
        "charpair.place.self_ref": per_op(get("charpair.place", self_)),
        "charpair.positions": positions / ops,
        "charpair.payload_ratio": tracer.extra.get("charpair.place", 0) / positions if positions else 0.0,
        "charpair.bits.self_ref": per_op(get("charpair.bits", self_)),
        "charpair.bits.converted": get("charpair.bits", units) / ops,
        "encoders.guide.self_ref": per_op(get("encoders.guide", self_)),
        "encoders.guide.mref_per_position":
            1e3 * get("encoders.guide", busy) / guide_pulls / ref_ns if guide_pulls else 0.0,
        "streams.mref_per_pull": 1e3 * geomean(refusals) / refusal_ticks if refusals else 0.0,
        "nadic.decons.calls": get("nadic.decons", calls) / ops,
        "nadic.decons.self_ref": per_op(get("nadic.decons", self_)),
        "nadic.decons.valuation": get("nadic.decons", units) / ops,
        "nadic.cons.self_ref": per_op(get("nadic.cons", self_)),
        "cli.parse_ref": per_op(get("cli.parse", busy)),
        "cli.unpair_ref": per_op(get("cli.unpair", busy)),
        "cli.render_ref": per_op(get("cli.render", busy)),
        "trace.overhead": traced["ops_per_kref"] / untraced["ops_per_kref"],
    }


def run_workload(name, seed, seconds, trace, smoke=False):
    """Measure one workload in this process; returns the result record."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        pool = workloads.build(name, seed, 1 if smoke else POOL_ROUNDS, workdir, smoke)
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
        if not trace:
            # Set-up probes run between segments of the timed loop, so they
            # see the same host conditions as the operations. One probe first
            # warms the file cache and is not counted.
            setup_times(name, 1)
            setups, parts = [], []
            for _ in range(SEGMENTS):
                setups += setup_times(name, SETUP_PROBES // (SEGMENTS + 1))
                parts.append(run_loop(pool, 0 if smoke else seconds / SEGMENTS))
            setups += setup_times(name, SETUP_PROBES - len(setups))
            lat, norm, cells, failures, ops, ref = merge_loops(parts)
            summary = latency_summary(lat, norm, cells, ref)
            summary["setup_s"] = statistics.median(t / r for t, r in setups) * gauge.NOMINAL_REF_S
            summary["setup_raw_s"] = statistics.median(t for t, _ in setups)
            summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {m: summary[m] for m in END_TO_END_UNITS}
            units = END_TO_END_UNITS
            record["detail"] = {k: v for k, v in summary.items() if k not in metrics}
        else:
            import spans

            half = 0 if smoke else seconds / 2
            lat, norm, cells, failures, ops, ref = run_loop(pool, half)
            tracer = spans.Tracer()
            tracer.install()
            try:
                lat_t, norm_t, _, failures_t, ops_t, ref_t = run_loop(pool, half, tracer)
            finally:
                tracer.uninstall()
            traced = latency_summary(lat_t, norm_t, cells, ref_t)
            metrics = layer_metrics(tracer, ops_t, latency_summary(lat, norm, cells, ref), traced,
                                    workloads.REFUSAL_FUEL + 1)
            units = PER_LAYER_UNITS
            trace_file = OUT / f"trace-{name}-{seed}.jsonl"
            tracer.write(trace_file)
            record["detail"] = {"trace_file": str(trace_file.relative_to(ROOT)),
                                "traced_ops": ops_t, "untraced_ops": ops,
                                "ref_p50_us": traced["ref_p50_us"]}
            failures += failures_t
            ops += ops_t
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(
        correct=not failures, attempted=ops, failed=len(failures),
        metrics={m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    )
    record["detail"]["fail_rate"] = len(failures) / ops
    record["detail"]["failures"] = failures[:20]
    return record


# -- reporting ----------------------------------------------------------------------

def print_record(r):
    d = r["detail"]
    print(f"== {r['workload']} seed={r['seed']} trace={r['trace']}: "
          f"{r['attempted']} ops, {r['failed']} failed (fail_rate {d['fail_rate']:.6g})")
    for m, v in r["metrics"].items():
        print(f"  {m:34s} {v['value']:14.6g} {v['unit']}")
    if "tail_percentiles" in d:
        (plo, phi), (nlo, nhi) = d["tail_percentiles"], d["samples_per_cell"]
        print(f"  (per cell: {nlo}-{nhi} samples; the tail is p{plo:.1f}-p{phi:.1f},"
              f" the highest with {TAIL_BEYOND} samples beyond)")
        print(f"  raw, unbounded (the host's speed drifts; ref_p50_us is the reference loop):")
        for m, unit in RAW_UNITS.items():
            if m in d:
                print(f"  {m:34s} {d[m]:14.6g} {unit}")
    for f in d["failures"]:
        print(f"  FAILED {f}", file=sys.stderr)


def run_all(args):
    """Every workload, each in a fresh process; writes one combined results file."""
    OUT.mkdir(exist_ok=True)
    combined = {"python": sys.version.split()[0], "seed": args.seed, "seconds": args.seconds,
                "workloads": {}}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in sorted({0, args.trace}):
            part = OUT / f"part-{name}-{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit code {proc.returncode}", file=sys.stderr)
                ok = False
            # A record whose output checks failed is kept too, so compare.py sees it.
            if part.exists():
                combined["workloads"].setdefault(name, {})[f"trace{trace}"] = json.loads(part.read_text())
                part.unlink()
    out = Path(args.out) if args.out else OUT / "results.json"
    out.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"results written to {out}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full result record as JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="one round of the smallest inputs and no time window (for tests)")
    args = p.parse_args(argv)

    if not (SRC / "pairbij" / "__init__.py").is_file():
        print(f"error: pairbij sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
