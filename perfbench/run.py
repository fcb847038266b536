#!/usr/bin/env python3
"""Host-time benchmark of the racetrack-memory simulator.

Run from the repository root:

  python3 perfbench/run.py --workload fig16 --seed 3 --seconds 20 --trace 0
      Build the harness (first run only), run one workload and print its
      metrics; --seconds defaults to run_seconds of BENCHMARK.json; the last line is one JSON object with the keys correct,
      attempted, failed and metrics. --trace 0 gives the end-to-end metrics,
      --trace 1 the per-layer ledger. Without --seed the workload runs at
      its pinned seeds. --record FILE appends the full record as a JSON line.

  python3 perfbench/run.py series --runs 10 [--workload W ...] [--trace 0|1]
                           [--seconds S] [--record FILE]
      Run every (or the named) workload --runs times with seeds 1..N and
      print the median and quartiles of every metric by name and unit.

  python3 perfbench/run.py compare BASE.jsonl NEW.jsonl
      Compare two record files (e.g. of a parent and a child commit): per
      workload the count of incorrect runs and failed cells on each side;
      per metric the median and quartiles of each side, a verdict per
      end-to-end metric from at least ten runs paired by seed, and
      per-layer deltas. A new side with an incorrect run or more failed
      cells than the base is rejected on every metric.

Every workload is defined in perfbench/workloads.json with its reason, the
digest of its result at the pinned seeds and its cell count. Each run first
repeats the pinned run and checks that digest, so a change that alters any
simulated result fails the benchmark. The timed runs use the workload seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "perfbench_harness"
HARNESS_TIMEOUT_S = 170

NOTE = ("note: at the checked-in warmups the modelled caches start mostly "
        "empty (see mem.cache.l3_warm_fill in the traced run); the digest "
        "pins the current model and there is no hardware reference, so no "
        "workload makes an accuracy claim")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; logs go to the build dir."""
    if not (ROOT / "src" / "sim" / "experiment.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log_path.read_text(encoding="utf-8")[-4000:])
                fail("build failed")


def commit():
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return os.environ.get("PERFBENCH_COMMIT", "unknown")


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def run_harness(workload, defn, workers, seed, seconds, trace):
    out_dir = ROOT / ".bench_build" / "out" / workload
    cmd = [str(HARNESS), "--spec", str(BENCH / defn["spec"]),
           "--workers", str(workers), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(out_dir)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness exceeded {HARNESS_TIMEOUT_S} s", 1)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail(f"{workload}: harness exited with {r.returncode}", 1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def digest_failures(raw, defn, seed):
    """Runs whose digest is off: the pinned run against its pin, and every
    run at the workload seed against the first such run."""
    msgs = []
    pinned = raw["pinned"]
    if pinned["digest"] != defn["digest"] or pinned["cells"] != defn["cells"]:
        msgs.append(f"pinned run: digest {pinned['digest']} cells "
                    f"{pinned['cells']}, pinned {defn['digest']} cells "
                    f"{defn['cells']}")
    runs = raw.get("reps") or [raw["untraced"], raw["untraced_1w"]]
    want = pinned["digest"] if seed is None else runs[0]["digest"]
    for i, rep in enumerate(runs):
        if rep["digest"] != want:
            msgs.append(f"run {i}: digest {rep['digest']}, expected {want}")
    return msgs, [pinned] + runs


def end_to_end(raw):
    reps = raw["reps"]
    events = raw["events"]
    return {
        "wall_s": median([r["wall_s"] for r in reps]),
        "events_per_s": median([events / r["wall_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw, workers):
    led = raw["ledger"]
    untraced = raw["untraced"]
    m = {k: float(v) for k, v in led.items()
         if k not in ("blocks_s", "traced_s")}
    cell_ms = untraced["cell_ms"]
    m["sim.cell_ms_p50"] = median(cell_ms)
    m["sim.cell_ms_max"] = max(cell_ms)
    m["sim.parallel_eff"] = untraced["cpu_s"] / (untraced["wall_s"] * workers)
    m["sim.emit_ms"] = raw["emit_ms"]
    journal_s = raw["journal_append_s"]
    m["util.journal_append_us"] = 1e6 * journal_s / max(1, raw["journal_records"])
    # Shares of the traced total: the blocks the untraced run also does,
    # plus the result emit and the journal appends.
    blocks = dict(led["blocks_s"])
    blocks["sim"] = raw["emit_ms"] / 1e3
    blocks["util"] = journal_s
    total = led["traced_s"] + blocks["sim"] + blocks["util"]
    for name, seconds in blocks.items():
        m["share." + name] = seconds / total
    m["unattributed_share"] = 1.0 - sum(blocks.values()) / total
    m["trace_overhead"] = total / raw["untraced_1w"]["wall_s"]
    return m


def run_once(workload, seed, seconds, trace):
    registry = load_json(BENCH / "workloads.json")
    defn = registry["workloads"].get(workload)
    if defn is None:
        fail(f"unknown workload '{workload}' "
             f"(one of {', '.join(registry['workloads'])})")
    workers = registry["workers"]
    build()
    raw = run_harness(workload, defn, workers, seed, seconds, trace)
    msgs, runs = digest_failures(raw, defn, seed)
    for msg in msgs:
        print(f"perfbench: {workload}: {msg}", file=sys.stderr)
    attempted = sum(r["cells"] for r in runs)
    failed = sum(r["failed_cells"] for r in runs) + len(msgs)
    correct = failed == 0 and all(r["complete"] for r in runs)
    values = per_layer(raw, workers) if trace else end_to_end(raw)
    listed = load_json(ROOT / "BENCHMARK.json")[
        "per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail(f"{workload}: no value for {', '.join(missing)}", 1)
    machine = dict(raw["machine"], commit=commit())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "machine": machine,
        "first_run_s": raw["pinned"]["wall_s"],
        "timed_runs": len(raw.get("reps", [])),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def print_record(rec):
    m = rec["machine"]
    print(f"perfbench {rec['workload']} seed={rec['seed']} "
          f"trace={rec['trace']} workers={m['workers']} nproc={m['nproc']} "
          f"cpu='{m['cpu_model']}' {m['compiler']} {m['build_type']} "
          f"commit={m['commit']}")
    if not rec["trace"]:
        print(f"  {rec['timed_runs']} timed runs; first (pinned, warm-up) "
              f"run {rec['first_run_s']:.3f} s, not timed")
    for name, mv in rec["metrics"].items():
        print(f"  {name:<36} {mv['value']:.6g} {mv['unit']}")
    print(f"  cell_fail_frac {rec['failed'] / rec['attempted']:.6g} "
          f"({rec['failed']} of {rec['attempted']} cells)")


def append_record(path, rec):
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(rec) + "\n")


def summarize(records):
    """{(workload, trace): {metric: ([values], unit)}} in record order."""
    out = {}
    for rec in records:
        key = (rec["workload"], rec["trace"])
        for name, mv in rec["metrics"].items():
            out.setdefault(key, {}).setdefault(name, ([], mv["unit"]))[0] \
                .append(mv["value"])
    return out


def bounds():
    spec = load_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m for m in spec["end_to_end"]}


def print_series(records):
    bound = bounds()
    for (workload, trace), metrics in summarize(records).items():
        print(f"{workload} (trace={trace}, {len(next(iter(metrics.values()))[0])}"
              f" runs): median [q1, q3], spread = (q3-q1)/median")
        for name, (vals, unit) in metrics.items():
            q1, q3 = quartiles(vals)
            b = bound.get(name)
            tail = f" bound {b['bound']}" if b and not trace else ""
            print(f"  {name:<36} {median(vals):.6g} {unit} [{q1:.6g}, "
                  f"{q3:.6g}] spread {spread(vals):.3%}{tail}")


def spread(xs):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q3 = quartiles(xs)
    med = median(xs)
    return (q3 - q1) / med if med else 0.0


MIN_PAIRS = 10


def paired(base, new, name):
    """(base, new) values of one metric, paired by seed; the i-th run of a
    seed on one side pairs with the i-th run of that seed on the other."""
    def by_seed(records):
        out = {}
        for rec in records:
            out.setdefault(rec["seed"], []).append(
                rec["metrics"][name]["value"])
        return out
    b, n = by_seed(base), by_seed(new)
    return [pair for seed in b if seed in n for pair in zip(b[seed], n[seed])]


def verdict(base, new, name, better, bound):
    """Verdict on one end-to-end metric by the rule of choosing-metrics §8:
    improved when the new side wins 9 of at least 10 seed-paired runs and
    the medians differ by more than the base's quartile distance; worse
    when the new median is worse by more than the bound; unresolved when
    the runs do not pair up, or the spread exceeds the bound and the new
    runs do not all beat the base runs; otherwise within bound."""
    pairs = paired(base, new, name)
    if len(pairs) < MIN_PAIRS or not len(base) == len(new) == len(pairs):
        return f"unresolved (needs {MIN_PAIRS}+ runs a side, paired by seed)"
    bv, nv = [b for b, _ in pairs], [n for _, n in pairs]
    sign = -1.0 if better == "lower" else 1.0
    mb, mn = median(bv), median(nv)
    q1, q3 = quartiles(bv)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (wins >= 0.9 * len(pairs) and sign * (mn - mb) > 0
            and abs(mn - mb) > q3 - q1):
        return "improved"
    if mb and -sign * (mn - mb) / mb > bound:
        return "worse"
    all_better = all(sign * (n - b) > 0 for n in nv for b in bv)
    if max(spread(bv), spread(nv)) > bound and not all_better:
        return "unresolved"
    return "within bound"


def failures(records):
    """Records that are not correct, and the failed cells over all."""
    return (sum(1 for r in records if not r["correct"]),
            sum(r["failed"] for r in records))


def compare(base_path, new_path):
    def read(path):
        out = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    out.setdefault((rec["workload"], rec["trace"]),
                                   []).append(rec)
        return out
    base, new = read(base_path), read(new_path)
    bound = bounds()
    for key, brecs in base.items():
        nrecs = new.get(key)
        if not nrecs:
            continue
        workload, trace = key
        (b_bad, b_failed), (n_bad, n_failed) = failures(brecs), failures(nrecs)
        # A change whose simulated results differ, or that fails more
        # cells, is rejected however fast it runs.
        rejected = n_bad > 0 or n_failed > b_failed
        print(f"{workload} (trace={trace}): base {len(brecs)} runs, "
              f"{b_bad} incorrect, {b_failed} failed cells -> new "
              f"{len(nrecs)} runs, {n_bad} incorrect, {n_failed} failed "
              f"cells; median [q1, q3]")
        bvals, nvals = summarize(brecs)[key], summarize(nrecs)[key]
        for name, (bv, unit) in bvals.items():
            if name not in nvals:
                continue
            nv = nvals[name][0]
            mb, mn = median(bv), median(nv)
            bq, nq = quartiles(bv), quartiles(nv)
            delta = (mn - mb) / mb if mb else 0.0
            line = (f"  {name:<36} {mb:.6g} [{bq[0]:.6g}, {bq[1]:.6g}] -> "
                    f"{mn:.6g} [{nq[0]:.6g}, {nq[1]:.6g}] {unit} "
                    f"({delta:+.2%} of base)")
            b = bound.get(name)
            if b and not trace:
                line += "  " + ("rejected (incorrect results)" if rejected
                                else verdict(brecs, nrecs, name, b["better"],
                                             b["bound"]))
            print(line)


def parse_args(argv):
    seconds = load_json(ROOT / "BENCHMARK.json")["run_seconds"]

    def common(p, trace_default):
        p.add_argument("--seconds", type=int, default=seconds,
                       help="seconds one run measures (default: run_seconds "
                            "of BENCHMARK.json)")
        p.add_argument("--trace", type=int, choices=[0, 1],
                       default=trace_default)
        p.add_argument("--record", metavar="FILE",
                       help="append the full record as a JSON line")

    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base", metavar="BASE.jsonl")
        p.add_argument("new", metavar="NEW.jsonl")
        args = p.parse_args(argv[1:])
        args.mode = "compare"
    elif argv[:1] == ["series"]:
        p = argparse.ArgumentParser(prog="run.py series")
        p.add_argument("--runs", type=int, default=1)
        p.add_argument("--workload", action="append",
                       help="repeat to name several (default: all)")
        common(p, 0)
        args = p.parse_args(argv[1:])
        args.mode = "series"
    else:
        p = argparse.ArgumentParser(
            prog="run.py", epilog="subcommands: series, compare (see the "
                                  "module docstring)")
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int,
                       help="workload seed (default: the pinned seeds)")
        common(p, 0)
        args = p.parse_args(argv)
        args.mode = "run"
    if args.mode != "compare" and args.seconds < 1:
        p.error("--seconds wants a whole number >= 1")
    if args.mode == "series" and args.runs < 1:
        p.error("--runs wants a whole number >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    if args.mode == "compare":
        compare(args.base, args.new)
        return 0
    if args.mode == "series":
        registry = load_json(BENCH / "workloads.json")
        records = []
        ok = True
        for name in args.workload or list(registry["workloads"]):
            for seed in range(1, args.runs + 1):
                rec = run_once(name, seed, args.seconds, args.trace)
                ok &= rec["correct"]
                records.append(rec)
                if args.record:
                    append_record(args.record, rec)
        print_series(records)
        print(NOTE)
        return 0 if ok else 1

    rec = run_once(args.workload, args.seed, args.seconds, args.trace)
    if args.record:
        append_record(args.record, rec)
    print_record(rec)
    print(NOTE)
    print(json.dumps({k: rec[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
