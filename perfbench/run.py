#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run one workload (builds the benchmark package first, then prints its
table and, as the last line, one JSON result):

    python3 perfbench/run.py --workload tl3-count --seed 1 --seconds 15 --trace 0

Helpers for people working on the benchmark or on a performance change:

    python3 perfbench/run.py sweep --out DIR [--workloads a,b] [--seeds 1-10]
                                   [--trace 0|1] [--seconds S]
        runs every workload x seed and appends result lines to
        DIR/<workload>.jsonl
    python3 perfbench/run.py spread DIR
        per workload x metric: median, quartiles and (Q3-Q1)/median,
        checked against each end-to-end metric's bound
    python3 perfbench/run.py compare OLD_DIR NEW_DIR
        per workload x metric: both sides' median and quartiles, the
        change, and for per-layer metrics whether it is "more work" (a
        work counter moved) or "slower work" (only time moved)

Run everything from the root of a checkout. The build goes to
$CARGO_TARGET_DIR (default .bench_build); stores and sockets live under
.bench_work and are removed when a run ends.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(BENCH_DIR, "Cargo.toml")
REFERENCE = os.path.join(BENCH_DIR, "reference")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", MANIFEST],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    exe = os.path.join(target_dir(), "release", "perple-perfbench")
    return exe if os.path.isfile(exe) else None


def bench_config():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_one(exe, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(".bench_work", str(os.getpid()))
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", work, "--reference", REFERENCE, *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        code, out = 124, ""
        print(f"run.py: {workload} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    return code, out.splitlines()


def result_of(lines):
    """The JSON result on the last line, or None."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return res if isinstance(res, dict) and set(res) == keys else None


def main_run(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": None, "--trace": "0"}
    extra = []
    it = iter(argv)
    for flag in it:
        if flag == "--bless":
            extra.append(flag)
        elif flag in opts:
            opts[flag] = next(it, None)
        else:
            print(f"run.py: unknown flag {flag!r}", file=sys.stderr)
            return 2
    if opts["--workload"] is None:
        print("run.py: --workload is required", file=sys.stderr)
        return 2
    exe = build()
    if exe is None:
        return 1
    if opts["--seconds"] is None:
        opts["--seconds"] = str(bench_config()["run_seconds"])
    code, lines = run_one(exe, opts["--workload"], opts["--seed"],
                          opts["--seconds"], opts["--trace"], extra)
    res = result_of(lines)
    if code != 0 or res is None:
        for line in lines:
            print(line, file=sys.stderr)
        print(f"run.py: benchmark exited with {code} and no result", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main_sweep(argv):
    cfg = bench_config()
    opts = {"--out": None, "--workloads": ",".join(w["name"] for w in cfg["workloads"]),
            "--seeds": "1-10", "--trace": "0", "--seconds": str(cfg["run_seconds"])}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            print(f"run.py sweep: unknown flag {flag!r}", file=sys.stderr)
            return 2
        opts[flag] = next(it, None)
    if not opts["--out"]:
        print("run.py sweep: --out is required", file=sys.stderr)
        return 2
    os.makedirs(opts["--out"], exist_ok=True)
    exe = build()
    if exe is None:
        return 1
    bad = 0
    for workload in opts["--workloads"].split(","):
        for seed in parse_seeds(opts["--seeds"]):
            code, lines = run_one(exe, workload, seed, opts["--seconds"], opts["--trace"])
            res = result_of(lines)
            ok = code == 0 and res is not None and res["correct"]
            bad += not ok
            print(f"{workload} seed {seed} trace {opts['--trace']}: "
                  f"{'ok' if ok else 'FAILED'}", file=sys.stderr)
            with open(os.path.join(opts["--out"], f"{workload}.jsonl"), "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": int(opts["--trace"]),
                                    "result": res}) + "\n")
    return 1 if bad else 0


def load(dirname):
    """({workload: {metric: [values]}}, {metric: unit}) from a sweep directory."""
    values, units = {}, {}
    for name in sorted(os.listdir(dirname)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(dirname, name)) as f:
            for line in f:
                row = json.loads(line)
                res = row.get("result")
                if not res or not res.get("correct"):
                    continue
                per = values.setdefault(row["workload"], {})
                for metric, m in res["metrics"].items():
                    per.setdefault(metric, []).append(m["value"])
                    units[metric] = m["unit"]
    return values, units


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def main_spread(argv):
    if len(argv) != 1:
        print("usage: run.py spread DIR", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in bench_config()["end_to_end"]}
    values, _ = load(argv[0])
    over = 0
    for workload, per in values.items():
        print(f"{workload}:")
        for metric, vals in sorted(per.items()):
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                if spread <= bound / 3:
                    verdict = "ok"
                elif spread <= bound:
                    verdict = "within bound, above a third of it"
                else:
                    verdict = "OVER BOUND"
                    over += 1
            print(f"  {metric:<28} n={len(vals):<3} median {med:<14.6g} "
                  f"IQR/median {spread:7.4f}  bound {bound if bound is not None else '-'}  {verdict}")
    return 1 if over else 0


def main_compare(argv):
    if len(argv) != 2:
        print("usage: run.py compare OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    e2e = {m["name"]: m for m in bench_config()["end_to_end"]}
    old, units = load(argv[0])
    new, units_new = load(argv[1])
    units.update(units_new)
    lines, regressions, matched = [], 0, 0
    for workload in sorted(set(old) & set(new)):
        o, n = old[workload], new[workload]
        metrics = sorted(set(o) & set(n))
        # A work counter that moved means the layers did more (or less)
        # work; a time that moved while every counter held is slower work.
        work_moved = any(units.get(m) == "count"
                         and statistics.median(o[m]) != statistics.median(n[m])
                         for m in metrics)
        for metric in metrics:
            matched += 1
            oq, nq = quartiles(o[metric]), quartiles(n[metric])
            delta = (nq[1] - oq[1]) / abs(oq[1]) if oq[1] else 0.0
            row = (f"{workload} {metric}: {oq[1]:.6g} [{oq[0]:.6g}, {oq[2]:.6g}] -> "
                   f"{nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {units.get(metric, '')} "
                   f"({delta:+.1%})")
            if metric in e2e:
                m = e2e[metric]
                worse = delta if m["better"] == "lower" else -delta
                if worse > m["bound"]:
                    regressions += 1
                    lines.append(f"  [timing] {row}: worse by more than the {m['bound']:.0%} bound")
                else:
                    lines.append(f"  {row}")
            elif nq[1] != oq[1]:
                kind = "more work" if work_moved or units.get(metric) == "count" else "slower work"
                lines.append(f"  (metrics) {row} ({kind})")
    print(f"compare {argv[0]} -> {argv[1]}: {matched} matched, {regressions} regression(s)")
    for line in lines:
        print(line)
    if not regressions:
        print("  ok: no regressions")
    return 1 if regressions else 0


def main():
    argv = sys.argv[1:]
    sub = {"sweep": main_sweep, "spread": main_spread, "compare": main_compare}
    if argv and argv[0] in sub:
        return sub[argv[0]](argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    sys.exit(main())
