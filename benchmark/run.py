#!/usr/bin/env python3
"""End-to-end benchmark of the sparseloop reproduction.

Builds benchmark/ (Release) into .bench_build/, runs each workload in
its own process, checks its outputs, prints every metric as
`workload metric value unit`, appends the runs to a results JSON, and
prints one JSON object as the last line of stdout.

  python3 benchmark/run.py                      # all workloads, seed 1
  python3 benchmark/run.py --workload search-dnn --seed 2
  python3 benchmark/run.py --trace 1            # per-layer metrics
  python3 benchmark/run.py --smoke              # every workload, <= 2 s
  python3 benchmark/run.py --seed 2 --out parent.json --append
  python3 benchmark/run.py --compare parent.json change.json \\
      --claim search-codesign:evals_per_s

A run times `run_seconds` from BENCHMARK.json (1 s with --smoke), so
both sides of a comparison measure the same length. benchmark/README.md
describes the workloads, the metrics and the comparison rule. Uses only
the Python standard library.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BUILD = REPO / ".bench_build"
SCHEMA = "sparseloop-benchmark-results/v1"
RUN_TIMEOUT_S = 175
MIN_PAIRS = 10
# A metric that reads the same on every parent run is deterministic for
# the seed, which --compare holds fixed on both sides. Its bound in
# BENCHMARK.json covers how it moves from seed to seed; here it gets
# this tighter one.
DETERMINISTIC_BOUND = 0.01


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads((REPO / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def build():
    """Configure (once) and build the benchmark; the build log goes to
    .bench_build/build.log so stdout stays machine-readable."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not (REPO / needed).exists():
            fail(f"{REPO / needed} is missing: the benchmark builds the "
                 "program from the repository's sources")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(REPO / "benchmark"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "sparseloop_bench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            try:
                code = subprocess.run(cmd, stdout=log, stderr=log,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail(f"build step failed ({exc}); see {log_path}")
            if code != 0:
                fail(f"build failed; see {log_path}")
    return BUILD / "sparseloop_bench"


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """One run in its own process group, so a timeout also stops the
    daemon that daemon-replay starts."""
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", str(work)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 1)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no result (exit {proc.returncode})", 1)
    result.update(workload=workload, seed=seed, seconds=seconds,
                  trace=bool(trace), smoke=smoke)
    return result


def print_run(run):
    w = run["workload"]
    for name, m in run["metrics"].items():
        extra = f" ops={run['ops']}" if name == "op_p90_ms" else ""
        print(f"{w} {name} {m['value']!r} {m['unit']}{extra}")
    if not run["trace"]:
        rate = run["failed"] / max(1, run["attempted"])
        print(f"{w} error_rate {rate!r} fraction "
              f"failed={run['failed']} attempted={run['attempted']}")
    for err in run.get("errors", []):
        print(f"{w} check-failure {err}", file=sys.stderr)


def host_info():
    compiler = "unknown"
    try:
        compiler = subprocess.run(["c++", "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "unknown"
    # Only in a git work tree of its own: git would otherwise search the
    # directories above the checkout for one.
    if (REPO / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(REPO), "rev-parse",
                                     "HEAD"], capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"nproc": os.cpu_count(), "compiler": compiler,
            "commit": commit, "machine": platform.machine()}


def save(path, runs, append):
    doc = {"schema": SCHEMA, "host": host_info(), "runs": []}
    if append and path.exists():
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            fail(f"{path} is not a results file")
    doc["runs"].extend(runs)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def final_line(runs):
    """The last stdout line: one run's result, or the runs combined with
    metrics named workload/metric."""
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in runs
                   for k, v in r["metrics"].items()}
    return json.dumps({"correct": all(r["correct"] for r in runs),
                       "attempted": sum(r["attempted"] for r in runs),
                       "failed": sum(r["failed"] for r in runs),
                       "metrics": metrics})


# --------------------------------------------------------------------
# Comparison (choosing-metrics guide, section 8)
# --------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_path, change_path, claims, spec):
    def measured(path):
        """The untraced, full-length runs of a results file, by workload."""
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            fail(f"cannot read {path}: {exc}")
        runs = {}
        for r in doc.get("runs", []):
            if not r.get("trace") and not r.get("smoke"):
                runs.setdefault(r["workload"], []).append(r)
        return runs

    parent, change = measured(parent_path), measured(change_path)
    if not parent or not change:
        fail("--compare: a results file holds no untraced full-length runs")
    for w in sorted(set(parent) | set(change)):
        settings = {(r["seed"], r["seconds"])
                    for r in parent.get(w, []) + change.get(w, [])}
        if len(settings) > 1:
            seen = ", ".join(f"seed {s}, {t} s" for s, t in sorted(settings))
            fail(f"--compare: the runs of {w} differ in seed or run length "
                 f"({seen})")
    metrics = spec["end_to_end"]
    claimed = set()
    for c in claims:
        w, _, m = c.partition(":")
        if w not in parent or m not in {x["name"] for x in metrics}:
            fail(f"--claim {c}: unknown workload or metric")
        claimed.add((w, m))

    verdicts = {}
    details = []
    bad = False
    for w in sorted(set(parent) | set(change)):
        pairs = list(zip(parent.get(w, []), change.get(w, [])))
        if len(pairs) < MIN_PAIRS:
            verdicts[w] = {m["name"]: f"too few pairs ({len(pairs)})"
                           for m in metrics}
            bad = True
            continue
        row = {}
        more_failures = (sum(c["failed"] for _, c in pairs) >
                         sum(p["failed"] for p, _ in pairs))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            pv = [p["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["metrics"][name]["value"] for _, c in pairs]
            if len(set(pv)) == 1:
                bound = min(bound, DETERMINISTIC_BOUND)
            p1, pmed, p3 = quartiles(pv)
            c1, cmed, c3 = quartiles(cv)
            wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) < 0)
            worse = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
            spread = (p3 - p1) / abs(pmed) if pmed else 0.0
            all_better = all(sign * (b - a) < 0 for a in pv for b in cv)
            if (w, name) in claimed:
                gain = (wins >= 0.9 * len(pairs) and
                        sign * (pmed - cmed) > (p3 - p1) and
                        not more_failures)
                verdict = "gain" if gain else "claim-not-met"
                bad |= not gain
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                bad = True
            else:
                verdict = "ok"
            row[name] = f"{verdict}({-100 * worse:+.1f}%)"
            details.append(
                f"{w:16s} {name:15s} parent {pmed:.6g} [{p1:.6g}, "
                f"{p3:.6g}]  change {cmed:.6g} [{c1:.6g}, {c3:.6g}]  "
                f"wins {wins}/{len(pairs)}  bound {bound:.0%}")
        if more_failures:
            row["failed"] = "MORE-FAILURES"
            bad = True
        verdicts[w] = row

    names = [m["name"] for m in metrics]
    print(f"{'workload':16s} " + " ".join(f"{n:>22s}" for n in names))
    for w, row in verdicts.items():
        print(f"{w:16s} " + " ".join(f"{row.get(n, '-'):>22s}"
                                     for n in names) +
              (f"  {row['failed']}" if "failed" in row else ""))
    print()
    print("\n".join(details))
    print("(+x% = change better than parent by x% of the parent median)")
    return 1 if bad else 0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(
        description="Build and run the sparseloop end-to-end benchmark.")
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, choices=[spec["run_seconds"]],
                    help="the timed phase; BENCHMARK.json fixes it, so "
                         "only its run_seconds is accepted")
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"],
                    help="traced run: per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs, same code paths and checks, "
                         "1 s timed")
    ap.add_argument("--out", type=Path, default=BUILD / "results.json",
                    help="results file (default .bench_build/results.json)")
    ap.add_argument("--append", action="store_true",
                    help="add the runs to --out instead of replacing it")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two results files and exit")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD:METRIC",
                    help="with --compare: a metric the change claims")
    args = ap.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare, args.claim, spec))

    seconds = 1 if args.smoke else spec["run_seconds"]
    binary = build()
    runs = []
    started = time.time()
    for workload in ([args.workload] if args.workload else names):
        run = run_workload(binary, workload, args.seed, seconds,
                           args.trace == "1", args.smoke)
        print_run(run)
        runs.append(run)
    print(f"# {len(runs)} run(s) in {time.time() - started:.1f} s; "
          f"results in {args.out}", file=sys.stderr)
    save(args.out, runs, args.append)
    print(final_line(runs))
    sys.exit(0 if all(r["correct"] for r in runs) else 1)


if __name__ == "__main__":
    main()
