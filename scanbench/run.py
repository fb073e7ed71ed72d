#!/usr/bin/env python3
"""Archive-scan benchmark of the STACK reproduction.

    python3 scanbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds the `stack` binary and the
benchmark's own harness (`scanbench/harness`) with cargo, then:

* makes the workload's archive from `--seed` with the program's corpus
  generator (the program itself only ever sees the files on disk);
* `--trace 0`: scans the archive with `stack scan --jobs 2` again and again,
  one process per scan, for `--seconds`, and reports the end-to-end metrics
  as medians over the scans;
* `--trace 1`: scans it once with `stack scan`, then drives the same files
  through each layer's entry points with the traced harness for `--seconds`
  and reports the per-layer metrics.

Workloads, their sizes and the layer -> (end-to-end metric, workload) map
are in `scanbench/workloads.json`. Every scan is checked: exit status,
failures, the number of distinct functions reported per file against the
generator's ground truth, a byte-identical report stream across the scans
of a run, and (traced) the same reported functions in both drivers. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS_MANIFEST = os.path.join("scanbench", "harness", "Cargo.toml")
WORK_ROOT = ".bench_work"
JOBS = "2"
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
# Fewest timed scans per run, however short `--seconds` is.
MIN_SCANS = 3

REPORT_RE = re.compile(r"^(?P<file>.+?):\d+: unstable code in `(?P<function>[^`]+)` \[[^\]]+\]$")
FAILURE_RE = re.compile(r"^stack: .+\.(?:mc|c): ")
SUMMARY_RE = {
    "files": re.compile(r"^\s+files\s+(\d+)\s+\((\d+) failed\)$"),
    "functions": re.compile(r"^\s+functions\s+(\d+)$"),
    "replayed": re.compile(r"^\s+replayed (\d+) unchanged functions"),
    "degraded": re.compile(r"^\s+degraded\s+(\d+) module"),
}


def log(message):
    print(f"scanbench: {message}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---- parsing ------------------------------------------------------------


def parse_scan_output(text):
    """Split `stack scan` stdout into its report stream and summary.

    Returns (reported, stream, summary): the distinct functions named in
    reports, per file name; the report stream's text; and the summary
    counters that are present.
    """
    marker = text.find("scan summary\n")
    stream = text if marker < 0 else text[:marker]
    reported = {}
    for line in stream.splitlines():
        m = REPORT_RE.match(line)
        if m:
            name = os.path.basename(m.group("file"))
            reported.setdefault(name, set()).add(m.group("function"))
    summary = {}
    if marker >= 0:
        for line in text[marker:].splitlines():
            for key, pattern in SUMMARY_RE.items():
                m = pattern.match(line)
                if m:
                    summary[key] = tuple(int(g) for g in m.groups())
    return reported, stream, summary


def count_failure_lines(stderr_text):
    return sum(1 for line in stderr_text.splitlines() if FAILURE_RE.match(line))


def verdict_errors(reported, injected):
    """Files whose number of distinct reported functions differs from the
    number of unstable functions the generator put in them (files the
    generator never wrote count too)."""
    names = set(injected) | set(reported)
    return sum(
        1 for name in names if len(reported.get(name, ())) != injected.get(name, -1)
    )


# ---- processes ----------------------------------------------------------


class BenchError(Exception):
    pass


def run_process(cmd, timeout, **kwargs):
    """Run `cmd` to completion. It gets a process group of its own, so a
    timeout stops it together with everything it started."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out after {timeout} s: {' '.join(cmd[:3])}")
    return proc.returncode, out, err


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "stack-cli", "--bin", "stack"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", HARNESS_MANIFEST],
    ):
        code, _, _ = run_process(cmd, 850, cwd=root, env=env, stdout=sys.stderr)
        if code != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "stack"), os.path.join(release, "scanbench")


def harness(binary, args, timeout):
    code, out, err = run_process([binary, *args], timeout, text=True,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if code != 0:
        raise BenchError(f"harness {args[0]} failed: {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def stack_scan(stack, bench, src, stores, out_dir):
    """One `stack scan` process over `src`, spawned and measured by the
    harness. Its stdout and stderr go to files, so the child never meets a
    closed pipe and every byte it writes is read back."""
    out = os.path.join(out_dir, "scan.stdout")
    err = os.path.join(out_dir, "scan.stderr")
    argv = [stack, "scan", src, "--jobs", JOBS,
            "--cache-file", stores[0], "--scan-cache", stores[1]]
    child = harness(bench, ["spawn", "--stdout", out, "--stderr", err, "--", *argv],
                    timeout=170)
    with open(out, encoding="utf-8") as f:
        stdout = f.read()
    with open(err, encoding="utf-8") as f:
        stderr = f.read()
    reported, stream, summary = parse_scan_output(stdout)
    return {
        "exit": child["exit"],
        "scan_s": child["seconds"],
        "peak_rss_mb": child["max_rss_kib"] / 1024.0,
        "store_bytes": sum(os.path.getsize(p) for p in stores if os.path.exists(p)),
        "reported": reported,
        "stream": hashlib.sha256(stream.encode()).hexdigest(),
        "summary": summary,
        "failure_lines": count_failure_lines(stderr),
        "stderr": stderr,
    }


def reset_stores(stores, primed):
    for path, source in zip(stores, primed or (None, None)):
        if source:
            shutil.copyfile(source, path)
        elif os.path.exists(path):
            os.remove(path)


# ---- checks -------------------------------------------------------------


def check_scan(scan, truth, workload):
    """Problems with one scan's output, as a list of strings."""
    problems = []
    summary = scan["summary"]
    # Without a summary the scan died: count every module as failed.
    files, failed = summary.get("files", (-1, truth["files"]))
    degraded = summary.get("degraded", (0,))[0]
    scan["attempted"] = truth["files"]
    scan["failed"] = min(failed + degraded, truth["files"])
    errors = verdict_errors(scan["reported"], truth["injected"])
    scan["verdict_errors"] = errors
    if scan["exit"] != 0:
        problems.append(f"exit status {scan['exit']}: {scan['stderr'][-400:]}")
    if files != truth["files"]:
        problems.append(f"scanned {files} files, archive has {truth['files']}")
    if summary.get("functions", (-1,))[0] != truth["functions"]:
        problems.append(f"summary functions {summary.get('functions')} != {truth['functions']}")
    if scan["failure_lines"] != failed:
        problems.append(f"{scan['failure_lines']} failure lines, summary says {failed}")
    if errors:
        problems.append(f"verdict_errors = {errors}")
    if workload["mode"] == "rescan":
        expected = truth["functions"] - truth["semantic_edits"]
        replayed = summary.get("replayed", (-1,))[0]
        if replayed != expected:
            problems.append(f"replayed {replayed} functions, expected {expected}")
    return problems


# ---- workloads ----------------------------------------------------------


def generate(bench, workload, seed, out, churn):
    archive = workload["archive"]
    args = ["gen", "--out", out, "--seed", str(seed),
            "--packages", str(archive["packages"]),
            "--functions-per-file", str(archive["functions_per_file"]),
            "--variants", str(archive["variants"])]
    if churn:
        args += ["--churn-pct", str(workload["churn_pct"])]
    return harness(bench, args, timeout=120)


def set_up(stack, bench, workload, seed, where):
    """Write the archive under `where`; for a re-scan workload also prime
    both stores with a cold scan and apply the edit. Returns the source
    directory, the primed store files (or None) and the ground truth."""
    src = os.path.join(where, "src")
    truth = generate(bench, workload, seed, src, churn=False)
    if workload["mode"] != "rescan":
        return src, None, truth
    primed = (os.path.join(where, "primed.qs"), os.path.join(where, "primed.ss"))
    scan = stack_scan(stack, bench, src, primed, where)
    problems = check_scan(scan, truth, {"mode": "cold"})
    if problems:
        raise BenchError("priming scan: " + "; ".join(problems))
    truth = generate(bench, workload, seed, src, churn=True)
    return src, primed, truth


def measure_end_to_end(stack, bench, workload, seed, seconds, work):
    setup_times = []
    for i in range(SETUP_REPEATS):
        where = os.path.join(work, f"setup{i}")
        start = time.perf_counter()
        src, primed, truth = set_up(stack, bench, workload, seed, where)
        setup_times.append(time.perf_counter() - start)

    stores = (os.path.join(work, "scan.qs"), os.path.join(work, "scan.ss"))
    scans, problems = [], []
    deadline = time.perf_counter() + seconds
    while len(scans) < MIN_SCANS or time.perf_counter() < deadline:
        reset_stores(stores, primed)
        scan = stack_scan(stack, bench, src, stores, work)
        problems += check_scan(scan, truth, workload)
        if scan["stream"] != (scans[0] if scans else scan)["stream"]:
            problems.append("report stream differs between scans of one archive")
        scans.append(scan)

    def med(key):
        return statistics.median(s[key] for s in scans)

    values = {
        "scan_s": med("scan_s"),
        "functions_per_s": statistics.median(truth["functions"] / s["scan_s"] for s in scans),
        # With two workers the peak varies from scan to scan with their
        # interleaving; the highest one is the memory a user must provision.
        "peak_rss_mb": max(s["peak_rss_mb"] for s in scans),
        "store_bytes": med("store_bytes"),
        "setup_s": statistics.median(setup_times),
    }
    log(f"{len(scans)} scans; setups {[round(t, 4) for t in setup_times]} s")
    return values, problems, scans


def measure_per_layer(stack, bench, workload, seed, seconds, work, layer_names):
    src, primed, truth = set_up(stack, bench, workload, seed, os.path.join(work, "setup"))
    stores = (os.path.join(work, "scan.qs"), os.path.join(work, "scan.ss"))
    reset_stores(stores, primed)
    scan = stack_scan(stack, bench, src, stores, work)
    problems = check_scan(scan, truth, workload)

    args = ["trace", "--dir", src, "--work", os.path.join(work, "trace"),
            "--seconds", str(seconds)]
    if primed:
        args += ["--primed-query", primed[0], "--primed-scan", primed[1]]
    traced = harness(bench, args, timeout=seconds + 150)
    if not traced["repeatable"]:
        problems.append("traced passes disagree on counters or reports")
    if not traced["coverage_ok"]:
        problems.append(f"layer spans cover only {traced['metrics']['trace.coverage_frac']:.3f}")
    reported = {f: set(fns) for f, fns in traced["reported"].items()}
    if reported != scan["reported"]:
        problems.append("traced driver reports other functions than stack scan")
    missing = set(layer_names) - set(traced["metrics"])
    if missing:
        raise BenchError(f"harness lacks per-layer metrics {sorted(missing)}")
    # The traced passes attempt every module too; any failure there aborts.
    scan["attempted"] *= 1 + traced["passes"]
    return traced["metrics"], problems, [scan]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
        log("run from the root of a repository checkout (no Cargo.toml / crates/cli here)")
        return 2
    spec = load_json(os.path.join(HERE, "workloads.json"))
    bench_spec = load_json(os.path.join(root, "BENCHMARK.json"))
    workload = spec["workloads"].get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload}; known: {sorted(spec['workloads'])}")
        return 2
    metric_specs = bench_spec["per_layer" if args.trace else "end_to_end"]

    stack, bench = build(root)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            names = [m["name"] for m in metric_specs]
            values, problems, scans = measure_per_layer(
                stack, bench, workload, args.seed, args.seconds, work, names)
        else:
            values, problems, scans = measure_end_to_end(
                stack, bench, workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    for problem in dict.fromkeys(problems):
        log(f"INCORRECT: {problem}")
    attempted = sum(s["attempted"] for s in scans)
    failed = sum(s["failed"] for s in scans)
    # The two correctness metrics, 0 when all is well; they gate `correct`
    # and make up `failed`, so they are printed here rather than as metrics.
    print(f"verdict_errors {max(s['verdict_errors'] for s in scans)} count; "
          f"failed_frac {failed / attempted} frac")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError) as e:
        log(f"error: {e}")
        sys.exit(2)
