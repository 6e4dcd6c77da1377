#!/usr/bin/env python3
"""The cgmperm benchmark: one command, four workloads, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload shuffle_ram --seed 1 --seconds 10 --trace 0

The script builds perfbench/ (a CMake package compiling the library from
src/) into .bench_build/perfbench, runs the perfbench binary on one
workload, checks its outputs, computes the metrics named in BENCHMARK.json
and prints, as the last line of standard output, one JSON object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of the traced run.
Earlier lines are a human-readable summary: the fingerprint, every metric
with its unit and sample count, and the checks that ran.  A full result
record (fingerprint, plans, sample counts) is written under
.bench_build/perfbench-results/.

Exit status: 0 when every output was correct, 1 on a wrong or failed
output (the result line is still printed), 2 on a usage, build or run
error (no result line).
"""

import argparse
import hashlib
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# A percentile counts only with at least this many samples beyond it.
MIN_BEYOND = 10
# The percentile each class reports besides its median.
CLASS_TAIL = {"small": 0.99, "large": 0.90}
# Per workload, the per-layer metric prefixes of layers the workload never
# calls, with the reason.  They read 0 on its traced run.  Every other
# per-layer metric must come from the binary: a missing one is an error.
IDLE_LAYERS = {
    "shuffle_ram": {
        "core.plan_cache_hit_rate": "context::shuffle plans with resolve_plan, not the plan cache",
        "em.": "the smp plan does no block I/O",
        "comm.": "one process, no transport",
        "svc.": "no service",
        "wire.": "no service",
    },
    "service_mixed": {
        "em.": "both job classes plan in memory",
        "comm.": "the service runs no distributed backend",
    },
    "shuffle_out_of_core": {
        "core.plan_cache_hit_rate": "context::shuffle plans with resolve_plan, not the plan cache",
        "smp.": "em runs its own distribution and leaf passes, timed as em.shuffle_ns",
        "comm.": "one process, no transport",
        "svc.": "no service",
        "wire.": "no service",
    },
    "shuffle_distributed": {
        "core.plan_cache_hit_rate": "context::shuffle plans with resolve_plan, not the plan cache",
        "em.": "the cgm plan does no block I/O",
        "svc.": "no service",
        "wire.": "no service",
    },
}


class BenchError(Exception):
    """A usage, build or run error: no result can be reported."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics ---------------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank q-quantile (q in (0, 1]) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    s = sorted(samples)
    rank = min(max(math.ceil(q * len(s)), 1), len(s))
    return s[rank - 1]


def samples_beyond(count, q):
    """How many of `count` samples lie beyond the nearest-rank q-quantile."""
    return count - min(max(math.ceil(q * count), 1), count) if count else 0


def percentile_counts(count, q):
    """The percentile rule: a percentile counts only with >= 10 samples beyond it."""
    return samples_beyond(count, q) >= MIN_BEYOND


def split_by_client(request_client, request_latency_ns, classes):
    """Split the flat request log into {class name: [latency_ns]} by client id."""
    owner = {}
    for cls in classes:
        for cid in cls["clients"]:
            if cid in owner:
                raise BenchError(f"client {cid} belongs to two classes")
            owner[cid] = cls["name"]
    out = {cls["name"]: [] for cls in classes}
    for cid, lat in zip(request_client, request_latency_ns, strict=True):
        if cid not in owner:
            raise BenchError(f"request from client {cid}, which is in no class")
        out[owner[cid]].append(lat)
    return out


# --- BENCHMARK.json and the result schema -------------------------------------

def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    spec = json.loads(path.read_text())
    for group in ("workloads", "end_to_end", "per_layer"):
        for item in spec[group]:
            if not NAME_RE.match(item["name"]):
                raise BenchError(f"bad {group} name {item['name']!r}")
            if "unit" in item and not UNIT_RE.match(item["unit"]):
                raise BenchError(f"bad unit {item['unit']!r} of {item['name']}")
    return spec


def validate_result(obj, names):
    """Check the final result line against the schema; raise on violation."""
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result must have exactly correct, attempted, failed, metrics")
    if not isinstance(obj["correct"], bool):
        raise BenchError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            raise BenchError(f"{key} must be a non-negative whole number")
    if obj["attempted"] < 1:
        raise BenchError("attempted must be at least 1")
    if set(obj["metrics"]) != set(names):
        raise BenchError(f"metrics must be exactly {sorted(names)}")
    for name, m in obj["metrics"].items():
        if not NAME_RE.match(name):
            raise BenchError(f"bad metric name {name!r}")
        if set(m) != {"value", "unit"} or not UNIT_RE.match(m["unit"]):
            raise BenchError(f"metric {name} must be {{value, unit}}")
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError(f"metric {name} must be a finite number")


# --- build and run --------------------------------------------------------------

def build_dir():
    return ROOT / ".bench_build" / "perfbench"


def build():
    """Configure (once) and build the perfbench package; return the binary."""
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(PKG), "-B", str(bdir), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(bdir), "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    binary = bdir / "perfbench"
    if not binary.is_file():
        raise BenchError(f"{binary} missing after build")
    return binary


def run_binary(binary, args, timeout=RUN_TIMEOUT_S):
    """Run the perfbench binary; return its JSON record."""
    try:
        proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"perfbench timed out after {timeout} s") from e
    if proc.returncode != 0:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed no record")
    return json.loads(lines[-1])


def source_revision():
    """Git revision when the tree is a checkout, else a hash of src/."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = rev.stdout.split()
        if rev.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            return "git:" + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


# --- metrics ----------------------------------------------------------------------

def end_to_end_metrics(raw, spec):
    """The end-to-end metrics of an untraced record, with sample counts."""
    by_class = split_by_client(raw["request_client"], raw["request_latency_ns"],
                               raw["classes"])
    info = {c["name"]: c for c in raw["classes"]}
    for name in CLASS_TAIL:
        if not by_class.get(name):
            raise BenchError(f"class {name} has no completed request")
    values = {}  # name -> (value, samples, note)
    setup = raw["setup_s"]
    values["setup_s"] = (statistics.median(setup), len(setup), "median of set-ups")
    for name, tail in CLASS_TAIL.items():
        lat = by_class[name]
        n = len(lat)
        values[f"{name}_requests_per_s"] = (n / info[name]["window_s"], n, "closed loop")
        values[f"{name}_mean_ms"] = (statistics.fmean(lat) / 1e6, n,
                                     f"median {percentile(lat, 0.5) / 1e6:.6g} ms")
        counts = percentile_counts(n, tail)
        values[f"{name}_p{round(tail * 100)}_ms"] = (
            percentile(lat, tail) / 1e6, n,
            f"{samples_beyond(n, tail)} beyond" + ("" if counts else ": does not count"))
    large = by_class["large"]
    values["ns_per_item"] = (statistics.fmean(large) / info["large"]["n"], len(large),
                             "large-class mean / n")
    values["peak_rss_mib"] = (raw["setup_peak_rss_kib"] / 1024.0, 1,
                              f"after the first set-up (whole run: {raw['peak_rss_kib'] / 1024.0:.1f})")
    names = [m["name"] for m in spec["end_to_end"]]
    missing = set(names) - set(values)
    if missing:
        raise BenchError(f"no value for {sorted(missing)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {k: values[k] for k in names}, units


def idle_reason(workload, name):
    """Why `name` is idle on `workload` (None when the layer does work)."""
    for prefix, why in IDLE_LAYERS[workload].items():
        if name.startswith(prefix):
            return why
    return None


def per_layer_metrics(raw, spec, workload):
    """The per-layer metrics of a traced record.  A layer declared idle in
    IDLE_LAYERS reads 0; any other layer must be in the record, and an idle
    one must not be."""
    values = {}
    for m in spec["per_layer"]:
        got = raw["layers"].get(m["name"])
        why = idle_reason(workload, m["name"])
        if why is not None:
            if got is not None:
                raise BenchError(f"{m['name']} is declared idle on {workload} but was measured")
            values[m["name"]] = (0.0, 0, f"idle: {why}")
        elif got is None:
            raise BenchError(f"the traced run of {workload} did not measure {m['name']}")
        else:
            values[m["name"]] = (got["value"], 1, "traced run")
    return values, {m["name"]: m["unit"] for m in spec["per_layer"]}


def plan_mismatches(raw, workload):
    """Differences between the run's resolved plans and perfbench/plans.json."""
    expected = json.loads((PKG / "plans.json").read_text()).get(workload, {})
    out = []
    for cls, want in expected.items():
        got = raw["plans"].get(cls)
        if got is None:
            out.append(f"{cls}: no plan reported")
            continue
        for key, value in want.items():
            if got.get(key) != value:
                out.append(f"{cls}.{key}: expected {value}, ran {got.get(key)}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not 1 <= args.seconds <= 60 or args.seed < 0:
            raise BenchError("--seconds must be 1..60 and --seed non-negative")
        binary = build()
        out_dir = ROOT / ".bench_build" / "perfbench-results"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        bin_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            bin_args += ["--trace-out", str(out_dir / f"{stem}-spans.json")]
        raw = run_binary(binary, bin_args)
        if args.trace:
            values, units = per_layer_metrics(raw, spec, args.workload)
        else:
            values, units = end_to_end_metrics(raw, spec)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    failed = raw["failed"] + raw["wrong"]
    attempted = max(raw["attempted"], 1)
    mismatches = plan_mismatches(raw, args.workload)
    fingerprint = dict(raw["fingerprint"], revision=source_revision(), plans=raw["plans"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for line in mismatches:
        print(f"PLAN DIFFERS from perfbench/plans.json: {line}")
    for name, (value, count, note) in values.items():
        print(f"  {name:34s} {value:16.6g} {units[name]:8s} n={count:<8d} {note}")
    print(f"  {'error_rate':34s} {failed / attempted:16.6g} {'ratio':8s} "
          f"n={attempted:<8d} (failed + rejected + wrong) / attempted")
    for check in raw["checks"]:
        print(f"  check: {check}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fingerprint,
        "plan_matches": not mismatches, "plan_mismatches": mismatches,
        "metrics": {k: {"value": v, "unit": units[k], "samples": c, "note": note}
                    for k, (v, c, note) in values.items()},
        "attempted": attempted, "failed": raw["failed"], "wrong": raw["wrong"],
        "error_rate": failed / attempted, "checks": raw["checks"],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _, _) in values.items()},
    }
    validate_result(result, values.keys())
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
