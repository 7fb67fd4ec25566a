#!/usr/bin/env python3
"""Cell benchmark harness: builds the simulator twice (plain and with
WFPROF_ZONE instrumentation), runs one workload of real experiment cells,
checks every cell's cellJson row, and prints the metrics.

    python3 cellbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cellbench/run.py --workload all --seed N --seconds S   # every workload, both modes
    python3 cellbench/run.py --write-pins          # regenerate pins/*.seed42.jsonl

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of the untraced run; --trace 1 reports the per-layer
metrics of a zone-traced run. cellbench/README.md describes the workloads
and what each metric is expected to move.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FIG2 = os.path.join(os.path.dirname(HERE), "docs", "reference", "fig2_montage.jsonl")
PINS = os.path.join(HERE, "pins")
PIN_SEED = 42
WORKLOADS = ("pvfs-dense", "pvfs-train", "layered-100k", "backend-grid")
SETUP_SAMPLES = 5  # process launches whose time-to-first-timed-cell is the set-up median
MIN_PASSES = 2  # two passes in one process also prove run-to-run byte identity
CHILD_TIMEOUT_S = 170
REF_KERNEL_S = 0.02  # calibration-kernel time that defines the reference host speed

# WFPROF_ZONE scopes that always run inside another zone: net/reshare holds
# net/fill and net/schedule-completion; sched/try-claim and
# sched/drain-queue hold sched/pick-node. Every other zone is outermost, so
# the outermost zones' inclusive times sum to the zones' self times. A zone
# added inside an existing one must be listed here.
NESTED_ZONES = {"net/fill", "net/schedule-completion", "sched/pick-node"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(variant, zones):
    """Configures (once) and builds one variant; returns the binary path."""
    out = os.path.join(build_dir(), "cellbench-" + variant)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DWFS_PROF_ZONES=" + ("ON" if zones else "OFF")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "cellbench")


def child_env():
    # WFS_* variables steer the simulator (settle knobs, zone dumps at exit);
    # the benchmark measures the default configuration only.
    return {k: v for k, v in os.environ.items() if not k.startswith("WFS_")}


class Child:
    """One benchmark process; stdout is read line by line so the harness
    can timestamp the `ready` line. A watchdog kills it past the timeout."""

    def __init__(self, argv, capture_stderr=False):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=child_env(),
            stderr=subprocess.PIPE if capture_stderr else None)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.start()

    def collect(self):
        """Returns (setup seconds, stdout lines, stderr text)."""
        setup, lines, err = None, [], ""
        try:
            if self.proc.stderr is not None:
                # Drain stderr concurrently so a full pipe cannot stall the child.
                chunks = []
                reader = threading.Thread(target=lambda: chunks.append(self.proc.stderr.read()))
                reader.start()
            for line in self.proc.stdout:
                line = line.rstrip("\n")
                if line == "ready" and setup is None:
                    setup = time.perf_counter() - self.t0
                lines.append(line)
            self.proc.wait()
            if self.proc.stderr is not None:
                reader.join()
                err = "".join(chunks)
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0 or setup is None:
            raise RuntimeError("%s exited with code %d" % (self.proc.args[0], self.proc.returncode))
        return setup, lines, err


def parse_rows(lines):
    """{pass: {cell: row}} from `row PASS CELL JSON` lines."""
    rows = {}
    for line in lines:
        if line.startswith("row "):
            _, p, c, row = line.split(" ", 3)
            rows.setdefault(int(p), {})[int(c)] = row
    return rows


def field(lines, key):
    return [line.split(" ", 1)[1] for line in lines if line.startswith(key + " ")]


def pin_path(workload):
    return os.path.join(PINS, "%s.seed%d.jsonl" % (workload, PIN_SEED))


def load_pins(workload):
    """Pinned seed-42 rows, by cell index. Montage rows must also equal
    their line in the full-scale Fig 2 golden; a pin that disagrees with
    the golden is replaced by a marker no row can equal."""
    with open(pin_path(workload)) as f:
        pins = f.read().splitlines()
    with open(FIG2) as f:
        golden = {}
        for line in f:
            row = json.loads(line)
            golden[(row["storage"], row["nodes"])] = line.rstrip("\n")
    for i, pin in enumerate(pins):
        row = json.loads(pin)
        if row.get("app") == "montage" and row.get("scale") == 1:
            if golden.get((row["storage"], row["nodes"])) != pin:
                log("pin %s #%d differs from %s" % (workload, i, FIG2))
                pins[i] = "<pin disagrees with the Fig 2 golden>"
    return pins


def failures(rows_by_pass, refs):
    """(pass, cell) of every row that differs from its reference or carries
    an error. `refs` maps a cell to its expected row; a cell without one is
    checked against its first-pass row, so the passes of one process must
    be byte-identical."""
    first = rows_by_pass[0]
    return [(p, c) for p, rows in sorted(rows_by_pass.items()) for c, row in sorted(rows.items())
            if row != refs.get(c, first[c]) or '"error"' in row]


def self_test(rows_by_pass, refs):
    """The gate must notice one corrupted reference row; a checker that
    cannot fail would report every run as correct."""
    corrupted = dict(refs)
    corrupted[0] = rows_by_pass[0][0] + " "
    if not failures(rows_by_pass, corrupted):
        raise RuntimeError("self-test: a corrupted reference row went unnoticed")


def references(args, ncells):
    if args.seed != PIN_SEED:
        return {}
    pins = load_pins(args.workload)
    if len(pins) != ncells:
        raise RuntimeError("%s holds %d rows for %d cells" % (pin_path(args.workload), len(pins), ncells))
    refs = dict(enumerate(pins))
    if args.corrupt_pin is not None:
        refs[args.corrupt_pin] = refs[args.corrupt_pin].replace('"makespan_s":', '"makespan_s":1', 1)
    return refs


def metric(value, unit):
    return {"value": value, "unit": unit}


def calibrations(lines):
    """The calibration-kernel timings of each `cal` line, in order."""
    return [[float(x) for x in v.split()] for v in field(lines, "cal")]


def run_untraced(args, plain):
    # Every host time is scaled by REF_KERNEL_S over the calibration kernel's
    # median time in the same process, next to the measurement: seconds on
    # a host where the kernel takes REF_KERNEL_S.
    setups, raw_setups = [], []
    for i in range(SETUP_SAMPLES):
        last = i == SETUP_SAMPLES - 1
        setup, lines, _ = Child([plain, "run", args.workload, str(args.seed),
                                 str(args.seconds if last else 0), str(MIN_PASSES if last else 0)]).collect()
        cal = calibrations(lines)
        raw_setups.append(setup)
        setups.append(setup * REF_KERNEL_S / statistics.median(cal[0]))
    raw_walls = [float(v.split()[1]) for v in field(lines, "pass")]
    walls = [w * REF_KERNEL_S / statistics.median(cal[p] + cal[p + 1]) for p, w in enumerate(raw_walls)]
    rows = parse_rows(lines)
    refs = references(args, len(rows[0]))
    self_test(rows, refs)
    bad = failures(rows, refs)
    attempted, failed = sum(len(r) for r in rows.values()), len(bad)
    rss_mb = int(field(lines, "peak_rss_kb")[-1]) / 1024.0
    fail_frac = failed / attempted
    print("workload %s seed %d: %d cells x %d passes, untraced" %
          (args.workload, args.seed, len(rows[0]), len(walls)))
    print("  pass walls, raw (s): %s" % " ".join("%.4f" % w for w in raw_walls))
    print("  set-up, raw (s): %s" % " ".join("%.4f" % s for s in raw_setups))
    print("  calibration kernel (s): %s" % " ".join("%.4f" % statistics.median(c) for c in cal))
    for p, c in bad:
        print("  MISMATCH pass %d cell %d" % (p, c))
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
        "pass_frac": metric(1.0 - fail_frac, "frac"),
    }
    show = dict(metrics, fail_frac=metric(fail_frac, "frac"))
    for name, m in show.items():
        print("  %-12s %.6f %s" % (name, m["value"], m["unit"]))
    return attempted, failed, metrics


def parse_zone_tables(err):
    """The WFPROF_ZONE tables on stderr, as [{zone: (calls, seconds)}]."""
    tables = []
    for line in err.splitlines():
        if line.startswith("wfprof zones ("):
            tables.append({})
            continue
        m = re.match(r"\s+(\S+)\s+(\d+) calls\s+([0-9.]+) ms", line)
        if m and tables:
            tables[-1][m.group(1)] = (int(m.group(2)), float(m.group(3)) / 1e3)
    if len(tables) < 2:
        raise RuntimeError("trace: expected two WFPROF_ZONE tables on stderr, got %d" % len(tables))
    before, after = tables[0], tables[1]
    return {z: (c - before.get(z, (0, 0.0))[0], s - before.get(z, (0, 0.0))[1])
            for z, (c, s) in after.items()}


def run_traced(args, plain, zoned):
    # Untraced pass: runExperiment's rows and the wall the zones are
    # compared against. Traced pass: the rebuilt world, spans, counters, zones.
    _, plines, _ = Child([plain, "run", args.workload, str(args.seed), "0", "1"]).collect()
    _, tlines, err = Child([zoned, "trace", args.workload, str(args.seed)],
                           capture_stderr=True).collect()
    plain_rows, traced_rows = parse_rows(plines)[0], parse_rows(tlines)[0]
    untraced_wall = float(field(plines, "pass")[0].split()[1])

    # Fork guard: the rebuilt world must reproduce runExperiment's row for
    # every cell; at the pinned seed runExperiment must reproduce the pins.
    if set(traced_rows) != set(plain_rows):
        raise RuntimeError("trace: the traced run returned rows for other cells")
    refs = references(args, len(plain_rows))
    self_test({0: plain_rows}, refs)
    bad = failures({0: plain_rows}, refs)
    fork_bad = failures({0: traced_rows}, plain_rows)
    attempted, failed = len(plain_rows), len({c for _, c in bad + fork_bad})

    spans, counters = {}, {}
    for v in field(tlines, "span"):
        _, _, _, name, start, end = v.split()
        spans[name] = spans.get(name, 0.0) + float(end) - float(start)
    for v in field(tlines, "counter"):
        _, name, value = v.split()
        counters[name] = counters.get(name, 0.0) + float(value)
    zones = parse_zone_tables(err)

    def zs(name):
        return zones.get(name, (0, 0.0))[1]

    outer = sum(s for z, (_, s) in zones.items() if z not in NESTED_ZONES)
    run_s = spans["simcore.run"]
    events = counters["simcore.events"]
    fills, touches = counters["net.fills"], counters["net.touches"]
    hits, misses = counters["storage.cache_hits"], counters["storage.cache_misses"]
    traced_wall = spans["cell"]
    unattributed = run_s - outer

    m = {
        "simcore.run_s": metric(run_s, "s"),
        "simcore.events": metric(events, "count"),
        "simcore.ns_per_event": metric(run_s * 1e9 / max(events, 1), "ns"),
        "simcore.arena_reserved_mb": metric(counters["simcore.arena_reserved_bytes"] / 2**20, "MB"),
        "net.fills": metric(fills, "count"),
        "net.touches": metric(touches, "count"),
        "net.flows": metric(counters["net.flows"], "count"),
        "net.fills_per_touch": metric(fills / max(touches, 1), "ratio"),
        "net.fill_s": metric(zs("net/fill"), "s"),
        "net.us_per_fill": metric(zs("net/fill") * 1e6 / max(fills, 1), "us"),
        "net.reshare_self_s": metric(zs("net/reshare") - zs("net/fill") - zs("net/schedule-completion"), "s"),
        "net.settle_s": metric(zs("net/settle"), "s"),
        "net.completion_s": metric(zs("net/schedule-completion") + zs("net/complete-flows"), "s"),
        "wf.build_s": metric(spans["wf.build"], "s"),
        "wf.plan_s": metric(spans["wf.plan"], "s"),
        "wf.engine_setup_s": metric(spans["wf.engine-setup"], "s"),
        "wf.sched_s": metric(zs("sched/try-claim") + zs("sched/drain-queue"), "s"),
        "wf.ready_scan_s": metric(zs("engine/ready-scan"), "s"),
        "wf.tasks": metric(counters["wf.tasks"], "count"),
        "storage.preload_s": metric(spans["storage.preload"], "s"),
        "storage.ops": metric(counters["storage.ops"], "count"),
        "storage.cache_hit_ratio": metric(hits / max(hits + misses, 1), "ratio"),
        "storage.queue_sim_s": metric(counters["storage.queue_sim_s"], "sim_s"),
        "cloud.provision_s": metric(spans["cloud.provision"], "s"),
        "cloud.billing_s": metric(spans["cloud.billing"], "s"),
        "analysis.export_s": metric(spans["analysis.export"], "s"),
        "world.teardown_s": metric(spans["world.teardown"], "s"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.unattributed_s": metric(unattributed, "s"),
        "trace.unattributed_frac": metric(unattributed / run_s, "frac"),
        "trace.overhead_frac": metric(traced_wall / untraced_wall - 1.0, "frac"),
    }
    print("workload %s seed %d: %d cells, traced (untraced wall %.4f s)" %
          (args.workload, args.seed, len(plain_rows), untraced_wall))
    for _, c in bad:
        print("  MISMATCH runExperiment cell %d" % c)
    for _, c in fork_bad:
        print("  MISMATCH rebuilt world cell %d" % c)
    print("  zones (calls, s): %s" % ", ".join(
        "%s %d %.4f" % (z, c, s) for z, (c, s) in sorted(zones.items())))
    for name, v in m.items():
        print("  %-26s %.6f %s" % (name, v["value"], v["unit"]))
    return attempted, failed, m


def write_pins(plain):
    os.makedirs(PINS, exist_ok=True)
    for wl in WORKLOADS:
        _, lines, _ = Child([plain, "run", wl, str(PIN_SEED), "0", "1"]).collect()
        rows = parse_rows(lines)[0]
        with open(pin_path(wl), "w") as f:
            f.writelines(rows[c] + "\n" for c in sorted(rows))
        log("wrote %s (%d rows)" % (pin_path(wl), len(rows)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or `all`: every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=PIN_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-pin", type=int, metavar="CELL",
                    help="self-check: corrupt this cell's pinned row (seed 42 only); fail_frac must go above 0")
    ap.add_argument("--write-pins", action="store_true",
                    help="rewrite pins/*.seed42.jsonl from the current program")
    args = ap.parse_args()
    if not args.write_pins and args.workload is None:
        ap.error("--workload is required")
    if args.corrupt_pin is not None and args.seed != PIN_SEED:
        ap.error("--corrupt-pin needs --seed %d" % PIN_SEED)
    if not os.path.exists(os.path.join(SRC, "CMakeLists.txt")):
        log("cellbench: simulator sources not found at %s" % SRC)
        return 2

    plain = build("plain", zones=False)
    zoned = build("zones", zones=True)
    if args.write_pins:
        write_pins(plain)
        return 0
    if args.workload != "all":
        attempted, failed, metrics = (run_traced(args, plain, zoned) if args.trace
                                      else run_untraced(args, plain))
    else:
        # Metric names gain a `workload/` prefix so one line holds them all.
        attempted, failed, metrics = 0, 0, {}
        for wl in WORKLOADS:
            wargs = argparse.Namespace(**dict(vars(args), workload=wl))
            for run in (run_untraced(wargs, plain), run_traced(wargs, plain, zoned)):
                attempted += run[0]
                failed += run[1]
                metrics.update({wl + "/" + k: v for k, v in run[2].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
