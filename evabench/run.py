#!/usr/bin/env python3
"""EVA benchmark: one command per workload, checked outputs, named metrics.

    python3 evabench/run.py --workload fleet_fresh --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark's two programs from source into
.bench_build/ (first run only; later runs rebuild incrementally), then:

  1. starts evabench_host, which builds the dataset, pretrains the model
     for a fixed number of steps and boots the fleet (cache sidecar, router,
     two replicas) on loopback;
  2. runs evabench_load, a separate process, against the router: an
     open-loop Poisson phase at the workload's fixed rate, then a
     closed-loop phase on 4 connections;
  3. checks every response, then has the host re-serve a seed-drawn sample
     of the requests through the router, each replica and an in-process
     replay of the layers, which must all agree byte for byte;
  4. has the host stop the fleet and run PPO fine-tuning and GA sizing.

Every run prints a STAMP line (commit, cores, build type, load average,
seed, per-phase attempted/succeeded/failed) and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. A run
that fails a check prints the failures and no metrics, and exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNS = BUILD / "runs"

# Open-loop rates are fixed per workload and quoted in BENCHMARK.json. On
# the 4-core VM they were set on, fleet_fresh's closed loop serves about
# 35 req/s and fleet_repeat's about 380 req/s. At 45-60% of that, the
# open-loop tail varied by 30-60% between runs, so the rates sit lower:
# about 30% and 25% of capacity.
WORKLOADS = {
    "fleet_fresh": {"rate": 10.0},
    "fleet_repeat": {"rate": 100.0},
}
OPEN_SHARE = 0.6  # of --seconds; the closed loop gets the rest
PROBES = 8        # requests the host re-serves and replays
IDLE_BEFORE_LOAD_S = 2.0

PRETRAIN_CHUNK = 10  # steps per chunk of the pretraining rate


class CheckFailed(Exception):
    pass


# --- statistics --------------------------------------------------------------

def tail(values, p):
    """The p-th percentile (nearest rank), lowered to the highest percentile
    that still has at least 10 samples beyond it, and never below the median.
    Returns (value, percentile_used, sample_count)."""
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise CheckFailed("no samples for a percentile")
    k_req = max(0, math.ceil(p / 100.0 * n) - 1)
    k_med = n // 2  # the upper middle rank: never below the median
    k = max(min(k_req, n - 11), k_med)
    return v[k], 100.0 * (k + 1) / n, n


def med(values):
    if not values:
        raise CheckFailed("no samples for a median")
    return statistics.median(values)


def upper_quartile(values):
    if len(values) < 2:
        return med(values)
    return statistics.quantiles(values, n=4)[2]


def ratio(num, den):
    return num / den if den else 0.0


# --- build -------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("evabench: no EVA sources next to evabench/ "
                         "(expected src/CMakeLists.txt)")
    BUILD.mkdir(exist_ok=True)
    log = open(BUILD / "build.log", "a")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "evabench_host", "evabench_load"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise SystemExit("evabench: build failed, see .bench_build/build.log")
    cache = (BUILD / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        raise SystemExit("evabench: refusing a non-Release build")


def clean_env():
    # The fleet runs its defaults: no EVA_* override may leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("EVA_")}


# --- the host process ----------------------------------------------------------

class Host:
    def __init__(self, args, toy, log_path):
        # The host holds the benchmark's scale: the full profile, or the
        # toy one of the benchmark's own tests.
        cmd = [str(BUILD / "evabench_host"), "--seed", str(args.seed),
               "--trace", str(args.trace), "--toy", str(int(toy))]
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True, env=clean_env(), cwd=ROOT)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            if line.startswith("EVB "):
                self.lines.put(json.loads(line[4:]))
        self.lines.put(None)

    def expect(self, event, timeout):
        try:
            msg = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise CheckFailed("host timed out waiting for '%s'" % event)
        if msg is None:
            raise CheckFailed("host exited before '%s' (see %s)"
                              % (event, self.log.name))
        if msg.get("event") != event:
            raise CheckFailed("host: %s" % msg.get("message", msg))
        return msg

    def send(self, cmd):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (subprocess.TimeoutExpired, OSError):
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)
        self.log.close()


# --- load records ------------------------------------------------------------------

class Record:
    __slots__ = ("phase", "index", "due", "pick", "start", "connect", "done",
                 "ok", "request", "lines", "key", "items", "done_line",
                 "router_hit", "failed")


def parse_load(path):
    """Records, router stats snapshots and phase windows of one load run."""
    records, stats, windows = [], {}, {}
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("R "):
                p = line.split(" ", 10)
                r = Record()
                r.phase, r.index = int(p[1]), int(p[2])
                r.due, r.pick, r.start, r.connect, r.done = (
                    float(x) / 1000.0 for x in p[3:8])  # -> ms
                r.ok = p[8] == "1"
                r.request = p[10]
                r.lines = [next(f).rstrip("\n") for _ in range(int(p[9]))]
                records.append(r)
            elif line.startswith("S "):
                _, phase, tag, body = line.split(" ", 3)
                stats[(int(phase), tag)] = json.loads(body)
            elif line.startswith("P "):
                _, phase, window, elapsed = line.split()
                windows[int(phase)] = (float(window), float(elapsed))
    return records, stats, windows


def item_identity(item):
    """An item without the fields that differ between deliveries of the
    same result: the per-replica request id and the cache flag."""
    return json.dumps({k: v for k, v in item.items()
                       if k not in ("request_id", "cached")}, sort_keys=True)


def check_records(records, failures):
    """Validates every response; annotates records with parsed fields."""
    seen_payload = {}
    identities = {}
    for r in records:
        req = json.loads(r.request)
        r.key = (req["type"], req["n"], req["temperature"], req["seed"])
        r.items, r.done_line, r.router_hit = [], None, False
        r.failed = True
        if not r.ok:
            failures.append("no terminator for %s" % r.request)
            continue
        parsed = []
        for line in r.lines:
            try:
                obj = json.loads(line)
            except ValueError:
                obj = None
            if not isinstance(obj, dict):
                failures.append("malformed line: %.120s" % line)
                break
            parsed.append(obj)
        else:
            dones = [o for o in parsed if o.get("done") is True]
            if len(dones) != 1 or parsed[-1] is not dones[0]:
                failures.append("not exactly one terminator: %s" % r.request)
                continue
            done, items = dones[0], parsed[:-1]
            if done.get("status") != "ok":
                failures.append("status %s for %s"
                                % (done.get("status"), r.request))
                continue
            if done.get("items") != req["n"] or len(items) != req["n"]:
                failures.append("items != n for %s" % r.request)
                continue
            for it in items:
                fom = it.get("fom")
                if it.get("valid") and not it.get("decoded"):
                    failures.append("valid but not decoded: %s" % r.request)
                if not isinstance(fom, (int, float)) or not math.isfinite(fom):
                    failures.append("non-finite FoM: %s" % r.request)
            ident = [item_identity(it) for it in items]
            if identities.setdefault(r.key, ident) != ident:
                failures.append("repeated request returned different items: %s"
                                % r.request)
            # The router's cache answers with a stored payload verbatim;
            # a replica's answer carries a fresh request id and latency.
            payload = "\n".join(r.lines)
            payloads = seen_payload.setdefault(r.key, set())
            r.router_hit = payload in payloads
            payloads.add(payload)
            r.items, r.done_line, r.failed = items, done, False


def parse_lines(lines):
    """The items and terminator of one response, or None if a line is
    malformed or the response does not end in exactly one ok terminator."""
    try:
        objs = [json.loads(line) for line in lines]
    except ValueError:
        return None
    if not objs or not all(isinstance(o, dict) for o in objs):
        return None
    done = objs[-1]
    if done.get("done") is not True or done.get("status") != "ok" or \
            any(o.get("done") for o in objs[:-1]):
        return None
    return objs[:-1], done


def check_probes(probes, failures):
    """The router, every replica and the in-process replay must return the
    same items for each probe request. Returns the replicas' decode + cache
    + verify stage time per exchange and the number of failed probes."""
    stage_ms, failed = [], 0
    for p in probes:
        before = len(failures)
        req = json.loads(p["request"])
        replay = parse_lines(p["replay"])
        if replay is None or len(replay[0]) != req["n"]:
            failures.append("replay produced a wrong answer: " + p["request"])
            failed += 1
            continue
        want = [item_identity(it) for it in replay[0]]
        paths = [("router", p["router"])] + [
            ("replica %d" % k, r["lines"]) for k, r in enumerate(p["replicas"])]
        for who, lines in paths:
            got = parse_lines(lines)
            if got is None:
                failures.append("%s did not answer ok: %s" % (who, p["request"]))
            elif [item_identity(it) for it in got[0]] != want:
                failures.append("%s items differ from a fresh decode: %s"
                                % (who, p["request"]))
            elif who != "router":
                s = got[1]["stages"]
                stage_ms.append(s["decode_ms"] + s["cache_ms"] + s["verify_ms"])
        failed += len(failures) > before
    return stage_ms, failed


def phase_counts(records, phase):
    rs = [r for r in records if r.phase == phase]
    failed = sum(r.failed for r in rs)
    return {"attempted": len(rs), "succeeded": len(rs) - failed,
            "failed": failed}


# --- stamp -------------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for top in ("src", "evabench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cpu_times():
    """Aggregate /proc/stat jiffies (user, nice, system, idle, ..., steal)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_frac(before, after):
    """Share of CPU time the hypervisor took away during the run."""
    if len(before) < 8 or len(after) < 8:
        return None
    d = [a - b for a, b in zip(after, before)]
    return ratio(d[7], sum(d))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


# --- one run -----------------------------------------------------------------------

def run(args):
    spec = WORKLOADS[args.workload]
    seconds = float(args.seconds)
    rate = spec["rate"]
    RUNS.mkdir(parents=True, exist_ok=True)
    tag = "%s-%d" % (args.workload, os.getpid())
    load_path = RUNS / (tag + ".load")
    probe_path = RUNS / (tag + ".probe")
    failures = []
    stamp = {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "seconds": seconds, "open_rate": rate,
             "commit": commit(), "source": source_digest(),
             "nproc": os.cpu_count(), "loadavg_start": os.getloadavg()}
    cpu_start = cpu_times()

    host = Host(args, args.toy, BUILD / ("host-%s.log" % args.workload))
    try:
        ready = host.expect("ready", timeout=170)
        losses = ready["losses"]
        if not all(math.isfinite(x) for x in losses) or \
                not losses[-1] < losses[0]:
            failures.append("pretraining losses not finite and falling: "
                            "%s -> %s" % (losses[0], losses[-1]))

        # The VM hands out CPU in bursts: after a few seconds of heavy use
        # (pretraining) the hypervisor takes more of it for a while. A
        # short idle pause lets that settle before the latency phases.
        time.sleep(IDLE_BEFORE_LOAD_S)
        open_s = seconds * OPEN_SHARE
        cmd = [str(BUILD / "evabench_load"), "--workload", args.workload,
               "--seed", str(args.seed), "--port", str(ready["router_port"]),
               "--rate", str(rate), "--open-seconds", str(open_s),
               "--closed-seconds", str(seconds - open_s),
               "--out", str(load_path)]
        if subprocess.run(cmd, timeout=seconds + 120).returncode != 0:
            raise CheckFailed("load generator failed")
        records, rstats, windows = parse_load(load_path)
        check_records(records, failures)

        # Probe sample: seed-drawn among the ok requests of the open loop.
        ok_open = sorted({r.request for r in records
                          if r.phase == 1 and not r.failed})
        probes = random.Random(args.seed).sample(
            ok_open, min(PROBES, len(ok_open)))
        probe_path.write_text("".join(p + "\n" for p in probes))
        host.send("check %s" % probe_path)
        checked = host.expect("checked", timeout=120)
        failures += checked["failures"]
        checked["replica_stage_ms"], probe_failed = check_probes(
            checked["probes"], failures)
        probe_failed += len(checked["failures"])
        host.send("finish")
        result = host.expect("result", timeout=150)
        failures += result["failures"]
        if result["build_type"] != "release":
            failures.append("refusing a %s build" % result["build_type"])
    finally:
        host.close()
        for p in (load_path, probe_path):
            if p.exists():
                p.unlink()

    probe_failed = min(len(probes), probe_failed)
    phases = {"warmup": phase_counts(records, 0),
              "open": phase_counts(records, 1),
              "closed": phase_counts(records, 2),
              "probe": {"attempted": len(probes),
                        "succeeded": len(probes) - probe_failed,
                        "failed": probe_failed},
              "sizing": {"attempted": int(result["sized"])
                                      * len(result["sizing_pass_ms"]),
                         "succeeded": int(result["sized"])
                                      * len(result["sizing_pass_ms"]),
                         "failed": 0}}
    stamp.update(phases=phases, build_type=result["build_type"],
                 loadavg_end=os.getloadavg(),
                 steal_frac=steal_frac(cpu_start, cpu_times()))
    attempted = sum(phases[p]["attempted"] for p in ("open", "closed", "probe"))
    failed = sum(phases[p]["failed"] for p in ("open", "closed", "probe"))
    if failures:
        stamp["failures"] = failures[:20]
        print("STAMP " + json.dumps(stamp))
        for f in failures[:20]:
            print("CHECK FAILED: " + f)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    e2e, layers, notes = metrics(args, records, rstats, windows, ready,
                                 checked, result)
    stamp.update(notes)
    untraced = "untraced-%s%s.json" % (args.workload, "-toy" if args.toy else "")
    if args.trace:
        last = BUILD / untraced
        if last.exists():
            base = json.loads(last.read_text())
            stamp["tracing_overhead"] = {
                "e2e_p50_ms_traced": notes["e2e_p50_ms"],
                "e2e_p50_ms_untraced": base["e2e_p50_ms"],
                "untraced_seed": base["seed"],
                "frac": ratio(notes["e2e_p50_ms"] - base["e2e_p50_ms"],
                              base["e2e_p50_ms"])}
    else:
        (BUILD / untraced).write_text(json.dumps(
            {"e2e_p50_ms": notes["e2e_p50_ms"], "seed": args.seed}))
    print("STAMP " + json.dumps(stamp))
    chosen = layers if args.trace else e2e
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in chosen.items()}}))
    return 0


def metrics(args, records, rstats, windows, ready, checked, result):
    open_rs = [r for r in records if r.phase == 1]
    closed_rs = [r for r in records if r.phase == 2]
    served = [r for r in records if r.phase in (1, 2)]
    window = windows[2][0]
    notes = {}

    # End to end. Open loop: from each request's due time.
    e2e_ms = [r.done - r.due for r in open_rs]
    p50 = med(e2e_ms)
    p99, p99_used, n_open = tail(e2e_ms, 99)
    in_window = [r for r in closed_rs if r.done <= window * 1000.0]
    capacity = len(in_window) / window
    valid_per_s = sum(sum(1 for it in r.items if it.get("valid"))
                      for r in in_window) / window
    steps_ms, steps_tokens = ready["pretrain_step_ms"], ready["pretrain_step_tokens"]
    chunk_rates = [
        sum(steps_tokens[i:i + PRETRAIN_CHUNK])
        / (sum(steps_ms[i:i + PRETRAIN_CHUNK]) / 1000.0)
        for i in range(0, len(steps_ms), PRETRAIN_CHUNK)]
    e2e = {
        # Medians of the set-up repeats, taken in three windows of the run.
        "setup_s": ((med(result["prepare_ms"]) + med(result["boot_ms"]))
                    / 1000.0, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "capacity_rps": (capacity, "1/s"),
    }
    # Repeated identical work is reported from its faster repeats: the
    # VM's hypervisor steal (STAMP steal_frac) only ever slows a repeat
    # down, and it came in bursts that hit some repeats of a run and not
    # others.
    pipeline = {
        "pretrain_tokens_per_s": (upper_quartile(chunk_rates), "1/s"),
        "finetune_s": (min(result["finetune_ms"]) / 1000.0, "s"),
        "sizing_topologies_per_s": (result["sized"] * 1000.0
                                    / min(result["sizing_pass_ms"]), "1/s"),
    }
    late = [r.start - max(r.due, r.pick) for r in open_rs]
    late_p99, late_used, _ = tail(late, 99)
    conn_wait = sum(1 for r in open_rs if r.pick > r.due + 1.0)
    notes["percentiles"] = {
        "e2e_p99_ms": {"p": p99_used, "n": n_open},
        "loadgen.late_ms.p99": {"p": late_used, "n": len(late)}}
    notes["generator_bound"] = late_p99 > 5.0
    notes["open_conn_wait_frac"] = ratio(conn_wait, len(open_rs))
    notes["valid_circuits_per_s"] = valid_per_s
    notes["e2e_p50_ms"], notes["e2e_p99_ms"] = p50, p99
    notes.update({k: v for k, (v, _) in pipeline.items()})
    notes["offered_rps"] = len(open_rs) / windows[1][0]
    bins = [0] * max(1, int(window))
    for r in in_window:
        bins[min(int(r.done / 1000.0), len(bins) - 1)] += 1
    notes["capacity_bins"] = bins  # ok responses per second of the closed loop
    notes["setup_repeats_ms"] = {k: [round(x, 1) for x in result[k]]
                                 for k in ("prepare_ms", "boot_ms")}

    # Per layer, from terminators of replica-served (not router-cached)
    # responses.
    fresh = [r for r in served if not r.router_hit]
    stages = [r.done_line["stages"] for r in fresh]
    open_stages = [r.done_line["stages"] for r in open_rs if not r.router_hit]
    queue_p99, queue_used, _ = tail([s["queue_ms"] for s in open_stages], 99)
    tokens = sum(r.done_line["tokens"] for r in fresh)
    decode_ms = sum(s["decode_ms"] for s in stages)
    decoded_items = [it for r in fresh for it in r.items if it["decoded"]]
    before, after = rstats[(1, "before")]["router"], rstats[(2, "after")]["router"]
    hits = after["cache_hits"] - before["cache_hits"]
    lookups = hits + after["cache_misses"] - before["cache_misses"]
    hit_ms = [r.done - r.start for r in served if r.router_hit]
    hit_ms += checked["router_hit_ms"]
    hop_ms = [r.done - r.start - r.done_line["latency_ms"] for r in fresh]
    connect = [r.connect for r in served if r.connect >= 0]
    connect += checked["connect_ms"]
    connect_p99, connect_used, _ = tail(connect, 99)
    rp = checked["replay"]
    replay_layers_ms = rp["decode_ms"] + (
        rp["to_netlist_us"] + rp["to_spice_us"] + rp["hash_us"] + rp["get_us"]
        + rp["simulatable_us"] + rp["evaluate_us"] + rp["put_us"]
        + rp["encode_us"]) / 1000.0
    notes["replay"] = {
        "requests": rp["requests"],
        "total_ms_per_request": ratio(rp["total_ms"], rp["requests"]),
        "layers_ms_per_request": ratio(replay_layers_ms, rp["requests"]),
        "replica_decode_cache_verify_ms_per_request":
            statistics.mean(checked["replica_stage_ms"]),
        "evaluate_us_total": rp["evaluate_us"], "evaluated": rp["evaluated"]}
    notes["percentiles"].update({
        "serve.service.queue_ms.p99": {"p": queue_used, "n": len(open_stages)},
        "serve.net.connect_ms.p99": {"p": connect_used, "n": len(connect)}})
    notes["bases"] = {
        "serve.result_cache.hit_frac": "decoded items of replica-served "
                                       "responses (%d)" % len(decoded_items),
        "serve.router.cache_hit_frac": "seeded requests the router looked "
                                       "up (%d)" % lookups,
        "nn.decoded_frac": "replayed items (%d)" % rp["items"],
        "circuit.structural_valid_frac": "replayed unique decoded cache "
                                         "misses (%d)" % rp["simulated"],
        "spice.valid_frac": "replayed unique decoded cache misses (%d)"
                            % rp["simulated"],
        "replay.coverage_frac": "replayed request time",
        "serve.service.batch_occupancy": "decode steps (%d)"
                                         % checked["occupancy_steps"]}

    layers = {
        "serve.service.queue_ms.p50": (med([s["queue_ms"] for s in open_stages]), "ms"),
        "serve.service.queue_ms.p99": (queue_p99, "ms"),
        "serve.service.batch_occupancy": (checked["occupancy_mean"], "frac"),
        "nn.decode_ms.p50": (med([s["decode_ms"] for s in stages]), "ms"),
        "nn.decode_tokens_per_s": (ratio(tokens, decode_ms / 1000.0), "1/s"),
        "nn.tokens_per_request": (ratio(tokens, len(fresh)), "count"),
        "serve.verify_ms": (statistics.mean(s["verify_ms"] for s in stages), "ms"),
        "serve.result_cache.hit_frac": (ratio(sum(1 for it in decoded_items if it["cached"]), len(decoded_items)), "frac"),
        "serve.router.cache_hit_frac": (ratio(hits, lookups), "frac"),
        "serve.router.hit_ms.p50": (med(hit_ms), "ms"),
        "serve.router.hop_ms.p50": (med(hop_ms), "ms"),
        "serve.net.connect_ms.p99": (connect_p99, "ms"),
        "serve.net.threads_end": (checked["threads_end"], "count"),
        "serve.net.vm_mb_end": (checked["vm_mb_end"], "MB"),
        "serve.valid_circuits_per_s": (valid_per_s, "1/s"),
        "nn.decode_step_us": (ratio(rp["decode_ms"] * 1000.0, rp["steps"]), "us"),
        "nn.ids_to_netlist_us": (ratio(rp["to_netlist_us"], rp["items"]), "us"),
        "nn.decoded_frac": (ratio(rp["decoded"], rp["items"]), "frac"),
        "circuit.canonical_hash_us": (ratio(rp["hash_us"], rp["decoded"]), "us"),
        "circuit.structural_valid_frac": (ratio(rp["structural_valid"], rp["simulated"]), "frac"),
        "spice.simulatable_us": (ratio(rp["simulatable_us"], rp["simulated"]), "us"),
        "spice.valid_frac": (ratio(rp["valid"], rp["simulated"]), "frac"),
        "serve.result_cache.get_us": (ratio(rp["get_us"], rp["lookups"]), "us"),
        "serve.result_cache.put_us": (ratio(rp["put_us"], rp["puts"]), "us"),
        "serve.protocol.encode_us": (ratio(rp["encode_us"], rp["requests"]), "us"),
        "replay.coverage_frac": (ratio(replay_layers_ms, rp["total_ms"]), "frac"),
        "nn.pretrain_step_ms": (med(ready["pretrain_step_ms"]), "ms"),
        "tensor.train_fwd_ms": (med(ready["train_fwd_ms"]), "ms"),
        "tensor.train_bwd_ms": (med(ready["train_bwd_ms"]), "ms"),
        "tensor.optim_step_ms": (med(ready["optim_step_ms"]), "ms"),
        "rl.label_ms": (result["label_ms"], "ms"),
        "rl.reward_model_train_ms": (result["reward_model_train_ms"], "ms"),
        "rl.rollout_ms": (result["rollout_ms"], "ms"),
        "rl.reward_ms": (result["reward_ms"], "ms"),
        "spice.dc_us": (med(result["dc_us"]), "us"),
        "spice.ac_us": (med(result["ac_us"]), "us"),
        "spice.nr_iters": (statistics.mean(result["nr_iters"]), "count"),
        "opt.ga_ms_per_topology": (statistics.mean(result["ga_ms"]), "ms"),
        "opt.evals_per_topology": (ratio(result["dc_solves"], result["sized"]), "count"),
        "data.dataset_build_ms": (med(ready["dataset_build_ms"]), "ms"),
        "loadgen.late_ms.p99": (late_p99, "ms"),
        "e2e_p50_ms": (p50, "ms"),
        "e2e_p99_ms": (p99, "ms"),
        **pipeline,
    } if args.trace else {}
    if args.trace and not 0.9 <= layers["replay.coverage_frac"][0] <= 1.0:
        raise CheckFailed("replay layers cover %.3f of the replayed time"
                          % layers["replay.coverage_frac"][0])
    return e2e, layers, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny pipeline scale, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    build()
    try:
        return run(args)
    except CheckFailed as e:
        print("CHECK FAILED: %s" % e)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
