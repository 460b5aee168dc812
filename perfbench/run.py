#!/usr/bin/env python3
"""The parra benchmark: time to verdict on three workloads.

Usage, from the root of a parra checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

    litmus-serve   one `parra serve` daemon, two closed-loop clients
    guess-fleet    one `parra verify --engine datalog --threads 2` per input
    qbf-hardness   one `parra verify --threads 1` per input, TQBF reductions

The script builds `parra` and the benchmark's own tool (perfbench/tool),
generates the workload's inputs from the seed, computes reference
verdicts at set-up, and then drives the real binary for `--seconds`.
Every verdict is checked against its reference; a wrong one aborts the
run with exit code 1 and no result. With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it replays the workload's inputs
in-process through each layer's public API and reports the per-layer
ledger. The last line of standard output is one JSON object.

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); generated inputs,
sockets and spans go to `.perfbench_work/`. Both are inside the checkout.
"""

import argparse
import itertools
import json
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")

# Per-input time limit handed to the program, and the extra time the
# client grants before it kills the input and counts it as failed.
LIMIT_S = 10.0
MARGIN_S = 5.0

# Reference runs for generated systems: `simplified-reach` under this
# limit, killed at 1.5 times it. Systems it cannot decide in time have no
# reference and are left out of the workload (about 1% of `guess-fleet`).
REFERENCE_LIMIT_S = 1.0

# How many times set-up is repeated per run; `setup_s` is the median.
# A daemon start costs tens of milliseconds, a `classify` process one.
SETUP_REPEATS = {"litmus-serve": 15, "one-shot": 31}

# `throughput_per_s` is the median over this many equal slices of the
# run, so that a burst of load from elsewhere on the machine during one
# slice does not move it.
WINDOWS = 5

WORKLOADS = {
    # count: distinct generated programs available to the run.
    "litmus-serve": {"count": 3000, "distinct_fraction": 0.2, "clients": 2},
    # count: generated systems, in stratified blocks of 40.
    "guess-fleet": {"count": 560, "threads": 2},
    # count: seeded random TQBF matrices besides copycat/clairvoyant.
    "qbf-hardness": {"count": 3, "threads": 1},
}

# Inputs replayed by the traced run (`--trace 1`).
TRACE_JOBS = {"litmus-serve": 52 + 100, "guess-fleet": 120, "qbf-hardness": None}

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "inputs/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

CLI_ENGINE = {"cache-datalog": "datalog", "simplified-reach": "simplified"}
EXIT_VERDICT = {0: "SAFE", 1: "UNSAFE", 2: "UNDECIDED"}


class WrongVerdict(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and inputs


def build():
    """Builds `parra` and the benchmark tool; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise SystemExit("perfbench: not run from a parra checkout (no Cargo.toml / crates/)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "parra"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/tool/Cargo.toml"],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "parra"),
            os.path.join(target, "release", "parra-perfbench"))


def read_manifest(path):
    jobs = []
    with open(path) as f:
        for line in f:
            jid, source, engine, expected, tag = line.rstrip("\n").split("\t")
            jobs.append({"id": jid, "source": source, "engine": engine,
                         "expected": expected, "tag": tag})
    return jobs


def write_manifest(path, jobs):
    with open(path, "w") as f:
        for j in jobs:
            f.write("\t".join([j["id"], j["source"], j["engine"], j["expected"], j["tag"]]) + "\n")


def file_of(job):
    kind, _, value = job["source"].partition(":")
    return os.path.join(WORK, value) if kind == "file" else None


def reference(parra, path):
    """`simplified-reach` verdict of one input, or None if undecided in time."""
    p = subprocess.Popen(
        [parra, "verify", path, "--engine", "simplified", "--threads", "1",
         "--timeout", str(REFERENCE_LIMIT_S)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = p.wait(timeout=1.5 * REFERENCE_LIMIT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        return None
    return {0: "SAFE", 1: "UNSAFE"}.get(code)


def prepare_inputs(parra, tool, workload, seed):
    """Generates the workload's jobs and fills in pending references."""
    subprocess.run(["rm", "-rf", WORK], check=True)
    os.makedirs(WORK)
    cfg = WORKLOADS[workload]
    r = subprocess.run([tool, "gen", workload, str(seed), str(cfg["count"]), WORK],
                       stdout=sys.stderr)
    if r.returncode != 0:
        raise SystemExit("perfbench: input generation failed")
    jobs = read_manifest(os.path.join(WORK, "manifest.tsv"))
    pending = [j for j in jobs if j["expected"] == "PENDING"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        refs = list(pool.map(lambda j: reference(parra, file_of(j)), pending))
    for j, ref in zip(pending, refs):
        j["expected"] = ref or "NONE"
    dropped = sum(1 for j in jobs if j["expected"] == "NONE")
    jobs = [j for j in jobs if j["expected"] != "NONE"]
    if dropped:
        log(f"perfbench: {dropped} generated inputs without a reference left out")
    write_manifest(os.path.join(WORK, "jobs.tsv"), jobs)
    return jobs


# --------------------------------------------------------------------------
# Statistics


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With fewer than eleven
    samples the maximum is used and fewer are beyond.
    """
    s = sorted(samples)
    n = len(s)
    k = n - 11 if n >= 11 else n - 1
    return s[k], 100.0 * (k + 1) / n, n - k - 1


class Tally:
    """Client-side outcome of every attempted input."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.done_at = []
        self.latencies_ms = []
        self.attempted = 0
        self.decided = 0
        self.failed = 0
        self.overloaded = 0

    def record(self, job, verdict, latency_ms):
        """verdict: SAFE / UNSAFE / UNDECIDED / FAILED / OVERLOADED."""
        self.attempted += 1
        if verdict in ("SAFE", "UNSAFE"):
            if verdict != job["expected"]:
                raise WrongVerdict(
                    f"WRONG VERDICT on {job['id']} ({job['source']}, {job['engine']}): "
                    f"{verdict}, reference {job['expected']}")
            self.decided += 1
            self.latencies_ms.append(latency_ms)
            self.done_at.append(time.perf_counter() - self.t0)
        elif verdict in ("FAILED", "OVERLOADED"):
            self.failed += 1
            self.overloaded += verdict == "OVERLOADED"

    def stop(self):
        self.wall = time.perf_counter() - self.t0

    def metrics(self, setup_s, peak_rss_mb):
        width = self.wall / WINDOWS
        per_window = [0] * WINDOWS
        for t in self.done_at:
            per_window[min(WINDOWS - 1, int(t / width))] += 1
        lat = self.latencies_ms or [0.0]
        tail_ms, pct, beyond = tail(lat)
        return {
            "setup_s": setup_s,
            "throughput_per_s": statistics.median(per_window) / width,
            "latency_p50_ms": statistics.median(lat),
            "latency_tail_ms": tail_ms,
            "decided_ratio": self.decided / max(1, self.attempted),
            "peak_rss_mb": peak_rss_mb,
        }, (pct, beyond, len(lat))


# --------------------------------------------------------------------------
# One-shot workloads: one `parra` process per input


def spawn_timed(cmd, limit_s):
    """Runs cmd to completion; returns (exit code or None if killed,
    stdout, wall seconds, max RSS in KB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    killer = threading.Timer(limit_s, lambda: os.kill(p.pid, signal.SIGKILL))
    killer.start()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    out = p.stdout.read().decode(errors="replace")
    p.stdout.close()
    code = None if p.returncode == -signal.SIGKILL else p.returncode
    return code, out, wall, usage.ru_maxrss


def one_shot(parra, workload, jobs, seconds):
    cfg = WORKLOADS[workload]
    # Set-up: spawn-to-exit of `parra classify`, median over inputs.
    files = list(dict.fromkeys(file_of(j) for j in jobs))
    setup = []
    for path in files[:SETUP_REPEATS["one-shot"]]:
        code, _, wall, _ = spawn_timed([parra, "classify", path], LIMIT_S)
        if code != 0:
            raise SystemExit(f"perfbench: classify failed on {path}")
        setup.append(wall)

    # Inputs run in the generator's seeded order (for `guess-fleet`, whole
    # stratified blocks), cycling if the run outlasts them.
    tally = Tally()
    rss_kb = []
    for job in itertools.cycle(jobs):
        if time.perf_counter() - tally.t0 >= seconds:
            break
        cmd = [parra, "verify", file_of(job), "--engine", CLI_ENGINE[job["engine"]],
               "--threads", str(cfg["threads"]), "--timeout", str(LIMIT_S)]
        code, out, wall, peak_kb = spawn_timed(cmd, LIMIT_S + MARGIN_S)
        rss_kb.append(peak_kb)
        verdict = EXIT_VERDICT.get(code, "FAILED")
        if verdict in ("SAFE", "UNSAFE") and f"] {verdict} (" not in out:
            verdict = "FAILED"
        tally.record(job, verdict, wall * 1e3)
    tally.stop()
    # The median of the per-process peaks: the peak of a few large inputs
    # differs too much between seeds to bound a regression.
    m, tail_info = tally.metrics(statistics.median(setup), statistics.median(rss_kb) / 1024)
    return m, tail_info, tally


# --------------------------------------------------------------------------
# litmus-serve: one daemon, closed-loop clients


class Conn:
    def __init__(self, path, timeout_s):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def request(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        line = self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def start_daemon(parra, sock_rel):
    """Spawns a daemon; returns (process, seconds until the first status)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([parra, "serve", "--socket", sock_rel, "--threads", "1"],
                         cwd=ROOT, stderr=subprocess.DEVNULL)
    while True:
        try:
            c = Conn(os.path.join(ROOT, sock_rel), LIMIT_S)
            break
        except (FileNotFoundError, ConnectionRefusedError):
            if p.poll() is not None or time.perf_counter() - t0 > LIMIT_S:
                raise SystemExit("perfbench: daemon did not start")
            time.sleep(0.0002)
    c.request({"proto": 1, "type": "status", "id": "setup"})
    elapsed = time.perf_counter() - t0
    c.close()
    return p, elapsed


def stop_daemon(p, sock_rel):
    """Asks the daemon to shut down; kills it if it has not exited
    within the per-input limit (a request may still be running)."""
    try:
        c = Conn(os.path.join(ROOT, sock_rel), LIMIT_S)
        c.request({"proto": 1, "type": "shutdown", "id": "stop"})
        c.close()
        p.wait(timeout=LIMIT_S)
    except (OSError, subprocess.TimeoutExpired):
        p.kill()
        p.wait()


def proc_kb(pid, field):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise SystemExit(f"perfbench: no {field} for pid {pid}")


def request_of(job, n):
    req = {"proto": 1, "type": "verify", "id": f"{job['id']}#{n}",
           "engine": job["engine"], "timeout_ms": int(LIMIT_S * 1000)}
    kind, _, value = job["source"].partition(":")
    if kind == "litmus":
        req["litmus"] = value
    else:
        with open(os.path.join(WORK, value)) as f:
            req["program"] = f.read()
    return req


def serve_stream(jobs, seed, fraction):
    """Seeded request order: shuffled passes over every litmus job, with a
    `fraction` of the slots taken by the next unused distinct program."""
    rnd = random.Random(seed)
    litmus = [j for j in jobs if j["tag"] == "litmus"]
    distinct = iter([j for j in jobs if j["tag"] == "distinct"])
    while True:
        batch = litmus[:]
        rnd.shuffle(batch)
        for job in batch:
            while rnd.random() < fraction:
                nxt = next(distinct, None)
                if nxt is None:
                    raise SystemExit("perfbench: distinct programs exhausted; raise count")
                yield nxt
            yield job


def litmus_serve(parra, jobs, seed, seconds):
    cfg = WORKLOADS["litmus-serve"]
    setup = []
    daemon = None
    for k in range(SETUP_REPEATS["litmus-serve"]):
        sock = os.path.join(".perfbench_work", f"s{k}.sock")
        p, elapsed = start_daemon(parra, sock)
        setup.append(elapsed)
        if k + 1 < SETUP_REPEATS["litmus-serve"]:
            stop_daemon(p, sock)
        else:
            daemon = p
    sock_path = os.path.join(ROOT, sock)

    control = Conn(sock_path, LIMIT_S)
    before = control.request({"proto": 1, "type": "status", "id": "before"})["volatile"]
    rss_before_kb = proc_kb(daemon.pid, "VmRSS")

    stream = serve_stream(jobs, seed, cfg["distinct_fraction"])
    lock = threading.Lock()
    service_ms, outside_ms = [], []
    distinct_sent = [0]
    ids = itertools.count()
    errors = []
    tally = Tally()

    def client():
        conn = Conn(sock_path, LIMIT_S + MARGIN_S)
        try:
            while True:
                with lock:
                    if time.perf_counter() - tally.t0 >= seconds:
                        return
                    job = next(stream)
                    n = next(ids)
                    distinct_sent[0] += job["tag"] == "distinct"
                req = request_of(job, n)
                s = time.perf_counter()
                try:
                    resp = conn.request(req)
                except socket.timeout:
                    # The request overran its limit and the margin: a
                    # failure. Its response would desynchronise this
                    # connection, so the client continues on a new one.
                    log(f"perfbench: {job['id']} still running after {LIMIT_S + MARGIN_S} s")
                    with lock:
                        tally.record(job, "FAILED", 0.0)
                    conn.close()
                    conn = Conn(sock_path, LIMIT_S + MARGIN_S)
                    continue
                rtt_ms = (time.perf_counter() - s) * 1e3
                if resp.get("type") == "result":
                    verdict = resp.get("verdict")
                    if verdict not in ("SAFE", "UNSAFE"):
                        verdict = "UNDECIDED"
                elif resp.get("code") == "overloaded":
                    verdict = "OVERLOADED"
                else:
                    verdict = "FAILED"
                    log(f"perfbench: {job['id']} failed: {json.dumps(resp)[:300]}")
                with lock:
                    tally.record(job, verdict, rtt_ms)
                    if verdict in ("SAFE", "UNSAFE"):
                        svc = resp["volatile"]["duration_us"] / 1e3
                        service_ms.append(svc)
                        outside_ms.append(rtt_ms - svc)
        except BaseException as e:  # surfaced by the main thread
            errors.append(e)
        finally:
            conn.close()

    workers = [threading.Thread(target=client) for _ in range(cfg["clients"])]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    tally.stop()
    if errors:
        daemon.kill()
        daemon.wait()
        raise errors[0]

    after = control.request({"proto": 1, "type": "status", "id": "after"})["volatile"]
    hwm_kb = proc_kb(daemon.pid, "VmHWM")
    rss_after_kb = proc_kb(daemon.pid, "VmRSS")
    control.close()
    stop_daemon(daemon, sock)

    rejected = after["rejected"] - before["rejected"]
    if rejected or tally.overloaded:
        log(f"perfbench: {rejected} requests refused as overloaded")
    hits = after["cache_hits"] - before["cache_hits"]
    misses = after["cache_misses"] - before["cache_misses"]
    m, tail_info = tally.metrics(statistics.median(setup), hwm_kb / 1024)
    layers = {
        "serve.service_p50_ms": statistics.median(service_ms or [0.0]),
        "serve.outside_p50_ms": statistics.median(outside_ms or [0.0]),
        "serve.cache_hit_ratio": hits / max(1, hits + misses),
        "serve.rejected": rejected,
        "serve.rss_kb_per_distinct": (rss_after_kb - rss_before_kb) / max(1, distinct_sent[0]),
    }
    return m, tail_info, tally, layers


# --------------------------------------------------------------------------
# Traced in-process run


SERVE_LAYERS = ["serve.service_p50_ms", "serve.outside_p50_ms", "serve.cache_hit_ratio",
                "serve.rejected", "serve.rss_kb_per_distinct"]


def traced(tool, workload, jobs):
    """Replays the workload's first jobs through the layers in-process."""
    n = TRACE_JOBS[workload]
    subset = jobs if n is None else jobs[:n]
    write_manifest(os.path.join(WORK, "trace.tsv"), subset)
    # No progress lines from the recorder: they would cost the counting
    # pass time and fill standard error.
    env = dict(os.environ, PARRA_HEARTBEAT_MS=str(10**9))
    r = subprocess.run([tool, "trace", WORK, "trace.tsv", str(int(LIMIT_S * 1000))],
                       stdout=subprocess.PIPE, env=env, timeout=150)
    if r.returncode != 0:
        raise WrongVerdict("traced replay failed (see the message above)")
    return json.loads(r.stdout.decode().strip().splitlines()[-1]), len(subset)


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    parra, tool = build()
    jobs = prepare_inputs(parra, tool, args.workload, args.seed)
    try:
        if args.trace == 0:
            if args.workload == "litmus-serve":
                m, tail_info, tally, _ = litmus_serve(parra, jobs, args.seed, args.seconds)
            else:
                m, tail_info, tally = one_shot(parra, args.workload, jobs, args.seconds)
            pct, beyond, n = tail_info
            for name, unit in END_TO_END_UNITS.items():
                note = (f"  (p{pct:.2f}: {beyond} of {n} samples beyond)"
                        if name == "latency_tail_ms" else "")
                print(f"{args.workload:13} {name:17} {m[name]:12.4f} {unit}{note}")
            print(f"{args.workload:13} failed_ratio      {tally.failed / tally.attempted:12.4f} "
                  f"ratio  ({tally.failed} of {tally.attempted} attempted)")
            metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
            attempted, failed = tally.attempted, tally.failed
        else:
            ledger, attempted = traced(tool, args.workload, jobs)
            failed = 0
            serve = dict.fromkeys(SERVE_LAYERS, 0.0)
            if args.workload == "litmus-serve":
                _, _, tally, serve = litmus_serve(parra, jobs, args.seed, args.seconds)
                attempted += tally.attempted
                failed += tally.failed
            ledger.update(serve)
            for k, v in ledger.items():
                print(f"{args.workload:13} {k:28} {v:14.3f}")
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in ledger.items()}
    except WrongVerdict as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name):
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_ratio", "ratio"),
                         ("_per_distinct", "kB")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
