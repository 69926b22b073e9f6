#!/usr/bin/env python3
"""End-to-end smoke test for hdserver + hdclient (run by CI).

Phases (docs/SERVER.md):
  0. flags: hdserver, hdclient and hdreshard each answer --help with exit 0
     and a usage text naming every flag they accept, refuse a malformed
     value with exit 2 and "invalid value for", and refuse an unknown flag
     with exit 2;
  1. cold server on a small corpus: every request answers 200, repeats hit
     the result cache, /v1/admin/snapshot persists the warm state;
  2. restart from the snapshot: the replayed corpus reports cache hits and
     /v1/stats shows the restored entry count;
  3. overload: a single-worker server with a tiny admission bound floods
     past the queue bound and sheds with 429 instead of queueing or hanging;
  4. sharding: two shard servers behind a --route-to proxy — deterministic
     fingerprint-range routing (resubmits hit the same shard's cache),
     keep-alive forwards (replaying the corpus through the router opens far
     fewer shard connections than it routes requests),
     aggregated stats summing across shards, per-shard snapshots, and a
     warm restart of ONE shard that serves its instances as cache hits
     while the other shard is untouched; then observability: /v1/metrics
     on the router and both shards parses as Prometheus text with
     populated stage histograms, and a proxied sync decompose carries an
     X-HTD-Request-Id whose root span is retrievable from the owning
     shard's /v1/trace plus a Server-Timing stage breakdown;
  5. live resharding: a 2→3 reshard (the third range replicated across two
     processes) driven by hdreshard UNDER CONCURRENT TRAFFIC — zero 421s,
     zero lost cache hits during and after the transition — then one
     replica of the new range is killed and the router keeps serving the
     range's warm entries from the survivor;
  6. anti-entropy: a replicated range behind the router, one replica killed
     under traffic and revived COLD with --anti-entropy-interval — with
     zero operator action its background sweep pulls the sibling's warm
     state until htd_cache_entries matches, after which the full corpus
     replays against the revived replica as cache hits (htd_cache_hits_total
     advances by the corpus size, htd_cache_misses_total not at all);
  7. query answering: an HTDQUERY1 corpus against a 2-shard fleet behind
     the router — cold answers carry verified witnesses and exact counts,
     the warm replay reports cache_hit (every decomposition probe served
     from the result cache, htd_cache_hits_total advancing fleet-wide),
     htd_query_seconds stage histograms populate, and an async query job
     round-trips through the router's job-id prefixing.

Usage: tools/server_smoke.py [BUILD_DIR]   (default: ./build)
Exits non-zero with a FAIL line on the first broken property.
"""

import json
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

BUILD = Path(sys.argv[1] if len(sys.argv) > 1 else "build").resolve()
HDSERVER = BUILD / "hdserver"
HDCLIENT = BUILD / "hdclient"
HDRESHARD = BUILD / "hdreshard"
CLIENT_TIMEOUT = 60  # seconds per hdclient invocation; a hang is a failure


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def client(port, *args, expect_exit=0):
    """Runs hdclient, enforcing a wall-clock bound (no hangs allowed)."""
    cmd = [str(HDCLIENT), "--port", str(port), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CLIENT_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"hdclient hung: {' '.join(cmd)}")
    if expect_exit is not None and proc.returncode != expect_exit:
        fail(f"{' '.join(cmd)} exited {proc.returncode} "
             f"(expected {expect_exit}): {proc.stdout}{proc.stderr}")
    return proc


def start_server(port, *extra):
    proc = subprocess.Popen(
        [str(HDSERVER), "--port", str(port), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.time() + 20
    while time.time() < deadline:
        if proc.poll() is not None:
            fail(f"hdserver exited early:\n{proc.stdout.read()}")
        try:
            probe = subprocess.run(
                [str(HDCLIENT), "--port", str(port), "stats"],
                capture_output=True, timeout=5)
            if probe.returncode == 0:
                return proc
        except subprocess.TimeoutExpired:
            pass
        time.sleep(0.2)
    proc.kill()
    fail("hdserver did not become ready within 20s")


def stop_server(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("hdserver did not shut down on SIGTERM within 20s")


# Every flag each tool accepts; a flag missing from --help was dropped.
TOOL_FLAGS = {
    "hdserver": (
        "--host", "--port", "--io-threads", "--loop-threads", "--workers",
        "--threads", "--solver", "--queue-depth", "--max-connections",
        "--idle-timeout", "--header-timeout", "--write-timeout",
        "--default-timeout", "--cache-capacity", "--store",
        "--store-budget-mb", "--max-k", "--snapshot", "--snapshot-interval",
        "--no-load", "--no-save-on-exit", "--shard-map", "--shard-index",
        "--route-to", "--route-backoff", "--anti-entropy-interval",
        "--anti-entropy-slices", "--self"),
    "hdclient": (
        "--host", "--port", "--shards", "--k", "--timeout", "--count",
        "--connect-timeout", "--async", "--decomposition",
        "--expect-cache-hit", "--quiet", "--verbose", "--last"),
    "hdreshard": ("--from", "--to", "--router", "--timeout", "--dry-run"),
}


def flag_phase():
    bad_value = {"hdserver": "--port", "hdclient": "--port",
                 "hdreshard": "--timeout"}
    for tool, flags in TOOL_FLAGS.items():
        binary = str(BUILD / tool)

        def run(*args):
            return subprocess.run([binary, *args], capture_output=True,
                                  text=True, timeout=CLIENT_TIMEOUT)

        shown = run("--help")
        if shown.returncode != 0:
            fail(f"{tool} --help exited {shown.returncode}")
        listed = set(re.findall(r"(?<![\w-])(--[a-z][a-z-]*)",
                                shown.stdout + shown.stderr))
        missing = [flag for flag in flags if flag not in listed]
        if missing:
            fail(f"{tool} --help does not list {missing}")
        bad = run(bad_value[tool], "x")
        if bad.returncode != 2 or "invalid value for" not in bad.stderr:
            fail(f"{tool} {bad_value[tool]} x exited {bad.returncode}: "
                 f"{bad.stderr[:200]}")
        unknown = run("--no-such-flag")
        if unknown.returncode != 2 or "unknown flag" not in unknown.stderr:
            fail(f"{tool} --no-such-flag exited {unknown.returncode}: "
                 f"{unknown.stderr[:200]}")


def write_corpus(workdir):
    """Small instances with known answers plus one deliberately hard one."""
    instances = {}
    # Path (hw 1) and a 6-cycle (hw 2).
    instances["path.hg"] = "e1(a,b),\ne2(b,c),\ne3(c,d),\ne4(d,e).\n"
    cycle = [f"c{i}(v{i},v{(i + 1) % 6})" for i in range(6)]
    instances["cycle.hg"] = ",\n".join(cycle) + ".\n"
    # 4x4 grid.
    grid = []
    for i in range(4):
        for j in range(4):
            if j + 1 < 4:
                grid.append(f"h{i}_{j}(g{i}_{j},g{i}_{j + 1})")
            if i + 1 < 4:
                grid.append(f"v{i}_{j}(g{i}_{j},g{i + 1}_{j})")
    instances["grid.hg"] = ",\n".join(grid) + ".\n"
    # K24 at k=4 runs for minutes — it exists to pin the worker in phase 3.
    clique = [f"e{i}_{j}(v{i},v{j})" for i in range(24) for j in range(i + 1, 24)]
    instances["clique24.hg"] = ",\n".join(clique) + ".\n"
    for name, text in instances.items():
        (workdir / name).write_text(text)
    return ["path.hg", "cycle.hg", "grid.hg"]


def shard_of(fingerprint_hex, num_shards):
    """Mirrors ShardMap::IndexFor: floor(hi / step) over equal hi-slices."""
    hi = int(fingerprint_hex[:16], 16)
    if num_shards == 1:
        return 0
    step = ((1 << 64) - 1) // num_shards + 1
    return min(num_shards - 1, hi // step)


STAGES = ("parse", "fingerprint", "cache", "schedule", "solve", "serialise")
ADMISSION = "htd_admission_requests_total"
ACCEPTED = "htd_connections_accepted_total"
RESTORED = "htd_snapshot_restored_entries"


def scrape(port, path):
    """GET an endpoint directly; returns (status, headers, body)."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


def metric(stats, family, label=None):
    """One series of a /v1/stats body's metrics object (backend or router):
    the registry family as named on /v1/metrics, indexed by label value."""
    value = stats["metrics"][family]
    return value if label is None else value[label]


def parse_prometheus(text, source):
    """Every sample line must be `name[{labels}] value`; returns the map."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            series[key] = float(value)
        except ValueError:
            fail(f"{source}: unparseable metrics line: {line!r}")
        if not key:
            fail(f"{source}: metrics line without a name: {line!r}")
    if not series:
        fail(f"{source}: /v1/metrics rendered no samples")
    return series


def observability_checks(workdir, port_r, port_a, port_b, shard0_instance):
    """Metrics scrapes + end-to-end request-id propagation (phase 4b)."""
    # Cache hits skip the schedule/solve stages by design, and shard 0 has
    # served nothing BUT cache hits since its warm restart — land one fresh
    # solve on each shard so every stage histogram below is populated.
    fresh = {0: 0, 1: 0}
    for length in range(40, 80):
        name = f"obs_path{length}.hg"
        (workdir / name).write_text(
            ",\n".join(f"o{i}(w{i},w{i + 1})" for i in range(length)) + ".\n")
        body = json.loads(client(port_r, "decompose", str(workdir / name),
                                 "--k", "2", "--timeout", "30").stdout)
        fresh[shard_of(body["fingerprint"], 2)] += 1
        if fresh[0] and fresh[1]:
            break
    else:
        fail("could not land a fresh solve on both shards in 40 tries")

    # Every endpoint renders parseable Prometheus text with the stage
    # histograms populated by the traffic the phase already ran.
    for source, port in (("shard 0", port_a), ("shard 1", port_b),
                         ("router", port_r)):
        status, headers, text = scrape(port, "/v1/metrics")
        if status != 200:
            fail(f"{source}: /v1/metrics answered {status}")
        if "version=0.0.4" not in headers.get("Content-Type", ""):
            fail(f"{source}: wrong metrics content type: "
                 f"{headers.get('Content-Type')}")
        series = parse_prometheus(text, source)
        for stage in STAGES:
            key = f'htd_stage_seconds_count{{stage="{stage}"}}'
            if series.get(key, 0) <= 0:
                fail(f"{source}: stage histogram {key} is empty")
    # The router's page is the fleet aggregate plus its own series.
    status, _, text = scrape(port_r, "/v1/metrics")
    series = parse_prometheus(text, "router")
    if series.get("htd_fleet_endpoints_scraped", 0) != 2:
        fail(f"router scraped {series.get('htd_fleet_endpoints_scraped')} "
             f"of 2 endpoints")
    if not any(k.startswith("htd_router_request_seconds") for k in series):
        fail("router page is missing its own htd_router_request_seconds")

    # A proxied sync decompose returns the request id the router minted;
    # the same id must be a root span on the owning shard (shard 0), and
    # Server-Timing must carry the full stage breakdown.
    proc = client(port_r, "decompose", str(workdir / shard0_instance),
                  "--k", "2", "--expect-cache-hit", "--verbose")
    id_match = re.search(r"hdclient: request id ([0-9a-f]{16})", proc.stderr)
    if not id_match:
        fail(f"no request id in verbose output: {proc.stderr}")
    request_id = id_match.group(1)
    timing = re.search(r"hdclient: server timing (.*)", proc.stderr)
    if not timing:
        fail(f"no Server-Timing in verbose output: {proc.stderr}")
    for stage in STAGES:
        if f"{stage};dur=" not in timing.group(1):
            fail(f"Server-Timing is missing stage {stage}: {timing.group(1)}")
    status, _, trace_body = scrape(port_a, "/v1/trace?n=64")
    if status != 200:
        fail(f"shard 0 /v1/trace answered {status}")
    traces = json.loads(trace_body)
    root_ids = [t["id"] for t in traces["traces"]]
    if request_id not in root_ids:
        fail(f"request id {request_id} not among shard 0 root spans "
             f"{root_ids[:8]}")
    print(f"phase 4b OK: metrics parse on router + 2 shards with populated "
          f"stage histograms; request id {request_id} propagated "
          f"router -> shard 0 trace with full Server-Timing")


def shard_phase(workdir):
    """Phase 4: two shards behind a proxy-mode router."""
    port_a, port_b, port_r = free_port(), free_port(), free_port()
    shard_map = f"127.0.0.1:{port_a},127.0.0.1:{port_b}"
    snap = {0: workdir / "shard0.snap", 1: workdir / "shard1.snap"}

    def start_shard(index, port):
        return start_server(port, "--shard-map", shard_map, "--shard-index",
                            str(index), "--snapshot", str(snap[index]),
                            "--workers", "2")

    shards = {0: start_shard(0, port_a), 1: start_shard(1, port_b)}
    router = start_server(port_r, "--route-to", shard_map)

    # Find instances on BOTH sides of the range split: paths of growing
    # length have effectively uniform fingerprints, so a handful suffices.
    by_shard = {0: [], 1: []}
    for length in range(3, 33):
        name = f"shard_path{length}.hg"
        text = ",\n".join(f"e{i}(n{i},n{i + 1})" for i in range(length)) + ".\n"
        (workdir / name).write_text(text)
        proc = client(port_r, "decompose", str(workdir / name), "--k", "2",
                      "--timeout", "30")
        body = json.loads(proc.stdout)
        if body["cache_hit"]:
            fail(f"{name}: first submission must not be a cache hit")
        owner = shard_of(body["fingerprint"], 2)
        if len(by_shard[owner]) < 2:
            by_shard[owner].append(name)
        if len(by_shard[0]) >= 2 and len(by_shard[1]) >= 2:
            break
    else:
        fail("could not find instances for both shards in 30 tries")
    corpus = by_shard[0] + by_shard[1]

    # Deterministic routing: resubmission through the router must land on
    # the shard that solved it — i.e. answer from that shard's cache.
    for name in corpus:
        client(port_r, "decompose", str(workdir / name), "--k", "2",
               "--expect-cache-hit", "--quiet")

    # Keep-alive forwards: replaying the corpus reuses the router's pooled
    # upstream connections instead of opening one per routed request (the
    # count includes this phase's own two stats scrapes per shard).
    rounds = 10
    accepted = {i: metric(json.loads(client(p, "stats").stdout), ACCEPTED)
                for i, p in ((0, port_a), (1, port_b))}
    for _ in range(rounds):
        for name in corpus:
            client(port_r, "decompose", str(workdir / name), "--k", "2",
                   "--expect-cache-hit", "--quiet")
    opened = {}
    for index, port in ((0, port_a), (1, port_b)):
        grew = metric(json.loads(client(port, "stats").stdout), ACCEPTED) - \
            accepted[index]
        routed = rounds * len(by_shard[index])
        opened[index] = f"{routed} routed/{grew:g} accepted"
        if grew * 4 > routed:
            fail(f"shard {index}: {routed} routed requests opened {grew} "
                 f"connections (router forwards are not kept alive?)")

    # Per-shard stats confirm the split, aggregated stats sum across shards.
    stats = {i: json.loads(client(p, "stats").stdout)
             for i, p in ((0, port_a), (1, port_b))}
    for index in (0, 1):
        hits = metric(stats[index], "htd_scheduler_cache_hits_total")
        if hits < len(by_shard[index]):
            fail(f"shard {index}: expected >= {len(by_shard[index])} cache "
                 f"hits, got {hits} (routing not deterministic?)")
        if not stats[index]["shard"]["enabled"]:
            fail(f"shard {index}: /v1/stats does not report sharding")
    router_stats = json.loads(client(port_r, "stats").stdout)
    agg_hits = metric(router_stats, "htd_scheduler_cache_hits_total")
    want_hits = sum(metric(stats[i], "htd_scheduler_cache_hits_total")
                    for i in (0, 1))
    if agg_hits != want_hits:
        fail(f"aggregated cache_hits {agg_hits} != sum of shards {want_hits}")
    agg_admitted = metric(router_stats, ADMISSION, "admitted")
    want_admitted = sum(metric(stats[i], ADMISSION, "admitted")
                        for i in (0, 1))
    if agg_admitted != want_admitted:
        fail(f"aggregated admitted {agg_admitted} != {want_admitted}")

    # Snapshot through the router: every shard persists its own range.
    client(port_r, "snapshot", "--quiet")
    for index in (0, 1):
        if not snap[index].exists():
            fail(f"shard {index} snapshot was not written")

    # Restart ONLY shard 0 from its snapshot: its instances replay as cache
    # hits, and shard 1 must not see any of this.
    before_b = json.loads(client(port_b, "stats").stdout)
    stop_server(shards[0])
    shards[0] = start_shard(0, port_a)
    restarted = json.loads(client(port_a, "stats").stdout)
    restored = metric(restarted, RESTORED, "cache")
    if restored < len(by_shard[0]):
        fail(f"shard 0 restored {restored} entries, "
             f"expected >= {len(by_shard[0])}")
    for name in by_shard[0]:
        client(port_r, "decompose", str(workdir / name), "--k", "2",
               "--expect-cache-hit", "--quiet")
    after_b = json.loads(client(port_b, "stats").stdout)
    if metric(after_b, ADMISSION, "admitted") != \
            metric(before_b, ADMISSION, "admitted"):
        fail("shard 1 saw traffic during shard 0's warm restart")

    # Observability rides on the warm fleet: stage histograms are already
    # populated (including on the restarted shard) and the cache-hit path
    # still stitches request ids end to end.
    observability_checks(workdir, port_r, port_a, port_b, by_shard[0][0])

    stop_server(router)
    for proc in shards.values():
        stop_server(proc)
    print(f"phase 4 OK: routed {len(corpus)} instances across 2 shards "
          f"({len(by_shard[0])}/{len(by_shard[1])} split), keep-alive "
          f"forwards ({opened[0]}, {opened[1]}), aggregate stats "
          f"consistent, per-shard warm restart served "
          f"{len(by_shard[0])} cache hits")


def reshard_phase(workdir):
    """Phase 5: live 2→3 reshard (replicated third range) under traffic."""
    p0, p1, p2, p3, port_r = (free_port() for _ in range(5))
    old_map = f"127.0.0.1:{p0},127.0.0.1:{p1}"
    new_map = f"127.0.0.1:{p0},127.0.0.1:{p1},127.0.0.1:{p2}*2,127.0.0.1:{p3}"

    servers = {
        0: start_server(p0, "--shard-map", old_map, "--shard-index", "0",
                        "--workers", "2"),
        1: start_server(p1, "--shard-map", old_map, "--shard-index", "1",
                        "--workers", "2"),
    }
    router = start_server(port_r, "--route-to", old_map)

    # Warm corpus through the router; remember each instance's fingerprint
    # so we know which land on the NEW third range.
    corpus = []
    for length in range(3, 20):
        name = f"reshard_path{length}.hg"
        text = ",\n".join(f"r{i}(m{i},m{i + 1})" for i in range(length)) + ".\n"
        (workdir / name).write_text(text)
        proc = client(port_r, "decompose", str(workdir / name), "--k", "2",
                      "--timeout", "30")
        body = json.loads(proc.stdout)
        if body["cache_hit"]:
            fail(f"{name}: first submission must not be a cache hit")
        corpus.append((name, body["fingerprint"]))
    moved_to_new_range = [name for name, fp in corpus if shard_of(fp, 3) == 2]
    if not moved_to_new_range:
        fail("no instance lands on the new third range in 17 tries")

    # Concurrent traffic for the whole transition: every request must be a
    # 200 cache hit — a 421 (exit 3) or a lost warm entry (exit 5) fails.
    stop = threading.Event()
    traffic_failures = []
    traffic_count = [0]

    def traffic():
        while not stop.is_set():
            for name, _ in corpus:
                if stop.is_set():
                    break
                proc = client(port_r, "decompose", str(workdir / name),
                              "--k", "2", "--expect-cache-hit", "--quiet",
                              expect_exit=None)
                traffic_count[0] += 1
                if proc.returncode != 0:
                    traffic_failures.append(
                        (name, proc.returncode, proc.stderr.strip()))

    thread = threading.Thread(target=traffic)
    thread.start()

    try:
        # The joining replicas come up with the NEW map, then hdreshard
        # drives announce → prepare → migrate → flip → finalise → verify.
        servers[2] = start_server(p2, "--shard-map", new_map, "--shard-index",
                                  "2", "--workers", "2")
        servers[3] = start_server(p3, "--shard-map", new_map, "--shard-index",
                                  "2", "--workers", "2")
        reshard = subprocess.run(
            [str(HDRESHARD), "--from", old_map, "--to", new_map,
             "--router", f"127.0.0.1:{port_r}"],
            capture_output=True, text=True, timeout=120)
        if reshard.returncode != 0:
            fail(f"hdreshard exited {reshard.returncode}:\n"
                 f"{reshard.stdout}{reshard.stderr}")
        # Its summary reads the donors' and receivers' migration counters
        # off /v1/metrics: entries left the donors and the new owners took
        # them in.
        done = re.search(r"(\d+) entries pushed out, (\d+) accepted",
                         reshard.stdout)
        if not done or int(done.group(1)) == 0 or int(done.group(2)) == 0:
            fail(f"hdreshard reported no moved entries:\n{reshard.stdout}")
    finally:
        stop.set()
        thread.join()
    if traffic_failures:
        fail(f"traffic during reshard broke ({len(traffic_failures)} of "
             f"{traffic_count[0]}): {traffic_failures[:5]}")
    if traffic_count[0] == 0:
        fail("no traffic ran during the reshard window")

    # After the reshard: every pre-reshard entry still hits through the
    # router (the acceptance bar is >= 95%; we require all of them).
    for name, _ in corpus:
        client(port_r, "decompose", str(workdir / name), "--k", "2",
               "--expect-cache-hit", "--quiet")

    # Kill ONE replica of the new range: the router fails over and keeps
    # serving the range's warm entries from the survivor.
    stop_server(servers.pop(2))
    for name in moved_to_new_range:
        client(port_r, "decompose", str(workdir / name), "--k", "2",
               "--expect-cache-hit", "--quiet")

    stop_server(router)
    for proc in servers.values():
        stop_server(proc)
    print(f"phase 5 OK: live 2→3 reshard under {traffic_count[0]} concurrent "
          f"requests with zero 421s/lost hits; {len(moved_to_new_range)} "
          f"entries moved to the replicated range and survived a replica kill")


def anti_entropy_phase(workdir):
    """Phase 6: a cold-revived replica converges by itself."""
    pa, pb, port_r = free_port(), free_port(), free_port()
    shard_map = f"127.0.0.1:{pa}*2,127.0.0.1:{pb}"

    def start_replica(port):
        return start_server(port, "--shard-map", shard_map, "--shard-index",
                            "0", "--self", f"127.0.0.1:{port}",
                            "--anti-entropy-interval", "0.25", "--workers", "2")

    replicas = {pa: start_replica(pa), pb: start_replica(pb)}
    router = start_server(port_r, "--route-to", shard_map)

    # Warm the range through the router, then let one background sweep
    # round replicate the entries to whichever replica did not solve them.
    corpus = []
    for length in range(3, 15):
        name = f"ae_path{length}.hg"
        text = ",\n".join(f"a{i}(q{i},q{i + 1})" for i in range(length)) + ".\n"
        (workdir / name).write_text(text)
        proc = client(port_r, "decompose", str(workdir / name), "--k", "2",
                      "--timeout", "30")
        if json.loads(proc.stdout)["cache_hit"]:
            fail(f"{name}: first submission must not be a cache hit")
        corpus.append(name)

    def cache_series(port):
        status, _, text = scrape(port, "/v1/metrics")
        if status != 200:
            fail(f"replica :{port}: /v1/metrics answered {status}")
        series = parse_prometheus(text, f"replica :{port}")
        return {key: series.get(key, 0.0)
                for key in ("htd_cache_entries", "htd_cache_hits_total",
                            "htd_cache_misses_total")}

    def await_entries(port, want, deadline_seconds, why):
        deadline = time.time() + deadline_seconds
        while time.time() < deadline:
            if cache_series(port)["htd_cache_entries"] >= want:
                return
            time.sleep(0.2)
        fail(f"replica :{port} never reached {want} cache entries ({why}): "
             f"{cache_series(port)}")

    await_entries(pa, len(corpus), 15, "initial sweep")
    await_entries(pb, len(corpus), 15, "initial sweep")

    # Kill replica B under sustained traffic; the router fails over to A.
    # A request that lands on B mid-drain gets its 503 proxied through
    # (hdclient exit 4) — that is the documented retry-with-backoff
    # contract, not a lost entry, so it is tolerated. Anything else (a 421,
    # a cache miss, a 5xx from the survivor) fails the phase.
    stop = threading.Event()
    traffic_failures = []
    sheds = [0]

    def traffic():
        while not stop.is_set():
            for name in corpus:
                if stop.is_set():
                    break
                proc = client(port_r, "decompose", str(workdir / name),
                              "--k", "2", "--expect-cache-hit", "--quiet",
                              expect_exit=None)
                if proc.returncode == 4:
                    sheds[0] += 1
                elif proc.returncode != 0:
                    traffic_failures.append((name, proc.returncode))

    thread = threading.Thread(target=traffic)
    thread.start()
    try:
        stop_server(replicas.pop(pb))
        time.sleep(1.0)  # traffic keeps flowing against the survivor
    finally:
        stop.set()
        thread.join()
    if traffic_failures:
        fail(f"traffic broke during the kill window: {traffic_failures[:5]}")

    # Revive B COLD: no snapshot, empty cache, and no routed traffic that
    # could warm it organically. Nobody posts a sync either — the
    # background sweep alone must refill it.
    replicas[pb] = start_replica(pb)
    await_entries(pb, len(corpus), 30, "cold revival, anti-entropy only")

    # The revived replica's hit rate converges to the sibling's: replaying
    # the full corpus directly against B is all hits and zero new misses.
    before = cache_series(pb)
    for name in corpus:
        client(pb, "decompose", str(workdir / name), "--k", "2",
               "--expect-cache-hit", "--quiet")
    after = cache_series(pb)
    hits = after["htd_cache_hits_total"] - before["htd_cache_hits_total"]
    misses = after["htd_cache_misses_total"] - before["htd_cache_misses_total"]
    if hits < len(corpus) or misses > 0:
        fail(f"revived replica is not warm: +{hits} hits, +{misses} misses "
             f"over {len(corpus)} replays")
    sibling = cache_series(pa)
    if after["htd_cache_entries"] != sibling["htd_cache_entries"]:
        fail(f"replica caches did not converge: {after['htd_cache_entries']} "
             f"vs sibling {sibling['htd_cache_entries']}")

    # The sweep surfaced in observability: counted rounds and pulled bytes.
    status, _, text = scrape(pb, "/v1/metrics")
    series = parse_prometheus(text, "revived replica")
    if series.get('htd_antientropy_rounds_total{result="ok"}', 0) <= 0:
        fail("revived replica reports no successful anti-entropy rounds")
    if series.get("htd_antientropy_bytes_total", 0) <= 0:
        fail("revived replica reports zero anti-entropy bytes pulled")

    stop_server(router)
    for proc in replicas.values():
        stop_server(proc)
    print(f"phase 6 OK: cold-revived replica pulled {len(corpus)} entries by "
          f"anti-entropy alone and replayed the corpus warm "
          f"({int(hits)} hits, {int(misses)} misses; {sheds[0]} retryable "
          f"sheds during the drain window)")


def write_query_request(path, length):
    """Canonical HTDQUERY1 chain query R0(V0,V1), ..., each relation holding
    {(1,1), (2,3)} — exactly one satisfying assignment (all variables 1)."""
    atoms = ", ".join(f"R{i}(V{i},V{i + 1})" for i in range(length))
    lines = [f"HTDQUERY1 {length}", f"QUERY {atoms}."]
    for i in range(length):
        lines += [f"REL R{i} 2 2", "1 1", "2 3"]
    lines.append("END")
    path.write_text("\n".join(lines) + "\n")


def query_phase(workdir):
    """Phase 7: decompose-and-execute query answering across a shard fleet."""
    port_a, port_b, port_r = free_port(), free_port(), free_port()
    shard_map = f"127.0.0.1:{port_a},127.0.0.1:{port_b}"
    shards = {
        0: start_server(port_a, "--shard-map", shard_map, "--shard-index", "0",
                        "--workers", "2"),
        1: start_server(port_b, "--shard-map", shard_map, "--shard-index", "1",
                        "--workers", "2"),
    }
    router = start_server(port_r, "--route-to", shard_map)

    # Cold pass: grow the corpus until both shards own at least one query
    # (a chain query's hypergraph is a path, so fingerprints spread
    # uniformly). Every cold answer must carry a correct witness and count.
    by_shard = {0: [], 1: []}
    corpus = []
    for length in range(3, 33):
        name = f"query_chain{length}.qr"
        write_query_request(workdir / name, length)
        proc = client(port_r, "query", str(workdir / name),
                      "--timeout", "30")
        body = json.loads(proc.stdout)
        if body["outcome"] != "satisfiable":
            fail(f"{name}: expected satisfiable, got {body['outcome']}")
        if body["cache_hit"]:
            fail(f"{name}: cold query must not be a decompose cache hit")
        if body["count"] != 1 or body.get("count_saturated"):
            fail(f"{name}: expected exactly 1 answer, got {body['count']}")
        witness = body["witness"]
        if len(witness) != length + 1 or any(v != 1 for v in witness.values()):
            fail(f"{name}: wrong witness {witness} (expected all 1s)")
        owner = shard_of(body["fingerprint"], 2)
        corpus.append(name)
        if len(by_shard[owner]) < 2:
            by_shard[owner].append(name)
        if len(by_shard[0]) >= 2 and len(by_shard[1]) >= 2:
            break
    else:
        fail("could not land queries on both shards in 30 tries")

    # Warm pass: every decomposition probe (the k-sweep and the diversity
    # probes) answers from the owning shard's result cache — the response
    # says so, and the fleet-wide cache-hit counter advances accordingly.
    status, _, text = scrape(port_r, "/v1/metrics")
    before = parse_prometheus(text, "router").get("htd_cache_hits_total", 0)
    for name in corpus:
        client(port_r, "query", str(workdir / name), "--expect-cache-hit",
               "--quiet")
    status, _, text = scrape(port_r, "/v1/metrics")
    series = parse_prometheus(text, "router")
    delta = series.get("htd_cache_hits_total", 0) - before
    if delta < len(corpus):
        fail(f"warm query pass advanced htd_cache_hits_total by {delta}, "
             f"expected >= {len(corpus)}")

    # Query observability on the aggregated page: per-stage histograms and
    # the outcome counter populated by the traffic above.
    for stage in ("decompose", "pick", "execute"):
        key = f'htd_query_seconds_count{{stage="{stage}"}}'
        if series.get(key, 0) <= 0:
            fail(f"query stage histogram {key} is empty")
    if series.get('htd_queries_total{outcome="satisfiable"}', 0) < len(corpus):
        fail("htd_queries_total{outcome=satisfiable} below corpus size")
    if series.get('htd_query_portfolio_picks_total{pick="first"}', 0) + \
            series.get('htd_query_portfolio_picks_total{pick="alternative"}',
                       0) < len(corpus):
        fail("portfolio pick counters below corpus size")

    # Async query through the router: the job id comes back prefixed
    # s<shard>r<replica>.q<N> and polls to the same verified answer.
    proc = client(port_r, "query", str(workdir / corpus[0]), "--async")
    job_id = json.loads(proc.stdout)["job"]
    if not re.fullmatch(r"s\dr\d+\.q\d+", job_id):
        fail(f"async query job id {job_id!r} is not router-prefixed")
    deadline = time.time() + 30
    while True:
        body = json.loads(client(port_r, "job", job_id).stdout)
        if body["state"] == "done":
            break
        if time.time() > deadline:
            fail(f"async query job {job_id} never finished")
        time.sleep(0.2)
    result = body["result"]
    if result["outcome"] != "satisfiable" or result["count"] != 1:
        fail(f"async query result wrong: {result}")

    stop_server(router)
    for proc in shards.values():
        stop_server(proc)
    print(f"phase 7 OK: {len(corpus)} queries answered with verified "
          f"witnesses ({len(by_shard[0])}/{len(by_shard[1])} shard split), "
          f"warm replay all cache hits (+{int(delta)} fleet-wide), async "
          f"query job {job_id} round-tripped")


def read_http_response(sock):
    """Reads one HTTP response off a keep-alive socket (Content-Length framed)."""
    sock.settimeout(30)
    blob = b""
    while b"\r\n\r\n" not in blob:
        chunk = sock.recv(4096)
        if not chunk:
            return blob
        blob += chunk
    head, _, body = blob.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1].strip())
    while len(body) < length:
        chunk = sock.recv(4096)
        if not chunk:
            break
        body += chunk
    return head + b"\r\n\r\n" + body


def keepalive_scale_phase(workdir, snapshot):
    """Phase 8: ~2000 idle keep-alives held through a warm restart, zero sheds.

    The epoll core must admit connections up to --max-connections no matter
    how few io/loop threads it runs; the thread-per-connection core this
    replaced would have shed at the thread count.
    """
    target = 2000
    try:
        import resource
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        want = target * 2 + 512
        if soft < want:
            new_soft = want if hard == resource.RLIM_INFINITY \
                else min(want, hard)
            resource.setrlimit(resource.RLIMIT_NOFILE, (new_soft, hard))
    except (ImportError, ValueError, OSError) as error:
        fail(f"phase 8: cannot raise RLIMIT_NOFILE for {target} sockets: "
             f"{error}")

    def hold_and_check(port, label):
        conns = []
        try:
            for _ in range(target):
                conns.append(socket.create_connection(("127.0.0.1", port),
                                                      timeout=10))
            deadline = time.time() + 30
            idle = -1
            while time.time() < deadline:
                _, _, text = scrape(port, "/v1/metrics")
                series = parse_prometheus(text, f"phase 8 {label}")
                idle = series.get('htd_connections{state="idle"}', 0)
                if idle >= target:
                    break
                time.sleep(0.2)
            if idle < target:
                fail(f"phase 8 {label}: only {idle} idle connections held "
                     f"(want >= {target})")
            shed = series.get("htd_connections_shed_total", -1)
            if shed != 0:
                fail(f"phase 8 {label}: {shed} connections shed while under "
                     f"the bound — admission is NOT io_threads-independent")
            # The held sockets are served, not parked: a sample answers.
            for probe in (conns[0], conns[target // 2], conns[-1]):
                probe.sendall(b"GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n")
                blob = read_http_response(probe)
                if b" 200 " not in blob.split(b"\r\n", 1)[0]:
                    fail(f"phase 8 {label}: held connection answered "
                         f"{blob[:80]!r}")
            # And new work is still admitted alongside the held mass.
            client(port, "stats", "--quiet")
        finally:
            for conn in conns:
                conn.close()

    args = ("--snapshot", str(snapshot), "--workers", "2",
            "--io-threads", "2", "--loop-threads", "2",
            "--max-connections", str(target + 64),
            "--idle-timeout", "300")
    port = free_port()
    server = start_server(port, *args)
    hold_and_check(port, "cold")
    stop_server(server)  # 2000 idle conns must not stall the drain

    # Warm restart: the same mass held again against the restored process.
    port = free_port()
    server = start_server(port, *args)
    hold_and_check(port, "warm")
    stats = json.loads(client(port, "stats").stdout)
    if metric(stats, RESTORED, "cache") < 1:
        fail("phase 8: warm restart restored no cache entries")
    stop_server(server)
    print(f"phase 8 OK: {target} idle keep-alives held through a warm "
          f"restart on 2 io-threads, zero sheds")


def main():
    for binary in (HDSERVER, HDCLIENT, HDRESHARD):
        if not binary.exists():
            fail(f"{binary} not built")
    flag_phase()
    print("phase 0 OK: every tool lists its flags, refuses bad values and "
          "unknown flags with exit 2")

    workdir = Path(tempfile.mkdtemp(prefix="hdserver_smoke_"))
    snapshot = workdir / "warm.snap"
    corpus = write_corpus(workdir)

    # --- Phase 1: cold serve + snapshot. -----------------------------------
    port = free_port()
    server = start_server(port, "--snapshot", str(snapshot), "--workers", "2")
    for name in corpus:
        proc = client(port, "decompose", str(workdir / name), "--k", "3",
                      "--timeout", "30")
        body = json.loads(proc.stdout)
        if body["outcome"] not in ("yes", "no"):
            fail(f"{name}: unexpected outcome {body['outcome']}")
        if body["cache_hit"]:
            fail(f"{name}: cold pass must not be a cache hit")
    # Identical resubmission: served from memory.
    client(port, "decompose", str(workdir / corpus[0]), "--k", "3",
           "--expect-cache-hit", "--quiet")
    client(port, "snapshot", "--quiet")
    if not snapshot.exists():
        fail("snapshot file was not written")
    stop_server(server)
    print("phase 1 OK: cold serve, cache hit on resubmit, snapshot written")

    # --- Phase 2: warm restart from the snapshot. --------------------------
    port = free_port()
    server = start_server(port, "--snapshot", str(snapshot), "--workers", "2")
    for name in corpus:
        client(port, "decompose", str(workdir / name), "--k", "3",
               "--expect-cache-hit", "--quiet")
    stats = json.loads(client(port, "stats").stdout)
    restored = metric(stats, RESTORED, "cache")
    if restored < len(corpus):
        fail(f"expected >= {len(corpus)} restored cache entries, got {restored}")
    # Idle fleet: every cache hit has resolved, so no executor worker should
    # still be running a task.
    status, _, text = scrape(port, "/v1/metrics")
    if status != 200:
        fail(f"idle scrape: /v1/metrics answered {status}")
    series = parse_prometheus(text, "idle server")
    idle_busy = series.get("htd_executor_workers_busy", -1)
    if idle_busy != 0:
        fail(f"idle server reports {idle_busy} busy executor workers, want 0")
    if series.get("htd_executor_workers", 0) != 2:
        fail(f"idle server reports {series.get('htd_executor_workers')} "
             f"executor workers, want 2 (--workers 2)")
    stop_server(server)
    print(f"phase 2 OK: warm restart served {len(corpus)} cache hits "
          f"({restored} entries restored), executor idle after drain")

    # --- Phase 3: flood past the admission bound. --------------------------
    port = free_port()
    server = start_server(port, "--workers", "1", "--queue-depth", "2")
    accepted = shed = 0
    for _ in range(8):
        proc = client(port, "decompose", str(workdir / "clique24.hg"),
                      "--k", "4", "--timeout", "30", "--async", "--quiet",
                      expect_exit=None)
        if proc.returncode == 0:
            accepted += 1
        elif proc.returncode == 4:  # 429/503: load shed
            shed += 1
        else:
            fail(f"flood request failed unexpectedly (exit {proc.returncode}): "
                 f"{proc.stderr}")
    if accepted == 0:
        fail("flood: no request was admitted")
    if shed == 0:
        fail("flood: queue bound never shed load (server queues unboundedly?)")
    stats = json.loads(client(port, "stats").stdout)
    if metric(stats, ADMISSION, "shed") != shed:
        fail(f"stats disagree: {metric(stats, ADMISSION, 'shed')} != {shed}")
    # Saturated fleet: the pinned clique24 solves are still running, so the
    # whole executor (1 worker) must be busy — no idle capacity while work
    # is queued.
    status, _, text = scrape(port, "/v1/metrics")
    if status != 200:
        fail(f"flood scrape: /v1/metrics answered {status}")
    series = parse_prometheus(text, "flooded server")
    busy = series.get("htd_executor_workers_busy", -1)
    fleet = series.get("htd_executor_workers", 0)
    if fleet != 1:
        fail(f"flooded server reports {fleet} executor workers, want 1")
    if busy != fleet:
        fail(f"flood: {busy}/{fleet} executor workers busy; the fleet must "
             f"saturate while solves are pinned")
    stop_server(server)  # must cancel pinned solves promptly, not hang
    print(f"phase 3 OK: {accepted} admitted, {shed} shed with 429, "
          f"{busy}/{fleet} workers busy during the flood")

    # --- Phase 4: fingerprint-range sharding behind the router. ------------
    shard_phase(workdir)

    # --- Phase 5: live resharding + replication under traffic. -------------
    reshard_phase(workdir)

    # --- Phase 6: anti-entropy revival of a killed replica. ----------------
    anti_entropy_phase(workdir)

    # --- Phase 7: query answering across the shard fleet. ------------------
    query_phase(workdir)

    # --- Phase 8: idle keep-alive scale through a warm restart. ------------
    keepalive_scale_phase(workdir, snapshot)

    print("server_smoke: all phases passed")


if __name__ == "__main__":
    main()
