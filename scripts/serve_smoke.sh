#!/usr/bin/env bash
# End-to-end smoke test for rv serve, as run by the CI serve-smoke job.
#
#   1. boot a server, drive it with the seeded mixed workload, and diff
#      the reply transcript against test/golden/serve_mix.golden;
#   2. repeat at --jobs 2: the transcript must be byte-identical;
#   3. repeat with the cache disabled: byte-identical again;
#   4. boot with --queue 0 and a heavy mix: every compute query must be
#      shed with an "overloaded" reply while health stays answerable;
#   5. scrape the Prometheus exposition twice around extra traffic: the
#      body must parse, carry no duplicate series, declare a TYPE for
#      every sample, and every counter must be monotone; then every
#      JSON metrics counter must equal its rv_serve_<key>_total sample;
#   6. with --slow-us 0 every query is a retained anomaly: `rv obs tail`
#      must list them and `rv obs dump --chrome` must write a parseable
#      Chrome trace (kept as flight_dump.json for the CI artifact);
#   7. SIGINT each server and require the "drained" line (graceful drain).
#
# Usage: scripts/serve_smoke.sh [path-to-rv.exe]
# Runs from the repository root; leaves transcripts in $TMPDIR and the
# flight-recorder dump in ./flight_dump.json.

set -euo pipefail

RV=${1:-_build/default/bin/rv.exe}
GOLDEN=test/golden/serve_mix.golden
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

SEED=7
REQUESTS=60
CONNS=3

boot() { # boot <logfile> <extra-args...>; echoes "pid port"
  local log=$1; shift
  "$RV" serve --port 0 "$@" >"$log" 2>&1 &
  local pid=$!
  local port=""
  for _ in $(seq 1 50); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || { echo "server did not boot; log:" >&2; cat "$log" >&2; exit 1; }
  echo "$pid $port"
}

drain() { # drain <pid> <logfile>: SIGINT, then poll for the drained line
  # (the server is not a child of this shell -- it was spawned inside the
  # boot process substitution -- so `wait` cannot be used here)
  local pid=$1 log=$2
  kill -INT "$pid"
  for _ in $(seq 1 100); do
    if grep -q "rv serve: drained" "$log"; then return 0; fi
    sleep 0.1
  done
  echo "server did not drain gracefully; log:" >&2; cat "$log" >&2; exit 1
}

transcript() { # transcript <port> <outfile>
  local port=$1 out=$2
  # Full output to a file first: piping straight into head would SIGPIPE
  # loadgen on the trailing summary line and trip pipefail.
  "$RV" loadgen --port "$port" --conns $CONNS --requests $REQUESTS \
    --seed $SEED --mix mixed --dump --json >"$out.full"
  head -n $REQUESTS "$out.full" >"$out"
}

echo "== serve smoke: golden transcript at --jobs 1 =="
read -r PID PORT < <(boot "$TMP/j1.log" --jobs 1)
transcript "$PORT" "$TMP/j1.transcript"
drain "$PID" "$TMP/j1.log"
diff -u "$GOLDEN" "$TMP/j1.transcript"
echo "ok: -j1 matches the golden"

echo "== serve smoke: byte-identical at --jobs 2 =="
read -r PID PORT < <(boot "$TMP/j2.log" --jobs 2)
transcript "$PORT" "$TMP/j2.transcript"
drain "$PID" "$TMP/j2.log"
cmp "$TMP/j1.transcript" "$TMP/j2.transcript"
echo "ok: -j2 transcript byte-identical"

echo "== serve smoke: byte-identical with the cache disabled =="
read -r PID PORT < <(boot "$TMP/nc.log" --jobs 1 --cache-mb 0)
transcript "$PORT" "$TMP/nc.transcript"
drain "$PID" "$TMP/nc.log"
cmp "$TMP/j1.transcript" "$TMP/nc.transcript"
echo "ok: cache-off transcript byte-identical"

echo "== serve smoke: admission control sheds under --queue 0 =="
read -r PID PORT < <(boot "$TMP/q0.log" --jobs 1 --queue 0)
"$RV" loadgen --port "$PORT" --conns 2 --requests 40 --seed $SEED \
  --mix heavy --json >"$TMP/q0.summary"
drain "$PID" "$TMP/q0.log"
python3 - "$TMP/q0.summary" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["overloaded"] == s["requests"], f"expected every request shed: {s}"
print(f"ok: all {s['overloaded']} heavy requests answered 'overloaded'")
EOF

echo "== serve smoke: prometheus scrape is well-formed and monotone =="
read -r PID PORT < <(boot "$TMP/prom.log" --jobs 1)
"$RV" loadgen --port "$PORT" --conns 2 --requests 30 --seed $SEED \
  --mix cached --json >"$TMP/prom.summary"
python3 - "$PORT" <<'EOF'
import json, socket, sys

port = int(sys.argv[1])

def rpc(line):
    with socket.create_connection(("127.0.0.1", port)) as s:
        f = s.makefile("rw")
        f.write(line + "\n")
        f.flush()
        return json.loads(f.readline())

def scrape():
    r = rpc('{"type":"metrics","format":"prometheus"}')
    assert r["status"] == "ok", r
    families, series = {}, {}
    for ln in r["body"].splitlines():
        if ln.startswith("# TYPE "):
            _, _, name, typ = ln.split(" ")
            assert name not in families, f"duplicate family {name}"
            families[name] = typ
        elif ln and not ln.startswith("#"):
            key, val = ln.rsplit(" ", 1)
            assert key not in series, f"duplicate series {key}"
            series[key] = float(val)  # also rejects unparseable values
    for key in series:
        fam = key.split("{", 1)[0]
        assert fam in families, f"series {key} has no TYPE declaration"
    for fam in ("rv_serve_requests_total", "rv_serve_latency_us",
                "rv_serve_recorder_records", "rv_serve_queue_depth"):
        assert fam in families, f"missing family {fam}"
    return families, series

fam1, s1 = scrape()
# more traffic between the scrapes, then: counters never move backwards
rpc('{"type":"run","graph":"ring:8","algorithm":"cheap","label_a":1,"label_b":2}')
fam2, s2 = scrape()
assert fam1 == fam2, "family set changed between scrapes"
for key, v1 in s1.items():
    if fam1[key.split("{", 1)[0]] == "counter":
        assert s2.get(key, -1.0) >= v1, f"counter {key} went backwards"
assert s2["rv_serve_requests_total"] > s1["rv_serve_requests_total"]
print(f"ok: {len(s1)} series, {len(fam1)} families, counters monotone")

# Both renderings read the same counters: each JSON metrics counter must
# equal its rv_serve_<key>_total sample.  The two probes are the only
# traffic in between; each counts its own request before rendering and
# its ok reply after, so the scrape sees one more request and one more
# ok (the JSON probe's) than the JSON reply did.
m = rpc('{"type":"metrics"}')
_, s3 = scrape()
own = {"requests": 1, "ok": 1}
checked = 0
for key, v in m.items():
    sample = f"rv_serve_{key}_total"
    if sample in s3:
        want = v + own.get(key, 0)
        assert s3[sample] == want, f"{sample} = {s3[sample]}, JSON {key} = {v}"
        checked += 1
assert checked >= 13, f"only {checked} JSON counters have a Prometheus sample"
print(f"ok: {checked} JSON counters equal their Prometheus samples")
EOF
drain "$PID" "$TMP/prom.log"

echo "== serve smoke: flight recorder tail + chrome dump =="
# --slow-us 0 turns every query into a retained "slow" anomaly, so the
# recorder is guaranteed non-empty after any traffic at all.
read -r PID PORT < <(boot "$TMP/obs.log" --jobs 1 --slow-us 0)
"$RV" loadgen --port "$PORT" --conns 2 --requests 20 --seed $SEED \
  --mix cached --json >"$TMP/obs.summary"
"$RV" obs tail --port "$PORT" --last 8 | tee "$TMP/obs.tail"
grep -q "slow" "$TMP/obs.tail" || {
  echo "rv obs tail shows no slow-flagged records" >&2; exit 1; }
"$RV" obs dump --port "$PORT" --chrome flight_dump.json
drain "$PID" "$TMP/obs.log"
python3 - flight_dump.json <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "empty traceEvents"
spans = [e for e in events if e["ph"] == "X"]
lanes = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
assert spans, "no request spans"
assert all("dur" in e for e in spans), "span without dur"
assert lanes, "no per-request lane names"
cats = {e.get("cat") for e in spans}
assert "request" in cats and "stage" in cats, f"missing cats: {sorted(cats)}"
print(f"ok: flight_dump.json has {len(spans)} spans in {len(lanes)} lanes")
EOF

echo "serve smoke: all checks passed"
