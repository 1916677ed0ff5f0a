#!/usr/bin/env bash
# Crash-recovery smoke test.
#
# SIGKILLs a `wrsn serve --cache --durability fsync` process while a
# 400-seed async job is mid-sweep, restarts it over the same store
# directory, and requires:
#
#   0. the kill left the job running with 1 <= committed seeds < 400
#      (otherwise the kill raced the sweep, and the script says so),
#   1. the restarted server still knows the job and resumes it,
#   2. the resumed job's final report equals an uninterrupted run's,
#   3. /statusz reports the resume in its `io` section,
#   4. `wrsn cache verify` finds no corruption in the crashed store
#      (a torn tail is repairable, not a loss),
#   5. the crashed store holds all 400 seeds' keys: the ones the killed
#      server committed and the ones the resumed job solved,
#   6. `wrsn cache verify` exits nonzero once corruption IS planted.
#
# Usage: scripts/crash_smoke.sh [path-to-wrsn-binary]
# Defaults to ./target/release/wrsn (build with `cargo build --release`).
set -euo pipefail

WRSN=${1:-./target/release/wrsn}
PORT=${CRASH_SMOKE_PORT:-7461}
ADDR=127.0.0.1:$PORT
WORK=$(mktemp -d "${TMPDIR:-/tmp}/wrsn-crash-smoke.XXXXXX")
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

# Each seed is an iRFH solve of 100 posts (about 2 ms on a 2-vCPU VM
# with fsync), so the job runs for dozens of times the kill loop's
# latency, one curl and a 10 ms sleep.
SEEDS=400
SPEC='{"instance":{"posts":100,"nodes":400,"field":500.0},"solver":"irfh","seeds":'$SEEDS'}'

start_server() { # $1 = cache dir, $2 = log file
  "$WRSN" serve --addr "$ADDR" --workers 2 --cache "$1" \
    --durability fsync > "$2" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    curl -fsS "http://$ADDR/healthz" > /dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "crash smoke: server never became healthy (log: $2)" >&2
  cat "$2" >&2
  exit 1
}

submit_job() { # prints the job id; no interpreter start between submit and poll
  local body
  body=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
  [[ $body =~ \"id\":([0-9]+) ]] || { echo "crash smoke: bad submit answer $body" >&2; exit 1; }
  echo "${BASH_REMATCH[1]}"
}

poll_until_done() { # $1 = job id, $2 = output file for the report
  for _ in $(seq 1 3000); do
    curl -fsS "http://$ADDR/v1/jobs/$1" > "$WORK/poll.json"
    STATE=$(python3 -c 'import json;print(json.load(open("'"$WORK"'/poll.json"))["state"])')
    if [ "$STATE" = done ]; then
      python3 - "$WORK/poll.json" "$2" <<'EOF'
import json, sys
job = json.load(open(sys.argv[1]))
json.dump(job["report"], open(sys.argv[2], "w"), sort_keys=True)
EOF
      return 0
    fi
    if [ "$STATE" != running ]; then
      echo "crash smoke: job $1 in unexpected state $STATE" >&2
      cat "$WORK/poll.json" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "crash smoke: job $1 never finished" >&2
  exit 1
}

# --- Act 1: submit, kill -9 as soon as a seed is committed. The poll
# loop spawns only curl: the events cursor `next` counts committed seeds.
start_server "$WORK/crashed" "$WORK/serve-1.log"
JOB_ID=$(submit_job)
N=0
for _ in $(seq 1 3000); do
  EVENTS=$(curl -fsS "http://$ADDR/v1/jobs/$JOB_ID/events?since=0")
  [[ $EVENTS =~ \"next\":([0-9]+) ]] && N=${BASH_REMATCH[1]}
  [ "$N" -ge 1 ] && break
  sleep 0.01
done
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# The journal must still say `running`, and the checkpoint next to it
# must hold at least one seed and not all of them; a torn last line
# (the kill landing mid-write) is not a committed seed.
COMMITTED=$(python3 - "$WORK/crashed/jobs" "$JOB_ID" "$SEEDS" <<'EOF'
import json, sys
jobs, job, seeds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
state = json.load(open(f"{jobs}/job-{job:08}.json"))["state"]
if state != "running":
    sys.exit(f"crash smoke: job {job} was already {state} when killed: "
             "the kill raced the sweep")
committed = 0
for line in open(f"{jobs}/job-{job:08}.checkpoint.jsonl").read().splitlines()[1:]:
    try:
        json.loads(line)
        committed += 1
    except ValueError:
        pass
if not 1 <= committed < seeds:
    sys.exit(f"crash smoke: the kill left {committed} of {seeds} seeds "
             "committed, not a mid-sweep crash")
print(committed)
EOF
)
echo "crash smoke: SIGKILL'd job $JOB_ID mid-sweep ($COMMITTED of $SEEDS seeds committed)"

# --- Act 2: restart over the same store; the journal resumes the job.
start_server "$WORK/crashed" "$WORK/serve-2.log"
poll_until_done "$JOB_ID" "$WORK/resumed-report.json"
curl -fsS "http://$ADDR/statusz" > "$WORK/statusz.json"
python3 - "$WORK/statusz.json" <<'EOF'
import json, sys
io = json.load(open(sys.argv[1]))["io"]
assert io["jobs_resumed"] >= 1, io
print(f"crash smoke: restart resumed {io['jobs_resumed']} job(s), "
      f"{io['fsyncs']} fsyncs, {io['quarantined_segments']} quarantined")
EOF
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# --- Act 3: the same job on a never-crashed server, as the reference.
start_server "$WORK/clean" "$WORK/serve-3.log"
CLEAN_ID=$(submit_job)
poll_until_done "$CLEAN_ID" "$WORK/clean-report.json"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

diff "$WORK/resumed-report.json" "$WORK/clean-report.json" \
  || { echo "crash smoke: resumed report differs from the clean run" >&2; exit 1; }
echo "crash smoke: resumed report is identical to the uninterrupted run"

# --- Act 4: the crashed store verifies clean, with every seed's key...
"$WRSN" cache verify --cache "$WORK/crashed" | tee "$WORK/verify.txt"
grep -q " $SEEDS distinct key(s)," "$WORK/verify.txt" \
  || { echo "crash smoke: the crashed store lacks some of the $SEEDS seeds" >&2; exit 1; }

# ...and verify exits nonzero once interior corruption is planted.
SEGMENT=$(ls "$WORK/crashed"/seg-*.jsonl | head -n 1)
python3 - "$SEGMENT" <<'EOF'
import sys
path = sys.argv[1]
lines = open(path).read().splitlines()
assert len(lines) >= 2, lines
lines[1] = "{this is not json"
open(path, "w").write("\n".join(lines) + "\n")
EOF
if "$WRSN" cache verify --cache "$WORK/crashed" 2> "$WORK/verify-bad.txt"; then
  echo "crash smoke: cache verify must exit nonzero on planted corruption" >&2
  exit 1
fi
grep -q "CORRUPT" "$WORK/verify-bad.txt"
echo "crash smoke: kill -9 survived, store verified, corruption detected"
