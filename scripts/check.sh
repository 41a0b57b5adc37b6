#!/usr/bin/env bash
# Pre-PR gate: everything a reviewer would run, in the order that fails
# fastest. All cargo invocations are --offline because the workspace
# vendors its dependencies under third_party/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dnsnoise-lint (determinism & invariant linter) ==" >&2
# Replaces the old grep gates (overload fields in the baseline export)
# with named, suppressible rules plus determinism checks no grep could
# express — including the call-graph no-panic certification pass over
# the durability and wire-decode surfaces. See DESIGN.md §static analysis.
cargo run -q --release --offline -p dnsnoise-lint

echo "== dnsnoise-lint --check-allowlist (no stale suppressions or certified-std names) ==" >&2
cargo run -q --release --offline -p dnsnoise-lint -- --check-allowlist

echo "== cargo build --release ==" >&2
cargo build --release --offline

echo "== simulate --metrics smoke (registry export, phase table on stderr only) ==" >&2
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
# The export's counters are derived from the timeline, the report's totals
# from the traffic profile: the two derivations of the same facts must
# agree on events, records below and records above.
export_matches_report() {
    local json report
    json=$(grep '^  "counters": ' "$1" \
        | grep -o '"\(queries\|records_below\|records_above\)": [0-9]*' | awk '{print $2}' | xargs)
    report=$(awk '/^events:/{e=$NF} /^below records:/{b=$NF} /^above records:/{a=$NF}
        END{print e, b, a}' "$2")
    [[ "$json" =~ ^[0-9]+\ [0-9]+\ [0-9]+$ && "$json" == "$report" ]] \
        || { echo "error: $1 counts (queries records_below records_above: $json) differ" \
                  "from the simulate report ($report)" >&2; return 1; }
}
./target/release/dnsnoise generate --scale 0.01 --seed 3 --out "$smoke_dir/day.trace" 2>/dev/null
./target/release/dnsnoise simulate --trace "$smoke_dir/day.trace" \
    --buckets 8 --metrics "$smoke_dir/m1.json" >"$smoke_dir/m1.txt" 2>"$smoke_dir/m1.log"
grep -q '"queries":' "$smoke_dir/m1.json" \
    || { echo "error: metrics export carries no counters" >&2; exit 1; }
export_matches_report "$smoke_dir/m1.json" "$smoke_dir/m1.txt" || exit 1
grep -q '^replay ' "$smoke_dir/m1.log" && ! grep -q 'replay\|wall' "$smoke_dir/m1.json" \
    || { echo "error: the phase table belongs on stderr, never in the export" >&2; exit 1; }

echo "== simulate --attack smoke (admission control sheds the flood) ==" >&2
attack='seed=9; victim=flood.example; labellen=16; clients=300; surge=0,86400,25'
./target/release/dnsnoise simulate --trace "$smoke_dir/day.trace" --members 2 \
    --attack "$attack" --rrl --queue-depth 16 --service-rate 1 \
    --buckets 8 --metrics "$smoke_dir/a1.json" >"$smoke_dir/a1.txt" 2>/dev/null
grep -q '"rate_limited":' "$smoke_dir/a1.json" \
    || { echo "error: overload columns missing from the attack smoke's export" >&2; exit 1; }
export_matches_report "$smoke_dir/a1.json" "$smoke_dir/a1.txt" || exit 1
grep -q -- '-- overload --' "$smoke_dir/a1.txt" \
    || { echo "error: overload section missing from attack smoke" >&2; exit 1; }
grep -Eq 'shed attack/legit: [1-9]' "$smoke_dir/a1.txt" \
    || { echo "error: attack smoke shed nothing" >&2; exit 1; }

echo "== ingest corruption smoke (1% damage: ledger conserves, >= 95% recovered) ==" >&2
./target/release/dnsnoise generate --scale 0.01 --seed 3 --capture pcap \
    --corrupt 0.01 --corrupt-seed 7 --out "$smoke_dir/day.pcap" 2>/dev/null
./target/release/dnsnoise ingest "$smoke_dir/day.pcap" \
    -o "$smoke_dir/i1.trace" 2>"$smoke_dir/ledger.txt"
grep -q 'conserved' "$smoke_dir/ledger.txt" \
    || { echo "error: ingest ledger did not conserve bytes" >&2; exit 1; }
# A capture read from a pipe has no length: the windowed reader must give
# the same trace and the same byte and frame ledgers as the file path.
cat "$smoke_dir/day.pcap" | ./target/release/dnsnoise ingest /dev/stdin \
    -o "$smoke_dir/p.trace" 2>"$smoke_dir/pledger.txt"
cmp "$smoke_dir/i1.trace" "$smoke_dir/p.trace" >&2 \
    || { echo "error: the piped capture ingested to other trace bytes" >&2; exit 1; }
diff <(grep -E '^(bytes|frames): ' "$smoke_dir/ledger.txt") \
    <(grep -E '^(bytes|frames): ' "$smoke_dir/pledger.txt") >&2 \
    || { echo "error: the piped capture's ledger differs from the file's" >&2; exit 1; }
# A source over its error budget is refused whole: non-zero exit, and
# neither the destination nor the temp sibling it is renamed from.
if ./target/release/dnsnoise ingest "$smoke_dir/day.pcap" --max-error-rate 0.0001 \
    -o "$smoke_dir/refused.trace" 2>/dev/null; then
    echo "error: ingest accepted a source over its error budget" >&2; exit 1
fi
if compgen -G "$smoke_dir/refused.trace*" >/dev/null; then
    echo "error: a refused ingest left output behind" >&2; exit 1
fi
total=$(./target/release/dnsnoise generate --scale 0.01 --seed 3 --out /dev/stdout 2>/dev/null | grep -cv '^#') || total=0
kept=$(grep -cv '^#' "$smoke_dir/i1.trace") || kept=0
[ "$kept" -ge $((total * 95 / 100)) ] \
    || { echo "error: ingest recovered $kept/$total events (<95%) from 1% corruption" >&2; exit 1; }

echo "== codec round-trip gate (a clean capture ingests to the trace generate writes) ==" >&2
# The text writer and the wire codec are held against each other: for two
# epochs and both capture formats, generating the day as a capture and
# ingesting it must give back generate's own trace, byte for byte.
for epoch in 0 1; do
    ./target/release/dnsnoise generate --scale 0.01 --seed 3 --epoch "$epoch" \
        --out "$smoke_dir/rt$epoch.trace" 2>/dev/null
    for fmt in pcap dnstap; do
        ./target/release/dnsnoise generate --scale 0.01 --seed 3 --epoch "$epoch" \
            --capture "$fmt" 2>/dev/null \
            | ./target/release/dnsnoise ingest /dev/stdin -o "$smoke_dir/rt$epoch-$fmt.trace" \
                2>/dev/null
        cmp "$smoke_dir/rt$epoch.trace" "$smoke_dir/rt$epoch-$fmt.trace" >&2 \
            || { echo "error: the --epoch $epoch $fmt capture ingested to other trace bytes" \
                      "than generate wrote" >&2; exit 1; }
    done
done

echo "== capture bytes pin (generate --capture equals scripts/capture_digests.txt) ==" >&2
# The round trip above proves a capture decodes back to the same trace, so
# a compression change that moves bytes but decodes alike passes it. Every
# ingest ledger and the benchmark's input are those bytes: pin them.
for epoch in 0 1; do
    for fmt in pcap dnstap; do
        echo "$epoch $fmt $(./target/release/dnsnoise generate --scale 0.01 --seed 3 \
            --epoch "$epoch" --capture "$fmt" 2>/dev/null | cksum)"
    done
done >"$smoke_dir/capture_digests.txt"
grep -v '^#' scripts/capture_digests.txt | diff - "$smoke_dir/capture_digests.txt" >&2 \
    || { echo "error: capture bytes differ from scripts/capture_digests.txt" \
              "(< committed, > this tree); a PR that moves them must update it and explain why" >&2
         exit 1; }

echo "== stream smoke (batch-vs-stream agreement, conservation, determinism) ==" >&2
./target/release/dnsnoise train --scale 0.02 --seed 3 --out "$smoke_dir/model.txt" 2>/dev/null
./target/release/dnsnoise generate --scale 0.02 --seed 3 --day 1 \
    --out "$smoke_dir/day1.trace" 2>/dev/null
# Default configuration: the streaming findings must match batch mining
# zone for zone on the same trace and model.
./target/release/dnsnoise stream --trace "$smoke_dir/day1.trace" \
    --model "$smoke_dir/model.txt" >"$smoke_dir/s1.txt"
./target/release/dnsnoise stream --trace "$smoke_dir/day1.trace" \
    --model "$smoke_dir/model.txt" >"$smoke_dir/s2.txt"
diff "$smoke_dir/s1.txt" "$smoke_dir/s2.txt" >&2
grep -q '(conserved)' "$smoke_dir/s1.txt" \
    || { echo "error: stream smoke did not conserve events" >&2; exit 1; }
# Distinct clients are exact: on a day with no SERVFAIL and no shed
# query, the final count is every client id the trace holds.
grep -q ' + 0 servfail + 0 shed (conserved)$' "$smoke_dir/s1.txt" \
    || { echo "error: stream smoke expected 0 servfail and 0 shed" >&2; exit 1; }
trace_clients=$(grep -v '^#' "$smoke_dir/day1.trace" | cut -f2 | sort -u | wc -l | tr -d ' ')
stream_clients=$(awk '/^-- final --/{f=1} f && /^distinct_clients = /{print $3}' "$smoke_dir/s1.txt")
[ -n "$stream_clients" ] && [ "$stream_clients" = "$trace_clients" ] \
    || { echo "error: stream distinct_clients ($stream_clients) != trace clients" \
              "($trace_clients)" >&2; exit 1; }
./target/release/dnsnoise mine --trace "$smoke_dir/day1.trace" \
    --model "$smoke_dir/model.txt" >"$smoke_dir/mine.tsv" 2>/dev/null
awk -F'\t' 'NR>1 {print $1, "depth="$2}' "$smoke_dir/mine.tsv" | sort >"$smoke_dir/zones.batch"
awk '/^-- final --/{f=1} f && /^finding = /{print $3, $4}' "$smoke_dir/s1.txt" \
    | sort >"$smoke_dir/zones.stream"
diff "$smoke_dir/zones.batch" "$smoke_dir/zones.stream" >&2 \
    || { echo "error: stream findings diverge from batch mining" >&2; exit 1; }
[ -s "$smoke_dir/zones.batch" ] \
    || { echo "error: stream smoke found no zones to compare" >&2; exit 1; }

echo "== hostile-timestamp smoke (one absurd stamp never aborts stream or simulate) ==" >&2
# Answers are observed under the replayed day, not the event's own: a
# u64::MAX stamp used to size the store's per-day table and abort (134).
awk 'NR == 1000 {print; printf "18446744073709551615\t40\tshop.lhm4twt.com\tA\tshop.lhm4twt.com,A,900,A:40.191.241.20\n"; next} 1' \
    "$smoke_dir/day1.trace" >"$smoke_dir/hostile.trace"
for run in "simulate" "stream --model $smoke_dir/model.txt" \
    "stream --model $smoke_dir/model.txt --store disk --store-path $smoke_dir/pdns-hostile"; do
    status=0
    # shellcheck disable=SC2086 # $run is a word list on purpose
    ./target/release/dnsnoise $run --trace "$smoke_dir/hostile.trace" >/dev/null 2>&1 || status=$?
    [ "$status" -lt 128 ] \
        || { echo "error: '$run' on a hostile timestamp died with status $status" >&2; exit 1; }
done

echo "== pdns store smoke (miner output identical with and without a store directory) ==" >&2
# Same day-1 trace and model as the stream smoke: stdout must be
# byte-identical whether or not the one rpDNS store spills to a
# directory, and both runs must print its summary line on stderr.
./target/release/dnsnoise stream --trace "$smoke_dir/day1.trace" \
    --model "$smoke_dir/model.txt" \
    --store memory >"$smoke_dir/sm.txt" 2>"$smoke_dir/sm.log"
./target/release/dnsnoise stream --trace "$smoke_dir/day1.trace" \
    --model "$smoke_dir/model.txt" \
    --store disk --store-path "$smoke_dir/pdns" \
    >"$smoke_dir/sd.txt" 2>"$smoke_dir/sd.log"
diff "$smoke_dir/s1.txt" "$smoke_dir/sm.txt" >&2
diff "$smoke_dir/s1.txt" "$smoke_dir/sd.txt" >&2
grep -q 'rpdns store: backend=disk' "$smoke_dir/sd.log" \
    || { echo "error: disk store summary missing from stream stderr" >&2; exit 1; }
# One engine: with or without a directory it holds the same records.
held='records=[0-9]* storage_bytes=[0-9]*'
mem_held=$(grep -o "$held" "$smoke_dir/sm.log") \
    && [ "$mem_held" = "$(grep -o "$held" "$smoke_dir/sd.log")" ] \
    || { echo "error: the store's contents depend on its directory" >&2; exit 1; }
ls "$smoke_dir/pdns" | grep -q 'run-.*\.bin' \
    || { echo "error: disk store spilled no run files" >&2; exit 1; }
# A --store-path alone is the same disk store: same render, same summary line.
./target/release/dnsnoise stream --trace "$smoke_dir/day1.trace" \
    --model "$smoke_dir/model.txt" \
    --store-path "$smoke_dir/pdns-alone" >"$smoke_dir/sa.txt" 2>"$smoke_dir/sa.log"
diff "$smoke_dir/s1.txt" "$smoke_dir/sa.txt" >&2
alone=$(grep '^rpdns store: backend=disk ' "$smoke_dir/sa.log") \
    && [ "$alone" = "$(grep '^rpdns store: ' "$smoke_dir/sd.log")" ] \
    || { echo "error: --store-path alone made another store than --store disk" >&2; exit 1; }
# The write path is pinned to the byte: the disk store's run, flush,
# compaction and bytes-written counters must equal the committed row.
grep -o 'runs=[0-9]* flushes=[0-9]* compactions=[0-9]* bytes_written=[0-9]*' "$smoke_dir/sd.log" \
    | diff <(grep -v '^#' scripts/store_io_counts.txt) - >&2 \
    || { echo "error: disk store write counters differ from scripts/store_io_counts.txt" \
              "(< committed, > this tree); a PR that changes them must update it and explain why" >&2
         exit 1; }
# Two subcommands, one replay loop: `simulate` (DayRun) and `stream`
# (EventSession) over the same trace must count the same records at the
# monitoring point and fill the store without a directory alike.
./target/release/dnsnoise simulate --trace "$smoke_dir/day1.trace" \
    --store memory >"$smoke_dir/sim.txt" 2>"$smoke_dir/sim.log"
sim_taps=$(awk '/^below records:/{b=$NF} /^above records:/{a=$NF} END{print b, a}' "$smoke_dir/sim.txt")
stream_taps=$(awk '/^below_total =/{b=$NF} /^above_total =/{a=$NF} END{print b, a}' "$smoke_dir/sm.txt")
[[ "$sim_taps" =~ ^[0-9]+\ [0-9]+$ && "$sim_taps" == "$stream_taps" ]] \
    || { echo "error: simulate taps ($sim_taps) != stream taps ($stream_taps)" >&2; exit 1; }
sim_store=$(grep '^rpdns store: backend=memory ' "$smoke_dir/sim.log") \
    && [ "$sim_store" = "$(grep '^rpdns store: ' "$smoke_dir/sm.log")" ] \
    || { echo "error: simulate and stream filled the store differently" >&2; exit 1; }
# Both feed the store the day's first sightings from the same table, so
# the disk store's summary line (records, bytes, runs, flushes,
# compactions, bytes written) must match too, and its directory check clean.
./target/release/dnsnoise simulate --trace "$smoke_dir/day1.trace" \
    --store disk --store-path "$smoke_dir/pdns-sim" >/dev/null 2>"$smoke_dir/simd.log"
sim_disk=$(grep '^rpdns store: ' "$smoke_dir/simd.log") \
    && [ "$sim_disk" = "$(grep '^rpdns store: ' "$smoke_dir/sd.log")" ] \
    || { echo "error: simulate and stream filled the disk store differently" >&2; exit 1; }
./target/release/dnsnoise fsck "$smoke_dir/pdns-sim" >"$smoke_dir/fsck-sim.txt" \
    || { echo "error: fsck found problems in simulate's disk store" >&2
         cat "$smoke_dir/fsck-sim.txt" >&2; exit 1; }

# A store whose directory cannot be written degrades to memory-only: simulate,
# like stream, must name the failure and exit non-zero, not report success.
printf 'x' >"$smoke_dir/blocker"
if ./target/release/dnsnoise simulate --trace "$smoke_dir/day1.trace" \
    --store disk --store-path "$smoke_dir/blocker/sub" >/dev/null 2>"$smoke_dir/simdeg.log"; then
    echo "error: simulate exited 0 on a store path under a regular file" >&2; exit 1
fi
grep -q '^rpdns store degraded to memory-only: ' "$smoke_dir/simdeg.log" \
    || { echo "error: simulate did not name its degraded store" >&2
         cat "$smoke_dir/simdeg.log" >&2; exit 1; }

echo "== experiments store smoke (fig15's store directory holds every record its render counts) ==" >&2
# A pDNS experiment's store is flushed and collapsed when the experiment
# ends: the directory checks clean and its MANIFEST's per-day new-record
# counts are the render's, day for day. The MANIFEST is big-endian u64s
# after an 8-byte magic: field 8 counts the days, and each day's (new,
# repeated) pair follows the ten fixed fields.
cargo build -q --release --offline -p dnsnoise-bench --bins
./target/release/experiments fig15 --scale 0.05 --store-path "$smoke_dir/exp" \
    >"$smoke_dir/fig15.txt"
./target/release/dnsnoise fsck "$smoke_dir/exp/fig15" >"$smoke_dir/fsck-fig15.txt" \
    || { echo "error: fsck found problems in fig15's disk store" >&2
         cat "$smoke_dir/fsck-fig15.txt" >&2; exit 1; }
rendered=$(awk 'NF == 4 && $1 ~ /^[0-9]+$/ && $4 ~ /%$/ {print $2 + $3}' "$smoke_dir/fig15.txt" | xargs)
stored=$(od -An -v -tu1 -j 8 "$smoke_dir/exp/fig15/MANIFEST" | awk '
    { for (i = 1; i <= NF; i++) b[n++] = $i }
    END {
        for (w = 0; 8 * w + 8 <= n; w++) {
            v = 0
            for (j = 0; j < 8; j++) v = v * 256 + b[8 * w + j]
            f[w] = v
        }
        for (d = 0; d < f[8]; d++) print f[10 + 2 * d]
    }' | xargs)
[ -n "$rendered" ] && [ "$rendered" = "$stored" ] \
    || { echo "error: fig15's store holds per-day new records ($stored)" \
              "other than its render's ($rendered)" >&2; exit 1; }

echo "== crash/resume smoke (kill mid-day, hourly and before the first boundary; resume, cmp, fsck) ==" >&2
# A stream killed mid-day by --die-after (simulating SIGKILL) and resumed
# from its on-disk checkpoint must print the exact bytes of the
# uninterrupted run; the reopened spill directory must end holding the
# uninterrupted run's MANIFEST and run files, byte for byte, and check
# clean — the CLI face of the crash-at-every-IO-point recovery tests.
# quarantine.log is not compared: a resume that collected orphans appends
# to it.
same_store() {
    [ "$(cd "$1" && ls run-*.bin)" = "$(cd "$2" && ls run-*.bin)" ] \
        || { echo "error: $2 holds other run files than $1" >&2; return 1; }
    local name
    for name in MANIFEST $(cd "$1" && ls run-*.bin); do
        cmp "$1/$name" "$2/$name" >&2 || return 1
    done
}
events=$(grep -cv '^#' "$smoke_dir/day1.trace")
if ./target/release/dnsnoise stream --trace "$smoke_dir/day1.trace" \
    --model "$smoke_dir/model.txt" \
    --store disk --store-path "$smoke_dir/pdns-crash" \
    --checkpoint "$smoke_dir/ckpt" --die-after $((events / 2)) \
    >/dev/null 2>/dev/null; then
    echo "error: --die-after $((events / 2)) did not kill the stream" >&2; exit 1
fi
./target/release/dnsnoise stream --trace "$smoke_dir/day1.trace" \
    --model "$smoke_dir/model.txt" \
    --store disk --store-path "$smoke_dir/pdns-crash" \
    --checkpoint "$smoke_dir/ckpt" >"$smoke_dir/sr.txt" 2>"$smoke_dir/sr.log"
grep -q 'resuming from checkpoint' "$smoke_dir/sr.log" \
    || { echo "error: resumed stream did not load the checkpoint" >&2; exit 1; }
diff "$smoke_dir/s1.txt" "$smoke_dir/sr.txt" >&2 \
    || { echo "error: resumed stream diverged from the uninterrupted run" >&2; exit 1; }
same_store "$smoke_dir/pdns" "$smoke_dir/pdns-crash" \
    || { echo "error: the resumed store diverged from the uninterrupted run's" >&2; exit 1; }
./target/release/dnsnoise fsck "$smoke_dir/pdns-crash" >"$smoke_dir/fsck.txt" \
    || { echo "error: fsck found problems after crash+resume" >&2
         cat "$smoke_dir/fsck.txt" >&2; exit 1; }
# Hourly epochs: killed two thirds into the day, resumed from a mid-day
# boundary. The resumed process re-folds its all-day tree across many
# closes and moves the store's first-sighting cursor to the reopened
# store's record count: render and store must still equal the
# uninterrupted hourly run's.
hourly=(stream --trace "$smoke_dir/day1.trace" --model "$smoke_dir/model.txt" --epoch-secs 3600)
./target/release/dnsnoise "${hourly[@]}" --store disk --store-path "$smoke_dir/pdns-hourly-ref" \
    >"$smoke_dir/hourly-ref.txt" 2>/dev/null
if ./target/release/dnsnoise "${hourly[@]}" --store disk --store-path "$smoke_dir/pdns-hourly" \
    --checkpoint "$smoke_dir/ckpt-hourly" --die-after $((events * 2 / 3)) >/dev/null 2>/dev/null; then
    echo "error: --die-after $((events * 2 / 3)) did not kill the hourly stream" >&2; exit 1
fi
./target/release/dnsnoise "${hourly[@]}" --store disk --store-path "$smoke_dir/pdns-hourly" \
    --checkpoint "$smoke_dir/ckpt-hourly" >"$smoke_dir/hourly-res.txt" 2>"$smoke_dir/hourly-res.log"
grep -q 'resuming from checkpoint' "$smoke_dir/hourly-res.log" \
    || { echo "error: the resumed hourly stream did not load the checkpoint" >&2; exit 1; }
diff "$smoke_dir/hourly-ref.txt" "$smoke_dir/hourly-res.txt" >&2 \
    || { echo "error: the resumed hourly stream diverged from the uninterrupted run" >&2; exit 1; }
same_store "$smoke_dir/pdns-hourly-ref" "$smoke_dir/pdns-hourly" \
    || { echo "error: the resumed hourly store diverged from the uninterrupted run's" >&2; exit 1; }
./target/release/dnsnoise fsck "$smoke_dir/pdns-hourly" >"$smoke_dir/fsck-hourly.txt" \
    || { echo "error: fsck found problems after the hourly crash+resume" >&2
         cat "$smoke_dir/fsck-hourly.txt" >&2; exit 1; }
# Killed before its first epoch boundary (one epoch per day), once a flush
# has published the store: the day-start checkpoint makes the identical
# rerun a resume that takes the store over, not a refusal.
./target/release/dnsnoise generate --scale 0.08 --seed 3 --day 1 \
    --out "$smoke_dir/day1-big.trace" 2>/dev/null
pre=(stream --trace "$smoke_dir/day1-big.trace" --model "$smoke_dir/model.txt" --epoch-secs 86400)
durable=(--store disk --store-path "$smoke_dir/pdns-pre" --checkpoint "$smoke_dir/ckpt-pre")
./target/release/dnsnoise "${pre[@]}" --store disk --store-path "$smoke_dir/pdns-pre-ref" \
    >"$smoke_dir/pre-ref.txt" 2>/dev/null
events=$(grep -cv '^#' "$smoke_dir/day1-big.trace")
if ./target/release/dnsnoise "${pre[@]}" "${durable[@]}" --die-after $((events * 9 / 10)) \
    >/dev/null 2>/dev/null; then
    echo "error: --die-after $((events * 9 / 10)) did not kill the stream" >&2; exit 1
fi
[ -e "$smoke_dir/pdns-pre/MANIFEST" ] \
    || { echo "error: the pre-boundary kill left no published store to take over" >&2; exit 1; }
./target/release/dnsnoise "${pre[@]}" "${durable[@]}" >"$smoke_dir/pre-res.txt" \
    2>"$smoke_dir/pre-res.log" \
    || { echo "error: the rerun of a stream killed before its first boundary failed" >&2
         cat "$smoke_dir/pre-res.log" >&2; exit 1; }
grep -q 'resuming from checkpoint: day=1 events=0' "$smoke_dir/pre-res.log" \
    || { echo "error: the pre-boundary rerun did not resume from the day-start checkpoint" >&2
         exit 1; }
diff "$smoke_dir/pre-ref.txt" "$smoke_dir/pre-res.txt" >&2 \
    || { echo "error: the pre-boundary resume diverged from the uninterrupted run" >&2; exit 1; }
same_store "$smoke_dir/pdns-pre-ref" "$smoke_dir/pdns-pre" \
    || { echo "error: the pre-boundary resumed store diverged from the uninterrupted run's" >&2
         exit 1; }
./target/release/dnsnoise fsck "$smoke_dir/pdns-pre" >"$smoke_dir/fsck-pre.txt" \
    || { echo "error: fsck found problems after the pre-boundary resume" >&2
         cat "$smoke_dir/fsck-pre.txt" >&2; exit 1; }

echo "== damaged-store fsck smoke (every flagged file counted, rendered and logged) ==" >&2
# A copy of the stream smoke's store with seven planted orphans and one
# flipped run byte: fsck must flag all eight with byte conservation,
# --repair must log one quarantine.log line per file it drops, and the
# repaired store must then check clean.
cp -r "$smoke_dir/pdns" "$smoke_dir/pdns-damaged"
for i in 1 2 3 4 5 6 7; do printf 'junk %s\n' "$i" >"$smoke_dir/pdns-damaged/junk-$i.tmp"; done
victim=$(cd "$smoke_dir/pdns-damaged" && ls run-*.bin | head -n 1)
size=$(wc -c <"$smoke_dir/pdns-damaged/$victim")
byte=$(od -An -tu1 -j $((size / 2)) -N1 "$smoke_dir/pdns-damaged/$victim" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 64)))" \
    | dd of="$smoke_dir/pdns-damaged/$victim" bs=1 seek=$((size / 2)) conv=notrunc 2>/dev/null
status=0
./target/release/dnsnoise fsck "$smoke_dir/pdns-damaged" >"$smoke_dir/fsck-damaged.txt" 2>&1 \
    || status=$?
[ "$status" -eq 1 ] \
    && grep -q '^quarantine\[orphan-file\]: 7 files' "$smoke_dir/fsck-damaged.txt" \
    && grep -q '^quarantine\[bad-run-checksum\]: 1 files' "$smoke_dir/fsck-damaged.txt" \
    && grep -q '(conserved)$' "$smoke_dir/fsck-damaged.txt" \
    || { echo "error: fsck of the damaged store (exit $status) did not flag 7 orphans and" \
              "1 bad run with conserved bytes" >&2
         cat "$smoke_dir/fsck-damaged.txt" >&2; exit 1; }
# A flipped size field in a run's header: the sizes no longer partition
# the image, so the one-pass verify checksums it whole, and the verdict,
# the sample line and the byte conservation must be the mid-file flip's.
cp -r "$smoke_dir/pdns" "$smoke_dir/pdns-header"
size_byte=23 # the last byte of the header's name-column length
byte=$(od -An -tu1 -j "$size_byte" -N1 "$smoke_dir/pdns-header/$victim" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 1)))" \
    | dd of="$smoke_dir/pdns-header/$victim" bs=1 seek="$size_byte" conv=notrunc 2>/dev/null
status=0
./target/release/dnsnoise fsck "$smoke_dir/pdns-header" >"$smoke_dir/fsck-header.txt" 2>&1 \
    || status=$?
[ "$status" -eq 1 ] \
    && grep -q '^quarantine\[bad-run-checksum\]: 1 files' "$smoke_dir/fsck-header.txt" \
    && grep -qx "  sample $victim: file CRC != manifest CRC" "$smoke_dir/fsck-header.txt" \
    && grep -q '(conserved)$' "$smoke_dir/fsck-header.txt" \
    || { echo "error: fsck of the store with a damaged run header (exit $status) did not flag" \
              "1 bad run with conserved bytes" >&2
         cat "$smoke_dir/fsck-header.txt" >&2; exit 1; }
./target/release/dnsnoise fsck "$smoke_dir/pdns-damaged" --repair >/dev/null \
    || { echo "error: fsck --repair of the damaged store failed" >&2; exit 1; }
logged=$(wc -l <"$smoke_dir/pdns-damaged/quarantine.log" | tr -d ' ')
[ "$logged" -eq 8 ] \
    || { echo "error: repair logged $logged quarantine.log lines, expected 8" >&2; exit 1; }
./target/release/dnsnoise fsck "$smoke_dir/pdns-damaged" >"$smoke_dir/fsck-repaired.txt" \
    && grep -q '^status: clean$' "$smoke_dir/fsck-repaired.txt" \
    || { echo "error: the repaired store does not check clean" >&2
         cat "$smoke_dir/fsck-repaired.txt" >&2; exit 1; }

echo "== benchmark smoke (benchmark/ builds against this tree, every gate holds, counts are exact) ==" >&2
# benchmark/ is a package of its own that no other step compiles: an API
# change can break it unnoticed until the benchmark driver runs. Sharing
# the workspace target directory reuses the release build from above.
CARGO_TARGET_DIR="$PWD/target" bash benchmark/run.sh --smoke >"$smoke_dir/bench.txt" \
    || { echo "error: benchmark smoke failed" >&2
         grep 'GATE FAILED' "$smoke_dir/bench.txt" >&2; exit 1; }
# The count metrics are exact for a seed (bytes on disk per record, events
# accounted for, the miner's TPR/FPR), so they are compared to the digit:
# unlike a timing, a moved count is a behaviour change on any host.
awk '/^# benchmark /{sub(/^workload=/, "", $3); workload = $3}
     $1 ~ /^(durable_bytes_per_rr|accounted_share|findings_tpr|findings_fpr)$/ {print workload, $1, $2}' \
    "$smoke_dir/bench.txt" >"$smoke_dir/counts.txt"
grep -v '^#' scripts/smoke_counts.txt | diff - "$smoke_dir/counts.txt" >&2 \
    || { echo "error: benchmark smoke counts differ from scripts/smoke_counts.txt" \
              "(< committed, > this tree); a PR that changes a count must update it and explain why" >&2
         exit 1; }

echo "== cargo test (every first-party package, release) ==" >&2
# Without --workspace only the root package's tests run: the member
# crates' suites (the pdns crash matrix, the allocation counters, the
# stream's fold tests) would never reach the gate. Release, because the
# experiment suite takes minutes in a debug build; third_party stand-ins
# are not ours to test.
cargo test -q --offline --release --workspace --exclude proptest \
    --exclude rand --exclude serde --exclude serde_derive

echo "== cargo clippy --all-targets -D warnings ==" >&2
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (intra-doc links cannot dangle) ==" >&2
# Every dnsnoise package; third_party stays out (its proptest stand-in
# carries an ambiguous `[vec]` link).
doc_packages=()
for package in dnsnoise dnsnoise-bench dnsnoise-cache dnsnoise-core dnsnoise-dns \
    dnsnoise-dnssec dnsnoise-ingest dnsnoise-lint dnsnoise-ml dnsnoise-pdns \
    dnsnoise-resolver dnsnoise-stream dnsnoise-workload; do
    doc_packages+=(-p "$package")
done
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps "${doc_packages[@]}"

echo "== cargo fmt --check ==" >&2
cargo fmt --check

echo "ok" >&2
