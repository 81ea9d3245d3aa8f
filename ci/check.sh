#!/usr/bin/env sh
# Repository gate: formatting, lints, tests. Run from the workspace root.
#
#   sh ci/check.sh
#
# Mirrors what CI enforces; keep it dependency-free (rustup components
# only) so it also works in offline containers.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (broken or private intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> cargo build --examples"
cargo build -q --examples

echo "==> cargo test"
cargo test -q --workspace

echo "==> benchmark crate graph is pinned (benchmark/Cargo.lock is not rewritten)"
# The benchmark builds the repository's crates by path under its own lock
# file. With --locked, cargo exits 101 instead of silently rewriting
# benchmark/Cargo.lock when a dependency edge between repo crates changes.
cargo metadata --offline --locked --format-version 1 \
    --manifest-path benchmark/Cargo.toml >/dev/null

echo "==> benchmark unit tests and smoke (every workload, digests checked)"
# The benchmark is a package of its own (benchmark/Cargo.toml). --smoke
# runs every workload for 2 s with the trace on and exits 1 on any wrong
# output, including an outputs_digest that differs from
# benchmark/expected.json on the default seed.
cargo test -q --release --manifest-path benchmark/Cargo.toml
cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- --smoke

echo "==> bench_optimize smoke (release, running example + convoy, traced)"
TRACE=target/BENCH_optimize_smoke.trace.jsonl
cargo run --release -q -p etcs-bench --bin bench_optimize -- \
    --smoke --out target/BENCH_optimize_smoke.json --trace "$TRACE"

echo "==> obs trace smoke (JSONL parses, span vocabulary is stable)"
# The bench already cross-checked probe counts and conflict totals
# against its own Stats; here we pin the *schema*: the
# documented span/event names must appear in the artifact. This doubles as
# documentation of the event format (see DESIGN.md section 10).
test -s "$TRACE" || { echo "missing trace artifact $TRACE"; exit 1; }
for name in task.optimize task.optimize_incremental encode probe stage2 sat.solve; do
    grep -q "\"name\":\"$name\"" "$TRACE" || {
        echo "trace $TRACE lacks expected span/event name '$name'"
        exit 1
    }
done

echo "==> served smoke (JSONL batch, warm cache, digests match direct solves)"
SERVE_IN=target/serve_smoke.in.jsonl
SERVE_OUT=target/serve_smoke.out.jsonl
SERVE_TRACE=target/serve_smoke.trace.jsonl
: > "$SERVE_IN"
i=0
while [ $i -lt 10 ]; do
    for kind in verify generate optimize optimize_incremental diagnose; do
        printf '{"id": "%s-%d", "kind": "%s", "scenario": "fixture:running_example"}\n' \
            "$kind" "$i" "$kind" >> "$SERVE_IN"
    done
    i=$((i + 1))
done
printf '{"id": "file-job", "kind": "generate", "scenario": "file:scenarios/branch_line.rail"}\n' \
    >> "$SERVE_IN"
cargo run --release -q -p etcs-serve --bin served -- \
    --input "$SERVE_IN" --output "$SERVE_OUT" --trace "$SERVE_TRACE" --workers 2
# 51 mixed-kind jobs in, 51 "done" responses out, and repeats must have
# been answered from the cache with digests identical to the cold solves.
test "$(wc -l < "$SERVE_OUT")" -eq 51 || {
    echo "served: expected 51 response lines"; exit 1;
}
test "$(grep -c '"status": "done"' "$SERVE_OUT")" -eq 51 || {
    echo "served: not every job completed"; exit 1;
}
grep -q '"cache": "hit"' "$SERVE_OUT" || {
    echo "served: warm cache produced no hits"; exit 1;
}
# Bit-identity: every response for a given kind (same scenario) must carry
# the same payload digest, whether it was a cold solve or a cache hit.
for kind in verify generate optimize optimize_incremental diagnose; do
    n=$(grep "\"id\": \"$kind-" "$SERVE_OUT" \
        | sed 's/.*"digest": "\([0-9a-f]*\)".*/\1/' | sort -u | wc -l)
    test "$n" -eq 1 || {
        echo "served: $kind digests diverged between cache hits and solves"
        exit 1
    }
done
for name in serve.enqueue serve.admit serve.job; do
    grep -q "\"name\":\"$name\"" "$SERVE_TRACE" || {
        echo "serve trace lacks expected span/event name '$name'"
        exit 1
    }
done

echo "==> served hostile-input smoke (typed invalid records, exit 1, bounded time)"
# Three lines no parser may choke on: a lone UTF-16 surrogate escape, an
# object nested one level past etcs_obs::json::MAX_DEPTH, and a 4 MiB
# string that never ends. Each must come back as one invalid record and
# served must exit 1 (not 101 from a panic, not a signal) well inside the
# timeout: a JSON string scan that is quadratic in its length takes hours
# on the last line alone.
HOSTILE_IN=target/serve_hostile.in.jsonl
HOSTILE_OUT=target/serve_hostile.out.jsonl
printf '{"id": "\\ud800", "kind": "verify", "scenario": "fixture:running_example"}\n' \
    > "$HOSTILE_IN"
printf '{"id": "deep", "kind": "verify", "scenario": "fixture:running_example", "x": %s%s}\n' \
    "$(printf '%128s' '' | tr ' ' '[')" "$(printf '%128s' '' | tr ' ' ']')" >> "$HOSTILE_IN"
{ printf '{"id": "'; head -c 4194304 /dev/zero | tr '\0' 'x'; printf '\n'; } >> "$HOSTILE_IN"
cargo build --release -q -p etcs-serve
status=0
timeout 60 target/release/served --input "$HOSTILE_IN" --output "$HOSTILE_OUT" \
    --workers 1 2> target/serve_hostile.log || status=$?
test "$status" -eq 1 || {
    echo "served: hostile batch exited $status, expected 1"; exit 1;
}
test "$(wc -l < "$HOSTILE_OUT")" -eq 3 || {
    echo "served: expected 3 response lines for 3 hostile lines"; exit 1;
}
test "$(grep -c '"status": "invalid"' "$HOSTILE_OUT")" -eq 3 || {
    echo "served: not every hostile line came back invalid"; exit 1;
}

echo "==> every bench artifact has its bench, and every bench its artifact"
# A checked-in BENCH_<name>.json must not outlive
# crates/bench/src/bin/bench_<name>.rs, and a bench must not exist without
# the artifact it writes: add and delete the two together.
for artifact in BENCH_*.json; do
    name=${artifact#BENCH_}
    name=${name%.json}
    test -f "crates/bench/src/bin/bench_$name.rs" || {
        echo "$artifact has no bench crates/bench/src/bin/bench_$name.rs"
        exit 1
    }
done
for bench in crates/bench/src/bin/bench_*.rs; do
    name=${bench#crates/bench/src/bin/bench_}
    name=${name%.rs}
    test -f "BENCH_$name.json" || {
        echo "$bench has no checked-in artifact BENCH_$name.json"
        exit 1
    }
done

echo "==> bench artifacts parse (in-repo JSON parser)"
# Every checked-in BENCH_*.json must be readable by the workspace's own
# dependency-free parser (etcs_obs::json) — a truncated or hand-mangled
# artifact fails here instead of breaking downstream tooling.
cargo run --release -q -p etcs-bench --bin json_check -- BENCH_*.json

echo "==> bench_lazy smoke (release, CEGAR vs eager bit-identity, traced)"
LAZY_TRACE=target/BENCH_lazy_smoke.trace.jsonl
cargo run --release -q -p etcs-bench --bin bench_lazy -- \
    --smoke --out target/BENCH_lazy_smoke.json --trace "$LAZY_TRACE"
test -s target/BENCH_lazy_smoke.json || {
    echo "missing bench artifact target/BENCH_lazy_smoke.json"; exit 1;
}
# The bench itself asserts eager/lazy cost equality and cross-checks the
# trace against its LazyReport; here we pin the span vocabulary and that
# the CEGAR loop actually iterated (a zero-round run would mean the
# relaxation was never refined and the lazy path was not exercised).
for name in task.optimize_lazy lazy.round lazy.refine; do
    grep -q "\"name\":\"$name\"" "$LAZY_TRACE" || {
        echo "lazy trace lacks expected span/event name '$name'"
        exit 1
    }
done
grep -q '"rounds":' target/BENCH_lazy_smoke.json || {
    echo "bench_lazy artifact lacks per-fixture round counts"; exit 1;
}
if grep -q '"rounds": 0' target/BENCH_lazy_smoke.json; then
    echo "bench_lazy smoke fixture converged in 0 rounds (refiner idle)"
    exit 1
fi
grep -q '"available_parallelism": [1-9]' target/BENCH_lazy_smoke.json || {
    echo "bench_lazy: artifact lacks available_parallelism"; exit 1;
}

echo "==> bench_corpus smoke (release, corpus sweep + differential gate)"
cargo run --release -q -p etcs-bench --bin bench_corpus -- \
    --smoke --out target/BENCH_corpus_smoke.json
cargo run --release -q -p etcs-bench --bin json_check -- \
    target/BENCH_corpus_smoke.json
# The bench itself asserts that both solve configurations agree on
# verdict and optima on every corpus instance and that p50<=p90<=max per
# distribution; here we pin the artifact shape: the ordering flag must be
# recorded true and at least two families must report nonzero instance
# counts (an empty sweep would otherwise pass silently).
grep -q '"ordering_ok": true' target/BENCH_corpus_smoke.json || {
    echo "bench_corpus: percentile ordering flag missing or false"; exit 1;
}
# Wall-clock distributions mean little without the host they ran on.
grep -q '"available_parallelism": [1-9]' target/BENCH_corpus_smoke.json || {
    echo "bench_corpus: artifact lacks available_parallelism"; exit 1;
}
fam=$(grep -c '"instances": [1-9]' target/BENCH_corpus_smoke.json)
test "$fam" -ge 2 || {
    echo "bench_corpus: fewer than two families with instances (got $fam)"
    exit 1
}

echo "==> served corpus-exemplar smoke (generated .rail files load end-to-end)"
CORPUS_IN=target/serve_corpus.in.jsonl
CORPUS_OUT=target/serve_corpus.out.jsonl
: > "$CORPUS_IN"
for fam in grid_ladder station_throat moving_block; do
    printf '{"id": "corpus-%s", "kind": "generate", "scenario": "file:scenarios/corpus/%s_small.rail"}\n' \
        "$fam" "$fam" >> "$CORPUS_IN"
done
cargo run --release -q -p etcs-serve --bin served -- \
    --input "$CORPUS_IN" --output "$CORPUS_OUT" --workers 2
test "$(grep -c '"status": "done"' "$CORPUS_OUT")" -eq 3 || {
    echo "served: corpus exemplars did not all solve"; exit 1;
}

echo "==> served --lazy smoke (verdict digests identical to eager solves)"
LAZY_IN=target/serve_lazy.in.jsonl
EAGER_OUT=target/serve_lazy.eager.jsonl
LAZY_OUT=target/serve_lazy.lazy.jsonl
: > "$LAZY_IN"
for kind in verify optimize optimize_incremental; do
    printf '{"id": "%s", "kind": "%s", "scenario": "fixture:running_example"}\n' \
        "$kind" "$kind" >> "$LAZY_IN"
done
cargo run --release -q -p etcs-serve --bin served -- \
    --input "$LAZY_IN" --output "$EAGER_OUT" --workers 2
cargo run --release -q -p etcs-serve --bin served -- \
    --input "$LAZY_IN" --output "$LAZY_OUT" --workers 2 --lazy
test "$(grep -c '"status": "done"' "$LAZY_OUT")" -eq 3 || {
    echo "served --lazy: not every job completed"; exit 1;
}
# The CEGAR loop must reach the same verdict and the same optimal costs:
# payload.verdict_digest hashes exactly that (the witness plan may
# legitimately differ, the verdict must not).
for kind in verify optimize optimize_incremental; do
    eager_digest=$(grep "\"id\": \"$kind\"" "$EAGER_OUT" \
        | sed 's/.*"verdict_digest": "\([0-9a-f]*\)".*/\1/')
    lazy_digest=$(grep "\"id\": \"$kind\"" "$LAZY_OUT" \
        | sed 's/.*"verdict_digest": "\([0-9a-f]*\)".*/\1/')
    test -n "$eager_digest" && test "$eager_digest" = "$lazy_digest" || {
        echo "served --lazy: $kind verdict digest diverged from eager"
        exit 1
    }
done

echo "==> fleet smoke (two served --listen shards, digests bit-identical to served)"
# The same 51-job batch the served smoke ran, now routed across two
# loopback shards by fleetd. The fleet's core guarantee is that the
# output is bit-identical to the single-process run above.
FLEET_OUT=target/fleet_smoke.out.jsonl
FLEET_TRACE=target/fleet_smoke.trace.jsonl
FLEET_LOG=target/fleet_smoke.fleetd.log
cargo build --release -q -p etcs-serve -p etcs-fleet
target/release/served --listen 127.0.0.1:47841 --name s1 --workers 2 \
    2> target/fleet_shard1.log &
FLEET_S1=$!
target/release/served --listen 127.0.0.1:47842 --name s2 --workers 2 \
    2> target/fleet_shard2.log &
FLEET_S2=$!
target/release/fleetd --shard 127.0.0.1:47841 --shard 127.0.0.1:47842 \
    --input "$SERVE_IN" --output "$FLEET_OUT" --trace "$FLEET_TRACE" \
    --replicas 1 --check-histories --shutdown-shards 2> "$FLEET_LOG"
wait $FLEET_S1
wait $FLEET_S2
test "$(wc -l < "$FLEET_OUT")" -eq 51 || {
    echo "fleetd: expected 51 response lines"; exit 1;
}
test "$(grep -c '"status": "done"' "$FLEET_OUT")" -eq 51 || {
    echo "fleetd: not every job completed"; exit 1;
}
# Bit-identity against the single-process served run: for every job kind
# (and the file-loaded job) the fleet must produce exactly the digest the
# single process produced.
for kind in verify generate optimize optimize_incremental diagnose file-job; do
    ref=$(grep "\"id\": \"$kind" "$SERVE_OUT" \
        | sed 's/.*"digest": "\([0-9a-f]*\)".*/\1/' | sort -u)
    got=$(grep "\"id\": \"$kind" "$FLEET_OUT" \
        | sed 's/.*"digest": "\([0-9a-f]*\)".*/\1/' | sort -u)
    test -n "$ref" && test "$ref" = "$got" || {
        echo "fleetd: $kind digests diverged from single-process served"
        exit 1
    }
done
for name in fleet.forward fleet.replicate; do
    grep -q "\"name\":\"$name\"" "$FLEET_TRACE" || {
        echo "fleet trace lacks expected event name '$name'"
        exit 1
    }
done
grep -q '"record": "consistency", "verdict": "ok"' "$FLEET_LOG" || {
    echo "fleetd: consistency check did not pass"; exit 1;
}
grep -q '"record": "stats"' target/fleet_shard1.log || {
    echo "shard 1 emitted no final stats record"; exit 1;
}

echo "==> fleet crash smoke (one shard killed mid-batch, no job dropped)"
# Same batch, fresh ports, and shard 2 deterministically exits (as if
# kill -9'd) after its 5th job. fleetd must mark it lost, re-dispatch the
# in-flight jobs onto the survivor, still produce 51 bit-identical
# responses, and the survivor's history must still pass the checker.
FLEET2_OUT=target/fleet_crash.out.jsonl
FLEET2_TRACE=target/fleet_crash.trace.jsonl
FLEET2_LOG=target/fleet_crash.fleetd.log
target/release/served --listen 127.0.0.1:47843 --name s1 --workers 2 \
    2> target/fleet_crash_shard1.log &
FLEET_S1=$!
target/release/served --listen 127.0.0.1:47844 --name s2 --workers 2 \
    --crash-after 5 2> target/fleet_crash_shard2.log &
FLEET_S2=$!
target/release/fleetd --shard 127.0.0.1:47843 --shard 127.0.0.1:47844 \
    --input "$SERVE_IN" --output "$FLEET2_OUT" --trace "$FLEET2_TRACE" \
    --replicas 1 --check-histories --shutdown-shards 2> "$FLEET2_LOG"
wait $FLEET_S1
wait $FLEET_S2 && { echo "crash shard exited cleanly (hook never fired)"; exit 1; } || true
test "$(grep -c '"status": "done"' "$FLEET2_OUT")" -eq 51 || {
    echo "fleetd: shard loss dropped a job"; exit 1;
}
for kind in verify generate optimize optimize_incremental diagnose file-job; do
    ref=$(grep "\"id\": \"$kind" "$SERVE_OUT" \
        | sed 's/.*"digest": "\([0-9a-f]*\)".*/\1/' | sort -u)
    got=$(grep "\"id\": \"$kind" "$FLEET2_OUT" \
        | sed 's/.*"digest": "\([0-9a-f]*\)".*/\1/' | sort -u)
    test -n "$ref" && test "$ref" = "$got" || {
        echo "fleetd: $kind digests diverged after shard loss"
        exit 1
    }
done
grep -q '"name":"fleet.shard_lost"' "$FLEET2_TRACE" || {
    echo "fleet trace lacks the shard_lost event"; exit 1;
}
grep -q '"record": "consistency", "verdict": "ok"' "$FLEET2_LOG" || {
    echo "fleetd: post-crash consistency check did not pass"; exit 1;
}
grep -q '"record": "crash_injected"' target/fleet_crash_shard2.log || {
    echo "crash shard never recorded its injected exit"; exit 1;
}

echo "==> bench_replan smoke (release, warm-vs-cold replanning, differential gate)"
cargo run --release -q -p etcs-bench --bin bench_replan -- \
    --smoke --out target/BENCH_replan_smoke.json
cargo run --release -q -p etcs-bench --bin json_check -- \
    target/BENCH_replan_smoke.json
# The bench itself asserts every tick's verdict and optima are
# bit-identical to a cold re-solve of the patched scenario; here we
# re-assert the headline on the artifact: warm replanning must beat the
# cold re-solves on total conflicts.
grep -q '"warm_wins": true' target/BENCH_replan_smoke.json || {
    echo "bench_replan: warm replanning did not beat cold re-solves"; exit 1;
}
grep -q '"available_parallelism": [1-9]' target/BENCH_replan_smoke.json || {
    echo "bench_replan: artifact lacks available_parallelism"; exit 1;
}

echo "==> served replan smoke (session records, warm ticks, digest parity)"
REPLAN_IN=target/serve_replan.in.jsonl
REPLAN_OUT=target/serve_replan.out.jsonl
REPLAN_TRACE=target/serve_replan.trace.jsonl
REPLAN_LOG=target/serve_replan.log
: > "$REPLAN_IN"
printf '{"record": "open", "session": "s1", "scenario": "fixture:running_example"}\n' >> "$REPLAN_IN"
printf '{"id": "cold", "kind": "optimize_incremental", "scenario": "fixture:running_example"}\n' >> "$REPLAN_IN"
printf '{"record": "tick", "session": "s1"}\n' >> "$REPLAN_IN"
printf '{"record": "delta", "session": "s1", "delta": "deadline Train 1 : arr 0:04:00"}\n' >> "$REPLAN_IN"
printf '{"record": "tick", "session": "s1"}\n' >> "$REPLAN_IN"
printf '{"record": "close", "session": "s1"}\n' >> "$REPLAN_IN"
cargo run --release -q -p etcs-serve --bin served -- \
    --input "$REPLAN_IN" --output "$REPLAN_OUT" --trace "$REPLAN_TRACE" \
    --workers 2 2> "$REPLAN_LOG"
test "$(wc -l < "$REPLAN_OUT")" -eq 6 || {
    echo "served replan: expected 6 response lines"; exit 1;
}
test "$(grep -c '"record": "ticked"' "$REPLAN_OUT")" -eq 2 || {
    echo "served replan: expected 2 ticked records"; exit 1;
}
grep '"record": "ticked"' "$REPLAN_OUT" | grep -q '"warm": true' || {
    echo "served replan: the deadline delta did not warm-start"; exit 1;
}
# The warm tick lands on the core tick 1 answered: it is served from the
# stored answer with no solver call, and hashes tick 1's verdict.
warm_tick=$(grep '"record": "ticked"' "$REPLAN_OUT" | grep '"tick": 2')
echo "$warm_tick" | grep -q '"solver_calls": 0,' || {
    echo "served replan: the warm tick made solver calls"; exit 1;
}
# Digest parity: a streamed tick and the cold one-shot job over the same
# scenario hash the same verdict + optima.
tick_digest=$(grep '"record": "ticked"' "$REPLAN_OUT" | grep '"tick": 1' \
    | sed 's/.*"verdict_digest": "\([0-9a-f]*\)".*/\1/')
job_digest=$(grep '"id": "cold"' "$REPLAN_OUT" \
    | sed 's/.*"verdict_digest": "\([0-9a-f]*\)".*/\1/')
test -n "$tick_digest" && test "$tick_digest" = "$job_digest" || {
    echo "served replan: streamed tick digest diverged from the cold job"
    exit 1
}
warm_digest=$(echo "$warm_tick" | sed 's/.*"verdict_digest": "\([0-9a-f]*\)".*/\1/')
test "$warm_digest" = "$tick_digest" || {
    echo "served replan: the answered warm tick's digest diverged from tick 1"
    exit 1
}
# The terminal stats record covers the (closed) session, and the span
# vocabulary is stable (DESIGN.md section 17).
grep '"record": "stats"' "$REPLAN_LOG" \
    | grep -q '"replan": {"ticks": 2, "warm_hits": 1, "cold_fallbacks": 1, "deadline_misses": 0' || {
    echo "served replan: stats record lacks the session counters"; exit 1;
}
for name in replan.open replan.delta replan.tick; do
    grep -q "\"name\":\"$name\"" "$REPLAN_TRACE" || {
        echo "replan trace lacks expected span name '$name'"
        exit 1
    }
done

echo "==> non-test line counts (informational, never gates)"
sh ci/loc.sh

echo "All checks passed."
