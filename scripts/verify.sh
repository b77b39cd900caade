#!/usr/bin/env bash
# Tier-1 verification for the hermetic workspace.
#
# Every dependency is an in-repo path crate, so the whole build/test cycle
# must succeed with --offline and no crates.io registry access. Run from
# anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== docs drift lint (scripts/check_docs.sh) =="
./scripts/check_docs.sh

echo "== perfbench unit tests =="
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench/tests

echo "== cargo tree: dependency graph must be path-local =="
if cargo tree --offline --workspace --prefix none | grep -vE '^\[|^$' | grep -qv '(/'; then
    echo "error: found a non-path dependency in the workspace tree" >&2
    cargo tree --offline --workspace --prefix none | grep -vE '^\[|^$' | grep -v '(/' >&2
    exit 1
fi

echo "== cargo build --release (offline) =="
cargo build --release --offline

# The benchmark tracer is a separate package that path-depends on the
# library crates' public API; building it here catches an API break that
# would otherwise only surface in the benchmark's traced run. --locked
# keeps its committed lockfile read-only; the build output stays in /target.
echo "== perfbench tracer builds against the current API =="
cargo build --release --offline --locked --manifest-path perfbench/tracer/Cargo.toml \
    --target-dir target/perfbench-tracer

echo "== cargo test -q (offline) =="
cargo test -q --offline

echo "== cargo test -q --workspace (offline, ST_PAR_THREADS=1) =="
ST_PAR_THREADS=1 cargo test -q --workspace --offline

echo "== cargo test -q --workspace (offline, ST_PAR_THREADS=4) =="
ST_PAR_THREADS=4 cargo test -q --workspace --offline

# Forced-scalar leg: ST_SIMD=0 pins the dispatch to the scalar tier, so the
# goldens and both equivalence suites prove the SIMD paths change no bits.
echo "== cargo test -q --workspace (offline, ST_SIMD=0 scalar tier) =="
ST_SIMD=0 cargo test -q --workspace --offline

echo "== cargo clippy --workspace --all-targets (offline, deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --no-deps (offline, deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet

echo "== quick micro-bench with JSON report =="
cargo bench -p pristi-bench --bench micro --offline -- --quick --json
test -s BENCH_micro.json || { echo "error: BENCH_micro.json missing or empty" >&2; exit 1; }

echo "== thread-scaling + prior-cache entries present in BENCH_micro.json =="
for entry in \
    pristi_eps_theta_forward_4x24x24_t1 \
    pristi_eps_theta_forward_4x24x24_t2 \
    pristi_eps_theta_forward_4x24x24_tmax \
    attention_forward_backward_8x24x32_t1 \
    attention_forward_backward_8x24x32_t2 \
    attention_forward_backward_8x24x32_tmax \
    quantile_cached_32x36x24 \
    quantile_resort_32x36x24 \
    serve_serial_4req_x2samples \
    p_sample_step_cached_8x36x24 \
    p_sample_step_uncached_8x36x24 \
    impute_cached_4req_x2samples \
    impute_ddim_4req_x2samples \
    impute_pndm_4req_x2samples \
    impute_refine_4req_x2samples \
    stream_tick_amortized_16t \
    stream_tick_recompute_16t; do
    grep -q "\"$entry\"" BENCH_micro.json \
        || { echo "error: BENCH_micro.json missing bench entry $entry" >&2; exit 1; }
done

# Streaming amortization gate: the session's per-tick cost over the 16-tick
# feed must be >= 2x cheaper than a full-window recompute every tick.
STREAM_NS="$(sed -nE 's/.*"stream_tick_amortized_16t","ns_per_iter":([0-9]+).*/\1/p' BENCH_micro.json)"
RECOMPUTE_NS="$(sed -nE 's/.*"stream_tick_recompute_16t","ns_per_iter":([0-9]+).*/\1/p' BENCH_micro.json)"
[ -n "$STREAM_NS" ] && [ -n "$RECOMPUTE_NS" ] \
    || { echo "error: could not extract stream_tick ns_per_iter values" >&2; exit 1; }
awk -v s="$STREAM_NS" -v r="$RECOMPUTE_NS" 'BEGIN { exit !(r >= 2.0 * s) }' \
    || { echo "error: streaming amortization below 2x (stream $STREAM_NS ns vs recompute $RECOMPUTE_NS ns)" >&2; exit 1; }
echo "stream bench: amortized $STREAM_NS ns vs recompute $RECOMPUTE_NS ns (>= 2x)"

echo "== checkpoint round-trip + serve smoke (offline CLI) =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
PRISTI=target/release/pristi
"$PRISTI" generate --kind aqi --out "$SMOKE_DIR/panel.csv" --coords-out "$SMOKE_DIR/coords.csv"
"$PRISTI" checkpoint save --data "$SMOKE_DIR/panel.csv" --coords "$SMOKE_DIR/coords.csv" \
    --out "$SMOKE_DIR/model.ckpt" --epochs 1 --window 12 2>/dev/null
"$PRISTI" checkpoint load-verify --ckpt "$SMOKE_DIR/model.ckpt"

# Three JSONL requests (36 sensors x 12 steps, nulls = cells to impute) must
# come back as three well-formed, ok:true response lines.
N_CELLS=36
ROW='[1.0,2.0,null,4.0,5.0,null,7.0,8.0,9.0,null,11.0,12.0]'
ROWS="$ROW"
for _ in $(seq 2 "$N_CELLS"); do ROWS="$ROWS,$ROW"; done
for id in 1 2 3; do
    echo "{\"id\":$id,\"values\":[$ROWS],\"n_samples\":2,\"ddim_steps\":4}"
done > "$SMOKE_DIR/requests.jsonl"
# One request per new solver family via the "sampler" spec field.
echo "{\"id\":4,\"values\":[$ROWS],\"n_samples\":2,\"sampler\":\"pndm:3\"}" >> "$SMOKE_DIR/requests.jsonl"
echo "{\"id\":5,\"values\":[$ROWS],\"n_samples\":2,\"sampler\":\"refine:3\"}" >> "$SMOKE_DIR/requests.jsonl"
"$PRISTI" serve --ckpt "$SMOKE_DIR/model.ckpt" \
    < "$SMOKE_DIR/requests.jsonl" > "$SMOKE_DIR/responses.jsonl" 2>/dev/null
[ "$(wc -l < "$SMOKE_DIR/responses.jsonl")" -eq 5 ] \
    || { echo "error: serve smoke expected 5 response lines" >&2; exit 1; }
for id in 1 2 3 4 5; do
    grep -q "^{\"id\":$id,\"ok\":true,\"median\":\[\[" "$SMOKE_DIR/responses.jsonl" \
        || { echo "error: serve smoke missing ok response for id $id" >&2; exit 1; }
done
echo "serve smoke: 5 requests -> 5 well-formed responses"

echo "== multi-worker serve smoke (--workers 4, same requests) =="
"$PRISTI" serve --ckpt "$SMOKE_DIR/model.ckpt" --workers 4 \
    < "$SMOKE_DIR/requests.jsonl" > "$SMOKE_DIR/responses_w4.jsonl" 2>/dev/null
# Worker-count invariance at the CLI level: byte-identical responses.
sort "$SMOKE_DIR/responses.jsonl" > "$SMOKE_DIR/responses.sorted"
sort "$SMOKE_DIR/responses_w4.jsonl" > "$SMOKE_DIR/responses_w4.sorted"
cmp -s "$SMOKE_DIR/responses.sorted" "$SMOKE_DIR/responses_w4.sorted" \
    || { echo "error: --workers 4 responses diverge from --workers 1" >&2; exit 1; }
echo "serve smoke: --workers 4 responses byte-identical to --workers 1"

echo "== streaming serve smoke (--stream, 12-tick JSONL, bitwise replay) =="
# 12 ticks over the 36-sensor model: a null opens a gap on ticks 1 and 7,
# every 4th tick is fully observed. Replaying the log must reproduce the
# response bytes exactly, and --workers 4 must not change a byte either.
: > "$SMOKE_DIR/ticks.jsonl"
for t in $(seq 1 12); do
    CELLS="$t.5"
    for i in $(seq 2 "$N_CELLS"); do
        if { [ "$t" -eq 1 ] || [ "$t" -eq 7 ]; } && [ "$i" -eq 3 ]; then
            CELLS="$CELLS,null"
        else
            CELLS="$CELLS,$i.$t"
        fi
    done
    echo "{\"id\":$t,\"tick\":[$CELLS]}" >> "$SMOKE_DIR/ticks.jsonl"
done
echo '{"id":13,"reimpute":true}' >> "$SMOKE_DIR/ticks.jsonl"
"$PRISTI" serve --stream --ckpt "$SMOKE_DIR/model.ckpt" --samples 2 \
    < "$SMOKE_DIR/ticks.jsonl" > "$SMOKE_DIR/stream_a.jsonl" 2>/dev/null
"$PRISTI" serve --stream --ckpt "$SMOKE_DIR/model.ckpt" --samples 2 \
    < "$SMOKE_DIR/ticks.jsonl" > "$SMOKE_DIR/stream_b.jsonl" 2>/dev/null
cmp -s "$SMOKE_DIR/stream_a.jsonl" "$SMOKE_DIR/stream_b.jsonl" \
    || { echo "error: stream replay responses are not byte-identical" >&2; exit 1; }
"$PRISTI" serve --stream --ckpt "$SMOKE_DIR/model.ckpt" --samples 2 --workers 4 \
    < "$SMOKE_DIR/ticks.jsonl" > "$SMOKE_DIR/stream_w4.jsonl" 2>/dev/null
cmp -s "$SMOKE_DIR/stream_a.jsonl" "$SMOKE_DIR/stream_w4.jsonl" \
    || { echo "error: stream --workers 4 responses diverge from --workers 1" >&2; exit 1; }
[ "$(wc -l < "$SMOKE_DIR/stream_a.jsonl")" -eq 13 ] \
    || { echo "error: stream smoke expected 13 response lines" >&2; exit 1; }
grep -q '"ok":false' "$SMOKE_DIR/stream_a.jsonl" \
    && { echo "error: stream smoke produced an error response" >&2; exit 1; }
grep -q '"imputed":true' "$SMOKE_DIR/stream_a.jsonl" \
    || { echo "error: stream smoke never imputed" >&2; exit 1; }
grep -q '"imputed":false' "$SMOKE_DIR/stream_a.jsonl" \
    || { echo "error: stream smoke never skipped a gap-free tick" >&2; exit 1; }
grep -q '"watermark":' "$SMOKE_DIR/stream_a.jsonl" \
    || { echo "error: stream responses missing the settled watermark" >&2; exit 1; }
echo "stream smoke: 13 ticks, replay + --workers 4 byte-identical"

echo "== interactive wire smoke: each answer arrives before the next line is sent =="
# Feed the smoke inputs one line at a time through a coproc whose stdin stays
# open, and require line k's answer (read -t) before line k+1 is written: a
# front end that held answers until EOF would time out here.
interactive_smoke() {  # LABEL INPUT EXPECTED_OUTPUT PRISTI-ARGS...
    local label="$1" input="$2" expected="$3" k=0 line answer
    shift 3
    coproc SRV { "$PRISTI" "$@" 2>/dev/null; }
    while IFS= read -r line; do
        k=$((k + 1))
        printf '%s\n' "$line" >&"${SRV[1]}"
        if ! IFS= read -r -t 120 -u "${SRV[0]}" answer; then
            echo "error: $label: no answer to line $k before line $((k + 1)) was due" >&2
            kill "$SRV_PID" 2>/dev/null || true
            exit 1
        fi
        printf '%s\n' "$answer" >> "$SMOKE_DIR/$label.jsonl"
    done < "$input"
    eval "exec ${SRV[1]}>&-"
    wait "$SRV_PID"
    cmp -s "$SMOKE_DIR/$label.jsonl" "$expected" \
        || { echo "error: $label answers differ from the piped run" >&2; exit 1; }
    echo "$label: $k lines, each answered before the next was sent"
}
interactive_smoke serve_interactive "$SMOKE_DIR/requests.jsonl" "$SMOKE_DIR/responses.jsonl" \
    serve --ckpt "$SMOKE_DIR/model.ckpt"
interactive_smoke stream_interactive "$SMOKE_DIR/ticks.jsonl" "$SMOKE_DIR/stream_a.jsonl" \
    serve --stream --ckpt "$SMOKE_DIR/model.ckpt" --samples 2
# A retired or mistyped flag is a usage error, not a silent default.
STATUS=0
"$PRISTI" serve --ckpt "$SMOKE_DIR/model.ckpt" --batch 4 < /dev/null 2>/dev/null || STATUS=$?
[ "$STATUS" -eq 2 ] \
    || { echo "error: serve --batch exited $STATUS, expected usage error 2" >&2; exit 1; }

echo "== degenerate serve settings are refused at startup =="
# Each must exit non-zero with nothing on stdout although valid lines wait on
# stdin: the settings are checked once, before a line is read, instead of
# answering every line with degenerate_config.
while read -r input args; do
    STATUS=0
    # shellcheck disable=SC2086  # $args is a word list on purpose
    "$PRISTI" serve $args --ckpt "$SMOKE_DIR/model.ckpt" < "$SMOKE_DIR/$input" \
        > "$SMOKE_DIR/refused.jsonl" 2>/dev/null || STATUS=$?
    { [ "$STATUS" -ne 0 ] && [ ! -s "$SMOKE_DIR/refused.jsonl" ]; } \
        || { echo "error: serve $args exited $STATUS with output, expected a startup refusal" >&2; exit 1; }
done <<'EOF'
ticks.jsonl --stream --horizon 0
ticks.jsonl --stream --horizon 13
ticks.jsonl --stream --samples 0
ticks.jsonl --stream --ddim 0
ticks.jsonl --stream --workers 0
requests.jsonl --samples 0
requests.jsonl --ddim 0
requests.jsonl --workers 0
EOF
echo "startup gate: 8 degenerate serve settings refused before reading stdin"

echo "== wire finite-value gate: an f32-overflowing cell is a bad_request =="
# 1e39 overflows f32; each mode must answer the line with exactly one typed
# bad_request error instead of accepting the cell as an observation.
BIG_ROW='[1.0,2.0,null,4.0,5.0,null,7.0,8.0,9.0,null,11.0,1e39]'
BIG_ROWS="$BIG_ROW"
for _ in $(seq 2 "$N_CELLS"); do BIG_ROWS="$BIG_ROWS,$ROW"; done
echo "{\"id\":1,\"values\":[$BIG_ROWS],\"n_samples\":2,\"ddim_steps\":4}" \
    | "$PRISTI" serve --ckpt "$SMOKE_DIR/model.ckpt" > "$SMOKE_DIR/big_serve.jsonl" 2>/dev/null
BIG_CELLS="-1e39"
for i in $(seq 2 "$N_CELLS"); do BIG_CELLS="$BIG_CELLS,$i.5"; done
echo "{\"id\":1,\"tick\":[$BIG_CELLS]}" \
    | "$PRISTI" serve --stream --ckpt "$SMOKE_DIR/model.ckpt" --samples 2 \
    > "$SMOKE_DIR/big_stream.jsonl" 2>/dev/null
for f in big_serve big_stream; do
    [ "$(wc -l < "$SMOKE_DIR/$f.jsonl")" -eq 1 ] \
        || { echo "error: $f expected exactly one response line" >&2; exit 1; }
    grep -q '"ok":false,"error":{"kind":"bad_request"' "$SMOKE_DIR/$f.jsonl" \
        || { echo "error: $f did not answer the 1e39 cell with bad_request" >&2; exit 1; }
done
# The request parsed its id before the bad cell, so the error echoes it.
grep -q '^{"id":1,"ok":false' "$SMOKE_DIR/big_serve.jsonl" \
    || { echo "error: big_serve error line does not echo the request id" >&2; exit 1; }
echo "wire gate: 1e39 cells rejected with bad_request in both modes"

echo "== loadtest: schema, entries, and seeded determinism =="
"$PRISTI" loadtest --quick --stream --seed 7 --out "$SMOKE_DIR/serve_a.json" 2>/dev/null
grep -q '"schema":"st-serve-bench/1"' "$SMOKE_DIR/serve_a.json" \
    || { echo "error: BENCH_serve report missing st-serve-bench/1 schema" >&2; exit 1; }
for entry in closed_loop_w1 closed_loop_w4 mixed_solver_w1 mixed_solver_w4 shed_storm timeout_storm stream_w1 stream_w4; do
    grep -q "\"name\":\"$entry\"" "$SMOKE_DIR/serve_a.json" \
        || { echo "error: BENCH_serve report missing entry $entry" >&2; exit 1; }
done
for key in p50_ms p99_ms p999_ms rps shed timeout checksum; do
    grep -q "\"$key\":" "$SMOKE_DIR/serve_a.json" \
        || { echo "error: BENCH_serve report missing key $key" >&2; exit 1; }
done
# Same seed -> byte-identical report once per-entry "timing":{...} objects
# (the only run-varying fields) are blanked.
"$PRISTI" loadtest --quick --stream --seed 7 --out "$SMOKE_DIR/serve_b.json" 2>/dev/null
sed -E 's/"timing":\{[^}]*\}/"timing":{}/g' "$SMOKE_DIR/serve_a.json" > "$SMOKE_DIR/serve_a.stripped"
sed -E 's/"timing":\{[^}]*\}/"timing":{}/g' "$SMOKE_DIR/serve_b.json" > "$SMOKE_DIR/serve_b.stripped"
cmp -s "$SMOKE_DIR/serve_a.stripped" "$SMOKE_DIR/serve_b.stripped" \
    || { echo "error: same-seed loadtest reports differ after timing strip" >&2; exit 1; }
echo "loadtest: same-seed reports byte-identical modulo timing"

echo "== pristi profile: determinism + leaf attribution gate =="
"$PRISTI" profile --quick --out "$SMOKE_DIR/profile_a.json" \
    --folded "$SMOKE_DIR/folded_a.txt" >/dev/null
"$PRISTI" profile --quick --out "$SMOKE_DIR/profile_b.json" \
    --folded "$SMOKE_DIR/folded_b.txt" >/dev/null
grep -q '"schema": *"st-profile/1"' "$SMOKE_DIR/profile_a.json" \
    || { echo "error: PROFILE report missing st-profile/1 schema" >&2; exit 1; }
sed -E 's/"timing":\{[^}]*\}/"timing":{}/g' "$SMOKE_DIR/profile_a.json" > "$SMOKE_DIR/profile_a.stripped"
sed -E 's/"timing":\{[^}]*\}/"timing":{}/g' "$SMOKE_DIR/profile_b.json" > "$SMOKE_DIR/profile_b.stripped"
cmp -s "$SMOKE_DIR/profile_a.stripped" "$SMOKE_DIR/profile_b.stripped" \
    || { echo "error: profile reports differ after timing strip" >&2; exit 1; }
# >= 95% of root wall time must be attributed to leaf spans.
LEAF_PCT="$(sed -nE 's/.*"leaf_pct": *([0-9]+(\.[0-9]+)?).*/\1/p' "$SMOKE_DIR/profile_a.json")"
[ -n "$LEAF_PCT" ] || { echo "error: PROFILE report missing leaf_pct" >&2; exit 1; }
awk -v p="$LEAF_PCT" 'BEGIN { exit !(p >= 95.0) }' \
    || { echo "error: leaf attribution $LEAF_PCT% below the 95% gate" >&2; exit 1; }
echo "profile: stripped reports byte-identical, leaf attribution ${LEAF_PCT}%"

echo "== steps-vs-CRPS sweep (quick): few-step accuracy gate =="
# pndm:6 / refine:4 must stay within the pinned CRPS/MAE tolerances of the
# 50-step DDIM reference (the CLI exits nonzero on a violation).
"$PRISTI" bench --sweep --quick --out "$SMOKE_DIR/steps_vs_crps.csv" >/dev/null
grep -q '^pndm:6,' "$SMOKE_DIR/steps_vs_crps.csv" \
    || { echo "error: sweep CSV missing the pndm:6 row" >&2; exit 1; }
grep -q '^refine:4,' "$SMOKE_DIR/steps_vs_crps.csv" \
    || { echo "error: sweep CSV missing the refine:4 row" >&2; exit 1; }
echo "sweep: quick gate passes, CSV rows present"

echo "== per-solver impute micro-bench entries run standalone =="
"$PRISTI" bench --filter impute_ > "$SMOKE_DIR/impute_bench.txt"
[ "$(grep -c 'ns/iter' "$SMOKE_DIR/impute_bench.txt")" -eq 4 ] \
    || { echo "error: bench --filter impute_ expected 4 entries" >&2; exit 1; }
echo "bench filter: all 4 impute entries timed"

echo "== pristi bench --compare: regression gate =="
# Fresh quick run vs the committed baseline must pass (generous threshold:
# quick-run noise on this VM is +/-10-30%, see EXPERIMENTS.md).
"$PRISTI" bench --compare results/BENCH_micro_baseline.json,BENCH_micro.json \
    --threshold-pct 150 \
    || { echo "error: bench compare against committed baseline failed" >&2; exit 1; }
# The detector itself must fire: the committed fixture pair injects a 10x
# regression, so compare must exit nonzero even at a 100% threshold.
if "$PRISTI" bench --compare \
    results/bench_compare_fixture_old.json,results/bench_compare_fixture_new.json \
    --threshold-pct 100 >/dev/null; then
    echo "error: bench compare passed the injected-regression fixture" >&2
    exit 1
fi
echo "bench compare: baseline gate passes, injected regression detected"

echo "verify: OK"
