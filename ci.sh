#!/usr/bin/env bash
# Local CI gate (GitHub Actions is not available in the offline dev
# environment — run this before pushing). Mirrors the checks a hosted
# workflow would run, entirely offline:
#
#   ./ci.sh          # fmt + clippy + full test suite
#   ./ci.sh quick    # fmt + clippy + unit tests only (skips the
#                    # multi-day end-to-end simulations)
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
if [[ "${1:-}" == "quick" ]]; then
    cargo test -q --offline --workspace --lib --bins
else
    cargo test -q --offline
fi

echo "== cargo bench --no-run =="
cargo bench --offline --no-run -q

echo "== polca-cli ingest smoke test =="
cargo run -q --offline --release -p polca-cli -- \
    ingest tests/golden/sample_trace.csv

echo "== polca-cli fleet smoke test =="
# One trap for every smoke-test scratch dir: each step registers its
# mktemp dir here instead of re-issuing `trap ... EXIT`, which would
# silently *replace* the previous handler and leak the earlier dirs.
scratch_dirs=()
cleanup() { ((${#scratch_dirs[@]})) && rm -rf "${scratch_dirs[@]}" || :; }
trap cleanup EXIT
scratch() {
    local dir
    dir="$(mktemp -d)"
    scratch_dirs+=("$dir")
    printf '%s' "$dir"
}
fleet_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 4 --jobs 2 --servers 10 --obs-out "$fleet_out"
for row in row0 row1 row2 row3; do
    [[ -f "$fleet_out/$row/events.jsonl" ]] \
        || { echo "missing fleet artifact: $row/events.jsonl"; exit 1; }
done
[[ -f "$fleet_out/metrics.json" ]] \
    || { echo "missing fleet-level metrics.json"; exit 1; }

echo "== polca-cli site smoke test =="
# Determinism gate for the parallel site simulator: a 3-datacenter
# site stepped on 2 worker threads must produce byte-identical
# events.jsonl to the same site stepped sequentially.
site_seq="$(scratch)"
site_par="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 3 --servers 10 --enforce-budgets \
    --fleet-threads 1 --obs-out "$site_seq" > /dev/null
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 3 --servers 10 --enforce-budgets \
    --fleet-threads 2 --obs-out "$site_par" > /dev/null
cmp "$site_seq/events.jsonl" "$site_par/events.jsonl" \
    || { echo "site events.jsonl differs across --fleet-threads"; exit 1; }
for row in 0 1 2 3 4 5; do
    cmp "$site_seq/row$row/events.jsonl" "$site_par/row$row/events.jsonl" \
        || { echo "row$row events.jsonl differs across --fleet-threads"; exit 1; }
done
grep -q 'datacenter="2"' "$site_seq/metrics.prom" \
    || { echo "no per-datacenter series in site metrics.prom"; exit 1; }
# --jobs and --fleet-threads are both accepted together: with --rows
# and --datacenters this is the one-policy site-replay shape, which
# steps rows on --fleet-threads and reads no --jobs (that drives only
# the four-policy single-row panel).
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --rows 2 --datacenters 2 --servers 10 --jobs 2 --fleet-threads 2 \
    > /dev/null

echo "== perfbench correctness gate (site workloads) =="
# The repository benchmark pins digests of every deterministic site
# artifact; a short run of each site workload at both benchmark seeds
# catches an API break against perfbench/ and any change to site
# artifact bytes. perfbench exits 0 even when a digest mismatches, so
# the gate greps its final JSON line.
cargo build -q --offline --release --manifest-path perfbench/Cargo.toml
for workload in site_monitored site_observed; do
    for seed in 17 29; do
        bench_json="$(cargo run -q --offline --release \
            --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)"
        grep -q '"correct": true' <<<"$bench_json" \
            || { echo "perfbench $workload seed $seed is not correct: $bench_json"; exit 1; }
        echo "  perfbench $workload seed $seed: correct"
    done
done

echo "== polca-cli watch smoke test =="
watch_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --trace-csv tests/golden/sample_trace.csv \
    --policy polca --watch --obs-out "$watch_out"
for f in incidents.jsonl report.md metrics.prom trace.json; do
    [[ -f "$watch_out/$f" ]] || { echo "missing watch artifact: $f"; exit 1; }
done
grep -q '^# Watch report' "$watch_out/report.md"
grep -q '^# TYPE ' "$watch_out/metrics.prom"
# Every incident line must be a JSON object with the lifecycle fields.
if [[ -s "$watch_out/incidents.jsonl" ]]; then
    grep -vq '^{"id":' "$watch_out/incidents.jsonl" \
        && { echo "malformed incidents.jsonl line"; exit 1; }
    grep -q '"detection_lag_s"' "$watch_out/incidents.jsonl"
fi

echo "== polca-cli serve smoke test =="
serve_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --days 0.02 --obs-out "$serve_out/agg"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --split-pools --days 0.02 \
    --obs-out "$serve_out/split"
for d in agg split; do
    for f in events.jsonl metrics.prom prof.json; do
        [[ -f "$serve_out/$d/$f" ]] \
            || { echo "missing serve artifact: $d/$f"; exit 1; }
    done
    grep -q '^serve_kv_occupancy ' "$serve_out/$d/metrics.prom" \
        || { echo "no KV-occupancy gauge in $d/metrics.prom"; exit 1; }
    grep -q '"serve.iteration"' "$serve_out/$d/prof.json" \
        || { echo "no serve.iteration phase in $d/prof.json"; exit 1; }
done
grep -q 'serve_pool_power_w{tag="aggregated"}' "$serve_out/agg/metrics.prom" \
    || { echo "no aggregated pool power gauge"; exit 1; }
grep -q 'serve_pool_power_w{tag="prefill"}' "$serve_out/split/metrics.prom" \
    || { echo "no prefill pool power gauge"; exit 1; }
grep -q 'serve_pool_power_w{tag="decode"}' "$serve_out/split/metrics.prom" \
    || { echo "no decode pool power gauge"; exit 1; }

echo "== polca-cli req-trace smoke test =="
req_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --req-trace --days 0.02 --obs-out "$req_out"
[[ -s "$req_out/requests.jsonl" ]] \
    || { echo "req-trace wrote no requests.jsonl"; exit 1; }
# Every record must carry the lifecycle + energy schema fields.
for field in '"id"' '"priority"' '"queue_s"' '"ttft_s"' '"tbt_mean_s"' \
             '"tbt_max_s"' '"preemptions"' '"joules"' '"joules_per_token"' \
             '"co2e_g"' '"pue_applied"'; do
    grep -vq "$field" "$req_out/requests.jsonl" \
        && { echo "requests.jsonl line missing $field"; exit 1; }
done
# The per-priority TTFT histograms land in the Prometheus export.
grep -q '^# TYPE req_ttft_s summary' "$req_out/metrics.prom" \
    || { echo "no req_ttft_s histogram in metrics.prom"; exit 1; }
grep -q '^req_ttft_s{tag="' "$req_out/metrics.prom" \
    || { echo "req_ttft_s has no per-priority series"; exit 1; }
grep -q '^req_joules_per_token{tag="' "$req_out/metrics.prom" \
    || { echo "no joules-per-token histogram in metrics.prom"; exit 1; }

echo "== polca-cli energy smoke test =="
energy_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --carbon-diurnal --days 0.02 \
    --obs-out "$energy_out" > "$energy_out/summary.txt"
for f in energy.json energy.csv metrics.prom; do
    [[ -s "$energy_out/$f" ]] \
        || { echo "missing energy artifact: $f"; exit 1; }
done
grep -q '^energy_site_wh ' "$energy_out/metrics.prom" \
    || { echo "no energy_site_wh gauge in metrics.prom"; exit 1; }
grep -q '^carbon_site_g ' "$energy_out/metrics.prom" \
    || { echo "no carbon_site_g gauge in metrics.prom"; exit 1; }
grep -q 'gCO2e' "$energy_out/summary.txt" \
    || { echo "evaluate printed no energy ledger table"; exit 1; }
# The bundled grid trace drives the same run (sample-and-hold CSV
# ingestion), and the ledger lands with a non-trivial carbon account.
energy_trace_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    evaluate --engine batched --days 0.02 \
    --carbon-trace tests/golden/carbon_intensity_24h.csv \
    --obs-out "$energy_trace_out"
grep -q '^carbon_mean_g_per_kwh ' "$energy_trace_out/metrics.prom" \
    || { echo "carbon trace run emitted no mean intensity"; exit 1; }

echo "== polca-cli profile smoke test =="
# The benchmark gate is BENCHMARK.json / perfbench (the correctness
# step above); `profile` is the self-profiling job: one profiled
# repetition must print the attribution table and write its artifacts.
prof_out="$(scratch)"
cargo run -q --offline --release -p polca-cli -- \
    profile --reps 1 --out "$prof_out" > "$prof_out/profile.txt"
grep -q '^accounted: ' "$prof_out/profile.txt" \
    || { echo "profile printed no attribution table"; exit 1; }
for f in prof.json prof.folded; do
    [[ -f "$prof_out/$f" ]] || { echo "missing profile artifact: $f"; exit 1; }
done

echo "== polca-cli error paths =="
# Out-of-range values and undeclared flags are user errors: exit 1 with
# an `error:` line, never a panic (exit 101).
for args in "evaluate --days -1" "evaluate --dayz 1"; do
    status=0
    # shellcheck disable=SC2086
    err="$(cargo run -q --offline --release -p polca-cli -- $args 2>&1 >/dev/null)" \
        || status=$?
    [[ "$status" -eq 1 ]] \
        || { echo "polca-cli $args exited $status, want 1"; exit 1; }
    grep -q '^error: ' <<<"$err" \
        || { echo "polca-cli $args printed no error line"; exit 1; }
done

echo "CI OK"
