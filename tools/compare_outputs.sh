#!/usr/bin/env bash
# Diff the deterministic output of two builds of this repository.
#
#   tools/compare_outputs.sh BASE_BUILD HEAD_BUILD [WORK_DIR]
#
# Runs one fixed catalogue of commands in each build directory and
# compares what they print, byte for byte:
#   - every figure, table, ablation and comparison bench at
#     --branches=20000 (one also with --analysis=histogram,burst);
#   - tagecon_sweep with --per-trace --csv, with --baseline, and with
#     all five observers in a JSON report;
#   - tagecon_serve --per-stream --digests --csv over the CI serving
#     specs, and the deterministic section of one --metrics-out dump;
#   - the examples, including the trace files make_traces writes.
# Every command's output is a pure function of its flags, so two builds
# whose behavior agrees print the same bytes. Wall-clock sections stay
# out: the serve prints them only in its text view, and the metrics
# dump is cut to its deterministic section.
#
# Each side runs in WORK_DIR/base and WORK_DIR/head (a fresh temporary
# directory when WORK_DIR is not given, removed when every output
# matches). Exit status: 0 when every output matches, 1 when any
# differs (the differing files and the head of each diff are printed),
# 2 on a usage error. Runs use at most two worker threads.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 BASE_BUILD HEAD_BUILD [WORK_DIR]" >&2
    exit 2
fi
base_build=$(cd "$1" && pwd)
head_build=$(cd "$2" && pwd)
if [ $# -eq 3 ]; then
    mkdir -p "$3"
    work=$(cd "$3" && pwd)
    keep=1
else
    work=$(mktemp -d "${TMPDIR:-/tmp}/compare_outputs.XXXXXX")
    keep=0
fi

# run ID TOOL ARGS...: TOOL's stdout into ID.out, then its exit status.
run() {
    local id=$1 tool=$2
    shift 2
    local status=0
    "$bin/$tool" "$@" > "$id.out" 2> /dev/null || status=$?
    echo "# exit $status" >> "$id.out"
}

# Keep only the deterministic section of a --metrics-out dump.
deterministic_half() {
    sed -n '/^# --- deterministic/,/^# --- timing/p' "$1" > "$1.det"
    rm -f "$1"
}

catalogue() {
    local n=--branches=20000
    for b in figure2 figure3 figure4 figure5 figure6 table1 table2 \
        table3 section5 warmup bim_burst prob_sweep ablation_ctrwidth \
        ablation_looppred ablation_usealt vs_jrs vs_selfconf; do
        run "bench_$b" "bench_$b" $n --jobs=2
    done
    run bench_figure2_analysis bench_figure2 $n --jobs=2 \
        --analysis=histogram,burst

    local grid=tage16k+prob7+sfc,tage64k:ctr=4+sfc,ltage16k+sfc
    grid+=,tage64k+prob7+adaptive+sfc,gshare:hist=17+jrs,perceptron+sfc
    run sweep_per_trace tagecon_sweep --predictors=$grid --traces=cbp1 \
        $n --jobs=2 --per-trace --csv
    run sweep_per_trace_observers tagecon_sweep --predictors=$grid \
        --traces=cbp1 $n --jobs=2 --per-trace --csv \
        --analysis=histogram,burst
    run sweep_baseline tagecon_sweep \
        --predictors=tage64k+prob7+sfc,tage64k+prob7+jrs,ogehl+sfc \
        --baseline=tage16k+sfc --traces=all $n --jobs=2
    run sweep_baseline_per_trace tagecon_sweep \
        --predictors=tage64k+prob7+sfc,tage64k+jrsg \
        --baseline=tage64k+prob7+sfc --traces=cbp2 $n --jobs=2 \
        --per-trace --csv
    run sweep_observers_json tagecon_sweep \
        --predictors=tage16k+sfc,tage64k+prob7+adaptive+sfc,gshare+jrs \
        --traces=FP-1,INT-1,SERV-1 $n --jobs=2 \
        --analysis=intervals:len=5000,histogram,burst,perbranch:top=8,warmup \
        --report=json

    run serve_pooled tagecon_serve --streams=200 --branches=2000 \
        --spec=tage16k+sfc --jobs=2 --shards=13 --pool=2 --batch=97 \
        --per-stream --digests --csv
    for spec in tage64k+prob7+adaptive+sfc perceptron+sfc ltage64k+sfc \
        tage64k+jrs ogehl+sfc; do
        run "serve_$spec" tagecon_serve --streams=60 --branches=1500 \
            --spec="$spec" --jobs=2 --shards=3 --pool=1 --batch=97 \
            --per-stream --digests --csv
    done
    run serve_metrics tagecon_serve --streams=64 --branches=2000 \
        --spec=tage16k+sfc --jobs=2 --shards=8 --pool=2 --batch=97 \
        --faults='serve.worker.step:key=7,nth=3' --retries=2 \
        --per-stream --digests --csv --metrics-out=serve_metrics.prom
    deterministic_half serve_metrics.prom

    run example_quickstart example_quickstart $n
    run example_confidence_explorer example_confidence_explorer \
        --predictor=tage16k+sfc --set=cbp2 --branches=3000
    run example_fetch_gating example_fetch_gating $n
    run example_smt_fetch_policy example_smt_fetch_policy $n
    run example_make_traces example_make_traces --set=cbp1 \
        --branches=2000 --out=traces
}

for side in base head; do
    if [ $side = base ]; then bin=$base_build; else bin=$head_build; fi
    rm -rf "${work:?}/$side"
    mkdir -p "$work/$side"
    (cd "$work/$side" && catalogue)
done

count=$(find "$work/base" -type f | wc -l)
if diff -rq "$work/base" "$work/head" > "$work/differ.txt"; then
    echo "compare_outputs: $count outputs, no byte differs"
    [ $keep -eq 1 ] || rm -rf "$work"
    exit 0
fi
echo "compare_outputs: outputs differ (kept in $work):"
cat "$work/differ.txt"
while read -r _ a _ b _; do
    [ -f "$a" ] && [ -f "$b" ] && diff "$a" "$b" | head -20
done < "$work/differ.txt"
exit 1
