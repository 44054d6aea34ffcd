#!/usr/bin/env bash
# Full CI gate for the workspace.
#
# The build is hermetic (zero external dependencies — see DESIGN.md §2.5),
# so everything runs with the network forced off; a regression that
# reintroduces a registry dependency fails here immediately.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=1

echo "== build (release, offline) =="
cargo build --release --workspace

echo "== tests (offline) =="
cargo test -q --workspace

echo "== examples (release; each asserts its own round trip) =="
for example in compress_firmware memory_system persistence quickstart stream_tuning; do
    cargo run --release -q -p cce-core --example "$example" > /dev/null || {
        echo "example \`$example\` failed" >&2
        exit 1
    }
done

echo "== fuzz smoke (fixed seed) =="
cargo run --release -q -p cce-core --bin cce -- fuzz --algo all --cases 512 --seed 7

echo "== pipeline smoke (compress a multi-MB ELF, decode to equality) =="
# A ~4.2 MB generated workload goes through `compress` (huffman,
# 32-byte blocks, verified per block across the workers) and back through
# `decompress`; the rebuilt ELF's .text must be byte-identical, and the
# recorded block count must be exactly ceil(len(.text) / 32).  The same
# workload compressed with SAMC must give the same container on 1 and 4
# workers, and decompress to the same .text.  `analyze` must list the
# workload's .text, .rodata and .bss sections.
pipe_workers=4
pipe_elf="target/ci-pipeline.elf"
pipe_cce="target/ci-pipeline.cce"
pipe_out="target/ci-pipeline-out.elf"
pipe_metrics="target/ci-pipeline-metrics.json"
pipe_samc="target/ci-pipeline-samc"
cargo run --release -q -p cce-core --bin cce -- gen go --scale 64 --seed 7 --multi-section -o "$pipe_elf"
CCE_WORKERS="$pipe_workers" cargo run --release -q -p cce-core --bin cce -- \
    compress "$pipe_elf" -a huffman -o "$pipe_cce" --metrics "$pipe_metrics"
cargo run --release -q -p cce-core --bin cce -- decompress "$pipe_cce" -o "$pipe_out"
for workers in 1 "$pipe_workers"; do
    CCE_WORKERS="$workers" cargo run --release -q -p cce-core --bin cce -- \
        compress "$pipe_elf" -a samc -o "$pipe_samc-w$workers.cce"
done
cmp "$pipe_samc-w1.cce" "$pipe_samc-w$pipe_workers.cce"
cargo run --release -q -p cce-core --bin cce -- \
    decompress "$pipe_samc-w$pipe_workers.cce" -o "$pipe_samc-out.elf"
pipe_sections="$(cargo run --release -q -p cce-core --bin cce -- analyze "$pipe_elf")"
for section in .text .rodata .bss; do
    grep -q "^  $section " <<<"$pipe_sections" || {
        echo "cce analyze lists no $section section:" >&2
        echo "$pipe_sections" >&2
        exit 1
    }
done
python3 - "$pipe_elf" "$pipe_out" "$pipe_metrics" "$pipe_workers" "$pipe_samc-out.elf" <<'EOF'
import json, struct, sys

def text_section(path):
    with open(path, "rb") as f:
        data = f.read()
    assert data[:4] == b"\x7fELF", path
    big = data[5] == 2
    fmt = ">" if big else "<"
    shoff = struct.unpack_from(fmt + "I", data, 0x20)[0]
    shentsize, shnum, shstrndx = struct.unpack_from(fmt + "HHH", data, 0x2E)
    def section(i):
        base = shoff + i * shentsize
        name, kind = struct.unpack_from(fmt + "II", data, base)
        offset, size = struct.unpack_from(fmt + "II", data, base + 0x10)
        return name, kind, offset, size
    _, _, stroff, _ = section(shstrndx)
    for i in range(shnum):
        name, _, offset, size = section(i)
        end = data.index(b"\x00", stroff + name)
        if data[stroff + name:end] == b".text":
            return data[offset:offset + size]
    raise AssertionError(f"no .text in {path}")

original, rebuilt, metrics_path, workers, samc_rebuilt = sys.argv[1:6]
a, b = text_section(original), text_section(rebuilt)
assert len(a) >= 4 * 1024 * 1024, f"workload too small: {len(a)} bytes"
assert a == b, "decompressed .text differs from the original"
assert text_section(samc_rebuilt) == a, "SAMC-decompressed .text differs from the original"
with open(metrics_path) as f:
    # Hit/miss metrics carry hits/misses instead of a scalar value.
    metrics = {m["name"]: m["value"] for m in json.load(f)["metrics"] if "value" in m}
blocks = metrics["pipeline.blocks"]
assert blocks == -(-len(a) // 32), f"{blocks} blocks for {len(a)} .text bytes at 32 B"
print(f"pipeline smoke: {len(a)} .text bytes round-tripped in {blocks} blocks on {workers} workers"
      " (huffman; samc identical on 1 and 4 workers)")
EOF

echo "== experiments (EXPERIMENTS.md tables, worker invariance) =="
# EXPERIMENTS.md quotes every measured table verbatim: a fenced block
# after each `<!-- experiments:ID -->` marker.  Regenerate them all at
# scale 1.0 and diff each block against its `== ID ==` section of the
# `experiments` output, so the document cannot drift from the code.
exp_out="target/ci-experiments.txt"
CCE_SCALE=1.0 cargo run --release -q -p cce-bench --bin experiments > "$exp_out"
exp_ids="$(sed -n 's/^<!-- experiments:\(.*\) -->$/\1/p' EXPERIMENTS.md)"
test -n "$exp_ids"
for id in $exp_ids; do
    awk -v marker="<!-- experiments:$id -->" '
        $0 == marker { getline; if ($0 != "```text") exit 1; inside = 1; next }
        inside && $0 == "```" { exit }
        inside' EXPERIMENTS.md > "$exp_out.doc" || {
        echo "EXPERIMENTS.md marker \`$id\` is not followed by a \`\`\`text block" >&2
        exit 1
    }
    awk -v header="== $id ==" '
        $0 == header { inside = 1; next }
        inside && /^== .* ==$/ { exit }
        inside' "$exp_out" > "$exp_out.run"
    diff -u "$exp_out.doc" "$exp_out.run" || {
        echo "EXPERIMENTS.md block \`$id\` differs from \`experiments $id\` at CCE_SCALE=1.0" >&2
        exit 1
    }
done
# Determinism: the same tables for any worker count.
for w in 1 2; do
    CCE_SCALE=0.05 CCE_WORKERS="$w" cargo run --release -q -p cce-bench --bin experiments > "$exp_out.w$w"
done
cmp "$exp_out.w1" "$exp_out.w2"
# A malformed scale is refused, not silently replaced by 1.0.
if CCE_SCALE=0.05x cargo run --release -q -p cce-bench --bin experiments fig9 2>/dev/null; then
    echo "experiments must refuse CCE_SCALE=0.05x" >&2
    exit 1
fi

echo "== optimizer perf smoke (fixed seed, pinned division) =="
# The incremental stream-division search must stay bit-identical to the
# reference implementation and to its recorded output.  The hash pins the
# division returned at the default seeds; if the search is deliberately
# changed (new kernels, different RNG draws), re-record it by running
# `cargo run --release -p cce-bench --bin bench_optimizer`, reading
# division_hash from BENCH_optimizer.json, and updating the constant below
# in the same commit.
optimizer_file="target/ci-optimizer.json"
cargo run --release -q -p cce-bench --bin bench_optimizer -- -o "$optimizer_file"
python3 -m json.tool "$optimizer_file" > /dev/null  # artifact must be valid JSON
grep -q '"matches_reference":true' "$optimizer_file"
grep -q '"division_hash":"49bc0a2a57dccd29"' "$optimizer_file"
# The model-cache leg: the warm pass must be pure exact-key hits that
# reproduce the cold images, and the cold "go" search must land on the
# same pinned division as the top-level search.
grep -q '"warm_matches_cold":true' "$optimizer_file"
grep -q '"warm_hits":3' "$optimizer_file"
grep -q '"warm_speedup":' "$optimizer_file"
grep -q '"cold_division_hash":"49bc0a2a57dccd29"' "$optimizer_file"
# JSON artifacts terminate with a newline (regression: tail -c1 was '}').
test "$(tail -c1 "$optimizer_file")" = ""

echo "== sweep smoke (fixed-seed grid, worker invariance) =="
# The memory-system design-space sweep: the default fixed-seed grid must
# expand to >= 200 cells, the artifact must be valid JSON with every
# required per-cell field, and — because each cell is a pure function of
# the shared compressed images and the one decoded trace, and the
# artifact carries no timing — it must be byte-identical for any worker
# count.  So must the simulator's `memsim.*` and `sweep.*` counters in
# the `--metrics` artifact (all but the `sweep.span` wall time).
sweep_file="target/ci-sweep.json"
cargo run --release -q -p cce-core --bin cce -- sweep --scale 0.05 --fetches 60000 --workers 1 -o "$sweep_file" --metrics "$sweep_file.m1"
python3 - "$sweep_file" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    sweep = json.load(f)
assert sweep["version"] == 1 and sweep["benchmark"] == "memsim-sweep", sweep
summary = sweep["summary"]
assert summary["cells"] >= 200, f"grid too small: {summary['cells']} cells"
assert summary["images"] == len(sweep["images"]) >= 4, summary
assert len(sweep["cells"]) == summary["cells"], "cell list disagrees with summary"
for cell in sweep["cells"]:
    for field in ("codec", "block_size", "cache", "assoc", "clb", "decoder",
                  "cpf", "baseline_cpf", "slowdown", "cache_hit_ratio",
                  "clb_hit_ratio", "refill_cycles"):
        assert field in cell, f"cell missing {field}: {cell}"
    assert cell["cpf"] >= 1.0 and cell["slowdown"] >= 1.0, cell
assert isinstance(summary["arith_rans_delta"], float), summary
print(f"sweep smoke: {summary['cells']} cells over {summary['images']} images")
EOF
test "$(tail -c1 "$sweep_file")" = ""
# Determinism: byte-identical artifacts across worker counts.
for w in 2 8; do
    cargo run --release -q -p cce-core --bin cce -- sweep --scale 0.05 --fetches 60000 --workers "$w" -o "$sweep_file.w$w" --metrics "$sweep_file.m$w"
    cmp "$sweep_file" "$sweep_file.w$w"
done
python3 - "$sweep_file.m1" "$sweep_file.m2" "$sweep_file.m8" <<'EOF'
import json, sys
def counters(path):
    with open(path) as f:
        metrics = json.load(f)["metrics"]
    return {m["name"]: m["value"] for m in metrics
            if m["name"].startswith(("memsim.", "sweep.")) and m["name"] != "sweep.span"}
one = counters(sys.argv[1])
assert len(one) == 9 and one["sweep.cells"] >= 200 and one["memsim.clb.misses"] > 0, one
for path in sys.argv[2:]:
    assert counters(path) == one, f"{path}: {counters(path)} != {one}"
print(f"sweep smoke: {len(one)} memsim/sweep counters equal at 1, 2 and 8 workers")
EOF
# The committed artifact is current: the default grid reproduces
# BENCH_memsim.json byte for byte.
cargo run --release -q -p cce-core --bin cce -- sweep --workers 2 -o target/ci-memsim.json
cmp target/ci-memsim.json BENCH_memsim.json

echo "== model-cache smoke (cold miss, then disk hit, pinned division) =="
cache_dir="target/ci-model-cache"
cache_elf="target/ci-cache-go.elf"
rm -rf "$cache_dir"
# The exact `bench_optimizer` workload: "go" at scale 0.5, seed
# 0xDAC1998 = 229382552.
cargo run --release -q -p cce-core --bin cce -- gen go --scale 0.5 --seed 229382552 -o "$cache_elf"
cold_out="$(cargo run --release -q -p cce-core --bin cce -- compress "$cache_elf" --model-cache "$cache_dir" -o target/ci-cache-cold.cce)"
echo "$cold_out" | grep -q 'model cache: cold miss'
echo "$cold_out" | grep -q 'division 49bc0a2a57dccd29'
warm_out="$(cargo run --release -q -p cce-core --bin cce -- compress "$cache_elf" --model-cache "$cache_dir" -o target/ci-cache-warm.cce)"
echo "$warm_out" | grep -q 'model cache: disk hit'
echo "$warm_out" | grep -q 'division 49bc0a2a57dccd29'
cmp target/ci-cache-cold.cce target/ci-cache-warm.cce

echo "== serve smoke (verify, daemon fetch, corruption) =="
# The container must verify clean, a daemon on a Unix socket serving it
# must answer a fetch whose rebuilt ELF is byte-identical to
# `decompress`, and a single flipped payload byte must fail both
# `verify` and `decompress` with a non-zero exit that names the run.
# `fetch` decodes every block once, in order, so a daemon that verifies
# each run once reports one chunk load per run (the count `verify`
# prints) in its `shutdown:` stats line, counts each `decode-block` as
# exactly one cache hit or miss, and answers no request with an error.
# `go` at scale 2 gives more than 64 KiB of huffman payload: two runs.
serve_elf="target/ci-serve.elf"
serve_cce="target/ci-serve.cce"
serve_bad="target/ci-serve-corrupt.cce"
serve_sock="target/ci-serve.sock"
serve_direct="target/ci-serve-direct.elf"
serve_fetched="target/ci-serve-fetched.elf"
serve_bad_out="target/ci-serve-corrupt.elf"
serve_log="target/ci-serve.log"
rm -f "$serve_sock" "$serve_bad_out"
cargo run --release -q -p cce-core --bin cce -- gen go --scale 2 --seed 7 -o "$serve_elf"
cargo run --release -q -p cce-core --bin cce -- compress "$serve_elf" -a huffman -o "$serve_cce"
verify_out="$(cargo run --release -q -p cce-core --bin cce -- verify "$serve_cce")"
echo "$verify_out"
runs="$(echo "$verify_out" | sed -n 's/.* blocks in \([0-9]*\) runs,.*/\1/p')"
test "$runs" -gt 1
cargo run --release -q -p cce-core --bin cce -- decompress "$serve_cce" -o "$serve_direct"
cargo run --release -q -p cce-core --bin cce -- serve "$serve_cce" --socket "$serve_sock" >"$serve_log" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.1; done
test -S "$serve_sock"
cargo run --release -q -p cce-core --bin cce -- fetch --socket "$serve_sock" -o "$serve_fetched"
wait "$serve_pid"   # fetch sends shutdown; the daemon must exit 0
cmp "$serve_direct" "$serve_fetched"
python3 - "$serve_log" "$runs" <<'EOF'
import json, sys
log, runs = open(sys.argv[1]).read(), int(sys.argv[2])
line = next(l for l in log.splitlines() if l.startswith("shutdown: "))
stats = json.loads(line[len("shutdown: "):])
assert stats["chunk_loads"] == runs, (stats, runs)
assert stats["cache_hits"] + stats["cache_misses"] == stats["blocks"], stats
assert stats["errors"] == 0, stats
print("serve smoke:", runs, "runs, each loaded and verified once;",
      stats["blocks"], "decode-block requests, each counted once")
EOF
# Flip the first payload byte, at data_start: the 28-byte header plus
# the codec model length the header's last u32 gives.  It lies in run 0.
python3 - "$serve_cce" "$serve_bad" <<'EOF'
import struct, sys
data = bytearray(open(sys.argv[1], "rb").read())
data_start = 28 + struct.unpack(">I", data[24:28])[0]
data[data_start] ^= 1
open(sys.argv[2], "wb").write(bytes(data))
EOF
for command in "verify $serve_bad" "decompress $serve_bad -o $serve_bad_out"; do
    # shellcheck disable=SC2086  # the command and its arguments split on purpose
    if bad_out="$(cargo run --release -q -p cce-core --bin cce -- $command 2>&1)"; then
        echo "cce $command must fail on a corrupted run" >&2
        exit 1
    fi
    echo "$bad_out" | grep -q 'run 0:' || {
        echo "cce $command did not name run 0: $bad_out" >&2
        exit 1
    }
done
test ! -e "$serve_bad_out"
echo "serve smoke: verify/daemon/corruption all behaved"

echo "== serve load smoke (daemon on a Unix socket, pipelined connections) =="
# The benchmark's serve workloads start the daemon on a real Unix socket
# and drive it with 4 connections, each keeping 4 decode-block requests
# in flight; every reply is checked against the program text.  Warm
# traffic is served from the decoded-block cache, cold traffic misses it.
for workload in serve-warm serve-cold; do
    load_out="$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 2 --trace 0)"
    echo "$load_out" | python3 -c '
import json, sys
result = json.load(sys.stdin)
assert result["correct"] is True and result["failed"] == 0, result
print("serve load smoke:", result["attempted"], "requests, all correct")
' || { echo "serve load smoke: $workload failed" >&2; exit 1; }
done

echo "== registered metric names documented in DESIGN.md §7 =="
cargo run --release -q -p cce-core --bin cce -- stats | awk '{print $1}' | while read -r name; do
    grep -qF "\`$name\`" DESIGN.md || {
        echo "metric \`$name\` is registered but not documented in DESIGN.md §7" >&2
        exit 1
    }
done

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI green."
