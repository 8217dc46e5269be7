#!/usr/bin/env bash
# Repo-wide verification gate: formatting, vet, pinned staticcheck, the
# npdplint invariant suite plus its hot-path codegen regression gate,
# the full test suite under the race detector, the nested ledgerbench
# module's vet and tests, short fuzz smokes of the
# checkpoint and seal codecs, and smoke fault-injection solves proving
# the resilience layer end to end: 5% loud faults healed through
# retries, and 5% silent corruption caught by the block seals and
# healed bit-identically (fallback disabled in both so recovery can't
# mask a bug), plus a cluster chaos smoke that SIGKILLs a worker
# mid-wavefront while corrupting boundary blocks and demands a
# bit-identical finish, a coordinator-kill failover smoke that
# SIGKILLs the primary coordinator mid-wavefront and demands the warm
# standby take over and finish bit-identically, and an out-of-core
# disk-fault smoke that pages a solve through a budget-bounded working
# set while injecting torn spill writes (must heal) and ENOSPC (must
# degrade gracefully), both bit-identical to serial. Called standalone
# or as the bench.sh preflight.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted="$(gofmt -l .)"
if [[ -n "${unformatted}" ]]; then
    echo "gofmt needed on:" >&2
    echo "${unformatted}" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# The vector kernels ship hand-written assembly for two GOARCHes; vet's
# asmdecl checker validates the .s files against their Go stub
# declarations only when that arch's files are in the build, so run the
# kernel package under both (cross runs only load the compiler).
echo "== go vet (asmdecl) internal/kernel on amd64 + arm64"
GOARCH=amd64 go vet ./internal/kernel ./internal/simd
GOARCH=arm64 go vet ./internal/kernel ./internal/simd

# staticcheck is mandatory and pinned, so every run checks the same
# rule set regardless of what the host has installed. The one
# sanctioned skip is a toolchain that cannot fetch the module at all
# (hermetic/offline builds) — and that skip is loud, never silent.
echo "== staticcheck (pinned, mandatory)"
staticcheck_version="2025.1.1"
if staticcheck_out="$(go run "honnef.co/go/tools/cmd/staticcheck@${staticcheck_version}" ./... 2>&1)"; then
    [[ -z "${staticcheck_out}" ]] || echo "${staticcheck_out}"
elif grep -qiE "dial tcp|no such host|connection refused|i/o timeout|proxyconnect|module lookup disabled|not in std" <<<"${staticcheck_out}"; then
    echo "NOTICE: staticcheck SKIPPED: cannot fetch honnef.co/go/tools@${staticcheck_version} (offline toolchain)" >&2
    echo "${staticcheck_out}" | tail -n 3 >&2
else
    echo "${staticcheck_out}" >&2
    echo "staticcheck@${staticcheck_version} failed" >&2
    exit 1
fi

# govulncheck stays advisory: a published vuln in a dependency should
# not brick unrelated development, but it must be visible in the log.
if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck ./... (advisory)"
    govulncheck ./... || echo "govulncheck reported findings (non-fatal)"
else
    echo "== govulncheck not installed; skipping"
fi

echo "== npdplint ./... (repo invariant suite, 8 analyzers)"
# Custom analyzers: atomic publication discipline, context dispatch
# contract, hot-path purity, resilience error-drop rules (watch list
# discovered from //npdplint:watch directives), wire-bounded
# allocations, goroutine lifecycles, net.Conn deadline regimes, and
# verify-before-trust ordering for sealed payloads and epoch fences.
# Suppressions require a justified //nolint:npdplint, which the tool
# itself audits. The whole suite must land inside a wall-clock budget:
# a lint gate developers wait on has a latency contract too.
npdplint_budget_s=180
npdplint_start="$(date +%s)"
go run ./cmd/npdplint ./...
# Self-lint: the analyzer suite obeys its own invariants. Kept as a
# separate pass so a finding inside internal/analysis names itself in
# the log rather than hiding in the module-wide sweep above.
echo "== npdplint self-lint (./internal/analysis/...)"
go run ./cmd/npdplint ./internal/analysis/...
npdplint_elapsed=$(($(date +%s) - npdplint_start))
echo "npdplint wall time: ${npdplint_elapsed}s (budget ${npdplint_budget_s}s)"
if ((npdplint_elapsed > npdplint_budget_s)); then
    echo "npdplint exceeded its ${npdplint_budget_s}s wall-clock budget (took ${npdplint_elapsed}s)" >&2
    exit 1
fi

echo "== codegen gate (hot-path escape/bounds-check baseline)"
# Compiler-output half of the hotpath invariant: diffs -m and check_bce
# diagnostics in //npdp:hotpath kernels against the golden baseline.
scripts/codegen_gate.sh

echo "== go test -race ./..."
# The harness package replays every paper table/figure; under the race
# detector that legitimately exceeds go test's default 10m per-package
# timeout, so set an explicit generous one.
go test -race -timeout 30m ./...

echo "== ledgerbench module (vet + tests)"
# ledgerbench/ is a nested module, so the ./... runs above never compile
# it: without this step a change to the engine entry points it drives
# (npdp.ComputeTask, npdp.SolvePagedCtx, npdp.ResolveStage1,
# sched.RunPoolCtx) could break the benchmark with no check failing.
(cd ledgerbench && go vet . && go test .)

echo "== go test -race (forced pure-Go kernels: CELLNPDP_FORCE_SCALAR=1, GOAMD64=v1)"
# The vector dispatch has two halves: the assembly fast path (covered
# above on AVX2 hosts) and the pure-Go fallback every other machine
# runs. Force the fallback process-wide — the env var folds into
# detection at init — and pin GOAMD64=v1 so the compiler cannot assume
# AVX either, then re-run the packages whose kernels and dispatch state
# differ between the two worlds.
CELLNPDP_FORCE_SCALAR=1 GOAMD64=v1 go test -race -timeout 30m \
    ./internal/kernel ./internal/simd ./internal/npdp ./internal/perfmodel \
    ./internal/fourrussians ./internal/zuker .

# Native fuzzing only exists on a few GOOS/GOARCH pairs; anywhere else
# `go test -fuzz` fails with an opaque flag error, so check up front
# and fail with a message that says what is actually missing.
goos="$(go env GOOS)"
goarch="$(go env GOARCH)"
case "${goos}/${goarch}" in
linux/amd64 | linux/arm64 | darwin/amd64 | darwin/arm64 | windows/amd64 | windows/arm64) ;;
*)
    echo "error: the fuzz smokes need native fuzzing support (linux, darwin or windows on amd64/arm64); this toolchain is ${goos}/${goarch}" >&2
    exit 1
    ;;
esac

echo "== fuzz smoke: checkpoint codec (20s)"
# A short adversarial pass over the NPCK reader: corrupt and truncated
# snapshots must be rejected, never crash or silently resume bad state.
go test -run='^$' -fuzz FuzzCheckpointRoundTrip -fuzztime 20s .

echo "== smoke: fault-injected parallel solve (5% rate, retries, no fallback)"
go run ./cmd/cellnpdp -n 300 -engine parallel -timeout 30m \
    -faultrate 0.05 -faultseed 7 -retries 3 -fallback=false

echo "== fuzz smoke: kernel equivalence (20s)"
# Every selectable min-plus kernel (panel, vector asm, forced fallback,
# CB-step) against the scalar reference on arbitrary tiles with ±Inf
# sentinels; comparison is bit-exact.
go test -run='^$' -fuzz FuzzKernelEquivalence -fuzztime 20s ./internal/kernel

echo "== fuzz smoke: seal codec (20s)"
# Same discipline for the NPSL seal stream: truncated, bit-flipped or
# reordered seal records must never verify.
go test -run='^$' -fuzz FuzzSealTable -fuzztime 20s .

echo "== smoke: self-healing solve (5% silent corruption, bit-identical to serial)"
# Inject silent bit flips (no error return — only the block seals can
# catch them), heal with fallback disabled so the poisoned-cone path is
# what's proven, and demand bit-identical output to the serial engine.
# Run under the race detector: sealing and auditing race the pool.
healref="$(mktemp)"
trap 'rm -f "${healref}"' EXIT
go run ./cmd/cellnpdp -n 300 -engine serial -save "${healref}"
go run -race ./cmd/cellnpdp -n 300 -engine parallel -timeout 30m \
    -faultkinds corrupt -faultrate 0.05 -faultseed 7 \
    -heal -fallback=false -check "${healref}"

echo "== fuzz smoke: spill index codec (20s)"
# Same discipline for the NPSX spill index: truncated, bit-flipped or
# oversized index bytes must be rejected, never crash or page in from
# a slot the committed index does not vouch for.
go test -run='^$' -fuzz FuzzSpillRoundTrip -fuzztime 20s ./internal/pager

echo "== smoke: out-of-core disk faults (torn writes healed + ENOSPC degraded, verify)"
# The paged solve under the race detector, both arms of the disk-failure
# ladder. Arm 1: torn spill writes — the CRC trailer lands in the
# missing suffix, so the refetch detects corruption and the solve must
# demote the block's cone to pristine and recompute (page_heals). Arm 2:
# every spill write draws ENOSPC — the pager must degrade to a growing
# in-memory working set and still finish (enospc_degradations). Both
# runs must be bit-identical to the serial engine, and the greps prove
# each failure actually fired — a run where nothing tore and nothing
# filled up would pass vacuously.
ooc_ref="$(mktemp)"
ooc_log="$(mktemp)"
trap 'rm -f "${healref}" "${ooc_ref}" "${ooc_log}"' EXIT
go run ./cmd/cellnpdp -n 400 -engine serial -save "${ooc_ref}"
go run -race ./cmd/cellnpdp -n 400 -engine parallel -workers 2 \
    -block 1024 -memory-budget 16384 -timeout 10m \
    -disk-faultrate 0.02 -disk-faultseed 11 -disk-faultkinds torn \
    -check "${ooc_ref}" 2>&1 | tee "${ooc_log}"
grep -q "verified against .*: identical" "${ooc_log}"
if grep "^paged " "${ooc_log}" | grep -qE " page_heals=0 "; then
    echo "out-of-core smoke: torn writes never triggered a heal" >&2
    exit 1
fi
go run -race ./cmd/cellnpdp -n 400 -engine parallel -workers 2 \
    -block 1024 -memory-budget 16384 -timeout 10m \
    -disk-faultrate 0.3 -disk-faultseed 9 -disk-faultkinds enospc \
    -check "${ooc_ref}" 2>&1 | tee "${ooc_log}"
grep -q "verified against .*: identical" "${ooc_log}"
if grep "^paged " "${ooc_log}" | grep -qE " enospc_degradations=0 "; then
    echo "out-of-core smoke: ENOSPC injection never degraded the pager" >&2
    exit 1
fi

echo "== smoke: cluster chaos (3 workers, seeded SIGKILL + silent corruption, heal, verify)"
# Loopback coordinator/worker cluster under the race detector: the
# seeded chaos schedule SIGKILLs one worker mid-wavefront and every
# worker silently corrupts ~25% of its tasks; the coordinator must
# redispatch the dead worker's in-flight tasks, heal each seal mismatch
# through the poisoned cone, and finish bit-identical to the serial
# engine. The greps prove the chaos actually fired — a run where
# nothing died and nothing corrupted would pass vacuously.
cluster_log="$(mktemp)"
trap 'rm -f "${healref}" "${ooc_ref}" "${ooc_log}" "${cluster_log}"' EXIT
go run -race ./cmd/cellnpdp cluster -n 704 -cluster-workers 3 \
    -chaos-kills 1 -chaos-seed 5 -faultrate 0.25 -faultseed 42 \
    -heal -verify -timeout 10m 2>&1 | tee "${cluster_log}"
grep -q "verified against serial engine: identical" "${cluster_log}"
stats="$(grep "cluster: tasks=" "${cluster_log}")"
if grep -qE " deaths=0 " <<<"${stats}"; then
    echo "cluster chaos smoke: no worker death observed" >&2
    exit 1
fi
if grep -qE " mismatches=0 " <<<"${stats}"; then
    echo "cluster chaos smoke: no seal mismatch observed" >&2
    exit 1
fi

echo "== smoke: coordinator-kill failover (warm standby, SIGKILL primary mid-wavefront, verify)"
# Coordinator HA under the race detector: the primary coordinator runs
# as a subprocess replicating its completion log to an in-process warm
# standby; once enough tasks have REPLICATED, the primary is SIGKILLed
# mid-wavefront, the standby's lease expires, it takes over at epoch 2,
# the workers re-home through the epoch fence, and the resumed solve
# must finish bit-identical to the serial engine. The binary itself
# fails if the primary finishes before the kill fires, and the greps
# prove the takeover actually happened — failover that never fired
# would pass vacuously.
failover_log="$(mktemp)"
trap 'rm -f "${healref}" "${ooc_ref}" "${ooc_log}" "${cluster_log}" "${failover_log}"' EXIT
go run -race ./cmd/cellnpdp cluster -n 1536 -cluster-workers 3 \
    -chaos-kill-coordinator -heartbeat 25ms -deadline 500ms -lease 1s \
    -verify -timeout 10m 2>&1 | tee "${failover_log}"
grep -q "standby: takeover epoch=" "${failover_log}"
grep -q "verified against serial engine: identical" "${failover_log}"
fstats="$(grep "cluster: tasks=" "${failover_log}")"
if grep -qE " failovers=0 " <<<"${fstats}"; then
    echo "failover smoke: takeover coordinator reported no failover" >&2
    exit 1
fi
if grep -qE " resumed=0 " <<<"${fstats}"; then
    echo "failover smoke: takeover resumed from zero replicated tasks" >&2
    exit 1
fi
