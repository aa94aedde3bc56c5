#!/usr/bin/env bash
# Repo lint gate — run locally before pushing, run by the lint CI job.
#
# Two layers:
#  1. Custom greps with no tool dependencies (always run):
#       - no raw std::mutex / locks outside src/common/mutex.h: every lock
#         must be the annotated sknn::Mutex so Clang Thread Safety Analysis
#         sees it (docs/CONCURRENCY.md);
#       - no naked std::sto* / atoi in tools/: flag parsing must go through
#         tools/tool_util.h's checked parsers, which reject trailing garbage
#         and never throw out of a CLI;
#       - no std::thread::detach anywhere: every thread must be joined, or
#         TSan-clean teardown is impossible;
#       - every client-visible wire frame type in src/net/query_wire.h is
#         documented by name in docs/API.md, the versioned client contract;
#       - no scalar per-element crypto calls (.Encrypt/.Decrypt/.Rerandomize/
#         .PowMod) in the src/proto/ hot paths: batch work must go through
#         EncryptMany/DecryptMany/RerandomizeMany so it shares
#         the randomizer pool and thread fan-out (docs/CRYPTO.md). A
#         justified scalar call carries a `// batch-exempt: <why>` marker on
#         its own line or the line above;
#       - no raw aux[...] / aux.size() / aux.begin() in src/ or tools/
#         outside src/net/: message payloads go through the bounds-checked
#         FrameReader/FrameWriter (src/net/message.h);
#       - no hand-rolled little-endian byte loops (`<< (8 *`, `>> (8 *`) in
#         src/ or tools/ outside the frame layer (src/net/message.cc) and
#         the socket's 4-byte stream prefix (src/net/socket.cc): wire
#         payloads and the table files alike are encoded by FrameWriter;
#       - every C1<->C2 opcode in src/proto/opcodes.h (each `Op`
#         enumerator, and each number in kReservedOpcodes) has its row in
#         docs/DEPLOY.md's opcode table, under its number;
#       - no call into C2's per-query drains (TakeBobOutbox/TakeQueryOps)
#         in src/ or tools/ outside src/proto/c2_service.{h,cc}: every
#         engine reaches C2 over its RPC link (kFetchBobOutbox /
#         kFetchQueryOps), so in-process and served engines report the
#         same traffic;
#       - no Accept( call on a TcpListener in src/ or tools/ outside
#         src/net/rpc_listener.cc: every TCP server takes its links through
#         RpcListener, the one accept loop that reaps closed sessions and
#         survives a failed accept;
#       - no use of the kError frame (`Op::kError`, or message type 0xFFFF)
#         in src/ or tools/ outside src/net/rpc.cc and the opcode table
#         (src/proto/opcodes.h): the RPC layer builds and reads it, and
#         every caller gets its Status from RpcClient::Call;
#       - no ShardWorker::Create( call in src/ or tools/ outside
#         src/core/shard_worker.cc and tools/sknn_c1_shard.cc: a table is
#         sharded one way, by sknn_c1_shard workers a front end joins
#         through SknnEngine::CreateWithShardWorkers;
#       - no std::promise in src/ or tools/: a query runs on the thread
#         that calls it, and a future handed to a caller who waits on it
#         at once is a second scheduler;
#       - no FrameReader::remaining() call in src/net/query_wire.cc,
#         src/net/shard_wire.cc or src/proto/: a decoder reads its frame's
#         one layout and ends in Done(), never branching on the bytes left.
#  2. clang-tidy over compile_commands.json (runs when clang-tidy is on
#     PATH — the lint CI job; skipped with a notice otherwise). Checks are
#     curated in .clang-tidy.
#
# Usage: scripts/lint.sh [build-dir]     (default: build)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
cd "${repo_root}"

failures=0

fail() {
  echo "LINT FAIL: $1" >&2
  shift
  printf '%s\n' "$@" >&2
  failures=$((failures + 1))
}

# --- 1a. Raw mutex primitives outside the annotated wrapper ----------------
raw_mutex=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'std::mutex' -e 'std::lock_guard' -e 'std::unique_lock' \
  -e 'std::condition_variable' -e 'std::scoped_lock' -e 'std::shared_mutex' \
  src tools tests bench examples 2>/dev/null \
  | grep -v '^src/common/mutex\.h:' || true)
if [ -n "${raw_mutex}" ]; then
  fail "raw std::mutex primitives outside src/common/mutex.h — use \
sknn::Mutex/MutexLock/CondVar so the thread-safety analysis covers them" \
    "${raw_mutex}"
fi

# --- 1b. Naked numeric parsing in the CLI tools ----------------------------
# tool_util.h's ParseCount/ParsePort reject garbage and never throw; a naked
# std::sto* aborts the whole tool on "--port abc". Comments are exempt.
naked_sto=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'std::sto[a-z]*(' -e '[^_a-z]atoi(' -e 'strtoul(' \
  tools 2>/dev/null | grep -v '^\s*//' | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${naked_sto}" ]; then
  fail "naked numeric parsing in tools/ — use the checked parsers in \
tools/tool_util.h" "${naked_sto}"
fi

# --- 1c. Detached threads --------------------------------------------------
detached=$(grep -rn --include='*.h' --include='*.cc' '\.detach()' \
  src tools tests bench examples 2>/dev/null || true)
if [ -n "${detached}" ]; then
  fail "std::thread::detach — track and join every thread (TSan-clean \
teardown, docs/CONCURRENCY.md)" "${detached}"
fi

# --- 1d. Undocumented wire frames ------------------------------------------
# docs/API.md is the versioned client contract: every front-end frame type
# declared in src/net/query_wire.h (the `kName = 0x....` enumerators) must
# appear there by name. Shipping an opcode without documenting it breaks
# third-party clients silently. (src/net/shard_wire.h is exempt — API.md
# declares the coordinator<->worker protocol internal and unversioned.)
undocumented=""
for opcode in $(grep -oE 'k[A-Za-z0-9]+ = 0x' src/net/query_wire.h \
                  | sed 's/ = 0x//'); do
  if ! grep -qw "${opcode}" docs/API.md; then
    undocumented="${undocumented}${opcode}"$'\n'
  fi
done
if [ -n "${undocumented}" ]; then
  fail "wire frame types in src/net/query_wire.h missing from docs/API.md — \
document the layout and semantics of every client-visible frame" \
    "${undocumented}"
fi

# --- 1e. Scalar crypto calls in the src/proto hot paths --------------------
# The sub-protocol drivers and the C2 handlers are the system's hottest
# loops; a scalar .Encrypt/.Decrypt/.Rerandomize/.PowMod there bypasses the
# batch API (randomizer pool sharing + thread fan-out). The Many-suffixed
# calls don't match (the open paren anchors the scalar form). Exempt a
# justified call with `// batch-exempt: <why>` on the match line or the
# line directly above.
scalar_crypto=$(awk '
  {
    if ($0 ~ /\.(Encrypt|Decrypt|Rerandomize|PowMod)\(/ &&
        $0 !~ /batch-exempt:/ && NR != exempt_line) {
      printf "%s:%d:%s\n", FILENAME, FNR, $0
    }
    if ($0 ~ /batch-exempt:/) exempt_line = NR + 1
  }
' src/proto/*.cc 2>/dev/null || true)
if [ -n "${scalar_crypto}" ]; then
  fail "scalar per-element crypto calls in src/proto/ — use the batch API \
(EncryptMany/DecryptMany/RerandomizeMany, crypto/paillier.h) or \
mark the call '// batch-exempt: <why>'" "${scalar_crypto}"
fi

# --- 1f. Raw aux access outside the frame layer ----------------------------
# Every aux byte is written and read through FrameWriter/FrameReader
# (src/net/message.h): bounds-checked fields, counts bounded by the bytes
# left, exact sizes. Indexing or measuring aux by hand outside src/net/
# brings back the hand-offset decoders those replaced. Comments are exempt.
raw_aux=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'aux\[' -e 'aux\.size()' -e 'aux\.begin()' \
  src tools 2>/dev/null | grep -v '^src/net/' \
  | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${raw_aux}" ]; then
  fail "raw aux access outside src/net/ — read and write payloads with \
FrameReader/FrameWriter (src/net/message.h)" "${raw_aux}"
fi

# --- 1g. Hand-rolled byte codecs outside the frame layer --------------------
# FrameWriter/FrameReader (src/net/message.h) are the one little-endian
# codec, for wire payloads and the SKNNDB/SKNNSH/SKNNCL files alike. A
# shift-by-8*i loop elsewhere is a second codec without their bounds checks.
# The socket's 4-byte stream prefix and comments are exempt.
byte_loops=$(grep -rn --include='*.h' --include='*.cc' \
  -e '<< (8 \*' -e '>> (8 \*' \
  src tools 2>/dev/null \
  | grep -v -e '^src/net/message\.cc:' -e '^src/net/socket\.cc:' \
  | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${byte_loops}" ]; then
  fail "hand-rolled little-endian byte loop outside src/net/message.cc — \
encode and decode with FrameWriter/FrameReader (src/net/message.h)" \
    "${byte_loops}"
fi

# --- 1h. C1<->C2 numbers missing from DEPLOY.md's opcode table ------------
# The C1<->C2 vocabulary is internal, but operators upgrading C2 before C1
# read docs/DEPLOY.md's table of every number, live or reserved. Each `Op`
# enumerator (`kName = <number>,`) needs a table row `| <number> | `kName`
# |`, and each retired number in kReservedOpcodes a row `| <number> |` that
# says reserved. Table rows are the lines that start with `| ` and a number.
opcode_rows=$(grep -E '^\| (0x[0-9A-Fa-f]+|[0-9]+) \|' docs/DEPLOY.md || true)
missing_rows=""
while read -r name number; do
  [ -n "${name}" ] || continue
  if ! printf '%s\n' "${opcode_rows}" \
      | grep -qE "^\| ${number} \| \`${name}\` \|"; then
    missing_rows="${missing_rows}${number} ${name}"$'\n'
  fi
done < <(sed -n '/^enum class Op /,/^};/p' src/proto/opcodes.h \
           | grep -oE 'k[A-Za-z0-9]+ = (0x[0-9A-Fa-f]+|[0-9]+)' \
           | sed 's/ = / /')
reserved=$(grep -E '^inline constexpr uint16_t kReservedOpcodes\[\]' \
             src/proto/opcodes.h | sed 's/.*{//; s/}.*//; s/,/ /g')
if [ -z "${reserved}" ]; then
  missing_rows="${missing_rows}no kReservedOpcodes in src/proto/opcodes.h"$'\n'
fi
for number in ${reserved}; do
  if ! printf '%s\n' "${opcode_rows}" \
      | grep -E "^\| ${number} \|" | grep -q 'reserved'; then
    missing_rows="${missing_rows}${number} (reserved)"$'\n'
  fi
done
if [ -n "${missing_rows}" ]; then
  fail "C1<->C2 opcodes missing from docs/DEPLOY.md's opcode table — add \
a row per Op enumerator and per reserved number" "${missing_rows}"
fi

# --- 1i. Direct calls into C2's per-query drains ---------------------------
# One way to reach C2: an engine fetches Bob's outbox and C2's op ledger
# with tagged exchanges over its link, whether C2 runs in-process or in
# sknn_c2_server. A direct TakeBobOutbox(/TakeQueryOps( call outside C2's
# own files is a second path that skips the wire (and its frame count).
direct_c2=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'TakeBobOutbox(' -e 'TakeQueryOps(' src tools 2>/dev/null \
  | grep -v -e '^src/proto/c2_service\.h:' -e '^src/proto/c2_service\.cc:' \
  || true)
if [ -n "${direct_c2}" ]; then
  fail "direct call into C2's per-query drains outside \
src/proto/c2_service.{h,cc} — fetch them over the link (kFetchBobOutbox / \
kFetchQueryOps)" "${direct_c2}"
fi

# --- 1j. Hand-rolled TCP accept loops ---------------------------------------
# One accept loop: a server that calls TcpListener::Accept itself keeps
# every closed link's socket and handler threads until it exits, and stops
# taking links on the first failed accept. Comment lines are exempt.
accept_calls=$(grep -rn --include='*.h' --include='*.cc' \
  -e '\.Accept(' -e '->Accept(' src tools 2>/dev/null \
  | grep -v '^src/net/rpc_listener\.cc:' \
  | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${accept_calls}" ]; then
  fail "TcpListener::Accept called outside src/net/rpc_listener.cc — serve \
links through RpcListener (src/net/rpc_listener.h)" "${accept_calls}"
fi

# --- 1k. The kError frame outside the RPC layer -----------------------------
# One owner of the error frame: RpcServer answers a failed handler with it,
# and RpcClient::Call turns it back into the Status it carries. A caller
# that compares a reply's type against it is a second error path that
# rewraps (or loses) the peer's code. Comment lines are exempt; wider
# literals (0xFFFFFFFF) do not match.
error_frame=$(grep -rnE --include='*.h' --include='*.cc' \
  -e 'Op::kError\b' -e '0[xX][fF]{4}([^0-9a-fA-F]|$)' src tools 2>/dev/null \
  | grep -v -e '^src/net/rpc\.cc:' -e '^src/proto/opcodes\.h:' \
  | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${error_frame}" ]; then
  fail "the kError frame (Op::kError / type 0xFFFF) used outside \
src/net/rpc.cc — take the peer's Status from RpcClient::Call instead" \
    "${error_frame}"
fi

# --- 1l. Shard workers built outside sknn_c1_shard ------------------------
# One way to shard a table: workers are sknn_c1_shard processes. A second
# place in the library or the tools that builds ShardWorkers is a second
# shard execution path (an in-process shard set). Comment lines are exempt.
worker_builds=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'ShardWorker::Create(' src tools 2>/dev/null \
  | grep -v -e '^src/core/shard_worker\.cc:' -e '^tools/sknn_c1_shard\.cc:' \
  | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${worker_builds}" ]; then
  fail "ShardWorker::Create called outside src/core/shard_worker.cc and \
tools/sknn_c1_shard.cc — shard a table with sknn_c1_shard workers \
(SknnEngine::CreateWithShardWorkers)" "${worker_builds}"
fi

# --- 1m. Promises --------------------------------------------------------
# One thread drives a query, the caller's: SknnEngine::Query runs on it,
# and QueryBatch joins threads of its own. A std::promise hands a result to
# a thread that waits for it, which is a request queue by another name.
# Comment lines are exempt.
promises=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'std::promise' src tools 2>/dev/null \
  | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${promises}" ]; then
  fail "std::promise in src/ or tools/ — run the work on the calling thread \
(SknnEngine::Query) or join the threads that run it (QueryBatch)" \
    "${promises}"
fi

# --- 1n. Length-branching decoders -----------------------------------------
# One layout per frame per protocol revision: every field is always there,
# so a decoder has no reason to ask how many bytes are left. A remaining()
# call in the front-end, shard or C1<->C2 codecs is an optional tail coming
# back. Comment lines are exempt.
length_branches=$(grep -rn --include='*.h' --include='*.cc' \
  -e 'remaining()' src/net/query_wire.cc src/net/shard_wire.cc src/proto \
  2>/dev/null | grep -v ':[0-9]*:\s*//' || true)
if [ -n "${length_branches}" ]; then
  fail "FrameReader::remaining() in a frame codec — give the frame one \
layout (bump kProtocolRevision) and read it to Done()" "${length_branches}"
fi

# --- 2. clang-tidy ---------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "${build_dir}/compile_commands.json" ]; then
    fail "clang-tidy needs ${build_dir}/compile_commands.json — configure \
with cmake -B ${build_dir} -S . (CMAKE_EXPORT_COMPILE_COMMANDS is on by \
default)"
  else
    # Library + tools only: test binaries are gtest-macro soup that drowns
    # the signal. run-clang-tidy parallelizes when present.
    tidy_sources=$(find src tools -name '*.cc' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
      # shellcheck disable=SC2086  # word-splitting the file list is intended
      if ! run-clang-tidy -quiet -p "${build_dir}" ${tidy_sources} \
          > /tmp/clang_tidy_lint.log 2>&1; then
        fail "clang-tidy (see /tmp/clang_tidy_lint.log)" \
          "$(grep -E 'warning:|error:' /tmp/clang_tidy_lint.log | head -50)"
      fi
    else
      tidy_failed=0
      for f in ${tidy_sources}; do
        clang-tidy -quiet -p "${build_dir}" "${f}" \
          >> /tmp/clang_tidy_lint.log 2>&1 || tidy_failed=1
      done
      if [ "${tidy_failed}" -ne 0 ]; then
        fail "clang-tidy (see /tmp/clang_tidy_lint.log)" \
          "$(grep -E 'warning:|error:' /tmp/clang_tidy_lint.log | head -50)"
      fi
    fi
  fi
else
  echo "lint: clang-tidy not on PATH — skipping the static-analysis layer" \
    "(the lint CI job runs it)"
fi

if [ "${failures}" -ne 0 ]; then
  echo "lint: ${failures} gate(s) failed" >&2
  exit 1
fi
echo "lint: OK"
