// The training service's line-oriented control protocol.
//
// One request is one text line, `verb key=value key=value ...`; one response
// is one text line, `ok ...` on success or `err <message>` on failure. The
// transport is whatever delivers lines — the AF_UNIX socket server
// (service/server.hpp), a CLI driving handle_line directly, a test. Values
// may not contain whitespace (dataset paths with spaces are not supported
// over the wire; use the C++ API for those).
//
// Verbs:
//
//   ping                         → ok pong
//   submit solver=NAME data=PATH [objective=NAME] [epochs=N] [step=F]
//          [decay=F] [seed=N] [batch=N] [threads=N] [l1=F] [l2=F]
//          [shard_rows=N] [cache_mb=N] [adaptive=0|1]
//          [ckpt=PATH] [ckpt_every=N] [resume=PATH]
//                                → ok id=N
//   status id=N                  → ok id=N state=S solver=NAME epoch=K/B
//                                  objective=F mem=BYTES model=HEX16 [msg=...]
//   wait id=N                    → blocks, then the status line
//   list                         → ok jobs=N [ID:STATE]...
//   pause id=N | resume id=N | cancel id=N | checkpoint id=N
//                                → ok
//   stats                        → ok active=N total=N mem_used=BYTES
//                                  mem_budget=BYTES queue=N
//   shutdown                     → ok bye   (server loop exits after this)
//
// `model=HEX16` is the 16-hex-digit FNV-1a hash of the final model
// (hash_model) — zeros until the job completes; the CI smoke test compares
// these across a kill -9 + resume to assert bit-identical convergence.
#pragma once

#include <atomic>
#include <string>

#include "service/training_service.hpp"

namespace isasgd::service {

/// Command interpreter over one TrainingService. Thread-compatible: the
/// socket server handles connections serially; drive one handler from one
/// thread at a time (the service underneath is the thread-safe layer).
class ProtocolHandler {
 public:
  explicit ProtocolHandler(TrainingService& service) : service_(service) {}

  /// Executes one request line, returns one response line (no trailing
  /// newline). Never throws — every failure becomes an `err ...` response.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// True once a `shutdown` request was handled; the transport loop exits.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_relaxed);
  }

 private:
  TrainingService& service_;
  std::atomic<bool> shutdown_{false};
};

/// Formats a JobStatus as the protocol's status line payload (everything
/// after "ok "): shared by `status`, `wait`, and the tests.
[[nodiscard]] std::string format_status(const JobStatus& status);

}  // namespace isasgd::service
