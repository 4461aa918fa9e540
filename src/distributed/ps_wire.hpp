// Wire protocol of the real distributed backend: frame types plus POD
// packing helpers.
//
// Every payload is a flat little-endian sequence of u32/u64/f64 fields
// written with memcpy — doubles travel as their exact 8-byte IEEE-754 bit
// patterns, which is load-bearing: the bit-identity guarantee between the
// process backend and the fenced simulator dies the moment a value is
// formatted through text. (Same-architecture process groups only; this repo
// targets x86-64/AArch64 little-endian, as the kernels already assume.)
//
// Message map (request/response over net::write_frame framing). Every
// parameter-server request carries a per-rank sequence number and every
// reply echoes it: the server treats seq == last as "resend the cached
// reply" and seq < last as a stale duplicate to discard, which makes a
// retried push apply exactly once no matter how many times the wire drops,
// tears or resets frames in between (see net/fault.hpp). `resume` in the
// hello distinguishes a mid-epoch reconnect (resume=1: keep the rank's
// sequence state) from a fresh process (resume=0: reset it — a rejoining
// replacement starts at seq 1).
//
//   worker → server      kHello{role=0, rank, resume}
//   controller → server  kHello{role=1, rank=0, resume=0}
//   worker → server      kStep{seq, ncols, idx[ncols]}     coordinate get
//   server → worker      kStepReply{seq, w[ncols]}         values, same order
//   worker → server      kPushStep{seq, walk, gscale, sstep, nval, val[nval],
//                                  ncols, idx[ncols]}
//   server → worker      kStepReply{seq, w[ncols]}
//   worker → server      kPush{seq, walk, gscale, sstep, nnz, (idx, val)[nnz]}
//   server → worker      kPushAck{seq}
//   worker → server      kEpochEnd{seq, retries}           quota exhausted
//   server → controller  kFence{epoch, applied, messages, bytes, retries,
//                               nranks, alive[nranks], nwalks, draws[nwalks],
//                               dim, w[dim]}
//   controller → server  kFenceReply{continue, nranks,
//                               (alive, nwalks, (walk, ff)[nwalks])[nranks]}
//   server → worker      kEpochGo{seq, continue, next_epoch,
//                               nwalks, (walk, ff)[nwalks]}
//   worker → server      kReduce{count, (idx, val)[count]} all-reduce partial
//   server → worker      kModelDelta{count, (idx, w)[count]} updated coords
//
// A worker keeps one step open: the draw whose coordinates it fetched and
// whose push it owes. kStep opens its first step of an epoch. kPushStep
// pushes the open step's update (values only, in the step's column order:
// its coordinates are the open step's) and opens the next step on idx; its
// kStepReply carries the next step's values and also confirms the push.
// kPush pushes the open step with its coordinates spelled out and opens
// nothing: it ends a rank's epoch, or precedes a scripted crash. So every
// sample costs one round trip, and each rank still has one request in
// flight. The server answers a step early when no push ahead of it in the
// fenced order writes one of its coordinates (ps_server.cpp, PsServer).
//
// The all-reduce group keeps the un-sequenced kReduce/kModelDelta exchange
// (it has no retry layer — fault injection targets the PS runtime) but
// shares the kFence/kFenceReply shape with nranks = nwalks = 0; the
// controller-side parser is one implementation for both. Unpacker ignores
// trailing bytes by design, which is what lets the all-reduce fence carry
// the recovery fields as zeros without its own format.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "net/transport.hpp"

namespace isasgd::distributed::wire {

enum MsgType : std::uint32_t {
  kHello = 1,
  kStep = 2,
  kStepReply = 3,
  kPush = 4,
  kPushAck = 5,
  kEpochEnd = 6,
  kFence = 7,
  kFenceReply = 8,
  kEpochGo = 9,
  kReduce = 10,
  kModelDelta = 11,
  kPushStep = 12,
};

inline constexpr std::uint32_t kRoleWorker = 0;
inline constexpr std::uint32_t kRoleController = 1;

/// Appends POD fields to a payload. The payload sits behind room for the
/// frame header (net::FrameBuffer), so net::write_frame(ep, type, packer)
/// sends it without a copy, and a packer reused after clear() sends without
/// a heap allocation.
class Packer : public net::FrameBuffer {
 public:
  Packer& u32(std::uint32_t v) { return raw(&v, sizeof(v)); }
  Packer& u64(std::uint64_t v) { return raw(&v, sizeof(v)); }
  Packer& f64(double v) { return raw(&v, sizeof(v)); }
  Packer& raw(const void* data, std::size_t size) {
    append(data, size);
    return *this;
  }

  [[nodiscard]] std::string_view view() const { return payload(); }
};

/// Reads POD fields back out; a short payload is a typed protocol error,
/// never an out-of-bounds read.
class Unpacker {
 public:
  explicit Unpacker(std::string_view payload) : buf_(payload) {}

  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  [[nodiscard]] double f64() {
    double v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  /// Reads an element count (the wire's u32, or `Count` where a frame
  /// carries a wider one) and checks that the rest of the payload can hold
  /// that many elements of `elem_bytes` each, so a corrupt or hostile count
  /// is a typed protocol error before anyone sizes a buffer by it.
  template <class Count = std::uint32_t>
  [[nodiscard]] Count count(std::size_t elem_bytes) {
    Count n = 0;
    raw(&n, sizeof(n));
    const std::size_t left = buf_.size() - off_;
    if (elem_bytes > 0 && n > left / elem_bytes) {
      throw net::TransportError(
          net::TransportError::Kind::kProtocol,
          "count " + std::to_string(n) + " of " + std::to_string(elem_bytes) +
              "-byte elements exceeds the " + std::to_string(left) +
              " payload bytes left");
    }
    return n;
  }

  void raw(void* out, std::size_t size) {
    if (buf_.size() - off_ < size) {
      throw net::TransportError(
          net::TransportError::Kind::kProtocol,
          "truncated payload: wanted " + std::to_string(size) +
              " more bytes, have " + std::to_string(buf_.size() - off_));
    }
    std::memcpy(out, buf_.data() + off_, size);
    off_ += size;
  }

  [[nodiscard]] bool done() const noexcept { return off_ == buf_.size(); }

 private:
  std::string_view buf_;
  std::size_t off_ = 0;
};

}  // namespace isasgd::distributed::wire
