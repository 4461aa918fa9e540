// Seeded mutation fuzzing of the frame layer, in the style of
// libsvm_fuzz_test: net::read_frame reads byte streams built from valid
// frames with bytes flipped, truncated, duplicated or spliced, served by an
// in-memory Endpoint. The contract: every read yields a valid frame or a
// TransportError of kind kProtocol or kClosed, never a crash, and the
// payload buffer never grows past kMaxFramePayload. One Frame is reused
// across every read, so each error is also followed by a check that the
// same Frame still reads a clean frame exactly. No external fuzzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "util/rng.hpp"

namespace isasgd::net {
namespace {

/// An Endpoint over an in-memory byte stream. send_bytes appends to it, so
/// write_frame builds the inputs; recv_bytes serves it in order and reports
/// its end as kClosed, like a peer that closed.
class MemoryEndpoint final : public Endpoint {
 public:
  MemoryEndpoint() = default;
  explicit MemoryEndpoint(std::string bytes) : bytes_(std::move(bytes)) {}

  void send_bytes(const void* data, std::size_t size) override {
    bytes_.append(static_cast<const char*>(data), size);
  }
  void recv_bytes(void* data, std::size_t size) override {
    largest_recv_ = std::max(largest_recv_, size);
    if (bytes_.size() - offset_ < size) {
      offset_ = bytes_.size();
      throw TransportError(TransportError::Kind::kClosed, "end of stream");
    }
    std::memcpy(data, bytes_.data() + offset_, size);
    offset_ += size;
  }
  void set_io_timeout(int) override {}
  void close() override {}

  [[nodiscard]] const std::string& bytes() const { return bytes_; }
  [[nodiscard]] std::size_t largest_recv() const { return largest_recv_; }

 private:
  std::string bytes_;
  std::size_t offset_ = 0;
  std::size_t largest_recv_ = 0;
};

std::string random_bytes(util::Rng& rng, std::size_t size) {
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng() & 0xff);
  return bytes;
}

/// A valid stream of frames of assorted sizes, and where each frame starts.
struct Stream {
  std::string bytes;
  std::vector<std::size_t> starts;
};

Stream valid_stream(util::Rng& rng) {
  MemoryEndpoint out;
  Stream s;
  for (const std::size_t size : {0, 7, 100, 4096, 20000}) {
    s.starts.push_back(out.bytes().size());
    write_frame(out, static_cast<std::uint32_t>(rng() % 16),
                random_bytes(rng, size));
  }
  s.bytes = out.bytes();
  return s;
}

/// A random position, half the time inside some frame's header, where a
/// flip changes the magic, the type or the length.
std::size_t pick(util::Rng& rng, const Stream& s) {
  if (util::uniform_index(rng, 2) == 0) {
    return s.starts[util::uniform_index(rng, s.starts.size())] +
           util::uniform_index(rng, kFrameHeaderBytes);
  }
  return util::uniform_index(rng, s.bytes.size());
}

void mutate(util::Rng& rng, Stream& s, const Stream& other) {
  std::string& b = s.bytes;
  const std::size_t at = std::min(pick(rng, s), b.size() - 1);
  switch (util::uniform_index(rng, 4)) {
    case 0:  // flip one byte
      b[at] = static_cast<char>(b[at] ^ (1 + util::uniform_index(rng, 255)));
      break;
    case 1:  // truncate
      b.resize(at);
      break;
    case 2: {  // duplicate a range in place
      const std::size_t len = std::min<std::size_t>(
          1 + util::uniform_index(rng, 64), b.size() - at);
      b.insert(at, b.substr(at, len));
      break;
    }
    default: {  // splice in a range of another stream
      const std::size_t from = util::uniform_index(rng, other.bytes.size());
      const std::size_t len = std::min<std::size_t>(
          1 + util::uniform_index(rng, 256), other.bytes.size() - from);
      b.insert(at, other.bytes.substr(from, len));
      break;
    }
  }
}

/// The reused frame still reads a clean frame exactly.
void expect_clean_read(Frame& frame, util::Rng& rng) {
  MemoryEndpoint clean;
  const std::string payload = random_bytes(rng, util::uniform_index(rng, 300));
  write_frame(clean, 77, payload);
  read_frame(clean, frame);
  EXPECT_EQ(frame.type, 77u);
  EXPECT_TRUE(frame.payload == payload);
}

TEST(FrameFuzz, MutatedStreamsYieldFramesOrTypedErrors) {
  util::Rng rng(20261017);
  Frame frame;
  std::size_t frames = 0, protocol = 0, closed = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    Stream s = valid_stream(rng);
    const Stream other = valid_stream(rng);
    const std::size_t edits = 1 + util::uniform_index(rng, 3);
    for (std::size_t e = 0; e < edits && !s.bytes.empty(); ++e) {
      mutate(rng, s, other);
    }
    MemoryEndpoint ep(s.bytes);
    while (true) {
      try {
        read_frame(ep, frame);
        ++frames;
      } catch (const TransportError& e) {
        // After kProtocol the stream is out of step; after kClosed it is
        // over. Either way the next read belongs to a new stream.
        if (e.kind() == TransportError::Kind::kProtocol) {
          ++protocol;
        } else {
          EXPECT_EQ(e.kind(), TransportError::Kind::kClosed) << e.what();
          ++closed;
        }
        break;
      }
      ASSERT_LE(frame.payload.capacity(), kMaxFramePayload);
    }
    ASSERT_LE(frame.payload.capacity(), kMaxFramePayload);
    ASSERT_LE(ep.largest_recv(), kMaxFramePayload);
    expect_clean_read(frame, rng);
  }
  // The mutations must exercise every outcome.
  EXPECT_GT(frames, 1500u);
  EXPECT_GT(protocol, 200u);
  EXPECT_GT(closed, 200u);
}

/// Raw header bytes, for the edge cases no valid writer produces.
std::string header(std::uint32_t magic, std::uint32_t type,
                   std::uint64_t length) {
  std::string h(kFrameHeaderBytes, '\0');
  std::memcpy(h.data(), &magic, 4);
  std::memcpy(h.data() + 4, &type, 4);
  std::memcpy(h.data() + 8, &length, 8);
  return h;
}

TransportError::Kind read_error(const std::string& bytes, Frame& frame) {
  MemoryEndpoint ep(bytes);
  try {
    read_frame(ep, frame);
  } catch (const TransportError& e) {
    EXPECT_LE(frame.payload.capacity(), kMaxFramePayload);
    return e.kind();
  }
  ADD_FAILURE() << "read_frame accepted a broken stream";
  return TransportError::Kind::kIo;
}

TEST(FrameFuzz, HeaderEdgeCases) {
  util::Rng rng(7);
  Frame frame;
  using Kind = TransportError::Kind;
  // A length at the cap is legal: the payload buffer grows to exactly the
  // cap, and the missing bytes are a torn frame. Growing from more than
  // half the cap must not double past it either.
  EXPECT_EQ(read_error(header(kFrameMagic, 1, kMaxFramePayload / 4 * 3),
                       frame),
            Kind::kClosed);
  EXPECT_EQ(read_error(header(kFrameMagic, 1, kMaxFramePayload), frame),
            Kind::kClosed);
  expect_clean_read(frame, rng);
  EXPECT_EQ(read_error(header(kFrameMagic, 1, kMaxFramePayload + 1), frame),
            Kind::kProtocol);
  EXPECT_EQ(read_error(header(kFrameMagic, 1, ~std::uint64_t{0}), frame),
            Kind::kProtocol);
  EXPECT_EQ(read_error(header(kFrameMagic ^ 1u, 1, 0), frame),
            Kind::kProtocol);
  // The stream ends inside the header, or right after it.
  EXPECT_EQ(read_error(header(kFrameMagic, 1, 8).substr(0, 9), frame),
            Kind::kClosed);
  EXPECT_EQ(read_error("", frame), Kind::kClosed);
  EXPECT_EQ(read_error(header(kFrameMagic, 1, 8), frame), Kind::kClosed);
  expect_clean_read(frame, rng);
}

}  // namespace
}  // namespace isasgd::net
