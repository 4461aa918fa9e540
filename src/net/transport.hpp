// Byte-stream transport abstraction for the real (multi-process) distributed
// backend.
//
// A Transport moves opaque byte streams between processes; everything above
// it (the parameter-server wire protocol, the all-reduce rounds) is written
// against two tiny interfaces:
//
//   Endpoint   one bidirectional, reliable, ordered byte stream
//              (send_bytes / recv_bytes always transfer the full buffer,
//              retrying partial I/O and EINTR internally)
//   Listener   accept() incoming Endpoints at an address
//
// Two backends ship (selected by address scheme):
//
//   tcp://host:port    kernel TCP sockets — the multi-host transport.
//                      port 0 binds an ephemeral port; Listener::address()
//                      returns the resolved one.
//   shm://PATH         file-backed shared-memory SPSC byte rings — the
//                      same-host transport. PATH is a filesystem prefix the
//                      listener owns; each connection is one mapped file of
//                      two rings (one per direction). A call that finds its
//                      ring ready copies bytes and touches two cursors,
//                      with no syscall. A call that has to wait for the
//                      peer spins on the CPU for 20 µs, yielding the core
//                      once every 2 µs so a peer that shares it can run,
//                      then yields until about 100 µs have passed, then
//                      sleeps 100 µs at a time; a wait that ends inside
//                      the first 2 µs makes no syscall either.
//
// On top of raw bytes, the frame layer gives typed message boundaries:
// a 16-byte header (magic, type, payload length) + payload. read_frame
// validates the magic and bounds the length so a corrupt or hostile peer
// produces a typed TransportError::Kind::kProtocol, never an attempted
// multi-gigabyte allocation; a connection that dies mid-frame produces
// kClosed ("torn frame"), and an expired deadline produces kTimeout.
// Every frame is one send_bytes call. The hot path neither allocates nor
// copies twice: a FrameBuffer is built with room for the header in front
// of its payload, and read_frame can fill a caller-owned Frame.
//
// Every error is a TransportError carrying a Kind — callers switch on the
// kind, not on message strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

namespace isasgd::net {

class TransportError : public std::runtime_error {
 public:
  enum class Kind {
    kClosed,    ///< peer closed/vanished (EOF mid-message, EPIPE, reset)
    kTimeout,   ///< configured I/O deadline expired
    kProtocol,  ///< framing violation: bad magic, oversized length
    kIo,        ///< local I/O failure (errno-level) or bad address
  };

  TransportError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

[[nodiscard]] std::string_view transport_error_kind_name(
    TransportError::Kind kind) noexcept;

/// One reliable, ordered, bidirectional byte stream between two processes.
/// Implementations are single-owner per direction: one thread sends, one
/// thread receives (the PS runtime and the SPSC rings both assume this).
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Transfers exactly `size` bytes, looping over partial writes and EINTR.
  /// Throws TransportError (kClosed when the peer is gone, kTimeout when the
  /// configured deadline expires mid-transfer).
  virtual void send_bytes(const void* data, std::size_t size) = 0;

  /// Receives exactly `size` bytes, looping over partial reads and EINTR.
  /// Same error contract as send_bytes; EOF before `size` bytes is kClosed.
  virtual void recv_bytes(void* data, std::size_t size) = 0;

  /// Bounds every subsequent send/recv call by `timeout_ms` (< 0 = none,
  /// the default). The deadline is per call and starts when the call first
  /// has to wait for the peer (shm reads the clock only then), so a call
  /// that times out has waited at least `timeout_ms`.
  virtual void set_io_timeout(int timeout_ms) = 0;

  /// Signals end-of-stream to the peer (its next recv sees kClosed once the
  /// buffered bytes drain). Idempotent; the destructor calls it.
  virtual void close() = 0;
};

class Listener {
 public:
  virtual ~Listener() = default;

  /// Waits for and returns the next incoming connection. Honours
  /// set_accept_timeout (kTimeout); a closed listener throws kClosed.
  [[nodiscard]] virtual std::unique_ptr<Endpoint> accept() = 0;

  /// The address peers connect() to — for tcp://host:0, the resolved port.
  [[nodiscard]] virtual std::string address() const = 0;

  /// Bounds every subsequent accept() by `timeout_ms` (< 0 = none).
  virtual void set_accept_timeout(int timeout_ms) = 0;

  virtual void close() = 0;
};

/// Opens a listener at `address` ("tcp://host:port" or "shm://path-prefix").
/// Throws TransportError::Kind::kIo on an unparseable address or bind
/// failure.
[[nodiscard]] std::unique_ptr<Listener> listen(const std::string& address);

/// Removes the files a listener at `address` leaves on disk when its
/// process is killed before it closes: shm's control file and any
/// connection a client made that it never accepted (tcp leaves none).
void remove_listener_files(const std::string& address);

/// Connects to a listener. `timeout_ms` bounds the whole attempt and, for
/// listeners that are still coming up (role-mode process groups start in
/// arbitrary order), connect retries until the deadline instead of failing
/// on the first ECONNREFUSED / missing shm control file.
[[nodiscard]] std::unique_ptr<Endpoint> connect(const std::string& address,
                                                int timeout_ms = 10000);

// ---- Frame layer -----------------------------------------------------------

struct Frame {
  std::uint32_t type = 0;
  std::string payload;
};

/// "ISFR" little-endian.
inline constexpr std::uint32_t kFrameMagic = 0x52465349u;
/// Upper bound on one frame's payload; a header announcing more is a
/// protocol violation (kProtocol), not an allocation attempt.
inline constexpr std::size_t kMaxFramePayload = std::size_t{64} << 20;
/// Frame header: magic (u32), type (u32), payload length (u64).
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// An outgoing frame built in place: the payload is appended behind
/// kFrameHeaderBytes of reserved room, so write_frame fills in the header
/// and hands the whole frame to one send_bytes call without copying it.
/// clear() keeps the capacity, so a FrameBuffer reused from frame to frame
/// sends with no heap allocation.
class FrameBuffer {
 public:
  FrameBuffer() : bytes_(kFrameHeaderBytes, '\0') {}

  void append(const void* data, std::size_t size) {
    bytes_.append(static_cast<const char*>(data), size);
  }
  /// Drops the payload and keeps the capacity.
  void clear() { bytes_.resize(kFrameHeaderBytes); }

  [[nodiscard]] std::string_view payload() const {
    return std::string_view(bytes_).substr(kFrameHeaderBytes);
  }

 private:
  friend void write_frame(Endpoint&, std::uint32_t, FrameBuffer&);
  std::string bytes_;
};

/// Sends `frame` as one frame of `type`, writing its header in place.
void write_frame(Endpoint& endpoint, std::uint32_t type, FrameBuffer& frame);
/// Sends `payload` as one frame of `type`. It is copied behind the header in
/// a buffer this thread reuses, so the call allocates only when a frame
/// outgrows every earlier one.
void write_frame(Endpoint& endpoint, std::uint32_t type,
                 std::string_view payload);
/// Reads the next frame into `frame`, reusing its payload capacity. The
/// payload buffer grows only to the announced length, never past
/// kMaxFramePayload. After an error `frame` holds no complete frame, and
/// may be reused for the next read.
void read_frame(Endpoint& endpoint, Frame& frame);
[[nodiscard]] Frame read_frame(Endpoint& endpoint);

/// read_frame + type check: a frame of any other type is kProtocol, naming
/// both. The PS wire protocol is strictly request/response, so an
/// unexpected type always means a desynchronised peer.
[[nodiscard]] Frame expect_frame(Endpoint& endpoint, std::uint32_t type,
                                 const char* what);
/// The same into a caller-owned Frame, reusing its capacity.
void expect_frame(Endpoint& endpoint, Frame& frame, std::uint32_t type,
                  const char* what);

}  // namespace isasgd::net
