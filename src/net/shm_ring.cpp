// Shared-memory backend: file-backed SPSC byte rings for same-host worker
// processes.
//
// Topology: the listener owns a filesystem *prefix*. It creates one control
// file `<prefix>.ctl` holding a single atomic connection counter. A client
// connects by fetch_add-ing the counter to claim a connection id, creating
// `<prefix>.<id>` — a mapped file holding this connection's header and two
// byte rings (client→server and server→client) — initialising it, and
// store-releasing a READY flag. The listener accepts connections strictly
// in id order (deterministic, like TCP's accept queue but reproducible),
// spin-waiting with a microsleep for the next id's file to appear and turn
// READY.
//
// The rings are classic single-producer/single-consumer byte queues:
// 64-byte-separated head/tail counters (monotonic, masked on access), the
// producer store-releases tail after copying bytes in, the consumer
// store-releases head after copying bytes out. No locks, no syscalls on the
// data path — the same-host cost of a message is two memcpys and two
// atomics, which is the entire point of having this backend next to TCP.
//
// Close protocol: each side sets its CLOSED flag; a reader that drains the
// ring and sees the peer CLOSED gets a typed kClosed, exactly like reading
// EOF from a closed socket. Torn frames (peer died mid-message) therefore
// surface identically on both backends.
//
// A peer that is SIGKILLed (or _exits) never sets its CLOSED flag, and a
// ring has no kernel to deliver EOF — without help, the survivor would spin
// on an untimed recv forever. Each side therefore registers its pid in the
// connection header, and the stall loops' sleep phase probes the peer
// process (kill(pid, 0) + /proc state — a dead worker is a *zombie* until
// its parent reaps it at the next fence, and zombies pass the kill probe)
// and surfaces kClosed when it is gone.
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "net/transport.hpp"

namespace isasgd::net::detail {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kCtlMagic = 0x4c43'4953u;   // "ISCL"
constexpr std::uint32_t kConnMagic = 0x4e43'4953u;  // "ISCN"
constexpr std::uint32_t kStateReady = 1;
/// Per-direction ring capacity. Power of two; large enough that one PS
/// get/push round trip (a few KB) never wraps mid-frame in practice, small
/// enough that a 1+8-process group costs a few MB of page cache.
constexpr std::uint64_t kRingCapacity = std::uint64_t{1} << 20;

struct CtlHeader {
  std::uint32_t magic = kCtlMagic;
  std::atomic<std::uint32_t> next_id{0};
};

struct alignas(64) RingSide {
  std::atomic<std::uint64_t> position{0};  // head or tail, monotonic
  char pad[56];
};

struct Ring {
  RingSide tail;  // producer cursor
  RingSide head;  // consumer cursor
};

struct ConnHeader {
  std::uint32_t magic = kConnMagic;
  std::atomic<std::uint32_t> state{0};         // → kStateReady by the client
  std::uint64_t capacity = kRingCapacity;      // per ring
  std::atomic<std::uint32_t> closed_server{0};
  std::atomic<std::uint32_t> closed_client{0};
  std::atomic<std::uint32_t> pid_server{0};  // liveness probe targets;
  std::atomic<std::uint32_t> pid_client{0};  // 0 = not yet registered
  Ring ring[2];  // [0] client→server, [1] server→client
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm rings require address-free lock-free 64-bit atomics");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shm rings require address-free lock-free 32-bit atomics");

constexpr std::size_t kConnFileSize =
    sizeof(ConnHeader) + 2 * kRingCapacity;

[[noreturn]] void throw_io(const std::string& what) {
  throw TransportError(TransportError::Kind::kIo,
                       what + ": " + std::strerror(errno));
}

/// Exponential-ish backoff for the spin loops: stay on the CPU for a few
/// iterations (one frame round trip is microseconds), then yield, then
/// sleep — a blocked endpoint must not burn a core for seconds.
void backoff(unsigned& spins) {
  ++spins;
  if (spins < 64) {
    return;
  }
  if (spins < 256) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(100));
}

/// Whether `pid` can no longer make progress: gone entirely (ESRCH), or a
/// zombie — exited but unreaped, which kill(pid, 0) still reports as alive.
/// The PS controller reaps workers at epoch fences, so a crashed worker
/// spends its whole detection window as a zombie; /proc is authoritative.
bool process_gone(pid_t pid) {
  if (::kill(pid, 0) < 0) return errno == ESRCH;
  char path[48];
  std::snprintf(path, sizeof(path), "/proc/%d/stat", static_cast<int>(pid));
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) return errno == ENOENT;
  char buf[256];
  ssize_t n = -1;
  do {
    n = ::read(fd, buf, sizeof(buf) - 1);
  } while (n < 0 && errno == EINTR);
  ::close(fd);
  if (n <= 0) return false;
  buf[n] = '\0';
  // Format: "pid (comm) S ..." — comm may contain anything but a final ')',
  // so scan from the last ')'. State Z (zombie) or X/x (dead) means gone.
  const char* paren = std::strrchr(buf, ')');
  if (paren == nullptr || paren[1] == '\0' || paren[2] == '\0') return false;
  const char state = paren[2];
  return state == 'Z' || state == 'X' || state == 'x';
}

/// mmaps `path` (creating + sizing it when `create`). Returns the mapping.
void* map_file(const std::string& path, std::size_t size, bool create) {
  const int flags = create ? O_RDWR | O_CREAT | O_EXCL : O_RDWR;
  const int fd = ::open(path.c_str(), flags, 0600);
  if (fd < 0) throw_io("shm open " + path);
  if (create && ::ftruncate(fd, static_cast<off_t>(size)) < 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(path.c_str());
    errno = saved;
    throw_io("shm ftruncate " + path);
  }
  void* mem =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  const int saved = errno;
  ::close(fd);
  if (mem == MAP_FAILED) {
    errno = saved;
    throw_io("shm mmap " + path);
  }
  return mem;
}

class ShmEndpoint final : public Endpoint {
 public:
  /// `server` side sends on ring[1]/recvs on ring[0]; client the reverse.
  ShmEndpoint(void* mem, std::string path, bool server, bool owns_unlink)
      : mem_(mem),
        path_(std::move(path)),
        server_(server),
        owns_unlink_(owns_unlink) {}

  ~ShmEndpoint() override {
    close();
    if (mem_ != nullptr) {
      ::munmap(mem_, kConnFileSize);
      mem_ = nullptr;
    }
    if (owns_unlink_) ::unlink(path_.c_str());
  }

  void send_bytes(const void* data, std::size_t size) override {
    ConnHeader& h = header();
    Ring& ring = h.ring[server_ ? 1 : 0];
    char* base = ring_base(server_ ? 1 : 0);
    const char* p = static_cast<const char*>(data);
    const auto deadline = start_deadline();
    std::size_t sent = 0;
    unsigned spins = 0;
    while (sent < size) {
      const std::uint64_t tail =
          ring.tail.position.load(std::memory_order_relaxed);
      const std::uint64_t head =
          ring.head.position.load(std::memory_order_acquire);
      const std::uint64_t free = h.capacity - (tail - head);
      if (free == 0) {
        if (peer_closed(h)) {
          throw TransportError(TransportError::Kind::kClosed,
                               "shm peer closed while sending");
        }
        if (peer_process_gone(h, spins)) {
          throw TransportError(TransportError::Kind::kClosed,
                               "shm peer process died while sending");
        }
        check_deadline(deadline, "shm send");
        backoff(spins);
        continue;
      }
      spins = 0;
      const std::uint64_t offset = tail & (h.capacity - 1);
      const std::uint64_t contiguous =
          std::min<std::uint64_t>(h.capacity - offset, free);
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(contiguous, size - sent));
      std::memcpy(base + offset, p + sent, chunk);
      ring.tail.position.store(tail + chunk, std::memory_order_release);
      sent += chunk;
    }
  }

  void recv_bytes(void* data, std::size_t size) override {
    ConnHeader& h = header();
    Ring& ring = h.ring[server_ ? 0 : 1];
    const char* base = ring_base(server_ ? 0 : 1);
    char* p = static_cast<char*>(data);
    const auto deadline = start_deadline();
    std::size_t received = 0;
    unsigned spins = 0;
    while (received < size) {
      const std::uint64_t head =
          ring.head.position.load(std::memory_order_relaxed);
      const std::uint64_t tail =
          ring.tail.position.load(std::memory_order_acquire);
      const std::uint64_t available = tail - head;
      if (available == 0) {
        // A peer that wrote its last bytes and then closed or died between
        // the tail load above and the checks below has still delivered
        // them, so each check looks at the ring once more before reporting
        // the end of the stream.
        if (peer_closed(h)) {
          if (delivered(ring, head)) continue;
          throw TransportError(
              TransportError::Kind::kClosed,
              received == 0
                  ? "shm peer closed"
                  : "shm peer closed mid-message (torn frame: got " +
                        std::to_string(received) + " of " +
                        std::to_string(size) + " bytes)");
        }
        if (peer_process_gone(h, spins)) {
          if (delivered(ring, head)) continue;
          throw TransportError(
              TransportError::Kind::kClosed,
              received == 0
                  ? "shm peer process died"
                  : "shm peer process died mid-message (torn frame: got " +
                        std::to_string(received) + " of " +
                        std::to_string(size) + " bytes)");
        }
        check_deadline(deadline, "shm recv");
        backoff(spins);
        continue;
      }
      spins = 0;
      const std::uint64_t offset = head & (h.capacity - 1);
      const std::uint64_t contiguous =
          std::min<std::uint64_t>(h.capacity - offset, available);
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(contiguous, size - received));
      std::memcpy(p + received, base + offset, chunk);
      ring.head.position.store(head + chunk, std::memory_order_release);
      received += chunk;
    }
  }

  void set_io_timeout(int timeout_ms) override { timeout_ms_ = timeout_ms; }

  void close() override {
    if (mem_ == nullptr || closed_) return;
    closed_ = true;
    auto& flag =
        server_ ? header().closed_server : header().closed_client;
    flag.store(1, std::memory_order_release);
  }

 private:
  [[nodiscard]] ConnHeader& header() const {
    return *static_cast<ConnHeader*>(mem_);
  }
  [[nodiscard]] char* ring_base(int which) const {
    return static_cast<char*>(mem_) + sizeof(ConnHeader) +
           static_cast<std::size_t>(which) * header().capacity;
  }
  /// Whether bytes past `head` have arrived on `ring`.
  [[nodiscard]] static bool delivered(const Ring& ring, std::uint64_t head) {
    return ring.tail.position.load(std::memory_order_acquire) != head;
  }
  [[nodiscard]] bool peer_closed(const ConnHeader& h) const {
    const auto& flag = server_ ? h.closed_client : h.closed_server;
    return flag.load(std::memory_order_acquire) != 0;
  }
  /// Liveness probe for the stall loops: only once the backoff has reached
  /// its sleep phase, and only every 16th sleep (~1.6 ms cadence) — the
  /// kill/readlink syscalls must never touch the hot path.
  [[nodiscard]] bool peer_process_gone(const ConnHeader& h,
                                       unsigned spins) const {
    if (spins < 512 || (spins & 15u) != 0) return false;
    const auto& peer =
        server_ ? h.pid_client : h.pid_server;
    const auto pid =
        static_cast<pid_t>(peer.load(std::memory_order_acquire));
    return pid > 0 && process_gone(pid);
  }
  [[nodiscard]] Clock::time_point start_deadline() const {
    return timeout_ms_ >= 0
               ? Clock::now() + std::chrono::milliseconds(timeout_ms_)
               : Clock::time_point{};
  }
  void check_deadline(Clock::time_point deadline, const char* what) const {
    if (timeout_ms_ >= 0 && Clock::now() >= deadline) {
      throw TransportError(TransportError::Kind::kTimeout,
                           std::string(what) + " timed out");
    }
  }

  void* mem_ = nullptr;
  std::string path_;
  bool server_;
  bool owns_unlink_;
  bool closed_ = false;
  int timeout_ms_ = -1;
};

class ShmListener final : public Listener {
 public:
  explicit ShmListener(std::string prefix) : prefix_(std::move(prefix)) {
    if (prefix_.empty()) {
      throw TransportError(TransportError::Kind::kIo,
                           "shm:// address needs a filesystem path prefix");
    }
    ctl_path_ = prefix_ + ".ctl";
    ::unlink(ctl_path_.c_str());  // replace a stale listener's control file
    ctl_ = map_file(ctl_path_, sizeof(CtlHeader), /*create=*/true);
    new (ctl_) CtlHeader();
  }

  ~ShmListener() override { close(); }

  std::unique_ptr<Endpoint> accept() override {
    if (ctl_ == nullptr) {
      throw TransportError(TransportError::Kind::kClosed,
                           "shm listener is closed");
    }
    const std::string path = prefix_ + "." + std::to_string(next_accept_);
    const auto deadline =
        timeout_ms_ >= 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms_)
                         : Clock::time_point{};
    unsigned spins = 0;
    while (true) {
      struct stat st {};
      if (::stat(path.c_str(), &st) == 0 &&
          st.st_size == static_cast<off_t>(kConnFileSize)) {
        void* mem = map_file(path, kConnFileSize, /*create=*/false);
        auto* h = static_cast<ConnHeader*>(mem);
        if (h->magic == kConnMagic &&
            h->state.load(std::memory_order_acquire) == kStateReady) {
          ++next_accept_;
          h->pid_server.store(static_cast<std::uint32_t>(::getpid()),
                              std::memory_order_release);
          // The server side owns unlinking: the client may be a short-lived
          // worker process that exits first.
          return std::make_unique<ShmEndpoint>(mem, path, /*server=*/true,
                                               /*owns_unlink=*/true);
        }
        ::munmap(mem, kConnFileSize);
      }
      if (timeout_ms_ >= 0 && Clock::now() >= deadline) {
        throw TransportError(TransportError::Kind::kTimeout,
                             "shm accept timed out");
      }
      backoff(spins);
    }
  }

  std::string address() const override { return "shm://" + prefix_; }

  void set_accept_timeout(int timeout_ms) override { timeout_ms_ = timeout_ms; }

  void close() override {
    if (ctl_ != nullptr) {
      ::munmap(ctl_, sizeof(CtlHeader));
      ctl_ = nullptr;
      ::unlink(ctl_path_.c_str());
    }
  }

 private:
  std::string prefix_;
  std::string ctl_path_;
  void* ctl_ = nullptr;
  std::uint32_t next_accept_ = 0;
  int timeout_ms_ = -1;
};

}  // namespace

std::unique_ptr<Listener> shm_listen(const std::string& prefix) {
  return std::make_unique<ShmListener>(prefix);
}

std::unique_ptr<Endpoint> shm_connect(const std::string& prefix,
                                      int timeout_ms) {
  const std::string ctl_path = prefix + ".ctl";
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           timeout_ms < 0 ? 0 : timeout_ms);
  // The listener may not be up yet (role-mode groups start in any order):
  // wait for its control file.
  unsigned spins = 0;
  while (true) {
    struct stat st {};
    if (::stat(ctl_path.c_str(), &st) == 0 &&
        st.st_size == static_cast<off_t>(sizeof(CtlHeader))) {
      break;
    }
    if (timeout_ms >= 0 && Clock::now() >= deadline) {
      throw TransportError(TransportError::Kind::kTimeout,
                           "shm connect: no listener at " + prefix);
    }
    backoff(spins);
  }
  void* ctl = map_file(ctl_path, sizeof(CtlHeader), /*create=*/false);
  auto* ctl_header = static_cast<CtlHeader*>(ctl);
  if (ctl_header->magic != kCtlMagic) {
    ::munmap(ctl, sizeof(CtlHeader));
    throw TransportError(TransportError::Kind::kProtocol,
                         "shm control file at " + ctl_path +
                             " has a bad magic");
  }
  const std::uint32_t id =
      ctl_header->next_id.fetch_add(1, std::memory_order_acq_rel);
  ::munmap(ctl, sizeof(CtlHeader));

  const std::string path = prefix + "." + std::to_string(id);
  void* mem = map_file(path, kConnFileSize, /*create=*/true);
  auto* h = new (mem) ConnHeader();
  h->pid_client.store(static_cast<std::uint32_t>(::getpid()),
                      std::memory_order_relaxed);
  h->state.store(kStateReady, std::memory_order_release);
  return std::make_unique<ShmEndpoint>(mem, path, /*server=*/false,
                                       /*owns_unlink=*/false);
}

}  // namespace isasgd::net::detail
