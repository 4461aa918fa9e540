// Shared-memory backend: file-backed SPSC byte rings for same-host worker
// processes.
//
// Topology: the listener owns a filesystem *prefix*. It creates one control
// file `<prefix>.ctl` holding a single atomic connection counter; it fills
// the file in under a private name and renames it into place, so a client
// that starts first never maps a half-written one. A client connects by
// fetch_add-ing the counter to claim a connection id, creating
// `<prefix>.<id>` — a mapped file holding this connection's header and two
// byte rings (client→server and server→client) — initialising it, and
// store-releasing a READY flag. The listener accepts connections strictly
// in id order (deterministic, like TCP's accept queue but reproducible),
// waiting for the next id's file to appear and turn READY. Once it has
// mapped the file too, it unlinks it: the mappings outlive the name, and
// no ring file is left behind when either side is killed. The control file
// is the listener's to remove when it closes; one killed first leaves it,
// and any connection file a client made after that goes unaccepted, for
// net::remove_listener_files to remove.
//
// The rings are classic single-producer/single-consumer byte queues:
// 64-byte-separated head/tail counters (monotonic, masked on access), the
// producer store-releases tail after copying bytes in, the consumer
// store-releases head after copying bytes out. Each side keeps the last
// value it loaded of the peer's cursor and reloads it only when that view
// runs out: the producer when the cached head leaves too little room for
// the rest of a write, the consumer when it has drained up to the cached
// tail. So each side loads the peer's cursor line at most once per frame,
// and a producer with room to spare does not pull the consumer's line
// across cores at all. No locks and, while the peer keeps up, no syscalls
// — the entire point of having this backend next to TCP. A call that must
// wait follows one policy (Stall below): spin, then yield, then sleep; the
// spin gives the core away once per short slice, so a spinner never holds
// a peer that shares its core off the CPU for long.
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
// and surfaces kClosed when it is gone. A call that reaches its deadline
// probes once more before it reports kTimeout, so a short poll — a zero
// timeout never sleeps — also reads a dead peer as kClosed, as tcp does.
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
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

/// The listener's control file: the one file a listener keeps on disk.
std::string ctl_path(const std::string& prefix) { return prefix + ".ctl"; }

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

/// Wait policy of every shm stall loop (send, recv, accept, connect). A PS
/// round trip takes a few µs, so a stalled call first spins on the CPU for
/// kSpinWindow, yielding once after every kSpinSlice of it; a wait that
/// ends inside the first slice never leaves user space. Then it yields the
/// core until kYieldUntil has passed, then sleeps kSleepStep at a time, so
/// a blocked endpoint never burns a core for long.
constexpr std::chrono::microseconds kSpinWindow{20};
/// A spinner that shares its core with the peer it waits for holds the
/// peer off the CPU until it yields; yielding after every slice bounds what
/// such a handoff costs. With the core to itself, a yield returns at once.
constexpr std::chrono::microseconds kSpinSlice{2};
constexpr std::chrono::microseconds kYieldUntil{100};
constexpr std::chrono::microseconds kSleepStep{100};
/// A spin is one relax hint (tens of ns), so the spin phase reads the clock
/// only every kSpinsPerClockRead spins.
constexpr unsigned kSpinsPerClockRead = 32;
/// The peer liveness probe runs on every 16th sleep (~1.6 ms cadence).
constexpr unsigned kSleepsPerProbe = 16;

/// Tells the core that this thread is spinning: `pause` frees the sibling
/// hyperthread and avoids the memory-order flush when the spin ends.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// The waiting of one call. Nothing is read until the call first stalls:
/// the first wait() reads the clock and starts the call's deadline, so a
/// call that never stalls never reads the clock. A wait depends only on
/// how long it has lasted: nothing carries over from one wait to the next.
class Stall {
 public:
  /// `timeout_ms` < 0 waits forever.
  explicit Stall(int timeout_ms) : timeout_ms_(timeout_ms) {}

  /// Waits a moment, or returns false at once when the call's deadline —
  /// timeout_ms after its first stall — has passed.
  [[nodiscard]] bool wait() {
    if (waited_ >= kSpinWindow || rounds_ % kSpinsPerClockRead == 0) {
      const Clock::time_point now = Clock::now();
      if (!started_) {
        started_ = true;
        deadline_ = now + std::chrono::milliseconds(timeout_ms_);
      }
      if (rounds_ == 0) window_start_ = now;
      if (timeout_ms_ >= 0 && now >= deadline_) return false;
      waited_ = now - window_start_;
    }
    ++rounds_;
    if (waited_ < kSpinWindow) {
      if (waited_ >= kSpinSlice * (slices_ + 1)) {
        ++slices_;
        std::this_thread::yield();
      } else {
        cpu_relax();
      }
    } else if (waited_ < kYieldUntil) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kSleepStep);
      ++sleeps_;
    }
    return true;
  }

  /// The call moved bytes: the next stall starts a fresh spin window. The
  /// deadline keeps running.
  void progressed() {
    rounds_ = 0;
    slices_ = 0;
    sleeps_ = 0;
    waited_ = Clock::duration::zero();
  }

  /// Whether the peer's liveness is due for a probe: once per
  /// kSleepsPerProbe sleeps, so its syscalls never touch a hot wait.
  [[nodiscard]] bool probe_due() const {
    return sleeps_ != 0 && sleeps_ % kSleepsPerProbe == 0;
  }

 private:
  int timeout_ms_;
  bool started_ = false;
  Clock::time_point deadline_{};
  Clock::time_point window_start_{};
  Clock::duration waited_{};
  unsigned rounds_ = 0;
  unsigned slices_ = 0;  // spin slices that ended in a yield
  unsigned sleeps_ = 0;
};

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
  ShmEndpoint(void* mem, bool server)
      : mem_(mem),
        server_(server),
        tx_(header().ring[server ? 1 : 0]),
        rx_(header().ring[server ? 0 : 1]),
        tx_base_(ring_base(server ? 1 : 0)),
        rx_base_(ring_base(server ? 0 : 1)),
        capacity_(header().capacity) {}

  ~ShmEndpoint() override {
    close();
    ::munmap(mem_, kConnFileSize);
  }

  void send_bytes(const void* data, std::size_t size) override {
    const char* p = static_cast<const char*>(data);
    Stall stall(timeout_ms_);
    std::size_t sent = 0;
    while (sent < size) {
      std::uint64_t free = capacity_ - (tail_ - cached_head_);
      if (free < size - sent) {
        // The cached head leaves too little room for the rest of the write:
        // see how far the reader has got.
        cached_head_ = tx_.head.position.load(std::memory_order_acquire);
        free = capacity_ - (tail_ - cached_head_);
      }
      if (free == 0) {
        if (peer_closed()) {
          throw TransportError(TransportError::Kind::kClosed,
                               "shm peer closed while sending");
        }
        const bool waited = stall.wait();
        if ((!waited || stall.probe_due()) && peer_process_gone()) {
          throw TransportError(TransportError::Kind::kClosed,
                               "shm peer process died while sending");
        }
        if (!waited) {
          throw TransportError(TransportError::Kind::kTimeout,
                               "shm send timed out");
        }
        continue;
      }
      stall.progressed();
      const std::uint64_t offset = tail_ & (capacity_ - 1);
      const auto chunk = static_cast<std::size_t>(std::min<std::uint64_t>(
          {capacity_ - offset, free, size - sent}));
      std::memcpy(tx_base_ + offset, p + sent, chunk);
      tail_ += chunk;
      tx_.tail.position.store(tail_, std::memory_order_release);
      sent += chunk;
    }
  }

  void recv_bytes(void* data, std::size_t size) override {
    char* p = static_cast<char*>(data);
    Stall stall(timeout_ms_);
    std::size_t received = 0;
    while (received < size) {
      if (cached_tail_ == head_) {
        // Drained up to the cached tail: look for more.
        cached_tail_ = rx_.tail.position.load(std::memory_order_acquire);
      }
      const std::uint64_t available = cached_tail_ - head_;
      if (available == 0) {
        // A peer that wrote its last bytes and then closed or died between
        // the tail load above and the checks below has still delivered
        // them, so each check looks at the ring once more before reporting
        // the end of the stream.
        if (peer_closed()) {
          if (delivered()) continue;
          throw TransportError(
              TransportError::Kind::kClosed,
              received == 0
                  ? "shm peer closed"
                  : "shm peer closed mid-message (torn frame: got " +
                        std::to_string(received) + " of " +
                        std::to_string(size) + " bytes)");
        }
        const bool waited = stall.wait();
        if ((!waited || stall.probe_due()) && peer_process_gone()) {
          if (delivered()) continue;
          throw TransportError(
              TransportError::Kind::kClosed,
              received == 0
                  ? "shm peer process died"
                  : "shm peer process died mid-message (torn frame: got " +
                        std::to_string(received) + " of " +
                        std::to_string(size) + " bytes)");
        }
        if (!waited) {
          throw TransportError(TransportError::Kind::kTimeout,
                               "shm recv timed out");
        }
        continue;
      }
      stall.progressed();
      const std::uint64_t offset = head_ & (capacity_ - 1);
      const auto chunk = static_cast<std::size_t>(std::min<std::uint64_t>(
          {capacity_ - offset, available, size - received}));
      std::memcpy(p + received, rx_base_ + offset, chunk);
      head_ += chunk;
      rx_.head.position.store(head_, std::memory_order_release);
      received += chunk;
    }
  }

  void set_io_timeout(int timeout_ms) override { timeout_ms_ = timeout_ms; }

  void close() override {
    if (closed_) return;
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
  /// Whether bytes past head_ have arrived on the receive ring.
  [[nodiscard]] bool delivered() const {
    return rx_.tail.position.load(std::memory_order_acquire) != head_;
  }
  [[nodiscard]] bool peer_closed() const {
    const auto& flag =
        server_ ? header().closed_client : header().closed_server;
    return flag.load(std::memory_order_acquire) != 0;
  }
  [[nodiscard]] bool peer_process_gone() const {
    const auto& peer = server_ ? header().pid_client : header().pid_server;
    const auto pid = static_cast<pid_t>(peer.load(std::memory_order_acquire));
    return pid > 0 && process_gone(pid);
  }

  void* mem_;
  bool server_;
  Ring& tx_;  // rings and their data, both in the mapping
  Ring& rx_;
  char* tx_base_;
  const char* rx_base_;
  std::uint64_t capacity_;
  // Cursors. This side is the only writer of tail_ (on tx_) and head_ (on
  // rx_); the cached_* values are its last loads of the peer's.
  std::uint64_t tail_ = 0;
  std::uint64_t cached_head_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t cached_tail_ = 0;
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
    ctl_path_ = ctl_path(prefix_);
    // Fill the control file in under a private name, then rename it into
    // place (replacing a stale listener's): a client polling for it sees
    // either no file or a complete one, never a zero magic.
    const std::string init_path =
        ctl_path_ + "." + std::to_string(::getpid()) + ".init";
    ::unlink(init_path.c_str());
    ctl_ = map_file(init_path, sizeof(CtlHeader), /*create=*/true);
    new (ctl_) CtlHeader();
    if (::rename(init_path.c_str(), ctl_path_.c_str()) < 0) {
      const int saved = errno;
      ::munmap(ctl_, sizeof(CtlHeader));
      ctl_ = nullptr;
      ::unlink(init_path.c_str());
      errno = saved;
      throw_io("shm rename " + init_path);
    }
  }

  ~ShmListener() override { close(); }

  std::unique_ptr<Endpoint> accept() override {
    if (ctl_ == nullptr) {
      throw TransportError(TransportError::Kind::kClosed,
                           "shm listener is closed");
    }
    const std::string path = prefix_ + "." + std::to_string(next_accept_);
    Stall stall(timeout_ms_);
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
          // Both sides have the file mapped now, and the mappings outlive
          // its name: unlinking it here leaves nothing behind however
          // either side exits, a SIGKILL included.
          ::unlink(path.c_str());
          return std::make_unique<ShmEndpoint>(mem, /*server=*/true);
        }
        ::munmap(mem, kConnFileSize);
      }
      if (!stall.wait()) {
        throw TransportError(TransportError::Kind::kTimeout,
                             "shm accept timed out");
      }
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

void shm_remove_listener_files(const std::string& prefix) {
  const std::string ctl_file = ctl_path(prefix);
  // A client that connected after its listener's process died left a
  // connection file that no accept() unlinked. Each id the counter handed
  // out names one; the accepted ones are gone already.
  std::uint32_t ids = 0;
  struct stat st {};
  if (::stat(ctl_file.c_str(), &st) == 0 &&
      st.st_size == static_cast<off_t>(sizeof(CtlHeader))) {
    try {
      void* ctl = map_file(ctl_file, sizeof(CtlHeader), /*create=*/false);
      const auto* header = static_cast<const CtlHeader*>(ctl);
      if (header->magic == kCtlMagic) {
        ids = header->next_id.load(std::memory_order_acquire);
      }
      ::munmap(ctl, sizeof(CtlHeader));
    } catch (const TransportError&) {
    }
  }
  for (std::uint32_t id = 0; id < ids; ++id) {
    ::unlink((prefix + "." + std::to_string(id)).c_str());
  }
  ::unlink(ctl_file.c_str());
}

std::unique_ptr<Endpoint> shm_connect(const std::string& prefix,
                                      int timeout_ms) {
  const std::string ctl_file = ctl_path(prefix);
  // The listener may not be up yet (role-mode groups start in any order):
  // wait for its control file.
  Stall stall(timeout_ms);
  while (true) {
    struct stat st {};
    if (::stat(ctl_file.c_str(), &st) == 0 &&
        st.st_size == static_cast<off_t>(sizeof(CtlHeader))) {
      break;
    }
    if (!stall.wait()) {
      throw TransportError(TransportError::Kind::kTimeout,
                           "shm connect: no listener at " + prefix);
    }
  }
  void* ctl = map_file(ctl_file, sizeof(CtlHeader), /*create=*/false);
  auto* ctl_header = static_cast<CtlHeader*>(ctl);
  if (ctl_header->magic != kCtlMagic) {
    ::munmap(ctl, sizeof(CtlHeader));
    throw TransportError(TransportError::Kind::kProtocol,
                         "shm control file at " + ctl_file +
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
  return std::make_unique<ShmEndpoint>(mem, /*server=*/false);
}

}  // namespace isasgd::net::detail
