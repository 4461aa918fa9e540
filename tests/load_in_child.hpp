// Runs a load in a forked child and measures how far it grew the child's
// peak memory, so a test can bound what a reader sizes from a file's header
// before it finds that the file does not hold it.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace isasgd::test {

/// How a load in a child ended.
struct LoadInChild {
  bool typed_error = false;  ///< the load threw std::runtime_error
  double rss_growth_mib = 0;      ///< growth of ru_maxrss
  double vm_peak_growth_mib = 0;  ///< growth of /proc/self/status VmPeak
};

/// Writes a file that is only an 8-byte `magic` and the u64 header `words`:
/// a header that announces arrays the file does not hold.
inline void write_header_only(const std::string& path, const char* magic,
                              std::initializer_list<std::uint64_t> words) {
  std::ofstream out(path, std::ios::binary);
  out.write(magic, 8);
  for (const std::uint64_t w : words) {
    out.write(reinterpret_cast<const char*>(&w), sizeof w);
  }
}

/// This process's VmPeak in KiB.
inline long vm_peak_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long value = 0;
  while (status >> key) {
    if (key == "VmPeak:") {
      status >> value;
      return value;
    }
    status.ignore(1 << 10, '\n');
  }
  return 0;
}

/// This process's ru_maxrss in KiB.
inline long max_rss_kib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// Runs `load` in a forked child (a fork starts both peaks at the child's
/// current footprint) and reports how it ended.
inline LoadInChild load_in_child(const std::function<void()>& load) {
  int pipe_fd[2];
  if (::pipe(pipe_fd) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(pipe_fd[0]);
    const long rss0 = max_rss_kib();
    const long vm0 = vm_peak_kib();
    int typed = 0;
    try {
      load();
    } catch (const std::runtime_error&) {
      typed = 1;
    } catch (...) {
    }
    char line[96];
    const int n = std::snprintf(line, sizeof line, "%d %ld %ld", typed,
                                max_rss_kib() - rss0, vm_peak_kib() - vm0);
    (void)!::write(pipe_fd[1], line, static_cast<std::size_t>(n));
    ::_exit(0);
  }
  ::close(pipe_fd[1]);
  char line[96] = {};
  std::size_t got = 0;
  ssize_t n = 0;
  while ((n = ::read(pipe_fd[0], line + got, sizeof line - 1 - got)) > 0) {
    got += static_cast<std::size_t>(n);
  }
  ::close(pipe_fd[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  LoadInChild out;
  int typed = 0;
  long rss = 0, vm = 0;
  if (std::sscanf(line, "%d %ld %ld", &typed, &rss, &vm) != 3) {
    throw std::runtime_error("the loading child reported nothing");
  }
  out.typed_error = typed != 0;
  out.rss_growth_mib = static_cast<double>(rss) / 1024.0;
  out.vm_peak_growth_mib = static_cast<double>(vm) / 1024.0;
  return out;
}

}  // namespace isasgd::test
