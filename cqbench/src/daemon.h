// Hermetic lifecycle for tier_spill's out-of-process pieces: a temporary
// directory that is removed on every exit path, and a verdict_authorityd
// child on an ephemeral loopback port found by scraping its "listening"
// line. Both release in their destructors; Stop() also reports whether the
// child was reaped.
#ifndef CQBENCH_DAEMON_H_
#define CQBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "base/status.h"

namespace cqbench {

class TempDir {
 public:
  // mkdtemp under `parent` (created if missing).
  static cqchase::Result<std::unique_ptr<TempDir>> Make(
      const std::string& parent, const std::string& stem);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

class DaemonProcess {
 public:
  // Starts `binary --listen 127.0.0.1:0 --store-path store_dir` and waits
  // (bounded) for its "listening HOST:PORT" line.
  static cqchase::Result<std::unique_ptr<DaemonProcess>> Start(
      const std::string& binary, const std::string& store_dir);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  uint16_t port() const { return port_; }

  // SIGTERM, drain stdout to EOF, reap. Returns the daemon's "shutdown:"
  // line (empty if it printed none). Idempotent.
  std::string Stop();
  bool reaped() const { return pid_ < 0; }

 private:
  DaemonProcess(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  // Reads one line from the child's stdout, waiting at most `timeout_ms`.
  bool ReadLine(std::string* line, int timeout_ms);

  pid_t pid_;
  int out_fd_;
  uint16_t port_ = 0;
  std::string buffer_;
  std::string shutdown_line_;
};

// The value of `key=` in a "shutdown: k=v k=v" line, or 0.
uint64_t ShutdownField(const std::string& line, const std::string& key);

}  // namespace cqbench

#endif  // CQBENCH_DAEMON_H_
