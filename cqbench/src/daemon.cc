#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

namespace cqbench {

using cqchase::Result;
using cqchase::Status;

Result<std::unique_ptr<TempDir>> TempDir::Make(const std::string& parent,
                                               const std::string& stem) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) return Status::Internal("cannot create " + parent + ": " + ec.message());
  std::string tmpl = parent + "/" + stem + "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) {
    return Status::Internal("mkdtemp failed under " + parent);
  }
  return std::unique_ptr<TempDir>(new TempDir(buf.data()));
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

Result<std::unique_ptr<DaemonProcess>> DaemonProcess::Start(
    const std::string& binary, const std::string& store_dir) {
  if (access(binary.c_str(), X_OK) != 0) {
    return Status::NotFound("daemon binary not found: " + binary);
  }
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Child: die with the benchmark, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(1);
    dup2(fds[1], STDOUT_FILENO);
    const char* argv[] = {binary.c_str(), "--listen", "127.0.0.1:0",
                          "--store-path", store_dir.c_str(), nullptr};
    execv(binary.c_str(), const_cast<char* const*>(argv));
    _exit(127);
  }
  close(fds[1]);
  std::unique_ptr<DaemonProcess> daemon(new DaemonProcess(pid, fds[0]));
  std::string line;
  while (daemon->ReadLine(&line, 10000)) {
    if (line.rfind("listening ", 0) == 0) {
      const size_t colon = line.rfind(':');
      if (colon == std::string::npos) break;
      daemon->port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
      if (daemon->port_ == 0) break;
      return daemon;
    }
  }
  return Status::Internal("daemon did not report a listening port");
}

bool DaemonProcess::ReadLine(std::string* line, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0 || out_fd_ < 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left)) <= 0) return false;
    char chunk[4096];
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string DaemonProcess::Stop() {
  if (pid_ < 0) return shutdown_line_;
  kill(pid_, SIGTERM);
  std::string line;
  while (ReadLine(&line, 10000)) {
    if (line.rfind("shutdown:", 0) == 0) shutdown_line_ = line;
  }
  // The drain is bounded; a daemon that has not exited by now is killed.
  int status = 0;
  for (int i = 0; i < 100; ++i) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      break;
    }
    usleep(20000);
  }
  if (pid_ >= 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
  return shutdown_line_;
}

DaemonProcess::~DaemonProcess() { Stop(); }

uint64_t ShutdownField(const std::string& line, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace cqbench
