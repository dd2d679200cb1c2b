// The server under test as a separate process: `segbus_cli serve` on a
// unix socket, launched, probed, measured through /proc and stopped.
#pragma once

#include <memory>
#include <string>

#include <sys/types.h>

#include "support/status.hpp"

namespace perfbench {

/// Server flags besides --workers: a queue deep enough that the closed
/// loop never meets backpressure, and the default cache capacity, which
/// submit_repeat's working set must stay below.
inline constexpr unsigned kServerQueue = 64;
inline constexpr unsigned kServerCacheEntries = 256;

class ServerProcess {
 public:
  /// Starts `binary serve --socket <socket> --workers <workers> ...` with
  /// stdout/stderr going to `log_path`, and returns once the first `ping`
  /// is answered. `setup_s` receives the time from launch to that answer.
  static segbus::Result<std::unique_ptr<ServerProcess>> launch(
      const std::string& binary, const std::string& socket,
      const std::string& log_path, unsigned workers, double& setup_s);

  /// Stops the server if it still runs and waits for it.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// User+system CPU seconds the server has used so far (all threads).
  segbus::Result<double> cpu_seconds() const;
  /// Peak resident set (VmHWM) in MB.
  segbus::Result<double> peak_rss_mb() const;

  /// SIGTERM (graceful drain), then waits up to 60 s for the exit; kills
  /// it after that. Fails unless the server exited with status 0.
  segbus::Status stop();

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}
  segbus::Status wait_exit(double timeout_s, int& status);

  pid_t pid_ = -1;
};

}  // namespace perfbench
