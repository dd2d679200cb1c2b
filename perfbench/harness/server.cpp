#include "server.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "service/client.hpp"
#include "support/strings.hpp"

namespace perfbench {

using namespace segbus;
using Clock = std::chrono::steady_clock;

Result<std::unique_ptr<ServerProcess>> ServerProcess::launch(
    const std::string& binary, const std::string& socket,
    const std::string& log_path, unsigned workers, double& setup_s) {
  std::vector<std::string> args = {
      binary,          "serve",
      "--socket",      socket,
      "--workers",     std::to_string(workers),
      "--queue",       std::to_string(kServerQueue),
      "--cache-entries", std::to_string(kServerCacheEntries)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return internal_error("cannot open " + log_path);
  ::unlink(socket.c_str());

  const Clock::time_point launched = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return internal_error("fork failed");
  }
  if (pid == 0) {
    // The server must not outlive this process, even when it dies.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid));

  const Clock::time_point give_up = launched + std::chrono::seconds(60);
  while (true) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      server->pid_ = -1;
      return internal_error("server exited during start-up; see " + log_path);
    }
    if (Result<service::Client> client = service::Client::connect_unix(socket);
        client.is_ok()) {
      service::JobRequest ping;
      ping.id = "setup-ping";
      ping.kind = "ping";
      Result<service::JobResponse> pong = client->call(ping);
      if (!pong.is_ok() || !pong->ok) {
        return internal_error("server did not answer its first ping");
      }
      setup_s = std::chrono::duration<double>(Clock::now() - launched).count();
      return server;
    }
    if (Clock::now() > give_up) {
      return internal_error("server socket never came up; see " + log_path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

Result<double> ServerProcess::cpu_seconds() const {
  std::ifstream in(str_format("/proc/%d/stat", static_cast<int>(pid_)));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, the 12th and 13th after ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return internal_error("bad /proc stat");
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i == 12) utime = std::stoull(field);
    if (i == 13) stime = std::stoull(field);
  }
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return static_cast<double>(utime + stime) / static_cast<double>(ticks);
}

Result<double> ServerProcess::peak_rss_mb() const {
  std::ifstream in(str_format("/proc/%d/status", static_cast<int>(pid_)));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return internal_error("no VmHWM in /proc status");
}

Status ServerProcess::wait_exit(double timeout_s, int& status) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      return Status::ok();
    }
    if (done < 0 && errno != EINTR) return internal_error("waitpid failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return internal_error("server did not exit in time");
}

Status ServerProcess::stop() {
  if (pid_ <= 0) return internal_error("server is not running");
  ::kill(pid_, SIGTERM);
  int status = 0;
  if (Status waited = wait_exit(60.0, status); !waited.is_ok()) {
    ::kill(pid_, SIGKILL);
    (void)wait_exit(10.0, status);
    return internal_error("server ignored SIGTERM and was killed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return internal_error(str_format("server exited with status %d", status));
  }
  return Status::ok();
}

}  // namespace perfbench
