// Socket transport of repro_serve (docs/SERVING.md).
//
// Server owns the listener, one thread per connection, the periodic
// progress ticker and the graceful-shutdown machinery; every decoded
// request is dispatched to the shared core::server::Service.  Two
// transports speak the same framed protocol:
//
//   - AF_UNIX   (`--unix PATH`): the default for local clients/tests.
//   - TCP       (`--tcp PORT`, loopback only; port 0 picks a free port
//               that port() reports — how the tests avoid collisions).
//
// Shutdown: Shutdown() (wired to SIGTERM by tools/repro_serve via the
// async-signal-safe NotifyShutdown self-pipe) stops the accept loop,
// drains the service (running jobs finish; new SUBMITs are rejected
// with "draining"), sends every open connection a goodbye frame and
// closes it, then Run() returns so the daemon can exit 0.
//
// Delivery semantics: a connection receives `result` frames for jobs
// *it* submitted, pushed the moment the job finishes.  If the client
// disconnected first, the result is not lost — it stays in the
// registry/spool and any connection can fetch it with RESULT.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/server/service.h"
#include "core/status.h"

namespace retest::core::server {

struct ServerOptions {
  std::string unix_path;  ///< Non-empty: listen on this AF_UNIX path.
  int tcp_port = -1;      ///< >= 0: listen on 127.0.0.1:port (0 = any).
  long progress_ms = 0;   ///< Periodic progress frames; 0 disables.
  ServiceOptions service;
};

class Server {
 public:
  explicit Server(const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens (unix and/or tcp).  False (with diagnostics)
  /// when neither listener could be set up.
  bool Start(core::DiagnosticList& diags);

  /// Accept loop; returns after Shutdown() completed the drain.
  void Run();

  /// Initiates graceful shutdown from any thread.
  void Shutdown();

  /// Async-signal-safe shutdown request (the SIGTERM handler calls
  /// this; it only write()s to the wake pipe).
  void NotifyShutdown();

  Service& service() { return service_; }
  /// Resolved TCP port (after Start; -1 when TCP is off).
  int port() const { return resolved_port_; }

 private:
  struct Connection;

  void ServeConnection(std::shared_ptr<Connection> conn);
  /// One request/response exchange; false ends the session.
  bool HandleRequest(Connection& conn, const std::string& payload);
  void PushResult(const JobRecord& record);
  void ProgressTicker();
  bool SendFrame(Connection& conn, const std::string& payload);

  const ServerOptions options_;
  Service service_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int resolved_port_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_{false};

  std::mutex conn_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> threads_;
  std::thread ticker_;
};

/// Client-side connect helpers (tools/repro_serve --client and the
/// tests).  Return the connected fd or -1 with `error` set.
int ConnectUnix(const std::string& path, std::string& error);
int ConnectTcp(int port, std::string& error);

}  // namespace retest::core::server
