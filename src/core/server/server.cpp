#include "core/server/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_set>

#include "core/chaos.h"
#include "core/metrics.h"
#include "core/server/framing.h"

namespace retest::core::server {

namespace {

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

int ListenUnix(const std::string& path, core::DiagnosticList& diags) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    diags.Add(StatusCode::kIoError,
              "unix socket path is too long: " + path, "server");
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    diags.Add(StatusCode::kIoError,
              std::string("socket: ") + std::strerror(errno), "server");
    return -1;
  }
  ::unlink(path.c_str());  // A stale socket from a killed daemon.
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    diags.Add(StatusCode::kIoError,
              "cannot listen on " + path + ": " + std::strerror(errno),
              "server");
    ::close(fd);
    return -1;
  }
  return fd;
}

int ListenTcp(int port, int& resolved_port, core::DiagnosticList& diags) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    diags.Add(StatusCode::kIoError,
              std::string("socket: ") + std::strerror(errno), "server");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // Loopback only.
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    diags.Add(StatusCode::kIoError,
              "cannot listen on 127.0.0.1:" + std::to_string(port) + ": " +
                  std::strerror(errno),
              "server");
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  resolved_port = ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                                &len) == 0
                      ? ntohs(bound.sin_port)
                      : port;
  return fd;
}

}  // namespace

/// One live client session.  `write_mutex` serializes frames from the
/// session thread, the completion callback and the progress ticker;
/// `open` flips under it before the fd closes, so a late pusher never
/// writes to a recycled descriptor.  Only the session thread (after its
/// last read) or the destructor (after the session thread is joined)
/// closes the fd: the drain path merely shuts the socket down, so a
/// blocked read returns EOF instead of racing a close.
struct Server::Connection {
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { CloseFd(fd); }

  int fd = -1;
  std::mutex write_mutex;
  bool open = true;
  std::unordered_set<std::uint64_t> jobs;  ///< Guarded by conn_mutex_.
};

Server::Server(const ServerOptions& options)
    : options_(options), service_(options.service) {
  if (::pipe(wake_pipe_) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
  service_.SetCompletionCallback(
      [this](const JobRecord& record) { PushResult(record); });
}

Server::~Server() {
  Shutdown();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (ticker_.joinable()) ticker_.join();
  CloseFd(unix_fd_);
  CloseFd(tcp_fd_);
  CloseFd(wake_pipe_[0]);
  CloseFd(wake_pipe_[1]);
}

bool Server::Start(core::DiagnosticList& diags) {
  bool any = false;
  if (!options_.unix_path.empty()) {
    unix_fd_ = ListenUnix(options_.unix_path, diags);
    any = any || unix_fd_ >= 0;
  }
  if (options_.tcp_port >= 0) {
    tcp_fd_ = ListenTcp(options_.tcp_port, resolved_port_, diags);
    any = any || tcp_fd_ >= 0;
  }
  return any;
}

void Server::Run() {
  if (options_.progress_ms > 0) {
    ticker_ = std::thread([this] { ProgressTicker(); });
  }
  while (!shutdown_.load()) {
    pollfd fds[3];
    nfds_t n = 0;
    if (wake_pipe_[0] >= 0) fds[n++] = {wake_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[n++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n++] = {tcp_fd_, POLLIN, 0};
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (shutdown_.load()) break;
    for (nfds_t i = 0; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      if (fds[i].fd == wake_pipe_[0]) {
        shutdown_.store(true);
        break;
      }
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;
      auto conn = std::make_shared<Connection>();
      conn->fd = client;
      {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_.push_back(conn);
        threads_.emplace_back(
            [this, conn] { ServeConnection(std::move(conn)); });
      }
    }
  }

  // Graceful drain: stop admitting, let running jobs finish, then say
  // goodbye to every still-open session and shut its socket down; the
  // session threads see EOF and exit, the destructor joins them, and
  // the last Connection reference closes the fd.
  service_.Drain();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conns = connections_;
  }
  for (const auto& conn : conns) {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!conn->open) continue;
    WriteFrame(conn->fd, BuildGoodbye());
    conn->open = false;
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void Server::Shutdown() {
  shutdown_.store(true);
  NotifyShutdown();
}

void Server::NotifyShutdown() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

bool Server::SendFrame(Connection& conn, const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (!conn.open) return false;
  return WriteFrame(conn.fd, payload);
}

void Server::ServeConnection(std::shared_ptr<Connection> conn) {
  SendFrame(*conn, BuildHello(kMaxFramePayload, options_.service.max_queue));
  FrameDecoder decoder;
  std::string payload;
  std::string error;
  bool keep_going = true;
  while (keep_going && !shutdown_.load()) {
    // Chaos: a stalled reader thread — the connection stops consuming
    // for a while, but the push paths (results, progress) and every
    // other connection must stay live.
    RETEST_CHAOS_STALL("serve.read.stall", 50);
    switch (ReadFrame(conn->fd, decoder, payload, error)) {
      case FrameDecoder::Next::kFrame:
        keep_going = HandleRequest(*conn, payload);
        break;
      case FrameDecoder::Next::kNeedMore:  // Clean EOF.
        keep_going = false;
        break;
      case FrameDecoder::Next::kError:
        // A poisoned stream cannot be re-synchronized: report and hang
        // up (docs/SERVING.md "Framing errors").
        SendFrame(*conn, BuildError("bad_frame", error));
        keep_going = false;
        break;
    }
  }
  // A shutdown-induced exit (keep_going still true) leaves the session
  // open: the drain pass in Run() still owes it result
  // pushes and the goodbye frame, and closes it afterwards.  Closing
  // here instead would silently drop those frames for any client whose
  // request raced the shutdown.  Only a client EOF or a poisoned
  // stream tears the connection down from this thread.
  if (keep_going) return;
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->open) {
    conn->open = false;
    CloseFd(conn->fd);
  }
}

bool Server::HandleRequest(Connection& conn, const std::string& payload) {
  core::DiagnosticList diags;
  const auto request = ParseRequest(payload, diags);
  if (!request) {
    return SendFrame(conn, BuildError("bad_request", diags.ToString()));
  }
  switch (request->verb) {
    case Verb::kSubmit: {
      // conn_mutex_ is held across Submit + job registration so that
      // PushResult (which takes conn_mutex_ to find the submitter)
      // cannot look a just-accepted job up before it is registered;
      // write_mutex is held across the `accepted` write so the result
      // frame of an instantly-finishing job cannot overtake it.
      std::unique_lock<std::mutex> write_lock(conn.write_mutex);
      Service::Submission submission;
      {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        submission = service_.Submit(request->spec);
        if (submission.accepted) conn.jobs.insert(submission.id);
      }
      if (!conn.open) return false;
      if (!submission.accepted) {
        return WriteFrame(conn.fd,
                          BuildRejected(submission.reject_reason,
                                        submission.diagnostics));
      }
      return WriteFrame(conn.fd,
                        BuildAccepted(submission.id, request->spec.name,
                                      submission.queue_depth));
    }
    case Verb::kQuery: {
      const auto record = service_.Query(request->id);
      if (!record) {
        return SendFrame(conn, BuildError("unknown_job",
                                          "no job with id " +
                                              std::to_string(request->id)));
      }
      JobProgress progress;
      progress.id = record->id;
      progress.name = record->name;
      progress.kind = std::string(ToString(record->kind));
      progress.state = std::string(ToString(record->state));
      progress.queued_ms = record->queued_ms;
      progress.run_ms = record->run_ms;
      return SendFrame(conn, BuildProgress({progress},
                                          service_.queue_depth(), false));
    }
    case Verb::kResult: {
      const auto result = service_.Result(request->id);
      if (!result) {
        const bool known = service_.Query(request->id).has_value();
        return SendFrame(
            conn, BuildError(known ? "not_ready" : "unknown_job",
                             "job " + std::to_string(request->id) +
                                 (known ? " has not finished"
                                        : " is not in the registry or spool")));
      }
      return SendFrame(conn, *result);
    }
    case Verb::kCancel: {
      if (!service_.Cancel(request->id)) {
        return SendFrame(conn,
                         BuildError("not_cancellable",
                                    "job " + std::to_string(request->id) +
                                        " is unknown, already finished, or "
                                        "not preemptible"));
      }
      const auto record = service_.Query(request->id);
      JobProgress progress;
      progress.id = request->id;
      if (record) {
        progress.name = record->name;
        progress.kind = std::string(ToString(record->kind));
        progress.state = std::string(ToString(record->state));
        progress.queued_ms = record->queued_ms;
        progress.run_ms = record->run_ms;
      }
      return SendFrame(conn, BuildProgress({progress},
                                          service_.queue_depth(), false));
    }
    case Verb::kPing:
      return SendFrame(conn, BuildPong());
    case Verb::kStats:
      return SendFrame(conn,
                       BuildStats(service_.queue_depth(), service_.accepted(),
                                  service_.rejected(), service_.completed(),
                                  service_.shed(), service_.cancelled()));
  }
  return false;
}

void Server::PushResult(const JobRecord& record) {
  std::shared_ptr<Connection> target;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& conn : connections_) {
      if (conn->jobs.count(record.id) != 0) {
        target = conn;
        break;
      }
    }
  }
  if (target && !record.result_json.empty()) {
    SendFrame(*target, record.result_json);
  }
}

void Server::ProgressTicker() {
  while (!shutdown_.load()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.progress_ms));
    if (shutdown_.load()) break;
    const std::vector<JobRecord> records = service_.Snapshot();
    std::vector<JobProgress> jobs;
    jobs.reserve(records.size());
    for (const JobRecord& record : records) {
      if (record.state != JobState::kQueued &&
          record.state != JobState::kRunning) {
        continue;  // Finished jobs already got their result frame.
      }
      JobProgress progress;
      progress.id = record.id;
      progress.name = record.name;
      progress.kind = std::string(ToString(record.kind));
      progress.state = std::string(ToString(record.state));
      progress.queued_ms = record.queued_ms;
      progress.run_ms = record.run_ms;
      jobs.push_back(std::move(progress));
    }
    const std::string frame =
        BuildProgress(jobs, service_.queue_depth(), true);
    std::vector<std::shared_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conns = connections_;
    }
    for (const auto& conn : conns) SendFrame(*conn, frame);
  }
}

int ConnectUnix(const std::string& path, std::string& error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    error = "unix socket path is too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = "connect " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

int ConnectTcp(int port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = "connect 127.0.0.1:" + std::to_string(port) + ": " +
            std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace retest::core::server
