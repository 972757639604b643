// Server and client actors for the experiments: echo and KV in three architectural
// styles —
//   Demi*:  Demikernel queues (any libOS: Catnap/Catnip/Catmint),
//   Posix*: legacy-kernel sockets + epoll (the Figure 1 left-side baseline),
//   Mtcp*:  user-level stack that keeps the POSIX API (the §6 comparator).
// DemiServer, DemiClient and PosixServer are written once: echo and KV differ only
// in the per-app step they are given (EchoReply/KvReplies, PosixEcho/PosixKv).
//
// Actors are simulation Pollers: they run "inside" the simulated hosts and never call
// blocking waits; benches drive them with Simulation::RunUntil. Clients are closed
// loops recording per-request latency in simulated time; they usually live on
// non-clock-charging hosts so only server+network time is measured.

#ifndef SRC_APPS_ACTORS_H_
#define SRC_APPS_ACTORS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/kv.h"
#include "src/apps/resp.h"
#include "src/apps/workload.h"
#include "src/baseline/mtcp.h"
#include "src/common/histogram.h"
#include "src/core/libos.h"
#include "src/kernel/kernel.h"

namespace demi {

// --- Demikernel actors: one queue loop for every app and every libOS ---

// Figure 3's server loop: accept, pop a request element, turn it into a reply element,
// push it, re-arm the pop. Only `handler`, the per-app step, differs between apps.
class DemiServer final : public Poller {
 public:
  // Builds the reply element for one popped request element.
  using Handler = std::function<SgArray(const SgArray& request)>;

  DemiServer(LibOS* libos, std::uint16_t port, Handler handler);
  ~DemiServer() override;
  DemiServer(const DemiServer&) = delete;  // registered with the simulation by address
  DemiServer& operator=(const DemiServer&) = delete;
  bool Poll() override;
  // Requests whose reply was handed to Push.
  std::uint64_t served() const { return served_; }
  // Open connections; closed ones leave the table.
  std::size_t connections() const { return conns_.size(); }

 private:
  struct Conn {
    QDesc qd;
    QToken pop = kInvalidQToken;
    QToken push = kInvalidQToken;
    bool dead = false;
  };
  LibOS* libos_;
  Handler handler_;
  QDesc listen_qd_ = kInvalidQDesc;
  QToken accept_token_ = kInvalidQToken;
  std::vector<Conn> conns_;
  std::uint64_t served_ = 0;
};

// Figure 3's closed-loop client: connect, then push one request element, pop its
// reply and record the round trip, `target_requests` times.
class DemiClient final : public Poller {
 public:
  using NextRequest = std::function<SgArray()>;
  // Whether a popped reply is acceptable; an unacceptable one fails the client.
  using ReplyOk = std::function<bool(const SgArray& reply)>;

  DemiClient(LibOS* libos, Endpoint server, std::uint64_t target_requests,
             NextRequest next_request, ReplyOk reply_ok);
  ~DemiClient() override;
  DemiClient(const DemiClient&) = delete;  // registered with the simulation by address
  DemiClient& operator=(const DemiClient&) = delete;
  bool Poll() override;

  bool done() const { return state_ == State::kDone; }
  bool failed() const { return failed_; }
  std::uint64_t completed() const { return completed_; }
  Histogram& latency() { return latency_; }

 private:
  enum class State { kConnecting, kSend, kWaitPush, kWaitPop, kDone };
  LibOS* libos_;
  Endpoint server_;
  std::uint64_t target_;
  NextRequest next_request_;
  ReplyOk reply_ok_;
  QDesc qd_ = kInvalidQDesc;
  QToken token_ = kInvalidQToken;
  State state_ = State::kConnecting;
  bool failed_ = false;
  TimeNs sent_at_ = 0;
  std::uint64_t completed_ = 0;
  Histogram latency_;
};

// Echo: the reply is the request element itself — zero copies, by construction. The
// client sends `msg_bytes` of filler and wants exactly that many bytes back.
SgArray EchoReply(const SgArray& request);
DemiClient::NextRequest EchoRequests(LibOS* libos, std::size_t msg_bytes);
DemiClient::ReplyOk EchoReplyOk(std::size_t msg_bytes);

// KV: each element is one RESP request, run on the caller-owned `engine`. A GET
// reply's value segment references the stored value (§4.5 zero copy). The client
// accepts any reply.
DemiServer::Handler KvReplies(KvEngine* engine);
DemiClient::NextRequest KvRequests(LibOS* libos, KvWorkload* workload);
bool AnyReply(const SgArray& reply);

// --- POSIX (legacy kernel) actors ---

// The epoll server loop: accept, read whatever arrived, turn it into reply bytes,
// write them back. Only the per-connection step, made by `handler`, differs.
class PosixServer final : public Poller {
 public:
  // One connection's step: takes every byte read in one readable event, appends
  // reply bytes to `outbox`, adds the requests it answered to `served`, and returns
  // false on a malformed stream (the server then closes the connection).
  using Step = std::function<bool(std::string_view received, std::string& outbox,
                                  std::uint64_t& served)>;
  // Makes each accepted connection's Step, with its own parse state.
  using Handler = std::function<Step()>;

  PosixServer(SimKernel* kernel, std::uint16_t port, Handler handler);
  ~PosixServer() override;
  PosixServer(const PosixServer&) = delete;  // registered with the simulation by address
  PosixServer& operator=(const PosixServer&) = delete;
  bool Poll() override;
  std::uint64_t served() const { return served_; }
  // Open connections; closed ones leave the table.
  std::size_t connections() const { return conns_.size(); }

 private:
  struct Conn {
    int fd;
    Step step;
    std::string outbox;
    bool dead = false;
  };
  SimKernel* kernel_;
  Handler handler_;
  int listen_fd_ = -1;
  int epfd_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t served_ = 0;
};

// Echo: every complete `msg_bytes` unit goes back as it came.
PosixServer::Handler PosixEcho(std::size_t msg_bytes);
// KV: RESP requests parsed off the stream and run on the caller-owned `engine`. Each
// scan that finds only a partial request is the §3.2 wasted work: it counts
// Counter::kStreamScans and charges partial_scan_ns on the engine's host.
PosixServer::Handler PosixKv(KvEngine* engine);

class PosixEchoClient final : public Poller {
 public:
  PosixEchoClient(SimKernel* kernel, Endpoint server, std::size_t msg_bytes,
                  std::uint64_t target_requests);
  bool Poll() override;
  ~PosixEchoClient() override;

  bool done() const { return state_ == State::kDone; }
  std::uint64_t completed() const { return completed_; }
  Histogram& latency() { return latency_; }

 private:
  enum class State { kConnecting, kSend, kReceive, kDone };
  SimKernel* kernel_;
  Endpoint server_;
  std::size_t msg_bytes_;
  std::uint64_t target_;
  int fd_ = -1;
  State state_ = State::kConnecting;
  TimeNs sent_at_ = 0;
  std::size_t received_ = 0;
  std::uint64_t completed_ = 0;
  Histogram latency_;
};

class PosixKvClient final : public Poller {
 public:
  // `fragments` > 1 splits each request into that many writes separated by
  // `fragment_gap_ns` — the trickling-sender scenario of experiment C2.
  PosixKvClient(SimKernel* kernel, Endpoint server, KvWorkload* workload,
                std::uint64_t target_requests, int fragments = 1,
                TimeNs fragment_gap_ns = 0);
  ~PosixKvClient() override;
  bool Poll() override;

  bool done() const { return state_ == State::kDone; }
  std::uint64_t completed() const { return completed_; }
  Histogram& latency() { return latency_; }

 private:
  enum class State { kConnecting, kSend, kReceive, kDone };
  SimKernel* kernel_;
  Endpoint server_;
  KvWorkload* workload_;
  std::uint64_t target_;
  int fragments_;
  TimeNs fragment_gap_ns_;
  int fd_ = -1;
  State state_ = State::kConnecting;
  std::string wire_;            // encoded request being sent
  std::size_t wire_sent_ = 0;
  TimeNs next_write_at_ = 0;
  TimeNs sent_at_ = 0;
  RespResponseParser responses_;
  std::uint64_t completed_ = 0;
  Histogram latency_;
};

// --- mTCP-style actors ---

class MtcpEchoServer final : public Poller {
 public:
  MtcpEchoServer(MtcpStack* stack, std::uint16_t port, std::size_t msg_bytes);
  ~MtcpEchoServer() override;
  bool Poll() override;
  std::uint64_t served() const { return served_; }

 private:
  struct Conn {
    int fd;
    std::string inbox;
    bool dead = false;
  };
  MtcpStack* stack_;
  std::size_t msg_bytes_;
  int listen_fd_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t served_ = 0;
};

}  // namespace demi

#endif  // SRC_APPS_ACTORS_H_
