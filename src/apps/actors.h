// Server and client actors for the experiments: echo and KV, each in three
// architectural styles —
//   Demi*:  Demikernel queues (any libOS: Catnap/Catnip/Catmint),
//   Posix*: legacy-kernel sockets + epoll (the Figure 1 left-side baseline),
//   Mtcp*:  user-level stack that keeps the POSIX API (the §6 comparator).
//
// Actors are simulation Pollers: they run "inside" the simulated hosts and never call
// blocking waits; benches drive them with Simulation::RunUntil. Clients are closed
// loops recording per-request latency in simulated time; they usually live on
// non-clock-charging hosts so only server+network time is measured.

#ifndef SRC_APPS_ACTORS_H_
#define SRC_APPS_ACTORS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/kv.h"
#include "src/apps/resp.h"
#include "src/apps/workload.h"
#include "src/baseline/mtcp.h"
#include "src/common/histogram.h"
#include "src/core/libos.h"
#include "src/kernel/kernel.h"

namespace demi {

// --- Demikernel actors ---

class DemiEchoServer final : public Poller {
 public:
  DemiEchoServer(LibOS* libos, std::uint16_t port);
  ~DemiEchoServer() override;
  bool Poll() override;
  std::uint64_t echoed() const { return echoed_; }

 private:
  struct Conn {
    QDesc qd;
    QToken pop = kInvalidQToken;
    QToken push = kInvalidQToken;
    bool dead = false;
  };
  LibOS* libos_;
  QDesc listen_qd_ = kInvalidQDesc;
  QToken accept_token_ = kInvalidQToken;
  std::vector<Conn> conns_;
  std::uint64_t echoed_ = 0;
};

class DemiEchoClient final : public Poller {
 public:
  DemiEchoClient(LibOS* libos, Endpoint server, std::size_t msg_bytes,
                 std::uint64_t target_requests);
  ~DemiEchoClient() override;
  bool Poll() override;

  bool done() const { return state_ == State::kDone; }
  bool failed() const { return failed_; }
  std::uint64_t completed() const { return completed_; }
  Histogram& latency() { return latency_; }

 private:
  enum class State { kConnecting, kSend, kWaitPush, kWaitPop, kDone };
  LibOS* libos_;
  Endpoint server_;
  std::size_t msg_bytes_;
  std::uint64_t target_;
  QDesc qd_ = kInvalidQDesc;
  QToken token_ = kInvalidQToken;
  State state_ = State::kConnecting;
  bool failed_ = false;
  TimeNs sent_at_ = 0;
  std::uint64_t completed_ = 0;
  Histogram latency_;
};

class DemiKvServer final : public Poller {
 public:
  DemiKvServer(LibOS* libos, std::uint16_t port);
  ~DemiKvServer() override;
  bool Poll() override;

  KvEngine& engine() { return engine_; }
  std::uint64_t requests() const { return requests_; }

 private:
  struct Conn {
    QDesc qd;
    QToken pop = kInvalidQToken;
    QToken push = kInvalidQToken;
    bool dead = false;
  };
  SgArray ReplySga(const KvReply& reply);

  LibOS* libos_;
  KvEngine engine_;
  QDesc listen_qd_ = kInvalidQDesc;
  QToken accept_token_ = kInvalidQToken;
  std::vector<Conn> conns_;
  std::uint64_t requests_ = 0;
};

class DemiKvClient final : public Poller {
 public:
  DemiKvClient(LibOS* libos, Endpoint server, KvWorkload* workload,
               std::uint64_t target_requests);
  ~DemiKvClient() override;
  bool Poll() override;

  bool done() const { return state_ == State::kDone; }
  bool failed() const { return failed_; }
  std::uint64_t completed() const { return completed_; }
  Histogram& latency() { return latency_; }

 private:
  enum class State { kConnecting, kSend, kWaitPush, kWaitPop, kDone };
  SgArray EncodeRequest(const RespCommand& cmd);

  LibOS* libos_;
  Endpoint server_;
  KvWorkload* workload_;
  std::uint64_t target_;
  QDesc qd_ = kInvalidQDesc;
  QToken token_ = kInvalidQToken;
  State state_ = State::kConnecting;
  bool failed_ = false;
  TimeNs sent_at_ = 0;
  std::uint64_t completed_ = 0;
  Histogram latency_;
};

// --- POSIX (legacy kernel) actors ---

class PosixEchoServer final : public Poller {
 public:
  PosixEchoServer(SimKernel* kernel, std::uint16_t port, std::size_t msg_bytes);
  ~PosixEchoServer() override;
  bool Poll() override;
  std::uint64_t echoed() const { return echoed_; }

 private:
  struct Conn {
    int fd;
    std::string inbox;
    std::string outbox;
    bool dead = false;
  };
  SimKernel* kernel_;
  std::size_t msg_bytes_;
  int listen_fd_ = -1;
  int epfd_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t echoed_ = 0;
};

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

struct PosixKvServerStats {
  std::uint64_t requests = 0;
  std::uint64_t incomplete_scans = 0;  // §3.2: wasted partial-request inspections
};

class PosixKvServer final : public Poller {
 public:
  PosixKvServer(SimKernel* kernel, std::uint16_t port);
  ~PosixKvServer() override;
  bool Poll() override;

  KvEngine& engine() { return engine_; }
  const PosixKvServerStats& stats() const { return stats_; }

 private:
  struct Conn {
    int fd;
    RespRequestParser parser;
    std::string outbox;
    bool dead = false;
  };
  SimKernel* kernel_;
  KvEngine engine_;
  int listen_fd_ = -1;
  int epfd_ = -1;
  std::vector<Conn> conns_;
  PosixKvServerStats stats_;
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
  std::uint64_t echoed() const { return echoed_; }

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
  std::uint64_t echoed_ = 0;
};

}  // namespace demi

#endif  // SRC_APPS_ACTORS_H_
