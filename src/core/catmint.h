// Catmint: the RDMA library OS.
//
// The RDMA NIC already provides a reliable transport (Table 1, middle column), but —
// as §2 stresses — not buffer management or flow control. Catmint supplies exactly
// those:
//   - its memory manager is attached to the NIC, so EVERY application buffer is
//     transparently registered (§4.5) and applications never call ibv_reg_mr;
//   - each connection pre-posts a pool of receive buffers and re-posts one on every
//     pop, so the receiver-not-ready failures of raw verbs cannot happen under the
//     configured element-size/queue-depth contract;
//   - RDMA messages already have boundaries, so a queue element maps 1:1 onto a SEND —
//     the queue abstraction needs no framing at all here, the cleanest evidence that
//     I/O queues are "general enough to apply to a wide range of accelerators" (§4.2).
//
// Applications that push buffers not allocated from the libOS (e.g. literals) are
// transparently bounced through a registered staging buffer — at copy cost, which the
// C4 bench makes visible. Allocate from sgaalloc to stay zero-copy.

#ifndef SRC_CORE_CATMINT_H_
#define SRC_CORE_CATMINT_H_

#include <memory>
#include <string>

#include "src/common/fifo.h"
#include "src/core/libos.h"
#include "src/hw/rdma.h"

namespace demi {

struct CatmintConfig {
  std::string local_addr = "rdma-host";  // rendezvous namespace for bind/listen
  std::size_t recv_buffers = 64;         // per-connection pre-posted receives
  std::size_t max_element_bytes = 16384; // receive buffer size == max element size
};

class CatmintLibOS final : public LibOS {
 public:
  CatmintLibOS(HostCpu* host, RdmaNic* nic, CatmintConfig config = CatmintConfig{});

  std::string name() const override { return "catmint"; }
  RdmaNic& nic() { return *nic_; }
  const CatmintConfig& config() const { return config_; }

 protected:
  Result<std::unique_ptr<IoQueue>> NewSocketQueue() override;

 private:
  RdmaNic* nic_;
  CatmintConfig config_;
};

class CatmintQueue final : public IoQueue {
 public:
  CatmintQueue(CatmintLibOS* libos, std::shared_ptr<RdmaQp> qp);

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;

  Status Bind(std::uint16_t port) override;
  Status Listen() override;
  Result<std::unique_ptr<IoQueue>> TryAccept() override;
  Status StartConnect(Endpoint remote) override;
  Status ConnectStatus() override;
  Status Close() override;

 private:
  std::string RendezvousAddr(std::uint16_t port) const;
  void ProvisionRecvBuffers();
  Status PostOneRecv();

  CatmintLibOS* libos_;
  std::shared_ptr<RdmaQp> qp_;  // null until connect/accept
  std::uint16_t bound_port_ = 0;
  std::string listen_addr_;
  bool listening_ = false;
  bool provisioned_ = false;
  bool closed_ = false;
  std::uint64_t next_recv_wr_ = 1;
  Fifo<std::pair<QToken, SgArray>> queued_pushes_;  // waiting for send-queue room
  Fifo<QToken> pending_pops_;
  Fifo<SgArray> received_;  // completed messages not yet claimed by a pop
};

}  // namespace demi

#endif  // SRC_CORE_CATMINT_H_
