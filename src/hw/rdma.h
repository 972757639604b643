// RdmaNic: an RDMA NIC in the paper's "+OS features" category (Table 1).
//
// The device implements a reliable transport (verbs-style SEND/RECV plus one-sided
// READ/WRITE) but — exactly as the paper describes (§2) — it does NOT implement buffer
// management or flow control: applications (or a libOS, §4) must register memory before
// using it for I/O and receivers must post enough buffers of the right size, or
// communication fails with receiver-not-ready errors.
//
// Transport runs over a lossless path (RoCE deployments use PFC-lossless fabrics), so
// the interesting failure modes are the ones the paper calls out: missing registrations,
// missing receive buffers, and undersized receive buffers.

#ifndef SRC_HW_RDMA_H_
#define SRC_HW_RDMA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/fifo.h"
#include "src/common/result.h"
#include "src/hw/device.h"
#include "src/hw/tenant.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulation.h"

namespace demi {

class RdmaNic;
class RdmaQp;

// Remote-access key for a registered memory region.
using RKey = std::uint32_t;

struct RdmaConfig {
  std::size_t max_send_wr = 128;   // outstanding send-queue work requests
  std::size_t max_recv_wr = 256;   // postable receive buffers
  std::size_t cq_depth = 512;
  int rnr_retry_limit = 6;         // receiver-not-ready retries before failing
  TimeNs rnr_retry_delay_ns = 20 * kMicrosecond;
};

struct WorkCompletion {
  enum class Op { kSend, kRecv, kRead, kWrite };
  std::uint64_t wr_id = 0;
  Op op = Op::kSend;
  Status status;
  std::size_t byte_len = 0;
  Buffer payload;  // kRecv: the filled receive buffer (sliced to byte_len)
};

// A reliable-connected queue pair.
class RdmaQp {
 public:
  bool connected() const { return state_ == State::kEstablished; }
  bool failed() const { return state_ == State::kError; }

  // Why this QP is in the error state. Defaults to the generic kConnectionReset cause;
  // injected faults record a typed cause (kQpError / kDeviceFailed) instead so the
  // libOS can surface it through wait().
  const Status& error_status() const { return error_status_; }

  // Posts a receive buffer. The buffer's backing storage must be registered.
  Status PostRecv(std::uint64_t wr_id, Buffer buffer);

  // Sends the concatenation of `segments` as one message (the device gathers).
  // Every segment's backing storage must be registered.
  Status PostSend(std::uint64_t wr_id, std::vector<Buffer> segments);

  // One-sided read of [offset, offset+dest.size()) from the peer region `rkey` into
  // `dest`. The peer CPU is not involved.
  Status PostRead(std::uint64_t wr_id, Buffer dest, RKey rkey, std::size_t offset);

  // One-sided write of `src` into the peer region `rkey` at `offset`.
  Status PostWrite(std::uint64_t wr_id, Buffer src, RKey rkey, std::size_t offset);

  // Drains up to `max` completions.
  std::vector<WorkCompletion> PollCq(std::size_t max = 16);

  std::size_t posted_recvs() const { return recv_queue_.size(); }
  RdmaNic& nic() { return *nic_; }
  TenantId tenant() const { return tenant_; }

 private:
  friend class RdmaNic;
  enum class State { kConnecting, kEstablished, kError };

  struct SendWr {
    std::uint64_t wr_id;
    Buffer message;
    int rnr_retries_left;
  };

  explicit RdmaQp(RdmaNic* nic) : nic_(nic) {}

  void CompleteLocal(WorkCompletion wc);
  void DeliverMessage(std::shared_ptr<RdmaQp> self, SendWr wr,
                      std::shared_ptr<RdmaQp> sender);
  // Completes an in-flight send exactly once (no-op if Fail() already flushed it).
  void CompleteSend(std::uint64_t wr_id, Status status, std::size_t byte_len);
  // Forces the QP to the error state with a typed cause: flushes every posted recv WQE
  // and every in-flight send to the CQ with `cause` and drops the recv buffers, so no
  // waiter hangs and no buffer stays device-held (§4.4/§4.5).
  void Fail(Status cause);

  RdmaNic* nic_;
  State state_ = State::kConnecting;
  TenantId tenant_ = kNoTenant;  // set by Connect(addr, tenant); quota released on Fail
  Status error_status_ = Status(ErrorCode::kConnectionReset, "qp in error state");
  std::weak_ptr<RdmaQp> peer_;
  Fifo<std::pair<std::uint64_t, Buffer>> recv_queue_;
  Fifo<WorkCompletion> cq_;
  std::unordered_set<std::uint64_t> inflight_sends_;
  std::size_t outstanding_sends_ = 0;
};

// Connection rendezvous between RDMA NICs (the rdmacm analogue). One per Simulation.
class RdmaCm {
 public:
  explicit RdmaCm(Simulation* sim) : sim_(sim) {}

  Simulation& sim() { return *sim_; }

 private:
  friend class RdmaNic;
  struct ListenerState {
    RdmaNic* nic;
    Fifo<std::shared_ptr<RdmaQp>> accept_queue;  // server-side QPs, connecting
  };
  Simulation* sim_;
  std::unordered_map<std::string, ListenerState> listeners_;
};

class RdmaNic {
 public:
  RdmaNic(HostCpu* host, RdmaCm* cm, RdmaConfig config = RdmaConfig{});

  DeviceCaps caps() const;
  HostCpu& host() { return *host_; }
  const RdmaConfig& config() const { return config_; }

  // --- Memory registration (the constraint Demikernel hides from applications) ---

  // Registers a storage region; charges the (expensive) registration cost and pins the
  // region. Returns the rkey remote peers can use for one-sided access.
  Result<RKey> RegisterMemory(std::shared_ptr<BufferStorage> storage);
  // Tenant-scoped form: charges the registration against the tenant's quota and adds
  // the region to its capability set, so tenant QPs may reference it in descriptors.
  Result<RKey> RegisterMemory(TenantId tenant, std::shared_ptr<BufferStorage> storage);
  // Refuses (kWouldBlock) while device DMA descriptors still reference the region:
  // posted recv buffers and in-flight one-sided reads/writes pin their roots, closing
  // the deregister-while-DMA-pending use-after-free window.
  Status DeregisterMemory(RKey rkey);
  bool IsRegistered(const Buffer& buffer) const;
  std::uint64_t pinned_bytes() const { return pinned_bytes_; }
  std::size_t inflight_dma_regions() const { return inflight_dma_.size(); }

  // --- Connection management ---

  // Starts listening at `addr` (an opaque rendezvous name, e.g. "10.0.0.2:7000").
  Status Listen(const std::string& addr);
  // Accepts one pending connection, if any. The returned QP is immediately usable.
  std::shared_ptr<RdmaQp> Accept(const std::string& addr);
  // Initiates a connection; the QP becomes connected() after the CM handshake
  // (~1 RTT of simulated time) or failed() if nobody listens there.
  std::shared_ptr<RdmaQp> Connect(const std::string& addr);
  // Tenant-scoped form: the QP counts against the tenant's QP quota (released when
  // the QP fails) and its posts pass the tenant's doorbell bucket and capability
  // checks. Returns nullptr when the quota denies the QP — churn defense.
  std::shared_ptr<RdmaQp> Connect(const std::string& addr, TenantId tenant);

  // --- Multi-tenant sharing (same registry the SimNic uses) ---
  void AttachTenantRegistry(TenantRegistry* registry) { tenants_ = registry; }
  TenantRegistry* tenant_registry() { return tenants_; }

  // --- Fault injection ---

  // Registers this NIC with the injector. A kQpError or kDeviceFailed fault forces
  // every QP on the NIC into the error state with a typed cause; kRegExhausted makes
  // RegisterMemory fail until the run ends.
  FaultDeviceId AttachFaultInjector(FaultInjector* faults);
  // Transitions every QP to the error state, flushing posted WQEs with `cause`.
  void FailAllQps(Status cause);
  FaultDeviceId fault_device() const { return fault_dev_; }

 private:
  friend class RdmaQp;

  void OnFault(const FaultEvent& event);
  // In-flight DMA pinning: a region root with a nonzero pin count cannot be
  // deregistered (DeregisterMemory returns kWouldBlock).
  void PinDma(const BufferStorage* root);
  void UnpinDma(const BufferStorage* root);

  HostCpu* host_;
  RdmaCm* cm_;
  RdmaConfig config_;
  FaultInjector* faults_ = nullptr;
  FaultDeviceId fault_dev_ = kInvalidFaultDevice;
  TenantRegistry* tenants_ = nullptr;
  RKey next_rkey_ = 1;
  std::unordered_map<RKey, std::shared_ptr<BufferStorage>> regions_;
  std::unordered_set<const BufferStorage*> registered_;
  std::unordered_map<RKey, TenantId> region_tenant_;  // tenant-scoped registrations
  std::unordered_map<const BufferStorage*, std::uint32_t> inflight_dma_;
  std::uint64_t pinned_bytes_ = 0;
  std::vector<std::shared_ptr<RdmaQp>> qps_;
};

}  // namespace demi

#endif  // SRC_HW_RDMA_H_
