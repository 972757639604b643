// The calibrated cost model behind every experiment.
//
// Each entry is a first-order cost (in simulated nanoseconds) for one architectural
// event: a syscall crossing, copying a byte, a PCIe doorbell, a wire traversal, and so
// on. The defaults are calibrated to the figures the paper itself cites:
//   - §3.2: copying a 4 KB page costs 1 µs on a 4 GHz CPU  -> copy_ns_per_byte = 1000/4096
//   - §3.2: Redis spends ~2 µs of CPU per GET              -> kv_request_cpu_ns = 2000
//   - §1 [5,31,51]: kernel adds significant per-I/O cost   -> syscall + kernel stack costs
// and to public measurements of the era's hardware (PCIe round trip ~1 µs, intra-rack
// wire+switch ~1 µs, ibv_reg_mr tens of µs for large regions).
//
// Every bench prints the cost model it ran with, so paper-vs-measured comparisons in
// EXPERIMENTS.md are reproducible and auditable.

#ifndef SRC_SIM_COST_MODEL_H_
#define SRC_SIM_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "src/sim/time.h"

namespace demi {

struct CostModel {
  // --- CPU ---
  double cpu_ghz = 4.0;  // documentation only; all costs below are already in ns.

  // Memory copy between buffers (kernel<->user or staging copies).
  // 1 µs per 4 KB page at 4 GHz (§3.2).
  double copy_ns_per_byte = 1000.0 / 4096.0;

  // --- Legacy kernel path (the "Traditional Architecture" of Figure 1) ---
  TimeNs syscall_ns = 500;          // user->kernel->user crossing (incl. KPTI-era cost).
  TimeNs kernel_socket_ns = 400;    // socket layer: fd lookup, locks, sk_buff bookkeeping.
  TimeNs kernel_stack_tx_ns = 900;  // kernel TCP/IP transmit-side protocol processing.
  TimeNs kernel_stack_rx_ns = 1100; // kernel receive: softirq, demux, TCP processing.
  TimeNs interrupt_ns = 2000;       // interrupt + schedule wakeup when a blocked task runs.
  TimeNs context_switch_ns = 1500;  // full context switch (used by blocking waits).
  TimeNs epoll_dispatch_ns = 250;   // per-event epoll bookkeeping inside the kernel.
  TimeNs fastcall_crossing_ns = 120;  // fastcall-style dedicated control-path entry:
                                      // no full register save, no KPTI switch — used by
                                      // accept/connect/lease/grant when the kernel's
                                      // fastcall table is enabled (off by default).

  // --- User-level (libOS) path ---
  TimeNs libos_call_ns = 30;        // Demikernel "syscall": function call + qtable lookup.
  TimeNs user_stack_tx_ns = 250;    // user-level TCP/IP transmit processing per segment.
  TimeNs user_stack_rx_ns = 300;    // user-level TCP/IP receive processing per segment.
  TimeNs mtcp_batch_delay_ns = 8000;  // mTCP-style stack: deferred batched processing
                                      // between app and stack contexts (§6: its latency
                                      // exceeded the kernel's).

  // --- PCIe / device interaction ---
  TimeNs pcie_doorbell_ns = 150;    // posted MMIO write to ring a doorbell.
  TimeNs pcie_dma_ns = 450;         // device DMA fetch/deposit of one descriptor+payload
                                    // (one PCIe round trip).
  TimeNs pcie_dma_batch_descriptor_ns = 100;  // each additional descriptor in a burst:
                                              // the fetches pipeline behind the first
                                              // full round trip, so descriptor N
                                              // completes at dma + N*this.
  TimeNs nic_process_ns = 120;      // on-NIC per-packet work: parse, RSS hash, queue.

  // --- Cross-core (SMP) ---
  // Charged by the completion-stealing protocol (DESIGN.md §13): moving state
  // between cores is not free even without locks.
  TimeNs cacheline_transfer_ns = 60;  // one cache line migrating between L2s
                                      // (remote-read latency on a same-socket mesh).
  TimeNs ipi_wakeup_ns = 400;         // IPI-equivalent cross-core notification
                                      // (kick a remote core's pipeline).
  TimeNs steal_probe_ns = 40;         // one read of a contended line: a victim's
                                      // ready-ring head/tail (per victim whose
                                      // overload bit is set), or the pool's
                                      // overload word when non-empty or stored
                                      // to since the last read.

  // --- Network fabric ---
  TimeNs wire_latency_ns = 1000;    // propagation + one switch hop, intra-rack.
  double link_gbps = 40.0;          // serialization rate.

  // --- RDMA NIC (Table 1 "+OS features" column) ---
  TimeNs rdma_transport_ns = 250;   // NIC-implemented reliable transport per message.
  TimeNs mem_reg_base_ns = 1500;    // ibv_reg_mr fixed cost (syscall + NIC update)...
  TimeNs mem_reg_per_page_ns = 300; // ...plus per-4KB-page pinning cost.

  // --- Storage device (SPDK-style NVMe) ---
  TimeNs nvme_read_ns = 10000;      // flash read latency (fast NVMe, paper era).
  TimeNs nvme_write_ns = 8000;      // write into SLC buffer.
  double nvme_ns_per_byte = 0.3;    // ~3.2 GB/s transfer rate.
  TimeNs kernel_fs_op_ns = 2500;    // kernel VFS+ext4-style per-op overhead (journaling,
                                    // page-cache management), excluding copies/syscalls.
  TimeNs nvme_pushdown_resubmit_ns = 300;  // device-internal dependent-read resubmission:
                                           // re-arming the on-device SQ after a push-down
                                           // program step — no doorbell, no PCIe crossing.

  // --- Offload engine (Table 1 "+other features" column) ---
  double device_compute_factor = 2.5;  // on-device cores run app functions this much
                                       // slower than the host CPU (§3.3 trade-off).
  TimeNs offload_setup_ns = 50000;     // installing a filter/map program on the device.

  // --- Application ---
  TimeNs kv_request_cpu_ns = 2000;  // Redis-style per-request processing (§3.2).
  TimeNs partial_scan_ns = 500;     // inspecting a buffer that holds no complete
                                    // request — the wasted work of §3.2's pipe model.

  // Serialization delay for `bytes` on the wire.
  TimeNs WireSerializationNs(std::size_t bytes) const {
    return static_cast<TimeNs>(static_cast<double>(bytes) * 8.0 / link_gbps);
  }

  // CPU cost of copying `bytes`.
  TimeNs CopyNs(std::size_t bytes) const {
    return static_cast<TimeNs>(static_cast<double>(bytes) * copy_ns_per_byte);
  }

  // Cost of registering a memory region of `bytes` with a device.
  TimeNs MemRegNs(std::size_t bytes) const {
    const std::size_t pages = (bytes + 4095) / 4096;
    return mem_reg_base_ns + static_cast<TimeNs>(pages) * mem_reg_per_page_ns;
  }

  // NVMe device service time for an op moving `bytes`.
  TimeNs NvmeNs(bool is_write, std::size_t bytes) const {
    return (is_write ? nvme_write_ns : nvme_read_ns) +
           static_cast<TimeNs>(static_cast<double>(bytes) * nvme_ns_per_byte);
  }

  // Multi-line human-readable dump (printed by every bench).
  std::string Describe() const;
};

}  // namespace demi

#endif  // SRC_SIM_COST_MODEL_H_
