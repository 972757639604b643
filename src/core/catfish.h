// Catfish: the SPDK-style storage library OS.
//
// File queues over a raw NVMe-class device with a custom, accelerator-friendly log
// layout — the "accelerator-specific storage layout" future work of §5.3:
//   - push(file_qd, sga) appends one record ([len][crc32c][payload]) to the file's
//     log and completes when the device write completes (durability == completion);
//   - pop(file_qd) replays records in append order, fetching blocks from the device
//     when they are not memory-resident (e.g. after close/reopen);
//   - the atomic-unit guarantee holds on storage exactly as on the network: an sga
//     pushed as one element pops as one element, CRC-verified.
//
// The catalog (path -> extent) is an in-memory superblock owned by the libOS; record
// data itself lives in the simulated device and survives queue close/reopen. Each
// libOS serves a single application (§5.3: no UNIX file system needed), so there are
// no permissions, directories, or sharing.

#ifndef SRC_CORE_CATFISH_H_
#define SRC_CORE_CATFISH_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/fifo.h"
#include "src/core/libos.h"
#include "src/core/recovery.h"
#include "src/hw/block_device.h"

namespace demi {

struct CatfishConfig {
  std::uint64_t extent_blocks = 4096;  // 16 MiB per file at 4 KiB blocks
  // When enabled, transient device errors (timeouts, media errors) are retried with
  // the policy's backoff/deadline before surfacing kRetryExhausted to the caller.
  RecoveryConfig recovery;
};

class CatfishLibOS final : public LibOS {
 public:
  CatfishLibOS(HostCpu* host, BlockDevice* bdev, CatfishConfig config = CatfishConfig{});

  std::string name() const override { return "catfish"; }
  BlockDevice& bdev() { return *bdev_; }

  struct FileMeta {
    std::uint64_t base_lba = 0;
    std::uint64_t extent_blocks = 0;
    std::uint64_t used_bytes = 0;  // bytes of log written so far
    std::uint64_t records = 0;
  };

  // Completion routing: the device CQ is shared; each command's continuation runs
  // when its completion arrives (guarded against the owning queue being gone).
  // Push-down chains deliver their payload and step count through the completion.
  using CompletionFn = std::function<void(const BlockCompletion&)>;
  std::uint64_t SubmitWrite(std::uint64_t lba, Buffer data, CompletionFn done);
  std::uint64_t SubmitRead(std::uint64_t lba, Buffer dest, CompletionFn done);
  // Submits a device-side push-down chain rooted at absolute `lba`. When recovery is
  // enabled, a transient mid-chain fault retries the WHOLE chain from the root — a
  // device-internal step is never retried in isolation, so retry semantics match the
  // read/write path exactly.
  std::uint64_t SubmitPushdown(std::uint64_t lba, PushdownProgramId program, Buffer arg,
                               CompletionFn done);
  std::size_t inflight_commands() const { return callbacks_.size(); }

  // --- push-down install/invoke API (§4.3 offload surface, DESIGN.md §14) ---

  // Extent geometry for `path` (base LBA, blocks); kNotFound when absent. Lets
  // workloads that lay out raw blocks inside a file's extent (e.g. the block index)
  // compute absolute device LBAs for device-side child pointers.
  Result<FileMeta> StatFile(const std::string& path) const;

  // Installs `prog` on the block device. kPushdownUnsupported when the device has no
  // program engine.
  Result<PushdownProgramId> InstallPushdownProgram(const PushdownProgram& prog);
  // Starts a push-down lookup on file queue `qd`, rooted at file-relative block
  // `root_block`; the returned qtoken completes (pop-like) with the program's final
  // value. Redeem with Wait/TakeResult like any other operation.
  Result<QToken> PushdownRead(QDesc qd, PushdownProgramId program,
                              std::uint64_t root_block, const SgArray& arg);

 protected:
  Result<std::unique_ptr<IoQueue>> NewSocketQueue() override {
    return Status(ErrorCode::kUnsupported, "catfish has no network device");
  }
  Result<std::unique_ptr<IoQueue>> NewFileQueue(const std::string& path,
                                                bool create) override;
  bool PollDevice() override;

 private:
  friend class CatfishFileQueue;

  enum class IoKind : std::uint8_t { kRead, kWrite, kPushdown };

  // One device command as the retry layer sees it: enough to resubmit from scratch.
  // For kPushdown, `buf` carries the program argument and the retry resubmits the
  // whole chain from the root LBA.
  struct IoCmd {
    IoKind kind = IoKind::kRead;
    std::uint64_t lba = 0;
    Buffer buf;
    PushdownProgramId program = kInvalidPushdownProgram;
  };

  // Common submit path: wraps `done` with the transient-error retry layer (when
  // recovery is enabled) before handing the command to the device.
  std::uint64_t SubmitIo(IoCmd cmd, CompletionFn done, int attempt, TimeNs started_at);
  // Hands the command to the device under a fresh command id; defers on a full SQ.
  Status SubmitToDevice(std::uint64_t cmd_id, const IoCmd& cmd);

  BlockDevice* bdev_;
  CatfishConfig config_;
  Rng retry_rng_;
  std::shared_ptr<bool> alive_;  // guards scheduled resubmissions
  std::unordered_map<std::string, FileMeta> catalog_;
  std::uint64_t next_free_lba_ = 1;  // LBA 0 reserved
  std::uint64_t next_cmd_ = 1;
  std::unordered_map<std::uint64_t, CompletionFn> callbacks_;
  // Commands the device rejected (SQ full) awaiting resubmission.
  struct Deferred {
    IoCmd cmd;
    CompletionFn done;
  };
  // std::deque, not Fifo: regrowing a ring for this thousands-deep backlog holds two arrays.
  std::deque<Deferred> deferred_;
};

class CatfishFileQueue final : public IoQueue {
 public:
  static constexpr std::size_t kRecordHeader = 8;  // u32 len + u32 crc32c

  CatfishFileQueue(CatfishLibOS* libos, CatfishLibOS::FileMeta* meta);
  ~CatfishFileQueue() override;

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;
  // Fails every outstanding push/pop/push-down with kCancelled before closing — the
  // PR 1 invariant: no qtoken is ever left pending.
  Status Close() override;

  // --- push-down offload hooks (DESIGN.md §14) ---
  bool SupportsPushdownOffload() const override;
  Result<PushdownProgramId> InstallPushdownProgram(const PushdownProgram& prog) override;
  Status StartPushdown(QToken token, PushdownProgramId program, std::uint64_t root_block,
                       const SgArray& arg) override;

 private:
  static constexpr std::size_t kBlock = 4096;

  struct PendingPush {
    QToken token;
    std::size_t writes_outstanding = 0;
    Status status;
    bool submitted = false;
  };

  std::vector<std::byte>& CachedBlock(std::uint64_t index);
  bool BlockResident(std::uint64_t index) const;
  void FetchBlock(std::uint64_t index);
  // Copies `len` log bytes at `offset` into `out`; false if any block is cold
  // (fetches are started as a side effect).
  bool ReadLogBytes(std::uint64_t offset, std::size_t len, std::byte* out);
  void WriteBlockOut(std::uint64_t index, PendingPush* push);

  CatfishLibOS* libos_;
  CatfishLibOS::FileMeta* meta_;
  std::shared_ptr<bool> alive_;  // guards device-completion continuations
  bool closed_ = false;
  std::unordered_map<std::uint64_t, std::vector<std::byte>> block_cache_;
  std::unordered_map<std::uint64_t, bool> fetch_in_flight_;
  Fifo<std::unique_ptr<PendingPush>> pending_pushes_;
  Fifo<QToken> pending_pops_;
  // Push-down chains in flight on the device; their device completions park results
  // in `ready_pushdowns_` for Progress to deliver in completion order.
  std::vector<QToken> pending_pushdowns_;
  Fifo<std::pair<QToken, QResult>> ready_pushdowns_;
  std::uint64_t read_offset_ = 0;  // replay cursor
  // Sticky error from a failed block fetch (media error, device death). Progress
  // flushes pending pops with it — without this, ReadLogBytes would refetch the bad
  // block forever and the pop would never complete (§4.4).
  Status read_error_;
};

}  // namespace demi

#endif  // SRC_CORE_CATFISH_H_
