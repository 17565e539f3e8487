// The sls command-line verbs (paper Table 2) and checkpoint migration
// (sls send / sls recv).
#ifndef SRC_CORE_CLI_H_
#define SRC_CORE_CLI_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/sls.h"

namespace aurora {

// Serialized checkpoint stream: manifest plus the memory-object contents,
// suitable for piping to a file or a remote host.
struct CheckpointStream {
  std::vector<uint8_t> bytes;
};

// Receiver-side state for continuous migration: the memory objects built by
// the previous stream, keyed by source OID, so incremental streams ship
// only the blocks that changed since the last shipped epoch.
struct MigrationSession {
  uint64_t last_epoch = 0;
  std::map<uint64_t, std::shared_ptr<VmObject>> source_objects;
};

class SlsCli {
 public:
  explicit SlsCli(Sls* sls) : sls_(sls) {}

  // sls attach: attaches `proc` to the named group (created on demand).
  [[nodiscard]] Result<ConsistencyGroup*> Attach(const std::string& group_name, Process* proc);
  // sls detach: makes the process ephemeral — still quiesced with its
  // group, no longer persisted (Table 2).
  [[nodiscard]] Status Detach(Process* proc);
  // sls checkpoint: manual named checkpoint. A non-empty `backend_name`
  // (`sls ckpt --backend=`) routes the group's checkpoints through that
  // backend first (see SetBackend for when that is legal).
  [[nodiscard]] Result<CheckpointResult> Checkpoint(const std::string& group_name,
                                                    const std::string& name,
                                                    const std::string& backend_name = "");
  // sls restore. A non-empty `backend_name` restores from that backend
  // instead of the local object store.
  [[nodiscard]] Result<RestoreResult> Restore(const std::string& group_name, uint64_t epoch = 0,
                                              RestoreMode mode = RestoreMode::kFull,
                                              const std::string& backend_name = "");
  // sls ckpt --backend=<name>: routes the group's future checkpoints through
  // the named backend (store / memory / replica). Legal only while the group
  // has no checkpoint state in flight.
  [[nodiscard]] Status SetBackend(const std::string& group_name, const std::string& backend_name);
  // sls ckpt --in-flight-epochs=<n>: epoch-overlap backpressure knob for
  // periodic checkpoints. 1 (default) = a new epoch never starts before the
  // previous flush is durable; 2 = one flush may still be in flight.
  [[nodiscard]] Status SetInFlightEpochs(const std::string& group_name, uint32_t limit);
  // sls ckpt --flush-lanes=<n>: fans checkpoint flush / eager restore over n
  // cores, each driving its own device queue (machine-wide, all backends).
  // Returns the applied value, clamped to [1, ncpus].
  [[nodiscard]] Result<int> SetFlushLanes(int lanes);
  // sls ps: human-readable listing of groups and their checkpoints.
  std::vector<std::string> Ps();
  // sls stat: human-readable snapshot of the machine-wide metrics registry —
  // counters, gauges, simulated-time histograms — plus the phase spans of the
  // most recent checkpoint or restore.
  std::vector<std::string> Stat();
  // sls suspend / sls resume.
  [[nodiscard]] Result<CheckpointResult> Suspend(const std::string& group_name);
  [[nodiscard]] Result<RestoreResult> Resume(const std::string& group_name);
  // sls dump: ELF coredump of one process in the group.
  [[nodiscard]] Result<std::vector<uint8_t>> Dump(const std::string& group_name,
                                                  uint64_t local_pid);
  // Reclaims history: drops checkpoints older than `epoch` and frees their
  // exclusive blocks (execution history is bounded only by storage).
  [[nodiscard]] Status Prune(uint64_t epoch);
  // sls scrub: walks every committed epoch's metadata and data blocks,
  // verifying the per-extent CRCs against the media. One verdict line per
  // epoch plus one line per bad block, then a machine total.
  [[nodiscard]] Result<std::vector<std::string>> Scrub();
  // sls gc: segment-log space report — segment-state census, live/dead
  // bytes, sealed-segment utilization histogram, gc.* counters, and each
  // group's retention policy. With `run`, drives one compaction pass first
  // and reports what it did.
  [[nodiscard]] Result<std::vector<std::string>> Gc(bool run = false);

  // sls promote: partition-tolerant failover onto the named replica
  // backend's standby — drains the link so an in-flight epoch finishes
  // streaming (validated speculation), rolls torn epochs back to the last
  // durable one, and restores the group from the standby's warm images
  // (O(dirty-delta), not O(image)). `force` overrides the heartbeat lease
  // (the split-brain guard); without it a fresh lease fails typed kBusy.
  [[nodiscard]] Result<RestoreResult> Promote(const std::string& group_name,
                                              const std::string& backend_name,
                                              bool force = false);
  // sls demote: returns a promoted standby to ingest duty, rebuilding its
  // warm images from the applied table.
  [[nodiscard]] Status Demote(const std::string& backend_name);
  // sls repl: replication status — role, watermarks, lag, link state, and
  // every repl.* counter.
  [[nodiscard]] Result<std::vector<std::string>> Repl(const std::string& backend_name);

  // sls send: serializes the group's newest durable checkpoint (manifest +
  // memory) into a stream, charging network transfer time. With
  // `since_epoch` nonzero, only blocks written after that epoch are shipped
  // (pre-copy rounds / continuous high availability).
  [[nodiscard]] Result<CheckpointStream> Send(const std::string& group_name, uint64_t epoch = 0,
                                              uint64_t since_epoch = 0);
  // sls recv: instantiates a received stream on *this* machine's SLS. Store
  // OIDs are re-assigned locally at the first checkpoint after arrival.
  // With a session, incremental streams compose onto the previously
  // received image and the session is updated for the next round.
  [[nodiscard]] Result<RestoreResult> Recv(const CheckpointStream& stream,
                                           MigrationSession* session = nullptr);

 private:
  Sls* sls_;
};

}  // namespace aurora

#endif  // SRC_CORE_CLI_H_
