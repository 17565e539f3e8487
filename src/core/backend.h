// Pluggable checkpoint backends (paper section 4, Table 2).
//
// Aurora ships checkpoints to interchangeable destinations: the local COW
// object store, and a warm standby on another machine, fed continuously over
// the NIC — the one way a checkpoint crosses the network. The standby's
// RAM-resident image table is a destination in its own right for a group
// promoted onto it. (`sls send` / `sls recv` migration is not a backend; it
// shares only the wire format below.) The Sls checkpoint/restore engine
// talks to all of them through CheckpointBackend, so the pipeline stages —
// quiesce, serialize, shadow, resume, async flush, commit, release — are
// written once and the destination only decides where bytes land and what
// each transfer costs.
//
// Restores and the swap path are written once too: a backend is a page
// source (ReadPage for one page of an object at an epoch, StreamObject for a
// whole object) and CheckpointBackend builds the eager and lazy resolvers and
// installs demand pagers on top of it. Bytes that cross a machine boundary
// use one wire format, the "ASND" stream declared below.
//
// Durability timing model: WriteObjectPages/CommitEpoch stage their data
// synchronously (the simulation's state is updated immediately) but return
// the simulated time the bytes become durable, which may be in the future —
// the flush overlaps application execution exactly as the store path always
// has.
#ifndef SRC_CORE_BACKEND_H_
#define SRC_CORE_BACKEND_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/core/serialize.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"

namespace aurora {

// ReadPage's epoch for the backend's newest state: what the swap path pages
// evicted frames back from. Committed epochs are numbered from 1.
constexpr uint64_t kLiveEpoch = 0;

enum class CheckpointMode {
  kFull,        // serialize + shadow + flush to the backend + commit
  kMemoryOnly,  // serialize + shadow only; snapshot stays in memory
};

enum class RestoreMode {
  kFull,        // materialize all pages from the backend eagerly
  kLazy,        // restore OS state only; pages fault in on demand
  kFromMemory,  // rollback to the in-memory snapshot (no backend reads)
};

class CheckpointBackend {
 public:
  virtual ~CheckpointBackend() = default;

  virtual const std::string& name() const = 0;

  // Fans this backend's flush/restore work over `lanes` parallel lanes
  // (cores driving device queues, flusher threads, or NIC streams). Work
  // completion becomes the makespan over lanes instead of a serial sum;
  // 1 lane is the exact historical serial timeline. Reconfiguring is a
  // barrier: new lanes all start where the old schedule would have drained,
  // so no queued work is forgotten.
  virtual void SetFlushLanes(int lanes) { lanes_ = LaneSchedule(lanes, lanes_.Makespan()); }

  // --- Checkpoint destination ----------------------------------------------
  // Epoch the next commit will seal (matches ObjectStore::current_epoch()).
  virtual uint64_t current_epoch() const = 0;
  // Names a new memory-region object in this backend's namespace.
  [[nodiscard]] virtual Result<Oid> CreateMemoryObject(uint64_t size_hint) = 0;
  // The file system checkpointed with the application: its namespace table
  // rides every full checkpoint's manifest and its dirty data flushes with
  // the epoch (checkpoint consistency makes fsync a no-op). Null for
  // backends without files, whose manifests carry an empty table.
  virtual AuroraFs* files() { return nullptr; }
  // Ships every resident page of `obj` to the object named `oid`, returning
  // the simulated time the pages are durable at the destination. Adds the
  // pages and bytes shipped to *pages and *bytes.
  [[nodiscard]] virtual Result<SimTime> WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                         uint64_t* bytes) = 0;

  struct CommitInfo {
    uint64_t epoch = 0;     // epoch this checkpoint committed as
    Oid manifest_oid;       // invalid when `manifest` was empty
    SimTime durable_at = 0; // when the manifest + commit record are durable
  };
  // Seals the epoch: writes the manifest (skipped when empty, e.g. for
  // sls_memckpt region checkpoints) and commits. `replaces_manifest` is the
  // group's previous manifest object, dropped from the live table.
  [[nodiscard]] virtual Result<CommitInfo> CommitEpoch(const std::string& ckpt_name,
                                                       const std::vector<uint8_t>& manifest,
                                                       Oid replaces_manifest) = 0;

  // --- Restore source ------------------------------------------------------
  struct LoadedManifest {
    uint64_t epoch = 0;
    Oid oid;
    std::vector<uint8_t> blob;
  };
  // Finds and reads the manifest for `group_name` at `epoch` (0 = newest).
  [[nodiscard]] virtual Result<LoadedManifest> LoadManifest(const std::string& group_name,
                                                            uint64_t epoch) = 0;

  // --- Page source: the only per-backend restore code ----------------------
  // Reads page `pgidx` of `oid` as of `epoch` (kLiveEpoch: the newest state)
  // into `out`, one kPageSize page, charging one demand fault. False when
  // the backend holds no data for that page: the fault then zero-fills
  // without making the page resident.
  virtual bool ReadPage(uint64_t epoch, Oid oid, uint64_t pgidx, uint8_t* out) = 0;

  // State one eager restore shares across every object it streams.
  struct RestoreStream {
    LaneSchedule lanes;             // independent objects stream in parallel
    SimTime wire = 0;               // byte occupancy of a shared link
    std::shared_ptr<SimTime> done;  // completion the caller joins at the end
  };
  // Installs every page of `oid` at `epoch` into `obj` and folds the read
  // completion into *stream->done (the restore does not wait per object).
  [[nodiscard]] virtual Status StreamObject(uint64_t epoch, Oid oid, VmObject* obj,
                                            RestoreStream* stream) = 0;

  // --- Written once on top of the page source ------------------------------
  // The memory resolver RestoreOsState uses to materialize each region
  // object: kFull streams objects eagerly through StreamObject, the stream
  // starting at *stream_done; kLazy installs a ReadPage demand pager per
  // object. kFromMemory reads no backend and is rejected.
  [[nodiscard]] virtual Result<MemoryResolverFn> MakeResolver(
      uint64_t epoch, RestoreMode mode, std::shared_ptr<SimTime> stream_done);

  // Unified checkpoint/swap path (paper section 6): backs the fully-durable,
  // parentless object `base` with a kLiveEpoch pager so dropped frames
  // stream back on fault. Returns false when `base` cannot be safely paged
  // (no oid, mid-chain, ...) — the caller must then keep its frames
  // resident.
  bool InstallPager(VmObject* base);

 protected:
  // Flush lanes for backends that schedule their own flusher (memory
  // copies, NIC streams); eager restores fan out over the same width.
  LaneSchedule lanes_{1};
};

// -----------------------------------------------------------------------------
// StoreBackend: today's path — the local COW object store + AuroraFS.
// -----------------------------------------------------------------------------
class StoreBackend : public CheckpointBackend {
 public:
  StoreBackend(SimContext* sim, ObjectStore* store, AuroraFs* fs)
      : sim_(sim), store_(store), fs_(fs) {}

  const std::string& name() const override { return name_; }
  void SetFlushLanes(int lanes) override {
    store_->SetFlushLanes(static_cast<uint32_t>(lanes < 1 ? 1 : lanes));
  }
  uint64_t current_epoch() const override { return store_->current_epoch(); }
  [[nodiscard]] Result<Oid> CreateMemoryObject(uint64_t size_hint) override;
  AuroraFs* files() override { return fs_; }
  [[nodiscard]] Result<SimTime> WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                 uint64_t* bytes) override;
  [[nodiscard]] Result<CommitInfo> CommitEpoch(const std::string& ckpt_name,
                                               const std::vector<uint8_t>& manifest,
                                               Oid replaces_manifest) override;
  [[nodiscard]] Result<LoadedManifest> LoadManifest(const std::string& group_name,
                                                    uint64_t epoch) override;
  bool ReadPage(uint64_t epoch, Oid oid, uint64_t pgidx, uint8_t* out) override;
  [[nodiscard]] Status StreamObject(uint64_t epoch, Oid oid, VmObject* obj,
                                    RestoreStream* stream) override;

  ObjectStore* store() { return store_; }

 private:
  // Removes a manifest object created by a CommitEpoch that then failed, so
  // the live table never points at a manifest no committed epoch covers.
  void DropStrandedManifest(Oid oid);

  SimContext* sim_;
  ObjectStore* store_;
  AuroraFs* fs_;
  std::string name_ = "store";
};

// -----------------------------------------------------------------------------
// The checkpoint wire format, magic "ASND": every `sls send` / `sls recv`
// stream and the body of every replication chunk.
// Layout: u32 magic, u64 epoch, u64 since_epoch, bytes manifest, u64 nobjects,
// then per object: u64 oid, u64 size, u64 nblocks, nblocks x (u64 block,
// u8 tag, payload). Blocks are strictly ascending and below the object's
// size; nothing follows the last object. Tag 0 = raw block payload; tag 1 =
// dedup reference (u64 src_obj_index, u64 src_block) naming an earlier raw
// block of the same stream with identical contents — the receiver copies it
// locally instead of pulling the bytes across the wire.
// -----------------------------------------------------------------------------
struct StreamPayload {
  uint64_t epoch = 0;
  uint64_t since_epoch = 0;
  std::vector<uint8_t> manifest;
  struct ObjectData {
    uint64_t size = 0;
    std::map<uint64_t, std::vector<uint8_t>> blocks;  // block index -> raw block
  };
  // Source oid -> contents; iteration order is the wire order.
  std::vector<std::pair<uint64_t, ObjectData>> objects;
};

// Encodes with dedup references for repeated blocks.
std::vector<uint8_t> EncodeCheckpointStream(const StreamPayload& payload);
// Rejects anything the encoder cannot produce with kCorrupt.
[[nodiscard]] Result<StreamPayload> DecodeCheckpointStream(std::span<const uint8_t> bytes,
                                                           uint32_t block_size);

// One replication chunk: an ASND stream (raw kPageSize blocks, never dedup
// references — each chunk must validate on its own) behind a header with
// the fields replication needs and the stream lacks. A data chunk's stream
// holds one object's pages; a commit chunk's holds the manifest and no
// objects, and its nframes counts the epoch's chunks, itself included.
// Layout: u32 magic "ARPL", u64 attempt, u64 seq, u64 nframes (0 in data
// chunks), bytes ckpt_name, the stream, then u32 CRC32C of all before it.
struct ReplChunk {
  uint64_t attempt = 0;  // re-ship attempt after an aborted epoch
  uint64_t seq = 0;      // position within the epoch's stream, commit last
  uint64_t nframes = 0;
  std::string ckpt_name;
  StreamPayload stream;  // stream.epoch is the chunk's epoch

  bool commit() const { return nframes != 0; }
};

std::vector<uint8_t> EncodeReplChunk(const ReplChunk& chunk);
// Checks the CRC, then decodes the header and the stream.
[[nodiscard]] Result<ReplChunk> DecodeReplChunk(std::span<const uint8_t> bytes);
// The header and stream epoch only, without the CRC check: the standby
// slots chunks by these and validates them whole at apply time.
[[nodiscard]] Result<ReplChunk> PeekReplChunk(std::span<const uint8_t> bytes);

// -----------------------------------------------------------------------------
// Warm-standby live replication (DESIGN.md section 18).
//
// A second simulated machine continuously ingests the primary's epoch stream
// into a ready-to-run image table. The pieces:
//
//   ReplicaBackend  (primary side)  — a CheckpointBackend that ships every
//       epoch as CRC-sealed ASND chunks (ReplChunk, below) over a
//       ReplicaLink, plus the heartbeat that keeps the standby's lease fresh.
//   ReplicaLink     (the wire)      — at-least-once, possibly out-of-order
//       delivery of chunk bytes: chunks can be duplicated or reordered
//       (seeded), and the link can partition — cleanly or mid-epoch via a
//       frame fuse.
//   ReplicaStandby  (standby side)  — the replica state machine: slots
//       chunks into pending epochs, validates and decodes them with the
//       same decoder as `sls recv`, and applies complete epochs in order
//       into warm VmObject images; tracks applied/validated watermarks;
//       PrepareFailover() promotes on the last durable epoch with validated
//       speculation (see DESIGN.md section 18 for the state machine and
//       failover invariants).
// -----------------------------------------------------------------------------

// One encoded chunk on the replication wire. `arrival` is link metadata (when
// the bytes are through the wire), not part of the chunk.
struct ReplFrame {
  std::vector<uint8_t> bytes;
  SimTime arrival = 0;
};

// The primary -> standby wire. The sender pushes frames (refusing them while
// partitioned); the receiver drains them in delivery order with the fault
// profile's reordering/duplication applied. Also the heartbeat channel.
class ReplicaLink {
 public:
  struct FaultProfile {
    uint64_t seed = 0x7265706C;   // "repl"
    double reorder_rate = 0.0;    // P(adjacent frames swap at delivery)
    double duplicate_rate = 0.0;  // P(a frame is delivered twice)
  };

  void SetFaults(const FaultProfile& profile) {
    faults_ = profile;
    rng_ = Rng(profile.seed);
  }
  // Hard partition: subsequent pushes fail (the sender sees kUnavailable
  // after its retries). Frames already on the wire stay deliverable — they
  // left the primary before the cut.
  void SetPartitioned(bool on) { partitioned_ = on; }
  bool partitioned() const { return partitioned_; }
  // Fuse: accept `n` more frames, then partition. Mid-epoch partitions and
  // primary-crash injection points for the failover matrix.
  void PartitionAfterFrames(uint64_t n) {
    fuse_armed_ = true;
    partition_fuse_ = n;
  }

  // Sender side: false when the frame could not be put on the wire
  // (partitioned). A frame is delivered whole or not at all.
  bool Push(ReplFrame frame);
  // Receiver side: every wire frame, in delivery order.
  std::vector<ReplFrame> TakeDeliverable();

  void RecordHeartbeat(SimTime t) { last_heartbeat_ = std::max(last_heartbeat_, t); }
  SimTime last_heartbeat() const { return last_heartbeat_; }
  size_t in_flight() const { return wire_.size(); }
  uint64_t frames_pushed() const { return frames_pushed_; }

 private:
  std::vector<ReplFrame> wire_;
  FaultProfile faults_;
  Rng rng_{0x7265706C};
  bool partitioned_ = false;
  bool fuse_armed_ = false;
  uint64_t partition_fuse_ = 0;
  SimTime last_heartbeat_ = 0;
  uint64_t frames_pushed_ = 0;
};

// Standby side: ingests the epoch stream, validates, applies, and promotes.
// The applied epochs land in a RAM-resident image table that serves every
// restore path (cold restore, lazy paging); the warm VmObject images on top
// make failover O(dirty-since-last-applied-epoch).
//
// The standby is also a local checkpoint destination: a group promoted onto
// it (Sls::RestoreRebindGroup) keeps checkpointing here, and an asynchronous
// flusher copies its pages into the same table at memcpy bandwidth.
//
// A region keeps its oid across epochs, so each epoch overwrites that
// object's pages in place: the table holds one record per group, its newest
// image, and the store backend is the path to older epochs.
class ReplicaStandby : public CheckpointBackend {
 public:
  ReplicaStandby(SimContext* sim, ReplicaLink* link, std::string name = "standby")
      : sim_(sim), name_(std::move(name)), link_(link) {}

  struct ObjectImage {
    uint64_t size = 0;
    std::map<uint64_t, std::vector<uint8_t>> pages;  // pgidx -> one 4 KiB page
  };
  // A group's newest sealed epoch.
  struct ImageRecord {
    uint64_t epoch = 0;
    Oid manifest_oid;
    std::vector<uint8_t> manifest;
    SimTime committed_at = 0;
  };

  // --- Local checkpoint destination -----------------------------------------
  const std::string& name() const override { return name_; }
  uint64_t current_epoch() const override { return epoch_; }
  [[nodiscard]] Result<Oid> CreateMemoryObject(uint64_t size_hint) override;
  [[nodiscard]] Result<SimTime> WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                 uint64_t* bytes) override;
  [[nodiscard]] Result<CommitInfo> CommitEpoch(const std::string& ckpt_name,
                                               const std::vector<uint8_t>& manifest,
                                               Oid replaces_manifest) override;
  [[nodiscard]] Result<LoadedManifest> LoadManifest(const std::string& group_name,
                                                    uint64_t epoch) override;
  // Pages are read from the one image each oid has, whatever `epoch` says:
  // LoadManifest refuses every epoch but a group's newest (see FindImage).
  bool ReadPage(uint64_t epoch, Oid oid, uint64_t pgidx, uint8_t* out) override;
  [[nodiscard]] Status StreamObject(uint64_t epoch, Oid oid, VmObject* obj,
                                    RestoreStream* stream) override;

  // --- The image table ------------------------------------------------------
  const std::vector<uint8_t>* FindPage(uint64_t oid, uint64_t pgidx) const;
  // Installs every staged page of `oid` into `obj`; returns the page count.
  uint64_t InstallImage(uint64_t oid, VmObject* obj) const;
  const std::map<uint64_t, ObjectImage>& object_table() const { return objects_; }
  // The newest image of `group_name` when `epoch` is 0 or names it;
  // kNotSupported for an older epoch, whose manifest would sit over pages
  // later epochs overwrote.
  [[nodiscard]] Result<const ImageRecord*> FindImage(const std::string& group_name,
                                                     uint64_t epoch) const;
  // Group name -> its record.
  const std::map<std::string, ImageRecord>& images() const { return images_; }

  // --- Continuous ingest ---------------------------------------------------
  // Drains the link, slots chunks into pending epochs by their header
  // (deduping replayed chunks and whole replayed epochs), validates
  // complete ones and applies them in epoch order. A validation failure
  // rolls the epoch back and poisons the chain: later epochs are deltas on
  // top of the lost one, so they wait until the at-least-once link
  // re-delivers the lost epoch intact rather than composing into a torn
  // image.
  void Pump();

  // Watermarks and lag.
  uint64_t last_applied_epoch() const { return applied_epoch_; }
  uint64_t last_validated_epoch() const { return validated_epoch_; }
  uint64_t newest_seen_epoch() const;
  uint64_t pending_epochs() const { return pending_.size(); }
  // When the warm images are caught up with everything applied so far.
  SimTime ingest_busy_until() const { return ingest_busy_until_; }

  // --- Heartbeat lease -----------------------------------------------------
  SimDuration lease() const { return kLease; }
  // kBusy while the primary's lease is still fresh (split-brain guard).
  [[nodiscard]] Status LeaseCheck() const;

  // --- Fault injection (standby-side latent sector analogue) ---------------
  // Flips byte `offset` of the received, not yet applied chunk `seq` of
  // `epoch` (its CRC left stale), so apply-time validation must catch it.
  // False if there is no such chunk or byte.
  bool CorruptPendingChunk(uint64_t epoch, uint64_t seq, size_t offset);
  // CorruptPendingChunk on the last payload byte of the epoch's lowest
  // pending chunk: a page byte when that is a data chunk.
  bool CorruptPendingPage(uint64_t epoch);

  // --- Failover ------------------------------------------------------------
  struct FailoverPlan {
    uint64_t epoch = 0;        // the epoch the promotion restores
    bool speculated = false;   // an in-flight epoch completed during the drain
    bool rolled_back = false;  // a torn/invalid epoch was discarded
    uint64_t delta_pages = 0;  // pages patched beyond the warm base image
    SimTime ready_at = 0;      // when the warm images are consistent
  };
  // Declares the primary dead (lease check unless `force`), drains the link
  // so a partially-received epoch finishes streaming (validated speculation),
  // rolls back whatever cannot validate, and pins the promote epoch. The
  // caller completes promotion with Sls::Restore(group, plan.epoch, kFull,
  // this) — the overridden resolver then hands out the warm images.
  [[nodiscard]] Result<FailoverPlan> PrepareFailover(bool force = false);
  bool promoted() const { return promoted_; }
  // Back to ingest duty: rebuilds warm images from the applied table (the
  // previous ones now belong to the promoted incarnation).
  void Demote();

  // A prepared failover hands out the warm images; objects without one, and
  // every other restore, take the shared page-source path.
  [[nodiscard]] Result<MemoryResolverFn> MakeResolver(
      uint64_t epoch, RestoreMode mode, std::shared_ptr<SimTime> stream_done) override;

  // Status lines for `sls repl`.
  std::vector<std::string> Describe() const;

 private:
  struct PendingEpoch {
    std::map<uint64_t, ReplFrame> frames;  // seq -> chunk as received
    uint64_t attempt = 0;
    uint64_t nframes = 0;  // 0 until the commit chunk arrives
    SimTime last_arrival = 0;
  };

  // Applies every contiguous complete epoch above the watermark.
  void ApplyReady();
  // The epoch's chunks, CRC-checked and decoded in seq order; kCorrupt if
  // any is damaged, missing, or the stream does not end in its commit.
  [[nodiscard]] Result<std::vector<ReplChunk>> ValidateEpoch(const PendingEpoch& pending);
  // Moves the decoded pages into the image table.
  void ApplyEpoch(uint64_t epoch, SimTime last_arrival, std::vector<ReplChunk>& chunks);
  // Cost-free staging: the caller charges the copy (the flusher lanes for a
  // local commit, the ingest timeline for an applied epoch).
  void StagePage(uint64_t oid, uint64_t object_size, uint64_t pgidx, std::vector<uint8_t> page);
  // Seals `epoch` (current_epoch() for a local commit; an applied epoch
  // keeps the primary's numbering) as its group's record. A seal at or
  // below the record's epoch is a replay — at-least-once delivery must not
  // roll an image back — and returns the record unchanged. A manifest-less
  // seal (sls_memckpt) only advances the epoch.
  CommitInfo SealAt(uint64_t epoch, std::vector<uint8_t> manifest, SimTime committed_at);

  SimContext* sim_;
  std::string name_;
  uint64_t next_oid_ = 1;
  uint64_t epoch_ = 1;
  // lanes_ is the asynchronous flusher: each object's copy lands on the
  // least-loaded lane and starts no earlier than that lane's previous
  // drain, so back-to-back checkpoints queue up.
  std::map<uint64_t, ObjectImage> objects_;
  std::map<std::string, ImageRecord> images_;
  ReplicaLink* link_;
  std::map<uint64_t, PendingEpoch> pending_;
  uint64_t applied_epoch_ = 0;
  uint64_t validated_epoch_ = 0;
  // A rolled-back epoch breaks the delta chain until a clean re-delivery of
  // that epoch heals it; at failover time the primary is gone, so a still-
  // poisoned chain rolls back to the last applied epoch.
  uint64_t poisoned_epoch_ = 0;
  SimTime ingest_busy_until_ = 0;
  uint64_t pages_applied_total_ = 0;  // lifetime pages patched into warm images
  // How long after the primary's last heartbeat failover stays refused.
  static constexpr SimDuration kLease = 50 * kMillisecond;
  bool promoted_ = false;
  // Ready-to-run images, continuously patched at apply time. Handing one to
  // the promoted incarnation removes it from the table.
  std::map<uint64_t, std::shared_ptr<VmObject>> warm_;
};

// Primary side, and the one way a checkpoint crosses the simulated NIC:
// ships every epoch as a chunked stream over the ReplicaLink, so partitions,
// reordering and duplication act on whole chunks. Every chunk is charged
// CostModel::NetTransfer on the stream lanes (transfers queue behind one
// another and share the wire's byte time); restores pull the standby's
// image table back across the link. The standby may belong to another
// simulated machine — its clock is never touched from here.
class ReplicaBackend : public CheckpointBackend {
 public:
  ReplicaBackend(SimContext* sim, ReplicaStandby* standby, ReplicaLink* link,
                 std::string name = "replica")
      : sim_(sim), name_(std::move(name)), standby_(standby), link_(link) {}

  // Crash fuse: the primary dies after pushing `n` more frames. Later
  // backend calls fail kUnavailable; the wire prefix stays deliverable.
  void CrashAfterFrames(uint64_t n) {
    crash_armed_ = true;
    crash_fuse_ = n;
  }
  bool crashed() const { return crashed_; }

  // Standalone heartbeat (periodic liveness between checkpoints). Fails
  // typed kUnavailable when the link is partitioned away.
  [[nodiscard]] Status SendHeartbeat();

  const std::string& name() const override { return name_; }
  uint64_t current_epoch() const override { return epoch_; }
  // Object naming piggybacks on the stream framing; no transfer of its own.
  [[nodiscard]] Result<Oid> CreateMemoryObject(uint64_t size_hint) override {
    return standby_->CreateMemoryObject(size_hint);
  }
  [[nodiscard]] Result<SimTime> WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                 uint64_t* bytes) override;
  [[nodiscard]] Result<CommitInfo> CommitEpoch(const std::string& ckpt_name,
                                               const std::vector<uint8_t>& manifest,
                                               Oid replaces_manifest) override;
  [[nodiscard]] Result<LoadedManifest> LoadManifest(const std::string& group_name,
                                                    uint64_t epoch) override;
  // Remote paging: one synchronous round trip per fault.
  bool ReadPage(uint64_t epoch, Oid oid, uint64_t pgidx, uint8_t* out) override;
  [[nodiscard]] Status StreamObject(uint64_t epoch, Oid oid, VmObject* obj,
                                    RestoreStream* stream) override;

  ReplicaStandby* standby() { return standby_; }
  ReplicaLink* link() { return link_; }

 private:
  // Per-page wire framing: page index + length (matches the migration
  // stream's per-block header granularity).
  static constexpr uint64_t kPageHeaderBytes = 16;

  // Queues `payload` bytes onto stream lane `lane`, returning arrival time.
  // Never advances the local clock — checkpoint shipping is asynchronous.
  // Lanes model concurrent streams: their latency halves overlap, while the
  // wire's byte occupancy is shared (wire_busy_). With one lane the stream
  // timeline always covers the wire bucket, i.e. the historical serial link.
  SimTime QueueTransferOn(int lane, uint64_t payload);

  // Probes a partitioned link with exponential backoff (heartbeat-scale
  // retries); typed kUnavailable + net.partitions once they run out.
  static constexpr int kLinkAttempts = 4;                        // probes before giving up
  static constexpr SimDuration kLinkBackoff = 2 * kMillisecond;  // doubles per retry
  [[nodiscard]] Status AwaitLink(const char* giveup);
  // Header of the current epoch's next chunk, (re)starting the stream first.
  ReplChunk NextChunk();
  // Pushes an encoded chunk through the link; a typed kUnavailable when the
  // link or the primary is gone. `payload_bytes` is the modelled wire charge.
  [[nodiscard]] Result<SimTime> ShipChunk(std::vector<uint8_t> bytes, uint64_t payload_bytes);

  SimContext* sim_;
  std::string name_;
  SimTime wire_busy_ = 0;
  ReplicaStandby* standby_;
  ReplicaLink* link_;
  uint64_t epoch_ = 1;
  uint64_t attempt_ = 0;   // bumped when an epoch stream (re)starts
  uint64_t seq_ = 0;       // next chunk seq within the current epoch
  bool streaming_ = false;
  bool crashed_ = false;
  bool crash_armed_ = false;
  uint64_t crash_fuse_ = 0;
};

// -----------------------------------------------------------------------------
// Shared store helpers (used by Sls, StoreBackend and `sls send`, so manifest
// lookup is implemented exactly once).
// -----------------------------------------------------------------------------
// Scans committed checkpoints newest-first for a manifest whose header names
// `group_name`; `epoch` 0 = newest. Returns the blob the header check read,
// so a lookup reads the chosen manifest exactly once.
[[nodiscard]] Result<CheckpointBackend::LoadedManifest> LoadManifestFromStore(
    ObjectStore* store, const std::string& group_name, uint64_t epoch);

}  // namespace aurora

#endif  // SRC_CORE_BACKEND_H_
