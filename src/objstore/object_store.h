// The Aurora object store (paper section 7).
//
// A copy-on-write store holding one on-disk object per POSIX object, memory
// region or file. Design points taken from the paper:
//   * COW everywhere: no data is modified in place, so a crash can never
//     corrupt a committed checkpoint; recovery picks the newest superblock
//     whose metadata checksums verify.
//   * Checkpoints are cheap: a commit serializes the object table and writes
//     one superblock; there is no log cleaner. Reclamation is deadlist-based
//     like WAFL/ZFS: a block born at epoch B and overwritten at epoch K can
//     be freed once no retained checkpoint's epoch lies in [B, K).
//   * Execution history: every committed epoch remains readable
//     (ReadAtEpoch) until explicitly deleted.
//   * Non-COW journal objects for the sls_journal API: preallocated extents
//     updated in place with self-describing records, giving the 28 us
//     synchronous 4 KiB append of section 7.
//   * Log-structured layout (the default): the device is carved into
//     fixed-size segments and every COW write appends to a per-lane open
//     segment. Overwrites only mark the old block dead; whole segments are
//     reclaimed when pruning (or the background SegmentGc) drains them, so
//     long-horizon runs see flat space usage instead of allocator
//     exhaustion. StoreLayout::kLegacy keeps the original free-list
//     allocator as a comparison baseline.
#ifndef SRC_OBJSTORE_OBJECT_STORE_H_
#define SRC_OBJSTORE_OBJECT_STORE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/io_retry.h"
#include "src/base/result.h"
#include "src/base/sim_context.h"
#include "src/objstore/extent_codec.h"
#include "src/objstore/oid.h"
#include "src/storage/block_device.h"

namespace aurora {

enum class ObjType : uint8_t {
  kPosixRecord = 1,  // serialized POSIX object state
  kMemory = 2,       // VM object pages
  kFile = 3,         // Aurora file system file data
  kJournal = 4,      // non-COW write-ahead journal
  kManifest = 5,     // per-checkpoint application manifest
};

struct CheckpointInfo {
  uint64_t epoch = 0;
  std::string name;
  SimTime committed_at = 0;
};

// On-device data layout. kSegmentLog is the default epoch data path; kLegacy
// retains the original bitmap free-list allocator for byte-identity and
// space-growth comparisons.
enum class StoreLayout : uint8_t {
  kLegacy = 0,
  kSegmentLog = 1,
};

struct StoreOptions {
  uint32_t block_size = 64 * 1024;  // paper configures 64 KiB everywhere
  StoreLayout layout = StoreLayout::kSegmentLog;
  uint32_t segment_blocks = 64;  // store blocks per log segment
  // Content-addressed dedup on the COW write path (DESIGN.md section 17):
  // a block whose content key is already indexed installs a reference to the
  // existing physical block instead of writing a new one. Off keeps the
  // pre-dedup byte-for-byte flush behavior (ablation baseline).
  bool dedup = true;
  // Per-extent compressor applied to dedup misses; kRaw stores verbatim.
  CodecId codec = CodecId::kLz;
};

struct StoreStats {
  uint64_t blocks_allocated = 0;
  uint64_t blocks_freed = 0;
  uint64_t commits = 0;
  uint64_t journal_appends = 0;
  // Flush-path dedup/compression accounting. bytes_stored counts physical
  // device bytes actually written for COW data (post dedup, post codec) —
  // the delta across a flush is what the backend reports as bytes flushed.
  uint64_t bytes_stored = 0;
  uint64_t bytes_deduped = 0;            // logical bytes resolved by index hits
  uint64_t bytes_compressed_saved = 0;   // logical minus stored, codec wins only
  uint64_t dedup_hits = 0;
};

// Point-in-time view of the segment log (all zero under kLegacy).
struct SegmentStats {
  uint64_t segments_total = 0;
  uint64_t segments_free = 0;
  uint64_t segments_open = 0;
  uint64_t segments_sealed = 0;
  uint64_t segments_meta = 0;
  uint64_t segments_journal = 0;
  uint64_t segments_zombie = 0;
  uint64_t segments_quarantined = 0;
  uint64_t live_blocks = 0;  // referenced blocks below segment cursors
  uint64_t dead_blocks = 0;  // appended-then-killed blocks awaiting reclaim
  uint64_t reloc_entries = 0;
  // Sealed data segments bucketed by live/capacity decile ([0] = emptiest).
  std::array<uint64_t, 10> util_histogram{};
};

class ObjectStore {
 public:
  // Formats `device` and returns an empty store at epoch 1.
  [[nodiscard]] static Result<std::unique_ptr<ObjectStore>> Format(
      BlockDevice* device, SimContext* sim, StoreOptions options = StoreOptions());
  // Mounts an existing store, recovering to the last complete checkpoint.
  [[nodiscard]] static Result<std::unique_ptr<ObjectStore>> Open(BlockDevice* device,
                                                                 SimContext* sim);

  // --- Objects -------------------------------------------------------------
  [[nodiscard]] Result<Oid> CreateObject(ObjType type, uint64_t size_hint = 0);
  [[nodiscard]] Status DeleteObject(Oid oid);
  bool Exists(Oid oid) const { return objects_.count(oid) > 0; }
  [[nodiscard]] Result<ObjType> TypeOf(Oid oid) const;
  [[nodiscard]] Result<uint64_t> SizeOf(Oid oid) const;
  [[nodiscard]] Status SetSize(Oid oid, uint64_t size);
  std::vector<Oid> ListObjects() const;

  // Byte-granularity COW I/O against the current (uncommitted) epoch.
  // WriteAt returns the simulated device completion time so checkpoint
  // flushes can overlap writes and wait for the latest completion only.
  [[nodiscard]] Result<SimTime> WriteAt(Oid oid, uint64_t off, const void* data, uint64_t len);
  [[nodiscard]] Status ReadAt(Oid oid, uint64_t off, void* out, uint64_t len);

  // Batched sub-block COW update: all runs touching one store block are
  // folded into a single read-modify-write of that block, and the RMW reads
  // are asynchronous. This is the checkpoint flusher's path — page-granular
  // dirty sets must not cause one 64 KiB rewrite per 4 KiB page, nor
  // foreground stalls on device reads.
  struct IoRun {
    uint64_t off = 0;
    const uint8_t* data = nullptr;
    uint64_t len = 0;
  };
  [[nodiscard]] Result<SimTime> WriteAtBatch(Oid oid, const std::vector<IoRun>& runs);

  // --- Parallel flush lanes -------------------------------------------------
  // Fans the flusher's store-block I/O across `lanes` device submission
  // queues, round-robin per store block. Block placement (AllocBlock call
  // order) and contents are unaffected, so the stored bytes are identical for
  // any lane count; only completion times change. 1 (the default) is the
  // historical serial timeline, exactly.
  void SetFlushLanes(uint32_t lanes);
  uint32_t flush_lanes() const { return flush_lanes_; }

  // Reads from a committed checkpoint's view of the object (restore and
  // lazy-restore paging).
  // Reads from a committed epoch. With `completion` null the call is
  // synchronous; otherwise reads are pipelined asynchronously and the
  // device completion time is reported through `completion` (restore
  // streaming).
  [[nodiscard]] Status ReadAtEpoch(uint64_t epoch, Oid oid, uint64_t off, void* out, uint64_t len,
                                   SimTime* completion = nullptr);
  [[nodiscard]] Result<uint64_t> SizeAtEpoch(uint64_t epoch, Oid oid);
  [[nodiscard]] Result<std::vector<Oid>> ObjectsAtEpoch(uint64_t epoch);
  [[nodiscard]] Result<bool> ExistsAtEpoch(uint64_t epoch, Oid oid);
  [[nodiscard]] Result<ObjType> TypeAtEpoch(uint64_t epoch, Oid oid);
  // Logical block indices with data at that epoch (restore materialization).
  [[nodiscard]] Result<std::vector<uint64_t>> BlocksAtEpoch(uint64_t epoch, Oid oid);
  // Whether logical block `block` holds data at that epoch (a demand
  // pager's hole test).
  [[nodiscard]] Result<bool> HasBlockAtEpoch(uint64_t epoch, Oid oid, uint64_t block);
  // Logical blocks whose contents changed after `since_epoch`, as of
  // `epoch` (extent birth epochs drive incremental checkpoint shipping).
  [[nodiscard]] Result<std::vector<uint64_t>> ChangedBlocksSince(uint64_t since_epoch,
                                                                 uint64_t epoch,
                                                                 Oid oid);

  // --- Checkpoints ----------------------------------------------------------
  // Seals the current epoch: serializes metadata, writes it COW, then writes
  // the superblock. Returns the durability time (all prior data writes plus
  // the metadata/superblock writes). The caller decides whether to block.
  [[nodiscard]] Result<SimTime> CommitCheckpoint(const std::string& name);
  uint64_t current_epoch() const { return epoch_; }
  std::vector<CheckpointInfo> ListCheckpoints() const;
  // Frees blocks only needed by checkpoints older than `epoch`.
  [[nodiscard]] Status DeleteCheckpointsBefore(uint64_t epoch);

  // --- Journals (sls_journal) ----------------------------------------------
  [[nodiscard]] Result<Oid> CreateJournal(uint64_t capacity_bytes);
  // Synchronously appends one record; the clock advances to durability.
  [[nodiscard]] Status JournalAppend(Oid oid, const void* data, uint64_t len);
  // Rewinds the journal. Call only after a CommitCheckpoint so that replay
  // (which trusts the committed generation) matches the durable state.
  [[nodiscard]] Status JournalReset(Oid oid);
  [[nodiscard]] Result<std::vector<std::vector<uint8_t>>> JournalReplay(Oid oid);

  const StoreStats& stats() const { return stats_; }
  // Dedup index introspection + the crash-consistency invariant: every index
  // entry's refcount must equal the number of live-table extents referencing
  // its physical block, the reverse map must mirror the index exactly, and no
  // indexed block may sit on a deadlist. Swept by crash_matrix_test at every
  // fuse point and by the scrubber.
  uint64_t DedupEntries() const { return dedup_.size(); }
  [[nodiscard]] Status CheckDedupInvariants() const;
  uint64_t FreeBlocks() const;
  // Physically occupied store blocks: in the segment log this counts every
  // block below a non-free segment's append cursor (dead-but-unreclaimed
  // space included), which is what long-horizon space usage actually is.
  // Under kLegacy it is total - FreeBlocks().
  uint64_t UsedPhysicalBlocks() const;
  SegmentStats GetSegmentStats() const;
  StoreLayout layout() const { return options_.layout; }
  uint32_t segment_blocks() const { return options_.segment_blocks; }
  uint32_t block_size() const { return options_.block_size; }
  BlockDevice* device() { return device_; }
  SimContext* sim() { return sim_; }

 private:
  friend class Scrubber;
  friend class SegmentGc;

  struct Extent {
    uint64_t phys = 0;   // store-block number
    uint64_t birth = 0;  // epoch that installed this reference
    uint32_t crc = 0;    // CRC32C of the stored payload (full block when raw)
    // 0 = raw full block. Otherwise the payload is `stored_len` bytes of
    // codec output occupying ceil(stored_len / dev_bs) device blocks at the
    // head of the store block.
    uint32_t stored_len = 0;
    uint8_t codec = 0;   // CodecId of the stored payload
  };
  struct ObjectInfo {
    ObjType type = ObjType::kPosixRecord;
    uint64_t size = 0;
    // Journal fields.
    bool non_cow = false;
    uint64_t journal_start = 0;   // first store block of the preallocated extent
    uint64_t journal_blocks = 0;  // extent length
    uint64_t journal_gen = 0;
    uint64_t journal_write_off = 0;  // bytes, volatile (recovered by scan)
    uint64_t journal_next_seq = 0;   // volatile
    std::map<uint64_t, Extent> extents;  // logical block -> physical
  };
  struct DeadEntry {
    uint64_t birth = 0;
    uint64_t phys = 0;
    uint32_t crc = 0;         // lets GC verify the block when relocating it
    uint32_t stored_len = 0;  // stored payload length (0 = raw full block)
  };
  // Dedup index entry (content key -> physical block + refcount). The
  // refcount counts live-table extents only; once it reaches zero the block
  // leaves the index and dies through the normal deadlist path using
  // `first_birth` (the epoch that physically wrote it), which bounds every
  // retained checkpoint that can still reference it.
  struct DedupEntry {
    uint64_t phys = 0;
    uint64_t refs = 0;
    uint64_t first_birth = 0;
    uint32_t crc = 0;
    uint32_t stored_len = 0;
    uint8_t codec = 0;
  };

  // --- Segment log ----------------------------------------------------------
  enum class SegState : uint8_t {
    kFree = 0,     // no valid data, available to the allocator
    kOpen = 1,     // a flush lane (or GC) is appending into it
    kSealed = 2,   // full data segment; GC victim candidate
    kMeta = 3,     // metadata blobs (+ the superblock ring in segment 0)
    kJournal = 4,  // non-COW journal extents, updated in place
    kZombie = 5,   // evacuated by GC; reclaimed after the next commit
    // Failed its CRC walk during GC evacuation. Persisted with the segment
    // table so a remount never re-selects it; it stays pinned (never
    // reclaimed, never a victim) until the scrubber's repair story evolves.
    kQuarantine = 6,
  };
  struct Segment {
    SegState state = SegState::kFree;
    uint32_t lane = 0;    // owning flush lane while kOpen (kGcLane for GC)
    uint64_t cursor = 0;  // blocks appended so far (next append offset)
  };
  // Relocation map entry: blocks that used to live at the key physical block
  // were moved to `new_phys` during epoch `reloc_epoch`. Committed metadata
  // blobs older than reloc_epoch still reference the old location, so
  // historic reads translate through this map until those epochs are pruned.
  struct RelocEntry {
    uint64_t new_phys = 0;
    uint64_t reloc_epoch = 0;
  };
  // Lane key for the compactor's destination segment; never collides with a
  // real flush lane (those are < ncpus).
  static constexpr uint32_t kGcLane = 0xFFFFFFFFu;
  struct CheckpointRecord {
    uint64_t epoch = 0;
    std::string name;
    SimTime committed_at = 0;
    uint64_t meta_block = 0;  // store block of the metadata blob
    uint64_t meta_len = 0;    // bytes
  };

  ObjectStore(BlockDevice* device, SimContext* sim, StoreOptions options);

  uint32_t DevBlocksPerStoreBlock() const { return options_.block_size / device_->block_size(); }
  uint64_t DevLba(uint64_t store_block) const {
    return store_block * DevBlocksPerStoreBlock();
  }

  [[nodiscard]] Result<uint64_t> AllocBlock(uint32_t lane = 0);
  [[nodiscard]] Result<uint64_t> AllocContiguous(uint64_t nblocks);
  void FreeBlock(uint64_t block);
  // Drops one live reference to an extent's physical block. Shared (indexed)
  // blocks decrement their refcount; the last reference retires the block
  // through the deadlist keyed by the index's first_birth.
  void KillExtent(const Extent& extent);
  bool BitGet(uint64_t block) const;
  void BitSet(uint64_t block, bool v);

  // --- Flush-path dedup / compression (DESIGN.md section 17) ----------------
  // Stages one full store block of content: consult the dedup index (hit =
  // install a reference, no device write), else run the configured codec and
  // append the stored payload to `lane`. Returns the device completion time
  // (now() for an index hit) and fills `out`; `lane_bytes`, when non-null,
  // accumulates the physical bytes this call charged to the lane.
  [[nodiscard]] Result<SimTime> StoreBlockCow(uint32_t lane, const uint8_t* block,
                                              Extent* out, uint64_t* lane_bytes);
  // Device blocks occupied by a stored payload (full store block when raw).
  uint32_t DevBlocksForStored(uint32_t stored_len) const;
  // The one load of a committed extent: reads its stored payload from
  // `phys`, checks it against the extent CRC and decodes the full block into
  // `block` (decompressing when the extent carries a codec). With
  // `completion` null the read is synchronous; otherwise it is submitted on
  // device queue `queue` and its completion is folded into `*completion`.
  // Every read of data blocks goes through here: ReadAt, ReadAtEpoch and the
  // read-modify-write reads of WriteAt and WriteAtBatch.
  [[nodiscard]] Status LoadExtent(const Extent& extent, uint64_t phys, uint8_t* block,
                                  uint32_t queue, SimTime* completion);
  // The one logical block walk: copies [off, off + len) of an object whose
  // extents were recorded by a table of `view_epoch` into `out`, zero-filling
  // holes. `completion` as for LoadExtent; async reads fan over the flush
  // lanes.
  [[nodiscard]] Status ReadExtents(const ObjectInfo& info, uint64_t view_epoch, uint64_t off,
                                   void* out, uint64_t len, SimTime* completion);

  // Segment-log internals (no-ops / errors under kLegacy).
  uint64_t SegmentOf(uint64_t block) const { return block / options_.segment_blocks; }
  uint64_t SegBase(uint64_t seg) const { return seg * options_.segment_blocks; }
  uint64_t SegCapacity(uint64_t seg) const;
  uint64_t SegLiveBlocks(uint64_t seg) const;
  void InitSegments();
  // --- Sanctioned lifecycle mutations ---------------------------------------
  // Every segment-state and dedup-refcount change in src/objstore flows
  // through these four functions; aurora_lint's typestate family rejects
  // direct field writes anywhere else. SegTransition validates the move
  // against the lifecycle graph
  //   free -> open|meta|journal, open -> sealed,
  //   sealed -> zombie|quarantine|free, meta|journal|zombie -> free,
  //   quarantine -> (pinned)
  // counting violations in store.bad_seg_transitions (and asserting in debug
  // builds), then applies it: entering kFree resets the record, leaving kFree
  // installs the caller's lane/cursor, and every other move changes only the
  // state byte so serialized segment tables stay byte-identical with the
  // pre-refactor writes.
  void SegTransition(uint64_t seg, SegState to, uint32_t lane = 0, uint64_t cursor = 0);
  // Mount-time policy for one persisted segment record: zombies were fully
  // evacuated before the blob we are recovering from committed, so no
  // surviving pointer references them — they come back as free segments.
  static Segment MountSegState(SegState persisted, uint32_t lane, uint64_t cursor);
  static void DedupAddRef(DedupEntry& entry);
  static void DedupDropRef(DedupEntry& entry);
  [[nodiscard]] Result<uint64_t> AllocSegment(SegState state, uint32_t lane);
  // Append one block into the lane's open data segment, opening a new one
  // when full. Used by AllocBlock (segment mode) and the compactor.
  [[nodiscard]] Result<uint64_t> AppendBlock(uint32_t lane);
  // Contiguous run for a metadata blob, appended into meta segments.
  [[nodiscard]] Result<uint64_t> AllocMetaRun(uint64_t nblocks);
  // Rollback for a failed commit: clears the run's bits and, when the run is
  // the open meta segment's tail, rewinds its cursor.
  void FreeMetaRun(uint64_t start, uint64_t nblocks);
  // Whole-segment journal allocation (in-place extents stay out of GC's way).
  [[nodiscard]] Result<uint64_t> AllocJournalRun(uint64_t nblocks);
  void FreeJournalRun(uint64_t start, uint64_t nblocks);
  // Reclaims a fully dead sealed/meta segment back to the free pool.
  void MaybeReclaimSegment(uint64_t seg);
  // Post-commit: zombie segments evacuated by GC become free once the commit
  // that stopped referencing their old locations is durable.
  void ReclaimZombies();
  // Historic reads: translate a physical block recorded by a blob of
  // `view_epoch` through the relocation map.
  uint64_t TranslatePhys(uint64_t phys, uint64_t view_epoch) const;
  // The one CRC check of payload bytes read from media: the stored span of
  // `data` (the full block when `stored_len` is 0) against `crc`. kCorrupt,
  // counted in io.crc_errors, on mismatch.
  [[nodiscard]] Status VerifyCrc(uint64_t phys, uint32_t crc, uint32_t stored_len,
                                 const uint8_t* data);
  // Reads one extent's stored payload undecoded and checks its CRC; shared by
  // the Scrubber and the compactor (kIoError on device failure, kCorrupt on
  // checksum mismatch). `buf` must hold a full store block; only the stored
  // span is read and verified.
  [[nodiscard]] Status ReadBlockVerified(uint64_t phys, uint32_t crc, uint32_t stored_len,
                                         uint8_t* buf);
  void PublishSegmentGauges();

  // All device IO funnels through these wrappers so transient faults are
  // retried with the shared bounded policy; hard errors (kCorrupt, bounds)
  // pass through untouched. Offsets are device LBAs / device blocks.
  [[nodiscard]] Result<SimTime> DevWrite(uint32_t queue, uint64_t lba, const void* data,
                                         uint32_t ndev);
  [[nodiscard]] Result<SimTime> DevRead(uint32_t queue, uint64_t lba, void* out, uint32_t ndev);
  [[nodiscard]] Status DevWriteSync(uint64_t lba, const void* data, uint32_t ndev);
  [[nodiscard]] Status DevReadSync(uint64_t lba, void* out, uint32_t ndev);

  std::vector<uint8_t> SerializeMeta() const;
  [[nodiscard]] Status DeserializeMeta(const std::vector<uint8_t>& blob);
  [[nodiscard]] Status WriteSuperblock(uint64_t meta_block, uint64_t meta_len, SimTime* done);
  [[nodiscard]] Status RecoverJournalOffsets();

  // The one read of a committed metadata blob (Open, LoadEpochTable and the
  // Scrubber); its own CRC is checked when DeserializeMeta parses it.
  [[nodiscard]] Result<std::vector<uint8_t>> ReadMetaBlob(uint64_t meta_block, uint64_t meta_len);
  // A committed epoch's object table, read from media on every call: the
  // device's error when the blob cannot be read, kCorrupt when it does not
  // parse.
  [[nodiscard]] Result<std::unordered_map<Oid, ObjectInfo>> ReadEpochTable(
      const CheckpointRecord& record);
  // ReadEpochTable through epoch_cache_, then the object's entry.
  [[nodiscard]] Result<const ObjectInfo*> LoadEpochTable(uint64_t epoch, Oid oid);

  // Picks the submission queue for the next flush-path store block and
  // mirrors per-lane occupancy into the metrics registry.
  uint32_t NextFlushLane();
  void RecordLaneIo(uint32_t lane, uint64_t bytes, SimTime done);
  // Device queue for GC relocation writes: the coldest queue that owns no
  // open data segment (segment-aware striping hint), so evacuation traffic
  // stays off the hottest flush lane. One lane = the historical queue 0.
  uint32_t GcWriteQueue() const {
    int lane = queue_hints_.ColdestLane();
    return lane < 0 ? 0 : static_cast<uint32_t>(lane);
  }

  BlockDevice* device_;
  SimContext* sim_;
  StoreOptions options_;
  IoRetryPolicy retry_;

  uint64_t epoch_ = 1;  // current, uncommitted epoch
  uint64_t next_oid_ = 1;
  std::unordered_map<Oid, ObjectInfo> objects_;
  std::map<uint64_t, std::vector<DeadEntry>> deadlists_;  // sealed per epoch
  std::vector<CheckpointRecord> checkpoints_;

  std::vector<uint8_t> bitmap_;  // one bit per store block (live/referenced)
  uint64_t total_blocks_ = 0;
  uint64_t alloc_cursor_ = 1;

  // Segment-log state (empty under kLegacy).
  std::vector<Segment> segments_;
  std::map<uint32_t, uint64_t> open_data_seg_;  // lane -> open segment
  uint64_t open_meta_seg_ = 0;
  std::map<uint64_t, RelocEntry> reloc_;  // old phys -> current location

  // Content-addressed dedup index (persisted in the meta blob) and its
  // reverse map, rebuilt on deserialize. Ordered by key so serialization is
  // deterministic.
  std::map<ContentKey, DedupEntry> dedup_;
  std::unordered_map<uint64_t, ContentKey> dedup_by_phys_;

  // Completion time of the latest data write in the current epoch; commits
  // must not declare durability before it.
  SimTime last_data_write_done_ = 0;

  // Flush-lane state: how many submission queues the flusher fans over, the
  // round-robin cursor that assigns store blocks to lanes, and the previous
  // per-lane completion (for busy-time accounting in the metrics).
  uint32_t flush_lanes_ = 1;
  uint64_t lane_cursor_ = 0;
  std::vector<SimTime> lane_last_done_ = {0};
  // Mirror of the flush lanes' occupancy plus the open-segment -> queue
  // mapping, consulted by GcWriteQueue so background relocation lands on the
  // coldest queue instead of colliding with an open appender.
  LaneSchedule queue_hints_{1};

  // Cache of historic epoch tables for ReadAtEpoch.
  std::map<uint64_t, std::unordered_map<Oid, ObjectInfo>> epoch_cache_;

  StoreStats stats_;
};

}  // namespace aurora

#endif  // SRC_OBJSTORE_OBJECT_STORE_H_
