#include "src/core/backend.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "src/base/checksum.h"
#include "src/base/serializer.h"

namespace aurora {

namespace {
constexpr uint32_t kStreamMagic = 0x41534e44;  // "ASND"
constexpr uint32_t kReplMagic = 0x4152504c;    // "ARPL"

// The group a manifest belongs to; "" for manifest-less seals.
std::string ManifestGroup(const std::vector<uint8_t>& manifest) {
  if (manifest.empty()) {
    return "";
  }
  auto head = PeekManifest(manifest);
  return head.ok() ? head->name : "";
}

// Completion of a `payload`-byte transfer starting at `start` on a link
// whose byte time is shared: per-stream latency (the NetTransfer half-RTT)
// overlaps, wire occupancy `*wire_busy` does not. On one lane the stream
// timeline always covers the wire, i.e. the historical serial link.
SimTime WireTransfer(const CostModel& cost, SimTime* wire_busy, SimTime start, uint64_t payload) {
  *wire_busy = std::max(*wire_busy, start) +
               static_cast<SimDuration>(static_cast<double>(payload) / cost.net_bytes_per_ns);
  return std::max(start + cost.NetTransfer(payload), *wire_busy);
}
}  // namespace

// -----------------------------------------------------------------------------
// CheckpointBackend: resolvers and pagers over the page source
// -----------------------------------------------------------------------------

Result<MemoryResolverFn> CheckpointBackend::MakeResolver(uint64_t epoch, RestoreMode mode,
                                                         std::shared_ptr<SimTime> stream_done) {
  if (mode == RestoreMode::kFull) {
    auto stream = std::make_shared<RestoreStream>(
        RestoreStream{LaneSchedule(lanes_.lanes(), *stream_done), *stream_done, stream_done});
    return MemoryResolverFn(
        [this, epoch, stream](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
          auto obj = VmObject::CreateAnonymous(size);
          AURORA_RETURN_IF_ERROR(StreamObject(epoch, oid, obj.get(), stream.get()));
          return ResolvedMemory{std::move(obj), false};
        });
  }
  if (mode == RestoreMode::kLazy) {
    return MemoryResolverFn([this, epoch](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
      auto obj = VmObject::CreateAnonymous(size);
      obj->set_pager([this, epoch, oid](uint64_t pgidx, uint8_t* out) {
        return ReadPage(epoch, oid, pgidx, out);
      });
      return ResolvedMemory{std::move(obj), false};
    });
  }
  return Status::Error(Errc::kInvalidArgument, "kFromMemory resolves without a backend");
}

bool CheckpointBackend::InstallPager(VmObject* base) {
  // Only legal for parentless anonymous objects: a catch-all pager installed
  // mid-chain would shadow the links below it.
  if (base->parent() != nullptr || base->sls_oid() == 0) {
    return base->has_pager();
  }
  if (!base->has_pager()) {
    Oid oid{base->sls_oid()};
    base->set_pager([this, oid](uint64_t pgidx, uint8_t* out) {
      return ReadPage(kLiveEpoch, oid, pgidx, out);
    });
  }
  return true;
}

// -----------------------------------------------------------------------------
// StoreBackend
// -----------------------------------------------------------------------------

Result<Oid> StoreBackend::CreateMemoryObject(uint64_t size_hint) {
  return store_->CreateObject(ObjType::kMemory, size_hint);
}

Result<SimTime> StoreBackend::WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                               uint64_t* bytes) {
  // One run per resident page; the store batches runs per 64 KiB block so
  // sparse dirty sets cost one COW block update per touched block, with
  // asynchronous RMW reads — the flush overlaps application execution.
  std::vector<ObjectStore::IoRun> runs;
  runs.reserve(obj->pages().size());
  for (const auto& [pgidx, frame] : obj->pages()) {
    runs.push_back(ObjectStore::IoRun{pgidx * kPageSize, frame->data.data(), kPageSize});
    (*pages)++;
  }
  if (runs.empty()) {
    return sim_->clock.now();
  }
  // `bytes` reports physical device bytes, so dedup hits and compressed
  // extents show up as a smaller flush — the store's bytes_stored delta is
  // exactly what this batch put on media.
  uint64_t stored_before = store_->stats().bytes_stored;
  AURORA_ASSIGN_OR_RETURN(SimTime done, store_->WriteAtBatch(oid, runs));
  uint64_t shipped = store_->stats().bytes_stored - stored_before;
  *bytes += shipped;
  // The flusher walks the object with its lock held; COW faults copying
  // from it contend (see VmObject::busy_until).
  obj->set_busy_until(done);
  sim_->metrics.counter("backend." + name_ + ".bytes_shipped").Add(shipped);
  return done;
}

Result<CheckpointBackend::CommitInfo> StoreBackend::CommitEpoch(
    const std::string& ckpt_name, const std::vector<uint8_t>& manifest, Oid replaces_manifest) {
  CommitInfo info;
  SimTime manifest_done = sim_->clock.now();
  if (!manifest.empty()) {
    // Manifest object for this epoch; the previous one leaves the live table
    // (it remains readable at its own epoch).
    AURORA_ASSIGN_OR_RETURN(info.manifest_oid, store_->CreateObject(ObjType::kManifest));
    Result<SimTime> wrote =
        store_->WriteAt(info.manifest_oid, 0, manifest.data(), manifest.size());
    if (!wrote.ok()) {
      // Drop the half-written manifest from the live table; leaving it would
      // let LoadManifestFromStore return a manifest the commit never covered.
      DropStrandedManifest(info.manifest_oid);
      return wrote.status();
    }
    manifest_done = *wrote;
    if (replaces_manifest.valid()) {
      // Deleted before the commit so the removal is serialized into this
      // epoch's metadata. After an aborted epoch the retry's delete finds the
      // oid already gone (kNotFound) — benign, not counted as a failure.
      Status deleted = store_->DeleteObject(replaces_manifest);
      if (!deleted.ok() && deleted.code() != Errc::kNotFound) {
        sim_->metrics.counter("backend.manifest_delete_failures").Add();
      }
    }
    sim_->metrics.counter("backend." + name_ + ".bytes_shipped").Add(manifest.size());
  }
  info.epoch = store_->current_epoch();
  Result<SimTime> committed = store_->CommitCheckpoint(ckpt_name);
  if (!committed.ok()) {
    if (!manifest.empty()) {
      DropStrandedManifest(info.manifest_oid);
    }
    return committed.status();
  }
  info.durable_at = std::max(manifest_done, *committed);
  sim_->metrics.counter("backend." + name_ + ".epochs_committed").Add();
  return info;
}

void StoreBackend::DropStrandedManifest(Oid oid) {
  Status deleted = store_->DeleteObject(oid);
  if (!deleted.ok()) {
    sim_->metrics.counter("backend.manifest_delete_failures").Add();
  }
}

Result<CheckpointBackend::LoadedManifest> StoreBackend::LoadManifest(
    const std::string& group_name, uint64_t epoch) {
  return LoadManifestFromStore(store_, group_name, epoch);
}

bool StoreBackend::ReadPage(uint64_t epoch, Oid oid, uint64_t pgidx, uint8_t* out) {
  if (epoch == kLiveEpoch) {
    return store_->ReadAt(oid, pgidx * kPageSize, out, kPageSize).ok();
  }
  Result<bool> present =
      store_->HasBlockAtEpoch(epoch, oid, pgidx * kPageSize / store_->block_size());
  return present.ok() && *present &&
         store_->ReadAtEpoch(epoch, oid, pgidx * kPageSize, out, kPageSize).ok();
}

Status StoreBackend::StreamObject(uint64_t epoch, Oid oid, VmObject* obj, RestoreStream* stream) {
  // Pipelined block reads; an object absent at `epoch` restores empty.
  auto blocks = store_->BlocksAtEpoch(epoch, oid);
  if (!blocks.ok()) {
    return Status::Ok();
  }
  uint32_t bs = store_->block_size();
  std::vector<uint8_t> buf(bs);
  for (uint64_t block : *blocks) {
    AURORA_RETURN_IF_ERROR(
        store_->ReadAtEpoch(epoch, oid, block * bs, buf.data(), bs, stream->done.get()));
    for (uint64_t p = 0; p < bs / kPageSize; p++) {
      obj->InstallPage(block * (bs / kPageSize) + p, buf.data() + p * kPageSize);
    }
  }
  return Status::Ok();
}

// -----------------------------------------------------------------------------
// MemoryBackend
// -----------------------------------------------------------------------------

Result<Oid> MemoryBackend::CreateMemoryObject(uint64_t size_hint) {
  Oid oid{next_oid_++};
  objects_[oid.value].size = size_hint;
  return oid;
}

void MemoryBackend::StagePage(uint64_t oid, uint64_t object_size, uint64_t pgidx,
                              std::vector<uint8_t> page) {
  ObjectImage& img = objects_[oid];
  img.size = std::max(img.size, object_size);
  img.pages[pgidx] = std::move(page);
}

Result<SimTime> MemoryBackend::WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                uint64_t* bytes) {
  if (obj->pages().empty()) {
    return sim_->clock.now();
  }
  for (const auto& [pgidx, frame] : obj->pages()) {
    StagePage(oid.value, obj->size(), pgidx, {frame->data.begin(), frame->data.end()});
  }
  uint64_t n = obj->pages().size();
  uint64_t copied = n * kPageSize;
  *pages += n;
  *bytes += copied;
  int lane = lanes_.NextLane();
  SimTime done = lanes_.StartOn(lane, sim_->clock.now()) + sim_->cost.MemCopy(copied);
  lanes_.Occupy(lane, done);
  obj->set_busy_until(done);
  sim_->metrics.counter("backend." + name_ + ".bytes_shipped").Add(copied);
  return done;
}

Result<CheckpointBackend::CommitInfo> MemoryBackend::CommitEpoch(
    const std::string& ckpt_name, const std::vector<uint8_t>& manifest, Oid replaces_manifest) {
  (void)replaces_manifest;  // images are append-only; Seal retires nothing
  // Commit is a join point: the manifest copy starts only after every flusher
  // lane drained, and nothing later may start before the commit finished.
  SimTime done = std::max(sim_->clock.now(), lanes_.Makespan());
  if (!manifest.empty()) {
    done += sim_->cost.MemCopy(manifest.size());
    sim_->metrics.counter("backend." + name_ + ".bytes_shipped").Add(manifest.size());
  }
  lanes_ = LaneSchedule(lanes_.lanes(), done);
  sim_->metrics.counter("backend." + name_ + ".epochs_committed").Add();
  return SealAt(epoch_, ManifestGroup(manifest), ckpt_name, manifest, done);
}

CheckpointBackend::CommitInfo MemoryBackend::SealAt(uint64_t epoch, std::string group,
                                                    std::string ckpt_name,
                                                    std::vector<uint8_t> manifest,
                                                    SimTime committed_at) {
  if (!group.empty()) {
    // At-least-once ingest: resealing a (group, epoch) the table already
    // holds returns the original record instead of appending a duplicate.
    for (const ImageRecord& rec : images_) {
      if (rec.epoch == epoch && rec.group == group) {
        sim_->metrics.counter("net.dup_epochs_ignored").Add();
        CommitInfo info;
        info.epoch = rec.epoch;
        info.manifest_oid = rec.manifest_oid;
        info.durable_at = rec.committed_at;
        return info;
      }
    }
  }
  CommitInfo info;
  info.epoch = epoch;
  info.durable_at = committed_at;
  epoch_ = std::max(epoch_, epoch + 1);
  ImageRecord rec;
  rec.epoch = info.epoch;
  rec.group = std::move(group);
  rec.ckpt_name = std::move(ckpt_name);
  rec.committed_at = committed_at;
  if (!manifest.empty()) {
    rec.manifest_oid = Oid{next_oid_++};
    info.manifest_oid = rec.manifest_oid;
    rec.manifest = std::move(manifest);
  }
  images_.push_back(std::move(rec));
  return info;
}

const std::vector<uint8_t>* MemoryBackend::FindPage(uint64_t oid, uint64_t pgidx) const {
  auto img = objects_.find(oid);
  if (img == objects_.end()) {
    return nullptr;
  }
  auto page = img->second.pages.find(pgidx);
  return page == img->second.pages.end() ? nullptr : &page->second;
}

uint64_t MemoryBackend::InstallImage(uint64_t oid, VmObject* obj) const {
  auto img = objects_.find(oid);
  if (img == objects_.end()) {
    return 0;
  }
  for (const auto& [pgidx, data] : img->second.pages) {
    obj->InstallPage(pgidx, data.data());
  }
  return img->second.pages.size();
}

Result<const MemoryBackend::ImageRecord*> MemoryBackend::FindImage(const std::string& group_name,
                                                                   uint64_t epoch) const {
  for (auto it = images_.rbegin(); it != images_.rend(); ++it) {
    if (it->manifest.empty() || it->group != group_name) {
      continue;  // manifest-less seal, or another group's image
    }
    if (epoch == 0 || epoch == it->epoch) {
      return &*it;
    }
    if (epoch < it->epoch) {
      return Status::Error(Errc::kNotSupported,
                           "image table holds only the newest epoch of group " + group_name +
                               "; older epochs restore from the store backend");
    }
    break;
  }
  return Status::Error(Errc::kNotFound, "no checkpoint image for group " + group_name);
}

Result<CheckpointBackend::LoadedManifest> MemoryBackend::LoadManifest(
    const std::string& group_name, uint64_t epoch) {
  AURORA_ASSIGN_OR_RETURN(const ImageRecord* rec, FindImage(group_name, epoch));
  sim_->clock.Advance(sim_->cost.MemCopy(rec->manifest.size()));
  return LoadedManifest{rec->epoch, rec->manifest_oid, rec->manifest};
}

bool MemoryBackend::ReadPage(uint64_t /*epoch*/, Oid oid, uint64_t pgidx, uint8_t* out) {
  const std::vector<uint8_t>* page = FindPage(oid.value, pgidx);
  if (page == nullptr) {
    return false;
  }
  sim_->clock.Advance(sim_->cost.MemCopy(kPageSize));
  std::copy(page->begin(), page->end(), out);
  return true;
}

Status MemoryBackend::StreamObject(uint64_t /*epoch*/, Oid oid, VmObject* obj,
                                   RestoreStream* stream) {
  uint64_t copied = InstallImage(oid.value, obj) * kPageSize;
  int lane = stream->lanes.NextLane();
  SimTime done = stream->lanes.StartOn(lane, 0) + sim_->cost.MemCopy(copied);
  stream->lanes.Occupy(lane, done);
  *stream->done = std::max(*stream->done, done);
  return Status::Ok();
}

// -----------------------------------------------------------------------------
// The wire format: ASND streams and replication chunks
// -----------------------------------------------------------------------------

namespace {
constexpr uint8_t kStreamBlockRaw = 0;
constexpr uint8_t kStreamBlockRef = 1;

// The ASND writer pieces; every encoder goes through them, so the layout is
// written once.
void PutStreamHead(BinaryWriter& w, const StreamPayload& payload, uint64_t nobjects) {
  w.PutU32(kStreamMagic);
  w.PutU64(payload.epoch);
  w.PutU64(payload.since_epoch);
  w.PutBytes(payload.manifest.data(), payload.manifest.size());
  w.PutU64(nobjects);
}

void PutObjectHead(BinaryWriter& w, uint64_t oid, uint64_t size, uint64_t nblocks) {
  w.PutU64(oid);
  w.PutU64(size);
  w.PutU64(nblocks);
}

void PutRawBlock(BinaryWriter& w, uint64_t block, const uint8_t* data, size_t len) {
  w.PutU64(block);
  w.PutU8(kStreamBlockRaw);
  w.PutRaw(data, len);
}

// Writes `payload` as an ASND stream. With `dedup`, a block repeating an
// earlier raw block of the stream encodes as a back-reference the receiver
// resolves locally; the memcmp guards against a (vanishingly unlikely)
// content-key collision turning into silent corruption on the peer.
// References name the source by its position in the stream (object index,
// block), not by oid — the same oid can legitimately appear more than once
// (objects shared across processes).
void PutStream(BinaryWriter& w, const StreamPayload& payload, bool dedup) {
  PutStreamHead(w, payload, payload.objects.size());
  std::map<ContentKey, std::pair<uint64_t, uint64_t>> seen;  // key -> (obj index, block)
  for (uint64_t idx = 0; idx < payload.objects.size(); idx++) {
    const auto& [oid, data] = payload.objects[idx];
    PutObjectHead(w, oid, data.size, data.blocks.size());
    for (const auto& [block, raw] : data.blocks) {
      if (dedup) {
        ContentKey key = ContentHash128(raw.data(), raw.size());
        auto cached = seen.find(key);
        if (cached != seen.end()) {
          const std::vector<uint8_t>& src =
              payload.objects[cached->second.first].second.blocks.at(cached->second.second);
          if (src.size() == raw.size() && std::memcmp(src.data(), raw.data(), raw.size()) == 0) {
            w.PutU64(block);
            w.PutU8(kStreamBlockRef);
            w.PutU64(cached->second.first);
            w.PutU64(cached->second.second);
            continue;
          }
        }
        seen[key] = {idx, block};
      }
      PutRawBlock(w, block, raw.data(), raw.size());
    }
  }
}

void PutReplHead(BinaryWriter& w, const ReplChunk& chunk) {
  w.PutU32(kReplMagic);
  w.PutU64(chunk.attempt);
  w.PutU64(chunk.seq);
  w.PutU64(chunk.nframes);
  w.PutString(chunk.ckpt_name);
}

// Appends the CRC32C of everything written so far and returns the chunk.
std::vector<uint8_t> SealChunk(BinaryWriter& w) {
  uint32_t crc = Crc32c(w.data().data(), w.size());
  w.PutRaw(&crc, sizeof(crc));
  return w.Take();
}

// Reads an ASND stream's head: magic, epoch, since_epoch, manifest.
Status ReadStreamHead(BinaryReader& r, StreamPayload* payload) {
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kStreamMagic) {
    return Status::Error(Errc::kCorrupt, "bad checkpoint stream");
  }
  AURORA_ASSIGN_OR_RETURN(payload->epoch, r.U64());
  AURORA_ASSIGN_OR_RETURN(payload->since_epoch, r.U64());
  AURORA_ASSIGN_OR_RETURN(payload->manifest, r.Bytes());
  return Status::Ok();
}

// Reads a replication chunk's header; leaves `r` at the start of its stream.
Status ReadReplHead(BinaryReader& r, ReplChunk* chunk) {
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kReplMagic) {
    return Status::Error(Errc::kCorrupt, "bad replication chunk");
  }
  AURORA_ASSIGN_OR_RETURN(chunk->attempt, r.U64());
  AURORA_ASSIGN_OR_RETURN(chunk->seq, r.U64());
  AURORA_ASSIGN_OR_RETURN(chunk->nframes, r.U64());
  AURORA_ASSIGN_OR_RETURN(chunk->ckpt_name, r.String());
  return Status::Ok();
}
}  // namespace

std::vector<uint8_t> EncodeCheckpointStream(const StreamPayload& payload) {
  BinaryWriter w;
  PutStream(w, payload, /*dedup=*/true);
  return w.Take();
}

Result<StreamPayload> DecodeCheckpointStream(std::span<const uint8_t> bytes,
                                             uint32_t block_size) {
  BinaryReader r(bytes.data(), bytes.size());
  StreamPayload payload;
  AURORA_RETURN_IF_ERROR(ReadStreamHead(r, &payload));
  AURORA_ASSIGN_OR_RETURN(uint64_t nmem, r.U64());
  // Blocks decoded from references, by stream position: a reference may
  // only name a raw block.
  std::set<std::pair<uint64_t, uint64_t>> ref_blocks;
  for (uint64_t i = 0; i < nmem; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t oid, r.U64());
    StreamPayload::ObjectData data;
    AURORA_ASSIGN_OR_RETURN(data.size, r.U64());
    uint64_t size_blocks = data.size / block_size + (data.size % block_size != 0 ? 1 : 0);
    AURORA_ASSIGN_OR_RETURN(uint64_t nblocks, r.U64());
    for (uint64_t b = 0; b < nblocks; b++) {
      AURORA_ASSIGN_OR_RETURN(uint64_t block, r.U64());
      if (block >= size_blocks) {
        return Status::Error(Errc::kCorrupt, "stream block past its object's size");
      }
      if (!data.blocks.empty() && block <= data.blocks.rbegin()->first) {
        return Status::Error(Errc::kCorrupt, "stream blocks out of order");
      }
      AURORA_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
      std::vector<uint8_t> contents;
      if (tag == kStreamBlockRaw) {
        contents.resize(block_size);
        AURORA_RETURN_IF_ERROR(r.Raw(contents.data(), contents.size()));
      } else if (tag == kStreamBlockRef) {
        // Back-reference to a raw block decoded earlier in this same stream:
        // a completed object's, or an earlier block of this one.
        AURORA_ASSIGN_OR_RETURN(uint64_t src_idx, r.U64());
        AURORA_ASSIGN_OR_RETURN(uint64_t src_block, r.U64());
        const std::vector<uint8_t>* src = nullptr;
        if (src_idx <= i && ref_blocks.count({src_idx, src_block}) == 0) {
          const auto& blocks = src_idx == i ? data.blocks : payload.objects[src_idx].second.blocks;
          auto it = blocks.find(src_block);
          src = it == blocks.end() ? nullptr : &it->second;
        }
        if (src == nullptr) {
          return Status::Error(Errc::kCorrupt, "stream dedup ref names no earlier raw block");
        }
        contents = *src;
        ref_blocks.emplace(i, block);
      } else {
        return Status::Error(Errc::kCorrupt, "bad stream block tag");
      }
      data.blocks.emplace_hint(data.blocks.end(), block, std::move(contents));
    }
    payload.objects.emplace_back(oid, std::move(data));
  }
  if (!r.AtEnd()) {
    return Status::Error(Errc::kCorrupt, "trailing bytes after the checkpoint stream");
  }
  return payload;
}

std::vector<uint8_t> EncodeReplChunk(const ReplChunk& chunk) {
  BinaryWriter w;
  PutReplHead(w, chunk);
  PutStream(w, chunk.stream, /*dedup=*/false);
  return SealChunk(w);
}

Result<ReplChunk> DecodeReplChunk(std::span<const uint8_t> bytes) {
  if (bytes.size() < sizeof(uint32_t)) {
    return Status::Error(Errc::kCorrupt, "truncated replication chunk");
  }
  size_t body = bytes.size() - sizeof(uint32_t);
  uint32_t crc = 0;
  std::memcpy(&crc, bytes.data() + body, sizeof(crc));
  if (Crc32c(bytes.data(), body) != crc) {
    return Status::Error(Errc::kCorrupt, "replication chunk CRC mismatch");
  }
  BinaryReader r(bytes.data(), body);
  ReplChunk chunk;
  AURORA_RETURN_IF_ERROR(ReadReplHead(r, &chunk));
  AURORA_ASSIGN_OR_RETURN(
      chunk.stream, DecodeCheckpointStream(bytes.subspan(r.pos(), body - r.pos()), kPageSize));
  return chunk;
}

Result<ReplChunk> PeekReplChunk(std::span<const uint8_t> bytes) {
  BinaryReader r(bytes.data(), bytes.size());
  ReplChunk chunk;
  AURORA_RETURN_IF_ERROR(ReadReplHead(r, &chunk));
  AURORA_RETURN_IF_ERROR(ReadStreamHead(r, &chunk.stream));
  return chunk;
}

// -----------------------------------------------------------------------------
// ReplicaLink
// -----------------------------------------------------------------------------

bool ReplicaLink::Push(ReplFrame frame) {
  if (fuse_armed_ && partition_fuse_ == 0) {
    partitioned_ = true;
    fuse_armed_ = false;
  }
  if (partitioned_) {
    return false;
  }
  if (fuse_armed_) {
    partition_fuse_--;
    if (partition_fuse_ == 0) {
      partitioned_ = true;
      fuse_armed_ = false;
    }
  }
  frames_pushed_++;
  wire_.push_back(std::move(frame));
  return true;
}

std::vector<ReplFrame> ReplicaLink::TakeDeliverable() {
  std::vector<ReplFrame> out = std::move(wire_);
  wire_.clear();
  // The zero-rate guards keep fault-free runs from consuming RNG draws
  // (bit-identical timelines).
  if (faults_.duplicate_rate > 0.0) {
    std::vector<ReplFrame> with_dups;
    with_dups.reserve(out.size());
    for (ReplFrame& f : out) {
      bool dup = rng_.NextBool(faults_.duplicate_rate);
      with_dups.push_back(std::move(f));
      if (dup) {
        with_dups.push_back(with_dups.back());
      }
    }
    out = std::move(with_dups);
  }
  if (faults_.reorder_rate > 0.0) {
    for (size_t i = 0; i + 1 < out.size(); i++) {
      if (rng_.NextBool(faults_.reorder_rate)) {
        std::swap(out[i], out[i + 1]);
      }
    }
  }
  return out;
}

// -----------------------------------------------------------------------------
// ReplicaStandby
// -----------------------------------------------------------------------------

uint64_t ReplicaStandby::newest_seen_epoch() const {
  uint64_t newest = applied_epoch_;
  if (!pending_.empty()) {
    newest = std::max(newest, pending_.rbegin()->first);
  }
  return newest;
}

Status ReplicaStandby::LeaseCheck() const {
  if (link_->last_heartbeat() == 0) {
    return Status::Ok();  // never heard from a primary; nothing to wait out
  }
  if (sim_->clock.now() <= link_->last_heartbeat() + kLease) {
    return Status::Error(Errc::kBusy,
                         "primary lease still fresh; refusing failover (split-brain guard)");
  }
  return Status::Ok();
}

void ReplicaStandby::Pump() {
  MetricsRegistry& metrics = sim_->metrics;
  for (ReplFrame& f : link_->TakeDeliverable()) {
    // Placement comes from the unvalidated header; the CRC over the whole
    // chunk is checked when its epoch applies.
    Result<ReplChunk> head = PeekReplChunk(f.bytes);
    if (!head.ok()) {
      metrics.counter("repl.crc_failures").Add();  // unplaceable: wait for re-delivery
      continue;
    }
    uint64_t epoch = head->stream.epoch;
    if (epoch <= applied_epoch_) {
      // Replayed delivery of an epoch already applied: legal under
      // at-least-once delivery, and ingest is idempotent.
      metrics.counter("repl.dup_frames_ignored").Add();
      continue;
    }
    PendingEpoch& p = pending_[epoch];
    if (head->attempt < p.attempt) {
      // Leftover of an aborted ship this epoch already superseded.
      metrics.counter("repl.stale_attempt_frames").Add();
      continue;
    }
    if (head->attempt > p.attempt) {
      // Fresh re-ship after the primary aborted this epoch's stream: the
      // new attempt supersedes whatever the old one delivered.
      p = PendingEpoch{};
      p.attempt = head->attempt;
    }
    if (p.frames.count(head->seq) > 0) {
      metrics.counter("repl.dup_frames_ignored").Add();
      continue;
    }
    p.last_arrival = std::max(p.last_arrival, f.arrival);
    if (head->commit()) {
      p.nframes = head->nframes;
    }
    p.frames.emplace(head->seq, std::move(f));
    metrics.counter("repl.frames_ingested").Add();
  }
  ApplyReady();
  metrics.gauge("repl.pending_epochs").Set(static_cast<int64_t>(pending_.size()));
  metrics.gauge("repl.lag_epochs")
      .Set(static_cast<int64_t>(newest_seen_epoch() - applied_epoch_));
}

void ReplicaStandby::ApplyReady() {
  while (!pending_.empty()) {
    // Epochs are cumulative deltas: apply strictly in order, starting from
    // the first epoch this standby ever saw (the primary's full baseline).
    uint64_t next = applied_epoch_ == 0 ? pending_.begin()->first : applied_epoch_ + 1;
    auto it = pending_.find(next);
    if (it == pending_.end()) {
      break;
    }
    PendingEpoch& p = it->second;
    if (p.nframes == 0 || p.frames.size() < p.nframes) {
      break;  // still streaming (or the commit chunk is still in flight)
    }
    Result<std::vector<ReplChunk>> chunks = ValidateEpoch(p);
    if (!chunks.ok()) {
      // Torn or corrupted epoch: discard it whole and poison the chain.
      // Later epochs are deltas on top of this one, so nothing applies past
      // the gap until the link (at-least-once) re-delivers this epoch intact.
      poisoned_epoch_ = next;
      pending_.erase(it);
      sim_->metrics.counter("repl.epochs_rolled_back").Add();
      break;
    }
    validated_epoch_ = next;
    SimTime last_arrival = p.last_arrival;
    pending_.erase(it);
    ApplyEpoch(next, last_arrival, *chunks);
    if (poisoned_epoch_ == next) {
      poisoned_epoch_ = 0;  // a clean re-delivery healed the chain
    }
  }
}

Result<std::vector<ReplChunk>> ReplicaStandby::ValidateEpoch(const PendingEpoch& p) {
  if (p.nframes == 0 || p.frames.size() != p.nframes) {
    return Status::Error(Errc::kCorrupt, "epoch incomplete");
  }
  std::vector<ReplChunk> chunks;
  uint64_t expect = 0;
  for (const auto& [seq, f] : p.frames) {
    if (seq != expect++) {
      // A seq gap means frames.size() lied via duplicates.
      return Status::Error(Errc::kCorrupt, "epoch has a chunk gap");
    }
    Result<ReplChunk> chunk = DecodeReplChunk(f.bytes);
    if (!chunk.ok()) {
      sim_->metrics.counter("repl.crc_failures").Add();
      return chunk.status();
    }
    chunks.push_back(std::move(*chunk));
  }
  if (!chunks.back().commit()) {
    return Status::Error(Errc::kCorrupt, "epoch stream does not end in its commit");
  }
  return chunks;
}

void ReplicaStandby::ApplyEpoch(uint64_t epoch, SimTime last_arrival,
                                std::vector<ReplChunk>& chunks) {
  SimTime start = std::max(sim_->clock.now(), std::max(ingest_busy_until_, last_arrival));
  uint64_t pages = 0;
  for (ReplChunk& chunk : chunks) {
    for (auto& [oid, data] : chunk.stream.objects) {
      std::shared_ptr<VmObject>& warm = warm_[oid];
      if (warm == nullptr || warm->size() < data.size) {
        // VmObject sizes are fixed at creation: growth rebuilds the warm
        // image at the new size from the pages applied so far.
        warm = VmObject::CreateAnonymous(data.size);
        InstallImage(oid, warm.get());
      }
      for (auto& [pgidx, page] : data.blocks) {
        warm->InstallPage(pgidx, page.data());
        StagePage(oid, data.size, pgidx, std::move(page));
        pages++;
      }
    }
  }
  // Ingest runs on the standby's own cores: CRC validation plus the copy
  // into the image table and the warm patch. It accumulates into the ingest
  // timeline rather than advancing the clock — a restore joins it once.
  uint64_t bytes = pages * kPageSize;
  ingest_busy_until_ = start + sim_->cost.ContentHash(bytes) + sim_->cost.MemCopy(2 * bytes);
  const ReplChunk& commit = chunks.back();
  SealAt(epoch, ManifestGroup(commit.stream.manifest), commit.ckpt_name, commit.stream.manifest,
         ingest_busy_until_);
  applied_epoch_ = epoch;
  pages_applied_total_ += pages;
  MetricsRegistry& metrics = sim_->metrics;
  metrics.counter("repl.epochs_applied").Add();
  metrics.counter("repl.pages_applied").Add(pages);
  metrics.counter("repl.bytes_applied").Add(bytes);
}

bool ReplicaStandby::CorruptPendingChunk(uint64_t epoch, uint64_t seq, size_t offset) {
  auto it = pending_.find(epoch);
  if (it == pending_.end()) {
    return false;
  }
  auto f = it->second.frames.find(seq);
  if (f == it->second.frames.end() || offset >= f->second.bytes.size()) {
    return false;
  }
  f->second.bytes[offset] ^= 0xFF;  // CRC left stale on purpose
  sim_->metrics.counter("repl.injected_corruptions").Add();
  return true;
}

bool ReplicaStandby::CorruptPendingPage(uint64_t epoch) {
  auto it = pending_.find(epoch);
  if (it == pending_.end() || it->second.frames.empty()) {
    return false;
  }
  // A data chunk's stream ends with its last page, right before the CRC.
  const auto& [seq, first] = *it->second.frames.begin();
  return CorruptPendingChunk(epoch, seq, first.bytes.size() - sizeof(uint32_t) - 1);
}

Result<ReplicaStandby::FailoverPlan> ReplicaStandby::PrepareFailover(bool force) {
  if (promoted_) {
    return Status::Error(Errc::kBadState, "standby already promoted");
  }
  if (!force) {
    AURORA_RETURN_IF_ERROR(LeaseCheck());
  }
  MetricsRegistry& metrics = sim_->metrics;
  uint64_t applied_before = applied_epoch_;
  uint64_t pages_before = pages_applied_total_;
  // Validated speculation: whatever is already through the wire — including
  // the tail of a partially-received epoch — finishes streaming and, if it
  // validates, applies on top of the last fully-applied epoch.
  Pump();
  FailoverPlan plan;
  plan.speculated = applied_epoch_ > applied_before;
  plan.delta_pages = pages_applied_total_ - pages_before;
  // Whatever is still pending can never complete: the primary is gone.
  // Torn or invalid epochs roll back to the last durable one.
  if (!pending_.empty() || poisoned_epoch_ != 0) {
    plan.rolled_back = true;
    metrics.counter("repl.epochs_rolled_back").Add(pending_.size());
    pending_.clear();
  }
  if (applied_epoch_ == 0) {
    return Status::Error(Errc::kUnavailable, "no durable epoch ever reached the standby");
  }
  plan.epoch = applied_epoch_;
  plan.ready_at = ingest_busy_until_;
  promoted_ = true;
  metrics.counter("repl.promotions").Add();
  return plan;
}

void ReplicaStandby::Demote() {
  promoted_ = false;
  warm_.clear();
  // The previous warm set now belongs to the promoted incarnation: rebuild
  // fresh images from the applied table, charged to the ingest timeline.
  uint64_t pages = 0;
  for (const auto& [oid, img] : object_table()) {
    if (img.size == 0 && img.pages.empty()) {
      continue;
    }
    auto obj = VmObject::CreateAnonymous(img.size);
    pages += InstallImage(oid, obj.get());
    warm_[oid] = std::move(obj);
  }
  ingest_busy_until_ = std::max(ingest_busy_until_, sim_->clock.now()) +
                       sim_->cost.MemCopy(pages * kPageSize);
  sim_->metrics.counter("repl.demotions").Add();
}

Result<MemoryResolverFn> ReplicaStandby::MakeResolver(uint64_t epoch, RestoreMode mode,
                                                      std::shared_ptr<SimTime> stream_done) {
  if (!promoted_ || mode != RestoreMode::kFull) {
    return CheckpointBackend::MakeResolver(epoch, mode, stream_done);
  }
  // Warm failover: the continuously-patched images ARE the restored memory —
  // no copy, the restore just joins the ingest timeline. Only objects the
  // stream never shipped pages for stream cold from the image table.
  *stream_done = std::max(*stream_done, ingest_busy_until_);
  AURORA_ASSIGN_OR_RETURN(MemoryResolverFn cold,
                          CheckpointBackend::MakeResolver(epoch, mode, stream_done));
  return MemoryResolverFn([this, cold](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
    auto warm = warm_.find(oid.value);
    if (warm != warm_.end() && warm->second->size() >= size) {
      std::shared_ptr<VmObject> obj = std::move(warm->second);
      warm_.erase(warm);
      sim_->metrics.counter("repl.warm_restores").Add();
      return ResolvedMemory{std::move(obj), false};
    }
    sim_->metrics.counter("repl.cold_restores").Add();
    return cold(oid, size);
  });
}

std::vector<std::string> ReplicaStandby::Describe() const {
  std::vector<std::string> out;
  out.push_back("role: " + std::string(promoted_ ? "promoted" : "standby"));
  out.push_back("applied_epoch: " + std::to_string(applied_epoch_) +
                "  validated_epoch: " + std::to_string(validated_epoch_));
  out.push_back("pending_epochs: " + std::to_string(pending_.size()) +
                "  lag_epochs: " + std::to_string(newest_seen_epoch() - applied_epoch_));
  out.push_back("link: " + std::string(link_->partitioned() ? "partitioned" : "up") +
                "  in_flight_frames: " + std::to_string(link_->in_flight()) +
                "  last_heartbeat_ns: " + std::to_string(link_->last_heartbeat()));
  out.push_back("warm_objects: " + std::to_string(warm_.size()) +
                "  pages_applied: " + std::to_string(pages_applied_total_));
  if (poisoned_epoch_ != 0) {
    out.push_back("POISONED at epoch " + std::to_string(poisoned_epoch_) +
                  ": delta chain broken until that epoch is re-delivered intact");
  }
  return out;
}

// -----------------------------------------------------------------------------
// ReplicaBackend
// -----------------------------------------------------------------------------

SimTime ReplicaBackend::QueueTransferOn(int lane, uint64_t payload) {
  SimTime done = WireTransfer(sim_->cost, &wire_busy_, lanes_.StartOn(lane, sim_->clock.now()),
                              payload);
  lanes_.Occupy(lane, done);
  sim_->metrics.counter("backend." + name_ + ".bytes_shipped").Add(payload);
  sim_->metrics.histogram("backend." + name_ + ".transfer_time").Record(done - sim_->clock.now());
  return done;
}

Status ReplicaBackend::AwaitLink(const char* giveup) {
  MetricsRegistry& metrics = sim_->metrics;
  SimDuration backoff = kLinkBackoff;
  for (int attempt = 1; link_->partitioned(); attempt++) {
    metrics.counter("net.timeouts").Add();
    if (attempt >= kLinkAttempts) {
      metrics.counter("net.partitions").Add();
      return Status::Error(Errc::kUnavailable, giveup);
    }
    metrics.counter("io.retries").Add();
    metrics.counter("net.reconnects").Add();
    sim_->clock.Advance(backoff);
    backoff *= 2;
  }
  return Status::Ok();
}

ReplChunk ReplicaBackend::NextChunk() {
  if (!streaming_) {
    // (Re)start this epoch's stream. A fresh attempt id makes the standby
    // discard partial chunks from an earlier aborted ship of the same epoch
    // rather than mixing the two streams.
    attempt_++;
    seq_ = 0;
    streaming_ = true;
  }
  ReplChunk chunk;
  chunk.attempt = attempt_;
  chunk.seq = seq_;
  chunk.stream.epoch = epoch_;
  return chunk;
}

Result<SimTime> ReplicaBackend::ShipChunk(std::vector<uint8_t> bytes, uint64_t payload_bytes) {
  MetricsRegistry& metrics = sim_->metrics;
  if (crash_armed_ && crash_fuse_ == 0) {
    crashed_ = true;
  }
  if (crashed_) {
    streaming_ = false;
    return Status::Error(Errc::kUnavailable, "primary crashed");
  }
  // Heartbeat-scale retries, then a typed giveup so the epoch aborts
  // upstream instead of wedging; a later retry re-ships the epoch under a
  // new attempt id.
  Status up = AwaitLink("replica link partitioned: send retries exhausted");
  if (!up.ok()) {
    metrics.counter("io.giveups").Add();
    streaming_ = false;
    return up;
  }
  SimTime arrival = QueueTransferOn(lanes_.NextLane(), payload_bytes);
  if (!link_->Push(ReplFrame{std::move(bytes), arrival})) {
    // The partition fuse blew on this very chunk: a mid-epoch cut.
    metrics.counter("net.partitions").Add();
    streaming_ = false;
    return Status::Error(Errc::kUnavailable, "replica link partitioned mid-epoch");
  }
  // Every chunk doubles as a heartbeat — a healthy stream keeps the lease
  // fresh without dedicated liveness traffic.
  link_->RecordHeartbeat(sim_->clock.now());
  metrics.counter("repl.frames_shipped").Add();
  seq_++;
  if (crash_armed_) {
    if (crash_fuse_ > 0) {
      crash_fuse_--;
    }
    if (crash_fuse_ == 0) {
      crashed_ = true;
    }
  }
  return arrival;
}

Status ReplicaBackend::SendHeartbeat() {
  if (crashed_) {
    return Status::Error(Errc::kUnavailable, "primary crashed");
  }
  AURORA_RETURN_IF_ERROR(AwaitLink("replica link partitioned: heartbeat lost"));
  link_->RecordHeartbeat(sim_->clock.now());
  sim_->metrics.counter("repl.heartbeats").Add();
  return Status::Ok();
}

Result<SimTime> ReplicaBackend::WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                 uint64_t* bytes) {
  ReplChunk chunk = NextChunk();
  if (obj->pages().empty()) {
    return sim_->clock.now();
  }
  // Raw pages, no dedup references: the standby validates each chunk as a
  // self-contained unit, so a reference into state it might not hold yet
  // could never be checked. The pages go straight from the object into the chunk (EncodeReplChunk's
  // layout, without staging a StreamPayload copy).
  BinaryWriter w;
  w.Reserve(obj->pages().size() * (kPageSize + 9) + 128);
  PutReplHead(w, chunk);
  PutStreamHead(w, chunk.stream, 1);
  PutObjectHead(w, oid.value, obj->size(), obj->pages().size());
  for (const auto& [pgidx, pf] : obj->pages()) {
    PutRawBlock(w, pgidx, pf->data.data(), kPageSize);
  }
  uint64_t n = obj->pages().size();
  *pages += n;
  *bytes += n * kPageSize;
  AURORA_ASSIGN_OR_RETURN(SimTime done,
                          ShipChunk(SealChunk(w), n * (kPageSize + kPageHeaderBytes)));
  obj->set_busy_until(done);
  return done;
}

Result<CheckpointBackend::CommitInfo> ReplicaBackend::CommitEpoch(
    const std::string& ckpt_name, const std::vector<uint8_t>& manifest, Oid replaces_manifest) {
  (void)replaces_manifest;  // the standby's image table is append-only
  ReplChunk chunk = NextChunk();
  chunk.nframes = chunk.seq + 1;
  chunk.ckpt_name = ckpt_name;
  chunk.stream.manifest = manifest;
  // The commit chunk leaves only after every stream lane drained: the
  // standby must hold the whole epoch before its commit record.
  lanes_ = LaneSchedule(lanes_.lanes(), std::max(sim_->clock.now(), lanes_.Makespan()));
  AURORA_ASSIGN_OR_RETURN(SimTime done, ShipChunk(EncodeReplChunk(chunk), manifest.size() + 64));
  lanes_ = LaneSchedule(lanes_.lanes(), done);
  if (crashed_) {
    // The commit record left the NIC, but the host died before the commit
    // acknowledgment: the epoch aborts on the primary while the standby can
    // still speculate it complete from the wire tail at failover time.
    streaming_ = false;
    return Status::Error(Errc::kUnavailable, "primary crashed at commit");
  }
  CommitInfo info;
  info.epoch = epoch_;
  info.durable_at = done;
  seq_ = 0;
  streaming_ = false;
  epoch_++;
  sim_->metrics.counter("backend." + name() + ".epochs_committed").Add();
  // Continuous ingest: the standby pumps on every commit (the co-hosted
  // simulation's stand-in for its ingest loop).
  standby_->Pump();
  auto rec = standby_->FindImage(ManifestGroup(manifest), info.epoch);
  if (rec.ok()) {
    info.manifest_oid = (*rec)->manifest_oid;
  }
  return info;
}

Result<CheckpointBackend::LoadedManifest> ReplicaBackend::LoadManifest(
    const std::string& group_name, uint64_t epoch) {
  AURORA_ASSIGN_OR_RETURN(const MemoryBackend::ImageRecord* rec,
                          standby_->FindImage(group_name, epoch));
  // Foreground pull: the restore blocks on the round trip.
  sim_->clock.Advance(sim_->cost.NetTransfer(rec->manifest.size()));
  return LoadedManifest{rec->epoch, rec->manifest_oid, rec->manifest};
}

bool ReplicaBackend::ReadPage(uint64_t /*epoch*/, Oid oid, uint64_t pgidx, uint8_t* out) {
  const std::vector<uint8_t>* page = standby_->FindPage(oid.value, pgidx);
  if (page == nullptr) {
    return false;
  }
  sim_->clock.Advance(sim_->cost.NetTransfer(kPageSize + kPageHeaderBytes));
  std::copy(page->begin(), page->end(), out);
  return true;
}

Status ReplicaBackend::StreamObject(uint64_t /*epoch*/, Oid oid, VmObject* obj,
                                    RestoreStream* stream) {
  // Pull streams: independent objects arrive on parallel lanes while the OS
  // state rebuilds.
  uint64_t payload = standby_->InstallImage(oid.value, obj) * (kPageSize + kPageHeaderBytes);
  int lane = stream->lanes.NextLane();
  SimTime done = WireTransfer(sim_->cost, &stream->wire, stream->lanes.StartOn(lane, 0), payload);
  stream->lanes.Occupy(lane, done);
  *stream->done = std::max(*stream->done, done);
  return Status::Ok();
}

// -----------------------------------------------------------------------------
// Shared store helpers
// -----------------------------------------------------------------------------

Result<CheckpointBackend::LoadedManifest> LoadManifestFromStore(ObjectStore* store,
                                                                const std::string& group_name,
                                                                uint64_t epoch) {
  std::vector<CheckpointInfo> ckpts = store->ListCheckpoints();
  std::sort(ckpts.begin(), ckpts.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) { return a.epoch > b.epoch; });
  for (const CheckpointInfo& c : ckpts) {
    if (epoch != 0 && c.epoch != epoch) {
      continue;
    }
    auto oids = store->ObjectsAtEpoch(c.epoch);
    if (!oids.ok()) {
      continue;
    }
    for (Oid oid : *oids) {
      auto type = store->TypeAtEpoch(c.epoch, oid);
      if (!type.ok() || *type != ObjType::kManifest) {
        continue;
      }
      auto size = store->SizeAtEpoch(c.epoch, oid);
      if (!size.ok()) {
        continue;
      }
      CheckpointBackend::LoadedManifest loaded{c.epoch, oid, std::vector<uint8_t>(*size)};
      if (!store->ReadAtEpoch(c.epoch, oid, 0, loaded.blob.data(), loaded.blob.size()).ok()) {
        continue;
      }
      auto head = PeekManifest(loaded.blob);
      if (head.ok() && head->name == group_name) {
        return loaded;
      }
    }
    if (epoch != 0) {
      break;
    }
  }
  return Status::Error(Errc::kNotFound, "no checkpoint manifest for group " + group_name);
}

}  // namespace aurora
