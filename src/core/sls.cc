#include "src/core/sls.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

namespace aurora {

namespace {
// sls_memckpt syscall entry, checkpoint-record allocation and flusher
// handoff: the fixed cost of an atomic-region checkpoint beyond shadowing
// (calibrated to Table 5's atomic column intercept).
constexpr SimDuration kMemCkptHandoff = 72 * kMicrosecond;

// Drops the durability times of in-flight flushes that have landed by `now`.
void PruneLandedFlushes(std::vector<SimTime>* inflight, SimTime now) {
  inflight->erase(std::remove_if(inflight->begin(), inflight->end(),
                                 [now](SimTime t) { return t <= now; }),
                  inflight->end());
}
}  // namespace

Sls::Sls(SimContext* sim, Kernel* kernel, ObjectStore* store, AuroraFs* fs)
    : sim_(sim), kernel_(kernel), store_(store), fs_(fs) {
  kernel_->set_rootfs(fs_);
  store_backend_ = RegisterBackend(std::make_unique<StoreBackend>(sim_, store_, fs_));
}

Sls::~Sls() = default;

CheckpointBackend* Sls::RegisterBackend(std::unique_ptr<CheckpointBackend> backend) {
  backends_.push_back(std::move(backend));
  return backends_.back().get();
}

CheckpointBackend* Sls::FindBackend(const std::string& name) {
  for (auto& b : backends_) {
    if (b->name() == name) {
      return b.get();
    }
  }
  return nullptr;
}

int Sls::SetFlushLanes(int lanes) {
  lanes = std::max(1, std::min(lanes, sim_->ncpus));
  sim_->flush_lanes = lanes;
  for (auto& b : backends_) {
    b->SetFlushLanes(lanes);
  }
  sim_->metrics.gauge("flush.lanes").Set(static_cast<int64_t>(lanes));
  return lanes;
}

Status Sls::SetBackend(ConsistencyGroup* group, const std::string& backend_name) {
  CheckpointBackend* backend = FindBackend(backend_name);
  if (backend == nullptr) {
    return Status::Error(Errc::kNotFound, "no such backend: " + backend_name);
  }
  if (GroupBackend(group) == backend) {
    return Status::Ok();
  }
  if (!group->pending_collapse.empty() || !group->unflushed_frozen.empty() ||
      !group->persisted_oids.empty()) {
    return Status::Error(Errc::kBadState,
                         "group has checkpoint state; backends switch on fresh groups only");
  }
  group->backend = backend;
  return Status::Ok();
}

Result<ConsistencyGroup*> Sls::CreateGroup(const std::string& name) {
  if (FindGroup(name) != nullptr) {
    return Status::Error(Errc::kExists, "group exists: " + name);
  }
  groups_.push_back(std::make_unique<ConsistencyGroup>(next_group_id_++, name));
  return groups_.back().get();
}

ConsistencyGroup* Sls::FindGroup(const std::string& name) {
  for (auto& g : groups_) {
    if (g->name() == name) {
      return g.get();
    }
  }
  return nullptr;
}

Status Sls::Attach(ConsistencyGroup* group, Process* proc) {
  for (Process* p : group->processes) {
    if (p == proc) {
      return Status::Error(Errc::kExists, "process already attached");
    }
  }
  group->processes.push_back(proc);
  return Status::Ok();
}

Status Sls::Detach(Process* proc) {
  for (auto& g : groups_) {
    auto& procs = g->processes;
    auto it = std::find(procs.begin(), procs.end(), proc);
    if (it != procs.end()) {
      procs.erase(it);
      return Status::Ok();
    }
  }
  return Status::Error(Errc::kNotFound, "process not attached to any group");
}

std::vector<ConsistencyGroup*> Sls::Groups() {
  std::vector<ConsistencyGroup*> out;
  out.reserve(groups_.size());
  for (auto& g : groups_) {
    out.push_back(g.get());
  }
  return out;
}

Oid Sls::EnsureMemoryOid(CheckpointBackend* backend, VmObject* obj) {
  if (obj->sls_oid() != 0) {
    return Oid{obj->sls_oid()};
  }
  auto oid = backend->CreateMemoryObject(obj->size());
  if (!oid.ok()) {
    return kInvalidOid;
  }
  obj->set_sls_oid(oid->value);
  return *oid;
}

std::vector<VmMap*> Sls::GroupMaps(ConsistencyGroup* group) {
  std::vector<VmMap*> maps;
  maps.reserve(group->processes.size());
  for (Process* proc : group->processes) {
    maps.push_back(&proc->vm());
  }
  return maps;
}

Result<Sls::EvictStats> Sls::EvictPages(ConsistencyGroup* group, uint64_t target_pages) {
  EvictStats stats;
  CheckpointBackend* backend = GroupBackend(group);
  // Paging policy: madvise(DONTNEED) regions first, normal ones next, and
  // WILLNEED regions only under continued pressure (paper section 6).
  for (int pass_hint : {kMadvDontneed, kMadvNormal, kMadvWillneed}) {
  for (Process* proc : group->processes) {
    for (auto& [start, entry] : proc->vm().entries()) {
      if (stats.clean_evicted >= target_pages) {
        return stats;
      }
      if (entry.object->type() != VmObjectType::kAnonymous ||
          entry.madvise_hint != pass_hint) {
        continue;
      }
      // Walk to the bottom of the chain: the coldest, fully-persisted layer.
      std::shared_ptr<VmObject> base = entry.object;
      while (base->parent_ref() != nullptr) {
        base = base->parent_ref();
      }
      if (base->type() != VmObjectType::kAnonymous || base->sls_oid() == 0 ||
          group->persisted_oids.count(base->sls_oid()) == 0 || base.get() == entry.object.get()) {
        continue;  // not durable yet, or it is the live top (dirty)
      }
      if (!backend->InstallPager(base.get())) {
        continue;  // backend cannot page this object; keep it resident
      }
      uint64_t dropped = base->DropResidentPages();
      sim_->clock.Advance(sim_->cost.pte_protect * dropped);  // pagedaemon PTE work
      stats.clean_evicted += dropped;
      if (dropped > 0) {
        stats.objects_paged++;
      }
    }
  }
  }
  return stats;
}

Result<SimTime> Sls::FlushUnpersistedChains(CheckpointContext* ctx) {
  ConsistencyGroup* group = ctx->group;
  uint64_t* pages = &ctx->result.pages_flushed;
  uint64_t* bytes = &ctx->result.bytes_flushed;
  SimTime done = sim_->clock.now();
  std::set<const VmObject*> visited;
  auto flush_chain = [&](const std::shared_ptr<VmObject>& top) -> Status {
    std::shared_ptr<VmObject> obj = top;
    bool is_top = true;
    while (obj != nullptr && obj->type() == VmObjectType::kAnonymous) {
      if (!visited.insert(obj.get()).second) {
        break;
      }
      // The live top is the *next* checkpoint's dirty set; skip it. Lower
      // links flush once, the first time a checkpoint reaches them.
      if (!is_top && obj->sls_oid() != 0 &&
          group->persisted_oids.count(obj->sls_oid()) == 0) {
        Oid oid{obj->sls_oid()};
        auto t = ctx->backend->WriteObjectPages(oid, obj.get(), pages, bytes);
        if (!t.ok()) {
          return t.status();
        }
        done = std::max(done, *t);
        group->persisted_oids.insert(oid.value);
        snapshots_[group][oid.value] = obj;
      }
      is_top = false;
      obj = obj->parent_ref();
    }
    return Status::Ok();
  };
  for (Process* proc : group->processes) {
    for (auto& [start, entry] : proc->vm().entries()) {
      if (entry.object->type() == VmObjectType::kAnonymous &&
          !entry.exclude_from_checkpoint) {
        AURORA_RETURN_IF_ERROR(flush_chain(entry.object));
      }
    }
    for (const auto& slot : proc->fds().slots()) {
      if (slot.desc != nullptr && slot.desc->object != nullptr &&
          slot.desc->object->type() == FileType::kShm) {
        auto* shm = static_cast<SharedMemory*>(slot.desc->object.get());
        if (shm->object != nullptr) {
          AURORA_RETURN_IF_ERROR(flush_chain(shm->object));
        }
      }
    }
  }
  return done;
}

// --- Checkpoint pipeline stages ---------------------------------------------

void Sls::CkptCollapse(CheckpointContext* ctx) {
  // Eagerly collapse the shadows flushed by the previous checkpoint (paper
  // section 6: chains capped at two). After a collapse the in-memory
  // snapshot for that region is the merged base. The flushed data was staged
  // at flush time — only its durability may still lie in the future — so
  // collapsing under an in-flight flush is safe.
  ConsistencyGroup* group = ctx->group;
  size_t collapse_span = sim_->tracer.Begin("ckpt.collapse");
  for (const ShadowPair& pair : group->pending_collapse) {
    uint64_t oid = pair.frozen->sls_oid();
    if (CollapseAfterFlush(pair, ctx->maps, /*reversed=*/true, sim_)) {
      std::shared_ptr<VmObject> base = pair.live->parent_ref();
      snapshots_[group][oid] = base;
      if (group->evict_after_flush && base != nullptr && base->parent() == nullptr &&
          group->persisted_oids.count(base->sls_oid()) > 0 &&
          ctx->backend->InstallPager(base.get())) {
        // Memory overcommitment: the merged base equals the backend's state
        // at the flushed epoch, so its frames can be dropped and demand-paged
        // back — swapping and checkpointing share one data path (paper 6).
        uint64_t dropped = base->DropResidentPages();
        sim_->clock.Advance(sim_->cost.pte_protect * dropped);
      }
    }
  }
  group->pending_collapse.clear();
  sim_->tracer.End(collapse_span);
}

void Sls::CkptPreSerialize(CheckpointContext* ctx) {
  // Warm the serialization cache while the application still runs: every
  // entity serialized at fresh cost here is a cheap block copy inside the
  // stopped window. The manifest built here is discarded (its header names
  // an epoch and namespace OID that do not exist yet); only the cache
  // survives into CkptSerialize.
  if (ctx->group->legacy_stop_path) {
    return;
  }
  size_t span = sim_->tracer.Begin("ckpt.preserialize");
  SerializeCache& cache = serialize_caches_[ctx->group];
  cache.pass++;
  auto ensure = [this, ctx](VmObject* obj) { return EnsureMemoryOid(ctx->backend, obj); };
  Result<std::vector<uint8_t>> warm =
      SerializeOsState(sim_, *ctx->group, ctx->backend->current_epoch(), kInvalidOid, ensure,
                       nullptr, SerializeMode::kWarmCache, &cache);
  if (!warm.ok()) {
    // Not fatal: the in-window pass simply runs against a colder cache.
    sim_->metrics.counter("ckpt.preserialize_failures").Add(1);
  }
  sim_->tracer.End(span);
}

void Sls::CkptQuiesce(CheckpointContext* ctx) {
  // Quiesce every thread at the kernel boundary. Stop time starts here.
  ctx->stop_begin = sim_->clock.now();
  ctx->quiesced = true;
  size_t quiesce_span = sim_->tracer.Begin("ckpt.quiesce");
  SimStopwatch quiesce_watch(sim_->clock);
  kernel_->Quiesce(ctx->group->processes);
  ctx->result.quiesce_time = quiesce_watch.Elapsed();
  sim_->tracer.End(quiesce_span);
}

Status Sls::CkptSerialize(CheckpointContext* ctx) {
  // Persist the file system namespace, then serialize the POSIX object
  // graph exactly once per object.
  size_t serialize_span = sim_->tracer.Begin("ckpt.serialize");
  SimStopwatch serialize_watch(sim_->clock);
  Oid ns_oid = kInvalidOid;
  if (ctx->mode == CheckpointMode::kFull) {
    AURORA_ASSIGN_OR_RETURN(ns_oid, ctx->backend->PersistNamespace());
  }
  auto ensure = [this, ctx](VmObject* obj) { return EnsureMemoryOid(ctx->backend, obj); };
  // In-window pass: assemble from the blobs CkptPreSerialize warmed; only
  // entities mutated since then (quiesce state changes, drained AIO) pay
  // fresh gather cost inside the stop.
  SerializeMode mode =
      ctx->group->legacy_stop_path ? SerializeMode::kLegacy : SerializeMode::kAssemble;
  SerializeCache* cache =
      ctx->group->legacy_stop_path ? nullptr : &serialize_caches_[ctx->group];
  AURORA_ASSIGN_OR_RETURN(ctx->manifest,
                          SerializeOsState(sim_, *ctx->group, ctx->backend->current_epoch(),
                                           ns_oid, ensure, &ctx->result.os_state, mode, cache));
  if (cache != nullptr) {
    cache->Prune();
  }
  ctx->result.os_serialize_time = serialize_watch.Elapsed();
  sim_->tracer.End(serialize_span);
  return Status::Ok();
}

void Sls::CkptShadow(CheckpointContext* ctx) {
  // System shadowing across the whole group.
  size_t shadow_span = sim_->tracer.Begin("ckpt.shadow");
  SimStopwatch shadow_watch(sim_->clock);
  SystemShadowStats shadow_stats;
  ctx->pairs = CreateSystemShadows(
      ctx->maps, sim_,
      [this](VmObject* old_top, std::shared_ptr<VmObject> new_top) {
        kernel_->RebindShmObjects(old_top, new_top);
      },
      &shadow_stats, ctx->group->legacy_stop_path);
  for (const ShadowPair& pair : ctx->pairs) {
    snapshots_[ctx->group][pair.frozen->sls_oid()] = pair.frozen;
  }
  // PTEs downgraded inside this stop — with dirty-driven protection this
  // scales with pages written since the last epoch, not image size.
  sim_->metrics.counter("ckpt.ptes_reprotected").Add(shadow_stats.ptes_invalidated);
  ctx->result.shadow_time = shadow_watch.Elapsed();
  sim_->tracer.End(shadow_span);
}

void Sls::CkptResume(CheckpointContext* ctx) {
  // Resume; the application runs concurrently with the flush.
  ConsistencyGroup* group = ctx->group;
  kernel_->Resume(group->processes);
  ctx->result.stop_time = sim_->clock.now() - ctx->stop_begin;
  group->stop_times.Record(ctx->result.stop_time);
  group->checkpoints_taken++;
  last_manifest_blobs_[group] = ctx->manifest;

  sim_->metrics.counter("ckpt.checkpoints").Add();
  sim_->metrics.histogram("ckpt.stop_time").Record(ctx->result.stop_time);
  sim_->metrics.histogram("ckpt.quiesce").Record(ctx->result.quiesce_time);
  sim_->metrics.histogram("ckpt.serialize").Record(ctx->result.os_serialize_time);
  sim_->metrics.histogram("ckpt.shadow").Record(ctx->result.shadow_time);
}

void Sls::CkptRetainInMemory(CheckpointContext* ctx) {
  // Not durable: these frozen shadows hold pages the backend has not seen.
  // They stay un-collapsed until a full checkpoint flushes them.
  for (ShadowPair& pair : ctx->pairs) {
    ctx->group->unflushed_frozen.push_back(std::move(pair));
  }
  sim_->metrics.counter("ckpt.memory_only").Add();
  ctx->result.durable_at = sim_->clock.now();
  last_durable_[ctx->group] = ctx->result.durable_at;
}

Status Sls::CkptAsyncFlush(CheckpointContext* ctx) {
  // Frozen shadows stream their dirty pages into their region objects; chain
  // links never persisted flush once. Shadows left behind by memory-only
  // checkpoints flush first (oldest data).
  ConsistencyGroup* group = ctx->group;
  size_t flush_span = sim_->tracer.Begin("ckpt.flush");
  ctx->durable = sim_->clock.now();
  for (const std::vector<ShadowPair>* pairs : {&group->unflushed_frozen, &ctx->pairs}) {
    for (const ShadowPair& pair : *pairs) {
      Oid oid{pair.frozen->sls_oid()};
      if (!oid.valid()) {
        continue;  // excluded region
      }
      AURORA_ASSIGN_OR_RETURN(SimTime t,
                              ctx->backend->WriteObjectPages(oid, pair.frozen.get(),
                                                             &ctx->result.pages_flushed,
                                                             &ctx->result.bytes_flushed));
      ctx->durable = std::max(ctx->durable, t);
      group->persisted_oids.insert(oid.value);
    }
  }
  AURORA_ASSIGN_OR_RETURN(SimTime chains_done, FlushUnpersistedChains(ctx));
  ctx->durable = std::max(ctx->durable, chains_done);

  // File system dirty data obeys checkpoint consistency: it flushes with the
  // checkpoint, which is why fsync can be a no-op.
  AURORA_ASSIGN_OR_RETURN(SimTime fs_done, ctx->backend->FlushFilesystem());
  ctx->durable = std::max(ctx->durable, fs_done);
  // The flush phase ends when its last asynchronous write lands, which is in
  // the simulated future relative to now (the application already resumed).
  sim_->tracer.EndAt(flush_span, ctx->durable);
  return Status::Ok();
}

Status Sls::CkptCommit(CheckpointContext* ctx) {
  ConsistencyGroup* group = ctx->group;
  size_t commit_span = sim_->tracer.Begin("ckpt.commit");
  AURORA_ASSIGN_OR_RETURN(
      CheckpointBackend::CommitInfo commit,
      ctx->backend->CommitEpoch(ctx->name, ctx->manifest, group->last_manifest));
  ctx->durable = std::max(ctx->durable, commit.durable_at);
  sim_->tracer.EndAt(commit_span, commit.durable_at);

  group->last_manifest = commit.manifest_oid;
  group->last_manifest_epoch = commit.epoch;
  // Collapse order matters: oldest (deepest) shadows first.
  group->pending_collapse = std::move(group->unflushed_frozen);
  group->unflushed_frozen.clear();
  for (ShadowPair& pair : ctx->pairs) {
    group->pending_collapse.push_back(std::move(pair));
  }
  group->bytes_flushed_total += ctx->result.bytes_flushed;
  ctx->result.epoch = commit.epoch;
  ctx->result.durable_at = ctx->durable;
  last_durable_[group] = ctx->durable;

  // Epoch-overlap bookkeeping for the periodic scheduler and benches.
  SimTime now = sim_->clock.now();
  auto& inflight = group->inflight_durable;
  PruneLandedFlushes(&inflight, now);
  if (ctx->durable > now) {
    inflight.push_back(ctx->durable);
  }
  // Pathological manual-checkpoint loops can outrun the time-based pruning
  // above; the ring cap bounds both books regardless.
  if (inflight.size() > ConsistencyGroup::kCkptHistoryCap) {
    inflight.erase(inflight.begin(),
                   inflight.end() - static_cast<long>(ConsistencyGroup::kCkptHistoryCap));
  }
  group->ckpt_history.push_back({ctx->begin, ctx->durable, commit.epoch});
  while (group->ckpt_history.size() > ConsistencyGroup::kCkptHistoryCap) {
    group->ckpt_history.pop_front();
  }

  sim_->metrics.counter("ckpt.pages_flushed").Add(ctx->result.pages_flushed);
  sim_->metrics.counter("ckpt.bytes_flushed").Add(ctx->result.bytes_flushed);
  // Wall time from resume until the checkpoint is fully durable: how long
  // held messages and the next periodic checkpoint wait on the device.
  sim_->metrics.histogram("ckpt.durability_lag").Record(ctx->durable - now);
  return Status::Ok();
}

void Sls::CkptRelease(CheckpointContext* ctx) {
  // External synchrony: messages held since the previous checkpoint are
  // released once this one is durable.
  ConsistencyGroup* group = ctx->group;
  size_t release_span = sim_->tracer.Begin("ckpt.release");
  if (!group->pending_sends.empty()) {
    auto sends = std::make_shared<std::vector<ConsistencyGroup::PendingSend>>(
        std::move(group->pending_sends));
    group->pending_sends.clear();
    sim_->events.At(ctx->durable, [this, sends]() { ReleasePendingSends(sends.get()); });
  }
  sim_->tracer.EndAt(release_span, ctx->durable);
}

SegmentGc* Sls::gc() {
  if (gc_ == nullptr) {
    gc_ = std::make_unique<SegmentGc>(store_);
  }
  return gc_.get();
}

void Sls::ApplyRetention(CheckpointContext* ctx) {
  // Only store-backed epochs live in the store directory; other backends
  // manage their own history.
  if (ctx->backend != store_backend_ || !ctx->group->retention.enabled()) {
    return;
  }
  const RetentionPolicy& policy = ctx->group->retention;
  std::vector<CheckpointInfo> checkpoints = store_->ListCheckpoints();
  // Cutoff: the smallest epoch the policy still keeps. Both limits apply;
  // the stricter one wins.
  uint64_t cutoff = 0;
  if (policy.keep_epochs > 0 && checkpoints.size() > policy.keep_epochs) {
    cutoff = checkpoints[checkpoints.size() - policy.keep_epochs].epoch;
  }
  if (policy.max_age > 0) {
    SimTime now = sim_->clock.now();
    SimTime horizon = now > policy.max_age ? now - policy.max_age : 0;
    // The smallest epoch young enough to keep; if every epoch is stale the
    // newest still survives (DeleteCheckpointsBefore keeps the recovery point).
    uint64_t age_cutoff = checkpoints.empty() ? 0 : checkpoints.back().epoch;
    for (const CheckpointInfo& info : checkpoints) {
      if (info.committed_at >= horizon) {
        age_cutoff = info.epoch;
        break;
      }
    }
    cutoff = std::max(cutoff, age_cutoff);
  }
  // Never prune any group's newest restorable manifest: clamp the cutoff to
  // the oldest last-manifest epoch across every store-backed group.
  for (const auto& group : groups_) {
    if (group->last_manifest_epoch > 0 && GroupBackend(group.get()) == store_backend_) {
      cutoff = std::min(cutoff, group->last_manifest_epoch);
    }
  }
  if (cutoff > 0) {
    Status pruned = store_->DeleteCheckpointsBefore(cutoff);
    if (pruned.ok()) {
      size_t remaining = store_->ListCheckpoints().size();
      if (checkpoints.size() > remaining) {
        sim_->metrics.counter("ckpt.retention_pruned").Add(checkpoints.size() - remaining);
      }
    } else {
      sim_->metrics.counter("ckpt.retention_prune_failures").Add();
    }
  }
  if (store_->layout() == StoreLayout::kSegmentLog) {
    Result<GcRunReport> run = gc()->Run();
    if (!run.ok()) {
      // Compaction failure never fails the checkpoint: the dead space just
      // waits for the next pass.
      sim_->metrics.counter("gc.run_failures").Add();
    }
  }
}

namespace {
// Failures the pipeline degrades on rather than propagates: the device gave
// up after retries, the network peer is partitioned away, or the read
// returned provably corrupt data. Logic errors (kNotFound, kBadState, ...)
// still propagate — aborting an epoch cannot fix a bug.
bool IsIoFailure(const Status& s) {
  return s.code() == Errc::kIoError || s.code() == Errc::kCorrupt ||
         s.code() == Errc::kUnavailable;
}
}  // namespace

void Sls::CkptAbortEpoch(CheckpointContext* ctx, const Status& cause) {
  ConsistencyGroup* group = ctx->group;
  // The frozen shadows keep their dirty pages; unflushed_frozen is drained
  // only by a successful commit, so appending preserves oldest-first order
  // and nothing is lost — only this epoch's durability. Pages a partial
  // flush already staged COW into the store simply commit with the next
  // successful epoch. Held external sends stay held: external synchrony
  // promises them only after a durable covering checkpoint.
  for (ShadowPair& pair : ctx->pairs) {
    group->unflushed_frozen.push_back(std::move(pair));
  }
  ctx->pairs.clear();
  group->epochs_aborted++;
  sim_->metrics.counter("ckpt.epochs_aborted").Add();
  ctx->result.aborted = true;
  ctx->result.epoch = 0;
  auto durable = last_durable_.find(group);
  ctx->result.durable_at = durable != last_durable_.end() ? durable->second : 0;
  if (!abort_logged_) {
    abort_logged_ = true;
    std::fprintf(stderr, "sls: checkpoint epoch aborted (%s); continuing on last durable epoch\n",
                 cause.message().c_str());
  }
}

Result<CheckpointResult> Sls::Checkpoint(ConsistencyGroup* group, const std::string& name,
                                         CheckpointMode mode) {
  CheckpointContext ctx;
  ctx.group = group;
  ctx.backend = GroupBackend(group);
  ctx.name = name;
  ctx.mode = mode;
  ctx.maps = GroupMaps(group);
  ctx.begin = sim_->clock.now();
  sim_->tracer.NewScope();

  CkptCollapse(&ctx);
  CkptPreSerialize(&ctx);
  CkptQuiesce(&ctx);
  Status serialized = CkptSerialize(&ctx);
  if (!serialized.ok()) {
    // Never leave the group quiesced: even a failed serialize resumes the
    // application. Full CkptResume would clobber last_manifest_blobs_ with
    // the partial manifest, so only the kernel-level resume happens here.
    // The stop clock only reads as stop time if quiesce actually started it;
    // an abort before quiesce must not fabricate a pause.
    kernel_->Resume(group->processes);
    ctx.result.stop_time = ctx.quiesced ? sim_->clock.now() - ctx.stop_begin : 0;
    if (!IsIoFailure(serialized)) {
      return serialized;
    }
    CkptAbortEpoch(&ctx, serialized);
    return ctx.result;
  }
  CkptShadow(&ctx);
  CkptResume(&ctx);
  if (mode == CheckpointMode::kMemoryOnly) {
    CkptRetainInMemory(&ctx);
    return ctx.result;
  }
  Status flushed = CkptAsyncFlush(&ctx);
  if (flushed.ok()) {
    flushed = CkptCommit(&ctx);
  }
  if (!flushed.ok()) {
    if (!IsIoFailure(flushed)) {
      return flushed;
    }
    CkptAbortEpoch(&ctx, flushed);
    return ctx.result;
  }
  CkptRelease(&ctx);
  ApplyRetention(&ctx);
  return ctx.result;
}

void Sls::StartPeriodicCheckpoints(ConsistencyGroup* group) {
  if (periodic_.count(group) > 0) {
    return;
  }
  auto alive = std::make_shared<bool>(true);
  periodic_[group] = alive;
  ScheduleNextPeriodic(group, alive);
}

void Sls::StopPeriodicCheckpoints(ConsistencyGroup* group) {
  auto it = periodic_.find(group);
  if (it != periodic_.end()) {
    *it->second = false;
    periodic_.erase(it);
  }
}

void Sls::ScheduleNextPeriodic(ConsistencyGroup* group, std::shared_ptr<bool> alive) {
  sim_->events.After(group->period, [this, group, alive]() {
    if (!*alive || group->suspended || group->processes.empty()) {
      return;
    }
    // Backpressure: at most max_in_flight_epochs flushes outstanding (paper
    // section 7 serializes on durability; limit 2 overlaps epoch N+1's
    // serialization with epoch N's flush). Wait out the earliest flush when
    // the window is full, then rearm the period.
    auto& inflight = group->inflight_durable;
    PruneLandedFlushes(&inflight, sim_->clock.now());
    if (inflight.size() >= group->max_in_flight_epochs) {
      SimTime earliest = *std::min_element(inflight.begin(), inflight.end());
      sim_->events.At(earliest, [this, group, alive]() {
        if (*alive) {
          ScheduleNextPeriodic(group, alive);
        }
      });
      return;
    }
    // A periodic checkpoint has no caller to report to; epoch aborts are
    // already counted by CkptAbortEpoch, so what is counted here is the
    // logic-error path (bad state, missing object) that aborting cannot
    // absorb. The timer keeps rescheduling either way — one failed epoch
    // must not silence durability forever.
    Result<CheckpointResult> ckpt = Checkpoint(group);
    if (!ckpt.ok()) {
      sim_->metrics.counter("ckpt.periodic_failures").Add(1);
    }
    ScheduleNextPeriodic(group, alive);
  });
}

void Sls::ReleasePendingSends(std::vector<ConsistencyGroup::PendingSend>* sends) {
  for (auto& send : *sends) {
    // Releases fire long after the caller of SendExternal returned: there is
    // nowhere to propagate to, so a peer that vanished while the message was
    // held is counted instead.
    Result<uint64_t> sent = send.socket->Send(send.data.data(), send.data.size());
    if (!sent.ok()) {
      sim_->metrics.counter("sls.release_send_failures").Add(1);
    }
  }
  sends->clear();
}

Result<uint64_t> Sls::SendExternal(ConsistencyGroup* group,
                                   const std::shared_ptr<Socket>& socket, const void* data,
                                   uint64_t len) {
  if (!group->external_sync || socket->external_sync_disabled) {
    return socket->Send(data, len);
  }
  ConsistencyGroup::PendingSend send;
  send.socket = socket;
  const auto* p = static_cast<const uint8_t*>(data);
  send.data.assign(p, p + len);
  group->pending_sends.push_back(std::move(send));
  return len;
}

Result<CheckpointBackend::LoadedManifest> Sls::FindManifest(const std::string& group_name,
                                                            uint64_t epoch) {
  return LoadManifestFromStore(store_, group_name, epoch);
}

void Sls::WrapRestoredTops(ConsistencyGroup* group) {
  // One batched shadow pass (one TLB shootdown per address space): the
  // restored tops freeze as already-persisted bases and new empty shadows
  // take the writes, so the first post-restore checkpoint is incremental.
  std::vector<VmMap*> maps = GroupMaps(group);
  std::vector<ShadowPair> pairs = CreateSystemShadows(
      maps, sim_,
      [this](VmObject* old_top, std::shared_ptr<VmObject> new_top) {
        kernel_->RebindShmObjects(old_top, new_top);
      },
      nullptr);
  (void)pairs;  // frozen bases are already persisted; nothing to flush
}

// --- Restore pipeline stages ------------------------------------------------

Status Sls::RestoreLoadManifest(RestoreContext* ctx) {
  if (ctx->mode == RestoreMode::kFromMemory) {
    if (ctx->old_group == nullptr || last_manifest_blobs_.count(ctx->old_group) == 0) {
      return Status::Error(Errc::kNotFound, "no in-memory checkpoint for " + ctx->group_name);
    }
    ctx->manifest = last_manifest_blobs_[ctx->old_group];
    return Status::Ok();
  }
  AURORA_ASSIGN_OR_RETURN(CheckpointBackend::LoadedManifest loaded,
                          ctx->backend->LoadManifest(ctx->group_name, ctx->epoch));
  ctx->manifest_epoch = loaded.epoch;
  ctx->manifest = std::move(loaded.blob);
  return Status::Ok();
}

Status Sls::RestoreBuildResolver(RestoreContext* ctx) {
  if (ctx->mode == RestoreMode::kFromMemory) {
    // Capture the snapshot map by value: the group's map is rebuilt below
    // while the resolver is still in use.
    std::map<uint64_t, std::shared_ptr<VmObject>> old_snapshots;
    if (ctx->old_group != nullptr && snapshots_.count(ctx->old_group) > 0) {
      old_snapshots = snapshots_[ctx->old_group];
    }
    ctx->resolve = [old_snapshots](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
      auto it = old_snapshots.find(oid.value);
      if (it == old_snapshots.end()) {
        // Region created after the last checkpoint: empty anonymous memory.
        return ResolvedMemory{VmObject::CreateAnonymous(size), true};
      }
      return ResolvedMemory{it->second, true};
    };
    return Status::Ok();
  }
  std::shared_ptr<SimTime> stream_done;
  if (ctx->mode == RestoreMode::kFull) {
    stream_done = std::make_shared<SimTime>(sim_->clock.now());
    full_restore_done_ = stream_done;
  }
  AURORA_ASSIGN_OR_RETURN(
      ctx->resolve, ctx->backend->MakeResolver(ctx->manifest_epoch, ctx->mode, stream_done));
  return Status::Ok();
}

void Sls::RestoreTeardownOld(RestoreContext* ctx) {
  // Tear down the previous incarnation (rollback semantics).
  if (ctx->old_group != nullptr) {
    for (Process* proc : ctx->old_group->processes) {
      kernel_->DestroyProcess(proc);
    }
    ctx->old_group->processes.clear();
  }
}

Status Sls::RestoreNamespaceStage(RestoreContext* ctx) {
  // Namespace first so vnode lookups by inode succeed.
  if (ctx->mode == RestoreMode::kFromMemory) {
    return Status::Ok();
  }
  auto head = PeekManifest(ctx->manifest);
  if (head.ok() && head->namespace_oid.valid()) {
    AURORA_RETURN_IF_ERROR(
        ctx->backend->RestoreNamespace(ctx->manifest_epoch, head->namespace_oid));
  }
  return Status::Ok();
}

Status Sls::RestoreMaterialize(RestoreContext* ctx) {
  AURORA_ASSIGN_OR_RETURN(ctx->restored,
                          RestoreOsState(sim_, kernel_, fs_, ctx->manifest, ctx->resolve));
  return Status::Ok();
}

Status Sls::RestoreRebindGroup(RestoreContext* ctx) {
  ConsistencyGroup* group = ctx->old_group;
  if (group == nullptr) {
    AURORA_ASSIGN_OR_RETURN(group, CreateGroup(ctx->group_name));
  }
  group->processes = ctx->restored.processes;
  group->suspended = false;
  group->pending_collapse.clear();
  group->unflushed_frozen.clear();
  group->pending_sends.clear();
  group->inflight_durable.clear();
  if (ctx->mode != RestoreMode::kFromMemory && ctx->backend != store_backend_) {
    // Future checkpoints continue into the backend we restored from.
    group->backend = ctx->backend;
  }

  // Every region named by the manifest is durable at this epoch (or, for
  // memory restores, lives in the retained snapshot objects).
  group->persisted_oids.clear();
  auto& snapshot_map = snapshots_[group];
  if (ctx->mode != RestoreMode::kFromMemory) {
    snapshot_map.clear();
  }
  WrapRestoredTops(group);
  for (Process* proc : group->processes) {
    for (auto& [start, entry] : proc->vm().entries()) {
      std::shared_ptr<VmObject> obj = entry.object;
      while (obj != nullptr) {
        if (obj->sls_oid() != 0) {
          group->persisted_oids.insert(obj->sls_oid());
          if (obj->frozen()) {
            snapshot_map[obj->sls_oid()] = obj;
          }
        }
        obj = obj->parent_ref();
      }
    }
  }
  last_manifest_blobs_[group] = ctx->manifest;

  ctx->result.group = group;
  ctx->result.epoch =
      ctx->mode == RestoreMode::kFromMemory ? ctx->restored.epoch : ctx->manifest_epoch;
  return Status::Ok();
}

Result<RestoreResult> Sls::Restore(const std::string& group_name, uint64_t epoch,
                                   RestoreMode mode, CheckpointBackend* backend) {
  SimStopwatch watch(sim_->clock);
  sim_->tracer.NewScope();
  size_t restore_span = sim_->tracer.Begin("restore");

  RestoreContext ctx;
  ctx.group_name = group_name;
  ctx.epoch = epoch;
  ctx.mode = mode;
  ctx.backend = backend != nullptr ? backend : store_backend_;
  ctx.old_group = FindGroup(group_name);

  // Load + resolver-build run before teardown: early failures (missing
  // manifest, bad epoch) leave the running application untouched.
  AURORA_RETURN_IF_ERROR(RestoreLoadManifest(&ctx));
  AURORA_RETURN_IF_ERROR(RestoreBuildResolver(&ctx));
  RestoreTeardownOld(&ctx);
  AURORA_RETURN_IF_ERROR(RestoreNamespaceStage(&ctx));
  AURORA_RETURN_IF_ERROR(RestoreMaterialize(&ctx));
  AURORA_RETURN_IF_ERROR(RestoreRebindGroup(&ctx));

  if (mode == RestoreMode::kFull && full_restore_done_ != nullptr) {
    sim_->clock.AdvanceTo(*full_restore_done_);
    full_restore_done_.reset();
  }
  ctx.result.restore_time = watch.Elapsed();
  sim_->tracer.End(restore_span);
  sim_->metrics.counter("restore.restores").Add();
  sim_->metrics.histogram("restore.time").Record(ctx.result.restore_time);
  return ctx.result;
}

Result<CheckpointResult> Sls::Suspend(ConsistencyGroup* group) {
  AURORA_ASSIGN_OR_RETURN(CheckpointResult result,
                          Checkpoint(group, "suspend:" + group->name()));
  sim_->clock.AdvanceTo(result.durable_at);
  for (Process* proc : group->processes) {
    kernel_->DestroyProcess(proc);
  }
  group->processes.clear();
  group->pending_collapse.clear();
  group->unflushed_frozen.clear();
  group->suspended = true;
  return result;
}

Result<RestoreResult> Sls::ResumeSuspended(const std::string& group_name, RestoreMode mode) {
  return Restore(group_name, 0, mode);
}

Result<CheckpointResult> Sls::MemCheckpoint(Process* proc, uint64_t addr) {
  VmMapEntry* entry = proc->vm().FindEntry(addr);
  if (entry == nullptr) {
    return Status::Error(Errc::kNotFound, "no mapping at address");
  }
  if (entry->object->type() != VmObjectType::kAnonymous) {
    return Status::Error(Errc::kNotSupported, "atomic checkpoints cover anonymous memory");
  }
  ConsistencyGroup* group = nullptr;
  for (auto& g : groups_) {
    if (std::find(g->processes.begin(), g->processes.end(), proc) != g->processes.end()) {
      group = g.get();
      break;
    }
  }
  if (group == nullptr) {
    return Status::Error(Errc::kBadState, "process not in a consistency group");
  }
  CheckpointBackend* backend = GroupBackend(group);

  SimStopwatch watch(sim_->clock);
  sim_->clock.Advance(kMemCkptHandoff);

  std::vector<VmMap*> maps = GroupMaps(group);
  Oid oid = EnsureMemoryOid(backend, entry->object.get());
  // Copy the shared_ptr: rebinding replaces entry->object itself.
  std::shared_ptr<VmObject> region = entry->object;
  ShadowPair pair = ShadowOneObject(
      region, maps, sim_,
      [this](VmObject* old_top, std::shared_ptr<VmObject> new_top) {
        kernel_->RebindShmObjects(old_top, new_top);
      });
  snapshots_[group][oid.value] = pair.frozen;

  CheckpointResult result;
  result.stop_time = watch.Elapsed();

  // Asynchronous flush of the shadowed region, then a manifest-less backend
  // commit so the atomic checkpoint is independently durable and composes
  // with the most recent full checkpoint at restore.
  AURORA_ASSIGN_OR_RETURN(
      SimTime flushed,
      backend->WriteObjectPages(oid, pair.frozen.get(), &result.pages_flushed,
                                &result.bytes_flushed));
  group->persisted_oids.insert(oid.value);
  AURORA_ASSIGN_OR_RETURN(CheckpointBackend::CommitInfo commit,
                          backend->CommitEpoch("memckpt", {}, kInvalidOid));
  result.epoch = commit.epoch;
  result.durable_at = std::max(flushed, commit.durable_at);
  last_durable_[group] = std::max(last_durable_[group], result.durable_at);
  group->pending_collapse.push_back(pair);
  sim_->metrics.counter("ckpt.memckpts").Add();
  sim_->metrics.histogram("ckpt.memckpt_stop").Record(result.stop_time);
  return result;
}

Result<Oid> Sls::JournalCreate(uint64_t capacity_bytes) {
  return store_->CreateJournal(capacity_bytes);
}

Status Sls::JournalAppend(Oid journal, const void* data, uint64_t len) {
  return store_->JournalAppend(journal, data, len);
}

Status Sls::JournalReset(Oid journal) { return store_->JournalReset(journal); }

Result<std::vector<std::vector<uint8_t>>> Sls::JournalReplay(Oid journal) {
  return store_->JournalReplay(journal);
}

Status Sls::Barrier(ConsistencyGroup* group) {
  auto it = last_durable_.find(group);
  if (it != last_durable_.end()) {
    sim_->clock.AdvanceTo(it->second);
  }
  ReleasePendingSends(&group->pending_sends);
  return Status::Ok();
}

Status Sls::MemCtl(Process* proc, uint64_t addr, bool exclude) {
  VmMapEntry* entry = proc->vm().FindEntry(addr);
  if (entry == nullptr) {
    return Status::Error(Errc::kNotFound, "no mapping at address");
  }
  entry->exclude_from_checkpoint = exclude;
  proc->vm().TouchLayout();  // checkpoint-visible entry flag changed
  return Status::Ok();
}

Status Sls::FdCtl(Process* proc, int fd, bool disable_external_sync) {
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<FileDescription> desc, proc->fds().Get(fd));
  if (desc->object == nullptr || desc->object->type() != FileType::kSocket) {
    return Status::Error(Errc::kInvalidArgument, "fdctl targets sockets");
  }
  static_cast<Socket*>(desc->object.get())->external_sync_disabled = disable_external_sync;
  desc->object->Touch();  // serialized socket record carries this flag
  return Status::Ok();
}

}  // namespace aurora
