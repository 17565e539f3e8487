#include "perfbench/src/bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

using aurora::CheckpointResult;
using aurora::ConsistencyGroup;
using aurora::RestoreMode;
using aurora::RestoreResult;

// --- Page images and the gate --------------------------------------------------

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void PageImage::Content(uint64_t page, uint8_t* out) const {
  uint32_t version = version_[page];
  if (version == 0 && pool_ != nullptr) {
    const std::vector<uint8_t>& block = (*pool_)[block_template_[page / kPagesPerBlock]];
    std::memcpy(out, block.data() + (page % kPagesPerBlock) * aurora::kPageSize,
                aurora::kPageSize);
    return;
  }
  uint64_t state = Mix(salt_ ^ Mix(page * 0x9e3779b97f4a7c15ull + version));
  for (uint64_t off = 0; off < aurora::kPageSize; off += 8) {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t word = Mix(state);
    std::memcpy(out + off, &word, 8);
  }
}

void PageImage::SetBlock(uint64_t block, uint32_t t) {
  block_template_[block] = t;
  uint64_t end = std::min(pages(), (block + 1) * kPagesPerBlock);
  for (uint64_t p = block * kPagesPerBlock; p < end; p++) {
    version_[p] = 0;
  }
}

uint64_t HashPage(const uint8_t* page) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (uint64_t off = 0; off < aurora::kPageSize; off += 8) {
    uint64_t word;
    std::memcpy(&word, page + off, 8);
    h = Mix(h ^ word) + off;
  }
  return h;
}

void ImageGate::Expect(uint64_t local_pid, uint64_t addr, const PageImage& image) {
  std::vector<uint8_t> page(aurora::kPageSize);
  for (uint64_t p = 0; p < image.pages(); p++) {
    image.Content(p, page.data());
    expected_[{local_pid, addr + p * aurora::kPageSize}] = HashPage(page.data());
  }
}

Status ImageGate::CaptureLive(ConsistencyGroup* group) {
  std::vector<uint8_t> page(aurora::kPageSize);
  for (aurora::Process* proc : group->processes) {
    // Copy the entry bounds first: reads fault, and faults may reshape the
    // map's bookkeeping.
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    for (const auto& [start, entry] : proc->vm().entries()) {
      if (entry.exclude_from_checkpoint || entry.object == nullptr ||
          entry.object->type() != aurora::VmObjectType::kAnonymous) {
        continue;
      }
      ranges.emplace_back(entry.start, entry.end);
    }
    for (const auto& [start, end] : ranges) {
      for (uint64_t addr = start; addr < end; addr += aurora::kPageSize) {
        Status read = proc->vm().Read(addr, page.data(), aurora::kPageSize);
        if (!read.ok()) {
          return read;
        }
        expected_[{proc->local_pid(), addr}] = HashPage(page.data());
      }
    }
  }
  return Status::Ok();
}

uint64_t ImageGate::Mismatches(ConsistencyGroup* group) const {
  std::map<uint64_t, aurora::Process*> by_pid;
  for (aurora::Process* proc : group->processes) {
    by_pid[proc->local_pid()] = proc;
  }
  std::vector<uint8_t> page(aurora::kPageSize);
  uint64_t bad = 0;
  for (const auto& [key, hash] : expected_) {
    auto proc = by_pid.find(key.first);
    if (proc == by_pid.end() ||
        !proc->second->vm().Read(key.second, page.data(), aurora::kPageSize).ok() ||
        HashPage(page.data()) != hash) {
      bad++;
    }
  }
  return bad;
}

// --- Round ------------------------------------------------------------------------

namespace {

// Counters diffed over the measured phase (registry names).
const char* const kCounters[] = {
    "vm.cow_faults",          "vm.soft_faults",        "ckpt.ptes_reprotected",
    "vm.tlb_shootdowns",      "vm.shootdowns_elided",  "kernel.syscalls",
    "kernel.quiesce_ipis",    "ckpt.serialize_cache_hits", "ckpt.serialize_cache_misses",
    "ckpt.serialize_cache_stale", "ckpt.epochs_aborted", "gc.runs",
    "gc.blocks_relocated",    "gc.segments_reclaimed", "gc.throttle_defers",
    "device.writes",          "device.bytes_written",  "device.reads",
    "device.bytes_read",      "io.retries",            "repl.frames_shipped",
    "backend.replica.bytes_shipped", "repl.bytes_applied", "repl.dup_frames_ignored",
    "repl.crc_failures",
};
// Simulated-time histograms whose sums are diffed (ns).
const char* const kHistogramSums[] = {"device.queue_delay", "backend.replica.transfer_time"};

double Ms(double ns) { return ns / 1e6; }

}  // namespace

void Round::Snapshot(Machine& m, std::map<std::string, double>* into) const {
  const aurora::MetricsRegistry& metrics = m.sim.metrics;
  for (const char* name : kCounters) {
    (*into)[name] = static_cast<double>(metrics.CounterValue(name));
  }
  for (const char* name : kHistogramSums) {
    auto it = metrics.histograms().find(name);
    (*into)[name] = it == metrics.histograms().end() ? 0 : static_cast<double>(it->second.sum());
  }
  // Per-lane device busy time: the busiest lane is the flush's critical path.
  for (const auto& [name, counter] : metrics.counters()) {
    if (name.rfind("flush.lane", 0) == 0 && name.size() > 10 &&
        name.compare(name.size() - 10, 10, ".busy_time") == 0) {
      (*into)[name] = static_cast<double>(counter.value());
    }
  }
  const aurora::StoreStats& st = m.store->stats();
  (*into)["store.bytes_stored"] = static_cast<double>(st.bytes_stored);
  (*into)["store.bytes_deduped"] = static_cast<double>(st.bytes_deduped);
  (*into)["store.bytes_compressed_saved"] = static_cast<double>(st.bytes_compressed_saved);
}

void Round::Op(bool ok, aurora::SimDuration latency) {
  out_.attempted++;
  out_.app_ops++;
  if (!ok) {
    Fail("application operation failed");
    return;
  }
  out_.op_us.push_back(aurora::ToMicros(latency));
}

void Round::BeginMeasure(Machine& m) {
  uint64_t now = HostNanos();
  out_.setup_s = static_cast<double>(now - setup_begin_ns_) / 1e9;
  run_begin_ns_ = now;
  measuring_ = true;
  Snapshot(m, &at_begin_);
}

void Round::EndLoop(Machine& m, uint64_t used_bytes) {
  std::map<std::string, double> now;
  Snapshot(m, &now);
  // Bytes the checkpoints wrote to their destination: the store's device,
  // or the replication link for a replica-routed group.
  double written = 0;
  for (const char* name : {"device.bytes_written", "backend.replica.bytes_shipped"}) {
    written += now[name] - at_begin_[name];
  }
  out_.device_written = static_cast<uint64_t>(written);
  out_.used_bytes_end = used_bytes;
}

void Round::PauseRun() { pause_begin_ns_ = HostNanos(); }

void Round::ResumeRun() { paused_ns_ += HostNanos() - pause_begin_ns_; }

void Round::EndMeasure(Machine& m) {
  out_.run_s = static_cast<double>(HostNanos() - run_begin_ns_ - paused_ns_) / 1e9;
  measuring_ = false;
  std::map<std::string, double> end;
  Snapshot(m, &end);
  auto d = [&](const char* name) { return end[name] - at_begin_[name]; };

  double lane_busy_max = 0;
  for (const auto& [name, v] : end) {
    if (name.rfind("flush.lane", 0) == 0) {
      lane_busy_max = std::max(lane_busy_max, v - at_begin_[name]);
    }
  }
  // Logical bytes the flush handed to the store's content stage: dedup hits,
  // plus codec savings and stored bytes of misses (compressed payloads are
  // padded to device blocks, so this slightly overstates them).
  double deduped = d("store.bytes_deduped");
  double saved = d("store.bytes_compressed_saved");
  double presented = deduped + saved + d("store.bytes_stored");
  double block = static_cast<double>(m.store->block_size());
  double hits = d("ckpt.serialize_cache_hits");
  double lookups = hits + d("ckpt.serialize_cache_misses") + d("ckpt.serialize_cache_stale");
  auto& L = out_.sim_layer;
  L.clear();
  L.push_back({"apps.ops", static_cast<double>(out_.app_ops), "count"});
  L.push_back({"vm.cow_faults", d("vm.cow_faults"), "count"});
  L.push_back({"vm.soft_faults", d("vm.soft_faults"), "count"});
  L.push_back({"vm.ptes_reprotected", d("ckpt.ptes_reprotected"), "count"});
  L.push_back({"vm.tlb_shootdowns", d("vm.tlb_shootdowns"), "count"});
  L.push_back({"vm.shootdowns_elided", d("vm.shootdowns_elided"), "count"});
  L.push_back({"vm.shadow_ms", Ms(sim_sums_["shadow"]), "ms"});
  L.push_back({"posix.syscalls", d("kernel.syscalls"), "count"});
  L.push_back({"posix.quiesce_ms", Ms(sim_sums_["quiesce"]), "ms"});
  L.push_back({"posix.quiesce_ipis", d("kernel.quiesce_ipis"), "count"});
  L.push_back({"core.collapse_ms", Ms(sim_sums_["ckpt.collapse"]), "ms"});
  L.push_back({"core.preserialize_ms", Ms(sim_sums_["ckpt.preserialize"]), "ms"});
  L.push_back({"core.serialize_ms", Ms(sim_sums_["ckpt.serialize"]), "ms"});
  L.push_back({"core.serialize_cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio"});
  L.push_back({"core.serialize_cache_stale", d("ckpt.serialize_cache_stale"), "count"});
  L.push_back({"core.flush_ms", Ms(sim_sums_["ckpt.flush"]), "ms"});
  L.push_back({"core.commit_ms", Ms(sim_sums_["ckpt.commit"]), "ms"});
  L.push_back({"core.epochs_aborted", d("ckpt.epochs_aborted"), "count"});
  L.push_back({"objstore.blocks_presented", presented / block, "count"});
  L.push_back({"objstore.dedup_hit_ratio", presented > 0 ? deduped / presented : 0, "ratio"});
  L.push_back({"objstore.codec_saved_ratio",
               presented - deduped > 0 ? saved / (presented - deduped) : 0, "ratio"});
  L.push_back({"objstore.bytes_stored", d("store.bytes_stored"), "bytes"});
  double store_used = static_cast<double>(m.store->UsedPhysicalBlocks() * m.store->block_size());
  L.push_back({"objstore.used_mib_end", store_used / static_cast<double>(aurora::kMiB), "MiB"});
  L.push_back({"objstore.gc_runs", d("gc.runs"), "count"});
  L.push_back({"objstore.gc_blocks_relocated", d("gc.blocks_relocated"), "count"});
  L.push_back({"objstore.gc_segments_reclaimed", d("gc.segments_reclaimed"), "count"});
  L.push_back({"objstore.gc_throttle_defers", d("gc.throttle_defers"), "count"});
  L.push_back({"storage.writes", d("device.writes"), "count"});
  L.push_back({"storage.bytes_written", d("device.bytes_written"), "bytes"});
  L.push_back({"storage.reads", d("device.reads"), "count"});
  L.push_back({"storage.bytes_read", d("device.bytes_read"), "bytes"});
  L.push_back({"storage.queue_delay_ms", Ms(d("device.queue_delay")), "ms"});
  L.push_back({"storage.lane_busy_ms_max", Ms(lane_busy_max), "ms"});
  L.push_back({"storage.io_retries", d("io.retries"), "count"});
  L.push_back({"net.frames_shipped", d("repl.frames_shipped"), "count"});
  L.push_back({"net.bytes_shipped", d("backend.replica.bytes_shipped"), "bytes"});
  L.push_back({"net.bytes_applied", d("repl.bytes_applied"), "bytes"});
  L.push_back({"net.transfer_ms", Ms(d("backend.replica.transfer_time")), "ms"});
  L.push_back({"net.lag_epochs",
               static_cast<double>(m.sim.metrics.GaugeValue("repl.lag_epochs")), "count"});
  L.push_back({"net.dup_frames_ignored", d("repl.dup_frames_ignored"), "count"});
  L.push_back({"net.crc_failures", d("repl.crc_failures"), "count"});
  // Host time the store spent per MiB handed to it (checkpoint calls only).
  double presented_mib = presented / static_cast<double>(aurora::kMiB);
  double host_ckpt_ms = 0;
  for (double ms : out_.host_ckpt_ms) {
    host_ckpt_ms += ms;
  }
  out_.host_layer_ms["core.host_ckpt_ms"] = host_ckpt_ms;
  out_.host_layer_ms["objstore.host_ms_per_mib"] =
      presented_mib > 0 ? host_ckpt_ms / presented_mib : 0;
}

void Round::RecordSimSpans(Machine& m, uint64_t id, size_t first, uint64_t dropped) {
  const aurora::SpanTracer& tracer = m.sim.tracer;
  // Spans recorded since index `first`; if the tracer trimmed its buffer in
  // between, fall back to the call's scope.
  std::vector<aurora::Span> spans =
      tracer.dropped() == dropped
          ? std::vector<aurora::Span>(tracer.spans().begin() + static_cast<long>(first),
                                      tracer.spans().end())
          : tracer.SpansInScope(tracer.current_scope());
  for (const aurora::Span& span : spans) {
    sim_sums_[span.name] += static_cast<double>(span.duration());
    if (trace_ != nullptr) {
      trace_->Sim(span.name, id, span.begin, span.end);
    }
  }
}

Result<CheckpointResult> Round::Checkpoint(Machine& m, ConsistencyGroup* group) {
  uint64_t id = ++epoch_id_;
  aurora::SimTime begin = m.sim.clock.now();
  out_.attempted++;
  size_t first_span = m.sim.tracer.spans().size();
  uint64_t dropped = m.sim.tracer.dropped();
  uint64_t t0 = HostNanos();
  Result<CheckpointResult> ckpt = m.sls->Checkpoint(group);
  uint64_t t1 = HostNanos();
  if (trace_ != nullptr) {
    trace_->Host("core", "Sls::Checkpoint", id, t0, t1);
  }
  if (!ckpt.ok()) {
    Fail("checkpoint failed: " + ckpt.status().message());
    return ckpt;
  }
  if (ckpt->aborted) {
    Fail("checkpoint epoch aborted");
    return ckpt;
  }
  if (!measuring_) {
    return ckpt;
  }
  out_.host_ckpt_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  out_.stop_ms.push_back(aurora::ToMillis(ckpt->stop_time));
  out_.durable_ms.push_back(aurora::ToMillis(ckpt->durable_at - begin));
  out_.dirty_bytes += ckpt->pages_flushed * aurora::kPageSize;
  sim_sums_["quiesce"] += static_cast<double>(ckpt->quiesce_time);
  sim_sums_["shadow"] += static_cast<double>(ckpt->shadow_time);
  RecordSimSpans(m, id, first_span, dropped);
  return ckpt;
}

Result<RestoreResult> Round::Restore(Machine& m, const std::string& group, RestoreMode mode,
                                     aurora::CheckpointBackend* backend) {
  uint64_t id = ++epoch_id_;
  out_.attempted++;
  size_t first_span = m.sim.tracer.spans().size();
  uint64_t dropped = m.sim.tracer.dropped();
  uint64_t t0 = HostNanos();
  Result<RestoreResult> restored = m.sls->Restore(group, 0, mode, backend);
  uint64_t t1 = HostNanos();
  out_.host_layer_ms["core.host_restore_ms"] += static_cast<double>(t1 - t0) / 1e6;
  if (trace_ != nullptr) {
    trace_->Host("core", mode == RestoreMode::kLazy ? "Sls::Restore(lazy)" : "Sls::Restore(full)",
                 id, t0, t1);
  }
  if (!restored.ok()) {
    Fail("restore failed: " + restored.status().message());
    return restored;
  }
  RecordSimSpans(m, id, first_span, dropped);
  return restored;
}

Result<RestoreResult> Round::Promote(Machine& m, const std::string& group,
                                     const std::string& backend) {
  uint64_t id = ++epoch_id_;
  out_.attempted++;
  aurora::SlsCli cli(m.sls.get());
  size_t first_span = m.sim.tracer.spans().size();
  uint64_t dropped = m.sim.tracer.dropped();
  uint64_t t0 = HostNanos();
  Result<RestoreResult> promoted = cli.Promote(group, backend, /*force=*/true);
  uint64_t t1 = HostNanos();
  out_.host_layer_ms["core.host_restore_ms"] += static_cast<double>(t1 - t0) / 1e6;
  if (trace_ != nullptr) {
    trace_->Host("core", "SlsCli::Promote", id, t0, t1);
  }
  if (!promoted.ok()) {
    Fail("promote failed: " + promoted.status().message());
    return promoted;
  }
  RecordSimSpans(m, id, first_span, dropped);
  return promoted;
}

void Round::Verify(const char* what, const ImageGate& gate, ConsistencyGroup* group) {
  PauseRun();
  uint64_t bad = gate.Mismatches(group);
  ResumeRun();
  if (bad != 0) {
    Fail(std::string(what) + ": " + std::to_string(bad) + " of " +
         std::to_string(gate.pages()) + " pages differ from the image the benchmark wrote");
  }
}

void Round::CheckStoreInvariants(Machine& m) {
  out_.attempted++;
  Check(m.store->CheckDedupInvariants(), "dedup invariants");
}

void Round::Fail(const std::string& why) {
  out_.failed++;
  if (out_.failures.size() < 8) {
    out_.failures.push_back(why);
  }
}

bool Round::Check(const Status& status, const std::string& what) {
  if (status.ok()) {
    return true;
  }
  Fail(what + ": " + status.message());
  return false;
}

}  // namespace perfbench
