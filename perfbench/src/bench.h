// The benchmark's measurement harness.
//
// A run repeats one *round* of a workload until its time budget is spent.
// Every round builds a fresh simulated machine from the same seed; the run
// reports host-clock metrics as medians over rounds.
//
// Layers are measured only from outside: the harness times the benchmark's
// calls into public entry points (KvServer::Execute*, VmMap::Write,
// Kernel::*, Sls::Checkpoint / Restore, SlsCli::Promote), reads the
// CheckpointResult / RestoreResult they return, and diffs the machine's
// MetricsRegistry counters and SpanTracer phase spans around the measured
// phase.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "perfbench/src/host_clock.h"
#include "perfbench/src/trace.h"
#include "src/base/rng.h"

namespace perfbench {

using aurora::Result;
using aurora::Status;

// One simulated machine as the paper benches build it (BenchMachine): the
// paper testbed's striped NVMe store, default StoreOptions, default flush
// lanes and the default stop path, so a change to any default shows here.
using Machine = aurora::BenchMachine;

// Pages per 64 KiB store block (BenchMachine's block size).
inline constexpr uint64_t kPagesPerBlock = 64 * aurora::kKiB / aurora::kPageSize;

// Deterministic page contents, regenerated on demand so the correctness gate
// can check a restored image without keeping a copy of it. Page p at
// version v holds a seeded pseudo-random (incompressible, never-repeating)
// fill; with a template pool, version 0 is instead a page of the template
// block chosen for p's 64 KiB block, so whole store blocks repeat.
class PageImage {
 public:
  PageImage(uint64_t salt, uint64_t pages) : salt_(salt), version_(pages, 0) {}

  // Pool of 64 KiB template blocks; `block_template[b]` picks block b's.
  void UseTemplates(const std::vector<std::vector<uint8_t>>* pool,
                    std::vector<uint32_t> block_template) {
    pool_ = pool;
    block_template_ = std::move(block_template);
  }

  uint64_t pages() const { return version_.size(); }
  void Bump(uint64_t page) { version_[page]++; }
  // Rewrites 64 KiB block `block` with template `t` from the pool (an arena
  // reset to shared contents).
  void SetBlock(uint64_t block, uint32_t t);
  void Content(uint64_t page, uint8_t* out) const;

 private:
  uint64_t salt_;
  std::vector<uint32_t> version_;
  const std::vector<std::vector<uint8_t>>* pool_ = nullptr;
  std::vector<uint32_t> block_template_;
};

uint64_t HashPage(const uint8_t* page);

// Expected image of a consistency group: (local pid, page address) -> page
// hash. Built either from the benchmark's PageImages or by reading a live
// process after its final checkpoint, and compared page by page through
// VmMap::Read against whatever a restore or promotion produced.
class ImageGate {
 public:
  void Expect(uint64_t local_pid, uint64_t addr, const PageImage& image);
  // Hashes every page of the group's checkpointed anonymous mappings.
  [[nodiscard]] Status CaptureLive(aurora::ConsistencyGroup* group);
  // Number of pages that differ from (or are missing against) the
  // expectation; 0 means the image is intact.
  uint64_t Mismatches(aurora::ConsistencyGroup* group) const;
  uint64_t pages() const { return expected_.size(); }

 private:
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> expected_;
};

// Everything one round measured. The run reports the simulated part of its
// first round and reduces the host part over all rounds by medians.
struct RoundResult {
  // --- simulated clock -------------------------------------------------------
  std::vector<double> stop_ms;
  std::vector<double> durable_ms;
  std::vector<double> op_us;
  double restore_ms = 0;
  double restore_lazy_ms = 0;
  uint64_t app_ops = 0;
  double app_sim_s = 0;           // simulated length of the measured app loop
  uint64_t dirty_bytes = 0;       // sum of pages_flushed * 4 KiB
  uint64_t device_written = 0;    // device bytes written by the measured loop
  uint64_t used_bytes_end = 0;    // physical bytes held by the checkpoint target
  uint64_t image_bytes = 0;       // logical bytes of the checked image
  double anchor_ops_vs_nockpt = 0;  // kv_periodic only
  struct LayerMetric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<LayerMetric> sim_layer;  // per-layer counters and phase spans

  // --- host clock -------------------------------------------------------------
  std::vector<double> host_ckpt_ms;
  double setup_s = 0;
  double run_s = 0;
  std::map<std::string, double> host_layer_ms;  // traced rounds only

  // --- outcome ---------------------------------------------------------------
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

// Per-round context: layer-call timing, checkpoint and restore
// bookkeeping, counter snapshots and the failure ledger.
class Round {
 public:
  // With `tracing`, layer calls are timed; spans go to `trace` if non-null.
  Round(uint64_t seed, bool first, bool tracing, Trace* trace)
      : seed_(seed), first_(first), tracing_(tracing), trace_(trace) {}

  uint64_t seed() const { return seed_; }
  // The run's first round supplies the simulated metrics (and the paper
  // anchors, which only it computes).
  bool first() const { return first_; }
  RoundResult& out() { return out_; }

  // Times a layer call when tracing (one host span per call); a plain call
  // otherwise, so untraced rounds carry no per-call overhead.
  template <typename F>
  auto Call(const char* layer, const char* call, F&& f) {
    if (!tracing_) {
      return f();
    }
    uint64_t t0 = HostNanos();
    auto result = f();
    uint64_t t1 = HostNanos();
    out_.host_layer_ms[std::string(layer) + ".host_ms"] += static_cast<double>(t1 - t0) / 1e6;
    if (trace_ != nullptr) {
      trace_->Host(layer, call, epoch_id_ + 1, t0, t1);
    }
    return result;
  }

  // Records one application operation: its simulated latency and outcome.
  void Op(bool ok, aurora::SimDuration latency);

  // Set-up starts (host clock).
  void BeginSetup() { setup_begin_ns_ = HostNanos(); }
  // Set-up ends and the measured phase begins: host clock and counters.
  void BeginMeasure(Machine& m);
  // The measured checkpoint loop is over (write/space amplification window).
  void EndLoop(Machine& m, uint64_t used_bytes);
  // The measured phase (restores included) is over: per-layer deltas.
  void EndMeasure(Machine& m);
  // Gate work inside the measured phase is excluded from run time.
  void PauseRun();
  void ResumeRun();

  // One Sls::Checkpoint call, with its stop, durability and phase spans.
  [[nodiscard]] Result<aurora::CheckpointResult> Checkpoint(
      Machine& m, aurora::ConsistencyGroup* group);
  // One Sls::Restore call (eager or lazy), timed and traced.
  [[nodiscard]] Result<aurora::RestoreResult> Restore(
      Machine& m, const std::string& group, aurora::RestoreMode mode,
      aurora::CheckpointBackend* backend = nullptr);
  // One SlsCli::Promote call, timed and traced.
  [[nodiscard]] Result<aurora::RestoreResult> Promote(Machine& m,
                                                              const std::string& group,
                                                              const std::string& backend);
  // Checks a restored group against the gate; a mismatch fails the round.
  void Verify(const char* what, const ImageGate& gate, aurora::ConsistencyGroup* group);
  void CheckStoreInvariants(Machine& m);

  void Fail(const std::string& why);
  // Fails the round on a non-ok status; returns status.ok().
  bool Check(const Status& status, const std::string& what);

 private:
  void RecordSimSpans(Machine& m, uint64_t id, size_t first, uint64_t dropped);
  void Snapshot(Machine& m, std::map<std::string, double>* into) const;

  uint64_t seed_;
  bool first_;
  bool tracing_;
  Trace* trace_;
  RoundResult out_;
  uint64_t epoch_id_ = 0;  // checkpoints taken so far; spans carry id+1
  uint64_t setup_begin_ns_ = 0;
  uint64_t run_begin_ns_ = 0;
  uint64_t paused_ns_ = 0;
  uint64_t pause_begin_ns_ = 0;
  bool measuring_ = false;
  std::map<std::string, double> at_begin_;
  std::map<std::string, double> sim_sums_;  // phase-span and result sums (ns)
};

// A workload: one round's set-up, measured phase and correctness gate.
struct Workload {
  const char* name;
  const char* why;
  void (*run)(Round& round);
};

const std::vector<Workload>& Workloads();

// Self-test of the gate: restores a small image, corrupts one restored page
// and confirms the gate reports it. False if the gate missed it.
bool GateTripsOnCorruptPage();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
