// The four benchmark workloads. Each round builds its machine, runs set-up
// (untimed by the measured phase, timed as setup_s), the measured checkpoint
// loop, then the restores the correctness gate checks. Sizes are scaled so a
// round costs a few host seconds on one core.
#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/apps/kv_server.h"
#include "src/apps/workloads.h"
#include "src/core/backend.h"

namespace perfbench {
namespace {

using aurora::CheckpointResult;
using aurora::ConsistencyGroup;
using aurora::kMillisecond;
using aurora::kPageSize;
using aurora::Process;
using aurora::RestoreMode;
using aurora::RestoreResult;
using aurora::Rng;
using aurora::SimDuration;
using aurora::SimTime;

constexpr SimDuration kPeriod = 10 * kMillisecond;  // the paper's 100 Hz
constexpr uint64_t kHeapBase = 0x40000000;

// base * (1 + u), u uniform in [-frac, +frac]: sizes follow the seed, so no
// simulated metric is the same constant on every seed.
uint64_t Jitter(Rng& rng, uint64_t base, double frac) {
  double u = (rng.NextDouble() * 2 - 1) * frac;
  return static_cast<uint64_t>(static_cast<double>(base) * (1 + u));
}

// Application CPU time per operation outside the measured layers (request
// parsing, value generation), drawn from the seed and charged to the clock.
SimDuration AppCpu(Rng& rng, SimDuration lo, SimDuration hi) { return rng.Range(lo, hi); }

// Ends the measured loop: waits out the last flush, then reports the
// physical bytes the store holds for the group's retained epochs.
void EndStoreLoop(Round& r, Machine& m, SimTime last_durable) {
  m.sim.clock.AdvanceTo(std::max(m.sim.clock.now(), last_durable));
  r.EndLoop(m, m.store->UsedPhysicalBlocks() * m.store->block_size());
}

// Eager then lazy restore of `group`, each checked against `gate`.
void RestoreAndVerify(Round& r, Machine& m, const std::string& group, const ImageGate& gate) {
  Result<RestoreResult> full = r.Restore(m, group, RestoreMode::kFull);
  if (!full.ok()) {
    return;
  }
  r.out().restore_ms = aurora::ToMillis(full->restore_time);
  r.Verify("eager restore", gate, full->group);
  Result<RestoreResult> lazy = r.Restore(m, group, RestoreMode::kLazy);
  if (!lazy.ok()) {
    return;
  }
  r.out().restore_lazy_ms = aurora::ToMillis(lazy->restore_time);
  r.Verify("lazy restore", gate, lazy->group);
}

// Writes one page of `image` into `proc` at `base`, as one app operation:
// value generation (the benchmark's own fill, charged `cpu` of simulated
// time) plus the store into memory, timed as a vm call.
bool WritePage(Round& r, Machine& m, Process* proc, uint64_t base, const PageImage& image,
               uint64_t page, SimDuration cpu, std::vector<uint8_t>& buf) {
  SimTime t0 = m.sim.clock.now();
  image.Content(page, buf.data());
  m.sim.clock.Advance(cpu);
  Status st = r.Call("vm", "VmMap::Write", [&] {
    return proc->vm().Write(base + page * kPageSize, buf.data(), kPageSize);
  });
  r.Op(st.ok(), m.sim.clock.now() - t0);
  return st.ok();
}

// Set-up helper: fills every page of `image` without recording operations.
Status Populate(Process* proc, uint64_t base, const PageImage& image) {
  std::vector<uint8_t> buf(kPageSize);
  for (uint64_t p = 0; p < image.pages(); p++) {
    image.Content(p, buf.data());
    Status st = proc->vm().Write(base + p * kPageSize, buf.data(), kPageSize);
    if (!st.ok()) {
      return st;
    }
  }
  return Status::Ok();
}

// Creates a process with one private anonymous heap at kHeapBase.
Result<Process*> HeapProcess(Machine& m, const std::string& name, uint64_t bytes) {
  AURORA_ASSIGN_OR_RETURN(Process * proc, m.kernel->CreateProcess(name));
  auto obj = aurora::VmObject::CreateAnonymous(bytes);
  AURORA_ASSIGN_OR_RETURN(uint64_t addr, proc->vm().Map(kHeapBase, bytes,
                                                        aurora::kProtRead | aurora::kProtWrite,
                                                        std::move(obj), 0, false));
  if (addr != kHeapBase) {
    return Status::Error(aurora::Errc::kBadState, "heap not mapped at its hint");
  }
  return proc;
}

// Creates the group `name` holding `procs`.
Result<ConsistencyGroup*> MakeGroup(Machine& m, const std::string& name,
                                    const std::vector<Process*>& procs) {
  AURORA_ASSIGN_OR_RETURN(ConsistencyGroup * group, m.sls->CreateGroup(name));
  for (Process* proc : procs) {
    AURORA_RETURN_IF_ERROR(m.sls->Attach(group, proc));
  }
  return group;
}

// A server's listening socket plus `clients` connected-client sockets: the
// connection count is an input property the seed varies.
Status OpenClientSockets(Machine& m, Process* proc, uint64_t clients) {
  AURORA_ASSIGN_OR_RETURN(int listen_fd, m.kernel->MakeSocket(*proc, aurora::SocketDomain::kInet,
                                                              aurora::SocketProto::kTcp));
  AURORA_ASSIGN_OR_RETURN(auto desc, proc->fds().Get(listen_fd));
  auto* listener = static_cast<aurora::Socket*>(desc->object.get());
  AURORA_RETURN_IF_ERROR(listener->Bind({0x7f000001, 6379, ""}));
  AURORA_RETURN_IF_ERROR(listener->Listen(128));
  for (uint64_t c = 0; c < clients; c++) {
    AURORA_RETURN_IF_ERROR(
        m.kernel->MakeSocket(*proc, aurora::SocketDomain::kInet, aurora::SocketProto::kTcp)
            .status());
  }
  return Status::Ok();
}

// The first full checkpoint is set-up: it is taken and waited out before the
// measured phase, so the loop sees only incremental epochs.
bool BaseCheckpoint(Round& r, Machine& m, ConsistencyGroup* group) {
  Result<CheckpointResult> base = r.Checkpoint(m, group);
  if (!base.ok() || base->aborted) {
    return false;
  }
  m.sim.clock.AdvanceTo(base->durable_at);
  return true;
}

// --- kv_periodic -------------------------------------------------------------------

// Fig. 4's closed loop: `conns` connections, each with one request
// outstanding, against the aggregate server pipeline; latency is queueing
// plus service plus the network round trip. With a group, the loop fires a
// checkpoint every period, never before the previous flush is durable.
struct KvLoop {
  uint64_t ops = 0;
  bool ok = true;
};

KvLoop RunKvLoop(Round* r, Machine& m, aurora::KvServer& server, ConsistencyGroup* group,
                 uint64_t seed, SimDuration length, int conns) {
  KvLoop loop;
  aurora::EtcWorkload etc(server.config().num_keys, seed);
  aurora::SimClock& clock = m.sim.clock;
  SimTime start = clock.now();
  SimTime deadline = start + length;
  SimTime next_ckpt = start + kPeriod;
  std::deque<SimTime> sent_at(static_cast<size_t>(conns), start);
  while (clock.now() < deadline) {
    if (group != nullptr && clock.now() >= next_ckpt) {
      Result<CheckpointResult> ckpt = r->Checkpoint(m, group);
      if (!ckpt.ok() || ckpt->aborted) {
        loop.ok = false;
        return loop;
      }
      next_ckpt = std::max(ckpt->durable_at, clock.now() + kPeriod);
    }
    aurora::KvRequest req = etc.Next();
    auto execute = [&] {
      return req.op == aurora::KvOp::kSet
                 ? server.ExecuteSet(req.key, static_cast<uint8_t>(req.key))
                 : server.ExecuteGet(req.key);
    };
    Result<SimDuration> service =
        r != nullptr ? r->Call("apps", "KvServer::Execute", execute) : execute();
    SimTime sent = sent_at.front();
    sent_at.pop_front();
    sent_at.push_back(clock.now());
    loop.ops++;
    if (r != nullptr) {
      r->Op(service.ok(), clock.now() - sent + m.sim.cost.net_rtt);
    }
    if (!service.ok()) {
      loop.ok = false;
      return loop;
    }
  }
  return loop;
}

constexpr int kKvConns = 192;
constexpr SimDuration kKvLength = 1000 * kMillisecond;
constexpr uint64_t kKvKeys = 8 << 10;

aurora::KvServerConfig KvConfig(uint64_t seed) {
  Rng rng(seed ^ 0x6b765f70);
  aurora::KvServerConfig config;
  config.num_keys = Jitter(rng, kKvKeys, 0.005);
  config.value_size = 200;
  config.op_cpu = 920;  // 12 workers at ~11 us/op, as in the Fig. 4 bench
  return config;
}

void KvPeriodic(Round& r) {
  r.BeginSetup();
  Machine m;
  aurora::KvServer server(&m.sim, m.kernel.get(), KvConfig(r.seed()));
  Rng rng(r.seed() ^ 0x636f6e6e);
  if (!r.Check(server.Warmup(), "kv warmup") ||
      !r.Check(OpenClientSockets(m, server.process(), rng.Range(32, 64)), "client sockets")) {
    return;
  }
  Result<ConsistencyGroup*> group = MakeGroup(m, "memcached", {server.process()});
  if (!r.Check(group.status(), "create group") || !BaseCheckpoint(r, m, *group)) {
    return;
  }
  r.BeginMeasure(m);
  SimTime start = m.sim.clock.now();
  KvLoop loop = RunKvLoop(&r, m, server, *group, r.seed(), kKvLength, kKvConns);
  r.out().app_sim_s = aurora::ToSeconds(m.sim.clock.now() - start);
  if (!loop.ok) {
    return;
  }
  // A last checkpoint after the final request, so the live image is exactly
  // what the restore must reproduce.
  Result<CheckpointResult> last = r.Checkpoint(m, *group);
  if (!last.ok() || last->aborted) {
    return;
  }
  EndStoreLoop(r, m, last->durable_at);
  ImageGate gate;
  r.PauseRun();
  Status captured = gate.CaptureLive(*group);
  r.ResumeRun();
  if (!r.Check(captured, "capture live image")) {
    return;
  }
  r.out().image_bytes = gate.pages() * kPageSize;
  RestoreAndVerify(r, m, "memcached", gate);
  r.CheckStoreInvariants(m);
  r.EndMeasure(m);

  // Paper anchor (report-only): the same loop without checkpoints.
  if (!r.first()) {
    return;
  }
  Machine bare;
  aurora::KvServer bare_server(&bare.sim, bare.kernel.get(), KvConfig(r.seed()));
  if (bare_server.Warmup().ok()) {
    KvLoop nockpt =
        RunKvLoop(nullptr, bare, bare_server, nullptr, r.seed(), kKvLength, kKvConns);
    if (nockpt.ok && nockpt.ops > 0) {
      r.out().anchor_ops_vs_nockpt =
          static_cast<double>(loop.ops) / static_cast<double>(nockpt.ops);
    }
  }
}

// --- heap_scatter ------------------------------------------------------------------

// Each epoch dirties 1/32 of the heap, the rate of a 64 MiB heap taking
// 2 MiB of scattered writes per epoch, on a heap scaled to 8 MiB.
constexpr uint64_t kScatterHeapPages = 2048;  // 8 MiB
constexpr uint64_t kScatterDirtyShare = 32;   // 1/32 of the heap per epoch
constexpr int kScatterEpochs = 60;

void HeapScatter(Round& r) {
  r.BeginSetup();
  Rng rng(r.seed() ^ 0x68656170);
  Machine m;
  PageImage image(r.seed() * 31 + 1, Jitter(rng, kScatterHeapPages, 0.01));
  Result<Process*> proc = HeapProcess(m, "redis", image.pages() * kPageSize);
  if (!r.Check(proc.status(), "create heap") ||
      !r.Check(Populate(*proc, kHeapBase, image), "populate heap") ||
      !r.Check(OpenClientSockets(m, *proc, rng.Range(12, 20)), "client sockets")) {
    return;
  }
  Result<ConsistencyGroup*> group = MakeGroup(m, "redis", {*proc});
  if (!r.Check(group.status(), "create group") || !BaseCheckpoint(r, m, *group)) {
    return;
  }
  r.BeginMeasure(m);
  SimTime start = m.sim.clock.now();
  SimTime durable = start;
  std::vector<uint8_t> buf(kPageSize);
  for (int epoch = 0; epoch < kScatterEpochs; epoch++) {
    uint64_t writes = Jitter(rng, image.pages() / kScatterDirtyShare, 0.03);
    for (uint64_t i = 0; i < writes; i++) {
      uint64_t page = rng.Below(image.pages());
      image.Bump(page);
      if (!WritePage(r, m, *proc, kHeapBase, image, page, AppCpu(rng, 2000, 6000), buf)) {
        return;
      }
    }
    // As the periodic scheduler does: no checkpoint starts before the
    // previous one is durable.
    m.sim.clock.AdvanceTo(std::max(m.sim.clock.now(), durable));
    Result<CheckpointResult> ckpt = r.Checkpoint(m, *group);
    if (!ckpt.ok() || ckpt->aborted) {
      return;
    }
    durable = ckpt->durable_at;
  }
  r.out().app_sim_s = aurora::ToSeconds(m.sim.clock.now() - start);
  EndStoreLoop(r, m, durable);
  ImageGate gate;
  r.PauseRun();
  gate.Expect((*proc)->local_pid(), kHeapBase, image);
  r.ResumeRun();
  r.out().image_bytes = gate.pages() * kPageSize;
  RestoreAndVerify(r, m, "redis", gate);
  r.CheckStoreInvariants(m);
  r.EndMeasure(m);
}

// --- app_fleet ---------------------------------------------------------------------

// Table 6 profiles, built as the paper benches build them (BuildAppProfile),
// with resident memory scaled down 16x so a round stays within a few host
// seconds.
std::vector<aurora::AppProfile> FleetProfiles() {
  return {
      {"firefox", 198 * aurora::kMiB / 16, 4, 60, 225, 45, 2},
      {"tomcat", 197 * aurora::kMiB / 16, 1, 80, 1100, 260, 4},
      {"vim", 48 * aurora::kMiB / 16, 1, 1, 520, 20, 1},
  };
}

// Heap traffic follows the repository's paper benches: each epoch every app
// dirties one 64 KiB block (the 16-page idle-epoch dirty set of the Table 6
// and stop-path benches), and two of every three blocks written are drawn
// from a pool of 8 shared templates, the rest fresh (the dedup ablation's
// mix).
constexpr uint64_t kTemplateBlocks = 8;
constexpr uint64_t kFreshEvery = 3;  // written block c is fresh iff c % 3 == 0
constexpr int kFleetEpochs = 40;
constexpr uint64_t kKeepEpochs = 4;

// One fleet process: its heap image and the descriptors the churn reuses.
struct FleetProc {
  Process* proc = nullptr;
  std::unique_ptr<PageImage> heap;
  std::vector<int> pipe_writers;
  std::vector<int> pipe_readers;
  std::vector<int> kqueues;
  std::deque<int> churn_fds;  // opened by the churn, closed oldest-first
};

// Fills the heap BuildAppProfile mapped for `fp.proc` from the template pool
// and finds the pipes and kqueues the churn reuses.
Status PrepareFleetProcess(uint64_t heap_bytes, uint64_t salt,
                           const std::vector<std::vector<uint8_t>>* pool, Rng& rng,
                           FleetProc& fp) {
  uint64_t pages = heap_bytes / kPageSize;
  fp.heap = std::make_unique<PageImage>(salt, pages);
  std::vector<uint32_t> templates((pages + kPagesPerBlock - 1) / kPagesPerBlock);
  for (uint32_t& t : templates) {
    t = static_cast<uint32_t>(rng.Below(pool->size()));
  }
  fp.heap->UseTemplates(pool, std::move(templates));
  AURORA_RETURN_IF_ERROR(Populate(fp.proc, kHeapBase, *fp.heap));
  std::map<const aurora::FileObject*, std::pair<int, int>> pipes;  // reader, writer
  const auto& slots = fp.proc->fds().slots();
  for (size_t fd = 0; fd < slots.size(); fd++) {
    const aurora::FileDescription* desc = slots[fd].desc.get();
    if (desc == nullptr) {
      continue;
    }
    if (desc->object->type() == aurora::FileType::kKqueue) {
      fp.kqueues.push_back(static_cast<int>(fd));
    } else if (desc->object->type() == aurora::FileType::kPipe) {
      auto& ends = pipes.try_emplace(desc->object.get(), -1, -1).first->second;
      (desc->open_flags & aurora::kOpenWrite ? ends.second : ends.first) = static_cast<int>(fd);
    }
  }
  for (const auto& entry : pipes) {
    if (entry.second.first >= 0 && entry.second.second >= 0) {
      fp.pipe_readers.push_back(entry.second.first);
      fp.pipe_writers.push_back(entry.second.second);
    }
  }
  return Status::Ok();
}

// One OS-state churn operation on a random fleet process.
Status ChurnOp(Machine& m, Round& r, FleetProc& fp, Rng& rng, uint64_t serial) {
  Process& proc = *fp.proc;
  aurora::Kernel& kernel = *m.kernel;
  switch (rng.Below(4)) {
    case 0: {  // open a scratch file, write a record, keep it open a while
      std::string path = "churn-" + std::to_string(proc.local_pid()) + "-" +
                         std::to_string(serial);
      Result<int> fd = r.Call("posix", "Kernel::Open", [&] {
        return kernel.Open(proc, path, aurora::kOpenRead | aurora::kOpenWrite, true);
      });
      AURORA_RETURN_IF_ERROR(fd.status());
      uint64_t record = serial;
      AURORA_RETURN_IF_ERROR(r.Call("posix", "Kernel::WriteFd", [&] {
                               return kernel.WriteFd(proc, *fd, &record, sizeof(record));
                             }).status());
      fp.churn_fds.push_back(*fd);
      break;
    }
    case 1: {  // a pipe message, drained by the reader
      if (fp.pipe_writers.empty()) {
        break;
      }
      size_t i = rng.Below(fp.pipe_writers.size());
      uint8_t msg[64];
      std::fill(std::begin(msg), std::end(msg), static_cast<uint8_t>(serial));
      AURORA_RETURN_IF_ERROR(r.Call("posix", "Kernel::WriteFd", [&] {
                               return kernel.WriteFd(proc, fp.pipe_writers[i], msg, sizeof(msg));
                             }).status());
      AURORA_RETURN_IF_ERROR(r.Call("posix", "Kernel::ReadFd", [&] {
                               return kernel.ReadFd(proc, fp.pipe_readers[i], msg, sizeof(msg));
                             }).status());
      break;
    }
    case 2: {  // a short-lived socket
      Result<int> fd = r.Call("posix", "Kernel::MakeSocket", [&] {
        return kernel.MakeSocket(proc, aurora::SocketDomain::kInet, aurora::SocketProto::kUdp);
      });
      AURORA_RETURN_IF_ERROR(fd.status());
      fp.churn_fds.push_back(*fd);
      break;
    }
    default: {  // a kqueue registration change
      if (fp.kqueues.empty()) {
        break;
      }
      int kq_fd = fp.kqueues[rng.Below(fp.kqueues.size())];
      AURORA_ASSIGN_OR_RETURN(auto desc, proc.fds().Get(kq_fd));
      auto* kq = static_cast<aurora::Kqueue*>(desc->object.get());
      r.Call("posix", "Kqueue::Register", [&] {
        kq->Register(aurora::KEvent{1000 + serial, -1, 1, 0, 0, 0});
        return 0;
      });
      break;
    }
  }
  // Keep each process's descriptor count steady: close the oldest churn fd.
  if (fp.churn_fds.size() > 8) {
    int fd = fp.churn_fds.front();
    fp.churn_fds.pop_front();
    AURORA_RETURN_IF_ERROR(
        r.Call("posix", "Kernel::Close", [&] { return kernel.Close(proc, fd); }));
  }
  return Status::Ok();
}

void AppFleet(Round& r) {
  r.BeginSetup();
  Rng rng(r.seed() ^ 0x666c6565);
  Machine m;
  // Shared page templates: forked workers map the same libraries and arenas.
  std::vector<std::vector<uint8_t>> pool(kTemplateBlocks);
  for (size_t t = 0; t < pool.size(); t++) {
    PageImage fill(r.seed() * 131 + t, kPagesPerBlock);
    pool[t].resize(kPagesPerBlock * kPageSize);
    for (uint64_t p = 0; p < kPagesPerBlock; p++) {
      fill.Content(p, pool[t].data() + p * kPageSize);
    }
  }
  std::vector<aurora::AppProfile> profiles = FleetProfiles();
  std::vector<FleetProc> fleet;
  std::vector<std::vector<size_t>> by_app(profiles.size());
  for (size_t app = 0; app < profiles.size(); app++) {
    aurora::AppProfile& prof = profiles[app];
    prof.rss_bytes = Jitter(rng, prof.rss_bytes, 0.01);
    uint64_t per_proc = aurora::PageRound(prof.rss_bytes / static_cast<uint64_t>(prof.processes));
    for (Process* proc : aurora::BuildAppProfile(m, prof)) {
      FleetProc fp;
      fp.proc = proc;
      Status prepared = PrepareFleetProcess(per_proc, r.seed() * 977 + fleet.size(), &pool, rng, fp);
      if (!r.Check(prepared, "prepare fleet process")) {
        return;
      }
      by_app[app].push_back(fleet.size());
      fleet.push_back(std::move(fp));
    }
  }
  std::vector<Process*> procs;
  for (FleetProc& fp : fleet) {
    procs.push_back(fp.proc);
  }
  Result<ConsistencyGroup*> group = MakeGroup(m, "fleet", procs);
  if (!r.Check(group.status(), "create group")) {
    return;
  }
  m.sls->SetRetentionPolicy(*group, aurora::RetentionPolicy{kKeepEpochs, 0});
  if (!BaseCheckpoint(r, m, *group)) {
    return;
  }
  r.BeginMeasure(m);
  SimTime start = m.sim.clock.now();
  SimTime durable = start;
  std::vector<uint8_t> buf(kPageSize);
  uint64_t serial = 0;
  uint64_t blocks_written = 0;
  for (int epoch = 0; epoch < kFleetEpochs; epoch++) {
    uint64_t churn = rng.Range(22, 26);
    for (uint64_t i = 0; i < churn; i++) {
      FleetProc& fp = fleet[rng.Below(fleet.size())];
      SimTime t0 = m.sim.clock.now();
      m.sim.clock.Advance(AppCpu(rng, 1000, 4000));
      Status st = ChurnOp(m, r, fp, rng, serial++);
      r.Op(st.ok(), m.sim.clock.now() - t0);
      if (!st.ok()) {
        return;
      }
    }
    for (const std::vector<size_t>& procs_of_app : by_app) {
      FleetProc& fp = fleet[procs_of_app[rng.Below(procs_of_app.size())]];
      uint64_t block = rng.Below(fp.heap->pages() / kPagesPerBlock);
      if (blocks_written++ % kFreshEvery != 0) {
        fp.heap->SetBlock(block, static_cast<uint32_t>(rng.Below(kTemplateBlocks)));
      } else {
        for (uint64_t p = 0; p < kPagesPerBlock; p++) {
          fp.heap->Bump(block * kPagesPerBlock + p);
        }
      }
      for (uint64_t p = 0; p < kPagesPerBlock; p++) {
        if (!WritePage(r, m, fp.proc, kHeapBase, *fp.heap, block * kPagesPerBlock + p,
                       AppCpu(rng, 1000, 4000), buf)) {
          return;
        }
      }
    }
    m.sim.clock.AdvanceTo(std::max(m.sim.clock.now(), durable));
    Result<CheckpointResult> ckpt = r.Checkpoint(m, *group);
    if (!ckpt.ok() || ckpt->aborted) {
      return;
    }
    durable = ckpt->durable_at;
  }
  r.out().app_sim_s = aurora::ToSeconds(m.sim.clock.now() - start);
  EndStoreLoop(r, m, durable);
  ImageGate gate;
  r.PauseRun();
  Status captured = gate.CaptureLive(*group);  // small regions, as the program holds them
  for (const FleetProc& fp : fleet) {
    gate.Expect(fp.proc->local_pid(), kHeapBase, *fp.heap);  // heaps, as the benchmark wrote them
  }
  r.ResumeRun();
  if (!r.Check(captured, "capture live image")) {
    return;
  }
  r.out().image_bytes = gate.pages() * kPageSize;
  RestoreAndVerify(r, m, "fleet", gate);
  r.CheckStoreInvariants(m);
  r.EndMeasure(m);
}

// --- standby_stream ----------------------------------------------------------------

constexpr uint64_t kStreamPages = 8192;  // 32 MiB appender region
constexpr int kStreamEpochs = 240;

void StandbyStream(Round& r) {
  r.BeginSetup();
  Rng rng(r.seed() ^ 0x7374616e);
  aurora::ReplicaLink link;  // outlives the machine's backends
  Machine m;
  auto* standby = static_cast<aurora::ReplicaStandby*>(
      m.sls->RegisterBackend(std::make_unique<aurora::ReplicaStandby>(&m.sim, &link)));
  m.sls->RegisterBackend(std::make_unique<aurora::ReplicaBackend>(&m.sim, standby, &link));
  PageImage image(r.seed() * 7 + 3, Jitter(rng, kStreamPages, 0.01));
  Result<Process*> proc = HeapProcess(m, "appender", image.pages() * kPageSize);
  if (!r.Check(proc.status(), "create appender") ||
      !r.Check(Populate(*proc, kHeapBase, image), "populate region")) {
    return;
  }
  // The appender's open log segments.
  for (uint64_t f = rng.Range(49, 51); f > 0; f--) {
    if (!r.Check(m.kernel->Open(**proc, "log-" + std::to_string(f),
                                aurora::kOpenWrite | aurora::kOpenAppend, true)
                     .status(),
                 "open log")) {
      return;
    }
  }
  Result<ConsistencyGroup*> group = MakeGroup(m, "app", {*proc});
  if (!r.Check(group.status(), "create group") ||
      !r.Check(m.sls->SetBackend(*group, "replica"), "route group to replica") ||
      !BaseCheckpoint(r, m, *group)) {
    return;
  }
  r.BeginMeasure(m);
  SimTime start = m.sim.clock.now();
  SimTime durable = start;
  uint64_t cursor = 0;
  std::vector<uint8_t> buf(kPageSize);
  for (int epoch = 0; epoch < kStreamEpochs; epoch++) {
    // fig3-style sequential appends. The promotion waits out the ingest of
    // the epoch before the crash, so that epoch's size is kept narrow.
    uint64_t chunk = epoch + 1 < kStreamEpochs ? rng.Range(88, 104) : rng.Range(94, 98);
    for (uint64_t i = 0; i < chunk; i++) {
      image.Bump(cursor);
      if (!WritePage(r, m, *proc, kHeapBase, image, cursor, AppCpu(rng, 1000, 3000), buf)) {
        return;
      }
      cursor = (cursor + 1) % image.pages();
    }
    m.sim.clock.AdvanceTo(std::max(m.sim.clock.now(), durable));
    Result<CheckpointResult> ckpt = r.Checkpoint(m, *group);
    if (!ckpt.ok() || ckpt->aborted) {
      return;
    }
    durable = ckpt->durable_at;
  }
  r.out().app_sim_s = aurora::ToSeconds(m.sim.clock.now() - start);
  // The primary host dies as soon as its last epoch is durable; the standby
  // may still be applying it.
  m.sim.clock.AdvanceTo(std::max(m.sim.clock.now(), durable));
  uint64_t held = 0;
  for (const auto& [oid, object] : standby->object_table()) {
    held += object.pages.size() * kPageSize;
  }
  r.EndLoop(m, held);
  ImageGate gate;
  r.PauseRun();
  gate.Expect((*proc)->local_pid(), kHeapBase, image);
  r.ResumeRun();
  r.out().image_bytes = gate.pages() * kPageSize;
  for (Process* p : (*group)->processes) {
    m.kernel->DestroyProcess(p);
  }
  (*group)->processes.clear();
  Result<RestoreResult> promoted = r.Promote(m, "app", "replica");
  if (promoted.ok()) {
    r.out().restore_ms = aurora::ToMillis(promoted->restore_time);
    r.Verify("promote", gate, promoted->group);
    Result<RestoreResult> lazy = r.Restore(m, "app", RestoreMode::kLazy, standby);
    if (lazy.ok()) {
      r.out().restore_lazy_ms = aurora::ToMillis(lazy->restore_time);
      r.Verify("lazy restore from standby", gate, lazy->group);
    }
  }
  r.CheckStoreInvariants(m);
  r.EndMeasure(m);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"kv_periodic",
       "memcached-like KvServer, ETC mix, 10 ms transparent checkpoints (Fig. 4 headline): vm "
       "fault storm and stop path, many small compressible flushes",
       KvPeriodic},
      {"heap_scatter",
       "Redis-like heap, incompressible never-repeating 4 KiB writes scattered per epoch: "
       "objstore miss path, device bandwidth, restore reads",
       HeapScatter},
      {"app_fleet",
       "Table 6 firefox+tomcat+vim in one group with fd/socket/kqueue churn and templated "
       "heaps: posix+serialize stop time, dedup hit path, retention GC",
       AppFleet},
      {"standby_stream",
       "fig3-style appender checkpointed to a warm ReplicaStandby, then host crash and promote: "
       "replica backend and net link",
       StandbyStream},
  };
  return kAll;
}

bool GateTripsOnCorruptPage() {
  Machine m;
  PageImage image(0x5e1f7e57, 16);
  Result<Process*> proc = HeapProcess(m, "selftest", image.pages() * kPageSize);
  if (!proc.ok() || !Populate(*proc, kHeapBase, image).ok()) {
    return false;
  }
  Result<ConsistencyGroup*> group = MakeGroup(m, "selftest", {*proc});
  if (!group.ok()) {
    return false;
  }
  Result<CheckpointResult> ckpt = m.sls->Checkpoint(*group);
  if (!ckpt.ok() || ckpt->aborted) {
    return false;
  }
  m.sim.clock.AdvanceTo(ckpt->durable_at);
  ImageGate gate;
  gate.Expect((*proc)->local_pid(), kHeapBase, image);
  Result<RestoreResult> restored = m.sls->Restore("selftest", 0, RestoreMode::kFull);
  if (!restored.ok() || gate.Mismatches(restored->group) != 0) {
    return false;  // the intact image must pass
  }
  // Flip one byte of one restored page.
  Process* victim = restored->group->processes.front();
  uint64_t addr = kHeapBase + 5 * kPageSize + 123;
  uint8_t byte = 0;
  if (!victim->vm().Read(addr, &byte, 1).ok()) {
    return false;
  }
  byte ^= 0xFF;
  if (!victim->vm().Write(addr, &byte, 1).ok()) {
    return false;
  }
  return gate.Mismatches(restored->group) == 1;  // exactly the corrupted page
}

}  // namespace perfbench
