// Second wave of SLS tests: API edges, quiescing behavior under checkpoints,
// group lifecycle, UDP/SysV coverage, CLI surface.
#include <gtest/gtest.h>

#include <cstring>

#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

struct Machine {
  explicit Machine(uint64_t store_bytes = 1 * kGiB, StoreOptions options = StoreOptions()) {
    device = MakePaperTestbedStore(&sim.clock, store_bytes);
    store = *ObjectStore::Format(device.get(), &sim, options);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }
  void Reboot() {
    store = *ObjectStore::Open(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }
  SimContext sim;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

TEST(SlsGroups, DuplicateNamesAndAttachesRejected) {
  Machine m;
  ASSERT_TRUE(m.sls->CreateGroup("g").ok());
  EXPECT_FALSE(m.sls->CreateGroup("g").ok());
  Process* p = *m.kernel->CreateProcess("p");
  ConsistencyGroup* g = m.sls->FindGroup("g");
  ASSERT_TRUE(m.sls->Attach(g, p).ok());
  EXPECT_FALSE(m.sls->Attach(g, p).ok());
  EXPECT_TRUE(m.sls->Detach(p).ok());
  EXPECT_FALSE(m.sls->Detach(p).ok());
}

TEST(SlsGroups, DetachedProcessNotCheckpointed) {
  Machine m;
  Process* keeper = *m.kernel->CreateProcess("keeper");
  Process* worker = *m.kernel->CreateProcess("worker");
  ConsistencyGroup* g = *m.sls->CreateGroup("g");
  ASSERT_TRUE(m.sls->Attach(g, keeper).ok());
  ASSERT_TRUE(m.sls->Attach(g, worker).ok());
  ASSERT_TRUE(m.sls->Detach(worker).ok());  // sls detach: now ephemeral
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  auto restored = *m.sls->Restore("g");
  EXPECT_EQ(restored.group->processes.size(), 1u);
  EXPECT_EQ(restored.group->processes[0]->name(), "keeper");
}

TEST(SlsQuiesce, SleepingSyscallsRestartTransparently) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("sleeper");
  proc->threads()[0]->state = ThreadState::kKernelSleeping;
  ConsistencyGroup* g = *m.sls->CreateGroup("sleeper");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  // After resume the thread is back in its (reissued) sleeping syscall and
  // the restart flag has been consumed — no EINTR surfaces.
  EXPECT_EQ(proc->threads()[0]->state, ThreadState::kKernelSleeping);
  EXPECT_FALSE(proc->threads()[0]->restart_syscall);
}

TEST(SlsQuiesce, ThreadStateSurvivesRestore) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("threads");
  Thread& t2 = proc->AddThread();
  t2.cpu.rip = 0xdeadbeef;
  t2.cpu.rsp = 0x7fffffff0000;
  t2.cpu.gpr[0] = 42;
  t2.cpu.fpu[0] = 0x99;
  t2.sigmask = 0xf0f0;
  t2.priority = 7;
  uint64_t t2_local = t2.local_tid();
  ConsistencyGroup* g = *m.sls->CreateGroup("threads");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("threads");
  auto& threads = restored.group->processes[0]->threads();
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads[1]->local_tid(), t2_local);
  EXPECT_EQ(threads[1]->cpu.rip, 0xdeadbeefu);
  EXPECT_EQ(threads[1]->cpu.rsp, 0x7fffffff0000u);
  EXPECT_EQ(threads[1]->cpu.gpr[0], 42u);
  EXPECT_EQ(threads[1]->cpu.fpu[0], 0x99);
  EXPECT_EQ(threads[1]->sigmask, 0xf0f0u);
  EXPECT_EQ(threads[1]->priority, 7);
}

TEST(SlsSignals, PendingSignalsAndHandlersSurvive) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("sig");
  proc->sigactions[10].handler = 0x401000;
  proc->sigactions[10].mask = 0x400;
  ASSERT_TRUE(m.kernel->Kill(proc->local_pid(), 10).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("sig");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("sig");
  Process* rp = restored.group->processes[0];
  EXPECT_TRUE(rp->pending_signals & (1ull << 10));
  EXPECT_EQ(rp->sigactions[10].handler, 0x401000u);
  EXPECT_EQ(rp->signal_queue.size(), 1u);
}

TEST(SlsSockets, UdpSocketStateSurvives) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("udp");
  int fd = *m.kernel->MakeSocket(*proc, SocketDomain::kInet, SocketProto::kUdp);
  auto sock = std::static_pointer_cast<Socket>((*proc->fds().Get(fd))->object);
  ASSERT_TRUE(sock->Bind({0x0a000002, 5353, ""}).ok());
  sock->options[1] = 64 * 1024;  // SO_RCVBUF
  SockSegment datagram;
  datagram.data = {'p', 'k', 't'};
  datagram.from = {0x0a000003, 9999, ""};
  sock->recv_bytes += datagram.data.size();
  sock->recv_buf.push_back(datagram);

  ConsistencyGroup* g = *m.sls->CreateGroup("udp");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("udp");
  auto* rs = static_cast<Socket*>(
      (*restored.group->processes[0]->fds().Get(fd))->object.get());
  EXPECT_EQ(rs->proto(), SocketProto::kUdp);
  EXPECT_EQ(rs->local.port, 5353);
  EXPECT_EQ(rs->options[1], 64 * 1024);
  ASSERT_EQ(rs->recv_buf.size(), 1u);
  EXPECT_EQ(rs->recv_buf[0].from.port, 9999);
}

TEST(SlsSockets, ConnectedPairRelinkedWithinGroup) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  Process* b = *m.kernel->CreateProcess("b");
  int lfd = *m.kernel->MakeSocket(*b, SocketDomain::kInet, SocketProto::kTcp);
  auto listener = std::static_pointer_cast<Socket>((*b->fds().Get(lfd))->object);
  ASSERT_TRUE(listener->Bind({1, 80, ""}).ok());
  ASSERT_TRUE(listener->Listen(4).ok());
  int cfd = *m.kernel->MakeSocket(*a, SocketDomain::kInet, SocketProto::kTcp);
  auto client = std::static_pointer_cast<Socket>((*a->fds().Get(cfd))->object);
  ASSERT_TRUE(client->Bind({2, 3333, ""}).ok());
  auto server_end = *client->ConnectTo(listener);
  auto sdesc = std::make_shared<FileDescription>();
  sdesc->object = server_end;
  int sfd = b->fds().Install(sdesc);
  ASSERT_TRUE(client->Send("hello", 5).ok());
  uint32_t saved_snd_seq = client->snd_seq;

  ConsistencyGroup* g = *m.sls->CreateGroup("pair");
  ASSERT_TRUE(m.sls->Attach(g, a).ok());
  ASSERT_TRUE(m.sls->Attach(g, b).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("pair");
  auto rclient = std::static_pointer_cast<Socket>(
      (*restored.group->processes[0]->fds().Get(cfd))->object);
  auto rserver = std::static_pointer_cast<Socket>(
      (*restored.group->processes[1]->fds().Get(sfd))->object);
  EXPECT_EQ(rclient->snd_seq, saved_snd_seq) << "TCP sequence numbers restored";
  // The pair is relinked: a fresh send flows end to end.
  ASSERT_TRUE(rclient->Send("again", 5).ok());
  bool found = false;
  for (const auto& seg : rserver->recv_buf) {
    found |= std::string(seg.data.begin(), seg.data.end()) == "again";
  }
  EXPECT_TRUE(found);
}

TEST(SlsDevices, NonWhitelistedDeviceBlocksCheckpointRestore) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("gpu-app");
  int fd = *m.kernel->OpenDevice(*proc, "gpu0");  // not on the whitelist
  (void)fd;
  ConsistencyGroup* g = *m.sls->CreateGroup("gpu-app");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  // The checkpoint records the device, but restore refuses to fabricate it.
  auto restored = m.sls->Restore("gpu-app");
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), Errc::kNotSupported);
}

TEST(SlsAio, PendingReadsReissuedAfterRestore) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("aio");
  int fd = *m.kernel->Open(*proc, "data", kOpenRead, true);
  m.kernel->SubmitAio(*proc, fd, AioRequest::Op::kRead, 4096, 8192);
  m.kernel->SubmitAio(*proc, fd, AioRequest::Op::kWrite, 0, 4096);
  ConsistencyGroup* g = *m.sls->CreateGroup("aio");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("aio");
  Process* rp = restored.group->processes[0];
  // Only the read survives (writes were drained into the checkpoint) and it
  // is in-flight again, ready to be reissued.
  ASSERT_EQ(rp->aios.size(), 1u);
  EXPECT_EQ(rp->aios[0].op, AioRequest::Op::kRead);
  EXPECT_EQ(rp->aios[0].state, AioRequest::State::kInFlight);
  EXPECT_EQ(rp->aios[0].offset, 4096u);
}

TEST(SlsBarrier, AdvancesToDurability) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("b");
  auto obj = VmObject::CreateAnonymous(4 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 4 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 4 * kMiB).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("b");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  auto ckpt = *m.sls->Checkpoint(g);
  EXPECT_GT(ckpt.durable_at, m.sim.clock.now()) << "flush must be asynchronous";
  ASSERT_TRUE(m.sls->Barrier(g).ok());
  EXPECT_GE(m.sim.clock.now(), ckpt.durable_at);
}

TEST(SlsCliSurface, PsListsGroupsAndHistory) {
  Machine m;
  SlsCli cli(m.sls.get());
  Process* proc = *m.kernel->CreateProcess("app");
  ASSERT_TRUE(cli.Attach("app", proc).ok());
  ASSERT_TRUE(cli.Checkpoint("app", "named-one").ok());
  auto lines = cli.Ps();
  bool saw_group = false;
  bool saw_ckpt = false;
  for (const auto& line : lines) {
    saw_group |= line.find("app") != std::string::npos && line.find("procs=1") != std::string::npos;
    saw_ckpt |= line.find("named-one") != std::string::npos;
  }
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_ckpt);
  EXPECT_FALSE(cli.Checkpoint("missing", "x").ok());
  EXPECT_FALSE(cli.Suspend("missing").ok());
  EXPECT_FALSE(cli.Dump("app", 424242).ok());
}

TEST(SlsRestoreModes, LazyRestoredAppCheckpointsIncrementally) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("lazy2");
  auto obj = VmObject::CreateAnonymous(4 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 4 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 4 * kMiB).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("lazy2");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());

  auto restored = *m.sls->Restore("lazy2", 0, RestoreMode::kLazy);
  Process* rp = restored.group->processes[0];
  // Touch a few pages, then checkpoint: only those pages flush.
  uint64_t v = 123;
  ASSERT_TRUE(rp->vm().Write(addr + 64 * kPageSize, &v, sizeof(v)).ok());
  auto second = *m.sls->Checkpoint(restored.group);
  EXPECT_LE(second.pages_flushed, 8u)
      << "a lazily restored app must not re-flush its whole image";
  // And the data is still complete at the new epoch after a reboot.
  m.Reboot();
  auto again = *m.sls->Restore("lazy2");
  uint64_t got = 0;
  ASSERT_TRUE(again.group->processes[0]->vm().Read(addr + 64 * kPageSize, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 123u);
}

TEST(SlsManifest, PeekAndMemoryListing) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("peek");
  auto obj = VmObject::CreateAnonymous(128 * kKiB);
  AURORA_IGNORE_STATUS(proc->vm().Map(0x400000, 128 * kKiB, kProtRead | kProtWrite, obj, 0, false), "mapping exists only to add payload; the address is unused");
  ConsistencyGroup* g = *m.sls->CreateGroup("peek");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  auto ckpt = *m.sls->Checkpoint(g);
  auto found = *m.sls->FindManifest("peek", ckpt.epoch);
  std::vector<uint8_t> manifest(*m.store->SizeAtEpoch(found.epoch, found.oid));
  ASSERT_TRUE(
      m.store->ReadAtEpoch(found.epoch, found.oid, 0, manifest.data(), manifest.size()).ok());
  EXPECT_EQ(manifest, found.blob);
  auto head = *PeekManifest(manifest);
  EXPECT_EQ(head.name, "peek");
  EXPECT_EQ(head.epoch, ckpt.epoch);
  auto memory = *ManifestMemoryObjects(manifest);
  ASSERT_FALSE(memory.empty());
  EXPECT_EQ(memory[0].second % kPageSize, 0u);
  EXPECT_FALSE(m.sls->FindManifest("nope", 0).ok());
}

TEST(SlsManifest, StoreLookupReadsTheManifestOnce) {
  // Raw store: every extent read moves one whole store block, so the
  // expected device traffic is exact.
  StoreOptions raw;
  raw.dedup = false;
  raw.codec = CodecId::kRaw;
  Machine m(1 * kGiB, raw);
  Process* proc = *m.kernel->CreateProcess("once");
  auto obj = VmObject::CreateAnonymous(128 * kKiB);
  AURORA_IGNORE_STATUS(proc->vm().Map(0x400000, 128 * kKiB, kProtRead | kProtWrite, obj, 0, false), "mapping exists only to add payload; the address is unused");
  ConsistencyGroup* g = *m.sls->CreateGroup("once");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  auto ckpt = *m.sls->Checkpoint(g);
  // Warm the epoch table so the lookup's only device reads are manifest
  // blocks.
  ASSERT_TRUE(m.store->ObjectsAtEpoch(ckpt.epoch).ok());
  uint64_t before = m.device->stats().bytes_read;
  auto loaded = m.sls->store_backend()->LoadManifest("once", ckpt.epoch);
  ASSERT_TRUE(loaded.ok());
  ASSERT_FALSE(loaded->blob.empty());
  // The scan also reads the file-system namespace blob, which is typed
  // kManifest as well and precedes the group manifest in oid order. Each
  // candidate is read exactly once: the header check and the returned blob
  // share one read.
  RestoredGroup head = *PeekManifest(loaded->blob);
  ASSERT_LT(head.namespace_oid, loaded->oid);
  uint64_t bs = m.store->block_size();
  uint64_t ns_size = *m.store->SizeAtEpoch(ckpt.epoch, head.namespace_oid);
  uint64_t blocks = (loaded->blob.size() + bs - 1) / bs + (ns_size + bs - 1) / bs;
  EXPECT_EQ(m.device->stats().bytes_read - before, blocks * bs);
}

TEST(SlsSysV, SegmentsSurviveRestoreWithIdsAndSharing) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  Process* b = *m.kernel->CreateProcess("b");
  int fd_a = *m.kernel->ShmGet(*a, 0xbeef, 128 * kKiB);
  int fd_b = *m.kernel->ShmGet(*b, 0xbeef, 128 * kKiB);
  uint64_t addr_a = *m.kernel->ShmMap(*a, fd_a);
  uint64_t addr_b = *m.kernel->ShmMap(*b, fd_b);
  uint64_t v = 0x1234;
  ASSERT_TRUE(a->vm().Write(addr_a, &v, sizeof(v)).ok());
  auto shm = m.kernel->sysv_shm().begin()->second;
  int32_t saved_id = shm->shmid;

  ConsistencyGroup* g = *m.sls->CreateGroup("sysv");
  ASSERT_TRUE(m.sls->Attach(g, a).ok());
  ASSERT_TRUE(m.sls->Attach(g, b).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("sysv");
  // The segment is back in the global namespace with its id and key.
  auto found = m.kernel->FindSysVById(saved_id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->key, 0xbeef);
  // And both processes still share it.
  uint64_t got = 0;
  ASSERT_TRUE(restored.group->processes[1]->vm().Read(addr_b, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x1234u);
  uint64_t nv = 0x5678;
  ASSERT_TRUE(restored.group->processes[0]->vm().Write(addr_a, &nv, sizeof(nv)).ok());
  ASSERT_TRUE(restored.group->processes[1]->vm().Read(addr_b, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x5678u);
}

TEST(SlsCliSurface, PruneReclaimsHistory) {
  Machine m;
  SlsCli cli(m.sls.get());
  Process* proc = *m.kernel->CreateProcess("hist");
  auto obj = VmObject::CreateAnonymous(2 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 2 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(cli.Attach("hist", proc).ok());
  std::vector<uint64_t> epochs;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(proc->vm().DirtyRange(addr, 2 * kMiB).ok());
    epochs.push_back((*cli.Checkpoint("hist", "v" + std::to_string(i))).epoch);
  }
  uint64_t free_before = m.store->FreeBlocks();
  ASSERT_TRUE(cli.Prune(epochs[4]).ok());
  EXPECT_GT(m.store->FreeBlocks(), free_before);
  // Pruned epochs are gone; retained ones still restore.
  EXPECT_FALSE(m.sls->Restore("hist", epochs[1]).ok());
  EXPECT_TRUE(m.sls->Restore("hist", epochs[5]).ok());
}

TEST(SlsSockets, ShutdownStateSurvivesRestore) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  int lfd = *m.kernel->MakeSocket(*a, SocketDomain::kInet, SocketProto::kTcp);
  auto listener = std::static_pointer_cast<Socket>((*a->fds().Get(lfd))->object);
  ASSERT_TRUE(listener->Bind({1, 80, ""}).ok());
  ASSERT_TRUE(listener->Listen(4).ok());
  int cfd = *m.kernel->MakeSocket(*a, SocketDomain::kInet, SocketProto::kTcp);
  auto client = std::static_pointer_cast<Socket>((*a->fds().Get(cfd))->object);
  ASSERT_TRUE(client->Bind({2, 999, ""}).ok());
  auto server_end = *client->ConnectTo(listener);
  auto sdesc = std::make_shared<FileDescription>();
  sdesc->object = server_end;
  int sfd = a->fds().Install(sdesc);
  client->Shutdown();

  ConsistencyGroup* g = *m.sls->CreateGroup("a");
  ASSERT_TRUE(m.sls->Attach(g, a).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("a");
  auto* rs = static_cast<Socket*>(
      (*restored.group->processes[0]->fds().Get(sfd))->object.get());
  EXPECT_TRUE(rs->peer_shutdown) << "half-closed state must survive";
  auto eof = *rs->Recv(16);
  EXPECT_TRUE(eof.data.empty());
}

TEST(SlsRestoreModes, MemoryRestoreOfForkedAppAfterMemOnlyCheckpoint) {
  // Regression: a from-memory restore must resolve *whole* chains —
  // including fork parents that were never flushed by a full checkpoint.
  Machine m;
  Process* parent = *m.kernel->CreateProcess("p");
  auto obj = VmObject::CreateAnonymous(256 * kKiB);
  uint64_t addr = *parent->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0,
                                    /*cow=*/true);
  uint64_t inherited = 0xface;
  ASSERT_TRUE(parent->vm().Write(addr, &inherited, sizeof(inherited)).ok());
  Process* child = *m.kernel->Fork(*parent);
  uint64_t child_own = 0xbead;
  ASSERT_TRUE(child->vm().Write(addr + 8, &child_own, sizeof(child_own)).ok());

  ConsistencyGroup* g = *m.sls->CreateGroup("p");
  ASSERT_TRUE(m.sls->Attach(g, parent).ok());
  ASSERT_TRUE(m.sls->Attach(g, child).ok());
  // Only a memory checkpoint: nothing reaches the store.
  ASSERT_TRUE(m.sls->Checkpoint(g, "", CheckpointMode::kMemoryOnly).ok());

  uint64_t junk = 1;
  ASSERT_TRUE(child->vm().Write(addr, &junk, sizeof(junk)).ok());
  auto restored = *m.sls->Restore("p", 0, RestoreMode::kFromMemory);
  ASSERT_EQ(restored.group->processes.size(), 2u);
  Process* rc = restored.group->processes[1];
  uint64_t got = 0;
  ASSERT_TRUE(rc->vm().Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xfaceu) << "fork-parent data must survive a memory restore";
  ASSERT_TRUE(rc->vm().Read(addr + 8, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xbeadu);
}

TEST(SlsFilesystem, CheckpointConsistencyForFiles) {
  // AuroraFS semantics (paper 5.2): fsync is a no-op and file durability
  // comes from checkpoints — data written after the last checkpoint is
  // rolled back by a crash, together with the process state that wrote it.
  Machine m;
  Process* proc = *m.kernel->CreateProcess("editor");
  int fd = *m.kernel->Open(*proc, "doc.txt", kOpenRead | kOpenWrite, true);
  ConsistencyGroup* g = *m.sls->CreateGroup("editor");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());

  ASSERT_TRUE(m.kernel->WriteFd(*proc, fd, "checkpointed", 12).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  ASSERT_TRUE(m.sls->Barrier(g).ok());

  // Post-checkpoint write + fsync: the fsync is free and NOT durable.
  ASSERT_TRUE(m.kernel->WriteFd(*proc, fd, "-volatile", 9).ok());
  auto vn = *m.fs->Lookup("doc.txt");
  ASSERT_TRUE(vn->Fsync().ok());

  m.Reboot();
  auto restored = *m.sls->Restore("editor");
  Process* rp = restored.group->processes[0];
  // The file AND the fd offset are back at the checkpoint: consistent.
  EXPECT_EQ(*m.kernel->SeekFd(*rp, fd, 0, 1), 12u);
  char buf[32] = {};
  ASSERT_TRUE(m.kernel->SeekFd(*rp, fd, 0, 0).ok());
  auto n = *m.kernel->ReadFd(*rp, fd, buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, n), "checkpointed")
      << "post-checkpoint file data must roll back with the process";
}

TEST(SlsFilesystem, AnonymousFileSurvivesCrashViaHiddenRefs) {
  // The paper's anonymous-file case: open + unlink + checkpoint + crash.
  Machine m;
  Process* proc = *m.kernel->CreateProcess("tmpuser");
  int fd = *m.kernel->Open(*proc, "scratch", kOpenRead | kOpenWrite, true);
  ASSERT_TRUE(m.kernel->WriteFd(*proc, fd, "secret-temp-state", 17).ok());
  ASSERT_TRUE(m.fs->Unlink("scratch").ok());  // anonymous now
  EXPECT_FALSE(m.fs->Lookup("scratch").ok());

  ConsistencyGroup* g = *m.sls->CreateGroup("tmpuser");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("tmpuser");
  Process* rp = restored.group->processes[0];
  char buf[32] = {};
  ASSERT_TRUE(m.kernel->SeekFd(*rp, fd, 0, 0).ok());
  auto n = *m.kernel->ReadFd(*rp, fd, buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, n), "secret-temp-state")
      << "unlinked-but-open files must survive through hidden references";
  // Still anonymous: no namespace entry reappears.
  EXPECT_FALSE(m.fs->Lookup("scratch").ok());
}

TEST(SlsStopTimes, HistogramAccumulates) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("stats");
  auto obj = VmObject::CreateAnonymous(1 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 1 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* g = *m.sls->CreateGroup("stats");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(proc->vm().DirtyRange(addr, 32 * kPageSize).ok());
    ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  }
  EXPECT_EQ(g->checkpoints_taken, 10u);
  EXPECT_EQ(g->stop_times.count(), 10u);
  EXPECT_GT(g->stop_times.Percentile(50), 0u);
  // bytes_flushed_total counts physical device bytes: after round one the
  // re-dirtied stamp pages dedup against the epoch-one extents, so the total
  // stays far below the 10 x 32-page logical footprint.
  EXPECT_GT(g->bytes_flushed_total, 0u);
  EXPECT_LT(g->bytes_flushed_total, 10u * 32 * kPageSize / 2);
}

}  // namespace
}  // namespace aurora
