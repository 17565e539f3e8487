// Fault matrix: deterministic device fault injection swept over the
// checkpoint and restore phases of an object-store workload, plus the
// SLS-level graceful-degradation contract.
//
//  - Transient read/write errors at modest rates are masked by the bounded
//    retry policy; contents stay byte-identical and io.retries counts.
//  - Latent sector errors and silent bit flips are never silently read
//    back: every read either returns the committed bytes or a typed
//    kIoError / kCorrupt.
//  - The crash fuse composes with transient faults: recovery still lands on
//    an exact committed epoch.
//  - One seed ⇒ one fault schedule: stats, corrupted-LBA sets and retry
//    counts replay exactly.
//  - A zero-rate profile consumes no randomness and is time- and
//    byte-identical to running with no injector at all.
//  - Flush failure aborts only the in-flight epoch: the application keeps
//    running on the last durable epoch and the dirty pages ride the next
//    successful checkpoint.
//  - The scrubber finds every injected flip that lands in a committed data
//    block, with no false positives.
//  - Damaged metadata fails only its own epoch's scrub verdict: a flipped
//    blob counts as a CRC error, an unreadable one as an io error.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/objstore/scrubber.h"
#include "src/storage/block_device.h"
#include "src/storage/fault_injector.h"

namespace aurora {
namespace {

constexpr uint64_t kDeviceBlocks = (64 * kMiB) / kPageSize;

std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; i++) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

FaultRule RateRule(double read_rate, double write_rate, double flip_rate = 0.0,
                   double latent_rate = 0.0) {
  FaultRule rule;
  rule.read_error_rate = read_rate;
  rule.write_error_rate = write_rate;
  rule.bit_flip_rate = flip_rate;
  rule.latent_sector_rate = latent_rate;
  return rule;
}

// Writes `nblocks` full store blocks of deterministic contents to `oid`.
Status WriteBlocks(ObjectStore* store, Oid oid, uint64_t nblocks, uint8_t seed) {
  std::vector<uint8_t> data = Pattern(nblocks * store->block_size(), seed);
  return store->WriteAt(oid, 0, data.data(), data.size()).status();
}

// Every read must be byte-identical to the committed pattern or fail with a
// typed media error — silent corruption is the one forbidden outcome.
// Returns true when the read succeeded (contents verified).
bool ExpectReadTypedOrExact(ObjectStore* store, Oid oid, uint64_t nblocks, uint8_t seed) {
  std::vector<uint8_t> want = Pattern(nblocks * store->block_size(), seed);
  std::vector<uint8_t> back(want.size());
  Status read = store->ReadAt(oid, 0, back.data(), back.size());
  if (!read.ok()) {
    EXPECT_TRUE(read.code() == Errc::kCorrupt || read.code() == Errc::kIoError)
        << "read failed untyped: " << read.message();
    return false;
  }
  EXPECT_EQ(back, want) << "silent corruption: read succeeded with wrong bytes";
  return true;
}

// The standard two-commit workload: obj1 at c1, obj2 at c2, each region
// written exactly once so every data block stays live in the final epoch.
struct Workload {
  Oid obj1 = kInvalidOid;
  Oid obj2 = kInvalidOid;
  static constexpr uint64_t kObj1Blocks = 3;
  static constexpr uint64_t kObj2Blocks = 2;

  Status Run(ObjectStore* store) {
    AURORA_ASSIGN_OR_RETURN(obj1, store->CreateObject(ObjType::kMemory));
    AURORA_RETURN_IF_ERROR(WriteBlocks(store, obj1, kObj1Blocks, 1));
    AURORA_RETURN_IF_ERROR(store->CommitCheckpoint("c1").status());
    AURORA_ASSIGN_OR_RETURN(obj2, store->CreateObject(ObjType::kMemory));
    AURORA_RETURN_IF_ERROR(WriteBlocks(store, obj2, kObj2Blocks, 2));
    AURORA_RETURN_IF_ERROR(store->CommitCheckpoint("c2").status());
    return Status::Ok();
  }
};

TEST(FaultMatrix, TransientWriteErrorsMaskedByRetry) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  // Raw store: the fault schedule is keyed to the device-write sequence the
  // patterned workload generates; dedup/compression would thin it out.
  StoreOptions raw;
  raw.dedup = false;
  raw.codec = CodecId::kRaw;
  auto store = *ObjectStore::Format(&device, &sim, raw);
  device.InstallFaults(0xA11CE, {RateRule(0.0, 0.10)});

  Workload w;
  ASSERT_TRUE(w.Run(store.get()).ok()) << "10% transient write errors must be masked";
  device.ClearFaults();

  EXPECT_GE(sim.metrics.counter("io.retries").value(), 1u);
  EXPECT_EQ(sim.metrics.counter("io.giveups").value(), 0u);
  EXPECT_TRUE(ExpectReadTypedOrExact(store.get(), w.obj1, Workload::kObj1Blocks, 1));
  EXPECT_TRUE(ExpectReadTypedOrExact(store.get(), w.obj2, Workload::kObj2Blocks, 2));
}

TEST(FaultMatrix, TransientReadErrorsMaskedByRetry) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  auto store = *ObjectStore::Format(&device, &sim);
  Workload w;
  ASSERT_TRUE(w.Run(store.get()).ok());

  // Restore-phase faults: a fresh mount plus every read under 10% transient
  // read errors.
  device.InstallFaults(0xB0B, {RateRule(0.10, 0.0)});
  auto reopened = ObjectStore::Open(&device, &sim);
  ASSERT_TRUE(reopened.ok()) << "transient read errors must not fail the mount";
  EXPECT_TRUE(ExpectReadTypedOrExact(reopened->get(), w.obj1, Workload::kObj1Blocks, 1));
  EXPECT_TRUE(ExpectReadTypedOrExact(reopened->get(), w.obj2, Workload::kObj2Blocks, 2));
  EXPECT_GE(sim.metrics.counter("io.retries").value(), 1u);
  EXPECT_EQ(sim.metrics.counter("io.giveups").value(), 0u);
}

TEST(FaultMatrix, LatentSectorReadsFailTyped) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  auto store = *ObjectStore::Format(&device, &sim);
  Workload w;
  ASSERT_TRUE(w.Run(store.get()).ok());

  // Rot every device block past the superblock ring: all committed data is
  // now sticky-unreadable, and retries must never mask it. (The whole device
  // is rotted so the test holds for any layout's physical placement.)
  uint32_t dps = store->block_size() / device.block_size();
  device.InstallFaults(0xDEAD, {});
  for (uint64_t lba = dps; lba < device.block_count(); lba++) {
    device.fault_injector()->AddLatentSector(lba);
  }
  std::vector<uint8_t> back(store->block_size());
  Status read = store->ReadAt(w.obj1, 0, back.data(), back.size());
  ASSERT_FALSE(read.ok()) << "latent sector read must not succeed";
  EXPECT_EQ(read.code(), Errc::kIoError);
  EXPECT_GE(sim.metrics.counter("io.giveups").value(), 1u);
  read = store->ReadAt(w.obj2, 0, back.data(), back.size());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), Errc::kIoError);

  // A rewrite replaces the rotten cells: the COW overwrite lands on freshly
  // written blocks whose latent marks clear, so obj1 reads exactly again.
  ASSERT_TRUE(WriteBlocks(store.get(), w.obj1, Workload::kObj1Blocks, 7).ok());
  EXPECT_TRUE(ExpectReadTypedOrExact(store.get(), w.obj1, Workload::kObj1Blocks, 7));
}

TEST(FaultMatrix, BitFlipsNeverSilentlyReadBack) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  auto store = *ObjectStore::Format(&device, &sim);
  device.InstallFaults(0xF11B, {RateRule(0.0, 0.0, 0.05)});
  Workload w;
  ASSERT_TRUE(w.Run(store.get()).ok()) << "write-time flips are silent at write time";
  uint64_t flips = device.fault_injector()->stats().bit_flips;
  ASSERT_GE(flips, 1u) << "seed produced no flips; the test has no teeth";
  device.ClearFaults();

  // Reads through the CRC path: exact bytes or typed kCorrupt, never garbage.
  ExpectReadTypedOrExact(store.get(), w.obj1, Workload::kObj1Blocks, 1);
  ExpectReadTypedOrExact(store.get(), w.obj2, Workload::kObj2Blocks, 2);
}

TEST(FaultMatrix, CrashFuseComposesWithTransientFaults) {
  // Arm the crash fuse at a handful of points inside the second commit while
  // 1% transient faults are live: recovery must still land on an exact
  // committed epoch (the full point sweep lives in crash_matrix_test).
  for (uint64_t crash_at : {20u, 40u, 60u, 90u}) {
    SimContext sim;
    MemBlockDevice device(&sim.clock, kDeviceBlocks);
    device.set_metrics(&sim.metrics);
    auto store = *ObjectStore::Format(&device, &sim);
    device.InstallFaults(0xC0DE + crash_at, {RateRule(0.01, 0.01)});
    device.CrashAfterWrites(crash_at);

    Workload w;
    AURORA_IGNORE_STATUS(w.Run(store.get()), "crash fuse may fire anywhere in the run; teardown is the scenario");  // may tear anywhere once the fuse fires
    device.DisarmCrash();

    auto reopened = ObjectStore::Open(&device, &sim);
    if (!reopened.ok()) {
      // Power lost before the first commit: an unmountable store is sound.
      continue;
    }
    bool has_c1 = false;
    bool has_c2 = false;
    for (const CheckpointInfo& ckpt : (*reopened)->ListCheckpoints()) {
      has_c1 |= ckpt.name == "c1";
      has_c2 |= ckpt.name == "c2";
    }
    if (has_c1 || has_c2) {
      EXPECT_TRUE(ExpectReadTypedOrExact(reopened->get(), w.obj1, Workload::kObj1Blocks, 1))
          << "crash point " << crash_at;
    }
    if (has_c2) {
      EXPECT_TRUE(ExpectReadTypedOrExact(reopened->get(), w.obj2, Workload::kObj2Blocks, 2))
          << "crash point " << crash_at;
    }
  }
}

TEST(FaultMatrix, SameSeedReplaysSameSchedule) {
  auto run = [](uint64_t* retries, FaultStats* stats, std::set<uint64_t>* corrupted,
                std::set<uint64_t>* latent) {
    SimContext sim;
    MemBlockDevice device(&sim.clock, kDeviceBlocks);
    device.set_metrics(&sim.metrics);
    auto store = *ObjectStore::Format(&device, &sim);
    device.InstallFaults(0x5EED, {RateRule(0.05, 0.05, 0.02, 0.02)});
    Workload w;
    AURORA_IGNORE_STATUS(w.Run(store.get()), "crash fuse may fire anywhere in the run; teardown is the scenario");
    *retries = sim.metrics.counter("io.retries").value();
    *stats = device.fault_injector()->stats();
    *corrupted = device.fault_injector()->corrupted_lbas();
    *latent = device.fault_injector()->latent_lbas();
  };

  uint64_t retries_a = 0;
  uint64_t retries_b = 0;
  FaultStats stats_a;
  FaultStats stats_b;
  std::set<uint64_t> corrupted_a;
  std::set<uint64_t> corrupted_b;
  std::set<uint64_t> latent_a;
  std::set<uint64_t> latent_b;
  run(&retries_a, &stats_a, &corrupted_a, &latent_a);
  run(&retries_b, &stats_b, &corrupted_b, &latent_b);

  EXPECT_EQ(retries_a, retries_b);
  EXPECT_EQ(stats_a.read_errors, stats_b.read_errors);
  EXPECT_EQ(stats_a.write_errors, stats_b.write_errors);
  EXPECT_EQ(stats_a.bit_flips, stats_b.bit_flips);
  EXPECT_EQ(stats_a.latent_marks, stats_b.latent_marks);
  EXPECT_EQ(stats_a.latent_hits, stats_b.latent_hits);
  EXPECT_EQ(stats_a.tail_delays, stats_b.tail_delays);
  EXPECT_EQ(corrupted_a, corrupted_b);
  EXPECT_EQ(latent_a, latent_b);
}

TEST(FaultMatrix, ZeroRateProfileIsTimeAndByteIdentical) {
  auto run = [](bool attach_injector, SimTime* end, uint64_t* writes,
                std::vector<uint8_t>* back1) {
    SimContext sim;
    MemBlockDevice device(&sim.clock, kDeviceBlocks);
    device.set_metrics(&sim.metrics);
    auto store = *ObjectStore::Format(&device, &sim);
    if (attach_injector) {
      // A matching-everything rule whose rates are all zero: attached but
      // inert, and forbidden from consuming any randomness.
      device.InstallFaults(0x1D, {FaultRule{}});
    }
    Workload w;
    ASSERT_TRUE(w.Run(store.get()).ok());
    back1->resize(Workload::kObj1Blocks * store->block_size());
    ASSERT_TRUE(store->ReadAt(w.obj1, 0, back1->data(), back1->size()).ok());
    *end = sim.clock.now();
    *writes = device.stats().writes;
    EXPECT_EQ(sim.metrics.counter("io.retries").value(), 0u);
    EXPECT_EQ(sim.metrics.counter("io.giveups").value(), 0u);
  };

  SimTime end_plain = 0;
  SimTime end_faulty = 0;
  uint64_t writes_plain = 0;
  uint64_t writes_faulty = 0;
  std::vector<uint8_t> back_plain;
  std::vector<uint8_t> back_faulty;
  run(false, &end_plain, &writes_plain, &back_plain);
  run(true, &end_faulty, &writes_faulty, &back_faulty);

  EXPECT_EQ(end_plain, end_faulty) << "zero-rate injector changed the timeline";
  EXPECT_EQ(writes_plain, writes_faulty);
  EXPECT_EQ(back_plain, back_faulty);
}

TEST(FaultMatrix, ScrubDetectsEveryCommittedFlip) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  // Raw store: the flip-coverage argument needs data blocks to occupy enough
  // of the device that random flips land in them; compression would shrink
  // the data footprint to a handful of LBAs.
  StoreOptions raw;
  raw.dedup = false;
  raw.codec = CodecId::kRaw;
  auto store = *ObjectStore::Format(&device, &sim, raw);
  device.InstallFaults(0x5C2B, {RateRule(0.0, 0.0, 0.05)});

  // Write-once workload: every data block written stays live in the final
  // epoch, so each data-block flip must surface as exactly one bad block.
  Oid obj1 = *store->CreateObject(ObjType::kMemory);
  ASSERT_TRUE(WriteBlocks(store.get(), obj1, 8, 1).ok());
  ASSERT_TRUE(store->CommitCheckpoint("c1").ok());
  Oid obj2 = *store->CreateObject(ObjType::kMemory);
  ASSERT_TRUE(WriteBlocks(store.get(), obj2, 6, 2).ok());
  ASSERT_TRUE(store->CommitCheckpoint("c2").ok());

  std::set<uint64_t> corrupted = device.fault_injector()->corrupted_lbas();
  ASSERT_GE(corrupted.size(), 1u) << "seed produced no flips; the test has no teeth";

  Scrubber scrubber(store.get());
  auto report = scrubber.ScrubAll();
  ASSERT_TRUE(report.ok());

  uint32_t dps = store->block_size() / device.block_size();
  auto in_bad_block = [&](uint64_t lba) {
    for (const ScrubBadBlock& bad : report->bad_blocks) {
      if (lba >= bad.phys * dps && lba < (bad.phys + 1) * dps) {
        return true;
      }
    }
    return false;
  };

  // No false positives: every CRC-mismatch block holds an injected flip.
  for (const ScrubBadBlock& bad : report->bad_blocks) {
    ASSERT_EQ(bad.error, Errc::kCorrupt);
    bool has_flip = false;
    for (uint64_t lba = bad.phys * dps; lba < (bad.phys + 1) * dps; lba++) {
      has_flip |= corrupted.count(lba) > 0;
    }
    EXPECT_TRUE(has_flip) << "scrub flagged phys " << bad.phys << " without an injected flip";
  }

  // Full coverage: every flip inside a CRC-covered committed data block must
  // be flagged. Flips elsewhere (metadata padding, the superblock ring) are
  // covered by the meta blob CRC / the next mount instead.
  uint64_t data_flips = 0;
  for (uint64_t lba : corrupted) {
    if (report->data_phys.count(lba / dps) == 0) {
      continue;
    }
    data_flips++;
    EXPECT_TRUE(in_bad_block(lba)) << "flip at device lba " << lba << " missed by scrub";
  }
  ASSERT_GE(data_flips, 1u) << "no flip landed in a data block; the test has no teeth";

  // A clean store scrubs clean.
  SimContext clean_sim;
  MemBlockDevice clean_device(&clean_sim.clock, kDeviceBlocks);
  auto clean_store = *ObjectStore::Format(&clean_device, &clean_sim);
  Workload clean;
  ASSERT_TRUE(clean.Run(clean_store.get()).ok());
  Scrubber clean_scrubber(clean_store.get());
  auto clean_report = clean_scrubber.ScrubAll();
  ASSERT_TRUE(clean_report.ok());
  EXPECT_TRUE(clean_report->clean());
  EXPECT_TRUE(clean_report->bad_blocks.empty());
  EXPECT_EQ(clean_report->epochs.size(), clean_store->ListCheckpoints().size());
}

// Metadata damage: a rule armed over every LBA past the superblock ring for
// exactly one commit damages only that epoch's metadata blob (the commit
// writes nothing else there), and the scrub's verdict must name it — a CRC
// error for a flipped bit, an io error for a latent sector — while every
// other epoch scrubs clean. The injector stays attached through the scrub so
// latent marks persist; nothing is written after the armed commit.
void ExpectOnlyLastEpochMetaDamaged(const FaultRule& rule) {
  const bool flip = rule.bit_flip_rate > 0;
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  auto store = *ObjectStore::Format(&device, &sim);
  Workload workload;
  ASSERT_TRUE(workload.Run(store.get()).ok());
  // 160 extents put the table past one device block, so the blob fills the
  // first block of its run: the flip the rule puts in every written block
  // is certain to land inside the blob there, not only in its padding.
  Oid obj3 = *store->CreateObject(ObjType::kMemory);
  ASSERT_TRUE(WriteBlocks(store.get(), obj3, 160, 3).ok());

  FaultRule armed = rule;
  armed.lba_min = store->block_size() / device.block_size();  // past the ring
  device.InstallFaults(0x3E7A, {armed});
  auto committed = store->CommitCheckpoint("c3");
  ASSERT_TRUE(committed.ok()) << committed.status().message();
  const FaultStats& faults = device.fault_injector()->stats();
  ASSERT_GE(flip ? faults.bit_flips : faults.latent_marks, 1u) << "the rule never fired";
  uint64_t damaged = store->ListCheckpoints().back().epoch;

  Scrubber scrubber(store.get());
  auto report = scrubber.ScrubAll();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->epochs.size(), store->ListCheckpoints().size());
  for (const ScrubEpochVerdict& verdict : report->epochs) {
    if (verdict.epoch != damaged) {
      EXPECT_TRUE(verdict.clean()) << "epoch " << verdict.epoch << " (" << verdict.name << ")";
      continue;
    }
    EXPECT_FALSE(verdict.meta_ok);
    EXPECT_EQ(verdict.crc_errors, flip ? 1u : 0u);
    EXPECT_EQ(verdict.io_errors, flip ? 0u : 1u);
    EXPECT_EQ(verdict.blocks_scanned, 0u);
  }
  EXPECT_FALSE(report->clean());
  EXPECT_TRUE(report->bad_blocks.empty()) << "no data block was damaged";
  auto single = scrubber.ScrubEpoch(damaged);
  ASSERT_TRUE(single.ok());
  EXPECT_FALSE(single->meta_ok);
}

TEST(FaultMatrix, ScrubFlagsFlippedMetadataAsCrcError) {
  ExpectOnlyLastEpochMetaDamaged(RateRule(0.0, 0.0, /*flip_rate=*/1.0));
}

TEST(FaultMatrix, ScrubFlagsUnreadableMetadataAsIoError) {
  ExpectOnlyLastEpochMetaDamaged(RateRule(0.0, 0.0, 0.0, /*latent_rate=*/1.0));
}

// SLS machine with a raw MemBlockDevice so faults can be armed precisely.
struct FaultMachine {
  FaultMachine() {
    device = std::make_unique<MemBlockDevice>(&sim.clock, kDeviceBlocks);
    device->set_metrics(&sim.metrics);
    store = *ObjectStore::Format(device.get(), &sim);
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
  std::unique_ptr<MemBlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

TEST(EpochAbort, FlushFailureAbortsOnlyTheInFlightEpoch) {
  FaultMachine m;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(256 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint8_t> v1(256 * kKiB, 0x11);
  ASSERT_TRUE(proc->vm().Write(addr, v1.data(), v1.size()).ok());
  auto first = m.sls->Checkpoint(group, "one");
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->aborted);
  ASSERT_TRUE(m.sls->Barrier(group).ok());
  SimTime durable_one = first->durable_at;

  // Total write outage: every attempt fails, retries exhaust, the epoch
  // aborts — but the checkpoint call itself reports the degradation rather
  // than failing the application.
  m.device->InstallFaults(0xAB027, {RateRule(0.0, 1.0)});
  std::vector<uint8_t> v2(256 * kKiB, 0x22);
  ASSERT_TRUE(proc->vm().Write(addr, v2.data(), v2.size()).ok());
  auto degraded = m.sls->Checkpoint(group, "two");
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();
  EXPECT_TRUE(degraded->aborted);
  EXPECT_EQ(degraded->epoch, 0u);
  EXPECT_EQ(degraded->durable_at, durable_one) << "abort must keep the last durable epoch";
  EXPECT_EQ(group->epochs_aborted, 1u);
  EXPECT_EQ(m.sim.metrics.counter("ckpt.epochs_aborted").value(), 1u);
  EXPECT_GE(m.sim.metrics.counter("io.giveups").value(), 1u);

  // The application keeps running through the outage.
  std::vector<uint8_t> v3(4 * kKiB, 0x33);
  EXPECT_TRUE(proc->vm().Write(addr, v3.data(), v3.size()).ok());

  // Device recovers: the next checkpoint flushes the aborted epoch's frozen
  // pages along with the new writes.
  m.device->ClearFaults();
  auto recovered = m.sls->Checkpoint(group, "three");
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_FALSE(recovered->aborted);
  EXPECT_GT(recovered->epoch, 0u);
  EXPECT_GT(recovered->durable_at, durable_one);
  EXPECT_EQ(group->epochs_aborted, 1u);

  // After a reboot the newest restore sees the post-outage state: v2
  // overlaid with v3 — nothing from the aborted epoch was lost.
  m.Reboot();
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  Process* back = restored->group->processes[0];
  std::vector<uint8_t> got(256 * kKiB);
  ASSERT_TRUE(back->vm().Read(addr, got.data(), got.size()).ok());
  std::vector<uint8_t> want = v2;
  std::copy(v3.begin(), v3.end(), want.begin());
  EXPECT_EQ(got, want);

  // And the recovered store scrubs clean through the CLI verb.
  SlsCli cli(m.sls.get());
  auto lines = cli.Scrub();
  ASSERT_TRUE(lines.ok());
  ASSERT_FALSE(lines->empty());
  EXPECT_NE(lines->back().find("CLEAN"), std::string::npos) << lines->back();
}

TEST(EpochAbort, PreviousEpochRestorableAfterAbort) {
  FaultMachine m;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(128 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 128 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint8_t> v1(128 * kKiB, 0x44);
  ASSERT_TRUE(proc->vm().Write(addr, v1.data(), v1.size()).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group, "one").ok());
  ASSERT_TRUE(m.sls->Barrier(group).ok());

  m.device->InstallFaults(0xBAD, {RateRule(0.0, 1.0)});
  std::vector<uint8_t> v2(128 * kKiB, 0x55);
  ASSERT_TRUE(proc->vm().Write(addr, v2.data(), v2.size()).ok());
  auto degraded = m.sls->Checkpoint(group, "two");
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded->aborted);

  // Reboot with nothing but the first epoch durable: restore must reproduce
  // it exactly (the aborted epoch left no partial state behind).
  m.device->ClearFaults();
  m.Reboot();
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  Process* back = restored->group->processes[0];
  std::vector<uint8_t> got(128 * kKiB);
  ASSERT_TRUE(back->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, v1);
}

}  // namespace
}  // namespace aurora
