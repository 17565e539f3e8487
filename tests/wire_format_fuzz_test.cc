// Seeded mutation fuzzing of the one checkpoint wire format: `sls send`
// streams and replication chunks, mutated by byte flips, truncation,
// appended bytes and inflated counts. Every mutant must either fail to
// decode with a typed error or decode to a payload that re-encodes to the
// very same bytes; and a pending replication chunk damaged anywhere,
// header included, must fail validation at the standby and never apply.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/core/backend.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

constexpr uint64_t kMem = 64 * kKiB;
constexpr uint64_t kAddr = 0x400000;

struct Machine {
  Machine() {
    device = MakePaperTestbedStore(&sim.clock, 1 * kGiB);
    store = *ObjectStore::Format(device.get(), &sim);
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

// An app whose first memory region holds random, pairwise very different
// store blocks plus one exact repeat, so its `sls send` stream carries raw
// blocks, a dedup reference and holes.
Process* MakeApp(Machine& m, Rng& rng) {
  Process* proc = *m.kernel->CreateProcess("app");
  uint32_t bs = m.store->block_size();
  uint64_t mem = 6 * bs;
  auto obj = VmObject::CreateAnonymous(mem);
  EXPECT_TRUE(proc->vm().Map(kAddr, mem, kProtRead | kProtWrite, obj, 0, false).ok());
  std::vector<uint8_t> block(bs);
  for (uint64_t b : {0, 1, 3}) {
    for (uint8_t& byte : block) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    EXPECT_TRUE(proc->vm().Write(kAddr + b * bs, block.data(), block.size()).ok());
  }
  EXPECT_TRUE(proc->vm().Write(kAddr + 4 * bs, block.data(), block.size()).ok());
  return proc;
}

// The mutations: byte flips, truncation, appended bytes, and a u64 count
// field overwritten with an inflated value.
enum class Mutation { kFlip, kTruncate, kAppend, kInflate };

std::vector<uint8_t> Mutate(const std::vector<uint8_t>& in, Mutation kind,
                            const std::vector<size_t>& count_offsets, Rng& rng) {
  std::vector<uint8_t> out = in;
  switch (kind) {
    case Mutation::kFlip:
      out[rng.Below(out.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
      break;
    case Mutation::kTruncate:
      out.resize(rng.Below(out.size()));
      break;
    case Mutation::kAppend:
      for (uint64_t n = 1 + rng.Below(16); n > 0; n--) {
        out.push_back(static_cast<uint8_t>(rng.Next()));
      }
      break;
    case Mutation::kInflate: {
      size_t off = count_offsets[rng.Below(count_offsets.size())];
      uint64_t field = 0;
      std::memcpy(&field, out.data() + off, sizeof(field));
      const uint64_t inflated[] = {field + 1, field * 2 + 1, uint64_t{1} << 32, ~uint64_t{0}};
      field = inflated[rng.Below(4)];
      std::memcpy(out.data() + off, &field, sizeof(field));
      break;
    }
  }
  return out;
}

// Offsets of a stream's u64 count fields: the manifest length, the object
// count, and the first object's block count.
std::vector<size_t> StreamCountOffsets(const StreamPayload& payload, size_t stream_start) {
  size_t manifest_len = stream_start + 4 + 8 + 8;
  size_t nobjects = manifest_len + 8 + payload.manifest.size();
  std::vector<size_t> offsets = {manifest_len, nobjects};
  if (!payload.objects.empty()) {
    offsets.push_back(nobjects + 8 + 8 + 8);
  }
  return offsets;
}

TEST(WireFormatFuzz, SendStreamMutantsFailTypedOrReencodeIdentically) {
  Machine m;
  Rng rng(0x41534e44);
  Process* proc = MakeApp(m, rng);
  SlsCli cli(m.sls.get());
  ASSERT_TRUE(cli.Attach("app", proc).ok());
  ASSERT_TRUE(cli.Checkpoint("app", "first").ok());
  auto stream = cli.Send("app");
  ASSERT_TRUE(stream.ok());
  uint32_t bs = m.store->block_size();

  // The unmutated stream is canonical and uses a reference.
  auto clean = DecodeCheckpointStream(stream->bytes, bs);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  ASSERT_EQ(EncodeCheckpointStream(*clean), stream->bytes);
  ASSERT_LT(stream->bytes.size(), 4 * bs) << "the repeated block must ship as a reference";
  std::vector<size_t> counts = StreamCountOffsets(*clean, 0);

  int decoded = 0;
  int rejected = 0;
  for (int i = 0; i < 1200; i++) {
    auto kind = static_cast<Mutation>(i % 4);
    std::vector<uint8_t> mutant = Mutate(stream->bytes, kind, counts, rng);
    Result<StreamPayload> got = DecodeCheckpointStream(mutant, bs);
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), Errc::kCorrupt) << got.status().message();
      rejected++;
      continue;
    }
    decoded++;
    EXPECT_EQ(EncodeCheckpointStream(*got), mutant) << "mutant " << i << " decoded non-canonically";
  }
  // Both outcomes occur: flips inside block payloads decode, the rest fail.
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

// Primary whose ReplicaBackend ships into `capture`, a link no standby
// drains, so the test holds the real encoded chunks of each epoch.
struct CaptureRig {
  CaptureRig() {
    standby = static_cast<ReplicaStandby*>(
        m.sls->RegisterBackend(std::make_unique<ReplicaStandby>(&m.sim, &idle)));
    m.sls->RegisterBackend(std::make_unique<ReplicaBackend>(&m.sim, standby, &capture));
  }

  Machine m;
  ReplicaLink idle;
  ReplicaLink capture;
  ReplicaStandby* standby = nullptr;
};

std::vector<ReplFrame> CaptureFirstEpoch(CaptureRig& rig, Rng& rng) {
  Process* proc = *rig.m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kMem);
  EXPECT_TRUE(proc->vm().Map(kAddr, kMem, kProtRead | kProtWrite, obj, 0, false).ok());
  std::vector<uint8_t> bytes(kMem);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  EXPECT_TRUE(proc->vm().Write(kAddr, bytes.data(), bytes.size()).ok());
  ConsistencyGroup* group = *rig.m.sls->CreateGroup("app");
  EXPECT_TRUE(rig.m.sls->Attach(group, proc).ok());
  EXPECT_TRUE(rig.m.sls->SetBackend(group, "replica").ok());
  EXPECT_TRUE(rig.m.sls->Checkpoint(group, "first").ok());
  return rig.capture.TakeDeliverable();
}

TEST(WireFormatFuzz, ReplicaChunkMutantsFailTypedOrReencodeIdentically) {
  CaptureRig rig;
  Rng rng(0x4152504c);
  std::vector<ReplFrame> frames = CaptureFirstEpoch(rig, rng);
  ASSERT_GE(frames.size(), 2u);

  for (const ReplFrame& frame : frames) {
    auto clean = DecodeReplChunk(frame.bytes);
    ASSERT_TRUE(clean.ok()) << clean.status().message();
    ASSERT_EQ(EncodeReplChunk(*clean), frame.bytes);
    size_t stream_start = 4 + 8 + 8 + 8 + 8 + clean->ckpt_name.size();
    std::vector<size_t> counts = StreamCountOffsets(clean->stream, stream_start);
    counts.push_back(4 + 8 + 8);  // nframes
    for (int i = 0; i < 400; i++) {
      auto kind = static_cast<Mutation>(i % 4);
      std::vector<uint8_t> mutant = Mutate(frame.bytes, kind, counts, rng);
      Result<ReplChunk> got = DecodeReplChunk(mutant);
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), Errc::kCorrupt) << got.status().message();
      } else {
        EXPECT_EQ(EncodeReplChunk(*got), mutant) << "mutant " << i << " decoded non-canonically";
      }
      // The standby's unvalidated header read must stay typed too.
      Result<ReplChunk> head = PeekReplChunk(mutant);
      if (!head.ok()) {
        EXPECT_EQ(head.status().code(), Errc::kCorrupt);
      }
    }
  }
}

TEST(WireFormatFuzz, DamagedPendingChunkNeverApplies) {
  CaptureRig rig;
  Rng rng(0x7265706C);
  std::vector<ReplFrame> frames = CaptureFirstEpoch(rig, rng);
  ASSERT_GE(frames.size(), 2u);
  MetricsRegistry& metrics = rig.m.sim.metrics;

  for (int trial = 0; trial < 200; trial++) {
    // A fresh standby per trial. One chunk is held back so the damaged one
    // is still pending when it is hit; the first trials walk the header.
    ReplicaLink link;
    ReplicaStandby standby(&rig.m.sim, &link);
    uint64_t target = rng.Below(frames.size());
    uint64_t held = (target + 1 + rng.Below(frames.size() - 1)) % frames.size();
    size_t offset =
        trial < 64 ? static_cast<size_t>(trial) : rng.Below(frames[target].bytes.size());
    for (uint64_t seq = 0; seq < frames.size(); seq++) {
      if (seq != held) {
        ASSERT_TRUE(link.Push(frames[seq]));
      }
    }
    standby.Pump();
    ASSERT_TRUE(standby.CorruptPendingChunk(1, target, offset));

    uint64_t crc_before = metrics.CounterValue("repl.crc_failures");
    ASSERT_TRUE(link.Push(frames[held]));
    standby.Pump();
    EXPECT_EQ(metrics.CounterValue("repl.crc_failures"), crc_before + 1)
        << "chunk " << target << " byte " << offset;
    EXPECT_EQ(standby.last_applied_epoch(), 0u);
    EXPECT_TRUE(standby.images().empty());

    // At-least-once re-delivery of the intact chunks heals the chain.
    for (const ReplFrame& f : frames) {
      ASSERT_TRUE(link.Push(f));
    }
    standby.Pump();
    EXPECT_EQ(standby.last_applied_epoch(), 1u);
  }
}

}  // namespace
}  // namespace aurora
