#include "src/fs/aurora_fs.h"

#include <cstdio>
#include <tuple>
#include <utility>

#include "src/base/serializer.h"

namespace aurora {

uint64_t AuroraFs::AllocateIno(const std::string& path) {
  (void)path;
  auto oid = store_->CreateObject(ObjType::kFile);
  return oid.ok() ? oid->value : 0;
}

void AuroraFs::ChargeCreate() {
  // File creation is unoptimized and serializes on a global store lock
  // (paper section 9.1 calls this out on the createfiles benchmark).
  sim_->clock.Advance(25 * kMicrosecond);
}

void AuroraFs::ChargeWrite(uint64_t len, bool sub_block, bool first_dirty) {
  (void)len;
  // Extent-map bookkeeping on first dirty; sub-block writes pay COW
  // read-modify-write preparation at flush time.
  if (first_dirty) {
    sim_->clock.Advance(200);
  }
  if (sub_block) {
    sim_->clock.Advance(800);
  }
}

Status AuroraFs::FsyncImpl(Vnode* vn, uint64_t dirty_len) {
  (void)vn;
  (void)dirty_len;
  // Checkpoint consistency: durability is provided by the next store
  // checkpoint, so fsync only pays the syscall-side bookkeeping.
  sim_->clock.Advance(sim_->cost.lock_acquire);
  return Status::Ok();
}

Result<SimTime> AuroraFs::PersistBlock(Vnode* vn, uint64_t block_idx, const CacheBlock& cb) {
  return store_->WriteAt(OidOf(vn), block_idx * fs_block_size(), cb.data.data(),
                         cb.data.size());
}

Status AuroraFs::LoadBlock(Vnode* vn, uint64_t block_idx, uint8_t* out) {
  return store_->ReadAt(OidOf(vn), block_idx * fs_block_size(), out, fs_block_size());
}

void AuroraFs::ReleaseBacking(Vnode* vn) {
  Status deleted = store_->DeleteObject(OidOf(vn));
  if (!deleted.ok() && deleted.code() != Errc::kNotFound) {
    // Unlink already removed the vnode; a failed backing delete only leaks
    // store blocks until the next prune. Count it, log the first one.
    sim_->metrics.counter("fs.release_failures").Add();
    if (!release_failure_logged_) {
      release_failure_logged_ = true;
      std::fprintf(stderr, "aurorafs: backing object delete failed (%s); blocks leak until prune\n",
                   deleted.message().c_str());
    }
  }
}

Result<std::vector<uint8_t>> AuroraFs::EncodeNamespace() {
  std::vector<std::string> paths = List();
  BinaryWriter w;
  w.PutU64(paths.size());
  for (const auto& path : paths) {
    AURORA_ASSIGN_OR_RETURN(std::shared_ptr<Vnode> vn, Lookup(path));
    w.PutString(path);
    w.PutU64(vn->ino());
    w.PutU64(vn->size());
  }
  return w.Take();
}

Status AuroraFs::RestoreNamespace(std::span<const uint8_t> table) {
  if (table.empty()) {
    return Status::Ok();
  }
  BinaryReader r(table.data(), table.size());
  AURORA_ASSIGN_OR_RETURN(uint64_t count, r.U64());
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> entries;  // path, ino, size
  for (uint64_t i = 0; i < count; i++) {
    AURORA_ASSIGN_OR_RETURN(std::string path, r.String());
    AURORA_ASSIGN_OR_RETURN(uint64_t ino, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t size, r.U64());
    entries.emplace_back(std::move(path), ino, size);
  }
  if (!r.AtEnd()) {
    return Status::Error(Errc::kCorrupt, "trailing bytes after namespace table");
  }
  for (const auto& [path, ino, size] : entries) {
    if (Lookup(path).ok()) {
      continue;  // already present
    }
    AURORA_ASSIGN_OR_RETURN(std::shared_ptr<Vnode> vn, CreateWithIno(path, ino));
    vn->set_size(size);
  }
  return Status::Ok();
}

}  // namespace aurora
