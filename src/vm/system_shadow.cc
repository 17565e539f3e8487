#include "src/vm/system_shadow.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace aurora {

namespace {

bool ShouldShadow(const VmMapEntry& entry) {
  if (entry.exclude_from_checkpoint) {
    return false;
  }
  if ((entry.prot & kProtWrite) == 0) {
    return false;
  }
  const VmObject* obj = entry.object.get();
  // Vnode-backed mappings persist through the file system's own COW; device
  // memory is recreated at restore (vDSO/HPET injection).
  return obj->type() == VmObjectType::kAnonymous && !obj->exclude_from_checkpoint();
}

// A top object took writes since it became the top iff it holds pages: a
// writable PTE is only ever installed for the chain's top object, and
// installing the page into the top is what makes the PTE writable. Frozen
// and pager-backed tops (restored images) must always be re-shadowed — a
// write against them has nowhere to land.
bool NeedsShadow(const VmObject* top) {
  return top->frozen() || top->has_pager() || top->ResidentPages() > 0;
}

// Write-protects exactly the dirty pages of `old_top` that fall inside
// `entry`, one WriteProtectRange call per maximal dirty run. Pages outside
// the object's dirty bitmap cannot have writable translations, so the sweep
// (and its per-PTE charge) touches only what the application actually wrote
// since the previous epoch — two dirty pages at opposite ends of a large
// object cost two PTE downgrades, not the whole span between them.
uint64_t ProtectDirtyRuns(VmMap* map, const VmMapEntry& entry,
                          const std::vector<std::pair<uint64_t, uint64_t>>& runs,
                          SimContext* sim) {
  uint64_t protected_ptes = 0;
  for (const auto& [pg_lo, pg_hi] : runs) {
    // Page index p of the object maps at vaddr = entry.start - offset + p * pg.
    uint64_t lo_off = pg_lo * kPageSize;
    uint64_t hi_off = pg_hi * kPageSize;
    uint64_t lo = lo_off > entry.offset ? entry.start + (lo_off - entry.offset) : entry.start;
    uint64_t hi = hi_off > entry.offset ? entry.start + (hi_off - entry.offset) : entry.start;
    lo = std::min(lo, entry.end);
    hi = std::min(hi, entry.end);
    if (lo < hi) {
      protected_ptes += map->pmap().WriteProtectRange(lo, hi, sim->cost, &sim->clock);
    }
  }
  return protected_ptes;
}

// Repoints every map entry whose top object is `old_top` to `new_top` and
// write-protects the affected translations. Read mappings of the frozen
// pages remain valid (they are immutable now); the first write per page
// faults and copies into the new shadow. Per-map downgrade counts accumulate
// into `per_map` (indexed like `maps`) so the caller can elide shootdowns
// for untouched address spaces.
uint64_t RebindEntries(VmObject* old_top, const std::shared_ptr<VmObject>& new_top,
                       const std::vector<VmMap*>& maps, SimContext* sim,
                       std::vector<uint64_t>* per_map) {
  uint64_t protected_ptes = 0;
  const std::vector<std::pair<uint64_t, uint64_t>> runs = old_top->DirtyRuns();
  for (size_t i = 0; i < maps.size(); i++) {
    VmMap* map = maps[i];
    for (auto& [start, entry] : map->entries()) {
      if (entry.object.get() == old_top) {
        entry.object = new_top;
        uint64_t n = ProtectDirtyRuns(map, entry, runs, sim);
        protected_ptes += n;
        if (per_map != nullptr) {
          (*per_map)[i] += n;
        }
      }
    }
  }
  return protected_ptes;
}

// One TLB shootdown round covers every range invalidated this pass (batched
// IPIs, as the kernel does) — but only address spaces that actually lost a
// writable translation have anything to flush. Untouched pmaps are elided
// (counted, so the savings are observable) unless the legacy full-sweep
// behavior was requested.
void ChargeShootdowns(const std::vector<VmMap*>& maps, const std::vector<uint64_t>& per_map,
                      bool full_sweep, SimContext* sim, SystemShadowStats* stats) {
  for (size_t i = 0; i < maps.size(); i++) {
    if (!full_sweep && per_map[i] == 0) {
      if (stats != nullptr) {
        stats->shootdowns_elided++;
      }
      sim->metrics.counter("vm.shootdowns_elided").Add();
      continue;
    }
    sim->clock.Advance(sim->cost.tlb_shootdown_ipi);
    if (stats != nullptr) {
      stats->tlb_shootdowns++;
    }
    sim->metrics.counter("vm.tlb_shootdowns").Add();
  }
}

}  // namespace

std::vector<ShadowPair> CreateSystemShadows(const std::vector<VmMap*>& maps, SimContext* sim,
                                            const ShadowRebindFn& rebind,
                                            SystemShadowStats* stats, bool full_sweep) {
  // Pass 1: collect the distinct writable top objects across the group in
  // discovery order (map, then ascending start address). The dedup set makes
  // each object shadowed exactly once no matter how many processes or
  // entries share it; the ordered vector keeps the shadow/flush order
  // independent of heap layout, so simulated results are build-stable.
  std::set<VmObject*> seen;
  std::vector<std::shared_ptr<VmObject>> tops;
  for (VmMap* map : maps) {
    for (auto& [start, entry] : map->entries()) {
      if (ShouldShadow(entry) && seen.insert(entry.object.get()).second) {
        if (!full_sweep && !NeedsShadow(entry.object.get())) {
          // Clean top: its store object already holds exactly this content
          // (or the region was never written and restores as zero fill).
          if (stats != nullptr) {
            stats->objects_skipped_clean++;
          }
          sim->metrics.counter("vm.objects_skipped_clean").Add();
          continue;
        }
        tops.push_back(entry.object);
      }
    }
  }

  std::vector<uint64_t> per_map(maps.size(), 0);
  std::vector<ShadowPair> pairs;
  pairs.reserve(tops.size());
  for (const std::shared_ptr<VmObject>& top : tops) {
    VmObject* raw = top.get();
    auto shadow = VmObject::CreateShadow(top);
    shadow->set_sls_oid(top->sls_oid());  // same logical region on disk
    top->Freeze();
    sim->clock.Advance(sim->cost.small_alloc + sim->cost.lock_acquire);
    uint64_t invalidated = RebindEntries(raw, shadow, maps, sim, &per_map);
    if (rebind) {
      rebind(raw, shadow);
    }
    if (stats != nullptr) {
      stats->objects_shadowed++;
      stats->ptes_invalidated += invalidated;
    }
    sim->metrics.counter("vm.objects_shadowed").Add();
    sim->metrics.counter("vm.ptes_protected").Add(invalidated);
    pairs.push_back(ShadowPair{top, shadow});
  }

  ChargeShootdowns(maps, per_map, full_sweep, sim, stats);
  return pairs;
}

ShadowPair ShadowOneObject(std::shared_ptr<VmObject> top, const std::vector<VmMap*>& maps,
                           SimContext* sim, const ShadowRebindFn& rebind,
                           SystemShadowStats* stats) {
  auto shadow = VmObject::CreateShadow(top);
  shadow->set_sls_oid(top->sls_oid());
  top->Freeze();
  sim->clock.Advance(sim->cost.small_alloc + sim->cost.lock_acquire);
  std::vector<uint64_t> per_map(maps.size(), 0);
  uint64_t invalidated = RebindEntries(top.get(), shadow, maps, sim, &per_map);
  if (rebind) {
    rebind(top.get(), shadow);
  }
  if (stats != nullptr) {
    stats->objects_shadowed++;
    stats->ptes_invalidated += invalidated;
  }
  sim->metrics.counter("vm.objects_shadowed").Add();
  sim->metrics.counter("vm.ptes_protected").Add(invalidated);
  ChargeShootdowns(maps, per_map, /*full_sweep=*/false, sim, stats);
  return ShadowPair{top, shadow};
}

bool CollapseAfterFlush(const ShadowPair& pair, const std::vector<VmMap*>& maps, bool reversed,
                        SimContext* sim) {
  const std::shared_ptr<VmObject>& frozen = pair.frozen;
  VmObject* base = frozen->parent();
  if (base == nullptr) {
    return false;  // first checkpoint of this region: nothing below to merge
  }
  if (base->shadow_count() != 1) {
    return false;  // fork-shared base: merging would break sharing
  }
  if (base->sls_oid() != frozen->sls_oid()) {
    return false;  // different logical region on disk (fork shadow boundary)
  }
  // Frames are about to move between objects; drop any translations that
  // reference them. This TLB pressure after collapses is the runtime
  // overhead the paper's reversed collapse minimizes.
  for (VmMap* map : maps) {
    map->pmap().InvalidateObject(frozen.get(), sim->cost, &sim->clock);
    map->pmap().InvalidateObject(base, sim->cost, &sim->clock);
  }
  if (reversed) {
    std::shared_ptr<VmObject> keep = frozen->parent_ref();
    if (!frozen->CollapseReversedIntoParent(sim->cost, &sim->clock).ok()) {
      return false;
    }
    // Splice the emptied shadow out by repointing the live top at the base,
    // and detach it from the chain so stray references to it (debuggers,
    // in-flight flush records) cannot keep the base's shadow count elevated.
    pair.live->ReplaceParent(keep);
    frozen->ReplaceParent(nullptr);
    sim->metrics.counter("vm.shadow_collapses").Add();
  } else {
    if (!frozen->CollapseClassic(sim->cost, &sim->clock).ok()) {
      return false;
    }
    // Classic direction: the frozen shadow absorbed the base and spliced it
    // out itself; the live top already points at the frozen shadow.
    sim->metrics.counter("vm.shadow_collapses").Add();
  }
  return true;
}

}  // namespace aurora
