#include "src/objstore/scrubber.h"

namespace aurora {

ScrubEpochVerdict Scrubber::ScrubRecord(const ObjectStore::CheckpointRecord& record,
                                        ScrubReport* report) {
  ScrubEpochVerdict verdict;
  verdict.epoch = record.epoch;
  verdict.name = record.name;

  ObjectStore* s = store_;
  // Uncached: a healthy cached table must never mask on-media damage. The
  // blob's own CRC catches metadata corruption.
  auto table = s->ReadEpochTable(record);
  if (!table.ok()) {
    verdict.meta_ok = false;
    if (table.status().code() == Errc::kCorrupt) {
      verdict.crc_errors++;
    } else {
      verdict.io_errors++;
    }
    return verdict;
  }

  std::vector<uint8_t> buf(s->options_.block_size);
  for (const auto& [oid, info] : *table) {
    if (info.non_cow) {
      continue;  // journal records carry their own CRCs, verified at replay
    }
    for (const auto& [logical, extent] : info.extents) {
      verdict.blocks_scanned++;
      // Blocks the compactor moved after this epoch committed live at their
      // relocated address now; the LIVE store's relocation map knows, the
      // historic blob does not.
      uint64_t phys = s->TranslatePhys(extent.phys, record.epoch);
      if (report != nullptr) {
        report->data_phys.insert(phys);
      }
      Status read = s->ReadBlockVerified(phys, extent.crc, extent.stored_len, buf.data());
      Errc error;
      if (!read.ok() && read.code() == Errc::kCorrupt) {
        verdict.crc_errors++;
        error = Errc::kCorrupt;
      } else if (!read.ok()) {
        verdict.io_errors++;
        error = Errc::kIoError;
      } else {
        continue;
      }
      if (report != nullptr) {
        report->bad_blocks.push_back(ScrubBadBlock{record.epoch, oid, logical, phys, error});
      }
    }
  }

  MetricsRegistry& metrics = s->sim_->metrics;
  metrics.counter("scrub.blocks_scanned").Add(verdict.blocks_scanned);
  metrics.counter("scrub.crc_errors").Add(verdict.crc_errors);
  metrics.counter("scrub.io_errors").Add(verdict.io_errors);
  return verdict;
}

Result<ScrubReport> Scrubber::ScrubAll() {
  ScrubReport report;
  store_->sim_->metrics.counter("scrub.runs").Add();
  for (const ObjectStore::CheckpointRecord& record : store_->checkpoints_) {
    report.epochs.push_back(ScrubRecord(record, &report));
  }
  return report;
}

Result<ScrubEpochVerdict> Scrubber::ScrubEpoch(uint64_t epoch) {
  for (const ObjectStore::CheckpointRecord& record : store_->checkpoints_) {
    if (record.epoch == epoch) {
      return ScrubRecord(record, nullptr);
    }
  }
  return Status::Error(Errc::kNotFound, "no such checkpoint");
}

}  // namespace aurora
