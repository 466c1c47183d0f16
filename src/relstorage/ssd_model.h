#ifndef RELFAB_RELSTORAGE_SSD_MODEL_H_
#define RELFAB_RELSTORAGE_SSD_MODEL_H_

#include <cstdint>

#include "common/statusor.h"
#include "faults/injector.h"
#include "faults/retry.h"

namespace relfab::relstorage {

/// Timing parameters of the simulated computational SSD (an
/// OpenSSD/SmartSSD-class device, paper §IV-D). All latencies in host
/// CPU cycles (1.5 GHz). Key property: aggregate internal flash
/// bandwidth (channels x dies) exceeds the external host interface, so
/// logic placed inside the device can afford to read more than it ships.
struct SsdParams {
  uint32_t channels = 8;
  uint32_t page_bytes = 4096;
  /// Flash page sense latency (charged once per batch; subsequent pages
  /// pipeline behind it).
  double page_read_cycles = 45000.0;
  /// Per-page occupancy of one channel (internal flash transfer).
  double internal_transfer_cycles = 1500.0;
  /// Per-page occupancy of the external host interface.
  double external_transfer_cycles = 6000.0;
  /// In-storage processing cost per value (projection/filter/decode run
  /// on the device's embedded logic).
  double storage_logic_cycles_per_value = 3.0;
  /// Host CPU cost per value when processing on the host instead.
  double host_cpu_cycles_per_value = 3.0;
};

/// Cycle accounting for one SSD. Internal reads spread across channels;
/// external shipping serializes on the host interface.
class SsdModel {
 public:
  explicit SsdModel(const SsdParams& params = SsdParams{})
      : params_(params) {}

  /// Cycles to read `pages` pages into the device (channel-parallel,
  /// pipelined behind one sense latency).
  double ReadInternal(uint64_t pages) {
    pages_read_ += pages;
    if (pages == 0) return 0;
    const double waves = static_cast<double>(
        (pages + params_.channels - 1) / params_.channels);
    return params_.page_read_cycles +
           waves * params_.internal_transfer_cycles;
  }

  /// Cycles to ship `pages` pages over the external interface.
  double ShipToHost(uint64_t pages) {
    pages_shipped_ += pages;
    return static_cast<double>(pages) * params_.external_transfer_cycles;
  }

  // --- failable variants ---
  // One injection opportunity per batch (a real device retries per
  // command, not per page). On a retryable fault the penalty/backoff
  // cycles join the returned batch cycles; once retries are exhausted
  // the mapped Status ("ssd.read" / "ssd.ship" rules) surfaces and the
  // attempts' cycles are lost with the batch (the caller abandons the
  // scan and degrades).

  /// ReadInternal with "ssd.read" fault injection.
  StatusOr<double> ReadInternalChecked(uint64_t pages) {
    double cycles = ReadInternal(pages);
    RELFAB_RETURN_IF_ERROR(faults::InjectAndRetry(
        injector_, read_site_, retry_,
        [&cycles](double c) { cycles += c; }, "flash page batch read"));
    return cycles;
  }

  /// ShipToHost with "ssd.ship" fault injection.
  StatusOr<double> ShipToHostChecked(uint64_t pages) {
    double cycles = ShipToHost(pages);
    RELFAB_RETURN_IF_ERROR(faults::InjectAndRetry(
        injector_, ship_site_, retry_,
        [&cycles](double c) { cycles += c; }, "host interface transfer"));
    return cycles;
  }

  /// Arms "ssd.read" / "ssd.ship" injection; null disarms.
  void set_fault_injector(faults::FaultInjector* injector) {
    injector_ = injector;
    read_site_ = injector == nullptr ? faults::FaultInjector::kNoSite
                                     : injector->Site("ssd.read");
    ship_site_ = injector == nullptr ? faults::FaultInjector::kNoSite
                                     : injector->Site("ssd.ship");
  }

  const SsdParams& params() const { return params_; }
  uint64_t pages_read() const { return pages_read_; }
  uint64_t pages_shipped() const { return pages_shipped_; }
  void ResetStats() {
    pages_read_ = 0;
    pages_shipped_ = 0;
  }

 private:
  SsdParams params_;
  uint64_t pages_read_ = 0;
  uint64_t pages_shipped_ = 0;
  faults::FaultInjector* injector_ = nullptr;
  faults::RetryPolicy retry_;
  int read_site_ = faults::FaultInjector::kNoSite;
  int ship_site_ = faults::FaultInjector::kNoSite;
};

}  // namespace relfab::relstorage

#endif  // RELFAB_RELSTORAGE_SSD_MODEL_H_
