// The worker side of distributed campaign execution (`vppd --connect`).
//
// A CampaignWorker connects to a coordinator daemon and loops
// lease -> compute -> submit until the campaign completes: each granted
// shard subset runs through core::run_campaign_shards (the single-host
// engine's own unit pipeline over the leased indices, so bit-identical to
// it), and the completed ManifestShard records stream back
// in a submit frame for the coordinator's canonical-order merge. A local
// WCDP memo ensures each module's prep runs at most once per worker even
// across many small leases.
//
// Liveness: a heartbeat between lease and compute exercises renewal; a
// batch whose lease expired mid-compute is rejected by the coordinator with
// kLeaseExpired -- the worker *drops* that batch and keeps leasing (its
// shards were re-granted to someone faster; by determinism the other
// worker's bytes are the same). Every other error is fatal.
#pragma once

#include <cstdint>
#include <string>

#include "common/expected.hpp"

namespace vppstudy::server {

class CampaignWorker {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< the coordinator daemon's loopback port
    std::string worker_id;   ///< must be non-empty and unique per worker
    std::uint64_t lease_shards = 4;  ///< shards per lease (0 = all open)
    std::int64_t ttl_ms = 30000;
    int jobs = 1;       ///< local shard pool width (results unaffected)
    int poll_ms = 50;   ///< back-off when everything is leased out
  };

  struct Summary {
    std::uint64_t shards = 0;      ///< shard records accepted by the merge
    std::uint64_t leases = 0;      ///< non-empty grants processed
    std::uint64_t duplicates = 0;  ///< records the merge already had
    std::uint64_t dropped = 0;     ///< batches lost to lease expiry
  };

  /// Run until the campaign is complete (or a fatal error).
  [[nodiscard]] static common::Result<Summary> run(const Options& options);
};

}  // namespace vppstudy::server
