// The worker side of distributed campaign execution (`vppd --connect`).
//
// A CampaignWorker connects to a coordinator daemon and leases, computes
// and submits shard batches until the campaign completes: each granted
// shard subset runs through core::run_campaign_shards (the single-host
// engine's own unit pipeline over the leased indices, so bit-identical to
// it), and the completed ManifestShard records stream back
// in a submit frame for the coordinator's canonical-order merge. A local
// WCDP memo ensures each module's prep runs at most once per worker even
// across many small leases.
//
// The loop is pipelined on its one connection so the coordinator's round
// trips overlap the compute. As a batch starts, the worker sends its
// heartbeat and the next lease request without awaiting either; after the
// compute it reads the previous batch's submit reply, then the heartbeat
// reply, then sends this batch's submit unawaited and takes the prefetched
// grant. So at most one prefetched grant and one unanswered submit exist per
// worker. An empty grant while others hold shards is polled with a backoff
// from 1 ms doubling up to `poll_ms`.
//
// Liveness: a batch whose heartbeat reports kLeaseExpired is dropped
// unsubmitted, and a submit whose lease expired mid-compute is rejected by
// the coordinator with kLeaseExpired -- either way the worker *drops* that
// batch and keeps leasing (its shards were re-granted to someone faster; by
// determinism the other worker's bytes are the same). Every other error is
// fatal.
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
    int poll_ms = 50;   ///< back-off cap when everything is leased out
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
