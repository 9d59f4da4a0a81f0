// Gateway: the fleet's routing tier. Compute nodes of every tenant send
// their RBIO traffic to per-(tenant, partition) gateway ports instead of
// directly to Page Servers; each port resolves the serving server
// through the TenantDirectory under the current route epoch, enforces
// the tenant's QoS contract, and forwards.
//
// Why a port per (tenant, partition) and not one per tenant: the RBIO
// client keys its batch queues, latency EWMAs and capability memos by
// endpoint *name*. One shared "gw" endpoint would coalesce GetPage
// misses of different partitions into a single kGetPageBatch frame that
// no single Page Server could serve. Port names carry the tenant prefix
// ("t3/gw-ps-0"), so all of that per-endpoint client state — including
// the kOverloaded scan backoff — is scoped (tenant, endpoint) for free:
// tenant 3 tripping a server's admission control never pins tenant 5's
// scans into backoff against the same physical server.
//
// QoS is a per-tenant token bucket, priced per frame class. Point reads
// (GetPage/range/batch) are paced but never shed — a throttled tenant
// gets latency, not errors. Scans are the bulk class: a scan whose
// projected wait exceeds max_wait_us is shed with kOverloaded, which the
// tenant's own RBIO client converts into a local-plan fallback plus a
// client-side backoff window. The same signal arriving *from* a Page
// Server (host admission control, PR 9) is recorded per (tenant, host)
// so only the tenant that tripped it backs off.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"
#include "compute/compute_node.h"
#include "fleet/tenant_directory.h"
#include "rbio/rbio.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace socrates {
namespace fleet {

struct GatewayOptions {
  /// Master switch: off forwards every frame untouched (routing and
  /// epoch fencing stay on — QoS is the only thing disabled).
  bool qos_enabled = true;
  /// Token refill rate per tenant. Costs are per frame and a point read
  /// costs one token, so this is roughly "frames per second".
  double tenant_tokens_per_s = 20000;
  /// Bucket depth: how much burst a tenant may front-load.
  double tenant_burst = 256;
  /// Scans are priced as bulk work: one kScanRange frame can occupy a
  /// server for many leaf pages.
  double scan_cost = 16.0;
  /// Scans whose projected token wait exceeds this are shed with
  /// kOverloaded instead of queued (mirrors the Page Server's own scan
  /// admission deadline). Points are never shed, only paced.
  SimTime max_scan_wait_us = 20 * 1000;
};

/// Per-tenant QoS state and counters (read by tests and the bench).
struct TenantQos {
  double tokens = 0;
  SimTime refilled_at = 0;
  bool primed = false;  // bucket starts full on first use
  /// host site -> backoff deadline for this tenant's scans.
  std::map<std::string, SimTime> scan_backoff_until;

  uint64_t points_forwarded = 0;
  uint64_t scans_forwarded = 0;
  uint64_t scans_shed_quota = 0;    // projected wait > max_scan_wait_us
  uint64_t scans_shed_backoff = 0;  // inside a (tenant, host) backoff
  uint64_t scans_shed_holdoff = 0;  // host busy with another tenant's points
  uint64_t throttle_waits = 0;
  SimTime throttle_wait_us_total = 0;
  uint64_t route_refreshes = 0;  // re-resolves after an epoch bump
};

class Gateway;

/// RBIO endpoint fronting one (tenant, partition). Caches the resolved
/// server fenced on the route epoch at resolution time.
class TenantPort : public rbio::RbioServer {
 public:
  TenantPort(Gateway* gw, TenantId tenant, PartitionId partition)
      : gw_(gw),
        tenant_(tenant),
        partition_(partition),
        name_("t" + std::to_string(tenant) + "/gw-ps-" +
              std::to_string(partition)) {}

  sim::Task<Result<std::string>> HandleRbio(
      const std::string& frame) override;

  const std::string& name() const { return name_; }
  TenantId tenant() const { return tenant_; }
  PartitionId partition() const { return partition_; }

 private:
  friend class Gateway;
  Gateway* gw_;
  TenantId tenant_;
  PartitionId partition_;
  std::string name_;
  // Route cache, valid only at cached_epoch_.
  pageserver::PageServer* server_ = nullptr;
  uint64_t epoch_ = UINT64_MAX;
  std::string host_site_;  // the server's chaos/host site (backoff key)
};

/// The router handed to one tenant's compute nodes: every partition
/// resolves to that tenant's gateway port, so all RBIO traffic funnels
/// through the gateway.
class TenantRouter : public compute::PageServerRouter {
 public:
  TenantRouter(Gateway* gw, TenantDirectory* directory, TenantId tenant,
               xlog::PartitionMap pmap)
      : PageServerRouter(pmap),
        gw_(gw),
        directory_(directory),
        tenant_(tenant) {}

  pageserver::PageServer* ServerFor(PageId page) const override;
  std::vector<rbio::Endpoint> EndpointsFor(PageId page) const override;

 private:
  Gateway* gw_;
  TenantDirectory* directory_;
  TenantId tenant_;
};

class Gateway {
 public:
  Gateway(sim::Simulator& sim, TenantDirectory* directory,
          const GatewayOptions& options);

  /// The router for `tenant`'s compute nodes (created on first call).
  compute::PageServerRouter* RouterFor(TenantId tenant,
                                       const xlog::PartitionMap& pmap);

  /// The port fronting (tenant, partition), created on demand.
  TenantPort* PortFor(TenantId tenant, PartitionId partition);

  /// QoS state/counters for a tenant (created on demand).
  TenantQos& qos(TenantId tenant) { return qos_[tenant]; }

  const GatewayOptions& options() const { return opts_; }

  uint64_t frames_forwarded() const { return frames_forwarded_; }
  uint64_t frames_shed() const { return frames_shed_; }

 private:
  friend class TenantPort;

  // The whole data path: epoch-fenced resolve, QoS admission, forward,
  // response classification.
  sim::Task<Result<std::string>> Forward(TenantPort* port,
                                         const std::string& frame);

  // Lazy token refill (deterministic: pure function of sim time).
  void Refill(TenantQos& q);

  sim::Simulator& sim_;
  TenantDirectory* directory_;
  GatewayOptions opts_;
  sim::CpuResource cpu_;
  std::map<TenantId, std::unique_ptr<TenantRouter>> routers_;
  std::map<std::pair<TenantId, PartitionId>, std::unique_ptr<TenantPort>>
      ports_;
  std::map<TenantId, TenantQos> qos_;
  /// host site -> (tenant -> last point-read forward time). Feeds the
  /// cross-tenant scan hold-off.
  std::map<std::string, std::map<TenantId, SimTime>> host_points_;
  uint64_t frames_forwarded_ = 0;
  uint64_t frames_shed_ = 0;
};

}  // namespace fleet
}  // namespace socrates
