#ifndef MEMPHIS_FABRIC_FABRIC_H_
#define MEMPHIS_FABRIC_FABRIC_H_

#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "fabric/exchange.h"
#include "fabric/fabric_store.h"
#include "fabric/router.h"
#include "serve/session_manager.h"
#include "sim/timeline.h"

namespace memphis::fabric {

/// Geo-distributed serving fabric configuration.
struct FabricConfig {
  int num_sites = 2;
  /// Share broadcast-derived intermediates across sites through the
  /// FabricStore tier. Off = site-isolated stores (the baseline every
  /// cross-site number is compared against).
  bool cross_site_reuse = true;
  /// Per-site serving template: every site gets its own SessionManager
  /// built from a copy of this.
  serve::ServeConfig serve;
  /// When set, site i's shared store persists under persist_root +
  /// "/site<i>" -- a rejoining site rehydrates from its own durable tier.
  std::string persist_root;
  /// Durable-tier budget used when `serve.store_persist_budget` is 0.
  size_t persist_budget = 4ull << 20;
  ExchangeConfig exchange;
  int virtual_nodes = 64;
};

/// A fabric-tracked request: the original request (kept for failover
/// resubmission), the live serve ticket, and where it currently runs.
/// Mutable fields are guarded by the fabric's mutex; read them through
/// Resolve()/reports, not directly from racing threads.
struct FabricTicket {
  serve::ScriptRequest request;
  serve::RequestTicketPtr ticket;
  int site = -1;
  bool failed_over = false;
  bool accounted = false;  // Fabric-internal exactly-once latch.
};
using FabricTicketPtr = std::shared_ptr<FabricTicket>;

/// Explicit outcome accounting of one rebalance (kill or rejoin). The
/// exactly-once contract: affected == completed + shed + failed_over --
/// every request caught by a site death terminates exactly one way, and a
/// failed-over request's continued life is tracked at its new site.
struct RebalanceReport {
  std::vector<TenantMove> moves;
  int affected = 0;
  int completed = 0;    // Finished at the dying site before the drain.
  int shed = 0;         // Deadline-bearing; rejected rather than replayed.
  int failed_over = 0;  // Resubmitted to the tenant's new site.
  int rewarmed_entries = 0;  // Store entries pushed to the new sites.
};

/// The geo-distributed serving fabric (DESIGN.md §5j): consistent-hash
/// tenant routing over per-site SessionManagers, a fabric-level reuse tier
/// above the per-site SharedLineageStores, per-site virtual-time lanes in
/// one shared MultiLaneTimeline, and explicit site-failure / rejoin
/// rebalancing with re-warm.
///
/// Lock rank kFabric sits at the very top of the table: Submit and the
/// rebalance paths hold it across SessionManager::Submit and store warms
/// (every serve/cache rank is above it). SessionManager worker threads
/// never take fabric locks, so a fabric-held drain cannot deadlock.
class ServingFabric {
 public:
  explicit ServingFabric(const FabricConfig& config);
  ~ServingFabric();

  ServingFabric(const ServingFabric&) = delete;
  ServingFabric& operator=(const ServingFabric&) = delete;

  /// Routes the request's tenant to its site (importing the tenant's
  /// cross-site store entries first, when enabled) and submits it there.
  FabricTicketPtr Submit(const serve::ScriptRequest& request)
      MEMPHIS_EXCLUDES(mu_);

  /// Waits for the ticket's terminal result -- following a failover to the
  /// new site's ticket if one happens mid-wait -- and accounts it exactly
  /// once (virtual site-lane time, fabric outcome counters, store publish).
  serve::RequestResult Resolve(const FabricTicketPtr& ticket)
      MEMPHIS_EXCLUDES(mu_);

  /// Kills a site: sheds its tenants to the survivors (explicit
  /// re-partitioning via the consistent-hash ring), drains the dead
  /// manager, classifies every affected in-flight request exactly once
  /// (completed / shed / failed-over), and re-warms moved tenants at their
  /// new sites from the fabric tier.
  RebalanceReport KillSite(int site) MEMPHIS_EXCLUDES(mu_);

  /// Re-admits a dead site: a fresh SessionManager rehydrates from the
  /// site's durable store tier, the ring moves the site's home tenants
  /// back, and the fabric tier re-warms them.
  RebalanceReport RejoinSite(int site) MEMPHIS_EXCLUDES(mu_);

  /// Current site of `tenant` (registers the placement on first use).
  int SiteOf(const std::string& tenant) MEMPHIS_EXCLUDES(mu_);

  bool alive(int site) MEMPHIS_EXCLUDES(mu_);
  int num_sites() const { return config_.num_sites; }

  /// Site `site`'s accumulated virtual serving time (its lane in the
  /// shared fabric timeline).
  double SiteVirtualSeconds(int site) MEMPHIS_EXCLUDES(mu_);

  /// Total coordinator-clock seconds charged for cross-site exchange.
  double ExchangeSeconds() MEMPHIS_EXCLUDES(mu_);

  FabricStore& store() { return store_; }
  serve::SessionManager& site_manager(int site) MEMPHIS_EXCLUDES(mu_);
  const FabricConfig& config() const { return config_; }

  /// Drains every live site. Idempotent; also run by the destructor.
  void Shutdown() MEMPHIS_EXCLUDES(mu_);

 private:
  serve::ServeConfig SiteServeConfig(int site) const;
  /// Pushes `tenant`'s fabric-tier entries into `target`'s shared store,
  /// charging exchange to the fabric's cross-site clock.
  int RewarmTenantLocked(const std::string& tenant, int target)
      MEMPHIS_REQUIRES(mu_);
  /// Exactly-once terminal accounting of a finished ticket.
  void AccountLocked(const FabricTicketPtr& ticket,
                     const serve::RequestResult& result) MEMPHIS_REQUIRES(mu_);

  const FabricConfig config_;
  FabricStore store_;

  mutable Mutex mu_{LockRank::kFabric, "fabric"};
  FabricRouter router_ MEMPHIS_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<serve::SessionManager>> managers_
      MEMPHIS_GUARDED_BY(mu_);
  std::vector<std::vector<FabricTicketPtr>> inflight_ MEMPHIS_GUARDED_BY(mu_);
  sim::MultiLaneTimeline timeline_ MEMPHIS_GUARDED_BY(mu_);
  double exchange_seconds_ MEMPHIS_GUARDED_BY(mu_) = 0.0;
  bool shut_down_ = false;  // Main-thread flag (Shutdown/dtor only).

  // Registry-owned fabric.* metrics (outlive this fabric).
  obs::Counter* submitted_;
  obs::Counter* completed_;
  obs::Counter* shed_;
  obs::Counter* failed_over_;
  obs::Counter* rebalanced_;
};

}  // namespace memphis::fabric

#endif  // MEMPHIS_FABRIC_FABRIC_H_
