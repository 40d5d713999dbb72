#ifndef DHQP_CATALOG_CATALOG_H_
#define DHQP_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/provider/provider.h"
#include "src/storage/storage_engine.h"

namespace dhqp {

/// A possibly-qualified object name from SQL. The paper's four-part
/// convention (§2.1): server.catalog.schema.table — shorter forms omit the
/// leading parts. Catalog/schema parts are carried for display and remoting
/// but resolution keys on (server, table).
struct ObjectName {
  std::string server;
  std::string catalog;
  std::string schema;
  std::string table;

  bool has_server() const { return !server.empty(); }
  std::string ToString() const;
};

/// A named view: its definition is kept as SQL text and re-bound on
/// reference, like deferred name resolution in SQL Server. Partitioned views
/// are ordinary views whose body is a UNION ALL over member tables (§4.1.5).
struct ViewDef {
  std::string name;
  std::string sql;
};

/// Identifies where a table lives: kLocalSource for the local storage
/// engine, otherwise the linked-server ordinal.
constexpr int kLocalSource = -1;

/// Reserved linked-server name under which every Engine auto-registers its
/// system-view (DMV) provider. `sys..dm_link_stats` — or, through a
/// four-part name, `shard1.sys..dm_link_stats` — resolves here; user
/// AddLinkedServer calls may not claim the name.
inline constexpr const char kSysServerName[] = "sys";

/// Everything the binder/optimizer need to know about a resolved table:
/// where it lives, its shape/cardinality/indexes, CHECK-constraint domains,
/// and the owning provider's capabilities.
struct ResolvedTable {
  int source_id = kLocalSource;
  std::string server_name;  ///< Empty for local tables.
  TableMetadata metadata;
  ProviderCapabilities caps;
  /// Column-domain constraints (from CHECK constraints); the constraint
  /// property framework seeds per-column domains from these.
  std::vector<CheckConstraint> checks;
};

/// Metadata hub of one engine instance (Fig 1's "Metadata: Stats, Linked
/// Servers" box): the local storage engine, the linked-server registry
/// binding names to providers, views, and cached remote metadata and
/// statistics.
class Catalog {
 public:
  explicit Catalog(StorageEngine* storage);

  StorageEngine* storage() const { return storage_; }

  /// @name Linked servers (§2.1).
  ///@{
  /// `reserved` is only set by the engine's own system-source registration;
  /// user registrations of reserved names (kSysServerName) are rejected.
  Status AddLinkedServer(const std::string& name,
                         std::shared_ptr<DataSource> source,
                         bool reserved = false);
  Result<DataSource*> GetLinkedServer(const std::string& name) const;
  Result<int> GetLinkedServerId(const std::string& name) const;
  /// Server name for a source id; precondition: valid remote id.
  const std::string& ServerName(int source_id) const;
  DataSource* ServerSource(int source_id) const;
  std::vector<std::string> LinkedServerNames() const;
  ///@}

  /// A reusable session on the given source (lazily created, cached).
  /// Thread-safe: parallel partitioned-view branches create their member
  /// sessions concurrently.
  Result<Session*> GetSession(int source_id);

  /// Session on the reserved `sys` system-view source — the session-state
  /// accessor DMV consumers (including remote EngineSessions answering
  /// four-part sys scans) go through. NotFound when no system source is
  /// registered.
  Result<Session*> SystemSession();

  /// Tears down the cached session for one remote source: the next
  /// GetSession reconnects through the provider. The link-down recovery
  /// path (§4.2) — a session over a dead link is useless even after the
  /// link comes back. Must only be called between queries: executor nodes
  /// hold raw Session pointers while a query runs. No-op for kLocalSource.
  void DropSession(int source_id);
  /// DropSession for every linked server (Engine calls this after an
  /// execution fails with a network error).
  void DropRemoteSessions();

  /// @name Views.
  ///@{
  Status CreateView(const std::string& name, const std::string& sql);
  const ViewDef* FindView(const std::string& name) const;
  Status DropView(const std::string& name);
  ///@}

  /// Resolves a (possibly four-part) table name to its source + metadata.
  /// Remote metadata is fetched through the provider's schema rowset and
  /// cached; `refresh` forces re-fetch (used by delayed schema validation).
  Result<ResolvedTable> ResolveTable(const ObjectName& name,
                                     bool refresh = false);

  /// Column statistics for cardinality estimation. For remote sources this
  /// goes through the provider's histogram rowsets (§3.2.4) when supported;
  /// returns NotSupported otherwise. The ablation that ignores remote
  /// statistics (E3) is OptimizerOptions::enable_remote_statistics, which
  /// OptimizerContext::StatsFor checks before calling this.
  Result<ColumnStatistics> GetStatistics(int source_id,
                                         const std::string& table,
                                         const std::string& column);

  /// Drops all cached remote metadata/statistics (tests & delayed schema
  /// validation scenarios).
  void InvalidateCaches();

 private:
  StorageEngine* storage_;
  std::unique_ptr<StorageDataSource> local_source_;
  std::unique_ptr<Session> local_session_;

  /// Resolution against a linked server (the name must carry a server part).
  Result<ResolvedTable> ResolveRemote(const ObjectName& name, bool refresh);
  /// Resolution against the reserved system source, if one is registered and
  /// exposes `table`.
  Result<ResolvedTable> ResolveViaSystemSource(const std::string& table,
                                               bool refresh);

  struct ServerEntry {
    std::string name;
    std::shared_ptr<DataSource> source;
    std::unique_ptr<Session> session;  // Lazily created.
    bool reserved = false;  // System source: survives DropRemoteSessions.
  };
  std::vector<ServerEntry> servers_;
  std::map<std::string, int> server_ids_;  // Lower-cased name -> ordinal.
  std::mutex session_mu_;  // Guards lazy session creation in GetSession.

  std::map<std::string, ViewDef> views_;  // Lower-cased name.

  struct TableCacheEntry {
    TableMetadata metadata;
  };
  std::map<std::string, TableCacheEntry> table_cache_;  // "id\0table".
  std::map<std::string, ColumnStatistics> stats_cache_;  // "id\0table\0col".
};

}  // namespace dhqp

#endif  // DHQP_CATALOG_CATALOG_H_
