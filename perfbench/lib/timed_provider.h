#ifndef PERFBENCH_LIB_TIMED_PROVIDER_H_
#define PERFBENCH_LIB_TIMED_PROVIDER_H_

#include <memory>

#include "src/provider/provider.h"

namespace perfbench {

/// Timing decorator over the public provider interfaces: forwards every
/// DataSource / Session / Command / Rowset call to the wrapped provider and,
/// while the span store is enabled, records a `connectors.open` span around
/// each rowset open (OpenRowset, OpenIndexRange, OpenIndexKeys,
/// Command::Execute) and a `connectors.fetch` span around each fetch
/// (Rowset::NextBatch, Rowset::Next, FetchByBookmark). The traced run wraps
/// each linked server's source in one before registering it with the engine.
///
/// The engine finds link counters by casting a linked server's source to
/// LinkedDataSource; behind this decorator that cast fails, so per-query
/// retry/timeout/fault counts read 0. The benchmark injects no faults, so
/// nothing it reports depends on them.
std::shared_ptr<dhqp::DataSource> WrapTimed(
    std::shared_ptr<dhqp::DataSource> inner);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_TIMED_PROVIDER_H_
