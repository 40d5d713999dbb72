#ifndef DHQP_COMMON_FASTCLOCK_H_
#define DHQP_COMMON_FASTCLOCK_H_

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define DHQP_FASTCLOCK_RDTSC 1
#endif

namespace dhqp {
namespace fastclock {

/// Monotonic wall clock in nanoseconds (steady_clock). Use for span
/// timestamps and anything read rarely.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cheap per-call timestamp for hot-path instrumentation (operator timing
/// runs twice per NextBatch() per operator). On x86-64 this is one RDTSC
/// (~7 ns, vs ~20-25 ns for steady_clock); elsewhere it falls back to
/// NowNs(), making ToNs the identity.
inline int64_t Ticks() {
#ifdef DHQP_FASTCLOCK_RDTSC
  return static_cast<int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}

/// Converts an accumulated tick *interval* to nanoseconds. The tick/ns
/// ratio is calibrated lazily against steady_clock over the process's own
/// lifetime (a static anchor captured at startup vs the first ToNs call),
/// so there is no startup stall; the first conversion must happen at least
/// ~100 µs into the process, which any real caller satisfies.
int64_t ToNs(int64_t ticks);

}  // namespace fastclock
}  // namespace dhqp

#endif  // DHQP_COMMON_FASTCLOCK_H_
