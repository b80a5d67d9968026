// Deterministic fault injection ("chaos") — the failure-mode driver
// behind docs/CHAOS.md.
//
// The serving stack (spool, journal, workers, wire protocol) claims to
// survive torn writes, I/O errors, stalls and overload.  This layer
// makes those failures reproducible on demand: code under test
// declares *injection sites* (`RETEST_CHAOS_FIRE("atpg.journal."
// "torn_write")`), and an operator or test arms them through the
// `REPRO_CHAOS` environment variable (or `chaos::LoadSpec` in-process)
// with a spec that says *which* hits of *which* sites misbehave.
//
// Determinism contract: a site decision is a pure function of
// (spec, site name, per-site hit ordinal).  No wall clock, no
// `rand()`, no global hit interleaving — two runs that hit a site the
// same number of times in the same per-site order make identical
// injection decisions, even under thread interleaving of *different*
// sites.  The probabilistic trigger (`p<percent>`) draws from a
// counter-indexed hash of (seed, site, ordinal), so it is equally
// replayable.
//
// Spec grammar (full reference: docs/CHAOS.md):
//
//   spec    := entry (';' entry)*
//   entry   := "seed=" N
//            | site '=' when [':' arg]
//   when    := "always" | "off"
//            | N          -- exactly the Nth hit (1-based)
//            | N '+'      -- every hit from the Nth on
//            | N '%' M    -- the Nth hit, then every Mth after it
//            | 'p' P      -- each hit independently with P% chance
//                            (deterministic; see above)
//   arg     := integer payload, site-specific (bytes to keep for torn
//              writes, ms for stalls, byte index for bit flips)
//
//   REPRO_CHAOS='seed=7;atpg.journal.torn_write=3:5;serve.worker.stall=p25:10'
//
// Build gating: `REPRO_CHAOS_BUILD=OFF` (CMake) sets RETEST_CHAOS=0
// and the RETEST_CHAOS_* macros expand to inert constants — the sites
// vanish from the binary, which is the bit-identity baseline the
// BENCH_* acceptance runs use.  With the default ON build and no
// REPRO_CHAOS in the environment, every site is one relaxed atomic
// load.
//
// Thread-safety: all functions may be called from any thread.
// LoadSpec/Reset swap the whole configuration and must not race
// in-flight Fire calls in tests that care about exact hit counts
// (arm before starting workers, read counters after joining them).
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#ifndef RETEST_CHAOS
#define RETEST_CHAOS 1
#endif

namespace retest::core::chaos {

/// True when a non-empty spec is armed (from REPRO_CHAOS on first use,
/// or the last successful LoadSpec).  One relaxed load; the macros
/// short-circuit on it.
bool Enabled();

/// Arms `spec`, replacing any previous configuration and zeroing every
/// per-site counter.  An empty spec disarms chaos entirely.  On a
/// malformed spec: returns false, stores a one-line reason in *error
/// (if non-null), and leaves chaos DISARMED — a typo must never turn
/// into a silent no-chaos production run that looks green.
bool LoadSpec(const std::string& spec, std::string* error = nullptr);

/// Disarms chaos and zeroes all counters.  The REPRO_CHAOS environment
/// variable is only consulted once per process (first use); Reset does
/// not re-arm it.
void Reset();

/// Counts one hit at `site` and returns whether the injection fires
/// there.  The per-site injection counter and the chaos.hits /
/// chaos.injected metrics are updated as a side effect.
bool Fire(const char* site);

/// Fire() + payload: when the site fires, *arg receives the spec's
/// `:arg` (or `default_arg` when the spec carries none).
bool FireArg(const char* site, long default_arg, long* arg);

/// Fire() + sleep: when the site fires, blocks the calling thread for
/// the spec arg (or `default_ms`) milliseconds.  Returns fired.
bool InjectStall(const char* site, long default_ms);

/// Fire() + corruption: when the site fires and `size > 0`, flips bit
/// 0 of byte (spec arg mod size) in `data` — default byte 0.  Returns
/// fired (false leaves the bytes untouched).  Pointer + length so the
/// caller can aim at a sub-range (e.g. a frame's payload, header
/// intact).
bool CorruptByte(const char* site, char* data, std::size_t size);

/// Observability for tests: hits / injections recorded at `site` since
/// the last LoadSpec/Reset.  While a spec is armed, sites it does not
/// name count hits too (so a test can assert a site was reached);
/// with chaos disarmed entirely, the fast path skips all bookkeeping
/// and Hits stays 0.
long Hits(const char* site);
long Injected(const char* site);
/// Injected() summed over every site.  Plain bookkeeping, so it stays
/// exact in a REPRO_METRICS=OFF build where chaos.injected is absent.
long TotalInjected();

}  // namespace retest::core::chaos

// ---- Site macros -----------------------------------------------------
//
// All injection sites go through these so a REPRO_CHAOS_BUILD=OFF
// build compiles them to constants (no call, no counter, no branch on
// site state — the surrounding `if (...)` folds away).

#if RETEST_CHAOS

#define RETEST_CHAOS_FIRE(site) (::retest::core::chaos::Fire(site))
#define RETEST_CHAOS_ARG(site, default_arg, arg_out) \
  (::retest::core::chaos::FireArg(site, default_arg, arg_out))
#define RETEST_CHAOS_STALL(site, default_ms) \
  (::retest::core::chaos::InjectStall(site, default_ms))
#define RETEST_CHAOS_CORRUPT(site, data, size) \
  (::retest::core::chaos::CorruptByte(site, data, size))

#else  // !RETEST_CHAOS

#define RETEST_CHAOS_FIRE(site) (false)
#define RETEST_CHAOS_ARG(site, default_arg, arg_out) (false)
#define RETEST_CHAOS_STALL(site, default_ms) (false)
#define RETEST_CHAOS_CORRUPT(site, data, size) (false)

#endif  // RETEST_CHAOS
