/**
 * @file
 * Machine-model probe (`polymage::machine`): the cache hierarchy and
 * core count the tile cost model needs to size working sets.  Values
 * come from sysfs (`/sys/devices/system/cpu/cpu0/cache/index*`) with a
 * `sysconf` fallback and conservative hard-coded defaults when neither
 * source answers, are cached per process, and can be pinned via
 * `POLYMAGE_MACHINE=<l1d>,<l2>,<l3>,<cores>[,<vector_bits>]` (bytes,
 * optional K/M/G suffixes) so tests and cross-machine comparisons are
 * reproducible.  The fifth field pins the SIMD register width the
 * explicit vector emitter targets (docs/VECTORIZATION.md).
 */
#ifndef POLYMAGE_MACHINE_MACHINE_HPP
#define POLYMAGE_MACHINE_MACHINE_HPP

#include <cstdint>
#include <optional>
#include <string>

namespace polymage::machine {

/**
 * Whether the C library ships libmvec, the SIMD variants of
 * exp/log/pow/sin/cos that loops calling them vectorise into (x86-64
 * glibc).  Generated code then declares them and the JIT links them.
 */
#if defined(__x86_64__) && defined(__GLIBC__)
inline constexpr bool kSimdLibm = true;
#else
inline constexpr bool kSimdLibm = false;
#endif

/** The machine parameters the tile cost model consumes. */
struct MachineInfo
{
    /** Per-core L1 data cache bytes. */
    std::int64_t l1dBytes = 32 << 10;
    /** Per-core unified L2 bytes. */
    std::int64_t l2Bytes = 256 << 10;
    /** Last-level cache bytes (typically shared across cores). */
    std::int64_t l3Bytes = 8 << 20;
    /** Cache line bytes. */
    std::int64_t lineBytes = 64;
    /** Logical core count. */
    int cores = 1;
    /**
     * Widest SIMD register the CPU offers, in bits; the explicit vector
     * emitter divides this by the element width to pick its lane count.
     * 128 is the safe floor on every supported target (SSE2 / NEON).
     */
    int vectorBits = 128;
    /** Name of the probed vector instruction set ("avx512", "avx2",
     * "avx", "sse2", "neon", or "generic"). */
    std::string isa = "generic";
    /**
     * Where the numbers came from: "env" (POLYMAGE_MACHINE), "sysfs",
     * "sysconf", or "fallback" (the conservative defaults above).
     * Mixed probes report the most specific source that contributed.
     */
    std::string source = "fallback";

    std::string toString() const;
    /** Serialized as the `machine` object of tune/profile reports. */
    std::string toJson() const;
};

/**
 * Probe the machine, uncached: the POLYMAGE_MACHINE override when set,
 * else sysfs, else sysconf, else the conservative defaults.  Fields a
 * source cannot answer fall back individually.
 */
MachineInfo probeMachine();

/**
 * Parse a `POLYMAGE_MACHINE`-style override: up to five
 * comma-separated fields `<l1d>,<l2>,<l3>,<cores>,<vector_bits>`,
 * sizes accepting K/M/G suffixes; empty fields keep the given
 * defaults (so `,,,,128` pins only the vector width).  Returns
 * nullopt (leaving @p base untouched semantics to the caller) when the
 * string is malformed.
 */
std::optional<MachineInfo> parseMachineSpec(const std::string &spec,
                                            MachineInfo base = {});

/**
 * The per-process machine model: probed once on first use, then
 * cached.  All compile-time consumers (driver, tuner) read this.
 */
const MachineInfo &machineInfo();

} // namespace polymage::machine

#endif // POLYMAGE_MACHINE_MACHINE_HPP
