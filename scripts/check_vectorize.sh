#!/usr/bin/env bash
# Verify the vectorisation contract of the generated code, CI-friendly
# (exit nonzero on failure), in both modes of CodegenOptions::vectorize
# (driven via the POLYMAGE_VECTORIZE env override that compilePipeline
# honours):
#
#   explicit (default) -- the dumped source must carry pm_v_ typedefs
#       and typed vector loop bodies, and the compiled object code must
#       contain wide SIMD register traffic (zmm/ymm, or xmm on narrow
#       hosts).  A silent fallback to scalar code fails the check.
#   off -- neither pragmas nor vector types; still builds.
#
# Usage: scripts/check_vectorize.sh [app]
#
# Defaults to `harris`.  Honours CXX (defaults to c++) and
# POLYMAGE_BUILD_DIR (defaults to build).

set -eu
cd "$(dirname "$0")/.."

app="${1:-harris}"
build_dir="${POLYMAGE_BUILD_DIR:-build}"
cxx="${CXX:-c++}"

cmake -B "$build_dir" -S . >/dev/null
cmake --build "$build_dir" -j "$(nproc)" --target polymage_dump_source \
    >/dev/null

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

dump="$build_dir/tools/polymage_dump_source"
# Same flags the JIT uses (runtime/jit.cpp).
flags="-shared -fPIC -std=c++17 -w -O3 -fno-math-errno -march=native \
       -fopenmp"

# ---- explicit mode (the default) --------------------------------------
gen="$tmp/$app.explicit.cpp"
POLYMAGE_VECTORIZE=explicit "$dump" "$app" > "$gen"

if ! grep -q "typedef.*vector_size" "$gen"; then
    echo "check_vectorize: explicit mode emitted no vector typedefs" >&2
    exit 1
fi
nvec=$(grep -c "pm_v_" "$gen" || true)
if [ "$nvec" -lt 4 ]; then
    echo "check_vectorize: explicit mode barely uses vector types" \
         "($nvec mentions) -- silent scalar fallback?" >&2
    exit 1
fi

# shellcheck disable=SC2086
"$cxx" $flags -o "$tmp/$app.explicit.so" "$gen"
asm="$tmp/$app.explicit.asm"
objdump -d "$tmp/$app.explicit.so" > "$asm"
wide=$(grep -cE '%(zmm|ymm)' "$asm" || true)
narrow=$(grep -cE '%xmm' "$asm" || true)
if [ "$wide" -eq 0 ] && [ "$narrow" -eq 0 ]; then
    echo "check_vectorize: no SIMD register traffic in explicit-mode" \
         "object code -- scalar fallback" >&2
    exit 1
fi
# If the generated source declares >=32-byte vectors, insist the object
# code actually uses wide (ymm/zmm) registers.
if grep -qE 'vector_size\((32|64)' "$gen" && [ "$wide" -eq 0 ]; then
    echo "check_vectorize: source declares wide vectors but object" \
         "code has no ymm/zmm instructions" >&2
    exit 1
fi

# ---- off mode ---------------------------------------------------------
gen="$tmp/$app.off.cpp"
POLYMAGE_VECTORIZE=off "$dump" "$app" > "$gen"
if grep -qE "#pragma omp simd|pm_v_" "$gen"; then
    echo "check_vectorize: off mode still emits vector pragmas or" \
         "types" >&2
    exit 1
fi
# shellcheck disable=SC2086
"$cxx" $flags -o "$tmp/$app.off.so" "$gen"

echo "check_vectorize: OK (explicit: $nvec pm_v_ mentions," \
     "$wide wide-register instrs; off: scalar build clean)"
