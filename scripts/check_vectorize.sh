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
# Then, in the default mode, the two loop shapes the generic checks
# cannot see:
#
#   pyramid -- its column up-samplers' even and odd classes must be
#       interleaved into loops over the quotient (the dump header's
#       interleaved_nests > 0), and every such loop must vectorise
#       (the compiler's -fopt-info-vec report).
#   laplacian -- on x86-64 glibc its remap must call libmvec's SIMD
#       expf (an imported _ZGV...expf symbol), not only the scalar one.
#
# Last, no object of the seven paper apps may import a symbol of the
# OpenMP runtime (GOMP_*, omp_*): generated code keeps only its `omp
# simd` pragmas, which -fopenmp-simd honours without the runtime.
#
# Usage: scripts/check_vectorize.sh [app]
#
# [app] (default `harris`) selects the app of the explicit/off checks.
# Honours CXX (defaults to c++) and POLYMAGE_BUILD_DIR (defaults to
# build).

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
# Same flags and libraries the JIT uses (runtime/jit.cpp): libmvec,
# the SIMD variants of the transcendentals, where glibc ships it on
# x86-64.
flags="-shared -fPIC -std=c++17 -w -fno-math-errno -fopenmp-simd -O3 \
       -march=native"
libs=""
if [ "$(uname -m)" = x86_64 ] && ldd --version 2>&1 | grep -qiE 'glibc|gnu libc'; then
    libs="-lmvec"
fi

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
"$cxx" $flags -o "$tmp/$app.explicit.so" "$gen" $libs
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
"$cxx" $flags -o "$tmp/$app.off.so" "$gen" $libs

# ---- interleaved residue nests (pyramid) ------------------------------
gen="$tmp/pyramid.cpp"
"$dump" pyramid > "$gen"
nilv=$(sed -n '1s/.* interleaved_nests=\([0-9]*\).*/\1/p' "$gen")
if [ "${nilv:-0}" -eq 0 ]; then
    echo "check_vectorize: pyramid emits no interleaved residue nest" >&2
    exit 1
fi
# shellcheck disable=SC2086
"$cxx" $flags -fopt-info-vec-optimized -o "$tmp/pyramid.so" "$gen" $libs \
    2> "$tmp/pyramid.vec"
# First and last line of every `omp simd` loop over a quotient q, and
# whether the report places a vectorised loop inside it.
loops=$(awk '/#pragma omp simd/ { pragma = NR; next }
             pragma == NR - 1 && /for \(int q = / {
                 start = NR; col = index($0, "for") }
             start && NR > start && substr($0, col, 1) == "}" {
                 print start, NR; start = 0 }' "$gen")
nloops=0
for span in $(echo "$loops" | tr ' ' ':'); do
    first=${span%:*}
    last=${span#*:}
    nloops=$((nloops + 1))
    if ! awk -F: -v a="$first" -v b="$last" \
            '/loop vectorized/ && $2 >= a && $2 <= b { hit = 1 }
             END { exit !hit }' "$tmp/pyramid.vec"; then
        echo "check_vectorize: interleaved loop at pyramid.cpp:$first" \
             "did not vectorise" >&2
        exit 1
    fi
done
if [ "$nloops" -eq 0 ]; then
    echo "check_vectorize: pyramid has no omp simd loop over a quotient" >&2
    exit 1
fi

# ---- SIMD libm (laplacian) ----------------------------------------------
mvec="skipped (no libmvec)"
if [ -n "$libs" ]; then
    gen="$tmp/laplacian.cpp"
    "$dump" laplacian > "$gen"
    # shellcheck disable=SC2086
    "$cxx" $flags -o "$tmp/laplacian.so" "$gen" $libs
    if ! objdump -T "$tmp/laplacian.so" | grep -qE '_ZGV[a-z]N[0-9]+v_expf'; then
        echo "check_vectorize: laplacian imports the scalar expf only," \
             "no libmvec variant" >&2
        exit 1
    fi
    mvec="libmvec expf"
fi

# ---- no OpenMP runtime (every paper app) --------------------------------
apps="unsharp bilateral harris camera pyramid interp laplacian"
pids=""
for a in $apps; do
    [ -f "$tmp/$a.so" ] && continue
    "$dump" "$a" > "$tmp/$a.cpp"
    # shellcheck disable=SC2086
    "$cxx" $flags -o "$tmp/$a.so" "$tmp/$a.cpp" $libs &
    pids="$pids $!"
done
for pid in $pids; do
    wait "$pid"
done
for a in $apps; do
    if objdump -T "$tmp/$a.so" | grep -qE '(GOMP_|omp_)'; then
        echo "check_vectorize: $a imports the OpenMP runtime:" >&2
        objdump -T "$tmp/$a.so" | grep -E '(GOMP_|omp_)' >&2
        exit 1
    fi
done

echo "check_vectorize: OK (explicit: $nvec pm_v_ mentions," \
     "$wide wide-register instrs; off: scalar build clean;" \
     "pyramid: $nilv interleaved nests, $nloops vectorised loops;" \
     "laplacian: $mvec; no OpenMP runtime imports in 7 apps)"
