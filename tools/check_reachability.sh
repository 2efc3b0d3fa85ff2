#!/usr/bin/env bash
# Which functions of the src/ libraries does a binary run?
#
#   tools/check_reachability.sh BUILD_DIR...
#
# Each BUILD_DIR is a build of this repository or of perfbench/, made with
# section garbage collection so that a binary holds only the functions it
# can reach:
#
#   flags=(-DCMAKE_BUILD_TYPE=Debug
#          "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
#          "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
#   cmake -S . -B build-gc "${flags[@]}" && cmake --build build-gc -j
#   cmake -S perfbench -B build-gc-perf "${flags[@]}" &&
#     cmake --build build-gc-perf -j
#   tools/check_reachability.sh build-gc build-gc-perf
#
# The src/ libraries are the libiotls_<dir>.a archives, one per directory
# of src/. Their external text symbols (nm type T) are the defined
# functions. A binary named test_* or *_selftest is a test; every other
# executable ships. The script prints three counts — functions defined,
# functions in no shipped binary, functions in no binary at all — and then
# lists each unshipped function, demangled, as "test-only" or "no binary".
#
# Exit status: 0 when every function is in some binary, 1 when one is in
# none, 2 on a usage error (no build directory, or no library found).
set -eu -o pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 BUILD_DIR..." >&2
  exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# External text symbols an object file or archive defines, one per line.
text_symbols() {
  nm --defined-only --extern-only --format=posix "$1" 2> /dev/null |
    awk '$2 == "T" { print $1 }'
}

is_elf() {
  [ "$(head -c 4 "$1" | od -An -c | tr -d ' ')" = "177ELF" ]
}

: > "$work/defined"
: > "$work/shipped"
: > "$work/tests"
libs=0
for dir in "$@"; do
  if [ ! -d "$dir" ]; then
    echo "check_reachability: no build directory $dir" >&2
    exit 2
  fi
  for src_dir in "$root"/src/*/; do
    name="$(basename "$src_dir")"
    while IFS= read -r lib; do
      text_symbols "$lib" >> "$work/defined"
      libs=$((libs + 1))
    done < <(find "$dir" -name "libiotls_$name.a" -not -path '*/CMakeFiles/*')
  done
  while IFS= read -r bin; do
    is_elf "$bin" || continue
    case "$(basename "$bin")" in
      test_* | *_selftest) text_symbols "$bin" >> "$work/tests" ;;
      *) text_symbols "$bin" >> "$work/shipped" ;;
    esac
  done < <(find "$dir" -type f -perm -u+x -not -name '*.a' \
             -not -path '*/CMakeFiles/*')
done

if [ "$libs" -eq 0 ]; then
  echo "check_reachability: no libiotls_<dir>.a under $*" >&2
  exit 2
fi

for list in defined shipped tests; do
  sort -u -o "$work/$list" "$work/$list"
done
comm -23 "$work/defined" "$work/shipped" > "$work/unshipped"
comm -23 "$work/unshipped" "$work/tests" > "$work/nowhere"

defined=$(wc -l < "$work/defined")
unshipped=$(wc -l < "$work/unshipped")
nowhere=$(wc -l < "$work/nowhere")
echo "src/ library functions: $defined defined," \
     "$unshipped in no shipped binary, $nowhere in no binary"
while IFS= read -r sym; do
  if grep -qxF -- "$sym" "$work/nowhere"; then
    where="no binary"
  else
    where="test-only"
  fi
  printf '%-9s  %s\n' "$where" "$(c++filt -- "$sym")"
done < "$work/unshipped" | sort -k1,1 -k2

[ "$nowhere" -eq 0 ]
