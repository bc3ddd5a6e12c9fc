#!/usr/bin/env bash
# Code-size report, deprecated-surface gate, one-artifact-path gate,
# `unsafe` gate and every-module-has-a-caller gate (run from the repo
# root).
#
# Per crate: non-comment, non-blank lines over src/**/*.rs, and the
# number of `pub` items (fn/struct/enum/trait/const/type). ROADMAP
# aim 2 asks every PR to report both; CHANGES.md quotes these numbers.
#
# Exits 1 if `#[deprecated` or `allow(deprecated)` appears anywhere
# under crates/, src/, tests/ or examples/: the compat wrappers are
# gone, and nothing may grow a new deprecated surface silently.
#
# Exits 1 if the CI workflow mentions `python3` (bench checks live in
# each experiment's `failures`, not in inline scripts) or a source line
# under crates/sccf-bench/src/experiments/ contains a hand-escaped `\"`
# (every BENCH_*.json goes through `sccf_util::Json`).
#
# Also prints the raw line count of the vendored shims (vendor/*/src)
# and the number of `unsafe` sites in the workspace, and exits 1 if
# `unsafe` appears in a code line under crates/, src/ or vendor/ outside
# crates/sccf-tensor/src/simd.rs — the one audited home of the AVX2
# kernels (ROADMAP item 3).
#
# Prints the number of `from_le_bytes`/`to_le_bytes` sites under crates/
# and src/ (hand byte-twiddling outside the shared codec shows up here)
# and exits 1 if `struct Reader` or `fn put_u32` is defined anywhere but
# crates/sccf-util/src/codec.rs — one cursor, one set of appenders.
#
# Exits 1 if a `const … = b"SCCF…"` under crates/*/src or src/ has no
# row in the "Byte formats" table of docs/ARCHITECTURE.md, or if two
# such consts define the same magic, naming the magic: every byte
# format is documented, and each has one definition.
#
# Exits 1 if `env::var` or `env::var_os` appears in a code line under
# src/ or crates/*/src outside crates/sccf-bench (whose two `*_DEBUG`
# diagnostics stay): the serving processes read no environment, and
# every knob is a `Flags` flag, which rejects an unknown flag.
#
# Exits 1 if a module re-exported from a `crates/*/src/lib.rs`
# (`pub use <mod>::…;`) has no caller: none of the re-exported names
# occurs in a non-comment line of any other file under crates/*/src,
# src/ or benchmark/src. A module stays if a serving path, a `repro`
# experiment or the `sccf` CLI reaches it; tests, examples and docs do
# not keep one alive — except `sccf-serving/src/stream`, the
# dataset → event-stream flattener three examples share (its only
# library caller was the deleted reorder buffer; ROADMAP item 5
# decides). Also exits 1 if `criterion` or `parking_lot` is
# named in any Cargo.toml or a `benches/` directory exists under
# crates/ — the perf records are BENCHMARK.json and the BENCH_*.json.
#
# Exits 1 if a `pub trait` under crates/*/src or src/ has fewer than
# two `impl … for` blocks across crates/, src/, tests/, examples/ and
# benchmark/src: a trait with one implementor is a seam nothing uses —
# call the type. A test fake counts as an implementor.
#
# Exits 1 if a `pub fn` under crates/*/src or src/ is named by no
# non-comment line under crates/, src/, tests/, examples/ or
# benchmark/src other than a `fn <name>` definition, naming it: every
# public function has a caller, and a test counts as one.
set -euo pipefail

code_lines() { xargs -r cat | grep -cvE '^\s*(//|$)' || true; }
pub_items() { xargs -r cat | grep -cE '^\s*pub (fn|struct|enum|trait|const|type) ' || true; }

printf '%-16s %8s %6s\n' crate lines pub
total_lines=0
total_pub=0
for dir in crates/*/src src; do
  if [ "$dir" = src ]; then name=sccf; else name=$(basename "$(dirname "$dir")"); fi
  lines=$(find "$dir" -name '*.rs' | code_lines)
  pubs=$(find "$dir" -name '*.rs' | pub_items)
  printf '%-16s %8d %6d\n' "$name" "$lines" "$pubs"
  total_lines=$((total_lines + lines))
  total_pub=$((total_pub + pubs))
done
printf '%-16s %8d %6d\n' total "$total_lines" "$total_pub"
# The two routers' crates together: the sum ROADMAP item 2 tracks.
printf 'sccf-serving + sccf-net: %d\n' \
  "$(find crates/sccf-serving/src crates/sccf-net/src -name '*.rs' | code_lines)"

printf 'vendor/*/src raw lines: %d\n' "$(find vendor/*/src -name '*.rs' | xargs -r cat | wc -l)"
unsafe_sites() { grep -rnw --include='*.rs' unsafe crates src vendor | grep -vE '^[^:]+:[0-9]+:\s*//' || true; }
printf 'unsafe sites: %d\n' "$(unsafe_sites | wc -l)"
if unsafe_sites | grep -v '^crates/sccf-tensor/src/simd.rs:'; then
  echo 'error: unsafe outside crates/sccf-tensor/src/simd.rs (see the lines above)' >&2
  exit 1
fi

printf 'le_bytes sites: %d in %d files\n' \
  "$(grep -rnE --include='*.rs' '(from|to)_le_bytes' crates src | wc -l)" \
  "$(grep -rlE --include='*.rs' '(from|to)_le_bytes' crates src | wc -l)"
if grep -rnE --include='*.rs' 'struct Reader\b|fn put_u32\b' crates src vendor |
  grep -v '^crates/sccf-util/src/codec.rs:'; then
  echo 'error: a second byte cursor or appender set; use sccf_util::codec (see the lines above)' >&2
  exit 1
fi

# Every `SCCF…` magic a const defines has a row in the "Byte formats"
# table of docs/ARCHITECTURE.md, and no magic is defined twice.
formats=$(sed -n '/^## Byte formats/,/^## [^B]/p' docs/ARCHITECTURE.md | grep '^| `' || true)
magics=$(grep -rhoE --include='*.rs' 'const [A-Z0-9_]+: [^=]*= b"SCCF[^"]*"' crates/*/src src |
  grep -oE 'SCCF[^"]*' | sort || true)
bad_magic=0
for m in $(uniq -d <<<"$magics"); do
  echo "error: magic $m is defined by two consts; one format, one definition" >&2
  bad_magic=1
done
for m in $(uniq <<<"$magics"); do
  if ! grep -qF "| \`$m\`" <<<"$formats"; then
    echo "error: magic $m has no row in the Byte formats table of docs/ARCHITECTURE.md" >&2
    bad_magic=1
  fi
done
[ "$bad_magic" -eq 0 ] || exit 1

if grep -rnwE --include='*.rs' 'env::var(_os)?' src crates/*/src |
  grep -v '^crates/sccf-bench/' | grep -vE '^[^:]+:[0-9]+:\s*//'; then
  echo 'error: an environment read in a library or the CLI; make it a Flags flag (see the lines above)' >&2
  exit 1
fi

if grep -rnE '#\[deprecated|allow\(deprecated\)' crates src tests examples; then
  echo 'error: deprecated surface found (see the lines above)' >&2
  exit 1
fi

if grep -n 'python3' .github/workflows/ci.yml; then
  echo 'error: ci.yml runs python3 again; bench checks belong in the experiment (see the lines above)' >&2
  exit 1
fi
if grep -rn '\\"' crates/sccf-bench/src/experiments/; then
  echo 'error: hand-escaped JSON in a bench experiment; build a sccf_util::Json instead' >&2
  exit 1
fi

orphans=0
for lib in crates/*/src/lib.rs; do
  src=$(dirname "$lib")
  # One `pub use <mod>::<names>;` per line, whatever its layout in lib.rs.
  while read -r _ _ path; do
    mod=${path%%::*}
    [ -e "$src/$mod.rs" ] || [ -d "$src/$mod" ] || continue # a foreign crate
    [ "$src/$mod" = crates/sccf-serving/src/stream ] && continue # see the header
    names=$(grep -oE '[A-Za-z_][A-Za-z0-9_]*' <<<"${path#*::}" | grep -vx as | paste -sd'|')
    callers=$(grep -rnwE --include='*.rs' "$names" crates/*/src src benchmark/src |
      grep -vE "^($lib|$src/$mod\.rs|$src/$mod/[^:]*):" |
      grep -cvE '^[^:]+:[0-9]+:\s*//' || true)
    if [ "$callers" -eq 0 ]; then
      echo "error: $src/$mod has no caller outside its own file ($names); wire it in or delete it" >&2
      orphans=1
    fi
  done < <(tr '\n' ' ' <"$lib" | grep -oE 'pub use [a-z_]+::[^;]+;')
done
[ "$orphans" -eq 0 ] || exit 1

# A `pub trait` earns its seam with a second implementor; a test fake
# counts as one.
lonely=0
for t in $(grep -rhoE --include='*.rs' '^\s*pub trait [A-Za-z_][A-Za-z0-9_]*' crates/*/src src |
  awk '{print $3}'); do
  impls=$(grep -rnE --include='*.rs' "^\s*impl\b.*\b$t(<.*>)?\s+for\s" \
    crates src tests examples benchmark/src | wc -l)
  if [ "$impls" -lt 2 ]; then
    echo "error: pub trait $t has $impls implementor(s); use the type, or add the second implementor" >&2
    lonely=1
  fi
done
[ "$lonely" -eq 0 ] || exit 1

# Every `pub fn` has a caller. One pass: the identifiers of every
# non-comment line, with `fn <name>` definitions blanked out, against
# the names the `pub fn`s define.
pub_fns=$(grep -rhoE --include='*.rs' '^\s*pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src src |
  awk '{print $3}' | sort -u)
named=$(find crates src tests examples benchmark/src -name '*.rs' | xargs -r cat |
  grep -vE '^\s*//' | sed -E 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g' |
  grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
uncalled=$(comm -23 <(echo "$pub_fns") <(echo "$named"))
if [ -n "$uncalled" ]; then
  echo "error: pub fn with no caller (tests count, comments do not): $(echo $uncalled)" >&2
  exit 1
fi

if grep -nE 'criterion|parking_lot' Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml benchmark/Cargo.toml; then
  echo 'error: a deleted shim is named in a manifest (see the lines above)' >&2
  exit 1
fi
if find crates -type d -name benches | grep .; then
  echo 'error: a benches/ directory; perf loops belong in a repro experiment or benchmark/' >&2
  exit 1
fi
