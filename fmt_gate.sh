#!/usr/bin/env bash
# Formatting gate, wired into `dune runtest` via the root dune file.
#
# Gated on purpose: the gate runs `ocamlformat --check` over the source
# trees only when BOTH an ocamlformat binary is on PATH AND the project
# root carries an `.ocamlformat` profile. When either is missing (the CI
# container ships the compiler toolchain without ocamlformat) the gate
# skips cleanly with exit 0 so `dune runtest` stays green — it must never
# require installing anything.
#
# Layout that needs no formatter (tabs, trailing whitespace, lines over
# 100 columns) is lint rule R12, which always runs in the lint gate.
#
# The committed LINT_report.json is kept fresh by the lint gate's
# --check-stale leg (root dune file), which fails on a stale report and
# names the refresh command.
set -eu

if ! command -v ocamlformat >/dev/null 2>&1; then
  echo "fmt gate: ocamlformat not on PATH; skipping (nothing to enforce)"
  exit 0
fi
if [ ! -f .ocamlformat ]; then
  echo "fmt gate: no .ocamlformat profile at the project root; skipping"
  exit 0
fi

status=0
checked=0
for f in $(find lib bin test bench -type f \( -name '*.ml' -o -name '*.mli' \) | sort); do
  checked=$((checked + 1))
  if ! ocamlformat --check "$f" >/dev/null 2>&1; then
    echo "fmt gate: $f is not formatted" >&2
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "fmt gate: $checked files formatted"
fi
exit $status
