#!/usr/bin/env python3
"""Kernel call audit: no closure call inside the innermost loop of an RNS kernel.

dune's default (dev) profile compiles every module with -opaque, so a call
to a function of another module, or to a closure argument, compiles to
caml_applyN: an indirect call that spills every live register. Inside a
per-residue loop that roughly halves kernel speed, and nothing else would
notice. This script disassembles the built objects and fails if any
caml_apply* call sits inside an innermost loop of the kernels listed
below. Calls in outer (per-row) loops are allowed.

A kernel is its top-level definition in the source file: the named
function plus every closure whose code starts inside the definition's
lines (attributed through the objects' DWARF line table). Each kernel
must contain at least one innermost loop, so moving its hot loop into a
helper outside the audit also fails.

Usage (after `dune build`):  python3 test/kernel_audit.py [BUILD_DIR]
BUILD_DIR defaults to _build/default. Needs objdump (binutils), x86-64.
"""

import os
import re
import subprocess
import sys

# source file -> (library, module, audited top-level definitions)
KERNELS = {
    "lib/rns/ntt.ml": ("eva_rns", "Ntt", ["forward", "inverse"]),
    "lib/poly/rns_poly.ml": (
        "eva_poly",
        "Rns_poly",
        ["add", "sub", "neg", "mul", "mul_inplace", "add_inplace", "mul_acc", "mul_scalar_int",
         "rescale_many", "galois_rows", "galois", "of_small_coeffs", "of_float_coeffs",
         "to_float_coeffs", "sample_uniform", "sample_error", "sample_ternary"],
    ),
    "lib/ckks/keys.ml": (
        "eva_ckks",
        "Keys",
        ["generate_switch_key", "digit_values_into", "decompose", "apply_decomposed"],
    ),
}

# A backward jump within two instructions of one of these calls returns
# from an out-of-line GC or stack stub; it is not a loop.
STUB_CALLS = ("caml_call_gc", "caml_call_realloc_stack")

HEADER = re.compile(r"^([0-9a-f]+) <(\S+)>:$")
LINE_INFO = re.compile(r"^\S*\.ml:(\d+)")
INSN = re.compile(r"^\s+([0-9a-f]+):\s+(\S+)\s*(.*)$")
RELOC = re.compile(r"^\s+[0-9a-f]+: R_X86_64_\S+\s+(\S+?)(?:[-+]0x[0-9a-f]+)?$")
TARGET = re.compile(r"^([0-9a-f]+) <")


def definition_spans(source):
    """Line span [first, last] of every top-level `let`/`and` definition."""
    starts = []
    with open(source) as f:
        for lineno, line in enumerate(f, 1):
            m = re.match(r"(?:let|and)(?: rec)? ([a-z_][A-Za-z0-9_']*)", line)
            if m:
                starts.append((lineno, m.group(1)))
            elif re.match(r"(?:type|module|exception|external|open) ", line):
                starts.append((lineno, None))
    spans = {}
    for (lo, name), nxt in zip(starts, starts[1:] + [(10**9, None)]):
        if name is not None:
            spans[name] = (lo, nxt[0] - 1)
    return spans


def functions(obj):
    """Per function symbol: its first source line and its instructions
    as (address, mnemonic, operands, relocation symbol or None)."""
    out = subprocess.run(
        ["objdump", "-dlr", "--no-show-raw-insn", obj], check=True, capture_output=True, text=True
    ).stdout
    funcs = []
    cur = None
    for line in out.splitlines():
        m = HEADER.match(line)
        if m:
            cur = {"sym": m.group(2), "line": None, "insns": []}
            funcs.append(cur)
            continue
        if cur is None:
            continue
        m = LINE_INFO.match(line)
        if m:
            if cur["line"] is None:
                cur["line"] = int(m.group(1))
            continue
        m = RELOC.match(line)
        if m:
            if cur["insns"]:
                addr, mn, ops, _ = cur["insns"][-1]
                cur["insns"][-1] = (addr, mn, ops, m.group(1))
            continue
        m = INSN.match(line)
        if m:
            cur["insns"].append((int(m.group(1), 16), m.group(2), m.group(3), None))
    return funcs


def innermost_loops(insns):
    loops = []
    for k, (addr, mn, ops, _) in enumerate(insns):
        if not mn.startswith("j"):
            continue
        m = TARGET.match(ops)
        if not m or int(m.group(1), 16) > addr:
            continue
        if any(p[1] == "call" and p[3] and p[3].startswith(STUB_CALLS) for p in insns[max(0, k - 2) : k]):
            continue
        loops.append((int(m.group(1), 16), addr))
    return [
        (lo, hi)
        for lo, hi in loops
        if not any((lo, hi) != (a, b) and lo <= a and b <= hi for a, b in loops)
    ]


def main():
    build = sys.argv[1] if len(sys.argv) > 1 else "_build/default"
    failures = []
    for source, (lib, mod, kernels) in KERNELS.items():
        obj = os.path.join(build, os.path.dirname(source), f".{lib}.objs", "native", f"{lib}__{mod}.o")
        spans = definition_spans(source)
        loops_seen = {k: 0 for k in kernels}
        for k in kernels:
            if k not in spans:
                failures.append(f"{mod}.{k}: no top-level definition in {source}")
        for fn in functions(obj):
            if fn["line"] is None:
                continue
            owner = next((k for k in kernels if k in spans and spans[k][0] <= fn["line"] <= spans[k][1]), None)
            if owner is None:
                continue
            loops = innermost_loops(fn["insns"])
            loops_seen[owner] += len(loops)
            for addr, mn, _, reloc in fn["insns"]:
                if reloc and reloc.startswith("caml_apply") and any(lo <= addr <= hi for lo, hi in loops):
                    failures.append(f"{mod}.{owner}: {mn} {reloc} at {addr:#x} ({fn['sym']}) inside an innermost loop")
        for k, n in loops_seen.items():
            if k in spans and n == 0:
                failures.append(f"{mod}.{k}: no loop found in its definition ({source}:{spans[k][0]})")
        print(f"{mod}: audited {', '.join(kernels)}")
    if failures:
        print("kernel call audit FAILED:")
        for f in failures:
            print("  " + f)
        sys.exit(1)
    print("kernel call audit passed: no caml_apply* inside an innermost kernel loop")


if __name__ == "__main__":
    main()
