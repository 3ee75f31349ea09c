#!/usr/bin/env python3
"""Layering check for the sans-io split.

The protocol core must stay deployable without the simulator: src/co may
include only src/common, src/causality and the trace-record layout it
writes, the socket layer (src/transport) may include only src/common, the
baselines (src/baselines) only the simulation substrate, the one driver
(every src/driver file but the simulated cluster) may not include src/sim,
and only the fuzzer itself includes src/fuzz. Run from anywhere; exits
non-zero and prints every violation as file:line: include.

Rules (DESIGN.md "Layering"):
  src/co        -> src/common, src/causality and src/obs/trace/record.h
                   only (and itself): the core emits binary trace records
                   but links nothing of the tracer
  src/obs       -> no src/sim, no src/driver (tracer/metrics/exporters must
                   stay linkable from the realtime path)
  src/transport -> src/common only (and itself): it is the socket layer
  src/baselines -> src/common, src/sim, src/net, src/clocks, src/causality
                   only (and itself): CBCAST, TO and PO share nothing with
                   the CO protocol they are compared against
  src/host      -> no src/sim, no src/net (the sharded host runtime is the
                   deployable path: real sockets and the realtime driver
                   only, never the simulated network)
  src/driver except cluster.{h,cpp} -> no src/sim (the driver, its Env and
                   the timer wheel are shared by the simulator and the host;
                   only CoCluster wires them to the simulator)
  src/ except src/fuzz -> no src/fuzz (the fuzzer is a client of the
                   libraries, never a dependency of one)
"""
from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+)"')

# (scope, forbidden prefixes, rationale)
RULES = [
    (
        "src/host",
        ("src/sim/", "src/net/"),
        "the sharded host runtime ships without the simulator: transport, "
        "realtime driver and obs only",
    ),
    (
        "src/obs",
        ("src/sim/", "src/driver/"),
        "observability (tracer, metrics, exporters) must stay usable from "
        "the realtime path",
    ),
]

# (scope, the only prefixes it may include besides itself, rationale)
ALLOW_ONLY = [
    (
        "src/co",
        ("src/common/", "src/causality/", "src/obs/trace/record.h"),
        "the sans-io core depends on src/common and src/causality only, "
        "plus the trace-record layout it writes into each EffectBatch",
    ),
    (
        "src/transport",
        ("src/common/",),
        "the socket layer depends on src/common only",
    ),
    (
        "src/baselines",
        ("src/common/", "src/sim/", "src/net/", "src/clocks/",
         "src/causality/"),
        "the comparators must not borrow the CO core, its drivers or the "
        "host, or the comparison stops meaning anything",
    ),
]

# The files of src/driver that wire the driver to the simulator; every other
# file there is the one driver every runtime shares and must stay sim-free.
SIM_CLUSTER_FILES = {"cluster.h", "cluster.cpp"}


def includes_of(path: pathlib.Path):
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        m = INCLUDE_RE.match(line)
        if m:
            yield lineno, m.group(1)


def main() -> int:
    violations = []

    def check(scope, bad, why):
        for path in sorted((REPO / scope).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            for lineno, inc in includes_of(path):
                if bad(inc):
                    rel = path.relative_to(REPO)
                    violations.append(f"{rel}:{lineno}: {inc}  ({why})")

    for scope, forbidden, why in RULES:
        check(scope, lambda inc: inc.startswith(forbidden), why)
    for scope, allowed, why in ALLOW_ONLY:
        allowed = (scope + "/",) + allowed
        check(scope, lambda inc: not inc.startswith(allowed), why)

    for path in sorted((REPO / "src/driver").glob("*")):
        if path.suffix not in (".h", ".cpp") or path.name in SIM_CLUSTER_FILES:
            continue
        for lineno, inc in includes_of(path):
            if inc.startswith("src/sim/"):
                rel = path.relative_to(REPO)
                violations.append(
                    f"{rel}:{lineno}: {inc}  "
                    "(the driver must not depend on the simulator)"
                )

    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cpp"):
            continue
        rel = path.relative_to(REPO)
        if rel.parts[:2] == ("src", "fuzz"):
            continue
        for lineno, inc in includes_of(path):
            if inc.startswith("src/fuzz/"):
                violations.append(
                    f"{rel}:{lineno}: {inc}  "
                    "(only the fuzzer includes src/fuzz)"
                )

    if violations:
        print("layering violations:")
        for v in violations:
            print("  " + v)
        return 1
    print("layering: OK (src/co is sans-io; src/transport is the socket "
          "layer; src/baselines shares nothing with CO; the driver is "
          "sim-free; only src/fuzz includes src/fuzz)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
