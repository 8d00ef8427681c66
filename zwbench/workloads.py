"""The benchmark's workloads by name.

Each workload module provides `generate(seed) -> (spec, ops)` (plain data,
no zwords), `build(spec)` (the program-side inputs; timed as set-up),
`run(op, ctx) -> str` (one timed operation and its rendered output) and
`expected(spec, op) -> str` (the oracle's rendering of the same output).
"""

import wl_cb
import wl_codec
import wl_schreier
import wl_search

WORKLOADS = {
    "schreier-batch": wl_schreier,
    "codec-cli": wl_codec,
    "witness-search": wl_search,
    "cb-index": wl_cb,
}
