#!/usr/bin/env python3
"""Validate a `--trace-out` JSONL stream against the regalloc-obs event grammar.

Usage: check_trace_schema.py TRACE.jsonl [METRICS.prom]

Checks, per line:
  * the line is a single JSON object with a known "type" and a "fn" string;
  * exactly the fields the event type requires are present, with the right
    JSON types and enum values (phase names, cache outcomes, rungs, ...);
and, across the stream:
  * every timing record comes after every deterministic event line (timing
    is quarantined at the end of the file);
  * spans balance per function (every span-start has its span-end).

With a second argument, also validates a `--metrics-out` Prometheus
exposition: every line is `# TYPE name kind` or `name{labels} value`,
each series is declared before use, and every summary family carries
exactly the quantile="0.5"/"0.95"/"0.99" series plus `_sum`/`_count`.

Exit status 0 on success; 1 with one diagnostic per offending line.
"""

import json
import re
import sys

PHASES = {
    "build", "solve", "presolve", "simplex", "rewrite", "verify",
    "static-validate", "interp-check", "baseline", "fallback", "encode",
    "cache", "audit",
}
CACHE_OUTCOMES = {"hit", "miss", "stale", "rejected"}
RUNGS = {"ip-optimal", "ip-incumbent", "warm-start", "coloring", "spill-all"}
WARM_KINDS = {"none", "exact", "projected"}
NODE_OUTCOMES = {
    "branched", "pruned", "integral", "integral-invalid", "infeasible",
    "lp-infeasible", "abandoned",
}
SOLVE_STATUSES = {"optimal", "feasible", "infeasible", "unknown", "numerical-trouble"}

def is_u64(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0

def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)

def is_str(v):
    return isinstance(v, str)

# type -> {field: validator}; every event also carries "type" and "fn".
SCHEMAS = {
    "span-start": {"phase": PHASES.__contains__},
    "span-end": {"phase": PHASES.__contains__},
    "model": {"insts": is_u64, "vars": is_u64, "constraints": is_u64},
    "seed-accepted": {"source": is_str, "objective": is_num},
    "seed-rejected": {"source": is_str, "reason": is_str},
    "dive": {"lp_iters": is_u64, "depth": is_u64,
             "improved": lambda v: isinstance(v, bool)},
    "node": {"index": is_u64, "depth": is_u64, "lp_iters": is_u64,
             "outcome": NODE_OUTCOMES.__contains__},
    "solver-counters": {
        "pivots": is_u64,
        "degenerate_pivots": is_u64,
        "ratio_test_ties": is_u64,
        "presolve_eliminations": is_u64,
        "max_dive_depth": is_u64,
    },
    "incumbent": {"nodes": is_u64, "objective": is_num, "source": is_str},
    "health": {"from": is_str, "to": is_str},
    "solve-done": {
        "status": SOLVE_STATUSES.__contains__,
        "nodes": is_u64,
        "lp_iters": is_u64,
        "warm_start_only": lambda v: isinstance(v, bool),
    },
    "demoted": {"rung": RUNGS.__contains__, "reason": is_str},
    "accepted": {"rung": RUNGS.__contains__, "warm_start": WARM_KINDS.__contains__},
    "cache": {"outcome": CACHE_OUTCOMES.__contains__},
    "lint": {"code": is_str, "count": is_u64},
    "certificate-checked": {"leaves": is_u64},
    "certificate-rejected": {"code": is_str},
    "timing": {"phase": PHASES.__contains__, "seconds": is_num},
}


def main(path):
    errors = []
    open_spans = {}  # fn -> [phase stack]
    seen_timing = False
    n_events = n_timings = 0

    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue

            def err(msg):
                errors.append(f"{path}:{lineno}: {msg}")

            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                err(f"not valid JSON: {e}")
                continue
            if not isinstance(obj, dict):
                err("line is not a JSON object")
                continue

            kind = obj.get("type")
            if kind not in SCHEMAS:
                err(f"unknown event type {kind!r}")
                continue
            if not is_str(obj.get("fn")):
                err(f"{kind}: missing or non-string \"fn\"")
                continue

            schema = SCHEMAS[kind]
            expected = {"type", "fn"} | set(schema)
            actual = set(obj)
            if actual != expected:
                missing = sorted(expected - actual)
                extra = sorted(actual - expected)
                detail = []
                if missing:
                    detail.append(f"missing {missing}")
                if extra:
                    detail.append(f"unexpected {extra}")
                err(f"{kind}: {', '.join(detail)}")
                continue
            bad = [k for k, check in schema.items() if not check(obj[k])]
            if bad:
                err(f"{kind}: invalid value for {bad} in {line}")
                continue

            if kind == "timing":
                seen_timing = True
                n_timings += 1
                continue
            n_events += 1
            if seen_timing:
                err(f"{kind}: deterministic event after the first timing record")
            if kind == "span-start":
                open_spans.setdefault(obj["fn"], []).append(obj["phase"])
            elif kind == "span-end":
                stack = open_spans.get(obj["fn"], [])
                if not stack or stack.pop() != obj["phase"]:
                    err(f"span-end {obj['phase']!r} does not close the innermost span of {obj['fn']!r}")

    for fn, stack in open_spans.items():
        if stack:
            errors.append(f"{path}: {fn!r} has unclosed span(s): {stack}")
    if n_events == 0:
        errors.append(f"{path}: no deterministic events found")

    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    print(f"{path}: OK ({n_events} events, {n_timings} timing records)")
    return 0


METRIC_KINDS = {"counter", "gauge", "histogram", "summary"}
QUANTILES = ["0.5", "0.95", "0.99"]
SERIES_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)'
    r'(?:\{(?P<labels>[^}]*)\})? (?P<value>[0-9.eE+-]+|NaN)$'
)


def check_metrics(path):
    """Validate a Prometheus text exposition, including summary quantiles."""
    errors = []
    kinds = {}  # family -> kind
    # summary family -> set of quantile labels seen, plus _sum/_count flags
    summaries = {}

    def family_of(name):
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        return base if base in kinds else name

    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split(" ")
                if len(parts) != 4 or parts[1] != "TYPE" or parts[3] not in METRIC_KINDS:
                    errors.append(f"{path}:{lineno}: bad TYPE declaration: {line!r}")
                    continue
                kinds[parts[2]] = parts[3]
                if parts[3] == "summary":
                    summaries[parts[2]] = {"q": set(), "sum": False, "count": False}
                continue
            m = SERIES_RE.match(line)
            if not m:
                errors.append(f"{path}:{lineno}: not a series line: {line!r}")
                continue
            name = m.group("name")
            fam = family_of(name)
            if fam not in kinds:
                errors.append(f"{path}:{lineno}: series {name!r} has no TYPE declaration")
                continue
            if kinds[fam] == "summary":
                rec = summaries[fam]
                if name == fam + "_sum":
                    rec["sum"] = True
                elif name == fam + "_count":
                    rec["count"] = True
                else:
                    labels = dict(
                        kv.split("=", 1) for kv in (m.group("labels") or "").split(",") if "=" in kv
                    )
                    q = labels.get("quantile", "").strip('"')
                    if q not in QUANTILES:
                        errors.append(
                            f"{path}:{lineno}: summary {fam} with quantile {q!r} "
                            f"(expected one of {QUANTILES})"
                        )
                    else:
                        rec["q"].add(q)

    for fam, rec in sorted(summaries.items()):
        missing = [q for q in QUANTILES if q not in rec["q"]]
        if missing:
            errors.append(f"{path}: summary {fam} missing quantile(s) {missing}")
        if not rec["sum"] or not rec["count"]:
            errors.append(f"{path}: summary {fam} missing _sum/_count")
    if not summaries:
        errors.append(f"{path}: no summary families found")

    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 1
    print(f"{path}: OK ({len(kinds)} families, {len(summaries)} summaries)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    rc = main(sys.argv[1])
    if len(sys.argv) == 3:
        rc = check_metrics(sys.argv[2]) or rc
    sys.exit(rc)
