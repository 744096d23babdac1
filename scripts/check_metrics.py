#!/usr/bin/env python3
"""Validates one `metrics` reply: a warp-metrics-v1 exposition.

Checks the reply envelope, the header line, the grammar of every TYPE and
sample line, the presence of core families, and for each histogram that
its buckets are cumulative and its "+Inf" bucket equals its _count.
Exits nonzero with an assertion message on the first violation.

Usage: scripts/check_metrics.py METRICS_REPLY_FILE
"""
import json
import re
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    response = json.loads(handle.read())
assert response["ok"], response
assert response["op"] == "metrics", response
assert response["format"] == "warp-metrics-v1", response

lines = response["body"].splitlines()
assert lines[0] == "# warp-metrics-v1", lines[0]

SAMPLE = re.compile(
    r'^(warp_[a-z0-9_]+?)'
    r'(_total|_sum|_count|_bucket\{le="(?:\+Inf|[0-9]+)"\})? (-?[0-9]+)$')
TYPE = re.compile(r"^# TYPE (warp_[a-z0-9_]+) (counter|gauge|histogram)$")

families = {}   # name -> declared type
samples = {}    # full sample name (with label) -> value
for line in lines[1:]:
    if line.startswith("#"):
        match = TYPE.match(line)
        assert match, f"bad comment line: {line!r}"
        families[match.group(1)] = match.group(2)
        continue
    match = SAMPLE.match(line)
    assert match, f"bad sample line: {line!r}"
    samples[line.rsplit(" ", 1)[0]] = int(match.group(3))

assert "warp_serve_requests" in families, sorted(families)
assert "warp_serve_open_connections" in families, sorted(families)
assert "warp_serve_result_cache_hits" in families, sorted(families)
assert families.get("warp_serve_latency_1nn_us") == "histogram", families

for name, kind in families.items():
    if kind == "counter":
        assert samples[name + "_total"] >= 0, name
    elif kind == "gauge":
        assert name in samples, name
    else:  # histogram: cumulative buckets, +Inf == _count.
        count = samples[name + "_count"]
        assert samples[name + '_bucket{le="+Inf"}'] == count, name
        bounds = []
        for sample, value in samples.items():
            match = re.match(re.escape(name) + r'_bucket\{le="([0-9]+)"\}$',
                             sample)
            if match:
                bounds.append((int(match.group(1)), value))
        bounds.sort()
        cumulative = 0
        for _, value in bounds:
            assert value >= cumulative, f"{name}: non-cumulative buckets"
            cumulative = value
        assert cumulative <= count, name
print(f"smoke: warp-metrics-v1 OK "
      f"({len(families)} families, {len(samples)} samples)")
