"""Tier-1 smoke of the end-to-end benchmark.

``run --smoke --trace`` over all four workloads at tiny sizes, each in its
own subprocesses (about 15 s on a 2-core machine).  It must exit 0, which
it does only when no operation failed its correctness check; every metric
named in BENCHMARK.json must be emitted and finite; and the traced digest
must equal the untraced one.  A layer binding that no longer resolves is
reported by ``run --trace``, not failed here: code the layer table names
may be deleted.
"""

import json
import math

from .cli import load_benchmark, main
from .workloads import WORKLOADS


def test_every_workload_reports_every_metric_and_passes_its_checks(tmp_path):
    out = tmp_path / "smoke.json"
    assert main(["run", "--smoke", "--trace", "--json", str(out)]) == 0
    with open(out) as handle:
        results = json.load(handle)["workloads"]
    assert sorted(results) == sorted(WORKLOADS)
    spec = load_benchmark()
    problems = []
    for name, result in results.items():
        for kind, source in (("end_to_end", result["metrics"]), ("per_layer", result["layers"])):
            for metric in spec[kind]:
                value = source.get(metric["name"], (None,))[0]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{name}: {metric['name']} = {value!r}")
        if result["failed"] or result["metrics"]["failed_frac"][0]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} failed")
        if result["digest"] != result["digest_traced"]:
            problems.append(f"{name}: traced digest differs from untraced")
    assert problems == []
