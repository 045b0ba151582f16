"""End-to-end benchmark of the DTR engine: four workloads through the
public API, end-to-end metrics from untraced runs, per-layer timing from
separate traced runs.  See README.md."""
