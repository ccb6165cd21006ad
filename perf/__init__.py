"""The repo's two-clock benchmark; see perf/README.md."""
