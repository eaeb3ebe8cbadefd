"""The repo's benchmark of record; see ``perf/README.md``."""
