"""Synthetic SPEC-CPU2006-like workload generators."""
